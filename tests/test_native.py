"""The native orbit loop: bitwise parity with the Python loops across
buffer calls and row slices run on threads, for every function and for
failures that the orbit loop resumes, and runs whose output no missing,
failing, truncated, read-only or concurrent build changes."""

import importlib
import os
import stat
import subprocess
import sys
import threading
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import lyapset
from lyapset.errors import EscapedDomainError
from lyapset.expr import _FUNCTIONS, VectorFieldSpec
from lyapset.flow import IntegratorConfig, integrate_lanes, sample_times
from lyapset.geometry import SinglePoint
from conftest import native, native_builds, orbit_attempts, sliced

flow = importlib.import_module("lyapset.flow")
limits = importlib.import_module("lyapset.limits")
stability = importlib.import_module("lyapset.stability")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(lyapset.__file__))
HARMONIC = VectorFieldSpec.from_strings(["x2", "-x1"])


def _error(error):
    """Type, text and attempts of error, and the time and state bits of an
    escape; None for no error."""
    if error is None:
        return None
    bits = [type(error).__name__, str(error), getattr(error, "attempts", None)]
    if isinstance(error, EscapedDomainError):
        bits += [error.time.hex(), [v.hex() for v in error.state]]
    return bits


def _run(V, starts, targets, cfg, on):
    """Per row of one integrate_lanes call, with the native loop on or off:
    the (j, state bits) of its samples in the order visit saw them, and
    _error of its error; then (rows, j) of each visit call."""
    samples = [[] for _ in starts]
    calls = []

    def visit(rows, j, states):
        calls.append((rows.tolist(), j.tolist()))
        for row, target, state in zip(rows.tolist(), j.tolist(), states.tolist()):
            samples[row].append((target, [v.hex() for v in state]))

    with native(on):
        errors = integrate_lanes(V, starts, targets, cfg, visit)
    return [(samples[i], _error(errors.get(i))) for i in range(len(starts))], calls


def _same_bits(V, starts, targets, cfg):
    """The native loop's _run, asserted equal to the orbit loops'."""
    got, calls = _run(V, starts, targets, cfg, True)
    assert got == _run(V, starts, targets, cfg, False)[0]
    return got, calls


_RK4_DENSE = IntegratorConfig(method="rk4_fixed", dt=0.35)


class TestBuffer:
    @pytest.mark.parametrize("size", [1, 2, 3, 7, 64])
    @pytest.mark.parametrize("cfg", [IntegratorConfig(rel_tol=1e-3, abs_tol=1e-6), _RK4_DENSE])
    def test_rows_straddle_buffer_calls(self, size, cfg, monkeypatch):
        # Several samples per step, so a step may need more room than the
        # buffer has left, or than it holds at all: the row stops there,
        # to continue in the next call or, from an empty buffer, in the
        # orbit loop. One start lies outside the blow-up radius.
        starts = [[1.0, 0.0], [0.0, 0.0], [0.3, -0.2], [3.0, 3.0], [-0.7, 0.1]]
        monkeypatch.setattr(flow, "_BUFFER", size)
        cfg = replace(cfg, blowup_radius=4.0)
        rows, calls = _same_bits(HARMONIC, starts, sample_times(4.0, 0.1)[1:], cfg)
        assert rows[3][1][0] == "EscapedDomainError"
        if not native_builds(HARMONIC, cfg.method):
            return
        assert len(calls) > 1
        for call_rows, js in calls:
            assert len(call_rows) <= max(size, len(sample_times(4.0, 0.1)))
            assert call_rows == sorted(call_rows)
            pairs = list(zip(call_rows, js))
            assert all(b[1] == a[1] + 1 for a, b in zip(pairs, pairs[1:]) if a[0] == b[0])

    def test_a_stop_in_visit_ends_the_pass_after_one_buffer(self, monkeypatch):
        class Stop(Exception):
            pass

        calls = []

        def visit(rows, j, states):
            calls.append(len(rows))
            raise Stop

        if not native_builds(HARMONIC):
            pytest.skip("no native loop builds here")
        monkeypatch.setattr(flow, "_BUFFER", 10)
        with native(True), pytest.raises(Stop):
            integrate_lanes(HARMONIC, np.zeros((50, 2)), sample_times(2.0, 0.1)[1:],
                            IntegratorConfig(), visit)
        assert len(calls) == 1 and 0 < calls[0] <= 10


_HARMONIC_HALF_BUDGET = orbit_attempts(["x2", "-x1"], [0.3, 0.1], 8.0, 0.1) // 2

# name: (field, starts, targets, config) of one native run of many rows,
# some of which end in each way a row can end before its last target.
_SLICED_CASES = {
    # Escapes at the start and at different times, and starts that finish.
    "escape": (["x1"], [[v] for v in np.linspace(-5.0, 1.0, 13)], sample_times(3.0, 0.05)[1:],
               IntegratorConfig(blowup_radius=4.0)),
    # Failures in the field at the start (x1 > 0.5) and later on, which
    # the orbit loop resumes.
    "domain": (["1", "sqrt(0.5 - x1)"], [[v, 0.0] for v in np.linspace(-1.5, 0.75, 10)],
               sample_times(2.0, 0.05)[1:], IntegratorConfig()),
    # The equilibrium finishes; the other starts run out of steps halfway.
    "step-budget": (["x2", "-x1"], [[0.3 * k, 0.1] for k in range(-5, 6)] + [[0.0, 0.0]],
                    sample_times(8.0, 0.1)[1:], IntegratorConfig(max_steps=_HARMONIC_HALF_BUDGET)),
    # The step size underflows where -1/x1 blows up, at t = x1^2 / 2.
    "underflow": (["-1 / x1"], [[v] for v in (1.0, 2.0, 0.5, 0.25, 1.5, 3.0, 0.75)],
                  [0.1, 0.4, 1.0], IntegratorConfig(max_steps=10_000)),
    # Several samples per step, so that rows straddle the small buffer of
    # the buffer test below; one start lies outside the blow-up radius.
    "dense": (["x2", "-x1"], [[np.cos(a), np.sin(a)] for a in np.linspace(0, 3, 9)]
              + [[3.0, 3.0]], sample_times(4.0, 0.1)[1:],
              IntegratorConfig(method="rk4_fixed", dt=0.35, blowup_radius=4.0)),
}


def _sliced_run(name, workers):
    """_run of _SLICED_CASES[name] with the native loop on, in min(workers,
    rows) slices, and the per-row attempts of _native's run there, or None
    where no native loop builds."""
    texts, starts, targets, cfg = _SLICED_CASES[name]
    V = VectorFieldSpec.from_strings(texts)
    with sliced(workers):
        rows, calls = _run(V, starts, targets, cfg, True)
        run = flow._native(V, cfg.method)
        attempts = None if run is None else run(
            np.array(starts, float), np.asarray(targets), cfg, lambda *batch: None)[2].tolist()
    return rows, calls, attempts


def _slice_of(rows, m, w):
    """The slice of w over m rows that holds every row of rows."""
    (i,) = {next(i for i in range(w) if row < m * (i + 1) // w) for row in rows}
    return i


@pytest.fixture()
def fast_switching():
    """Threads switch every microsecond, so that slices interleave as
    finely as the interpreter lets them."""
    kept = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(kept)


@pytest.mark.usefixtures("fast_switching")
class TestSlices:
    """A native run cut into row slices, each slice's calls on a thread of
    their own: every row's samples, error and attempts are the serial
    run's and the orbit loop's, bit for bit, whatever the slices."""

    @pytest.mark.parametrize("workers", [2, 3, 50])
    @pytest.mark.parametrize("name", sorted(_SLICED_CASES))
    def test_bitwise_equal_to_the_serial_run_and_the_orbit_loop(self, name, workers):
        texts, starts, targets, cfg = _SLICED_CASES[name]
        V = VectorFieldSpec.from_strings(texts)
        serial, _, serial_attempts = _sliced_run(name, 1)
        assert serial == _run(V, starts, targets, cfg, False)[0]
        before = threading.active_count()
        rows, calls, attempts = _sliced_run(name, workers)
        assert threading.active_count() == before
        assert rows == serial and attempts == serial_attempts
        if attempts is None:
            return
        # The attempts of a row that ends in the native loop are the
        # orbit loop's; of a row it stops, those before the failing one,
        # which the orbit loop's error counts.
        orbit = flow._compiled(V, cfg.method)
        for row, start in enumerate(starts):
            error = rows[row][1]
            if error is None:
                assert attempts[row] == orbit(list(start), targets, cfg, [])
            elif error[0] == "EscapedDomainError":
                assert attempts[row] == error[2]
            else:
                assert attempts[row] <= error[2]
        # Each call lies within one slice.
        for call_rows, _ in calls:
            _slice_of(call_rows, len(starts), min(workers, len(starts)))

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("name", ["dense", "escape"])
    def test_rows_cut_across_buffers(self, name, workers, monkeypatch):
        # A buffer of 7 samples: a row goes on in its slice's next call, or,
        # where one step passes more targets than that, in the orbit loop,
        # so the attempts are those of the serial run at that buffer.
        expected = _sliced_run(name, 1)[0]
        monkeypatch.setattr(flow, "_BUFFER", 7)
        rows, calls, attempts = _sliced_run(name, workers)
        assert (rows, attempts) == (expected, _sliced_run(name, 1)[2])
        if attempts is not None:  # some row is visited in more than one call
            assert any(sum(row in call_rows for call_rows, _ in calls) > 1
                       for row in range(len(rows)))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("error", [limits._Stop(), RuntimeError("raised by visit"),
                                       KeyboardInterrupt()])
    @pytest.mark.parametrize("at_call", [1, 3])
    def test_a_visit_that_raises_ends_every_thread(self, error, at_call, workers, monkeypatch):
        monkeypatch.setattr(flow, "_BUFFER", 64)
        calls = []

        def visit(rows, j, states):
            calls.append(rows)
            if len(calls) == at_call:
                raise error

        before = threading.active_count()
        with native(True), sliced(workers), pytest.raises(type(error)) as raised:
            integrate_lanes(HARMONIC, np.zeros((50, 2)), sample_times(2.0, 0.1)[1:],
                            IntegratorConfig(rel_tol=1e-3), visit)
        assert raised.value is error
        assert threading.active_count() == before
        if native_builds(HARMONIC):
            assert len(calls) == at_call

    def test_a_slice_that_raises_ends_every_thread(self):
        # The first slice raises at its second batch: the caller raises it
        # when it takes it, after that slice's first batch and a run of the
        # other slices' first batches, each slice's in order.
        def calls(lo, hi):
            for k in range(5):
                if lo == 0 and k == 1:
                    raise MemoryError("raised by a slice")
                yield ([lo, k],)

        visited = []
        before = threading.active_count()
        with pytest.raises(MemoryError, match="raised by a slice"):
            flow._sliced(calls, 9, 3, visited.append)
        assert threading.active_count() == before
        assert [batch for batch in visited if batch[0] == 0] == [[0, 0]]
        for lo in (3, 6):
            mine = [batch for batch in visited if batch[0] == lo]
            assert mine == [[lo, k] for k in range(len(mine))]

    @pytest.mark.parametrize("w", [1, 2, 4])
    def test_every_batch_once_each_slice_in_order(self, w):
        # Of 10 rows, rows 0, 2, 5 and 9 make 30, 1, 20 and 25 batches,
        # each named (first row of its slice, row, index).
        batches = {0: 30, 2: 1, 5: 20, 9: 25}
        visited = []
        flow._sliced(lambda lo, hi: (((lo, row, k),) for row in range(lo, hi)
                                     for k in range(batches.get(row, 0))),
                     10, w, visited.append)
        expected = [(10 * i // w, row, k) for i in range(w)
                    for row in range(10 * i // w, 10 * (i + 1) // w)
                    for k in range(batches.get(row, 0))]
        assert sorted(visited) == expected
        for lo in {batch[0] for batch in expected}:
            assert ([batch for batch in visited if batch[0] == lo]
                    == [batch for batch in expected if batch[0] == lo])


def test_a_large_delta_probe_stops_at_the_serial_witness():
    # 801 points of a saddle, 80,100 samples, so past _PARALLEL_FROM at
    # its own value. All but two start on the stable axis and stay
    # inside; point 300 leaves epsilon late and point 700, in a later
    # slice, early. Whatever the slices, the witness is point 300: the
    # pass stops only once every earlier point has ended inside.
    V = VectorFieldSpec.from_strings(["-x1", "x2"])
    points = np.stack([np.linspace(-0.45, 0.45, 801), np.zeros(801)], axis=1)
    points[300, 1], points[700, 1] = 0.02, 0.3
    times = sample_times(10.0, 0.1)
    assert len(points) * (len(times) - 1) >= flow._PARALLEL_FROM
    cfg = IntegratorConfig(blowup_radius=4.0)
    origin = SinglePoint([0.0, 0.0])
    with native(False):
        expected, _ = stability._first_exit(V, origin, points, 0.5, times, cfg)
    assert expected.tolist() == points[300].tolist()
    for workers in (1, 2, 3):
        with native(True), mock.patch.object(flow, "_WORKERS", workers):
            witness, _ = stability._first_exit(V, origin, points, 0.5, times, cfg)
        assert witness.tolist() == expected.tolist()


# Per function of the expression language, a field that calls it; the
# starts hold signed zeros, which min and max must pick as the builtins do.
_FUNCTION_FIELDS = {
    "sin": ["x2", "-sin(x1)"],
    "cos": ["x2", "cos(x1) - 1"],
    "exp": ["x2", "exp(-x1) - 1 - x2"],
    "sqrt": ["x2", "sqrt(x1 * x1 + 1) - 1 - x2"],
    "abs": ["x2", "-abs(x1) * x1 - x2"],
    "tanh": ["x2", "-tanh(x1) - x2"],
    "min": ["min(x1, -x1)", "min(x2, -x2, x1)"],
    "max": ["max(x1, -x1)", "max(-x2, x2, x1)"],
}
_SIGNED_STARTS = [[0.5, -0.25], [0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [1.5, 0.7]]


@pytest.mark.parametrize("method", ["rk45_adaptive", "rk4_fixed"])
@pytest.mark.parametrize("name", sorted(_FUNCTION_FIELDS))
def test_every_function_gives_the_same_bits(name, method):
    assert set(_FUNCTION_FIELDS) == _FUNCTIONS
    V = VectorFieldSpec.from_strings(_FUNCTION_FIELDS[name])
    rows, _ = _same_bits(V, _SIGNED_STARTS, sample_times(2.0, 0.1)[1:],
                         IntegratorConfig(method=method, dt=0.05))
    if name in ("min", "max") and method == "rk4_fixed":
        assert rows[1][0] != rows[2][0]  # RK4 keeps the sign of a zero start


# name: (field, start, config, error text): a failure inside the field after
# t = 0, where the native loop stops the row before the failing attempt and
# the orbit loop resumes it there.
_LATE_FAILURES = {
    "negative base": (["1", "(0.5 - x1)^1.5"], [0.0, 0.0], {}, "math domain error"),
    "exp overflow": (["1", "exp(x1 * 1000) * 0"], [0.0, 0.0], {}, "math range error"),
    # RK4's stages reach x1 = -0.25 exactly at t = 0.25.
    "division by zero": (["1", "1 / (x1 + 0.25)"], [-0.75, 0.0],
                         {"method": "rk4_fixed", "dt": 0.25}, "float division by zero"),
    "sqrt of a negative": (["1", "sqrt(0.5 - x1)"], [0.0, 0.0], {}, "math domain error"),
}


@pytest.mark.parametrize("name", sorted(_LATE_FAILURES))
def test_late_failures_resume_in_the_orbit_loop(name):
    texts, start, options, text = _LATE_FAILURES[name]
    V, cfg = VectorFieldSpec.from_strings(texts), IntegratorConfig(**options)
    targets = sample_times(2.0, 0.05)[1:]
    (samples, error), = _same_bits(V, [start], targets, cfg)[0]
    assert samples and error[:2] == ["EvalDomainError", text]
    run = flow._native(V, cfg.method)
    if run is None:
        return
    errors, left, attempts = run(np.array([start]), np.asarray(targets), cfg,
                                 lambda rows, j, states: None)
    (held, rows, t, *_), = [group for group in left if group[0] is not None]
    assert not errors and rows.tolist() == [0] and t[0] > 0
    assert held.tolist() == attempts.tolist() == [error[2] - 1]


def test_huge_step_budget():
    # A problem file may give max_steps = 10^30; the native loop counts
    # to 2^63 - 1 instead, which no run reaches.
    cfg = IntegratorConfig(max_steps=10 ** 30)
    _same_bits(HARMONIC, [[1.0, 0.0], [0.2, 0.3]], sample_times(1.0, 0.1)[1:], cfg)


@pytest.mark.parametrize("options", [{"dt": 1}, {"blowup_radius": 10}])
def test_settings_given_as_ints(options):
    # The orbit loop takes them as they are; the native loop would take
    # doubles, so they run in Python, with the orbit loop's bits.
    cfg = IntegratorConfig(**options)
    _same_bits(HARMONIC, [[1.0, 0.0]], sample_times(2.0, 0.1)[1:], cfg)


def test_targets_out_of_order():
    # The native loop bounds a step's samples by the buffer's room only
    # over increasing targets; others run in the orbit loop, unchecked.
    _same_bits(HARMONIC, [[1.0, 0.0], [0.2, 0.3]], [0.5, 0.2, 1.0, 1.0], IntegratorConfig())


def _python(script: str, *args, **env) -> subprocess.CompletedProcess:
    done = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=SRC, **env))
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""  # no traceback, no compiler output
    return done


# analyze a problem with the native loop forced on (argv[1] 0) or off.
_ANALYZE = (
    "import importlib, sys\n"
    "flow = importlib.import_module('lyapset.flow')\n"
    "flow._NATIVE_FROM = int(sys.argv[1])\n"
    "from lyapset.cli import main\n"
    "sys.exit(main(['analyze', sys.argv[2], '--out-dir', sys.argv[3]]))\n"
)


class TestBuildsNeverHurt:
    """Each run analyzes a bundled problem in a process with the native
    loop forced on and a cache of its own, and writes the files a run with
    it forced off writes, byte for byte."""

    PROBLEM = os.path.join(ROOT, "problems", "linear_sink.json")

    def _analyze(self, out, on: bool, cache, **env) -> dict:
        done = _python(_ANALYZE, "0" if on else str(sys.maxsize), self.PROBLEM, str(out),
                       XDG_CACHE_HOME=str(cache), **env)
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        return {"stdout": done.stdout.replace(str(out), "OUT"), **files}

    @pytest.fixture()
    def expected(self, tmp_path):
        return self._analyze(tmp_path / "off", False, tmp_path / "unused")

    @pytest.mark.parametrize("compiler", ["missing", "false", "unquoted"])
    def test_no_compiler_or_a_failing_one(self, compiler, expected, tmp_path):
        cc = {"missing": str(tmp_path / "no-such-cc"), "false": "false",
              "unquoted": 'cc "-O2'}[compiler]
        cache = tmp_path / "cache"
        assert self._analyze(tmp_path / "on", True, cache, CC=cc) == expected
        assert not list(cache.rglob("*.so"))

    def test_truncated_cached_build(self, expected, tmp_path):
        cache = tmp_path / "cache"
        assert self._analyze(tmp_path / "first", True, cache) == expected
        builds = sorted((cache / "lyapset").iterdir())
        for path in builds:
            path.write_bytes(path.read_bytes()[:100])
        assert self._analyze(tmp_path / "second", True, cache) == expected
        # Built again in place.
        assert sorted((cache / "lyapset").iterdir()) == builds
        assert all(path.stat().st_size > 100 for path in builds)

    def test_read_only_cache(self, expected, tmp_path):
        cache = tmp_path / "cache"
        (cache / "lyapset").mkdir(parents=True)
        (cache / "lyapset").chmod(stat.S_IRUSR | stat.S_IXUSR)
        try:
            assert self._analyze(tmp_path / "on", True, cache) == expected
        finally:
            (cache / "lyapset").chmod(stat.S_IRWXU)

    def test_two_processes_build_at_once(self, tmp_path):
        # Both build the same field into an empty cache; both print the
        # bits of the forced-off run, and one build remains.
        script = (
            "import importlib, sys\n"
            "flow = importlib.import_module('lyapset.flow')\n"
            "flow._NATIVE_FROM = int(sys.argv[1])\n"
            "from lyapset import VectorFieldSpec, IntegratorConfig, trajectory\n"
            "V = VectorFieldSpec.from_strings(['x2', '(1 - x1^2)*x2 - x1'])\n"
            "states = trajectory(V, [0.5, 0.5], 5.0, 0.1, IntegratorConfig()).states\n"
            "print(states.tobytes().hex())\n"
        )
        cache = tmp_path / "cache"
        env = dict(os.environ, PYTHONPATH=SRC, XDG_CACHE_HOME=str(cache))
        racing = [subprocess.Popen([sys.executable, "-c", script, "0"], env=env, text=True,
                                   stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                  for _ in range(2)]
        outputs = [process.communicate(timeout=300) for process in racing]
        expected = _python(script, str(sys.maxsize), XDG_CACHE_HOME=str(tmp_path / "unused"))
        assert outputs == [(expected.stdout, "")] * 2
        if native_builds(VectorFieldSpec.from_strings(["x2", "(1 - x1^2)*x2 - x1"])):
            assert len(os.listdir(cache / "lyapset")) == 1


def test_import_loads_no_queue():
    # Only a run past _PARALLEL_FROM imports queue, so that importing the
    # package costs no more than before row slices.
    done = _python("import sys, lyapset.cli\nprint('queue' in sys.modules)\n")
    assert done.stdout.split() == ["False"]


def test_import_builds_nothing(tmp_path):
    # Neither subprocess nor hashlib loads, and no compiler starts, until
    # a field has done enough work for a native build.
    compiler = tmp_path / "cc"
    compiler.write_text(f"#!/bin/sh\ntouch {tmp_path / 'started'}\nexit 1\n")
    compiler.chmod(stat.S_IRWXU)
    done = _python("import sys, lyapset, lyapset.cli\n"
                   "print('subprocess' in sys.modules, 'hashlib' in sys.modules)\n",
                   CC=str(compiler), XDG_CACHE_HOME=str(tmp_path / "cache"))
    assert done.stdout.split() == ["False", "False"]
    assert not (tmp_path / "started").exists()
    assert not (tmp_path / "cache").exists()
