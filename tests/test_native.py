"""The native orbit loop: bitwise parity with the Python loops across
buffer calls and row slices run on threads, for every function and for
failures that the orbit loop resumes, the distances to a set and the
reductions it takes in C, and runs whose output no missing, failing,
truncated, read-only or concurrent build changes; a new build removes the
builds that no process has loaded for a month. The shell rays in C:
bitwise parity with the NumPy loops, and the sets they leave to them. A
point cloud's nearest search in C: bitwise parity with a left-to-right
brute force and with the NumPy search that runs where it does not build.
Every set kind's distances, in 1 to 12 coordinates: bitwise a plain
Python loop."""

import contextlib
import importlib
import math
import os
import shlex
import stat
import subprocess
import sys
import threading
import time
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import lyapset
from lyapset.errors import EscapedDomainError
from lyapset.expr import _FUNCTIONS, VectorFieldSpec
from lyapset.flow import IntegratorConfig, integrate_lanes, sample_times
from lyapset.geometry import Box, ClosedBall, PointCloud, SinglePoint, sample_shell
from lyapset.limits import roa_grid
from lyapset.stability import uniform_attraction_time
from conftest import native, native_builds, orbit_attempts, sliced

flow = importlib.import_module("lyapset.flow")
geometry = importlib.import_module("lyapset.geometry")
limits = importlib.import_module("lyapset.limits")
lyapunov = importlib.import_module("lyapset.lyapunov")
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


def _assert_visit_contract(calls, size):
    """The calls of a run, as _run records them, visit each (row, j) once,
    each row's j from 0 up by 1 within and across calls, at most size
    samples a call; the rows of a call come in any order."""
    pairs = [pair for call_rows, js in calls for pair in zip(call_rows, js)]
    assert len(set(pairs)) == len(pairs)
    for call_rows, _ in calls:
        assert len(call_rows) <= size
    for row in {row for row, _ in pairs}:
        js = [j for r, j in pairs if r == row]
        assert js == list(range(len(js)))


def _interleaves(calls) -> bool:
    """Whether some call, as _run records them, visits a row, then another,
    then the first again: two rows in flight at once."""
    for call_rows, _ in calls:
        runs = [row for k, row in enumerate(call_rows) if k == 0 or call_rows[k - 1] != row]
        if len(set(runs)) < len(runs):
            return True
    return False


_RK4_DENSE = IntegratorConfig(method="rk4_fixed", dt=0.35)


# Starts of the buffer tests; the fourth lies outside the blow-up radius 4.
_BUFFER_STARTS = [[1.0, 0.0], [0.0, 0.0], [0.3, -0.2], [3.0, 3.0], [-0.7, 0.1], [0.5, 0.5],
                  [-0.2, 0.9], [0.05, -0.6]]


class TestBuffer:
    @pytest.mark.usefixtures("fast_switching")
    @pytest.mark.parametrize("size", [1, 2, 3, 7, 64])
    @pytest.mark.parametrize("cfg", [IntegratorConfig(rel_tol=1e-3, abs_tol=1e-6), _RK4_DENSE])
    def test_rows_straddle_buffer_calls(self, size, cfg, monkeypatch):
        # Several samples per step, so a step of either row in flight may
        # need more room than the buffer has left, or than it holds at all:
        # the rows in flight stop there, to continue in the next call or,
        # from an empty buffer, in the orbit loop; at 1, 2 and 3 slices.
        monkeypatch.setattr(flow, "_BUFFER", size)
        cfg = replace(cfg, blowup_radius=4.0)
        for workers in (1, 2, 3):
            with sliced(workers):
                rows, calls = _same_bits(HARMONIC, _BUFFER_STARTS, sample_times(4.0, 0.1)[1:],
                                         cfg)
            assert rows[3][1][0] == "EscapedDomainError"
            if not native_builds(HARMONIC, cfg.method):
                return
            assert len(calls) > 1
            _assert_visit_contract(calls, max(size, len(sample_times(4.0, 0.1))))

    @pytest.mark.parametrize("method", ["rk45_adaptive", "rk4_fixed"])
    def test_a_call_interleaves_two_rows(self, method):
        # Each native call keeps two rows in flight, their attempts
        # alternating, so their samples share a buffer in turns.
        cfg = IntegratorConfig(method=method, blowup_radius=4.0)
        calls = _same_bits(HARMONIC, _BUFFER_STARTS, sample_times(4.0, 0.1)[1:], cfg)[1]
        if native_builds(HARMONIC, method):
            assert _interleaves(calls)

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
        _assert_visit_contract(calls, max(flow._BUFFER, len(targets)))

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


# No start of the distance tests escapes, the largest included.
_UNBOUNDED = IntegratorConfig(blowup_radius=1e200)


def _native_distances(M, points):
    """The distances to M that integrate_lanes passes visit, with the
    native loop on, for points, the samples at t = 1 of the zero field
    started there; None where visit takes none, so that the caller takes
    every distance itself."""
    V = VectorFieldSpec.from_strings(["0"] * points.shape[1])
    got, given = np.full(len(points), math.nan), []

    def visit(rows, j, states, d=None):
        assert states.tolist() == points[rows].tolist()
        given.append(d is not None)
        if d is not None:
            got[rows] = d

    with native(True):
        assert integrate_lanes(V, points, [1.0], _UNBOUNDED, visit, flow._Near(M)) == {}
    assert len(set(given)) == 1
    return got if given[0] else None


def _spread(rng, rows, n):
    """Points whose coordinates have random signs and span 16 decades."""
    return rng.choice([-1.0, 1.0], (rows, n)) * 10.0 ** rng.uniform(-8.0, 8.0, (rows, n))


def _point_case(n, rng):
    c = rng.standard_normal(n)
    return SinglePoint(c), np.vstack([c, c + _spread(rng, 300, n), _spread(rng, 300, n)])


def _ball_case(n, rng):
    c = rng.standard_normal(n)
    u = rng.standard_normal((200, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    r = 0.7
    # The centre, points on the sphere (to rounding), inside it and far out.
    return ClosedBall(c, r), np.vstack([c, c + r * u, c + 0.3 * r * u, c + _spread(rng, 300, n)])


def _box_case(n, rng):
    lo, hi = -rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, n)
    inside = rng.uniform(lo, hi, (200, n))
    faces = inside.copy()
    axis = rng.integers(0, n, 200)
    faces[np.arange(200), axis] = np.where(rng.uniform(size=200) < 0.5, lo[axis], hi[axis])
    return Box(lo, hi), np.vstack([lo, hi, inside, faces, _spread(rng, 300, n)])


_SET_CASES = {"point": _point_case, "ball": _ball_case, "box": _box_case}


def _python_distance(M, p):
    """M's distance to the point p, a list, by a plain loop over Python
    floats: the squared differences summed from left to right, then
    math.sqrt, the least sum first for a cloud, the radius taken off for a
    ball and the point clipped first for a box."""

    def root(q):
        s = 0.0
        for a, b in zip(p, q):
            e = a - b
            s = s + e * e
        return math.sqrt(s)

    if isinstance(M, PointCloud):
        return min(root(q) for q in M.points.tolist())
    if isinstance(M, Box):
        return root([min(max(a, lo), hi) for a, lo, hi in zip(p, M.lo.tolist(), M.hi.tolist())])
    if isinstance(M, ClosedBall):
        return max(0.0, root(M.center.tolist()) - M.radius)
    return root(M.point.tolist())


class _Shifted(SinglePoint):
    """A point whose distances are 1 more than its own."""

    def distances(self, points):
        return super().distances(points) + 1.0


class TestSetDistances:
    """The native loop's distances to the sets whose distances it takes
    are the sets' own, bit for bit, in every dimension; other sets leave
    them to visit."""

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("kind", sorted(_SET_CASES))
    def test_bitwise_the_sets_own(self, kind, n):
        M, points = _SET_CASES[kind](n, np.random.default_rng(n))
        expected = M.distances(points)
        if kind != "point":
            assert np.count_nonzero(expected == 0.0) >= 200  # inside and on the boundary
        got = _native_distances(M, points)
        if not native_builds(VectorFieldSpec.from_strings(["0"] * n)):
            assert got is None
            return
        assert [d.hex() for d in got.tolist()] == [d.hex() for d in expected.tolist()]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_every_kind_is_a_python_loop(self, n):
        # A point, a ball and a box, their distances in NumPy and in the
        # native loop; a cloud, its distances from the C search and from
        # the NumPy search: each bitwise a plain loop over Python floats.
        rng = np.random.default_rng([n, 12])
        cases = [_SET_CASES[kind](n, rng) for kind in sorted(_SET_CASES)]
        cases.append((PointCloud(rng.standard_normal((40, n))),
                      rng.standard_normal((200, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (200, 1))))
        for M, points in cases:
            expected = [_python_distance(M, p).hex() for p in points.tolist()]
            got = [M.distances(points), _native_distances(M, points)]
            with _searches(False):
                got.append(M.distances(points))
            for d in got:
                assert d is None or [v.hex() for v in d.tolist()] == expected, M

    @pytest.mark.parametrize("M", [
        PointCloud([[0.0, 0.0], [1.0, 0.5]]),
        _Shifted([0.0, 0.0]),
    ], ids=["cloud", "subclass"])
    def test_other_sets_leave_them_to_visit(self, M):
        points = _spread(np.random.default_rng(0), 40, M.dim) * 1e-6
        assert _native_distances(M, points) is None

    def test_a_subclass_measures_with_its_own_distances(self):
        # Its distances are the point's plus 1, so no sample reads below 1.
        seen = []
        with native(True):
            limits._distance_pass(HARMONIC, _Shifted([0.0, 0.0]), np.array([[0.5, 0.0]] * 30),
                                  sample_times(2.0, 0.1), IntegratorConfig(),
                                  lambda rows, j, d: seen.extend(d.tolist()))
        assert len(seen) == 30 * 21 and min(seen) >= 1.0

    def test_reduction_arrays_are_checked(self):
        run = flow._native(HARMONIC, "rk45_adaptive")
        if run is None:
            return
        for sums, peak in ((np.zeros((2, 2)), np.zeros(5)), (np.zeros((2, 3)), np.zeros(4)),
                           (np.zeros((3, 2)).T, np.zeros(5))):
            near = flow._Near(SinglePoint([0.0, 0.0]), sums=sums, peak=peak)
            with pytest.raises(ValueError, match="near.sums"):
                run(np.zeros((2, 2)), np.arange(1.0, 6.0), IntegratorConfig(), None, near)

    @pytest.mark.parametrize("epsilon", [0.5, math.inf])
    def test_an_epsilon_ends_a_row_at_its_first_sample_outside(self, epsilon):
        # On the saddle, row 0 leaves epsilon 0.5 near t = ln 5 and escapes
        # radius 4 near t = ln 40; row 1 decays. A finite epsilon ends row
        # 0, finished, at its first distance not < 0.5; an infinite one
        # stops no row, as without a set.
        V = VectorFieldSpec.from_strings(["-x1", "x2"])
        targets = sample_times(5.0, 0.1)[1:]
        distances, calls = {0: [], 1: []}, []

        def visit(rows, j, states, d=None):
            assert d is not None or not native_builds(V)
            calls.append(set(rows.tolist()))
            for row, state in zip(rows.tolist(), states):
                distances[row].append(float(np.linalg.norm(state)))

        with native(True):
            errors = integrate_lanes(V, [[0.0, 0.1], [0.3, 0.0]], targets,
                                     IntegratorConfig(blowup_radius=4.0), visit,
                                     flow._Near(SinglePoint([0.0, 0.0]), epsilon))
        assert len(distances[1]) == len(targets)
        first_out = next(k for k, d in enumerate(distances[0]) if d >= 0.5)
        if epsilon < math.inf and native_builds(V):
            assert errors == {} and len(distances[0]) == first_out + 1
            # The exit ends its call. Row slices on threads, as under
            # --native=always, may deliver the two calls in either order.
            assert sorted(calls, key=min) == [{0}, {1}]
        else:
            assert list(errors) == [0] and isinstance(errors[0], EscapedDomainError)
            assert len(distances[0]) > first_out + 1


def _shells(on: bool):
    """Context in which _shell_points runs its rays in C (on), where the
    shell function builds, or never."""
    return contextlib.nullcontext() if on else mock.patch.object(
        flow, "_shell_search", lambda: None)


def _shell_bits(M, radii, seed, on):
    """The bits of _shell_points' points for M and radii, drawn from a
    generator seeded with seed, with the shell function on or off."""
    with _shells(on):
        return geometry._shell_points(M, radii, np.random.default_rng(seed)).tobytes()


def _shell_sets(kind, n, rng):
    """Sets of kind in n coordinates: a ball of radius 0 among the balls
    and a box with lo == hi among the boxes."""
    c = rng.standard_normal(n)
    return {"point": [SinglePoint(c)],
            "ball": [ClosedBall(c, float(rng.uniform(0.1, 2.0))), ClosedBall(c, 0.0)],
            "box": [Box(c, c + rng.uniform(0.1, 2.0, n)), Box(c, c)]}[kind]


class TestShellKernel:
    """_shell_points' C rays have the NumPy loops' bits, and only a point,
    a ball or a box takes them."""

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("kind", ["point", "ball", "box"])
    def test_bitwise_the_numpy_loops(self, kind, n):
        rng = np.random.default_rng([n, len(kind)])
        builds = flow._shell_search() is not None
        for M in _shell_sets(kind, n, rng):
            for trial in range(4):
                radii = 10.0 ** rng.uniform(-8.0, 8.0, int(rng.integers(1, 40)))
                if trial % 2:
                    radii = np.repeat(radii, 2)[::2]  # a strided view
                expected = _shell_bits(M, radii, trial, False)
                # The C rays take no distance in Python.
                unused = mock.patch.object(type(M), "distances", side_effect=AssertionError)
                with unused if builds else contextlib.nullcontext():
                    assert _shell_bits(M, radii, trial, True) == expected, (M, radii)

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_rays_that_never_reach_the_shell(self, n):
        # Sets far wider than r * 2^90. The box's rays start at its
        # corners, where a step of r * 2^90 or less rounds back to the
        # corner; the ball's first member, its centre, starts rays that
        # stay inside (seed 0 starts some there in each dimension here).
        # Each such ray doubles 90 times, halves 256 times at a distance of
        # 0 and ends on the midpoint of its last bounds.
        r = 1e-5
        box, ball = Box([-1e40] * n, [1e40] * n), ClosedBall([0.0] * n, 1e30)
        with _shells(True):
            at_corners = geometry._shell_points(box, [r] * 3, np.random.default_rng(n))
            rays = geometry._shell_points(ball, [r] * 8, np.random.default_rng(0))
        assert np.all(box.distances(at_corners) == 0.0)
        from_centre = np.linalg.norm(rays, axis=1) <= 2.0 ** 90 * r
        assert np.any(from_centre)
        assert np.allclose(np.linalg.norm(rays[from_centre], axis=1), 2.0 ** 90 * r, rtol=1e-12)
        assert at_corners.tobytes() == _shell_bits(box, [r] * 3, n, False)
        assert rays.tobytes() == _shell_bits(ball, [r] * 8, 0, False)

    @pytest.mark.parametrize("M", [SinglePoint([0.5, -1.0]), ClosedBall([0.0, 0.0, 1.0], 0.5),
                                   Box([-1.0, 0.0], [1.0, 0.5])], ids=["point", "ball", "box"])
    def test_the_samplers_give_the_same_points(self, M):
        def samples(on):
            with _shells(on):
                return (sample_shell(M, 0.3, 16, 5).points.tobytes(),
                        stability._candidate_points(M, 0.2, 10, 7).tobytes(),
                        lyapunov._annulus_points(M, 0.05, 1.0, 50,
                                                 np.random.default_rng(3)).tobytes())

        assert samples(True) == samples(False)

    @pytest.mark.parametrize("M", [
        PointCloud([[0.0, 0.0], [1.0, 0.5]]),
        _Shifted([0.0, 0.0]),
    ], ids=["cloud", "subclass"])
    def test_other_sets_take_their_own_distances(self, M):
        radii = [1.5, 2.0, 3.0]
        built = []
        search = flow._shell_search
        with mock.patch.object(flow, "_shell_search", lambda: built.append(M.dim) or search()), \
                mock.patch.object(M, "distances", wraps=M.distances) as distances:
            points = geometry._shell_points(M, radii, np.random.default_rng(0))
        assert built == [] and distances.call_count > 0
        # The subclass's own distance is the one its shell points are at.
        assert np.allclose(M.distances(points), radii, rtol=1e-9)

    def test_without_a_build_the_same_bits(self):
        # As under CC=/nonexistent: no shell function loads, and the
        # NumPy loops give the same points.
        cases = [(SinglePoint([0.0, 1.0]), [0.5] * 10), (ClosedBall([1.0] * 3, 0.2), [1e-6, 3.0]),
                 (Box([0.0] * 5, [1.0] * 5), list(10.0 ** np.arange(-8.0, 8.0)))]
        expected = [_shell_bits(M, radii, 11, True) for M, radii in cases]
        flow._shell_search.cache_clear()
        try:
            with mock.patch.object(flow, "_library", lambda source, name: None):
                assert [flow._shell_search() for M, _ in cases] == [None] * 3
                assert [_shell_bits(M, radii, 11, True) for M, radii in cases] == expected
        finally:
            flow._shell_search.cache_clear()

    def test_one_build_serves_every_dimension(self, tmp_path):
        # A fresh loader, with a cache of its own, compiles the shell
        # search once, and its rays in 1 to 12 coordinates keep the NumPy
        # loops' bits.
        compiled = []
        compile_ = flow._compile
        flow._shell_search.cache_clear()
        try:
            with mock.patch.dict(os.environ, XDG_CACHE_HOME=str(tmp_path)), \
                    mock.patch.object(flow, "_LIBRARIES", {}), \
                    mock.patch.object(flow, "_compile",
                                      lambda source, *args: compiled.append(source)
                                      or compile_(source, *args)):
                for n in range(1, 13):
                    for kind in ("point", "ball", "box"):
                        for M in _shell_sets(kind, n, np.random.default_rng(n)):
                            assert (_shell_bits(M, [0.1, 2.0], n, True)
                                    == _shell_bits(M, [0.1, 2.0], n, False))
                built = flow._shell_search() is not None
        finally:
            flow._shell_search.cache_clear()
        assert compiled == [flow._SHELL_SOURCE]
        if built:
            assert len(list((tmp_path / "lyapset").glob("*.so"))) == 1


def _nearest_brute(members, points):
    """The distances of points to the members: per pair the squared
    differences summed from left to right, the least, then its root.
    Squares past the largest double are inf."""
    total = 0.0
    with np.errstate(over="ignore"):
        for c in range(members.shape[1]):
            e = points[:, None, c] - members[None, :, c]
            total = total + e * e
    return np.sqrt(total.min(axis=1))


def _nearest_clouds(n, rng):
    """Clouds of n coordinates, with queries for each: 1 and 2 members,
    duplicate members, lattice nodes whose queries tie exactly, and random
    clouds over 16 decades of scale."""
    if n < 8:
        lattice = np.stack(np.meshgrid(*[np.arange(-2.0, 3.0)] * n, indexing="ij"), -1)
        lattice = lattice.reshape(-1, n)
        nodes = lattice[rng.permutation(len(lattice))[:300]]
    else:  # 5^n nodes are too many to list: 300 drawn among them
        nodes = rng.integers(-2, 3, (300, n)).astype(float)
    half = rng.integers(-6, 7, size=(200, n)) / 2.0  # on, between and beyond lattice nodes
    cases = [(rng.uniform(-1, 1, (1, n)), rng.uniform(-2, 2, (50, n))),
             (rng.uniform(-1, 1, (2, n)), rng.uniform(-2, 2, (50, n))),
             (np.repeat(rng.uniform(-1, 1, (5, n)), 3, axis=0), rng.uniform(-2, 2, (100, n))),
             (nodes, half)]
    for scale in 10.0 ** np.arange(-8.0, 9.0, 2.0):
        cases.append((scale * rng.uniform(-1, 1, (int(rng.integers(3, 200)), n)),
                      scale * rng.uniform(-2, 2, (200, n))))
    return cases


def _searches(on: bool):
    """Context in which a cloud's distances come from the C search (on),
    where it builds, or from the NumPy search over sorted windows."""
    return contextlib.nullcontext() if on else mock.patch.object(
        flow, "_nearest_kernel", lambda: None)


def _tree():
    """SciPy's cKDTree where SciPy is installed, else None."""
    try:
        from scipy.spatial import cKDTree
    except ImportError:
        return None
    return cKDTree


class TestNearest:
    """A cloud's distances come from the C search, and where it does not
    build from the NumPy search over sorted windows, in every dimension
    with the bits of a left-to-right brute force. Below 8 coordinates they
    are also those of SciPy's KD-tree, where SciPy is installed: an
    independent search, which sums in four accumulators from 8 on."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_bitwise_the_tree_and_the_brute_force(self, n):
        tree = _tree() if n < 8 else None
        for members, points in _nearest_clouds(n, np.random.default_rng(n)):
            expected = _nearest_brute(members, points).tobytes()
            for on in (True, False):
                with _searches(on):
                    got = PointCloud(members).distances(points)
                assert got.tobytes() == expected, (members.shape, on)
            if tree is not None:
                assert tree(members).query(points, k=1)[0].tobytes() == expected, members.shape

    def test_takes_no_tree_where_it_builds(self, monkeypatch):
        # Nor the NumPy search: the C search alone.
        if flow._nearest_kernel() is None:
            pytest.skip("no nearest search builds here")
        monkeypatch.setattr(geometry, "_row_minima", mock.Mock(side_effect=AssertionError))
        rng = np.random.default_rng(0)
        members, points = rng.uniform(-1, 1, (40, 3)), rng.uniform(-2, 2, (30, 3))
        got = PointCloud(members).distances(points[::-1])  # a strided view
        assert got.tobytes() == _nearest_brute(members, points[::-1]).tobytes()

    def test_squares_that_overflow(self):
        # Squared distances past the largest double are inf, with no warning.
        M = PointCloud([[0.0, 0.0, 0.0], [1.0, -1.0, 2.0]])
        points = np.array([[1e200, 0.0, 0.0], [0.0, -1e155, 1e155], [1e154, 0.0, 0.0]])
        for on in (True, False):
            with _searches(on):
                got = M.distances(points)
            assert got[0] == got[1] == math.inf and math.isfinite(got[2])
            assert got.tobytes() == _nearest_brute(M.points, points).tobytes()

    def test_no_points(self):
        for on in (True, False):
            with _searches(on):
                got = PointCloud([[0.0, 1.0], [2.0, 3.0]]).distances(np.empty((0, 2)))
            assert got.shape == (0,) and got.dtype == np.float64

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_points_that_are_not_finite(self, bad):
        points = np.array([[0.5, 0.5], [bad, 0.0]])
        for on in (True, False):
            with _searches(on), pytest.raises(ValueError) as raised:
                PointCloud([[0.0, 1.0], [2.0, 3.0]]).distances(points)
            assert str(raised.value) == "'x' must be finite, check for nan or inf values"

    def test_eight_coordinates_take_the_search(self):
        # As every dimension does: the NumPy search runs only where the C
        # search does not build.
        rng = np.random.default_rng(8)
        members, points = rng.uniform(-1, 1, (50, 8)), rng.uniform(-2, 2, (20, 8))
        with mock.patch.object(geometry, "_row_minima", wraps=geometry._row_minima) as searched:
            got = PointCloud(members).distances(points)
        assert searched.called == (flow._nearest_kernel() is None)
        assert got.tobytes() == _nearest_brute(members, points).tobytes()

    def test_without_a_build_the_window_search(self):
        # As under CC=/nonexistent: no search loads, and the NumPy search
        # over sorted windows answers.
        rng = np.random.default_rng(3)
        members, points = rng.uniform(-1, 1, (60, 4)), rng.uniform(-2, 2, (40, 4))
        flow._nearest_kernel.cache_clear()
        try:
            with mock.patch.object(flow, "_library", lambda source, name: None), \
                    mock.patch.object(geometry, "_row_minima",
                                      wraps=geometry._row_minima) as searched:
                assert flow._nearest_kernel() is None
                got = PointCloud(members).distances(points)
            assert searched.called
        finally:
            flow._nearest_kernel.cache_clear()
        assert got.tobytes() == _nearest_brute(members, points).tobytes()


_HARMONIC_BUDGET = orbit_attempts(["x2", "-x1"], [0.6, 0.0], 4.0, 0.05) // 2

# name: (field, set, grid half-width, horizon, config) of the sweep parity
# tests: escapes, each set kind, failures in the field that the orbit loop
# resumes after the native loop's samples, and exhausted step budgets.
_SWEEP_CASES = {
    "point": (["-x2", "x1 - (1 - x1^2)*x2"], SinglePoint([0.0, 0.0]), 3.0, 6.0,
              IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12)),
    "ball": (["-x2", "x1 - (1 - x1^2)*x2"], ClosedBall([0.1, 0.0], 0.3), 2.0, 6.0,
             IntegratorConfig()),
    "box": (["-x1 + x2", "-x1 - x2"], Box([-0.2, -0.1], [0.3, 0.2]), 1.0, 4.0,
            IntegratorConfig()),
    "domain": (["1", "sqrt(0.5 - x1)"], SinglePoint([0.0, 0.0]), 1.0, 2.0, IntegratorConfig()),
    "step-budget": (["x2", "-x1"], ClosedBall([0.0, 0.0], 0.1), 0.6, 4.0,
                    IntegratorConfig(max_steps=_HARMONIC_BUDGET)),
}


def _sweep(name, on, workers=1):
    """Every field of the 7 x 7 RoaGrid of _SWEEP_CASES[name], floats as
    bits, the uniform attraction time of its nodes, and the tail maxima
    of its _sweep, with the native loop on in min(workers, 49) slices, or
    off."""
    texts, M, half, horizon, cfg = _SWEEP_CASES[name]
    V = VectorFieldSpec.from_strings(texts)
    box = Box([-half, -half], [half, half])
    with native(on), sliced(workers):
        grid = roa_grid(V, M, box, 7, cfg, horizon_T=horizon, tol=0.05, out_dt=0.05)
        uniform = uniform_attraction_time(V, PointCloud(grid.nodes), M, 0.2, cfg, horizon, 0.05)
        tail_max = limits._sweep(V, M, grid.nodes, sample_times(horizon, 0.05), cfg)[4]
    bits = lambda values: [v.hex() for v in values.tolist()]  # noqa: E731
    return (grid.labels, bits(grid.final_distances), bits(grid.min_distances),
            bits(grid.peak_distances), grid.escaped, grid.errors,
            uniform.value, uniform.integration_failed, bits(tail_max))


@pytest.mark.usefixtures("fast_switching")
class TestSweepParity:
    """roa_grid and uniform_attraction_time, whose native rows reduce
    their distances in C, give the orbit loop's fields at any slices."""

    @pytest.mark.parametrize("buffer", [flow._BUFFER, 7])
    @pytest.mark.parametrize("name", sorted(_SWEEP_CASES))
    def test_the_orbit_loops_fields_at_1_2_and_3_slices(self, name, buffer, monkeypatch):
        monkeypatch.setattr(flow, "_BUFFER", buffer)
        expected = _sweep(name, False)
        labels, _, _, _, escaped, errors, *_ = expected
        if name == "domain":  # failures after some samples
            assert any(escaped) and "attracted" not in labels
        if name == "step-budget":
            assert any(e and "exceeded" in e for e in errors) and None in errors
        for workers in (1, 2, 3):
            assert _sweep(name, True, workers) == expected

    def test_native_rows_reach_no_visit(self, monkeypatch):
        # The native loop reduces every row itself, so neither visit nor
        # the set's distances see a sample past the starts.
        texts, M, half, horizon, cfg = _SWEEP_CASES["point"]
        V = VectorFieldSpec.from_strings(texts)
        visits, taken = [], []
        inner = limits.integrate_lanes

        def counting(V, starts, targets, cfg, visit, near=None):
            return inner(V, starts, targets, cfg,
                         lambda *batch: visits.append(len(batch[0])) or visit(*batch), near)

        monkeypatch.setattr(limits, "integrate_lanes", counting)
        with native(True), mock.patch.object(
                SinglePoint, "distances",
                lambda self, p, own=SinglePoint.distances: taken.append(len(p)) or own(self, p)):
            roa_grid(V, M, Box([-half, -half], [half, half]), 7, cfg, horizon_T=horizon,
                     tol=0.05, out_dt=0.05)
        assert taken[0] == 49 and sum(visits) == sum(taken[1:])
        if native_builds(V):
            assert taken == [49] and visits == []


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
    # The config keeps them as doubles, so the native loop runs them, with
    # the orbit loop's bits.
    cfg = IntegratorConfig(**options)
    assert all(type(v) is float for v in (cfg.dt, cfg.rel_tol, cfg.abs_tol, cfg.blowup_radius))
    _same_bits(HARMONIC, [[1.0, 0.0]], sample_times(2.0, 0.1)[1:], cfg)


def test_targets_out_of_order():
    # Targets must be positive and strictly increasing: others are refused
    # before any loop runs.
    for targets in ([0.5, 0.2, 1.0], [0.5, 1.0, 1.0], [0.0, 1.0], [-1.0, 1.0], [math.nan], [],
                    [[0.5, 1.0]]):
        with pytest.raises(ValueError, match="strictly increasing"):
            integrate_lanes(HARMONIC, [[1.0, 0.0]], targets, IntegratorConfig(),
                            mock.Mock(side_effect=AssertionError))


# name: the emitted C sources built with every warning as an error. The
# fields read every coordinate: a stage state that a field never reads is
# set but not used, which is the field's doing, not the emitter's.
_SOURCES = {
    **{f"{n}-D {method}": (lambda texts=texts, method=method: flow._c_source(
        VectorFieldSpec.from_strings(texts), method))
       for n, texts in ((1, ["x1 - x1^3"]),
                        (4, ["x2", "-x1 + (1 - x1^2 - x2^2)*x2", "-x3 + x4", "-x4 - x3"]))
       for method in flow._METHODS},
    "shell": lambda: flow._SHELL_SOURCE,
    "nearest": lambda: flow._NEAREST_SOURCE,
}


def test_emitted_c_builds_without_warnings(tmp_path):
    # -Wall -Wextra turn a declaration that the method does not use, and a
    # read of a variable, a lane's state included, that may not be set,
    # into errors.
    if not native_builds(HARMONIC):
        pytest.skip("no native loop builds here")
    compiler = shlex.split(os.environ.get("CC") or "cc")
    for name, source in _SOURCES.items():
        done = subprocess.run([*compiler, *flow._CFLAGS, "-Wall", "-Wextra", "-Werror",
                               "-o", str(tmp_path / "built.so"), "-x", "c", "-", "-lm"],
                              input=source(), text=True, capture_output=True, timeout=300)
        assert done.returncode == 0, f"{name}: {done.stderr}"


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


def test_a_new_build_removes_stale_ones(tmp_path):
    # A build written into the cache removes the builds beside it that no
    # process has loaded for _STALE_S; a fresh build and other files stay.
    # A load touches its build, so a build in use never turns stale.
    cache = tmp_path / "lyapset"
    cache.mkdir()
    old = time.time() - flow._STALE_S - 60
    for name in ("stale.so", "fresh.so", "stale.txt"):
        (cache / name).write_bytes(b"")
    for name in ("stale.so", "stale.txt"):
        os.utime(cache / name, (old, old))

    def load():
        with mock.patch.dict(os.environ, XDG_CACHE_HOME=str(tmp_path)), \
                mock.patch.object(flow, "_LIBRARIES", {}):
            return flow._library(flow._SHELL_SOURCE, "shell")

    if load() is None:
        pytest.skip("no shell search builds here")
    (build,) = (path for path in cache.glob("*.so") if path.name != "fresh.so")
    assert sorted(os.listdir(cache)) == sorted([build.name, "fresh.so", "stale.txt"])
    os.utime(build, (old, old))
    assert load() is not None
    assert build.stat().st_mtime > old + 60


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
