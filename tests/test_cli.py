import contextlib
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

import lyapset
from lyapset import __version__, render
from lyapset.cli import NEGATIVE_VERDICTS, main
from lyapset.errors import ProblemFormatError
from lyapset.expr import print_expr
from lyapset.flow import MAX_SAMPLES
from lyapset.problem import MAX_STARTS, ProblemDefinition

from test_expr import any_exprs

PROBLEM_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "problems")


def _stage(name: str, tmp_path) -> str:
    dst = tmp_path / name
    shutil.copy(os.path.join(PROBLEM_DIR, name), dst)
    return str(dst)


def _read_report(tmp_path, stem: str) -> dict:
    with open(tmp_path / f"{stem}.report.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestAnalyze:
    def test_linear_sink_completes(self, tmp_path, capsys):
        path = _stage("linear_sink.json", tmp_path)
        rc = main(["analyze", path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "stability: stable_evidence" in out
        assert "certificate: accepted" in out
        assert "report: " in out
        assert (tmp_path / "linear_sink.report.json").exists()
        assert (tmp_path / "linear_sink.roa.csv").exists()
        assert (tmp_path / "linear_sink.converse.csv").exists()

    def test_report_is_self_contained(self, tmp_path):
        path = _stage("linear_sink.json", tmp_path)
        assert main(["analyze", path]) == 0
        report = _read_report(tmp_path, "linear_sink")
        assert report["tool"] == {"name": "lyapset", "version": __version__}
        assert report["problem_file"] == "linear_sink.json"
        assert report["problem"]["seed"] == 42
        assert "rel_tol" in report["problem"]["integrator"]
        # The embedded problem must replay without the original file.
        replayed = ProblemDefinition.from_json(report["problem"])
        assert replayed.to_json() == report["problem"]
        assert set(report["blocks"]) == {"stability", "roa", "converse", "certificate"}

    def test_unstable_problem_exits_2(self, tmp_path, capsys):
        path = _stage("unstable_linear.json", tmp_path)
        rc = main(["analyze", path])
        out = capsys.readouterr().out
        assert rc == 2
        assert "stability: unstable_witness" in out
        assert "certificate: rejected" in out

    def test_roa_csv_final_distance_is_a_number(self, tmp_path):
        path = _stage("linear_sink.json", tmp_path)
        assert main(["analyze", path]) == 0
        with open(tmp_path / "linear_sink.roa.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 81
        for row in rows:
            assert float(row["final_distance"]) >= 0.0, row

    def test_bundled_problems_never_import_scipy(self, tmp_path):
        # SciPy's import costs more memory than any bundled problem uses; only
        # a point-cloud set may load it, for PointCloud's KD-tree, which takes
        # its distances without a compiler or from 8 coordinates on.
        paths = [os.path.join(PROBLEM_DIR, f"{name}.json") for name in
                 ("harmonic_oscillator", "linear_sink", "unstable_linear", "vanderpol")]
        script = (
            "import sys\n"
            "from lyapset.cli import main\n"
            "codes = [main(['analyze', p, '--out-dir', sys.argv[1]]) for p in sys.argv[2:]]\n"
            "print(codes, 'scipy' in sys.modules, any(m.startswith('scipy.') for m in sys.modules))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lyapset.__file__)))
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path), *paths], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[0, 0, 2, 0] False False"

    def test_cloud_run_imports_scipy_only_without_the_search(self):
        # An omega cloud, a converse table and a certificate against it, as
        # perfbench's cycle_cloud runs them, small: SciPy stays unloaded
        # where the C nearest search builds, and its tree answers elsewhere.
        script = (
            "import importlib, sys\n"
            "import lyapset as ls\n"
            "V = ls.VectorFieldSpec.from_strings(['x2', '(1 - x1^2)*x2 - x1'])\n"
            "cfg = ls.IntegratorConfig()\n"
            "est = ls.estimate_omega(V, [2.0, 0.0], cfg, transient_T=20.0, window_T=6.7)\n"
            "M = ls.PointCloud(est.points.points)\n"
            "table = ls.converse_table(V, M, [[0.5, 0.5], [3.0, 0.0]], cfg,\n"
            "                          ls.ConverseConfig(5.0, 0.05))\n"
            "report = ls.verify_certificate(V, M, ls.ScalarFieldSpec.from_string('x1^2 + x2^2', 2),\n"
            "                               0.05, 1.0, 20, 0, cfg)\n"
            "built = importlib.import_module('lyapset.flow')._nearest_kernel() is not None\n"
            "print(len(table.rows), built, 'scipy' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lyapset.__file__)))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        rows, built, loaded = done.stdout.split()
        assert rows == "2" and loaded == str(built == "False")

    def test_omega_block_reports_defect(self, tmp_path, capsys):
        path = _stage("vanderpol.json", tmp_path)
        rc = main(["analyze", path])
        assert rc == 0
        assert "omega: done" in capsys.readouterr().out
        report = _read_report(tmp_path, "vanderpol")
        assert report["blocks"]["omega"]["invariance_defect"] <= 1e-2
        assert len(report["blocks"]["omega"]["representatives"]) > 100

    @pytest.mark.parametrize(
        "name",
        ["harmonic_oscillator.json", "linear_sink.json", "unstable_linear.json", "vanderpol.json"],
    )
    def test_step_budget_exhaustion_still_writes_report(self, name, tmp_path):
        with open(os.path.join(PROBLEM_DIR, name), "r", encoding="utf-8") as fh:
            problem = json.load(fh)
        problem.setdefault("integrator", {})["max_steps"] = 3
        path = tmp_path / name
        path.write_text(json.dumps(problem))
        assert main(["analyze", str(path)]) == 3
        report = tmp_path / name.replace(".json", ".report.json")
        assert report.exists()
        if name == "linear_sink.json":
            # An exhausted budget is no evidence of instability, nor
            # against a certificate, nor an escape from the ROA grid.
            blocks = json.loads(report.read_text())["blocks"]
            for block in ("stability", "certificate"):
                assert "verdict" not in blocks[block]
                assert blocks[block]["error"].startswith("exceeded 3 steps")
            assert blocks["roa"]["summary"]["errors"] == 81
            assert blocks["roa"]["summary"]["counts"] == {"error": 81}

    def test_block_lines_keep_run_order(self, tmp_path, capsys):
        # Blocks listed out of order; the omega orbit blows up at t = 0.5.
        problem = {
            "dimension": 2,
            "field": ["x1^2", "-x2"],
            "set": {"type": "point", "coords": [0, 0]},
            "certificate": {"L": "x1^2 + x2^2", "annulus": [0.1, 0.5], "samples": 5},
            "converse": {"horizon": 1.0, "samples": 2},
            "stability": {"epsilons": [0.2], "horizon": 1.0, "resolution": 3,
                          "shell_samples": 1},
            "roa": {"box": [[-0.5, -0.5], [0.5, 0.5]], "resolution": 3, "horizon": 1.0},
            "omega": {"x0": [2.0, 0.0], "transient": 1.0, "window": 1.0},
        }
        path = tmp_path / "order.json"
        path.write_text(json.dumps(problem))
        rc = main(["analyze", str(path)])
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "omega", "roa", "stability", "converse", "certificate", "report",
        ]
        # A failed block is recorded, and its exit code 3 takes precedence
        # over the rejected certificate's 2.
        assert lines[0].startswith("omega: orbit unbounded")
        assert lines[1] == "roa: done" and lines[3] == "converse: done"
        assert lines[4] == "certificate: rejected"
        assert rc == 3
        assert "error" in _read_report(tmp_path, "order")["blocks"]["omega"]

    def test_malformed_json_exits_1_with_offset(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dimension": 1,\n  "field": [}')
        rc = main(["analyze", str(bad)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "byte offset" in err

    @pytest.mark.parametrize("name, pointer", [
        ("not-utf8", ""), ("deep-json", ""), ("deep-field", "/field/0"),
        ("deep-certificate", "/certificate/L"),
    ])
    def test_unreadable_input_exits_1_with_pointer(self, tmp_path, capsys, name, pointer):
        sink = {"dimension": 1, "field": ["-x1"], "set": {"type": "point", "coords": [0]}}
        data = {
            "not-utf8": b'{"dimension": 1, \xff}',
            "deep-json": b"[" * 100_000 + b"]" * 100_000,
            "deep-field": json.dumps({**sink, "field": ["(" * 5000 + "x1" + ")" * 5000]}).encode(),
            "deep-certificate": json.dumps({**sink, "certificate": {
                "L": "+".join(["x1"] * 20_000), "annulus": [0.1, 1.0]}}).encode(),
        }[name]
        path = tmp_path / "input.json"
        path.write_bytes(data)
        rc = main(["analyze", str(path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {pointer}: ")
        assert os.listdir(tmp_path) == ["input.json"]

    def test_out_dir_that_is_a_file_exits_1(self, tmp_path, capsys):
        path = _stage("linear_sink.json", tmp_path)
        (tmp_path / "taken").write_text("")
        rc = main(["analyze", path, "--out-dir", str(tmp_path / "taken")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(os.listdir(tmp_path)) == ["linear_sink.json", "taken"]

    def test_unwritable_report_exits_1(self, tmp_path, capsys):
        # A directory where the report goes fails its write, even as root.
        path = _stage("linear_sink.json", tmp_path)
        (tmp_path / "linear_sink.report.json").mkdir()
        rc = main(["analyze", path])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_file_exits_1(self, tmp_path, capsys):
        rc = main(["analyze", str(tmp_path / "absent.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_out_dir_flag(self, tmp_path):
        path = _stage("linear_sink.json", tmp_path)
        dest = tmp_path / "results"
        rc = main(["analyze", path, "--out-dir", str(dest)])
        assert rc == 0
        assert (dest / "linear_sink.report.json").exists()
        assert not (tmp_path / "linear_sink.report.json").exists()

    def test_failed_converse_rows_write_null(self, tmp_path):
        # Every start blows up before t = 1.25, so ell and big_l are NaN.
        problem = {
            "dimension": 2,
            "field": ["x1^2", "-x2"],
            "set": {"type": "point", "coords": [0, 0]},
            "converse": {"horizon": 2.0, "samples": 3, "box": [[0.8, 0.8], [1, 1]]},
        }
        path = tmp_path / "blowup.json"
        path.write_text(json.dumps(problem))
        assert main(["analyze", str(path)]) == 0
        text = (tmp_path / "blowup.report.json").read_text()
        rows = json.loads(text, parse_constant=_reject_constant)["blocks"]["converse"]["rows"]
        assert len(rows) == 3
        for row in rows:
            assert row["error"] and row["ell"] is None and row["big_l"] is None

    def test_reports_do_not_depend_on_location(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        assert main(["analyze", _stage("unstable_linear.json", a)]) == 2
        assert main(["analyze", _stage("unstable_linear.json", b)]) == 2
        bytes_a = (a / "unstable_linear.report.json").read_bytes()
        bytes_b = (b / "unstable_linear.report.json").read_bytes()
        assert bytes_a == bytes_b


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


_EXPRS = any_exprs(2)  # built once: building it per draw costs ~25 ms


@st.composite
def _problem_files(draw):
    """Valid two-dimensional problems with every block, sized to run fast."""
    # Whole coordinates put set members on the zeros of the expressions.
    coord = st.one_of(st.integers(-1, 1).map(float), st.floats(-1.0, 1.0))

    def point():
        return [draw(coord), draw(coord)]

    kind = draw(st.sampled_from(["point", "ball", "box", "cloud"]))
    if kind == "point":
        compact = {"type": "point", "coords": point()}
    elif kind == "ball":
        compact = {"type": "ball", "center": point(), "radius": draw(st.floats(0.0, 0.5))}
    elif kind == "box":
        lo = point()
        compact = {"type": "box", "lo": lo, "hi": [c + draw(st.floats(0.0, 0.5)) for c in lo]}
    else:
        compact = {"type": "cloud", "points": [point() for _ in range(draw(st.integers(1, 4)))]}
    horizon = draw(st.floats(0.05, 0.5))
    resolution = st.integers(2, 3)
    return {
        "dimension": 2,
        "field": [print_expr(draw(_EXPRS)) for _ in range(2)],
        "set": compact,
        "integrator": {"max_steps": draw(st.sampled_from([3, 200, 10**7]))},
        "seed": draw(st.integers(0, 2**31 - 1)),
        "omega": {"x0": point(), "transient": horizon, "window": horizon, "out_dt": 0.05},
        "roa": {"box": [[-1, -1], [1, 1]], "resolution": draw(resolution),
                "horizon": horizon, "out_dt": 0.05},
        "stability": {"epsilons": [draw(st.floats(0.05, 0.5))], "horizon": horizon,
                      "resolution": draw(resolution),
                      "shell_samples": draw(st.integers(1, 2)), "out_dt": 0.05},
        "converse": {"horizon": horizon, "out_dt": 0.05, "samples": draw(st.integers(1, 2))},
        "certificate": {"L": print_expr(draw(_EXPRS)), "annulus": [0.0, 0.5],
                        "samples": draw(st.integers(1, 3)), "decrease_time": horizon},
    }


# A candidate whose 1/0 at M raised no error on NumPy scalars, only a warning.
_SINGULAR_AT_M = {
    "dimension": 2,
    "field": ["-x1", "-x2"],
    "set": {"type": "point", "coords": [0, 0]},
    "integrator": {"max_steps": 200},
    "omega": {"x0": [0.5, 0.5], "transient": 0.1, "window": 0.1, "out_dt": 0.05},
    "roa": {"box": [[-1, -1], [1, 1]], "resolution": 2, "horizon": 0.1, "out_dt": 0.05},
    "stability": {"epsilons": [0.25], "horizon": 0.1, "resolution": 2, "shell_samples": 1,
                  "out_dt": 0.05},
    "converse": {"horizon": 0.1, "out_dt": 0.05, "samples": 1},
    "certificate": {"L": "exp(-1/(x1*x1 + x2*x2))", "annulus": [0.0, 0.5], "samples": 2,
                    "decrease_time": 0.1},
}


class TestAnalyzeFuzz:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=120, deadline=None)
    @given(_problem_files())
    @example(_SINGULAR_AT_M)
    def test_every_problem_yields_a_strict_report(self, problem):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(problem, fh)
            rc = main(["analyze", path])
            with open(os.path.join(tmp, "fuzz.report.json"), "r", encoding="utf-8") as fh:
                report = json.loads(fh.read(), parse_constant=_reject_constant)
        assert set(report["blocks"]) == {"omega", "roa", "stability", "converse", "certificate"}
        blocks = report["blocks"].values()
        if any("error" in block for block in blocks):
            assert rc == 3
        else:
            assert rc == (2 if any(b.get("verdict") in NEGATIVE_VERDICTS for b in blocks) else 0)


# The span each block's orbits are sampled over; out_dt may not exceed it.
_SAMPLED_SPANS = {"omega": "window", "stability": "horizon", "roa": "horizon",
                  "converse": "horizon"}
_REQUIRED_KEYS = {"omega": {"x0": [0.5, 0.0]}, "stability": {"epsilons": [0.5]},
                  "roa": {"box": [[-1, -1], [1, 1]]}, "converse": {}}


@st.composite
def _rule_breaking_files(draw):
    """A problem whose one block breaks a sampling rule, and the pointer."""
    block = draw(st.sampled_from([*_SAMPLED_SPANS, "simpson"]))
    if block == "simpson":
        out_dt = draw(st.floats(1e-3, 10.0))
        steps = 2 * draw(st.integers(0, 500)) + 1
        block, keys = "converse", {"horizon": steps * out_dt, "out_dt": out_dt,
                                   "quadrature": "simpson"}
        pointer = "/converse/quadrature"
    else:
        span = draw(st.floats(1e-3, 100.0))
        out_dt = draw(st.floats(span, 1e4, exclude_min=True))
        keys = {**_REQUIRED_KEYS[block], _SAMPLED_SPANS[block]: span, "out_dt": out_dt}
        pointer = f"/{block}/out_dt"
    problem = {"dimension": 2, "field": ["x2", "-x1"],
               "set": {"type": "point", "coords": [0, 0]}, block: keys}
    return problem, pointer


# (section, key) of number keys, and the other keys each section needs.
_NUMBER_KEYS = [("integrator", "rel_tol"), ("omega", "transient"), ("stability", "tol"),
                ("roa", "horizon"), ("converse", "lambda"), ("certificate", "decrease_time")]
_SECTION_KEYS = {**_REQUIRED_KEYS, "integrator": {},
                 "certificate": {"L": "x1^2", "annulus": [0.1, 1.0]}}
# (section, key, smallest value above MAX_STARTS starts) of the integer
# keys blocks make starts from: a 2-D grid has r^2 nodes, and one delta
# probe s shell and ceil(s / 4) inner points.
_START_KEYS = [("roa", "resolution", 1001), ("stability", "resolution", 1001),
               ("stability", "shell_samples", 800_001),
               ("converse", "samples", MAX_STARTS + 1),
               ("certificate", "samples", MAX_STARTS + 1)]


@st.composite
def _unbounded_files(draw):
    """A problem with one number that is not finite as a float, one block
    with more than MAX_SAMPLES output samples, or one integer key from
    which a block makes more than MAX_STARTS starts, and the pointer."""
    kind = draw(st.sampled_from(["non-finite", "huge-integer", "too-many-samples",
                                 "too-many-starts"]))
    if kind == "too-many-starts":
        section, key, smallest = draw(st.sampled_from(_START_KEYS))
        keys = {key: draw(st.integers(smallest, 10**400))}
    elif kind == "too-many-samples":
        section = draw(st.sampled_from(sorted(_SAMPLED_SPANS)))
        span = draw(st.floats(1e-3, 100.0))
        samples = draw(st.floats(1.001 * MAX_SAMPLES, 1e300))
        key, keys = "out_dt", {_SAMPLED_SPANS[section]: span, "out_dt": span / samples}
    else:
        section, key = draw(st.sampled_from(_NUMBER_KEYS))
        if kind == "non-finite":
            value = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
        else:  # beyond the float range
            value = draw(st.sampled_from([1, -1])) * 10 ** draw(st.integers(309, 400))
        keys = {key: value}
    problem = {"dimension": 2, "field": ["x2", "-x1"], "set": {"type": "point", "coords": [0, 0]},
               section: {**_SECTION_KEYS[section], **keys}}
    return problem, f"/{section}/{key}"


class TestSamplingRules:
    # The loader rejects each file before any grid is built or orbit run.
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(_rule_breaking_files(), _unbounded_files()))
    def test_rule_breaking_file_exits_1_with_pointer(self, case):
        problem, pointer = case
        with pytest.raises(ProblemFormatError) as exc_info:
            ProblemDefinition.from_json(problem)
        assert exc_info.value.pointer == pointer
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "rule.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(problem, fh)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main(["analyze", path])
            assert os.listdir(tmp) == ["rule.json"]
        assert rc == 1
        assert err.getvalue().startswith(f"error: {pointer}: ")


@pytest.fixture(scope="class")
def oscillator_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("osc_cli")
    path = str(tmp / "harmonic_oscillator.json")
    shutil.copy(os.path.join(PROBLEM_DIR, "harmonic_oscillator.json"), path)
    assert main(["analyze", path]) == 0
    return tmp


_MALFORMED_POINTERS = {"not-an-object": "/", "number-block": "/blocks/stability",
                       "no-problem": "/problem", "number-blocks": "/blocks"}


class TestPlot:
    def test_grid_cell_count(self, oscillator_run, capsys):
        report = str(oscillator_run / "harmonic_oscillator.report.json")
        rc = main(["plot", report])
        out = capsys.readouterr().out
        assert rc == 0
        assert "plot: " in out
        svg_path = oscillator_run / "harmonic_oscillator.svg"
        assert svg_path.exists()
        svg = svg_path.read_text()
        assert svg.count('class="cell"') == 11 * 11
        assert svg.startswith("<svg")

    def test_plot_is_deterministic(self, oscillator_run, tmp_path):
        report = str(oscillator_run / "harmonic_oscillator.report.json")
        out1 = tmp_path / "one.svg"
        out2 = tmp_path / "two.svg"
        assert main(["plot", report, "--out", str(out1)]) == 0
        assert main(["plot", report, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_polyline_formats_each_point_as_fmt_does(self):
        points = [(0.0, -0.0), (-1.23456, 1e-9), (123456.78915, -5e-5), (2.5e-5, 0.00015),
                  (1e15 / 3, -7.0)]
        coords = " ".join(f"{render._fmt(x)},{render._fmt(y)}" for x, y in points)
        assert render._polyline(points, "orbit") == f'<polyline class="orbit" points="{coords}"/>'

    @pytest.mark.parametrize("name", ["harmonic_oscillator", "unstable_linear"])
    def test_orbits_do_not_depend_on_the_order_of_visits(self, name, tmp_path, monkeypatch):
        # The SVG of a 2-D and of a 1-D problem, with every visit's samples
        # reversed and the visits delivered last first.
        path = _stage(f"{name}.json", tmp_path)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["analyze", path, "--out-dir", str(tmp_path)]) in (0, 2)
        problem = lyapset.load_problem(path)
        report = _read_report(tmp_path, name)
        expected = render.render_svg(problem, report)
        inner = render.integrate_lanes

        def reversing(V, starts, targets, cfg, visit, near=None):
            visits = []
            errors = inner(V, starts, targets, cfg, lambda *batch: visits.append(batch), near)
            for batch in reversed(visits):
                visit(*(a[::-1] for a in batch))
            return errors

        monkeypatch.setattr(render, "integrate_lanes", reversing)
        assert render.render_svg(problem, report) == expected

    def test_three_dimensional_needs_axes(self, tmp_path, capsys):
        problem = {
            "dimension": 3,
            "field": ["-x1", "-x2", "-x3"],
            "set": {"type": "point", "coords": [0, 0, 0]},
            "seed": 1,
        }
        path = tmp_path / "sink3.json"
        path.write_text(json.dumps(problem))
        assert main(["analyze", str(path)]) == 0
        capsys.readouterr()

        report = str(tmp_path / "sink3.report.json")
        rc = main(["plot", report])
        assert rc == 1
        assert "--axes" in capsys.readouterr().err

        rc = main(["plot", report, "--axes", "1,3"])
        assert rc == 0
        assert (tmp_path / "sink3.svg").exists()

        rc = main(["plot", report, "--axes", "1,5"])
        assert rc == 1

    def test_bad_axes_argument(self, oscillator_run, capsys):
        report = str(oscillator_run / "harmonic_oscillator.report.json")
        rc = main(["plot", report, "--axes", "a,b"])
        assert rc == 1
        assert "--axes expects" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["not-an-object", "short-labels", "text-epsilon",
                                      "number-block", "no-problem", "number-blocks"])
    def test_malformed_report_exits_1(self, oscillator_run, tmp_path, capsys, case):
        with open(oscillator_run / "harmonic_oscillator.report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        blocks = report["blocks"]
        if case == "not-an-object":
            report = []
        elif case == "short-labels":
            blocks["roa"]["labels"] = blocks["roa"]["labels"][:5]
        elif case == "text-epsilon":
            blocks["stability"]["pairs"][0]["epsilon"] = "half"
        elif case == "number-block":
            blocks["stability"] = 3
        elif case == "no-problem":
            del report["problem"]
        else:
            report["blocks"] = 3
        path = tmp_path / "bad.report.json"
        path.write_text(json.dumps(report))
        rc = main(["plot", str(path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ")
        # The shapes checked before rendering name the pointer at fault.
        pointer = _MALFORMED_POINTERS.get(case)
        if pointer:
            assert err.startswith(f"error: {pointer}: ")
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == ["bad.report.json"]

    @pytest.mark.parametrize("edit, pointer", [
        (lambda problem: problem.update(dimension="a"), "/problem/dimension"),
        (lambda problem: problem["set"].update(center=["a", 0.0]), "/problem/set/center/0"),
    ])
    def test_bad_problem_names_its_pointer_in_the_report(
        self, oscillator_run, tmp_path, capsys, edit, pointer
    ):
        with open(oscillator_run / "harmonic_oscillator.report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        edit(report["problem"])
        path = tmp_path / "bad.report.json"
        path.write_text(json.dumps(report))
        rc = main(["plot", str(path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {pointer}: ")
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == ["bad.report.json"]

    @pytest.mark.parametrize("data", [b'{"problem": \xff}', b"[" * 100_000 + b"]" * 100_000])
    def test_unreadable_report_exits_1_at_the_root(self, tmp_path, capsys, data):
        path = tmp_path / "bad.report.json"
        path.write_bytes(data)
        rc = main(["plot", str(path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: : ")
        assert os.listdir(tmp_path) == ["bad.report.json"]

    @pytest.mark.parametrize("out", ["absent/plot.svg", "file/plot.svg", "directory"])
    def test_unwritable_svg_exits_1(self, oscillator_run, tmp_path, capsys, out):
        (tmp_path / "file").write_text("")
        (tmp_path / "directory").mkdir()
        report = str(oscillator_run / "harmonic_oscillator.report.json")
        rc = main(["plot", report, "--out", str(tmp_path / out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(os.listdir(tmp_path)) == ["directory", "file"]

    def test_missing_report_exits_1(self, tmp_path, capsys):
        rc = main(["plot", str(tmp_path / "absent.report.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestSelftest:
    def test_full_suite_green(self, capsys, monkeypatch):
        monkeypatch.delenv("LYAPSET_TOL_SCALE", raising=False)
        rc = main(["selftest"])
        lines = capsys.readouterr().out.strip().split("\n")
        assert rc == 0
        assert len(lines) >= 15
        assert all(line.startswith("PASS ") for line in lines)

    def test_filter_runs_subset(self, capsys, monkeypatch):
        monkeypatch.delenv("LYAPSET_TOL_SCALE", raising=False)
        rc = main(["selftest", "--filter", "flow"])
        lines = capsys.readouterr().out.strip().split("\n")
        assert rc == 0
        assert 1 <= len(lines) <= 10
        assert all(line.startswith("PASS flow.") for line in lines)

    def test_unmatched_filter_fails(self, capsys, monkeypatch):
        monkeypatch.delenv("LYAPSET_TOL_SCALE", raising=False)
        rc = main(["selftest", "--filter", "no_such_module"])
        assert rc == 1
        assert "no checks match" in capsys.readouterr().out

    def test_tol_scale_forces_failures(self, capsys, monkeypatch):
        monkeypatch.setenv("LYAPSET_TOL_SCALE", "1e-6")
        rc = main(["selftest", "--filter", "flow"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out

    def test_invalid_tol_scale_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("LYAPSET_TOL_SCALE", "not-a-number")
        rc = main(["selftest"])
        assert rc == 1
        assert "LYAPSET_TOL_SCALE" in capsys.readouterr().err
