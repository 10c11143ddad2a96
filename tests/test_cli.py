import json
import os
import shutil
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from lyapset import __version__
from lyapset.cli import NEGATIVE_VERDICTS, main
from lyapset.expr import print_expr
from lyapset.problem import ProblemDefinition

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


@pytest.fixture(scope="class")
def oscillator_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("osc_cli")
    path = str(tmp / "harmonic_oscillator.json")
    shutil.copy(os.path.join(PROBLEM_DIR, "harmonic_oscillator.json"), path)
    assert main(["analyze", path]) == 0
    return tmp


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
