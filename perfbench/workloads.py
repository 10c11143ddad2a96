"""The three benchmark workloads, their seeded inputs and their checks.

Each workload is closed-loop and single-threaded: one caller, one call at a
time. `ready()` is the set-up a user pays before the first result
(parsing, field compilation, one RHS call); `run()` is one timed pass;
`check()` turns a pass's outputs into operations attempted and failed.

An operation is one analyze or plot call, ROA grid node, omega estimate,
converse row or certificate sample. It fails if it raises, returns an
unexpected exit code, carries an `error` label or row, or gives a verdict
or label that differs from the reference in references.json.

Call lyapset through module attributes at call time (`ls.roa_grid`, not a
name imported once), so that the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

import lyapset as ls

DEFAULT_SEED = 0
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

_LABEL_CODES = {
    "attracted": "a",
    "weakly_attracted": "w",
    "not_attracted_within_horizon": "n",
    "error": "e",
}


def label_string(labels) -> str:
    """ROA labels as one character per node, the form references.json uses."""
    return "".join(_LABEL_CODES.get(lab, "?") for lab in labels)


def _mismatches(labels: str, reference: str) -> int:
    return sum(a != b for a, b in zip(labels, reference)) + abs(len(labels) - len(reference))


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Outcome:
    """Checked result of one pass."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    report_bytes: int = 0
    svg_bytes: int = 0

    def add(self, count: int, failed: int, problem: str | None = None):
        self.attempted += count
        self.failed += failed
        if failed and problem:
            self.problems.append(problem)


class BundledCli:
    """`lyapset analyze` then `lyapset plot` on each bundled problem, in process."""

    name = "bundled_cli"
    PROBLEMS = ("harmonic_oscillator", "linear_sink", "unstable_linear", "vanderpol")

    def __init__(self, root: str, work: str, seed: int, references: dict):
        self.refs = references[self.name]
        self.problem_dir = os.path.join(work, "problems")
        self.out_dir = os.path.join(work, "out")
        os.makedirs(self.problem_dir, exist_ok=True)
        os.makedirs(self.out_dir, exist_ok=True)
        # The seed moves each problem's own sampling seed; the default seed
        # leaves the bundled problems as they are. The set-up probe reuses
        # the copies its parent wrote.
        for stem in self.PROBLEMS:
            if os.path.exists(self._problem(stem)):
                continue
            with open(os.path.join(root, "problems", f"{stem}.json"), encoding="utf-8") as fh:
                obj = json.load(fh)
            obj["seed"] = (obj.get("seed", 0) + seed) % (2**31)
            with open(self._problem(stem), "w", encoding="utf-8") as fh:
                json.dump(obj, fh, indent=2)

    def _problem(self, stem: str) -> str:
        return os.path.join(self.problem_dir, f"{stem}.json")

    def _report(self, stem: str, out_dir: str | None = None) -> str:
        return os.path.join(out_dir or self.out_dir, f"{stem}.report.json")

    def ready(self):
        importlib.import_module("lyapset.cli")
        problem, expr = sys.modules["lyapset.problem"], sys.modules["lyapset.expr"]
        for stem in self.PROBLEMS:
            definition = problem.load_problem(self._problem(stem))
            rhs = expr.compile_vector_field(definition.field)
            rhs([0.5] * definition.dimension)

    def _cli(self, stems, out_dir):
        cli = importlib.import_module("lyapset.cli")
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for stem in stems:
                for argv in (["analyze", self._problem(stem), "--out-dir", out_dir],
                             ["plot", self._report(stem, out_dir)]):
                    try:
                        codes.append(cli.main(argv))
                    except (Exception, SystemExit) as exc:  # a failed operation, not a crash
                        codes.append(repr(exc))
        return codes

    def warm(self, work: str):
        self._cli(("unstable_linear", "vanderpol"), os.path.join(work, "warm"))

    def run(self):
        return self._cli(self.PROBLEMS, self.out_dir)

    def check(self, codes) -> Outcome:
        out = Outcome()
        digest = hashlib.sha256()
        for i, stem in enumerate(self.PROBLEMS):
            ref = self.refs[stem]
            analyze_code, plot_code = codes[2 * i], codes[2 * i + 1]
            problems = []
            if analyze_code != ref["exit"]:
                problems.append(f"analyze exit {analyze_code!r}, expected {ref['exit']}")
            try:
                with open(self._report(stem), "rb") as fh:
                    raw = fh.read()
                blocks = json.loads(raw)["blocks"]
            except (OSError, ValueError, KeyError) as exc:
                blocks, raw = {}, b""
                problems.append(f"report unreadable: {exc}")
            digest.update(raw)
            out.report_bytes += len(raw)
            for name, block in blocks.items():
                if "error" in block:
                    problems.append(f"block {name}: {block['error']}")
            for name, verdict in ref.get("verdicts", {}).items():
                got = blocks.get(name, {}).get("verdict")
                if got != verdict:
                    problems.append(f"{name} verdict {got!r}, expected {verdict!r}")
            if "omega_reps" in ref:
                got = len(blocks.get("omega", {}).get("representatives", []))
                if got != ref["omega_reps"]:
                    problems.append(
                        f"omega has {got} representatives, expected {ref['omega_reps']}")
            out.add(1, bool(problems), f"{stem} analyze: {'; '.join(problems)}")

            for kind in ("roa", "converse"):
                path = os.path.join(self.out_dir, f"{stem}.{kind}.csv")
                if os.path.exists(path):
                    with open(path, "rb") as fh:
                        data = fh.read()
                    digest.update(data)
                    out.report_bytes += len(data)
            if "roa_labels" in ref:
                labels = label_string(blocks.get("roa", {}).get("labels", []))
                bad = _mismatches(labels, ref["roa_labels"])
                out.add(len(ref["roa_labels"]), bad,
                        f"{stem}: {bad} ROA nodes differ from the reference")
            if "converse_rows" in ref:
                rows = blocks.get("converse", {}).get("rows", [])
                bad = sum(r.get("error") is not None for r in rows)
                bad += max(0, ref["converse_rows"] - len(rows))
                out.add(ref["converse_rows"], bad, f"{stem}: {bad} converse rows failed")
            if "certificate_samples" in ref:
                cert = blocks.get("certificate", {})
                ok = cert.get("verdict") == ref["verdicts"]["certificate"] and not any(
                    note.startswith("evaluation failure") for note in cert.get("notes", []))
                n = ref["certificate_samples"]
                out.add(n, 0 if ok else n, f"{stem}: certificate {cert.get('verdict')!r}")

            svg_problem = None
            try:
                with open(self._report(stem)[: -len(".report.json")] + ".svg", "rb") as fh:
                    svg = fh.read()
            except OSError as exc:
                svg, svg_problem = b"", f"svg missing: {exc}"
            if plot_code != 0:
                svg_problem = f"plot exit {plot_code!r}"
            digest.update(svg)
            out.svg_bytes += len(svg)
            out.add(1, svg_problem is not None, f"{stem} plot: {svg_problem}")
        out.digest = digest.hexdigest()
        # A pass whose call writes nothing must not be checked against the
        # files of the pass before it.
        for entry in os.listdir(self.out_dir):
            os.remove(os.path.join(self.out_dir, entry))
        return out


class VdpRoaGrid:
    """roa_grid over a 41x41 grid on the reversed Van der Pol field."""

    name = "vdp_roa_grid"
    FIELD = ("-x2", "x1 - (1 - x1^2)*x2")
    RESOLUTION = 41
    HALF_WIDTH = 3.0
    HORIZON = 20.0
    OUT_DT = 0.05
    TOL = 1e-3

    def __init__(self, root: str, work: str, seed: int, references: dict):
        self.seed = seed
        self.refs = references[self.name]
        cell = 2.0 * self.HALF_WIDTH / (self.RESOLUTION - 1)
        shift = np.zeros(2)
        if seed != DEFAULT_SEED:
            shift = np.random.default_rng(seed).uniform(-0.5, 0.5, size=2) * cell
        self.lo = [float(-self.HALF_WIDTH + s) for s in shift]
        self.hi = [float(self.HALF_WIDTH + s) for s in shift]

    def ready(self):
        self.V = ls.VectorFieldSpec.from_strings(list(self.FIELD))
        sys.modules["lyapset.expr"].compile_vector_field(self.V)([0.5, 0.5])
        self.M = ls.SinglePoint([0.0, 0.0])
        self.box = ls.Box(self.lo, self.hi)
        self.cfg = ls.IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12)

    def _grid(self, resolution):
        return ls.roa_grid(self.V, self.M, self.box, resolution, self.cfg,
                           self.HORIZON, self.TOL, out_dt=self.OUT_DT)

    def warm(self, work: str):
        self._grid(3)

    def run(self):
        try:
            return self._grid(self.RESOLUTION)
        except Exception as exc:  # a failed operation, not a crash
            return exc

    def check(self, grid) -> Outcome:
        out = Outcome()
        nodes = self.RESOLUTION ** 2
        if isinstance(grid, Exception):
            out.add(nodes, nodes, f"roa_grid raised {grid!r}")
            return out
        labels = label_string(grid.labels)
        bad = [lab == "e" or (esc and lab == "a") for lab, esc in zip(labels, grid.escaped)]
        if self.seed == DEFAULT_SEED:
            escaped = "".join("1" if esc else "0" for esc in grid.escaped)
            bad = [b or lab != ref_lab or esc != ref_esc for b, lab, ref_lab, esc, ref_esc in zip(
                bad, labels, self.refs["labels"], escaped, self.refs["escaped"])]
        failed = sum(bad) + abs(nodes - len(labels))
        out.add(nodes, failed,
                f"{failed} grid nodes failed (error, escaped-attracted or reference)")
        out.digest = hashlib.sha256(grid.to_csv().encode()).hexdigest()
        return out


class CycleCloud:
    """Omega cloud of a lifted Van der Pol cycle, then converse rows and a
    certificate check against that cloud."""

    name = "cycle_cloud"
    FIELD = ("x2", "(1 - x1^2)*x2 - x1", "x1 - x3", "x2 - 2*x4")
    X0 = (0.5, 0.0, 0.0, 0.0)
    TRANSIENT = 60.0
    WINDOW = 6.7
    STARTS = 24
    START_HALF_WIDTH = 3.0
    CONVERSE_HORIZON = 10.0
    CONVERSE_OUT_DT = 0.02
    CANDIDATE = "x1^2 + x2^2 + x3^2 + x4^2"
    ANNULUS = (0.05, 1.0)
    SAMPLES = 200

    def __init__(self, root: str, work: str, seed: int, references: dict):
        self.refs = references[self.name]
        self.starts = np.random.default_rng(seed).uniform(
            -self.START_HALF_WIDTH, self.START_HALF_WIDTH, size=(self.STARTS, 4))
        self.certificate_seed = seed

    def ready(self):
        self.V = ls.VectorFieldSpec.from_strings(list(self.FIELD))
        self.candidate = ls.ScalarFieldSpec.from_string(self.CANDIDATE, 4)
        sys.modules["lyapset.expr"].compile_vector_field(self.V)([0.5, 0.5, 0.5, 0.5])
        self.cfg = ls.IntegratorConfig()
        self.cc = ls.ConverseConfig(self.CONVERSE_HORIZON, self.CONVERSE_OUT_DT)

    def _pass(self, starts, samples):
        est = ls.estimate_omega(self.V, list(self.X0), self.cfg,
                                transient_T=self.TRANSIENT, window_T=self.WINDOW)
        cloud = ls.PointCloud(est.points.points)
        table = ls.converse_table(self.V, cloud, starts, self.cfg, self.cc)
        report = ls.verify_certificate(self.V, cloud, self.candidate, *self.ANNULUS,
                                       samples, self.certificate_seed, self.cfg)
        return est, table, report

    def warm(self, work: str):
        self._pass(self.starts[:1], 5)

    def run(self):
        try:
            return self._pass(self.starts, self.SAMPLES)
        except Exception as exc:  # a failed operation, not a crash
            return exc

    def check(self, result) -> Outcome:
        out = Outcome()
        if isinstance(result, Exception):
            out.add(1 + self.STARTS + self.SAMPLES, 1 + self.STARTS + self.SAMPLES,
                    f"pass raised {result!r}")
            return out
        est, table, report = result
        reps = len(est.points)
        out.add(1, reps != self.refs["omega_reps"],
                f"omega has {reps} representatives, expected {self.refs['omega_reps']}")
        bad = sum(r.error is not None for r in table.rows) + abs(self.STARTS - len(table.rows))
        out.add(self.STARTS, bad, f"{bad} converse rows failed")
        ok = report.verdict == self.refs["verdict"] and not any(
            note.startswith("evaluation failure") for note in report.notes)
        out.add(self.SAMPLES, 0 if ok else self.SAMPLES, f"certificate {report.verdict!r}")
        digest = hashlib.sha256(est.points.points.tobytes())
        digest.update(table.to_csv().encode())
        digest.update(json.dumps(report.to_json(), sort_keys=True).encode())
        out.digest = digest.hexdigest()
        return out


WORKLOADS = {cls.name: cls for cls in (BundledCli, VdpRoaGrid, CycleCloud)}
