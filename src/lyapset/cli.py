"""Command-line entry points: analyze, plot, selftest.

analyze runs the analysis blocks of a problem file and writes a JSON
report plus CSV tables next to it; plot turns a report back into an
SVG; selftest runs the bundled closed-form checks. Exit codes: 0 clean,
1 input or usage error, 2 when an analysis produced a negative verdict
(rejected certificate or instability witness). A block that fails with a
toolkit error is recorded in the report as {"error": ...} and leaves the
exit code as it is.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import LyapsetError, ProblemFormatError
from .expr import ScalarFieldSpec
from .flow import IntegratorConfig
from .geometry import Box
from .limits import estimate_omega, roa_grid
from .lyapunov import VERDICT_REJECTED, ConverseConfig, converse_table, verify_certificate
from .problem import ProblemDefinition, load_problem
from .render import render_svg
from .selftest import run_selftest
from .stability import VERDICT_UNSTABLE, classify_stability

NEGATIVE_VERDICTS = (VERDICT_UNSTABLE, VERDICT_REJECTED)


def _json_safe(value):
    """Replace non-finite floats so the report is strict JSON."""
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return value
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _block_box(problem: ProblemDefinition, block: dict, pad: float = 0.0) -> Box:
    """The block's box, or the set's bounding box padded by pad."""
    if "box" in block:
        return Box(*block["box"])
    lo, hi = problem.set_spec.bounding_box()
    return Box(lo - pad, hi + pad)


def _run_omega(problem: ProblemDefinition, cfg: IntegratorConfig) -> tuple[dict, None]:
    block = problem.omega
    est = estimate_omega(
        problem.field, block["x0"], cfg,
        transient_T=block["transient"], window_T=block["window"],
        out_dt=block["out_dt"], cluster_tol=block["cluster_tol"],
    )
    return {
        "representatives": [[float(c) for c in p] for p in est.points.points],
        "invariance_defect": est.invariance_defect,
        "transient_T": est.transient_T,
        "window_T": est.window_T,
        "cluster_tol": est.cluster_tol,
        "meta": est.points.meta,
    }, None


def _run_roa(problem: ProblemDefinition, cfg: IntegratorConfig) -> tuple[dict, str]:
    block = problem.roa
    box = _block_box(problem, block)
    grid = roa_grid(
        problem.field, problem.set_spec, box, block["resolution"], cfg,
        block["horizon"], block["tol"], out_dt=block["out_dt"],
    )
    out = {
        "labels": list(grid.labels),
        "final_distances": [float(v) for v in grid.final_distances],
        "summary": grid.to_json(),
    }
    return out, grid.to_csv()


def _run_stability(problem: ProblemDefinition, cfg: IntegratorConfig) -> tuple[dict, None]:
    block = problem.stability
    box = _block_box(problem, block, 2.0 * max(block["epsilons"]))
    report = classify_stability(
        problem.field, problem.set_spec, cfg, block["epsilons"], box,
        resolution=block["resolution"], horizon_T=block["horizon"],
        shell_samples=block["shell_samples"], seed=problem.block_seed("stability"),
        tol=block["tol"], out_dt=block["out_dt"],
    )
    return report.to_json(), None


def _run_converse(problem: ProblemDefinition, cfg: IntegratorConfig) -> tuple[dict, str]:
    block = problem.converse
    box = _block_box(problem, block, 1.0)
    cc = ConverseConfig(
        horizon_T=block["horizon"], out_dt=block["out_dt"],
        lam=block["lambda"], quadrature=block["quadrature"],
    )
    rng = np.random.default_rng(problem.block_seed("converse"))
    points = rng.uniform(box.lo, box.hi, size=(block["samples"], problem.dimension))
    table = converse_table(problem.field, problem.set_spec, points, cfg, cc)
    return table.to_json(), table.to_csv()


def _run_certificate(problem: ProblemDefinition, cfg: IntegratorConfig) -> tuple[dict, None]:
    block = problem.certificate
    spec = ScalarFieldSpec.from_string(block["L"], problem.dimension)
    report = verify_certificate(
        problem.field, problem.set_spec, spec,
        block["annulus"][0], block["annulus"][1], block["samples"],
        problem.block_seed("certificate"), cfg,
        zero_tol=block["zero_tol"], decrease_time=block["decrease_time"],
    )
    return report.to_json(), None


# The blocks in the order they run and are printed. Each runner returns
# the block's report entry and its CSV table or None.
RUNNERS = {
    "omega": _run_omega,
    "roa": _run_roa,
    "stability": _run_stability,
    "converse": _run_converse,
    "certificate": _run_certificate,
}


def cmd_analyze(args) -> int:
    try:
        problem = load_problem(args.problem)
    except ProblemFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    stem = os.path.splitext(os.path.basename(args.problem))[0]
    out_dir = args.out_dir or os.path.dirname(os.path.abspath(args.problem))
    os.makedirs(out_dir, exist_ok=True)
    cfg = problem.integrator

    blocks: dict[str, dict] = {}
    csvs: dict[str, str] = {}
    exit_code = 0
    for name, run in RUNNERS.items():
        if getattr(problem, name) is None:
            continue
        try:
            blocks[name], csv = run(problem, cfg)
        except LyapsetError as exc:
            blocks[name], csv = {"error": str(exc)}, None
        if csv is not None:
            csvs[name] = csv
        if blocks[name].get("verdict") in NEGATIVE_VERDICTS:
            exit_code = 2

    report = {
        "tool": {"name": "lyapset", "version": __version__},
        "problem": problem.to_json(),
        "problem_file": os.path.basename(args.problem),
        "blocks": blocks,
    }
    report_path = os.path.join(out_dir, f"{stem}.report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(_json_safe(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    for kind, text in csvs.items():
        with open(os.path.join(out_dir, f"{stem}.{kind}.csv"), "w", encoding="utf-8") as fh:
            fh.write(text)

    for name, block in blocks.items():
        print(f"{name}: {block.get('verdict') or block.get('error', 'done')}")
    print(f"report: {report_path}")
    return exit_code


def cmd_plot(args) -> int:
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    axes = None
    if args.axes:
        try:
            i, j = (int(p) for p in args.axes.split(","))
            axes = (i, j)
        except ValueError:
            print("error: --axes expects two comma-separated indices", file=sys.stderr)
            return 1
    try:
        problem = ProblemDefinition.from_json(report["problem"])
        svg = render_svg(problem, report, axes)
    except (KeyError, ValueError, LyapsetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_path = args.out
    if out_path is None:
        base = args.report
        if base.endswith(".report.json"):
            base = base[: -len(".report.json")]
        else:
            base = os.path.splitext(base)[0]
        out_path = base + ".svg"
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"plot: {out_path}")
    return 0


def cmd_selftest(args) -> int:
    raw = os.environ.get("LYAPSET_TOL_SCALE", "")
    try:
        scale = float(raw) if raw else 1.0
    except ValueError:
        print(f"error: LYAPSET_TOL_SCALE is not a number: {raw!r}", file=sys.stderr)
        return 1
    ok = run_selftest(scale=scale, name_filter=args.filter or "")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lyapset",
        description="Numerical stability analysis of compact invariant sets of ODE flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="run the analyses in a problem file")
    p_analyze.add_argument("problem", help="path to a problem JSON file")
    p_analyze.add_argument("--out-dir", default=None, help="directory for report files")
    p_analyze.set_defaults(fn=cmd_analyze)

    p_plot = sub.add_parser("plot", help="render a report as SVG")
    p_plot.add_argument("report", help="path to a .report.json file")
    p_plot.add_argument("--axes", default=None, help="coordinate pair i,j for n > 2")
    p_plot.add_argument("--out", default=None, help="output SVG path")
    p_plot.set_defaults(fn=cmd_plot)

    p_self = sub.add_parser("selftest", help="run bundled closed-form checks")
    p_self.add_argument("--filter", default=None, help="substring filter on check names")
    p_self.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
