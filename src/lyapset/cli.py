"""Command-line entry points: analyze, plot, selftest.

analyze runs the analysis blocks of a problem file and writes a JSON
report plus CSV tables next to it; plot turns a report back into an
SVG; selftest runs the bundled closed-form checks. Exit codes: 0 clean,
1 input or usage error, or an output path that cannot be written (checked
before any block runs for analyze's directory), 2 when an analysis
produced a negative verdict
(rejected certificate or instability witness), 3 when an analysis block
failed with a toolkit error, which takes precedence over 2. A failed block
is recorded in the report as {"error": ...}, and the other blocks still run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .errors import LyapsetError, ProblemFormatError
from .expr import ScalarFieldSpec
from .flow import IntegratorConfig
from .geometry import Box
from .limits import estimate_omega, roa_grid
from .lyapunov import VERDICT_REJECTED, converse_table, verify_certificate
from .problem import (
    ProblemDefinition, _expect_object, converse_config, load_problem, read_json,
)
from .render import render_svg
from .selftest import run_selftest
from .stability import VERDICT_UNSTABLE, classify_stability

NEGATIVE_VERDICTS = (VERDICT_UNSTABLE, VERDICT_REJECTED)


def _json_safe(value):
    """Replace non-finite floats so the report is strict JSON: NaN, an
    undefined value, becomes null; an infinity becomes a signed string."""
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return value
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


@lru_cache(maxsize=None)
def _encoder(depth: int):
    """The encode of a strict JSON encoder whose item separator starts a
    line at depth, as indent=2 does; without indent it is the C encoder,
    where CPython has one."""
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": "), allow_nan=False).encode


def _leaf(items, depth: int) -> str | None:
    """items, a non-empty list at depth, as indent=2 writes it, from one
    encoder call where it holds only scalars, or only non-empty lists of
    scalars; else None. The encoded text shows which: one "[" per list
    (a string that holds one only sends items the slow way), no "{" and
    no "[]". An encoded string holds no raw newline, so "],\n" followed
    by the rows' indent and "[" is always a boundary between two rows."""
    rows = isinstance(items[0], (list, tuple))
    if isinstance(items[0], dict) or rows and not all(isinstance(r, (list, tuple)) for r in items):
        return None
    encode = _encoder(depth + 1 + rows)
    try:
        text = encode(items)
    except ValueError:  # a NaN or an infinity
        text = encode(_json_safe(items))
    pad, inner = "\n" + "  " * depth, "\n" + "  " * (depth + 1)
    if "{" in text or text.count("[") != (len(items) + 1 if rows else 1):
        return None
    if not rows:
        return "[" + inner + text[1:-1] + pad + "]"
    if "[]" in text:
        return None
    inner2 = inner + "  "
    body = text[2:-2].replace("]," + inner2 + "[", inner + "]," + inner + "[" + inner2)
    return "[" + inner + "[" + inner2 + body + inner + "]" + pad + "]"


def _report_text(value, depth: int = 0) -> str:
    """json.dumps(_json_safe(value), indent=2, sort_keys=True), each line
    after the first indented by depth more levels, with the same bytes;
    each list of scalars, or of rows of them, is one encoder call."""
    pad, inner = "\n" + "  " * depth, "\n" + "  " * (depth + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        if not all(isinstance(key, str) for key in value):  # keys that json converts
            return json.dumps(_json_safe(value), indent=2, sort_keys=True).replace("\n", pad)
        items = [f"{encode_basestring_ascii(key)}: {_report_text(value[key], depth + 1)}"
                 for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        text = _leaf(value, depth)
        if text is not None:
            return text
        items = [_report_text(v, depth + 1) for v in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "null" if math.isnan(value) else '"Infinity"' if value > 0 else '"-Infinity"'
    return _encoder(0)(value)


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
        "representatives": est.points.points.tolist(),
        "invariance_defect": est.invariance_defect,
        "transient_T": est.transient_T,
        "window_T": est.window_T,
        "cluster_tol": est.cluster_tol,
        "meta": est.meta,
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
        "final_distances": grid.final_distances.tolist(),
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
    cc = converse_config(block)
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
    except (ProblemFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    stem = os.path.splitext(os.path.basename(args.problem))[0]
    out_dir = args.out_dir or os.path.dirname(os.path.abspath(args.problem))
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:  # such as a file at out_dir
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
            exit_code = 3
        if csv is not None:
            csvs[name] = csv
        if blocks[name].get("verdict") in NEGATIVE_VERDICTS:
            exit_code = max(exit_code, 2)

    report = {
        "tool": {"name": "lyapset", "version": __version__},
        "problem": problem.to_json(),
        "problem_file": os.path.basename(args.problem),
        "blocks": blocks,
    }
    report_path = os.path.join(out_dir, f"{stem}.report.json")
    try:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(_report_text(report) + "\n")
        for kind, text in csvs.items():
            with open(os.path.join(out_dir, f"{stem}.{kind}.csv"), "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, block in blocks.items():
        print(f"{name}: {block.get('verdict') or block.get('error', 'done')}")
    print(f"report: {report_path}")
    return exit_code


def _check_report(report) -> None:
    """Raise ProblemFormatError at the JSON pointer of the first part of
    report that plot cannot read: the report, its problem, its blocks or
    one block is not an object."""
    _expect_object(report, "/")
    if "problem" not in report:
        raise ProblemFormatError("/problem", "required object missing")
    _expect_object(report["problem"], "/problem")
    for name, block in _expect_object(report.get("blocks", {}), "/blocks").items():
        _expect_object(block, f"/blocks/{name}")


def cmd_plot(args) -> int:
    try:
        report = read_json(args.report)
    except (OSError, ProblemFormatError) as exc:
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
    # A report of the wrong shape fails below: in _check_report with the
    # pointer at fault, or deeper with one of these built-in errors.
    try:
        _check_report(report)
        try:
            problem = ProblemDefinition.from_json(report["problem"])
        except ProblemFormatError as exc:  # its pointer is within the problem
            raise ProblemFormatError("/problem" + exc.pointer, exc.message) from exc
        svg = render_svg(problem, report, axes)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError, LyapsetError) as exc:
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
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:  # such as a directory at out_path, or none above it
        print(f"error: {exc}", file=sys.stderr)
        return 1
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


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser of main, built once per process."""
    parser = argparse.ArgumentParser(
        prog="lyapset",
        description="Numerical stability analysis of compact invariant sets of ODE flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="run the analyses in a problem file")
    p_analyze.add_argument("problem", help="path to a problem JSON file")
    p_analyze.add_argument("--out-dir", default=None, help="directory for report files")

    p_plot = sub.add_parser("plot", help="render a report as SVG")
    p_plot.add_argument("report", help="path to a .report.json file")
    p_plot.add_argument("--axes", default=None, help="coordinate pair i,j for n > 2")
    p_plot.add_argument("--out", default=None, help="output SVG path")

    p_self = sub.add_parser("selftest", help="run bundled closed-form checks")
    p_self.add_argument("--filter", default=None, help="substring filter on check names")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The commands are looked up at each call, not kept in the cached
    # parser, so that one replaced in this module is the one that runs.
    commands = {"analyze": cmd_analyze, "plot": cmd_plot, "selftest": cmd_selftest}
    return commands[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
