"""Deterministic SVG phase portraits and attraction maps.

The renderer is a pure function of (problem, report): orbits are
re-integrated from the problem definition with its own seeds and
integrator, every coordinate is written with a fixed decimal format,
and no timestamps or environment data enter the output, so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import numpy as np

from .flow import integrate_lanes, sample_times
from .geometry import Box, ClosedBall, PointCloud, SinglePoint
from .problem import ProblemDefinition

SIZE = 640
MARGIN = 50
SPAN = SIZE - 2 * MARGIN

COLOR_CELL = {
    "attracted": "#5b8dd9",
    "weakly_attracted": "#e6b84c",
    "not_attracted_within_horizon": "#d9dde3",
    "error": "#d96a6a",
}

_STYLE = (
    "<style>"
    ".cell{stroke:none;fill-opacity:0.55}"
    ".orbit{fill:none;stroke:#333333;stroke-width:1.2}"
    ".set{fill:#1b7837;stroke:#1b7837}"
    ".setline{fill:none;stroke:#1b7837;stroke-width:1.5}"
    ".eps{fill:none;stroke:#7a4fa3;stroke-width:1;stroke-dasharray:6 3}"
    ".delta{fill:none;stroke:#c2571a;stroke-width:1;stroke-dasharray:2 3}"
    ".frame{fill:none;stroke:#555555;stroke-width:1}"
    "text{font-family:monospace;font-size:12px;fill:#333333}"
    "</style>"
)
_PROLOGUE = "\n".join([
    f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {SIZE} {SIZE}">',
    _STYLE,
    f'<rect x="0" y="0" width="{SIZE}" height="{SIZE}" fill="#ffffff"/>',
])


def _fmt(v: float) -> str:
    return f"{v:.4f}"


class _Frame:
    """Affine map from data coordinates to the SVG viewport."""

    def __init__(self, xmin, xmax, ymin, ymax):
        pad_x = 0.05 * (xmax - xmin) or 0.5
        pad_y = 0.05 * (ymax - ymin) or 0.5
        self.xmin, self.xmax = xmin - pad_x, xmax + pad_x
        self.ymin, self.ymax = ymin - pad_y, ymax + pad_y

    def sx(self, v: float) -> float:
        return MARGIN + (v - self.xmin) / (self.xmax - self.xmin) * SPAN

    def sy(self, v: float) -> float:
        return SIZE - MARGIN - (v - self.ymin) / (self.ymax - self.ymin) * SPAN

    def scale_x(self, w: float) -> float:
        return w / (self.xmax - self.xmin) * SPAN

    def scale_y(self, h: float) -> float:
        return h / (self.ymax - self.ymin) * SPAN


def _polyline(points, cls: str) -> str:
    """The polyline through points, (x, y) pairs, each written as _fmt does."""
    flat = np.asarray(points, dtype=float).ravel().tolist()
    coords = " ".join(["%.4f,%.4f"] * (len(flat) // 2)) % tuple(flat)
    return f'<polyline class="{cls}" points="{coords}"/>'


def _plot_bounds(problem: ProblemDefinition, ax_i: int, ax_j: int):
    if problem.roa is not None:
        lo, hi = problem.roa["box"]
        return lo[ax_i], hi[ax_i], lo[ax_j], hi[ax_j]
    if problem.stability is not None and "box" in problem.stability:
        lo, hi = problem.stability["box"]
        return lo[ax_i], hi[ax_i], lo[ax_j], hi[ax_j]
    lo, hi = problem.set_spec.bounding_box()
    pad = 1.0
    if problem.stability is not None:
        pad = max(1.0, max(problem.stability["epsilons"]))
    return lo[ax_i] - pad, hi[ax_i] + pad, lo[ax_j] - pad, hi[ax_j] + pad


def _roa_cells(problem, report, frame: _Frame) -> list[str]:
    block = (report.get("blocks") or {}).get("roa")
    if problem.roa is None or block is None or problem.dimension != 2:
        return []
    lo, hi = problem.roa["box"]
    res = problem.roa["resolution"]
    res = res if isinstance(res, list) else [res, res]
    axes = [np.linspace(lo[d], hi[d], res[d]) for d in (0, 1)]
    widths = [(hi[d] - lo[d]) / (res[d] - 1) for d in (0, 1)]  # resolution >= 2 at load
    labels = block["labels"]
    w = frame.scale_x(widths[0])
    h = frame.scale_y(widths[1])
    # Node (a, b) is row-major over the axes; _Frame's maps take arrays
    # too, with the same operations per element.
    xs = np.repeat(frame.sx(axes[0]) - w / 2, res[1]).tolist()
    ys = np.tile(frame.sy(axes[1]) - h / 2, res[0]).tolist()
    cell = f'<rect class="cell" x="%.4f" y="%.4f" width="{_fmt(w)}" height="{_fmt(h)}" fill="%s"/>'
    return [cell % (x, y, COLOR_CELL.get(labels[idx], COLOR_CELL["error"]))
            for idx, (x, y) in enumerate(zip(xs, ys))]


def _set_marks(problem, frame: _Frame, ax_i: int, ax_j: int) -> list[str]:
    M = problem.set_spec
    if isinstance(M, SinglePoint):
        return [
            f'<circle class="set" cx="{_fmt(frame.sx(M.point[ax_i]))}"'
            f' cy="{_fmt(frame.sy(M.point[ax_j]))}" r="3"/>'
        ]
    if isinstance(M, ClosedBall):
        return [
            f'<ellipse class="setline" cx="{_fmt(frame.sx(M.center[ax_i]))}"'
            f' cy="{_fmt(frame.sy(M.center[ax_j]))}"'
            f' rx="{_fmt(frame.scale_x(M.radius))}"'
            f' ry="{_fmt(frame.scale_y(M.radius))}"/>'
        ]
    if isinstance(M, Box):
        w = frame.scale_x(M.hi[ax_i] - M.lo[ax_i])
        h = frame.scale_y(M.hi[ax_j] - M.lo[ax_j])
        return [
            f'<rect class="setline" x="{_fmt(frame.sx(M.lo[ax_i]))}"'
            f' y="{_fmt(frame.sy(M.hi[ax_j]))}" width="{_fmt(w)}" height="{_fmt(h)}"/>'
        ]
    if isinstance(M, PointCloud):
        pts = [(frame.sx(p[ax_i]), frame.sy(p[ax_j])) for p in M.points]
        return [_polyline(pts, "setline")]
    return []


def _orbit_starts(problem: ProblemDefinition) -> list[list[float]]:
    if problem.omega is not None:
        return [list(problem.omega["x0"])]
    ax_lo, ax_hi = problem.set_spec.bounding_box()
    if problem.roa is not None:
        lo, hi = problem.roa["box"]
    else:
        lo = [v - 1.0 for v in ax_lo]
        hi = [v + 1.0 for v in ax_hi]
    center = [(a + b) / 2 for a, b in zip(lo, hi)]
    # Four starts near the corners of the first two coordinates; any
    # remaining coordinates stay at the center.
    starts = []
    for pick in range(4):
        pt = list(center)
        pt[0] = center[0] + 0.8 * ((hi[0] if pick % 2 else lo[0]) - center[0])
        if len(pt) >= 2:
            pt[1] = center[1] + 0.8 * ((hi[1] if pick // 2 else lo[1]) - center[1])
        starts.append(pt)
    return starts


def _sampled_orbits(problem, starts, horizon: float):
    """The orbits of starts sampled every 0.02 up to horizon, from one
    integrate_lanes call: the times, the states, (rows, times, n) with a
    row's sample j at [row, j], and per row the samples it reached, up to
    an integration failure. Each sample is written where it belongs, so
    the order in which integrate_lanes visits them does not matter."""
    times = np.asarray(sample_times(horizon, 0.02))
    starts = np.asarray(starts, dtype=float)
    states = np.empty((len(starts), len(times), starts.shape[1]))
    states[:, 0] = starts
    reached = np.ones(len(starts), dtype=int)

    def visit(rows, j, samples):
        states[rows, j + 1] = samples
        np.maximum.at(reached, rows, j + 2)

    integrate_lanes(problem.field, starts, times[1:], problem.integrator, visit)
    return times, states, reached


def _orbits(problem, frame: _Frame, ax_i: int, ax_j: int) -> list[str]:
    horizon = 12.0
    if problem.omega is not None:
        horizon = min(12.0, problem.omega["transient"] + problem.omega["window"])
    _, states, reached = _sampled_orbits(problem, _orbit_starts(problem), horizon)
    # _Frame's maps take arrays too, with the same operations per element.
    xs, ys = frame.sx(states[..., ax_i]), frame.sy(states[..., ax_j])
    return [_polyline(np.stack([x[:k], y[:k]], axis=1), "orbit")
            for x, y, k in zip(xs, ys, reached.tolist())]


def _radius_rings(problem, report, frame: _Frame) -> list[str]:
    block = (report.get("blocks") or {}).get("stability")
    if block is None:
        return []
    M = problem.set_spec
    if isinstance(M, SinglePoint):
        center = M.point
        base = 0.0
    elif isinstance(M, ClosedBall):
        center = M.center
        base = M.radius
    else:
        return []
    out = []
    for pair in block.get("pairs", []):
        cx, cy = _fmt(frame.sx(center[0])), _fmt(frame.sy(center[1]))
        rx = frame.scale_x(base + pair["epsilon"])
        ry = frame.scale_y(base + pair["epsilon"])
        out.append(
            f'<ellipse class="eps" cx="{cx}" cy="{cy}" rx="{_fmt(rx)}" ry="{_fmt(ry)}"/>'
        )
        if pair.get("delta") is not None:
            rx = frame.scale_x(base + pair["delta"])
            ry = frame.scale_y(base + pair["delta"])
            out.append(
                f'<ellipse class="delta" cx="{cx}" cy="{cy}"'
                f' rx="{_fmt(rx)}" ry="{_fmt(ry)}"/>'
            )
    return out


def _frame_and_end(frame: _Frame, label_x: str, label_y: str) -> list[str]:
    return [
        f'<rect class="frame" x="{MARGIN}" y="{MARGIN}" width="{SPAN}" height="{SPAN}"/>',
        f'<text x="{MARGIN}" y="{SIZE - MARGIN + 16}">{_fmt(frame.xmin)}</text>',
        f'<text x="{SIZE - MARGIN - 40}" y="{SIZE - MARGIN + 16}">{_fmt(frame.xmax)}</text>',
        f'<text x="{MARGIN - 44}" y="{SIZE - MARGIN}">{_fmt(frame.ymin)}</text>',
        f'<text x="{MARGIN - 44}" y="{MARGIN + 10}">{_fmt(frame.ymax)}</text>',
        f'<text x="{SIZE // 2 - 20}" y="{SIZE - 14}">{label_x}</text>',
        f'<text x="{14}" y="{SIZE // 2}" transform="rotate(-90 14 {SIZE // 2})">{label_y}</text>',
        "</svg>",
    ]


def _render_1d(problem: ProblemDefinition, report: dict) -> str:
    lo, hi = problem.set_spec.bounding_box()
    xmin, xmax = float(lo[0]) - 1.0, float(hi[0]) + 1.0
    if problem.roa is not None:
        box_lo, box_hi = problem.roa["box"]
        xmin, xmax = box_lo[0], box_hi[0]
    horizon = 10.0
    frame = _Frame(xmin, xmax, 0.0, horizon)
    parts = [_PROLOGUE]
    block = (report.get("blocks") or {}).get("roa")
    if block is not None and problem.roa is not None:
        res = problem.roa["resolution"]
        res = res[0] if isinstance(res, list) else res
        axis = np.linspace(xmin, xmax, res)
        w = frame.scale_x((xmax - xmin) / (res - 1))
        for idx, a in enumerate(axis):
            color = COLOR_CELL.get(block["labels"][idx], COLOR_CELL["error"])
            parts.append(
                f'<rect class="cell" x="{_fmt(frame.sx(float(a)) - w / 2)}"'
                f' y="{SIZE - MARGIN}" width="{_fmt(w)}" height="14" fill="{color}"/>'
            )
    n_orbits = 7
    starts = [[xmin + (k + 0.5) * (xmax - xmin) / n_orbits] for k in range(n_orbits)]
    times, states, reached = _sampled_orbits(problem, starts, horizon)
    for x, k in zip(states[..., 0], reached.tolist()):
        inside = (frame.xmin <= x[:k]) & (x[:k] <= frame.xmax)
        if np.count_nonzero(inside) >= 2:
            pts = np.stack([frame.sx(x[:k][inside]), frame.sy(times[:k][inside])], axis=1)
            parts.append(_polyline(pts, "orbit"))
    if isinstance(problem.set_spec, SinglePoint):
        x = _fmt(frame.sx(problem.set_spec.point[0]))
        parts.append(
            f'<line class="setline" x1="{x}" y1="{MARGIN}" x2="{x}" y2="{SIZE - MARGIN}"/>'
        )
    elif isinstance(problem.set_spec, PointCloud):
        for p in problem.set_spec.points:
            x = _fmt(frame.sx(float(p[0])))
            parts.append(
                f'<line class="setline" x1="{x}" y1="{MARGIN}" x2="{x}" y2="{SIZE - MARGIN}"/>'
            )
    parts.extend(_frame_and_end(frame, "x1", "t"))
    return "\n".join(parts) + "\n"


def render_svg(
    problem: ProblemDefinition, report: dict, axes: tuple[int, int] | None = None
) -> str:
    """Render the phase plane (or the selected coordinate pair) as SVG."""
    n = problem.dimension
    if n == 1:
        return _render_1d(problem, report)
    if n > 2 and axes is None:
        raise ValueError(
            f"dimension {n} exceeds the drawable 2; pick coordinates with --axes=i,j"
        )
    ax_i, ax_j = (1, 2) if axes is None else axes
    if not (1 <= ax_i <= n and 1 <= ax_j <= n and ax_i != ax_j):
        raise ValueError("--axes needs two distinct 1-based coordinate indices")
    ax_i, ax_j = ax_i - 1, ax_j - 1

    xmin, xmax, ymin, ymax = _plot_bounds(problem, ax_i, ax_j)
    frame = _Frame(xmin, xmax, ymin, ymax)
    parts = [_PROLOGUE]
    if (ax_i, ax_j) == (0, 1):
        parts.extend(_roa_cells(problem, report, frame))
        parts.extend(_radius_rings(problem, report, frame))
    parts.extend(_set_marks(problem, frame, ax_i, ax_j))
    parts.extend(_orbits(problem, frame, ax_i, ax_j))
    parts.extend(_frame_and_end(frame, f"x{ax_i + 1}", f"x{ax_j + 1}"))
    return "\n".join(parts) + "\n"
