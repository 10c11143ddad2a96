"""Omega-limit set estimation and attraction classification.

An omega-limit estimate is built from a finite window of the orbit after
a transient, clustered to representatives; its quality is reported as the
Hausdorff defect between the representatives and their own image under a
short flow, since a true limit set is invariant. Attraction verdicts use
the tail of a sampled orbit: attracted means the entire final tenth of
the samples is within tolerance, a mere dip counts as weak attraction.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    EscapedDomainError,
    EvalDomainError,
    LyapsetError,
    OrbitUnboundedError,
    StepLimitError,
)
from .expr import VectorFieldSpec
from .flow import (
    IntegratorConfig,
    flow,
    flow_rows,
    integrate_lanes,
    partial_trajectory,
    sample_times,
    trajectory,
)
from .geometry import Box, CompactSet, PointCloud, _greedy_cluster, as_point, hausdorff

LABEL_ATTRACTED = "attracted"
LABEL_WEAK = "weakly_attracted"
LABEL_NOT = "not_attracted_within_horizon"
TAIL_FRACTION = 0.1


@dataclass(frozen=True, eq=False)
class OmegaEstimate:
    points: PointCloud
    transient_T: float
    window_T: float
    cluster_tol: float
    invariance_defect: float
    meta: str  # the window and settings the estimate came from


@dataclass(frozen=True, eq=False)
class AttractionVerdict:
    label: str
    final_distance: float
    min_distance: float
    horizon: float
    escaped: bool = False

    def __post_init__(self):
        if self.min_distance > self.final_distance + 1e-15:
            raise ValueError("min_distance cannot exceed final_distance")


def estimate_omega(
    V: VectorFieldSpec,
    x,
    cfg: IntegratorConfig,
    transient_T: float = 50.0,
    window_T: float = 20.0,
    out_dt: float = 0.01,
    cluster_tol: float = 1e-3,
) -> OmegaEstimate:
    """Cluster a post-transient orbit window into limit-set representatives."""
    if not (transient_T > 0 and window_T > 0 and cluster_tol > 0):
        raise ValueError("transient_T, window_T and cluster_tol must be > 0")
    x = as_point(x, V.dim)
    try:
        settled = flow(V, x, transient_T, cfg)
        window = trajectory(V, settled, window_T, out_dt, cfg)
    except (EscapedDomainError, EvalDomainError, StepLimitError) as exc:
        raise OrbitUnboundedError(
            f"orbit unbounded within horizon {transient_T + window_T}: {exc}"
        ) from exc

    reps = _greedy_cluster(window.states, cluster_tol)
    tau = out_dt
    moved, error = flow_rows(V, reps, tau, cfg)
    if error is not None:
        raise OrbitUnboundedError(f"representative escaped during probe: {error}") from error
    defect = hausdorff(moved, reps)

    meta = (
        f"omega window=[{transient_T},{transient_T + window_T}] "
        f"out_dt={out_dt} tau={tau} cluster_tol={cluster_tol}"
    )
    return OmegaEstimate(PointCloud(reps), transient_T, window_T, cluster_tol, defect, meta)


def classify_attraction(
    V: VectorFieldSpec,
    x,
    M: CompactSet,
    cfg: IntegratorConfig,
    horizon_T: float,
    tol: float,
    out_dt: float = 0.01,
) -> AttractionVerdict:
    """Verdict from one sampled orbit: tail within tol, a dip, or neither.
    A domain failure counts as an escape; an exhausted step budget raises."""
    if not horizon_T > 0:
        raise ValueError("horizon_T must be > 0")
    if not tol > 0:
        raise ValueError("tol must be > 0")
    traj, error = partial_trajectory(V, x, horizon_T, out_dt, cfg)
    d = M.distances(traj.states)
    if isinstance(error, StepLimitError):
        raise error
    escaped = error is not None

    tail_start = (1.0 - TAIL_FRACTION) * horizon_T
    tail = d[traj.times >= tail_start]
    full_tail = not escaped and tail.size > 0
    if full_tail and float(tail.max()) <= tol:
        label = LABEL_ATTRACTED
    elif float(d.min()) <= tol:
        label = LABEL_WEAK
    else:
        label = LABEL_NOT
    return AttractionVerdict(
        label=label,
        final_distance=float(d[-1]),
        min_distance=float(d.min()),
        horizon=horizon_T,
        escaped=escaped,
    )


@dataclass(frozen=True, eq=False)
class RoaGrid:
    """Attraction labels over a rectangular grid of initial conditions."""

    axes: tuple[np.ndarray, ...]
    shape: tuple[int, ...]
    nodes: np.ndarray  # (N, n), row-major over axes
    labels: tuple[str, ...]
    final_distances: np.ndarray
    min_distances: np.ndarray
    peak_distances: np.ndarray  # per sample time, the largest over the nodes
    escaped: tuple[bool, ...]
    errors: tuple[str | None, ...]
    horizon: float
    tol: float

    def counts(self) -> dict[str, int]:
        return dict(Counter(self.labels))

    def to_csv(self) -> str:
        n = self.nodes.shape[1]
        header = ",".join(f"x{i + 1}" for i in range(n)) + ",label,final_distance"
        lines = [header]
        for i in range(self.nodes.shape[0]):
            coords = ",".join(repr(float(c)) for c in self.nodes[i])
            lines.append(f"{coords},{self.labels[i]},{float(self.final_distances[i])!r}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "shape": list(self.shape),
            "counts": self.counts(),
            "horizon": self.horizon,
            "tol": self.tol,
            "errors": sum(1 for e in self.errors if e is not None),
        }


LABEL_ERROR = "error"


class _Stop(Exception):
    """Raised through integrate_lanes when a reduction has seen enough."""


def _distance_pass(V: VectorFieldSpec, M: CompactSet, starts, times, cfg, reduce):
    """Pass reduce(rows, j, d) the distances d to M of the starts, sample j
    = 0 of times, then of their samples as integrate_lanes visits them; a
    distance that raises is NaN, and its row keeps its first error. Returns
    integrate_lanes' orbit errors by row, and apart from them that distance
    error or None by row. If reduce returns True the pass ends with no
    orbit error."""
    if M.dim != V.dim:
        raise DimensionMismatchError(f"set dimension {M.dim} != field dimension {V.dim}")
    m = len(starts)
    raised: list[LyapsetError | None] = [None] * m

    def visit(rows, j, states):
        try:
            d = M.distances(states)
        except LyapsetError:
            d = np.empty(len(rows))
            for i, (row, p) in enumerate(zip(rows.tolist(), states)):
                try:
                    d[i] = M.distances(p[None, :])[0]
                except LyapsetError as exc:
                    d[i] = math.nan
                    raised[row] = raised[row] or exc
        if reduce(rows, j + 1, d):
            raise _Stop

    try:
        visit(np.arange(m), np.full(m, -1), starts)
        return integrate_lanes(V, starts, times[1:], cfg, visit), raised
    except _Stop:
        return {}, raised


def _sweep(V: VectorFieldSpec, M: CompactSet, starts: np.ndarray, times, cfg):
    """Reduce a _distance_pass: per start the minimum, the last value and
    the tail maximum, as classify_attraction reads them, and per sample the
    largest over all starts. Returns (failed, errors, lowest, latest,
    tail_max, peak); a start whose distance raised or whose orbit failed
    has failed, with the distance's error text, else a step limit's."""
    m = len(starts)
    in_tail = np.asarray(times) >= (1.0 - TAIL_FRACTION) * times[-1]
    lowest = np.full(m, math.inf)
    latest = np.empty(m)
    newest = np.full(m, -1)  # per start, the j of the sample latest holds
    tail_max = np.full(m, -math.inf)
    peak = np.full(len(times), -math.inf)

    def reduce(rows, j, d):
        # A row may repeat in one call, so every reduction over rows is a
        # ufunc.at. fmin and fmax skip the NaN distances of error rows.
        np.fmin.at(lowest, rows, d)
        np.maximum.at(newest, rows, j)
        last = j == newest[rows]
        latest[rows[last]] = d[last]
        tail = in_tail[j]
        np.fmax.at(tail_max, rows[tail], d[tail])
        np.fmax.at(peak, j, d)

    orbit, raised = _distance_pass(V, M, starts, times, cfg, reduce)
    failed = np.array([exc is not None or row in orbit for row, exc in enumerate(raised)], bool)
    errors = [str(exc or orbit[row]) if exc or isinstance(orbit.get(row), StepLimitError)
              else None for row, exc in enumerate(raised)]
    return failed, errors, lowest, latest, tail_max, peak


def roa_grid(
    V: VectorFieldSpec,
    M: CompactSet,
    box: Box,
    resolution,
    cfg: IntegratorConfig,
    horizon_T: float,
    tol: float,
    out_dt: float = 0.05,
) -> RoaGrid:
    """Classify every node of a rectangular grid as classify_attraction
    would, bit for bit; errors are recorded rows."""
    if not isinstance(box, Box):
        raise TypeError("roa_grid needs a Box region")
    if box.dim != V.dim:
        raise ValueError(f"box dimension {box.dim} != field dimension {V.dim}")
    n = box.dim
    if np.isscalar(resolution):
        res = [int(resolution)] * n
    else:
        res = [int(r) for r in resolution]
        if len(res) != n:
            raise ValueError("one resolution per axis required")
    if any(r < 2 for r in res):
        raise ValueError("resolution must be >= 2 per axis")
    if not tol > 0:
        raise ValueError("tol must be > 0")

    axes = tuple(np.linspace(box.lo[d], box.hi[d], res[d]) for d in range(n))
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    times = sample_times(horizon_T, out_dt)
    failed, errors, lowest, latest, tail_max, peak = _sweep(V, M, nodes, times, cfg)
    error = np.array([e is not None for e in errors])
    # An orbit that did not fail reached every sample, so its tail, which
    # holds the sample at horizon_T, is not empty.
    labels = np.where(
        error,
        LABEL_ERROR,
        np.where(
            ~failed & (tail_max <= tol),
            LABEL_ATTRACTED,
            np.where(lowest <= tol, LABEL_WEAK, LABEL_NOT),
        ),
    )
    return RoaGrid(
        axes=axes,
        shape=tuple(res),
        nodes=nodes,
        labels=tuple(labels.tolist()),
        final_distances=np.where(error, math.nan, latest),
        min_distances=np.where(error, math.nan, lowest),
        peak_distances=peak,
        escaped=tuple((failed & ~error).tolist()),
        errors=tuple(errors),
        horizon=horizon_T,
        tol=tol,
    )

