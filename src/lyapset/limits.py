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
    integrate_lanes,
    partial_trajectory,
    sample_times,
    trajectory,
)
from .geometry import Box, CompactSet, FiniteSetApprox, as_point, hausdorff

LABEL_ATTRACTED = "attracted"
LABEL_WEAK = "weakly_attracted"
LABEL_NOT = "not_attracted_within_horizon"
TAIL_FRACTION = 0.1


@dataclass(frozen=True, eq=False)
class OmegaEstimate:
    points: FiniteSetApprox
    transient_T: float
    window_T: float
    cluster_tol: float
    invariance_defect: float


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


def _greedy_cluster(samples: np.ndarray, tol: float) -> np.ndarray:
    """First-come representatives; later points within tol merge silently."""
    reps = np.empty_like(samples)
    count = 0
    tol2 = tol * tol
    for p in samples:
        if count:
            diff = reps[:count] - p
            if np.min((diff * diff).sum(axis=1)) <= tol2:
                continue
        reps[count] = p
        count += 1
    return reps[:count].copy()


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
    if not (transient_T > 0 and window_T > 0):
        raise ValueError("transient_T and window_T must be > 0")
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
    moved = np.empty_like(reps)

    def visit(rows, j, states):
        moved[rows] = states

    failed, _ = integrate_lanes(V, reps, [tau], cfg, visit)
    if failed.any():  # flow() raises there what the row met, bit for bit
        try:
            flow(V, reps[failed.argmax()], tau, cfg)
        except (EscapedDomainError, EvalDomainError, StepLimitError) as exc:
            raise OrbitUnboundedError(f"representative escaped during probe: {exc}") from exc
    defect = hausdorff(moved, reps)

    points = FiniteSetApprox(
        reps,
        meta=(
            f"omega window=[{transient_T},{transient_T + window_T}] "
            f"out_dt={out_dt} tau={tau} cluster_tol={cluster_tol}"
        ),
    )
    return OmegaEstimate(points, transient_T, window_T, cluster_tol, defect)


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
        out: dict[str, int] = {}
        for lab in self.labels:
            out[lab] = out.get(lab, 0) + 1
        return out

    def to_csv(self) -> str:
        n = self.nodes.shape[1]
        header = ",".join(f"x{i + 1}" for i in range(n)) + ",label,final_distance"
        lines = [header]
        for i in range(self.nodes.shape[0]):
            coords = ",".join(repr(float(c)) for c in self.nodes[i])
            lines.append(f"{coords},{self.labels[i]},{self.final_distances[i]!r}")
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


def _sweep(V: VectorFieldSpec, M: CompactSet, starts: np.ndarray, times, cfg):
    """Run the starts through integrate_lanes and reduce their distances to
    M at each sample: per start the minimum, the last value and the tail
    maximum, as classify_attraction reads them, and per sample the largest
    over all starts. Returns (failed, errors, lowest, latest, tail_max,
    peak); a start whose distance raised or whose orbit hit a step limit
    has failed and has an error text, the first of the two."""
    if M.dim != V.dim:
        raise DimensionMismatchError(f"set dimension {M.dim} != field dimension {V.dim}")
    m = len(starts)
    in_tail = np.asarray(times) >= (1.0 - TAIL_FRACTION) * times[-1]
    errors: list[str | None] = [None] * m

    def distances(rows, points):
        """M.distances, retried row by row when the batch raises, so that
        only the rows that raise become error rows."""
        try:
            return M.distances(points)
        except LyapsetError:
            pass
        d = np.empty(len(rows))
        for i, (row, p) in enumerate(zip(rows.tolist(), points)):
            try:
                d[i] = M.distances(p[None, :])[0]
            except LyapsetError as exc:
                d[i] = math.nan
                errors[row] = errors[row] or str(exc)
        return d

    lowest = np.full(m, math.inf)
    latest = np.empty(m)
    newest = np.full(m, -1)  # per start, the j of the sample latest holds
    tail_max = np.full(m, -math.inf)
    peak = np.full(len(times), -math.inf)

    def visit(rows, j, states):
        # A row may repeat in one call, with increasing j, so every
        # reduction over rows is a ufunc.at. fmin and fmax skip the NaN
        # distances of error rows, whose reductions are never read.
        d = distances(rows, states)
        np.fmin.at(lowest, rows, d)
        np.maximum.at(newest, rows, j)
        last = j == newest[rows]
        latest[rows[last]] = d[last]
        tail = in_tail[j + 1]
        np.fmax.at(tail_max, rows[tail], d[tail])
        np.fmax.at(peak, j + 1, d)

    visit(np.arange(m), np.full(m, -1), starts)  # the starts are sample 0
    failed, limited = integrate_lanes(V, starts, times[1:], cfg, visit)
    for row, text in limited.items():
        errors[row] = errors[row] or text
    failed |= np.array([e is not None for e in errors])
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

