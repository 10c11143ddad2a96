"""Sampling-based stability certificates for compact sets.

estimate_delta searches, by bisection over delta in (0, epsilon], for a
ball whose sampled orbits all stay inside the epsilon-ball around the
set; each probe hands its orbits to one integrate_lanes pass, which
stops once an orbit that leaves decides, as if the orbits ran one by
one. Once some delta is certified and tol > 0, one probe at the top of
the bracket, tol/2 below its failed end, either ends the search or
becomes that end; the bisection stops when its bracket is within tol. It
may start from a delta already certified: the probe points depend on
delta and the seed only, so a delta certified for one epsilon holds for
every larger one. classify_stability walks its ascending epsilons that
way, with its own tol as the delta resolution. check_positive_invariance
runs set members through the same pass and reports the largest
excursion. uniform_attraction_time finds the first sampled time after
which a whole start collection stays within epsilon. classify_stability
aggregates these plus a neighborhood attraction grid into one verdict,
reading the uniform time off the one integrate_lanes pass that labels
the grid.

Everything here is evidence from finitely many seeded samples, not
proof; reports carry the seed and sample counts so runs replay exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StepLimitError
from .expr import VectorFieldSpec
from .flow import IntegratorConfig, sample_times
from .geometry import Box, CompactSet, PointCloud, _shell_points, sample_set_points
from .limits import LABEL_ATTRACTED, _distance_pass, _sweep, roa_grid

VERDICT_STABLE = "stable_evidence"
VERDICT_UNSTABLE = "unstable_witness"
VERDICT_INCONCLUSIVE = "inconclusive"

BISECTION_STEPS = 20


@dataclass(frozen=True, eq=False)
class EpsilonDeltaPair:
    epsilon: float
    delta: float | None
    witness: np.ndarray | None

    def __post_init__(self):
        if self.delta is not None and self.delta > self.epsilon:
            raise ValueError("delta cannot exceed epsilon")
        if self.delta is None and self.witness is None:
            raise ValueError("a failed epsilon must carry a witness")

    def to_json(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "delta": self.delta,
            "witness": None if self.witness is None else [float(v) for v in self.witness],
        }


@dataclass(frozen=True, eq=False)
class UniformTimeEstimate:
    value: float | None
    integration_failed: bool = False

    def to_json(self) -> dict:
        return {"value": self.value, "integration_failed": self.integration_failed}


@dataclass(frozen=True, eq=False)
class StabilityReport:
    pairs: tuple[EpsilonDeltaPair, ...]
    invariance_excursion: float
    uniform_T: float | None
    verdict: str
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "pairs": [p.to_json() for p in self.pairs],
            "invariance_excursion": self.invariance_excursion,
            "uniform_T": self.uniform_T,
            "verdict": self.verdict,
            "notes": list(self.notes),
        }


def _candidate_points(M: CompactSet, delta: float, shell_samples: int, seed: int) -> np.ndarray:
    """Shell points at distance delta plus interior points at radii
    delta*u, all drawn from one generator seeded with seed."""
    rng = np.random.default_rng(seed)
    inner = delta * rng.uniform(size=math.ceil(shell_samples / 4))
    radii = np.concatenate([np.full(shell_samples, delta), inner[inner > 0]])
    return _shell_points(M, radii, rng)


def _first_exit(V, M, points, epsilon: float, times, cfg):
    """The first point whose orbit leaves d < epsilon at a sample, or None,
    and per point its largest distance. A sample outside decides even if
    the orbit failed after it, and a distance that raises propagates; else
    an escape or a domain failure is an exit, and an exhausted step budget,
    which says nothing about the orbit, raises. The pass stops once an exit
    follows only orbits known to stay inside, as if they ran one by one."""
    worst = np.full(len(points), -math.inf)  # NaN where a distance raised
    done = np.zeros(len(points), bool)

    def reduce(rows, j, d):
        np.maximum.at(worst, rows, d)
        done[rows[j == len(times) - 1]] = True
        first = np.argmin(done & (worst < epsilon))  # the first row still open
        return not worst[first] < epsilon

    orbit, raised = _distance_pass(V, M, points, times, cfg, reduce, epsilon)
    for row, p in enumerate(points):
        if raised[row]:
            raise raised[row]
        error = orbit.get(row)
        if isinstance(error, StepLimitError) and worst[row] < epsilon:
            raise error
        if error is not None or not worst[row] < epsilon:
            return p, worst
    return None, worst


def estimate_delta(
    V: VectorFieldSpec,
    M: CompactSet,
    epsilon: float,
    cfg: IntegratorConfig,
    horizon_T: float = 20.0,
    shell_samples: int = 16,
    seed: int = 0,
    out_dt: float = 0.05,
    tol: float = 0.0,
    certified: float | None = None,
) -> tuple[float | None, np.ndarray | None]:
    """Largest bisection-certified delta, or (None, witness) if none holds.

    The search starts at lo = certified, a delta already certified for a
    smaller epsilon, and stops once some delta is certified and hi - lo
    <= tol; at most BISECTION_STEPS probes run either way. With tol > 0,
    the first probe after some delta is certified is hi - tol/2: if it
    holds the search ends, else it is the new hi and halving goes on.
    Until then the probes are halvings, so a witness does not depend on
    tol. With tol = 0 every probe halves, and with no certified start
    every probe runs."""
    if not epsilon > 0:
        raise ValueError("epsilon must be > 0")
    if shell_samples < 1:
        raise ValueError("shell_samples must be >= 1")
    if not tol >= 0:
        raise ValueError("tol must be >= 0")
    if certified is not None and not 0 < certified <= epsilon:
        raise ValueError("certified must lie in (0, epsilon]")
    times = sample_times(horizon_T, out_dt)  # rejects a bad horizon before any orbit

    # lo: largest certified so far, hi: smallest failed; top: the one probe
    # at hi - tol/2 still due once some delta is certified
    lo, hi = (0.0 if certified is None else certified), epsilon
    witness = None
    top = tol > 0
    for _ in range(BISECTION_STEPS):
        if certified is not None and hi - lo <= tol:
            break
        if top and certified is not None:
            mid, top = hi - 0.5 * tol, False
        else:
            mid = 0.5 * (lo + hi)
        if mid <= 0:
            break
        points = _candidate_points(M, mid, shell_samples, seed)
        w = _first_exit(V, M, points, epsilon, times, cfg)[0]
        if w is None:
            certified, lo = mid, mid
        else:
            witness, hi = w, mid
    return certified, (None if certified is not None else witness)


def check_positive_invariance(
    V: VectorFieldSpec,
    M: CompactSet,
    cfg: IntegratorConfig,
    boundary_samples: int = 16,
    horizon_T: float = 20.0,
    seed: int = 0,
    out_dt: float = 0.05,
) -> float:
    """Max distance excursion of flowed set members; inf flags an escape.
    The first member that fails decides, as a delta probe with epsilon =
    inf does, and an exhausted step budget raises."""
    if not horizon_T > 0:
        raise ValueError("horizon_T must be > 0")
    starts = sample_set_points(M, boundary_samples, seed).points
    escape, worst = _first_exit(V, M, starts, math.inf, sample_times(horizon_T, out_dt), cfg)
    return math.inf if escape is not None else float(worst.max())


def _uniform_estimate(failed, final, peak, times, epsilon: float) -> UniformTimeEstimate:
    """uniform_attraction_time from a sweep. The first start, in order, that
    failed or is still outside at T_max decides, as if the orbits ran one
    by one; else T follows the last sample whose peak is >= epsilon, the
    last at which some start is outside."""
    for fail, d in zip(failed, final.tolist()):
        if fail:
            return UniformTimeEstimate(None, integration_failed=True)
        if d >= epsilon:
            return UniformTimeEstimate(None)
    outside = np.flatnonzero(peak >= epsilon)
    return UniformTimeEstimate(float(times[outside[-1] + 1]) if outside.size else 0.0)


def uniform_attraction_time(
    V: VectorFieldSpec,
    K: PointCloud,
    M: CompactSet,
    epsilon: float,
    cfg: IntegratorConfig,
    T_max: float,
    out_dt: float = 0.05,
) -> UniformTimeEstimate:
    """Smallest sampled T with d(orbit of every k, M) < epsilon on [T, T_max].
    A start whose distance to M raises counts as an integration failure."""
    if not epsilon > 0:
        raise ValueError("epsilon must be > 0")
    times = sample_times(T_max, out_dt)
    failed, _, _, latest, _, peak = _sweep(V, M, K.points, times, cfg)
    return _uniform_estimate(failed.tolist(), latest, peak, times, epsilon)


def classify_stability(
    V: VectorFieldSpec,
    M: CompactSet,
    cfg: IntegratorConfig,
    epsilons,
    roa_box: Box,
    resolution: int = 9,
    horizon_T: float = 20.0,
    shell_samples: int = 12,
    seed: int = 0,
    tol: float = 1e-3,
    out_dt: float = 0.05,
) -> StabilityReport:
    """Verdict from delta searches, an invariance check, and a local grid.
    tol is the grid's label tolerance and the delta resolution; each
    epsilon, in ascending order, starts from the delta of the one before."""
    epsilons = [float(e) for e in epsilons]
    if not epsilons:
        raise ValueError("epsilons must be nonempty")

    pairs = []
    delta = None  # certified for the previous, smaller epsilon
    for eps in sorted(epsilons):
        delta, witness = estimate_delta(
            V, M, eps, cfg,
            horizon_T=horizon_T, shell_samples=shell_samples, seed=seed, out_dt=out_dt,
            tol=tol, certified=delta,
        )
        pairs.append(EpsilonDeltaPair(eps, delta, witness))

    excursion = check_positive_invariance(
        V, M, cfg, boundary_samples=shell_samples, horizon_T=horizon_T,
        seed=seed, out_dt=out_dt,
    )

    grid = roa_grid(V, M, roa_box, resolution, cfg, horizon_T, tol, out_dt=out_dt)
    grid_attracted = all(lab == LABEL_ATTRACTED for lab in grid.labels)

    notes = [f"roa grid {grid.shape}: {grid.counts()}"]
    all_certified = all(p.delta is not None for p in pairs)
    if not all_certified:
        verdict = VERDICT_UNSTABLE
        uniform = None
    elif grid_attracted:
        verdict = VERDICT_STABLE
        failed = [esc or err is not None for esc, err in zip(grid.escaped, grid.errors)]
        uniform = _uniform_estimate(
            failed, grid.final_distances, grid.peak_distances,
            sample_times(horizon_T, out_dt), min(epsilons),
        ).value
    else:
        verdict = VERDICT_INCONCLUSIVE
        uniform = None
        notes.append("stable, not attracting within horizon")
    return StabilityReport(
        pairs=tuple(pairs),
        invariance_excursion=excursion,
        uniform_T=uniform,
        verdict=verdict,
        notes=tuple(notes),
    )
