"""Converse construction of Lyapunov functions and certificate checking.

From one sampled orbit distance curve this module builds the two scalar
functions used to certify asymptotic stability: ell(x), the largest
future distance to the set, and big_L(x), the weighted integral of ell
along the orbit with weight alpha(t) = exp(-lambda*t). Both replace the
infinite horizon by a truncation whose error bound exp(-lambda*T)/lambda
times ell_max is reported, never hidden.

verify_certificate checks a user-supplied candidate function the same
way the constructed one is justified: zero on the set, positive on an
annulus around it, derivative along the field negative, and decreasing
along sampled orbits.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import (
    EscapedDomainError,
    EvalDomainError,
    LyapsetError,
    NondifferentiableError,
)
from .expr import (
    ScalarFieldSpec,
    VectorFieldSpec,
    compile_gradient,
    compile_scalar,
    compile_vector_field,
)
from .flow import IntegratorConfig, flow, trajectory
from .geometry import Box, CompactSet, _shell_points, as_point, sample_set_points

_QUADRATURES = ("trapezoid", "simpson")

# verify_converse_properties: the times along each orbit at which ell and
# big_L are compared with their start values, and the size of the random
# perturbation and the largest jump of big_L of the continuity probe.
PROBE_TIMES = (0.1, 0.5, 1.0, 2.0)
CONTINUITY_DELTA = 1e-4
CONTINUITY_BOUND = 1e-2
# Relative step of central_gradient.
GRADIENT_REL_STEP = 1e-6
# verify_certificate: annulus starts flowed for the decrease margin, and
# set members checked for the zero margin.
DECREASE_SAMPLES = 32
SET_SAMPLES = 64

VERDICT_ACCEPTED = "accepted"
VERDICT_REJECTED = "rejected"


@dataclass(frozen=True)
class ConverseConfig:
    horizon_T: float
    out_dt: float
    lam: float = 1.0  # decay rate of the weight alpha(t) = exp(-lam*t)
    quadrature: str = "trapezoid"

    def __post_init__(self):
        if not (self.horizon_T > 0 and self.out_dt > 0 and self.lam > 0):
            raise ValueError("horizon_T, out_dt, and lam must all be > 0")
        if self.quadrature not in _QUADRATURES:
            raise ValueError(f"quadrature must be one of {_QUADRATURES}")
        if self.out_dt > self.horizon_T:
            raise ValueError("out_dt cannot exceed horizon_T")

    @property
    def steps(self) -> int:
        """Grid intervals covering the horizon; horizon snaps to the grid."""
        return max(1, int(round(self.horizon_T / self.out_dt)))


def truncation_bound(ell_max: float, cc: ConverseConfig) -> float:
    """Tail of the weighted integral beyond the horizon, assuming the
    future distance never exceeds the observed maximum."""
    return ell_max * math.exp(-cc.lam * cc.steps * cc.out_dt) / cc.lam


def _quadrature(values: np.ndarray, h: float, rule: str) -> float:
    m = values.shape[0] - 1
    if m < 1:
        raise ValueError("quadrature needs at least one interval")
    if rule == "trapezoid":
        return float(h * (values.sum() - 0.5 * (values[0] + values[-1])))
    if m % 2 != 0:
        raise ValueError("simpson requires an even number of sample intervals")
    odd = values[1:-1:2].sum()
    even = values[2:-1:2].sum()
    return float(h / 3.0 * (values[0] + 4.0 * odd + 2.0 * even + values[-1]))


def _distance_curve(V, M, x, n_steps: int, out_dt: float, cfg) -> np.ndarray:
    """d(orbit(t_k), M) for t_k = k*out_dt, k = 0..n_steps."""
    traj = trajectory(V, x, n_steps * out_dt, out_dt, cfg)
    if len(traj) != n_steps + 1:
        raise RuntimeError("orbit sampling produced a ragged grid")
    return M.distances(traj.states)


def _windowed_sup(d: np.ndarray, window: int) -> np.ndarray:
    """out[k] = max(d[k : k+window+1]), sliding-maximum in linear time."""
    n = d.shape[0] - window
    out = np.empty(n)
    dq: deque[int] = deque()
    for j in range(d.shape[0]):
        while dq and d[dq[-1]] <= d[j]:
            dq.pop()
        dq.append(j)
        k = j - window
        if k >= 0:
            if dq[0] < k:
                dq.popleft()
            if k < n:
                out[k] = d[dq[0]]
    return out


def ell(V: VectorFieldSpec, M: CompactSet, x, cfg: IntegratorConfig, cc: ConverseConfig) -> float:
    """Largest sampled future distance to the set; at least d(x, M)."""
    d = _distance_curve(V, M, x, cc.steps, cc.out_dt, cfg)
    return float(d.max())


def _big_l_values(V, M, x, cfg, cc: ConverseConfig, extra_steps: int = 0):
    """ell-hat on the grid (window cc.steps) and the raw distance curve.

    The curve spans 2*steps + extra_steps intervals, so ell-hat is valid
    on grid indices 0..steps+extra_steps.
    """
    m = cc.steps
    d = _distance_curve(V, M, x, 2 * m + extra_steps, cc.out_dt, cfg)
    return _windowed_sup(d, m), d


def _big_l_at(ellhat: np.ndarray, k0: int, cc: ConverseConfig) -> float:
    """Weighted quadrature of ell-hat over [t_k0, t_k0 + horizon]."""
    m = cc.steps
    window = ellhat[k0 : k0 + m + 1]
    weights = np.exp(-cc.lam * cc.out_dt * np.arange(m + 1))
    return _quadrature(weights * window, cc.out_dt, cc.quadrature)


def big_L(V: VectorFieldSpec, M: CompactSet, x, cfg: IntegratorConfig, cc: ConverseConfig) -> float:
    """Truncated integral of alpha(t) * ell(orbit(t)) on the output grid."""
    ellhat, _ = _big_l_values(V, M, x, cfg, cc)
    return _big_l_at(ellhat, 0, cc)


@dataclass(frozen=True, eq=False)
class ConverseRow:
    x: np.ndarray
    ell: float
    big_l: float
    tail_ok: bool  # final 10% of the distance curve stayed below the sup
    error: str | None = None


@dataclass(frozen=True, eq=False)
class ConverseTable:
    rows: tuple[ConverseRow, ...]
    truncation_bound: float
    config: ConverseConfig

    def to_csv(self) -> str:
        n = self.rows[0].x.shape[0] if self.rows else 0
        header = ",".join(f"x{i + 1}" for i in range(n)) + ",ell,big_l,tail_ok,error"
        lines = [header]
        for r in self.rows:
            coords = ",".join(repr(float(c)) for c in r.x)
            err = "" if r.error is None else r.error.replace(",", ";")
            lines.append(f"{coords},{r.ell!r},{r.big_l!r},{int(r.tail_ok)},{err}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "rows": [
                {
                    "x": [float(c) for c in r.x],
                    "ell": r.ell,
                    "big_l": r.big_l,
                    "tail_ok": r.tail_ok,
                    "error": r.error,
                }
                for r in self.rows
            ],
            "truncation_bound": self.truncation_bound,
            "lambda": self.config.lam,
            "horizon_T": self.config.horizon_T,
            "out_dt": self.config.out_dt,
            "quadrature": self.config.quadrature,
        }


def converse_table(V, M, points, cfg, cc: ConverseConfig) -> ConverseTable:
    """ell and big_L tabulated at given points, with per-row tail checks."""
    rows = []
    worst_ell = 0.0
    for p in points:
        p = as_point(p, V.dim)
        try:
            ellhat, d = _big_l_values(V, M, p, cfg, cc)
            value = _big_l_at(ellhat, 0, cc)
            tail = d[int(0.9 * d.shape[0]) :]
            tail_ok = bool(tail.max() < d.max()) if d.max() > 0 else True
            worst_ell = max(worst_ell, float(d.max()))
            rows.append(ConverseRow(p, float(d[: cc.steps + 1].max()), value, tail_ok))
        except LyapsetError as exc:
            rows.append(ConverseRow(p, math.nan, math.nan, False, error=str(exc)))
    return ConverseTable(tuple(rows), truncation_bound(worst_ell, cc), cc)


@dataclass(frozen=True, eq=False)
class ConversePropertyReport:
    n_samples: int
    probe_times: tuple[float, ...]
    monotone_violations: tuple[tuple[int, float, float], ...]  # (sample, t, excess)
    strict_violations: tuple[tuple[int, float, float], ...]
    continuity_violations: tuple[tuple[int, float], ...]  # (sample, |delta L|)
    integration_failures: tuple[tuple[int, str], ...]
    tol: float
    continuity_delta: float
    continuity_bound: float
    seed: int

    @property
    def total_violations(self) -> int:
        return (
            len(self.monotone_violations)
            + len(self.strict_violations)
            + len(self.continuity_violations)
        )

    def to_json(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "probe_times": list(self.probe_times),
            "monotone_violations": [list(v) for v in self.monotone_violations],
            "strict_violations": [list(v) for v in self.strict_violations],
            "continuity_violations": [list(v) for v in self.continuity_violations],
            "integration_failures": [list(v) for v in self.integration_failures],
            "tol": self.tol,
            "continuity_delta": self.continuity_delta,
            "continuity_bound": self.continuity_bound,
            "seed": self.seed,
        }


def verify_converse_properties(
    V: VectorFieldSpec,
    M: CompactSet,
    sample_box: Box,
    n_samples: int,
    seed: int,
    cfg: IntegratorConfig,
    cc: ConverseConfig,
    tol: float = 1e-3,
) -> ConversePropertyReport:
    """Check the defining properties of the constructed ell and big_L on
    random samples: ell non-increasing along orbits, big_L strictly
    decreasing off the set, and big_L continuous at a small probe scale."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    samples = rng.uniform(sample_box.lo, sample_box.hi, size=(n_samples, sample_box.dim))
    directions = rng.standard_normal((n_samples, sample_box.dim))

    probe_idx = [int(round(p / cc.out_dt)) for p in PROBE_TIMES]
    if any(i < 1 for i in probe_idx):
        raise ValueError("probe times must be at least one output step")
    extra = max(probe_idx)

    monotone = []
    strict = []
    continuity = []
    failures = []
    for s in range(n_samples):
        x = samples[s]
        try:
            ellhat, _ = _big_l_values(V, M, x, cfg, cc, extra_steps=extra)
        except LyapsetError as exc:
            failures.append((s, str(exc)))
            continue
        l0 = _big_l_at(ellhat, 0, cc)
        off_set = M.distance(x) > 10.0 * tol
        for p, k in zip(PROBE_TIMES, probe_idx):
            if ellhat[k] > ellhat[0] + tol:
                monotone.append((s, float(p), float(ellhat[k] - ellhat[0])))
            if off_set and not _big_l_at(ellhat, k, cc) < l0:
                strict.append((s, float(p), float(_big_l_at(ellhat, k, cc) - l0)))

        u = directions[s]
        y = x + CONTINUITY_DELTA * u / np.linalg.norm(u)
        try:
            ellhat_y, _ = _big_l_values(V, M, y, cfg, cc)
            jump = abs(_big_l_at(ellhat_y, 0, cc) - l0)
            if jump > CONTINUITY_BOUND:
                continuity.append((s, float(jump)))
        except LyapsetError as exc:
            failures.append((s, f"continuity probe: {exc}"))
    return ConversePropertyReport(
        n_samples=n_samples,
        probe_times=PROBE_TIMES,
        monotone_violations=tuple(monotone),
        strict_violations=tuple(strict),
        continuity_violations=tuple(continuity),
        integration_failures=tuple(failures),
        tol=tol,
        continuity_delta=CONTINUITY_DELTA,
        continuity_bound=CONTINUITY_BOUND,
        seed=seed,
    )


@dataclass(frozen=True, eq=False)
class CertificateReport:
    positivity_margin: float
    zero_on_M_max: float
    gradient_margin: float
    trajectory_decrease_margin: float
    verdict: str
    samples: int
    seed: int
    gradient_mode: str = "symbolic"
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "positivity_margin": self.positivity_margin,
            "zero_on_M_max": self.zero_on_M_max,
            "gradient_margin": self.gradient_margin,
            "trajectory_decrease_margin": self.trajectory_decrease_margin,
            "verdict": self.verdict,
            "samples": self.samples,
            "seed": self.seed,
            "gradient_mode": self.gradient_mode,
            "notes": list(self.notes),
        }


def central_gradient(fn, x) -> list[float]:
    """Central finite differences with per-coordinate step
    GRADIENT_REL_STEP * max(1, |xi|)."""
    x = [float(v) for v in x]
    out = []
    for i in range(len(x)):
        h = GRADIENT_REL_STEP * max(1.0, abs(x[i]))
        xp = list(x)
        xm = list(x)
        xp[i] += h
        xm[i] -= h
        out.append((fn(xp) - fn(xm)) / (2.0 * h))
    return out


def _annulus_points(M: CompactSet, r_in: float, r_out: float, count: int, seed: int):
    """Points with d in (r_in, r_out], radii drawn uniformly per sample."""
    u = np.random.default_rng([seed, 23]).uniform(size=count)
    radii = r_in + (1.0 - u) * (r_out - r_in)  # 1 - u in (0, 1]
    seeds = [(seed * 2_654_435_761 + 97 * j + 31) % (2**31) for j in range(count)]
    return _shell_points(M, radii, [np.random.default_rng(s) for s in seeds])


def verify_certificate(
    V: VectorFieldSpec,
    M: CompactSet,
    Lcand: ScalarFieldSpec,
    r_in: float,
    r_out: float,
    n_samples: int,
    seed: int,
    cfg: IntegratorConfig,
    zero_tol: float = 1e-9,
    decrease_time: float = 1.0,
) -> CertificateReport:
    """Evaluate a candidate function against the four certificate margins.
    An evaluation failure or an escaping orbit rejects the candidate; an
    exhausted step budget, which says nothing about it, raises."""
    if not (r_in >= 0 and r_out > r_in):
        raise ValueError("annulus needs 0 <= r_in < r_out")
    if Lcand.dim != V.dim:
        raise ValueError("candidate and field dimensions differ")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    notes: list[str] = []

    lfn = compile_scalar(Lcand.body)
    vfn = compile_vector_field(V)
    try:
        gfn = compile_gradient(Lcand)
        gradient_mode = "symbolic"
    except NondifferentiableError as exc:
        gfn = lambda pt: central_gradient(lfn, pt)  # noqa: E731
        gradient_mode = "central_differences"
        notes.append(f"gradient fallback: {exc}")

    annulus = _annulus_points(M, r_in, r_out, n_samples, seed)
    on_set = sample_set_points(M, SET_SAMPLES, (seed * 31 + 7) % (2**31)).points

    positivity = math.inf
    gradient_margin = -math.inf
    zero_max = 0.0
    decrease_margin = -math.inf
    # Closures get Python floats: on NumPy scalars a division by zero
    # returns inf with a warning instead of raising.
    try:
        for p in on_set:
            zero_max = max(zero_max, abs(lfn(p.tolist())))
        for p in annulus:
            pt = p.tolist()
            positivity = min(positivity, lfn(pt))
            g = gfn(pt)
            v = vfn(pt)
            gradient_margin = max(gradient_margin, sum(a * b for a, b in zip(g, v)))
        for p in annulus[: min(DECREASE_SAMPLES, n_samples)]:
            moved = flow(V, p, decrease_time, cfg)
            decrease_margin = max(
                decrease_margin, lfn(moved.tolist()) - lfn(p.tolist())
            )
    except (EvalDomainError, EscapedDomainError) as exc:
        notes.append(f"evaluation failure: {exc}")
        return CertificateReport(
            positivity_margin=-math.inf,
            zero_on_M_max=math.inf,
            gradient_margin=math.inf,
            trajectory_decrease_margin=math.inf,
            verdict=VERDICT_REJECTED,
            samples=n_samples,
            seed=seed,
            gradient_mode=gradient_mode,
            notes=tuple(notes),
        )

    accepted = (
        positivity > 0
        and zero_max <= zero_tol
        and gradient_margin < 0
        and decrease_margin < 0
    )
    return CertificateReport(
        positivity_margin=float(positivity),
        zero_on_M_max=float(zero_max),
        gradient_margin=float(gradient_margin),
        trajectory_decrease_margin=float(decrease_margin),
        verdict=VERDICT_ACCEPTED if accepted else VERDICT_REJECTED,
        samples=n_samples,
        seed=seed,
        gradient_mode=gradient_mode,
        notes=tuple(notes),
    )
