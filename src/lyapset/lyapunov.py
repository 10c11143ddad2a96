"""Converse construction of Lyapunov functions and certificate checking.

From sampled orbit distance curves, taken for all the points of a call
in one integrate_lanes pass, this module builds the two scalar functions
used to certify asymptotic stability: ell(x), the largest future
distance to the set, and big_L(x), the weighted integral of ell along
the orbit with weight alpha(t) = exp(-lambda*t). Both replace the
infinite horizon by a truncation whose error bound exp(-lambda*T)/lambda
times ell_max is reported, never hidden. ell along a whole curve is a
sliding maximum, taken for every row at once from running maxima, in
time linear in the curve; the quadrature weights are computed once per
ConverseConfig.

verify_certificate checks a user-supplied candidate function the same
way the constructed one is justified: zero on the set, positive on an
annulus around it, derivative along the field negative, and decreasing
along sampled orbits, flowing its samples in one pass too. One function,
generated once per field and candidate with both inlined, evaluates all
its samples in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    EscapedDomainError,
    EvalDomainError,
    NondifferentiableError,
)
# The compile functions stay importable here, where perfbench's tracer wraps them.
from .expr import (  # noqa: F401
    ScalarFieldSpec,
    VectorFieldSpec,
    _define,
    _emit_closure,
    _emit_results,
    compile_gradient,
    compile_scalar,
    compile_vector_field,
    differentiate,
    print_expr,
)
from .flow import IntegratorConfig, _block, check_sampling, flow_rows, sample_times
from .geometry import Box, CompactSet, _shell_points, as_point
from .limits import _distance_pass

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
    """Horizon, output step, weight decay and quadrature rule of big_L.
    Every quadrature runs over exactly `steps` intervals, so Simpson's
    even-interval rule is checked here, once."""

    horizon_T: float
    out_dt: float
    lam: float = 1.0  # decay rate of the weight alpha(t) = exp(-lam*t)
    quadrature: str = "trapezoid"

    def __post_init__(self):
        check_sampling(self.horizon_T, self.out_dt)
        if not self.lam > 0:
            raise ValueError("lam must be > 0")
        if self.quadrature not in _QUADRATURES:
            raise ValueError(f"quadrature must be one of {_QUADRATURES}")
        if self.quadrature == "simpson" and self.steps % 2:
            raise ValueError(f"simpson needs an even number of intervals, got {self.steps}")

    @property
    def steps(self) -> int:
        """Grid intervals covering the horizon; horizon snaps to the grid."""
        return max(1, int(round(self.horizon_T / self.out_dt)))

    @cached_property
    def weights(self) -> np.ndarray:
        """alpha(t) at the steps + 1 grid times of one quadrature, read-only."""
        weights = np.exp(-self.lam * self.out_dt * np.arange(self.steps + 1))
        weights.flags.writeable = False
        return weights


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
    odd = values[1:-1:2].sum()
    even = values[2:-1:2].sum()
    return float(h / 3.0 * (values[0] + 4.0 * odd + 2.0 * even + values[-1]))


def _windowed_sup(d: np.ndarray, window: int) -> np.ndarray:
    """out[..., k] = max(d[..., k : k+window+1]), in time linear in d's
    length (van Herk 1992; Gil & Werman 1993). Each window of size =
    window + 1 holds exactly one anchor a = window + j*size, and its
    maximum is the larger of max(d[k..a]), a running maximum of the block
    ending at a taken backwards, and max(d[a..k+window]), one of the block
    starting at a taken forwards. For converse_table's curves of length 2
    window + 1 there is one anchor, so these are two running maxima that
    meet at index window. A window that holds a NaN (a row that failed)
    gives NaN, as a maximum over it does. A maximum picks one of its
    inputs, and equal distances have equal bits (no set kind returns
    -0.0), so the result does not depend on the order the window is
    scanned in."""
    size = window + 1
    count = d.shape[-1] - window
    if count < 1:
        raise ValueError("window longer than the curve")
    blocks = -(-count // size)
    lead, span = d.shape[:-1], blocks * size
    # d[..., :span] backwards, block by block: the blocks end at the anchors
    backward = np.maximum.accumulate(d[..., span - 1 :: -1].reshape(*lead, blocks, size), axis=-1)
    forward = d[..., window:]
    if span > count:  # the last block's tail is never read
        forward = np.concatenate([forward, np.zeros((*lead, span - count))], axis=-1)
    forward = np.maximum.accumulate(forward.reshape(*lead, blocks, size), axis=-1)
    forward = forward.reshape(*lead, span)[..., :count]
    backward = backward.reshape(*lead, span)[..., ::-1][..., :count]
    return np.maximum(backward, forward, out=forward)


def _big_l_values(V, M, starts, cfg, cc: ConverseConfig, n_steps: int):
    """Per row of starts, from one distance pass, d(orbit(t_k), M) for t_k =
    k*out_dt, k = 0..n_steps (NaN past a failure) and its ell-hat (window
    cc.steps, valid on 0..n_steps - cc.steps); and by row the error of each
    failed row, the orbit's as trajectory() raises it, else the distance's."""
    out_dt = cc.out_dt
    times = sample_times(n_steps * out_dt, out_dt)
    if len(times) != n_steps + 1:
        raise RuntimeError("orbit sampling produced a ragged grid")
    d = np.full((len(starts), n_steps + 1), math.nan)

    def reduce(rows, j, dist):
        d[rows, j] = dist

    orbit, raised = _distance_pass(V, M, starts, times, cfg, reduce)
    errors = {**{row: exc for row, exc in enumerate(raised) if exc}, **orbit}
    return _windowed_sup(d, cc.steps), d, errors


def _ell_hat(V, M, x, cfg, cc: ConverseConfig, n_steps: int) -> np.ndarray:
    """ell-hat of the orbit of x, or the error that orbit met, raised."""
    ellhat, _, errors = _big_l_values(V, M, as_point(x, V.dim)[None, :], cfg, cc, n_steps)
    if errors:
        raise errors[0]
    return ellhat[0]


def ell(V: VectorFieldSpec, M: CompactSet, x, cfg: IntegratorConfig, cc: ConverseConfig) -> float:
    """Largest sampled future distance to the set; at least d(x, M)."""
    return float(_ell_hat(V, M, x, cfg, cc, cc.steps)[0])


def _big_l_at(ellhat: np.ndarray, k0: int, cc: ConverseConfig) -> float:
    """Weighted quadrature of ell-hat over [t_k0, t_k0 + horizon]."""
    window = ellhat[k0 : k0 + cc.steps + 1]
    return _quadrature(cc.weights * window, cc.out_dt, cc.quadrature)


def big_L(V: VectorFieldSpec, M: CompactSet, x, cfg: IntegratorConfig, cc: ConverseConfig) -> float:
    """Truncated integral of alpha(t) * ell(orbit(t)) on the output grid."""
    return _big_l_at(_ell_hat(V, M, x, cfg, cc, 2 * cc.steps), 0, cc)


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
            coords = ",".join(map(repr, r.x.tolist()))
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
    points = np.reshape([as_point(p, V.dim) for p in points], (-1, V.dim))
    ellhat, curves, errors = _big_l_values(V, M, points, cfg, cc, 2 * cc.steps)
    rows, worst_ell = [], 0.0
    for i, (p, d) in enumerate(zip(points, curves)):
        if i in errors:
            rows.append(ConverseRow(p, math.nan, math.nan, False, error=str(errors[i])))
            continue
        tail = d[int(0.9 * d.shape[0]) :]
        tail_ok = bool(tail.max() < d.max()) if d.max() > 0 else True
        worst_ell = max(worst_ell, float(d.max()))
        rows.append(ConverseRow(p, float(ellhat[i][0]), _big_l_at(ellhat[i], 0, cc), tail_ok))
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

    ellhats, _, errors = _big_l_values(V, M, samples, cfg, cc, 2 * cc.steps + max(probe_idx))
    probes = samples + [CONTINUITY_DELTA * u / np.linalg.norm(u) for u in directions]
    probe_ellhats, _, probe_errors = _big_l_values(V, M, probes, cfg, cc, 2 * cc.steps)

    monotone, strict, continuity, failures = [], [], [], []
    for s in range(n_samples):
        if s in errors:
            failures.append((s, str(errors[s])))
            continue
        ellhat = ellhats[s]
        l0 = _big_l_at(ellhat, 0, cc)
        off_set = M.distance(samples[s]) > 10.0 * tol
        for p, k in zip(PROBE_TIMES, probe_idx):
            if ellhat[k] > ellhat[0] + tol:
                monotone.append((s, float(p), float(ellhat[k] - ellhat[0])))
            if off_set and not _big_l_at(ellhat, k, cc) < l0:
                strict.append((s, float(p), float(_big_l_at(ellhat, k, cc) - l0)))

        if s in probe_errors:
            failures.append((s, f"continuity probe: {probe_errors[s]}"))
            continue
        jump = abs(_big_l_at(probe_ellhats[s], 0, cc) - l0)
        if jump > CONTINUITY_BOUND:
            continuity.append((s, float(jump)))
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


def _annulus_points(M: CompactSet, r_in: float, r_out: float, count: int, rng):
    """Points with d in (r_in, r_out], radii drawn uniformly per sample."""
    u = rng.uniform(size=count)
    return _shell_points(M, r_in + (1.0 - u) * (r_out - r_in), rng)  # 1 - u in (0, 1]


@lru_cache(maxsize=128)
def _certificate_check(V: VectorFieldSpec, L: ScalarFieldSpec):
    """Generate the margins of verify_certificate for V and L, and the note
    of a gradient fallback, or None.

    check(on_set, annulus, starts, moved) takes lists of rows of Python
    floats (on NumPy scalars a division by zero returns inf with a warning
    instead of raising) and returns (zero_max, positivity,
    gradient_margin, decrease_margin): the largest |L| on the set; over
    the annulus the smallest L and the largest grad L . V; and the largest
    L(q) - L(p) over the pairs (p, q) of starts and moved. L, each dL/dx_i
    and each V_i are inlined and evaluated in that order, so the first
    failure is the one that evaluating them point by point meets first.
    Where L is not differentiable, the gradient is central_gradient over
    L, generated as a function in check. The products are added by sum()
    over their list, which compensates from Python 3.12 on, and each
    margin is reduced with the builtin min or max, its running value
    first, which keeps the earlier of two equal values (0.0 and -0.0)."""
    n = V.dim
    xs, ys = [f"x{i}" for i in range(n)], [f"y{i}" for i in range(n)]
    row, moved_row = ", ".join(xs) + ",", ", ".join(ys) + ","
    code, note = [], None
    try:
        parts = [differentiate(L.body, i) for i in range(1, n + 1)]
    except NondifferentiableError as exc:
        parts, note = None, f"gradient fallback: {exc}"
        body, (value,) = _emit_closure([L.body])
        code += _block("def L(x)", [*body, f"return {value}"], "python")
    on_set: list[str] = []
    (value,) = _emit_results([L.body], xs, on_set)
    on_set.append(f"zero_max = max(zero_max, abs({value}))")
    annulus: list[str] = []
    (value,) = _emit_results([L.body], xs, annulus)
    annulus.append(f"positivity = min(positivity, {value})")
    if parts is None:
        annulus.append(f"g = central_gradient(L, [{', '.join(xs)}])")
        gradient = [f"g[{i}]" for i in range(n)]
    else:
        gradient = _emit_results(parts, xs, annulus)
    products = ", ".join(f"{g} * {v}" for g, v in
                         zip(gradient, _emit_results(V.components, xs, annulus)))
    annulus.append(f"gradient_margin = max(gradient_margin, sum([{products}]))")
    decrease: list[str] = []
    (after,) = _emit_results([L.body], ys, decrease)
    (before,) = _emit_results([L.body], xs, decrease)
    decrease.append(f"decrease_margin = max(decrease_margin, {after} - {before})")
    code += ["zero_max, positivity, gradient_margin, decrease_margin = 0.0, inf, -inf, -inf",
             *_block(f"for {row} in on_set", on_set, "python"),
             *_block(f"for {row} in annulus", annulus, "python"),
             *_block(f"for ({row}), ({moved_row}) in zip(starts, moved)", decrease, "python")]
    check = _define("_check", "on_set, annulus, starts, moved", code,
                    "zero_max, positivity, gradient_margin, decrease_margin",
                    f"certificate margins of {print_expr(L.body)!r} for {V.label()}",
                    scope={"central_gradient": central_gradient})
    return check, note


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
    """Evaluate a candidate function against the four certificate margins,
    in one call of the check that _certificate_check generates for V and
    the candidate. The first DECREASE_SAMPLES annulus points are flowed
    for decrease_time before it; the check evaluates the set members, the
    annulus and then the flowed rows, and a failed flow is raised only
    after the rows flowed before it, so the first failure decides the note
    as it does point by point. An evaluation failure or an escaping orbit
    rejects the candidate; an exhausted step budget, which says nothing
    about it, raises."""
    if not (r_in >= 0 and r_out > r_in):
        raise ValueError("annulus needs 0 <= r_in < r_out")
    if Lcand.dim != V.dim:
        raise ValueError("candidate and field dimensions differ")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not decrease_time > 0:
        raise ValueError("decrease_time must be > 0")
    check, note = _certificate_check(V, Lcand)
    notes = [note] if note else []

    rng = np.random.default_rng(seed)
    annulus = _annulus_points(M, r_in, r_out, n_samples, rng)
    on_set = M.sample_points(SET_SAMPLES, rng)
    moved, error = flow_rows(V, annulus[:DECREASE_SAMPLES], decrease_time, cfg)
    try:
        zero_max, positivity, gradient_margin, decrease_margin = check(
            on_set.tolist(), annulus.tolist(), annulus[: len(moved)].tolist(), moved.tolist())
        if error is not None:
            raise error
    except (EvalDomainError, EscapedDomainError) as exc:
        notes.append(f"evaluation failure: {exc}")
        # Every margin at its worst, so the candidate is rejected.
        positivity, zero_max, gradient_margin, decrease_margin = (
            -math.inf, math.inf, math.inf, math.inf)

    accepted = (positivity > 0 and zero_max <= zero_tol
                and gradient_margin < 0 and decrease_margin < 0)
    return CertificateReport(
        positivity_margin=float(positivity),
        zero_on_M_max=float(zero_max),
        gradient_margin=float(gradient_margin),
        trajectory_decrease_margin=float(decrease_margin),
        verdict=VERDICT_ACCEPTED if accepted else VERDICT_REJECTED,
        samples=n_samples,
        seed=seed,
        gradient_mode="central_differences" if note else "symbolic",
        notes=tuple(notes),
    )
