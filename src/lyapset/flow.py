"""Numerical realization of the flow of an autonomous ODE system.

flow() advances one initial point to one time. trajectory() and
partial_trajectory() sample a forward orbit on a fixed grid through one
private sampler; the first raises on an integration failure, the second
returns the samples reached with the failure. semigroup_defect() measures
how far the integrator is from the composition law flow(flow(x,t1),t2) =
flow(x,t1+t2). Negative times integrate the reversed field, so the
realized flow is two-sided.

The integrator core runs on plain floats; at desk scale this beats array
round-trips per stage by an order of magnitude. For each field and method
one generated function runs a whole orbit, with state and slopes in
locals and the field, the step control, the blow-up test and the step
budget inlined. The tests keep a step-by-step loop that calls the field
closure once per stage as its reference; the two agree bitwise, attempt
counts and errors included. Output samples are forced step endpoints,
never interpolants, so a recorded state is exactly the integrator state.

integrate_lanes() runs many starts at once, for analyses that start an
orbit per grid node or sample. Each start is a lane, a column of NumPy
arrays, with its own time, step size and next output time; acceptance
is masked per lane, and a lane leaves the batch when it finishes or
fails. A lane performs the IEEE operations of the scalar loop in the
same order, so its samples are bitwise those of the scalar loop. That
rests on NumPy functions that round as libm does: float_power for pow
and for the step factor (np.power differs), sin, cos and sqrt, while exp
and tanh are evaluated element by element with math. Where the scalar code
raises, a lane is marked failed instead, so one bad start never aborts
the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionMismatchError,
    EscapedDomainError,
    EvalDomainError,
    StepLimitError,
)
# compile_vector_field stays importable here, where perfbench's tracer wraps it.
from .expr import VectorFieldSpec, _define, _emit_results, compile_vector_field  # noqa: F401
from .geometry import as_point

_METHODS = ("rk4_fixed", "rk45_adaptive")

# Dormand-Prince 4(5) tableau; _E is the difference between the 5th and
# 4th order weights and drives the local error estimate.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)

# Rows (stage j, coefficient) of the sums y + h * (sum of coefficient * k_j)
# that give the states of stages 2..6 and then y5, and of the error sum,
# in the order the generated attempts evaluate them.
_STATE_ROWS = (
    ((1, _A21),),
    ((1, _A31), (2, _A32)),
    ((1, _A41), (2, _A42), (3, _A43)),
    ((1, _A51), (2, _A52), (3, _A53), (4, _A54)),
    ((1, _A61), (2, _A62), (3, _A63), (4, _A64), (5, _A65)),
    ((1, _B1), (3, _B3), (4, _B4), (5, _B5), (6, _B6)),
)
_ERROR_ROW = ((1, _E1), (3, _E3), (4, _E4), (5, _E5), (6, _E6), (7, _E7))

_MIN_STEP = 1e-12


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk45_adaptive"
    dt: float = 0.01  # fixed step, or initial step for the adaptive method
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    blowup_radius: float = 1e6
    max_steps: int = 10_000_000

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if not self.dt > 0:
            raise ValueError("dt must be > 0")
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be > 0")
        if not self.blowup_radius > 0:
            raise ValueError("blowup_radius must be > 0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Forward orbit samples: times[0] = 0 and states[0] is the start exactly."""

    times: np.ndarray  # (k,), strictly increasing, starts at 0
    states: np.ndarray  # (k, n)

    def __post_init__(self):
        if self.times.ndim != 1 or self.states.ndim != 2:
            raise ValueError("times must be (k,), states (k, n)")
        if self.times.shape[0] != self.states.shape[0]:
            raise ValueError("times and states must have equal length")
        if self.times[0] != 0.0:
            raise ValueError("trajectories start at t=0")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("trajectory states must be finite")

    def __len__(self):
        return self.times.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]


def _emit_dp_attempt(V: VectorFieldSpec, code: list[str]):
    """Append a Dormand-Prince attempt of step h from the state y0, y1, ...
    with slope k1_0, k1_1, ...: the six new stages with the field inlined,
    then the scaled errors. Returns the names of y5 and of its slope k7 and
    the text of the squared error sum, in coordinate order."""
    idx = range(V.dim)
    k = {1: [f"k1_{i}" for i in idx]}

    def combination(row, i):
        return " + ".join(f"{c!r} * {k[j][i]}" for j, c in row)

    for stage, row in enumerate(_STATE_ROWS, start=2):
        xs = [f"s{stage}_{i}" for i in idx]
        code += [f"{xs[i]} = y{i} + h * ({combination(row, i)})" for i in idx]
        k[stage] = _emit_results(V.components, xs, code)
    # The last state is y5 and its slope is k7.
    for i in idx:
        code += [
            f"a = abs(y{i})",
            f"b = abs({xs[i]})",
            # max(a, b) is b exactly when b > a
            f"r{i} = h * ({combination(_ERROR_ROW, i)}) / (atol + rtol * (b if b > a else a))",
        ]
    return xs, k[7], " + ".join(f"r{i} * r{i}" for i in idx)


@lru_cache(maxsize=128)
def _compiled(V: VectorFieldSpec, method: str):
    """Generate orbit(y, targets, cfg, out) -> the number of step attempts.

    It integrates from y through each target time in order, forcing a step
    endpoint onto every target, and appends the state there to out, so the
    samples reached before a failure stay with the caller. The field, the
    step control, the blow-up test (at t = 0 too) and the step budget are
    inlined. Each builtin min or max is written as the comparison that
    picks the same operand, so samples, attempt counts and errors are
    bitwise those of the step-by-step reference loop in the tests.
    """
    n = V.dim
    ys = [f"y{i}" for i in range(n)]
    k1 = [f"k1_{i}" for i in range(n)]
    state = ", ".join(ys)
    norm2 = " + ".join(f"{v} * {v}" for v in ys)
    blowup = f"if {norm2} > radius2: raise EscapedDomainError(t, [{state}])"
    code = [
        f"{state}, = y",
        "t = 0.0",
        "radius2 = cfg.blowup_radius * cfg.blowup_radius",
        blowup,
        "dt, max_steps, horizon = cfg.dt, cfg.max_steps, targets[-1]",
        "steps = 0",
    ]
    # The loop body; its temporaries may reuse names of the code above,
    # which no longer reads them.
    body = []
    if method == "rk45_adaptive":
        code += [
            f"{', '.join(k1)}, = {', '.join(_emit_results(V.components, ys, code))},",
            "atol, rtol = cfg.abs_tol, cfg.rel_tol",
            "h_next = horizon if horizon < dt else dt",  # min(dt, horizon)
        ]
        body.append("h = remaining if remaining < h_next else h_next")  # min(h_next, remaining)
        y5, k7, err_sum = _emit_dp_attempt(V, body)
        body += [
            f"enorm = sqrt(({err_sum}) / {n})",
            "if enorm <= 1.0:",
            f"    {state}, {', '.join(k1)} = {', '.join(y5)}, {', '.join(k7)}",
            "    t = target if h == remaining else t + h",
            "    " + blowup,
            f"elif h <= {_MIN_STEP!r}:",
            '    raise StepLimitError(f"step size underflow at t={t:.6g}")',
            "if enorm == 0.0:",
            "    factor = 5.0",
            "else:",
            "    factor = 0.9 * enorm ** -0.2",
            "    factor = factor if factor > 0.2 else 0.2",  # max(0.2, factor)
            "    factor = factor if factor < 5.0 else 5.0",  # min(5.0, factor)
            "h_next = h * factor",
            f"h_next = {_MIN_STEP!r} if {_MIN_STEP!r} > h_next else h_next",
            "h_next = horizon if horizon < h_next else h_next",
        ]
    else:  # the stages of _rk4_step, term for term
        body.append("h = remaining if remaining < dt else dt")  # min(dt, remaining)
        k = [_emit_results(V.components, ys, body)]
        for stage, scale in ((2, "0.5 * h"), (3, "0.5 * h"), (4, "h")):
            xs = [f"s{stage}_{i}" for i in range(n)]
            body += [f"{xs[i]} = y{i} + {scale} * {k[-1][i]}" for i in range(n)]
            k.append(_emit_results(V.components, xs, body))
        step = [f"y{i} + h / 6.0 * ({k[0][i]} + 2.0 * {k[1][i]} + 2.0 * {k[2][i]} + {k[3][i]})"
                for i in range(n)]
        body += [f"{state}, = {', '.join(step)},", "t = target if h == remaining else t + h",
                 blowup]
    code += [
        "for target in targets:",
        "    while True:",
        "        remaining = target - t",
        "        if remaining <= 0.0:",
        "            break",
        "        steps += 1",
        "        if steps > max_steps:",
        '            raise StepLimitError(f"exceeded {max_steps} steps at t={t:.6g}")',
    ] + ["        " + line for line in body] + [f"    out.append([{state}])"]
    return _define("_orbit", "y, targets, cfg, out", code, "steps",
                   f"{method} orbit of {V.label()}")


def _lane_field(V: VectorFieldSpec, xs, code: list[str]) -> str:
    """Append the lane code of the field at the coordinates xs; return the
    text of its (n, m) value."""
    return f"array([{', '.join(_emit_results(V.components, xs, code, lanes=True))}])"


@lru_cache(maxsize=128)
def _lane_kernels(V: VectorFieldSpec):
    """The field and its Dormand-Prince attempt over lanes.

    field(y, ok) and attempt(y, k1, h, atol, rtol, ok) -> (y5, k7, err_sum,
    norm2) take states and slopes as (n, m) arrays, one column per lane,
    and h as one step per lane. They perform, lane by lane, the operations
    of the compiled closure and of the scalar attempt: each state sum is
    one array operation over all coordinates, and the error and norm sums
    add rows in coordinate order. Instead of raising they clear the boolean
    mask ok on the lanes where the scalar code raises.
    """
    xs = [f"y{i}" for i in range(V.dim)]
    code = ["".join(f"{v}, " for v in xs) + "= y"]
    value = _lane_field(V, xs, code)
    field = _define("_field", "y, ok", code, value, f"lanes of {V.label()}", lanes=True)

    def combination(row):
        return " + ".join(f"{c!r} * k{j}" for j, c in row)

    code = []
    for stage, row in enumerate(_STATE_ROWS, start=2):
        xs = [f"s{stage}_{i}" for i in range(V.dim)]
        code += [
            f"s{stage} = y + h * ({combination(row)})",
            "".join(f"{v}, " for v in xs) + f"= s{stage}",
        ]
        code.append(f"k{stage} = {_lane_field(V, xs, code)}")
    # s7 is y5 and k7 its slope. max(a, b) is b exactly when b > a.
    code += [
        "a = abs(y)",
        "b = abs(s7)",
        f"r = h * ({combination(_ERROR_ROW)}) / (atol + rtol * where(b > a, b, a))",
        "r = r * r",
        "q = s7 * s7",
    ]
    err_sum = " + ".join(f"r[{i}]" for i in range(V.dim))
    norm2 = " + ".join(f"q[{i}]" for i in range(V.dim))
    attempt = _define("_attempt", "y, k1, h, atol, rtol, ok", code,
                      f"s7, k7, {err_sum}, {norm2}",
                      f"Dormand-Prince attempt over lanes of {V.label()}", lanes=True)
    return field, attempt


def _norm2(y):
    """Squared norm summed in coordinate order, of floats or of lanes."""
    s = 0.0
    for v in y:
        s += v * v
    return s


def _rk4_step(f, y, h, n):
    k1 = f(y)
    k2 = f([y[i] + 0.5 * h * k1[i] for i in range(n)])
    k3 = f([y[i] + 0.5 * h * k2[i] for i in range(n)])
    k4 = f([y[i] + h * k3[i] for i in range(n)])
    return [y[i] + h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) for i in range(n)]


def _keep(mask, *arrays):
    """Each array restricted to the lanes in mask (its last axis)."""
    return [a[..., mask] for a in arrays]


def integrate_lanes(V: VectorFieldSpec, starts, targets, cfg: IntegratorConfig, visit):
    """Integrate every row of starts through the targets at once.

    Each row is a lane with its own t, h and next target, and it takes the
    steps, and the bits, that the scalar orbit loop takes from that start
    alone. Whenever lanes reach a target, visit(rows, j, states) receives
    their row numbers, the index in targets of the target each reached and
    their states there, (len(rows), n). A lane leaves the batch after its
    last target, or where the scalar loop raises: on escape, a domain
    failure of the field, the step budget or a step size underflow. targets
    must be positive and strictly increasing. Returns the mask of failed
    rows and, by row, the scalar loop's StepLimitError text for the rows
    that exhausted the step budget or underflowed the step size.
    """
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 2 or starts.shape[1] != V.dim:
        raise DimensionMismatchError(f"starts must be (m, {V.dim}), got {starts.shape}")
    if not np.all(np.isfinite(starts)):
        raise ValueError("state point coordinates must be finite")
    field, attempt = _lane_kernels(V)
    n = V.dim
    targets = np.asarray(targets, dtype=float)
    last = targets.size
    horizon = float(targets[-1])
    radius2 = cfg.blowup_radius * cfg.blowup_radius
    atol, rtol = cfg.abs_tol, cfg.rel_tol
    adaptive = cfg.method == "rk45_adaptive"
    failed = np.zeros(starts.shape[0], dtype=bool)
    limited: dict[int, str] = {}
    rows = np.arange(starts.shape[0])
    with np.errstate(all="ignore"):
        y = starts.T.copy()  # one row per coordinate, one column per lane
        ok = ~(_norm2(y) > radius2)
        try:
            # rk4 steps start with this evaluation too, so it fails the
            # same lanes.
            k1 = field(y, ok)
        except EvalDomainError:  # raised by constants alone, on every lane
            failed[:] = True
            return failed, limited
        t = np.zeros(rows.size)
        h = np.full(rows.size, min(cfg.dt, horizon))
        j = np.zeros(rows.size, dtype=np.intp)
        steps = 0  # every lane attempts one step per pass
        while True:
            if not ok.all():
                failed[rows[~ok]] = True
                rows, t, h, j, y, k1 = _keep(ok, rows, t, h, j, y, k1)
            while True:
                target = targets[j]
                remaining = target - t
                reached = remaining <= 0.0
                if not reached.any():
                    break
                visit(rows[reached], j[reached], y[:, reached].T.copy())
                j = j + reached
                more = j < last
                if not more.all():
                    rows, t, h, j, y, k1 = _keep(more, rows, t, h, j, y, k1)
            if not rows.size:
                return failed, limited
            steps += 1
            if steps > cfg.max_steps:
                failed[rows] = True
                limited.update((row, f"exceeded {cfg.max_steps} steps at t={at:.6g}")
                               for row, at in zip(rows.tolist(), t.tolist()))
                return failed, limited
            ok = np.ones(rows.size, dtype=bool)
            if not adaptive:
                h_try = np.fmin(cfg.dt, remaining)
                y = np.asarray(_rk4_step(lambda x: field(x, ok), y, h_try, n))
                t = np.where(h_try == remaining, target, t + h_try)
                ok &= ~(_norm2(y) > radius2)
                continue
            # fmin and fmax stand for the scalar min and max where no
            # operand is NaN, and where 0.9 * enorm ** -0.2 is NaN fmax
            # takes 0.2 as max(0.2, NaN) does. At enorm 0 float_power
            # gives inf, so the factor is 5.0 as the scalar special case.
            h_try = np.fmin(h, remaining)
            y5, k7, err_sum, norm2 = attempt(y, k1, h_try, atol, rtol, ok)
            enorm = np.sqrt(err_sum / n)
            accept = enorm <= 1.0
            y = np.where(accept, y5, y)
            k1 = np.where(accept, k7, k1)
            t = np.where(accept, np.where(h_try == remaining, target, t + h_try), t)
            keep = np.where(accept, ~(norm2 > radius2), h_try > _MIN_STEP)
            if not keep.all():
                stalled = ok & ~accept & ~keep
                limited.update((row, f"step size underflow at t={at:.6g}")
                               for row, at in zip(rows[stalled].tolist(), t[stalled].tolist()))
            ok &= keep
            factor = np.fmin(np.fmax(0.9 * np.float_power(enorm, -0.2), 0.2), 5.0)
            h = np.fmin(np.fmax(h_try * factor, _MIN_STEP), horizon)


def _oriented(V: VectorFieldSpec, t: float):
    """Field to integrate forward and the positive duration for signed time t."""
    if t >= 0:
        return V, t
    return V.negated(), -t


def flow(V: VectorFieldSpec, x, t: float, cfg: IntegratorConfig) -> np.ndarray:
    """State of the orbit of x at time t; t=0 returns x itself, bitwise."""
    x = as_point(x, V.dim)
    t = float(t)
    if t == 0.0:
        return x.copy()
    field, duration = _oriented(V, t)
    out = []
    _compiled(field, cfg.method)([float(v) for v in x], [duration], cfg, out)
    return np.asarray(out[0])


# Each output sample is a step endpoint, so an orbit on a finer grid than
# this cannot finish within the default step budget.
MAX_SAMPLES = IntegratorConfig.max_steps


def check_sampling(T: float, out_dt: float) -> None:
    """The rule of every output grid: T > 0, 0 < out_dt <= T, and T / out_dt
    at most MAX_SAMPLES, a count taken without building the grid."""
    if not T > 0:
        raise ValueError("horizon T must be > 0")
    if not 0 < out_dt <= T:
        raise ValueError("out_dt must satisfy 0 < out_dt <= T")
    if not T / out_dt <= MAX_SAMPLES:
        raise ValueError(f"T / out_dt must be <= {MAX_SAMPLES}, the most samples an orbit takes")


def sample_times(T: float, out_dt: float) -> list[float]:
    """Output grid: 0 and every multiple of out_dt below T, then T itself."""
    T = float(T)
    out_dt = float(out_dt)
    check_sampling(T, out_dt)
    merge_tol = 1e-9 * max(1.0, T)
    m = int(math.floor((T - merge_tol) / out_dt))
    return [k * out_dt for k in range(m + 1)] + [T]


def _sample(V: VectorFieldSpec, x, T: float, out_dt: float, cfg: IntegratorConfig):
    """The orbit of x on sample_times(T, out_dt) up to its first integration
    failure: the Trajectory of the samples reached, and the failure or None."""
    x = as_point(x, V.dim)
    times = sample_times(T, out_dt)
    states = [[float(v) for v in x]]  # the orbit appends the samples it reaches
    error = None
    try:
        _compiled(V, cfg.method)(states[0], times[1:], cfg, states)
    except (EscapedDomainError, EvalDomainError, StepLimitError) as exc:
        error = exc
    traj = Trajectory(np.asarray(times[: len(states)]), np.asarray(states, dtype=float))
    return traj, error


def trajectory(
    V: VectorFieldSpec, x, T: float, out_dt: float, cfg: IntegratorConfig
) -> Trajectory:
    """Forward orbit sampled at multiples of out_dt plus the final time T."""
    traj, error = _sample(V, x, T, out_dt, cfg)
    if error is not None:
        raise error
    return traj


def partial_trajectory(
    V: VectorFieldSpec, x, T: float, out_dt: float, cfg: IntegratorConfig
) -> tuple[Trajectory, Exception | None]:
    """Like trajectory(), but an orbit leaving the domain yields the samples
    collected so far together with the interrupting error instead of raising."""
    return _sample(V, x, T, out_dt, cfg)


def semigroup_defect(
    V: VectorFieldSpec, x, t1: float, t2: float, cfg: IntegratorConfig
) -> float:
    """Distance between the two-leg composition and the direct integration."""
    two_leg = flow(V, flow(V, x, t1, cfg), t2, cfg)
    direct = flow(V, x, t1 + t2, cfg)
    return float(np.linalg.norm(two_leg - direct))
