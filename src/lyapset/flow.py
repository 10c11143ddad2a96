"""Numerical realization of the flow of an autonomous ODE system.

flow() advances one initial point to one time, flow_rows() many points.
trajectory() and partial_trajectory() sample a forward orbit on a fixed
grid; the first raises on an integration failure, the second returns the
samples reached with the failure. semigroup_defect() measures how far the
integrator is from the composition law flow(flow(x,t1),t2) = flow(x,t1+t2).
Negative times integrate the reversed field, so the flow is two-sided.

The integrator core runs on plain floats; at desk scale this beats array
round-trips per stage by an order of magnitude. For each field and method
one generated function runs a whole orbit, with state and slopes in
locals and the field, the step control, the blow-up test and the step
budget inlined. The tests keep a step-by-step loop that calls the field
closure once per stage as its reference; the two agree bitwise, attempt
counts and errors included. The loop steps freely to the last output
time, clipping the step only there, and records each output time that an
accepted step passes from the method's continuous extension over that
step's slopes, so a sample costs a few operations, not a step. A sample
is an interpolant, not an integrator state, except where a step ends on
it, as at the last output time, which is therefore flow()'s state.

integrate_lanes() is the one door to the generated loops: every orbit
runs through it, and a failure comes back as the exception of its row.
From _LANES_FROM starts up it runs lanes: each start is a column of
NumPy arrays, with its own time, step size and next output
time; acceptance is masked per lane, the samples that the steps of one
pass passed go to the caller together, and a lane leaves the batch when
it finishes or fails. Below that it runs the orbit loop once per start,
faster there: a lane pass costs about as much whatever the number of
lanes. The batch is generated too, around the orbit loop's step emitter,
so the attempt and the step control are written once: a lane stage state
is one (n, m) array operation, and the orbit loop's conditionals become
where, fmin or fmax. A lane performs the IEEE operations of the scalar
loop in the same order, so its samples are bitwise those of the scalar
loop, and the choice of loop changes no bit. That rests on NumPy
functions that round as libm does: float_power for powers other than
squares and for the step factor (np.power differs), sin, cos and sqrt,
while exp and tanh are evaluated element by element with math. A square
a^2 is a * a, the correctly rounded square, in every evaluator, lanes
included. Where the scalar code raises, a lane leaves the batch with that
error instead, so one bad start never aborts the batch; a lane that
failed inside the field has no error text there, and runs once more in
the orbit loop for it.
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
# The weights d_i of Dormand-Prince's continuous extension in Hairer's
# contd5 form (Shampine 1986; HNW II.6), the last term of a sample.
_D1, _D3, _D4, _D5, _D6, _D7 = (
    -12715105075 / 11282082432,
    87487479700 / 32700410799,
    -10690763975 / 1880347072,
    701980252875 / 199316789632,
    -1453857185 / 822651844,
    69997945 / 29380423,
)
_DENSE_ROW = ((1, _D1), (3, _D3), (4, _D4), (5, _D5), (6, _D6), (7, _D7))

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


def _pick(a: str, op: str, b: str, lanes: bool) -> str:
    """min(a, b) for op "<" and max(a, b) for ">": a conditional, or over
    lanes fmin or fmax. Both pick b where a is NaN; no b here can be NaN."""
    if lanes:
        return f"{'fmin' if op == '<' else 'fmax'}({a}, {b})"
    return f"{a} if {a} {op} {b} else {b}"


def _escape_test(xs, lanes: bool, mask: str = "ok") -> list[str]:
    """Raise where the state xs left the blow-up radius; over lanes, record
    the same error for each lane of mask there and clear its ok."""
    norm2 = " + ".join(f"{v} * {v}" for v in xs)
    state = f"[{', '.join(xs)}]"
    if not lanes:
        return [f"if {norm2} > radius2: raise EscapedDomainError(t, {state})"]
    return [f"escaped = {mask} & ({norm2} > radius2)", "if escaped.any():",
            "    errors.update((row, EscapedDomainError(t, state)) for row, t, state in "
            "zip(rows[escaped].tolist(), t[escaped].tolist(), "
            f"array({state})[:, escaped].T.tolist()))",
            "    ok &= ~escaped"]


# The StepLimitErrors, formatted where t is the orbit's or lane's time.
_EXCEEDED = 'StepLimitError(f"exceeded {max_steps} steps at t={t:.6g}")'
_UNDERFLOW = 'StepLimitError(f"step size underflow at t={t:.6g}")'


def _emit_step(V: VectorFieldSpec, method: str, lanes: bool) -> list[str]:
    """The loop body of one step attempt from the state y at time t, with
    remaining = horizon - t: the step size h, clipped only at the horizon,
    the stages with the field inlined, and the step control. On acceptance
    it moves t, tests the blow-up radius at the new state, records every
    target the step passed, then moves y and the slope k1; it sets the next
    step size h_next. With lanes, y is an (n, m) array, one column per
    lane, and the body clears ok on the lanes where the scalar body raises,
    recording in errors, by row, what it raises on escape and on step size
    underflow."""
    n = V.dim
    ys = [f"y{i}" for i in range(n)]
    y = "y" if lanes else ys
    each = [None] if lanes else range(n)  # one statement over lanes, or one per coordinate
    code: list[str] = []

    def at(v, i):
        """Coordinate i of v, a list of names; or v itself, an (n, m) array."""
        return v if i is None else v[i]

    def slope(xs, s):
        """Append the field at xs; return its values, as names or an array."""
        ks = _emit_results(V.components, xs, code, lanes)
        if lanes:
            code.append(f"k{s} = array([{', '.join(ks)}])")
        return f"k{s}" if lanes else ks

    def stage(s, terms):
        """Append the state y + terms(i) of stage s; return it and its slope."""
        xs = [f"s{s}_{i}" for i in range(n)]
        if lanes:
            code.extend([f"s{s} = y + {terms(None)}", f"{', '.join(xs)}, = s{s}"])
        else:
            code.extend(f"{xs[i]} = y{i} + {terms(i)}" for i in range(n))
        return f"s{s}" if lanes else xs, slope(xs, s)

    def combination(row, i):
        return " + ".join(f"{c!r} * {at(k[j], i)}" for j, c in row)

    def samples(new):
        """Record each target in (t_old, t] that the step from y to the
        state new passed: new itself at a target equal to t, else the
        method's continuous extension at theta = (target - t_old) / h.
        Dormand-Prince's is Hairer's contd5 form of Shampine's 4th-order
        extension; RK4's is the classical one of order 3 (HNW II.6). The
        orbit loop appends each sample to out; the batch hands every (lane,
        sample) pair of the pass to one visit call, rows repeating."""
        def pair(v, i):
            """Coordinate i of v at a sample: over lanes, v at its lane."""
            return f"{v}.take(lane, 1)" if lanes else v[i]

        h = "h[lane]" if lanes else "h"
        if method == "rk4_fixed":
            prepare = []
            weights = [f"b1 = theta * (1.0 + theta * (-1.5 + theta * {2 / 3!r}))",
                       f"b2 = theta * theta * (1.0 - theta * {2 / 3!r})",
                       f"b4 = theta * theta * (-0.5 + theta * {2 / 3!r})"]
            value = [f"{pair(y, i)} + {h} * (b1 * {pair(k[1], i)} + b2 * ({pair(k[2], i)} + "
                     f"{pair(k[3], i)}) + b4 * {pair(k[4], i)})" for i in each]
        else:
            dd, c3, c4, c5 = (name if lanes else [f"{name}_{i}" for i in range(n)]
                              for name in ("dd", "c3", "c4", "c5"))
            prepare = [line for i in each for line in (
                f"{at(dd, i)} = {at(new, i)} - {at(y, i)}",
                f"{at(c3, i)} = h * {at(k[1], i)} - {at(dd, i)}",
                f"{at(c4, i)} = {at(dd, i)} - h * {at(k[7], i)} - {at(c3, i)}",
                f"{at(c5, i)} = h * ({combination(_DENSE_ROW, i)})",
            )]
            weights = ["theta1 = 1.0 - theta"]
            value = [f"{pair(y, i)} + theta * ({pair(dd, i)} + theta1 * ({pair(c3, i)} + "
                     f"theta * ({pair(c4, i)} + theta1 * {pair(c5, i)})))" for i in each]
        if not lanes:
            return ["if target <= t:",
                    *("    " + line for line in prepare),
                    "    while target <= t:",
                    "        if target == t:",
                    f"            out.append([{', '.join(new)}])",
                    "        else:",
                    "            theta = (target - t_old) / h",
                    *("            " + line for line in weights),
                    f"            out.append([{', '.join(value)}])",
                    "        target = next(pending, inf)"]
        # count: per ok lane, the targets in (t_old, t], counted one at a
        # time, since a step passes few; ahead is targets, then inf.
        return ["passed = ok & (ahead[j] <= t)",
                "if passed.any():",
                "    count = zeros(passed.size, int)",
                "    while passed.any():",
                "        count += passed",
                "        passed &= ahead[j + count] <= t",
                *("    " + line for line in prepare),
                "    lane = arange(count.size).repeat(count)",
                "    js = arange(lane.size) + (j + count - count.cumsum()).repeat(count)",
                "    target = ahead[js]",
                "    theta = (target - t_old[lane]) / h[lane]",
                *("    " + line for line in weights),
                f"    sample = {value[0]}",
                "    hit = target == t[lane]",
                "    if hit.any():",
                f"        sample[:, hit] = {new}.take(lane[hit], 1)",
                "    visit(rows[lane], js, sample.T)",
                "    j = j + count"]

    at_horizon = ("where(h == remaining, horizon, t + h)" if lanes
                  else "horizon if h == remaining else t + h")
    if method == "rk4_fixed":  # the stages of the reference _rk4_step, term for term
        code.append("h = " + _pick("remaining", "<", "dt", lanes))
        if lanes:
            code.append(f"{', '.join(ys)}, = y")
        k = {1: slope(ys, 1)}
        for s, scale in ((2, "0.5 * h"), (3, "0.5 * h"), (4, "h")):
            k[s] = stage(s, lambda i: f"{scale} * {at(k[s - 1], i)}")[1]
        step = [f"{at(y, i)} + h / 6.0 * ({at(k[1], i)} + 2.0 * {at(k[2], i)} + "
                f"2.0 * {at(k[3], i)} + {at(k[4], i)})" for i in each]
        xs = [f"s5_{i}" for i in range(n)]
        code += ([f"s5 = {step[0]}", f"{', '.join(xs)}, = s5"] if lanes
                 else [f"{', '.join(xs)}, = {', '.join(step)},"])
        return code + ["t_old = t", f"t = {at_horizon}", *_escape_test(xs, lanes),
                       *samples("s5" if lanes else xs),
                       "y = s5" if lanes else f"{', '.join(ys)}, = {', '.join(xs)},"]

    code.append("h = " + _pick("remaining", "<", "h_next", lanes))
    k = {1: "k1" if lanes else [f"k1_{i}" for i in range(n)]}
    for s, row in enumerate(_STATE_ROWS, start=2):
        y5, k[s] = stage(s, lambda i: f"h * ({combination(row, i)})")
    # The last state is y5 and its slope is k7.
    xs = [f"s7_{i}" for i in range(n)]
    for i in each:
        code += [
            f"a = abs({at(y, i)})",
            f"b = abs({at(y5, i)})",
            f"{'r' if lanes else f'r{i}'} = h * ({combination(_ERROR_ROW, i)}) / "
            f"(atol + rtol * ({_pick('b', '>', 'a', lanes)}))",
        ]
    rs = [f"r[{i}]" if lanes else f"r{i}" for i in range(n)]
    code.append(f"enorm = sqrt(({' + '.join(f'{r} * {r}' for r in rs)}) / {n})")
    if lanes:
        code += [
            "accept = enorm <= 1.0",
            "t_old = t",
            f"t = where(accept, {at_horizon}, t)",
            # A rejected lane keeps a state that passed the test.
            *_escape_test(xs, lanes, "ok & accept"),
            f"stalled = ok & ~accept & (h <= {_MIN_STEP!r})",
            "if stalled.any():",
            f"    errors.update((row, {_UNDERFLOW}) for row, t in "  # t lane by lane
            "zip(rows[stalled].tolist(), t[stalled].tolist()))",
            "    ok &= ~stalled",
            *samples(y5),
            "y, k1 = where(accept, s7, y), where(accept, k7, k1)",
        ]
    else:
        code += [
            "if enorm <= 1.0:",
            "    t_old = t",
            f"    t = {at_horizon}",
            *("    " + line for line in _escape_test(xs, lanes)),
            *("    " + line for line in samples(y5)),
            f"    {', '.join(ys)}, {', '.join(k[1])} = {', '.join(y5)}, {', '.join(k[7])}",
            f"elif h <= {_MIN_STEP!r}:",
            f"    raise {_UNDERFLOW}",
        ]
    # Over lanes pow is float_power, which gives inf at enorm 0, so the
    # factor is then 5.0, as in the scalar special case.
    factor = [
        "factor = 0.9 * " + ("pow(enorm, -0.2)" if lanes else "enorm ** -0.2"),
        "factor = " + _pick("factor", ">", "0.2", lanes),
        "factor = " + _pick("factor", "<", "5.0", lanes),
    ]
    if not lanes:
        factor = ["if enorm == 0.0:", "    factor = 5.0", "else:"] + ["    " + f for f in factor]
    return code + factor + [
        "h_next = h * factor",
        "h_next = " + _pick(repr(_MIN_STEP), ">", "h_next", lanes),
        "h_next = " + _pick("horizon", "<", "h_next", lanes),
    ]


@lru_cache(maxsize=128)
def _compiled(V: VectorFieldSpec, method: str, lanes: bool = False):
    """Generate the loop of V and method around one _emit_step body.

    orbit(y, targets, cfg, out) -> the number of step attempts integrates
    from y to the last target, stepping freely and clipping the step only
    there, and appends the sample at each target to out as an accepted step
    passes it, so the samples reached before a failure stay with the
    caller; it is bitwise the step-by-step reference loop in the tests.
    With lanes, batch(y, targets, cfg, visit) -> errors runs the columns of
    the (n, m) array y as integrate_lanes describes, with None for a lane
    that failed inside the field, and hands visit the samples of each pass
    after its step. Operations on constants alone raise on every lane: the
    first field evaluation catches them and fails every lane; anything
    visit raises passes through."""
    n = V.dim
    ys = [f"y{i}" for i in range(n)]
    adaptive = method == "rk45_adaptive"
    code = [f"{', '.join(ys)}, = y", "t = zeros(y.shape[1])" if lanes else "t = 0.0",
            "radius2 = cfg.blowup_radius * cfg.blowup_radius"]
    if lanes:
        code += ["rows, j, errors = arange(t.size), zeros(t.size, int), {}",
                 "ok = ones(t.size, bool)"]
    code += [*_escape_test(ys, lanes),
             "dt, max_steps, horizon = cfg.dt, cfg.max_steps, targets[-1]", "steps = 0"]
    if lanes:  # every lane evaluates the field at its start, as a first attempt does
        field: list[str] = []
        k1 = _emit_results(V.components, ys, field, lanes)
        code += ["try:", *("    " + line for line in field),
                 "except (ValueError, ZeroDivisionError, OverflowError):",
                 "    return {row: errors.get(row) for row in range(t.size)}"]
        code += [f"k1 = array([{', '.join(k1)}])"] if adaptive else []
    elif adaptive:
        code.append(f"{', '.join(f'k1_{i}' for i in range(n))}, = "
                    f"{', '.join(_emit_results(V.components, ys, code))},")
    if adaptive:  # h_next is min(dt, horizon)
        code += ["atol, rtol = cfg.abs_tol, cfg.rel_tol",
                 "h_next = horizon if horizon < dt else dt"]
        code += ["h_next = full_like(t, h_next)"] if lanes else []
    # The loop body; its temporaries may reuse names of the code above,
    # which no longer reads them.
    body = _emit_step(V, method, lanes)
    if not lanes:
        code += ["pending = iter(targets)", "target = next(pending)",
                 "while t < horizon:",
                 "    remaining = horizon - t",
                 "    steps += 1",
                 "    if steps > max_steps:",
                 f"        raise {_EXCEEDED}"] + ["    " + line for line in body]
        return _define("_orbit", "y, targets, cfg, out", code, "steps",
                       f"{method} orbit of {V.label()}")
    # The values each lane carries, kept or dropped together.
    carried = ["rows", "t", "j", "y"] + (["h_next", "k1"] if adaptive else [])
    code += [
        "last = len(targets)",
        "ahead = full_like(targets, inf, shape=last + 1)",
        "ahead[:last] = targets",
        "while True:",
        "    live = ok & (j < last)",  # a lane past its last target is at the horizon
        "    if not live.all():",
        "        errors.update((row, errors.get(row)) for row in rows[~ok].tolist())",
        f"        {', '.join(carried)} = {', '.join(f'{v}[..., live]' for v in carried)}",
        "    if not rows.size:",
        "        break",
        "    steps += 1",
        "    if steps > max_steps:",
        f"        errors.update((row, {_EXCEEDED}) for row, t in zip(rows.tolist(), t.tolist()))",
        "        break",
        "    ok = ones(rows.size, bool)",
        "    remaining = horizon - t",
    ] + ["    " + line for line in body]
    return _define("_batch", "y, targets, cfg, visit", code, "errors",
                   f"{method} lanes of {V.label()}", lanes=True)


# Starts from which integrate_lanes runs lanes, not one orbit loop per
# start. A lane batch costs about the same whatever the number of lanes
# (harmonic field, T = 8, out_dt 0.1: 57-78 ms for 1-100 starts), orbit
# loops cost in proportion. BENCH_13.json, median time of the orbit loops
# over that of the batch at 3 / 25 / 49 / 100 starts: harmonic field
# 0.06 / 0.47 / 0.96 / 1.39, 4-D cycle field 0.08 / 0.78 / 1.22 / 2.27.
# With samples interpolated (BENCH_18.json) both still cross 1 between 25
# and 100 starts.
_LANES_FROM = 50


def integrate_lanes(V: VectorFieldSpec, starts, targets, cfg: IntegratorConfig, visit):
    """Integrate every row of starts through the targets.

    Each row takes the steps, and the bits, that the scalar orbit loop
    takes from that start alone, whichever loop runs it: from _LANES_FROM
    rows up one lane batch, each row a lane with its own t, h and next
    target, and below that one orbit loop per row. visit(rows, j, states)
    receives row numbers, the index in targets of the target each reached
    and the states there, (len(rows), n): from the batch, every (row,
    target) pair that the steps of one pass passed, a row repeating, j
    increasing within it; from an orbit loop, one row's samples in one
    call, j increasing. visit runs under np.errstate(all="ignore")
    either way, and what it raises passes through. A row leaves after its
    last target, or where the scalar loop raises: on escape, a domain
    failure of the field, the step budget or a step size underflow.
    targets must be positive and strictly increasing. Returns, by failed
    row, the EscapedDomainError, EvalDomainError or StepLimitError that the
    orbit loop raises from that start alone: same type and text, and for
    an escape the same time and state bits.
    """
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 2 or starts.shape[1] != V.dim:
        raise DimensionMismatchError(f"starts must be (m, {V.dim}), got {starts.shape}")
    if not np.all(np.isfinite(starts)):
        raise ValueError("state point coordinates must be finite")
    targets = np.asarray(targets, dtype=float)
    times = targets.tolist()  # the orbit loop runs on floats
    with np.errstate(all="ignore"):
        if len(starts) >= _LANES_FROM:
            errors = _compiled(V, cfg.method, lanes=True)(starts.T.copy(), targets, cfg, visit)
            # A lane that failed inside the field has no error yet: the orbit
            # loop raises it from the same start, its samples visited already.
            rerun, visit = [row for row, error in errors.items() if error is None], None
        else:
            errors, rerun = {}, range(len(starts))
        orbit = _compiled(V, cfg.method) if rerun else None
        for row in rerun:
            out: list = []
            try:
                orbit(starts[row].tolist(), times, cfg, out)
            except (EscapedDomainError, EvalDomainError, StepLimitError) as exc:
                errors[row] = exc
            if out and visit is not None:
                visit(np.full(len(out), row), np.arange(len(out)), np.array(out))
        return errors


def flow(V: VectorFieldSpec, x, t: float, cfg: IntegratorConfig) -> np.ndarray:
    """State of the orbit of x at time t; t=0 returns x itself, bitwise."""
    x = as_point(x, V.dim)
    t = float(t)
    if t == 0.0:
        return x.copy()
    field, duration = (V, t) if t > 0 else (V.negated(), -t)  # negative t: the reversed field
    moved, error = flow_rows(field, x[None, :], duration, cfg)
    if error is not None:
        raise error
    return moved[0]


def flow_rows(V: VectorFieldSpec, starts, t: float, cfg: IntegratorConfig):
    """flow(V, x, t, cfg) of every row x of starts, for t > 0, in one
    integrate_lanes call. Returns the moved rows before the first that
    failed, and the error flow() raises for that row, or None."""
    moved = np.empty_like(starts, dtype=float)

    def visit(rows, j, states):
        moved[rows] = states

    errors = integrate_lanes(V, starts, [t], cfg, visit)
    first = min(errors, default=len(starts))
    return moved[:first], errors.get(first)


# The most output samples one orbit records. Samples are interpolated
# within steps, so this bounds the samples and the memory they take, not
# the steps, which max_steps bounds.
MAX_SAMPLES = 10_000_000


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


def _sampled(V: VectorFieldSpec, x, T: float, out_dt: float, cfg: IntegratorConfig):
    """The orbit of x on sample_times(T, out_dt), from a one-row
    integrate_lanes call: the Trajectory of the samples reached before the
    first integration failure, and the failure or None. trajectory() and
    partial_trajectory() share it, so that neither calls the other: a
    tracer that counts the orbits of both counts each orbit once."""
    x = as_point(x, V.dim)
    times = sample_times(T, out_dt)
    samples = [x[None, :]]
    visit = lambda rows, j, states: samples.append(states)  # noqa: E731
    error = integrate_lanes(V, samples[0], times[1:], cfg, visit).get(0)
    states = np.concatenate(samples)
    return Trajectory(np.asarray(times[: len(states)]), states), error


def trajectory(
    V: VectorFieldSpec, x, T: float, out_dt: float, cfg: IntegratorConfig
) -> Trajectory:
    """Forward orbit sampled at multiples of out_dt plus the final time T."""
    traj, error = _sampled(V, x, T, out_dt, cfg)
    if error is not None:
        raise error
    return traj


def partial_trajectory(
    V: VectorFieldSpec, x, T: float, out_dt: float, cfg: IntegratorConfig
) -> tuple[Trajectory, Exception | None]:
    """Like trajectory(), but an orbit leaving the domain yields the samples
    collected so far together with the interrupting error instead of raising."""
    return _sampled(V, x, T, out_dt, cfg)


def semigroup_defect(
    V: VectorFieldSpec, x, t1: float, t2: float, cfg: IntegratorConfig
) -> float:
    """Distance between the two-leg composition and the direct integration."""
    two_leg = flow(V, flow(V, x, t1, cfg), t2, cfg)
    direct = flow(V, x, t1 + t2, cfg)
    return float(np.linalg.norm(two_leg - direct))
