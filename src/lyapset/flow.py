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
It runs the orbit loop once per start until a field and method have done
enough work in the process; from then on it builds and runs their native
loop. The emitter has a second target, C, for it: the orbit loop's
attempt statement for statement over doubles and libm, built with a C
compiler ($CC, else cc) and run through ctypes, in calls of at most
_BUFFER samples written to a caller-owned buffer; each filled buffer
reaches visit in one call, rows ascending. A run of _PARALLEL_FROM
samples or more cuts its rows into one contiguous slice per core, each
slice's calls on a thread of its own, as ctypes releases the GIL during a
call; visit still runs in the caller's thread, taking the buffers as they
arrive, each slice's in their order. A row runs within one slice, so its
samples, error and attempts do not depend on the slices. The build is
cached under ${XDG_CACHE_HOME:-~/.cache}/lyapset, and it is made with
contraction and builtins off, so that gcc neither fuses a * b + c nor
merges sin and cos: the native loop's bits are the orbit loop's. Where
the orbit loop raises inside the field, and on an exhausted budget or a
step size underflow, the native loop stops the row before that attempt
and the orbit loop resumes it there, from the row's loop state, and
raises the exact error; an escape comes back as its time and state. So
no orbit is integrated twice. Without a compiler, or where a build or
load fails, the orbit loop runs every start, with the same bits.
"""

from __future__ import annotations

import math
import os
import sys
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


def _choose(cond: str, a: str, b: str, target: str) -> str:
    """a where cond holds, else b."""
    return f"{cond} ? {a} : {b}" if target == "c" else f"{a} if {cond} else {b}"


def _pick(a: str, op: str, b: str, target: str) -> str:
    """min(a, b) for op "<" and max(a, b) for ">", as a conditional; it
    picks b where a is NaN, and no b here can be NaN."""
    return _choose(f"{a} {op} {b}", a, b, target)


def _block(head: str, body: list[str], target: str) -> list[str]:
    """The compound statement head, an if, elif, else or while with its
    condition, over the lines body: in Python, or in C."""
    if target != "c":
        return [head + ":", *("    " + line for line in body)]
    word, _, cond = head.partition(" ")
    word = "else if" if word == "elif" else word
    return [f"{word} ({cond}) {{" if cond else f"{word} {{", *("    " + line for line in body), "}"]


def _escape_test(xs, target: str) -> list[str]:
    """Raise where the state xs left the blow-up radius; in C, end the row
    there with the state xs."""
    norm2 = " + ".join(f"{v} * {v}" for v in xs)
    if target == "c":
        moves = [f"y{i} = {x};" for i, x in enumerate(xs) if x != f"y{i}"]
        return _block(f"if {norm2} > radius2", [*moves, "goto escaped;"], target)
    return [f"if {norm2} > radius2: raise EscapedDomainError(t, [{', '.join(xs)}])"]


# The StepLimitErrors, formatted where t is the orbit's time.
_EXCEEDED = 'StepLimitError(f"exceeded {max_steps} steps at t={t:.6g}")'
_UNDERFLOW = 'StepLimitError(f"step size underflow at t={t:.6g}")'


def _emit_step(V: VectorFieldSpec, method: str, target: str) -> list[str]:
    """The loop body of one step attempt from the state y at time t, with
    remaining = horizon - t: the step size h, clipped only at the horizon,
    the stages with the field inlined, and the step control. On acceptance
    it moves t, tests the blow-up radius at the new state, records every
    target the step passed, then moves y and the slope k1; it sets the next
    step size h_next. target is "python", the orbit loop's body, or "c".
    The C body is the Python body statement for statement, over doubles
    and libm; where the Python body raises it jumps, on escape to the
    label escaped with the escaped state in y, else to the label failed,
    where the row stops to be resumed before this attempt by the orbit
    loop, which raises there. It writes each sample to the buffer's
    count-th entry, as _c_source lays it out, which has room for every
    target the step can pass."""
    n = V.dim
    c = target == "c"
    end = ";" if c else ""
    ys = [f"y{i}" for i in range(n)]
    code: list[str] = []

    def assign(names, values) -> list[str]:
        """names = values at once; in C one by one, as no value reads a
        name set before it."""
        if c:
            return [f"{name} = {value};" for name, value in zip(names, values)]
        return [f"{', '.join(names)}, = {', '.join(values)},"]

    def stage(s, terms):
        """Append the state y + terms(i) of stage s; return it and its slope."""
        xs = [f"s{s}_{i}" for i in range(n)]
        code.extend(f"{xs[i]} = y{i} + {terms(i)}{end}" for i in range(n))
        return xs, _emit_results(V.components, xs, code, target)

    def combination(row, i):
        return " + ".join(f"{weight!r} * {k[j][i]}" for j, weight in row)

    def samples(new):
        """Record each target in (t_old, t] that the step from y to the
        state new passed: new itself at a target equal to t, else the
        method's continuous extension at theta = (target - t_old) / h.
        Dormand-Prince's is Hairer's contd5 form of Shampine's 4th-order
        extension; RK4's is the classical one of order 3 (HNW II.6). The
        orbit loop appends each sample to out, the C loop writes it to the
        buffer."""
        if method == "rk4_fixed":
            prepare = []
            weights = [f"b1 = theta * (1.0 + theta * (-1.5 + theta * {2 / 3!r}))",
                       f"b2 = theta * theta * (1.0 - theta * {2 / 3!r})",
                       f"b4 = theta * theta * (-0.5 + theta * {2 / 3!r})"]
            value = [f"y{i} + h * (b1 * {k[1][i]} + b2 * ({k[2][i]} + {k[3][i]}) + "
                     f"b4 * {k[4][i]})" for i in range(n)]
        else:
            prepare = [line for i in range(n) for line in (
                f"dd_{i} = {new[i]} - y{i}",
                f"c3_{i} = h * {k[1][i]} - dd_{i}",
                f"c4_{i} = dd_{i} - h * {k[7][i]} - c3_{i}",
                f"c5_{i} = h * ({combination(_DENSE_ROW, i)})",
            )]
            weights = ["theta1 = 1.0 - theta"]
            value = [f"y{i} + theta * (dd_{i} + theta1 * (c3_{i} + theta * (c4_{i} + "
                     f"theta1 * c5_{i})))" for i in range(n)]
        if c:
            record = lambda values: [  # noqa: E731
                f"buf[{n} * count + {i}] = {v};" for i, v in enumerate(values)]
            advance = ["at[count] = row;", "at[cap + count] = j;", "count += 1;",
                       "j += 1;", "target = targets[j];"]
        else:
            record = lambda values: [f"out.append([{', '.join(values)}])"]  # noqa: E731
            advance = ["target = next(pending, inf)"]
        interpolate = [f"theta = (target - t_old) / h{end}", *(w + end for w in weights),
                       *record(value)]
        sample = [*_block("if target == t", record(new), target),
                  *_block("else", interpolate, target), *advance]
        return _block("if target <= t", [*(line + end for line in prepare),
                                         *_block("while target <= t", sample, target)],
                      target)

    at_horizon = _choose("h == remaining", "horizon", "t + h", target)
    if method == "rk4_fixed":  # the stages of the reference _rk4_step, term for term
        code.append("h = " + _pick("remaining", "<", "dt", target) + end)
        k = {1: _emit_results(V.components, ys, code, target)}
        for s, scale in ((2, "0.5 * h"), (3, "0.5 * h"), (4, "h")):
            k[s] = stage(s, lambda i: f"{scale} * {k[s - 1][i]}")[1]
        xs = [f"s5_{i}" for i in range(n)]
        code += assign(xs, [f"y{i} + h / 6.0 * ({k[1][i]} + 2.0 * {k[2][i]} + "
                            f"2.0 * {k[3][i]} + {k[4][i]})" for i in range(n)])
        return code + ["t_old = t" + end, f"t = {at_horizon}" + end, *_escape_test(xs, target),
                       *samples(xs), *assign(ys, xs)]

    code.append("h = " + _pick("remaining", "<", "h_next", target) + end)
    k = {1: [f"k1_{i}" for i in range(n)]}
    for s, row in enumerate(_STATE_ROWS, start=2):
        y5, k[s] = stage(s, lambda i: f"h * ({combination(row, i)})")
    # The last state is y5 and its slope is k7.
    fabs = "fabs" if c else "abs"
    for i in range(n):
        code += [
            f"a = {fabs}(y{i}){end}",
            f"b = {fabs}({y5[i]}){end}",
            f"r{i} = h * ({combination(_ERROR_ROW, i)}) / "
            f"(atol + rtol * ({_pick('b', '>', 'a', target)})){end}",
        ]
    code.append(f"enorm = sqrt(({' + '.join(f'r{i} * r{i}' for i in range(n))}) / {n}){end}")
    accepted = ["t_old = t" + end, f"t = {at_horizon}" + end, *_escape_test(y5, target),
                *samples(y5), *assign(ys + k[1], y5 + k[7])]
    code += [*_block("if enorm <= 1.0", accepted, target),
             *_block(f"elif h <= {_MIN_STEP!r}",
                     ["goto failed;" if c else f"raise {_UNDERFLOW}"], target)]
    factor = [
        "factor = 0.9 * " + ("pow(enorm, -0.2)" if c else "enorm ** -0.2"),
        "factor = " + _pick("factor", ">", "0.2", target),
        "factor = " + _pick("factor", "<", "5.0", target),
    ]
    return code + [
        *_block("if enorm == 0.0", ["factor = 5.0" + end], target),
        *_block("else", [line + end for line in factor], target),
        *(line + end for line in (
            "h_next = h * factor",
            "h_next = " + _pick(repr(_MIN_STEP), ">", "h_next", target),
            "h_next = " + _pick("horizon", "<", "h_next", target),
        ))]


@lru_cache(maxsize=128)
def _compiled(V: VectorFieldSpec, method: str):
    """Generate the orbit loop of V and method around one _emit_step body.

    orbit(y, targets, cfg, out, resume=None) -> the number of step attempts
    integrates from y to the last target, stepping freely and clipping the
    step only there, and appends the sample at each target to out as an
    accepted step passes it, so the samples reached before a failure stay
    with the caller; it is bitwise the step-by-step reference loop in the
    tests. An error it raises carries the attempts made, a failing one
    included, as `attempts`: max_steps where the budget runs out. It
    starts from the point y at t = 0, or, given resume, from the state y
    where the native loop stopped a row: resume is (t, j, attempts), then
    h_next and k1 for Dormand-Prince, and the next sample is targets[j].
    The orbit loop carries the work meter of V and method, its attribute
    work, which integrate_lanes sets and reads: so the meter is dropped
    with the loop, and starts again from 0 where the cache is cleared.
    The native loop is _native's, generated by _c_source around the same
    _emit_step body in C."""
    n = V.dim
    ys = [f"y{i}" for i in range(n)]
    adaptive = method == "rk45_adaptive"
    code = [f"{', '.join(ys)}, = y", "radius2 = cfg.blowup_radius * cfg.blowup_radius",
            "dt, max_steps, horizon = cfg.dt, cfg.max_steps, targets[-1]"]
    code += ["atol, rtol = cfg.abs_tol, cfg.rel_tol"] if adaptive else []
    start = ["t, steps = 0.0, 0", *_escape_test(ys, "python")]
    state = ["t", "j", "steps"]
    if adaptive:  # h_next is min(dt, horizon)
        k1 = _emit_results(V.components, ys, start)
        start += [f"{', '.join(f'k1_{i}' for i in range(n))}, = {', '.join(k1)},",
                  "h_next = horizon if horizon < dt else dt"]
        state += ["h_next", *(f"k1_{i}" for i in range(n))]
    # The loop body's temporaries may reuse names of the code above, which
    # no longer reads them.
    code += ["if resume is None:", *("    " + line for line in start),
             "    pending = iter(targets)",
             "else:",
             f"    {', '.join(state)}, = resume",
             "    pending = iter(targets[j:])",
             "target = next(pending)",
             "while t < horizon:",
             "    remaining = horizon - t",
             "    if steps >= max_steps:",
             f"        raise {_EXCEEDED}",
             "    steps += 1"] + ["    " + line for line in _emit_step(V, method, "python")]
    return _define("_orbit", "y, targets, cfg, out, resume=None", code, "steps",
                   f"{method} orbit of {V.label()}", attempts="steps")


def _unfinished(starts, left):
    """(row, y, resume) for the orbit loop, per row of the native loop's
    left: a start as its point, with resume None, else its loop state, the
    row's attempts included, as Python floats and ints."""
    for attempts, rows, *state in left:
        if attempts is None:
            yield from ((row, starts[row].tolist(), None) for row in rows.tolist())
            continue
        t, j, y, *slopes = state
        columns = [t.tolist(), j.tolist(), attempts.tolist()]
        if slopes:  # h_next and k1
            columns += np.vstack(slopes).tolist()
        yield from zip(rows.tolist(), y.T.tolist(), zip(*columns))


# What a row of the native loop is: not started, cut off by a full buffer,
# finished, escaped, stopped for the orbit loop to resume it before an
# attempt, or failed in the field at its start.
_FRESH, _RUNNING, _DONE, _ESCAPED, _LEFT, _LEFT_AT_START = range(6)

_C_PRELUDE = """#include <float.h>
#include <math.h>
#include <stdint.h>

#if FLT_EVAL_METHOD != 0
#error "each double operation must round to double"
#endif

static const double inf = HUGE_VAL;
static double min2(double a, double b) { return b < a ? b : a; }
static double max2(double a, double b) { return b > a ? b : a; }
"""


def _c_source(V: VectorFieldSpec, method: str) -> str:
    """The C translation unit of the native loop of V and method: one
    function,

        int64_t orbits(int64_t m, int64_t *next, double *f, int64_t *l,
                       const double *cfg, int64_t max_steps,
                       const double *targets, int64_t last,
                       double *buf, int64_t *at, int64_t cap)

    which runs the rows next[0], ..., m - 1 around the _emit_step body in
    C, as the orbit loop runs them in Python. Row r's loop state is f[r],
    (t, h_next, y, k1), and l[r], (status, j, attempts); cfg is (dt,
    abs_tol, rel_tol, blowup_radius, horizon), and targets holds the last
    targets, then inf. Samples go to the buffer, cap of them: the k-th
    state to buf[k], its row to at[k] and its j to at[cap + k]. Before an
    attempt that could pass more targets than the buffer has room for,
    the function keeps the row's state, sets next[0] to the row and
    returns the count of samples written; after the last row, next[0] is
    m. It stops a row for the orbit loop, to be resumed where the Python
    loop raises, before the attempt: on an exhausted budget, a failure in
    the field or a step size underflow, or when one step passes more
    targets than the whole buffer holds."""
    n = V.dim
    ys = [f"y{i}" for i in range(n)]
    adaptive = method == "rk45_adaptive"
    scalars = ["t", "h", "h_next", "t_old", "remaining", "a", "b", "enorm", "factor", "theta",
               "theta1", "b1", "b2", "b4", "target"]
    per_coordinate = ["y", "k1_", "r", "dd_", "c3_", "c4_", "c5_",
                      *(f"s{s}_" for s in range(2, 8))]
    names = scalars + [f"{name}{i}" for name in per_coordinate for i in range(n)]
    state = ["t", "h_next", *ys, *(f"k1_{i}" for i in range(n))]
    start = _escape_test(ys, "c")
    if adaptive:  # h_next is min(dt, horizon)
        field: list[str] = []
        k1 = _emit_results(V.components, ys, field, "c")
        start += ["{", *("    " + line for line in field),
                  *(f"    k1_{i} = {k};" for i, k in enumerate(k1)), "}",
                  "h_next = horizon < dt ? horizon : dt;"]
    step = "h_next" if adaptive else "dt"
    loop = [
        "const double dt = cfg[0], atol = cfg[1], rtol = cfg[2];",
        "const double radius2 = cfg[3] * cfg[3], horizon = cfg[4];",
        "int64_t count = 0, row, j, steps;",
        f"double {', '.join(names)};",
        "for (row = *next; row < m; row++) {",
        f"    double *s = f + {len(state)} * row;",
        "    int64_t *q = l + 3 * row;",
        *(f"    {name} = s[{i}];" for i, name in enumerate(state)),
        "    j = q[1];",
        "    steps = q[2];",
        *("    " + line for line in _block(f"if q[0] == {_FRESH}", start, "c")),
        "    target = targets[j];",
        *("    " + line for line in _block("while t < horizon", [
            "remaining = horizon - t;",
            "if (steps >= max_steps) goto left;",
            # The targets an accepted attempt passes lie in (t, t_new],
            # with t_new = t + h, or the horizon where h is remaining.
            "if (j + cap - count < last && "
            f"targets[j + cap - count] <= ({step} < remaining ? t + {step} : horizon)) goto full;",
            "steps += 1;",
            *_emit_step(V, method, "c"),
        ], "c")),
        f"    q[0] = {_DONE};",
        "    goto save;",
        "escaped:",
        f"    q[0] = {_ESCAPED};",
        "    goto save;",
        "failed:",
        f"    if (steps == 0) {{ q[0] = {_LEFT_AT_START}; continue; }}",
        "    steps -= 1;",  # the orbit loop makes the failing attempt again
        "left:",
        f"    q[0] = {_LEFT};",
        "    goto save;",
        "full:",
        "    if (count == 0) goto left;",
        f"    q[0] = {_RUNNING};",
        "save:",
        *(f"    s[{i}] = {name};" for i, name in enumerate(state)),
        "    q[1] = j;",
        "    q[2] = steps;",
        f"    if (q[0] == {_RUNNING}) {{ *next = row; return count; }}",
        "}",
        "*next = m;",
        "return count;",
    ]
    return "\n".join([
        _C_PRELUDE,
        "int64_t orbits(int64_t m, int64_t *next, double *f, int64_t *l, const double *cfg,",
        "               int64_t max_steps, const double *targets, int64_t last,",
        "               double *buf, int64_t *at, int64_t cap)",
        "{", *("    " + line for line in loop), "}", ""])


# Samples per native call: each call fills at most this buffer, and each
# filled buffer reaches visit in one call. It bounds what a visit reduces
# at once: with 16,384 the peak memory of perfbench's cycle_cloud was 1.3
# MiB above the Python loops', with 4,096 it is 0.6 MiB above.
_BUFFER = 4096
_LONG_MAX = 2 ** 63 - 1
# Samples, rows x targets, from which a native run cuts its rows into
# slices that run on threads of their own. Below it the calls run in the
# caller's thread: on a 2-core Xeon, two slices took a delta probe of 81
# x 120 samples from 2.4 to 3.4 ms and a converse table of 24 x 1000 from
# 4.2 to 4.5 ms, the largest calls of the bundled problems and of
# perfbench's cycle_cloud, and perfbench's 41 x 41 x 400 ROA grid from 82
# to 66 ms (BENCH_24.json).
_PARALLEL_FROM = 16 * _BUFFER
# The most slices of a parallel run; None for the cores this process may
# run on.
_WORKERS = None


def _slices(m: int, samples: int) -> int:
    """W, the slices that a native run of m rows and samples samples cuts
    its rows into: 1 below _PARALLEL_FROM, else the cores or _WORKERS, at
    most one slice per row."""
    if samples < _PARALLEL_FROM:
        return 1
    cores = _WORKERS
    if cores is None:
        try:
            cores = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity masks here, as on macOS
            cores = os.cpu_count() or 1
    return min(cores, m)


def _sliced(calls, m: int, w: int, visit) -> None:
    """visit(*batch) of every batch of calls(lo, hi) over w contiguous
    slices [lo, hi) of range(m): with w = 1 in this thread; else each
    slice's calls run in a thread of their own, putting their batches into
    one queue of w, and visit takes them in this thread as they arrive, so
    each slice's batches in their order. Whatever stops this, visit
    raising included, every thread has ended before it returns or
    raises."""
    if w == 1:
        for batch in calls(0, m):
            visit(*batch)
        return
    import queue
    import threading

    stop = threading.Event()
    # At most 2w + 1 batches alive: w queued, one in each thread, one in visit.
    out = queue.Queue(maxsize=w)

    def work(lo, hi):
        # A slice's batches are tuples; its end is None, or what it raised.
        end = None
        try:
            for batch in calls(lo, hi):
                out.put(batch)
                if stop.is_set():
                    break
        except BaseException as exc:  # raised again in the caller's thread
            end = exc
        finally:
            out.put(end)

    threads = [threading.Thread(target=work, args=(m * i // w, m * (i + 1) // w), daemon=True)
               for i in range(w)]
    for thread in threads:
        thread.start()
    running = w
    try:
        while running:
            batch = out.get()
            if isinstance(batch, tuple):
                visit(*batch)
                continue
            running -= 1
            if batch is not None:
                raise batch
    finally:
        stop.set()
        while running:  # take the open slices' batches to their ends, so that they end
            if not isinstance(out.get(), tuple):
                running -= 1
        for thread in threads:
            thread.join()


@lru_cache(maxsize=128)
def _native(V: VectorFieldSpec, method: str):
    """The native loop of V and method, or None where it cannot be built
    or loaded.

    run(starts, targets, cfg, visit) -> (errors, left, attempts) runs the
    rows of starts, cut into W contiguous slices by _slices, and each
    slice into calls by the buffer; from _PARALLEL_FROM samples each slice
    runs in a thread of its own, through ctypes, which releases the GIL
    during a call. Each call's samples reach visit in one call, in the
    caller's thread: rows ascending and j increasing within a row, a row
    cut off by the full buffer continuing in its slice's next call; the
    calls are taken as they arrive, each slice's in their order.
    errors holds the escapes, each an EscapedDomainError of the row's time
    and state that carries its attempts; left holds, in _unfinished's
    groups, the rows stopped for the orbit loop, which resumes them; and
    attempts is the attempts of each row, up to where it stopped. A row
    runs alone, in its slice, so none of these depends on W."""
    orbits = _library(_c_source(V, method))
    if orbits is None:
        return None
    n = V.dim
    width = 2 + 2 * n

    def run(starts, targets, cfg, visit):
        m = len(starts)
        f = np.zeros((m, width))
        f[:, 2:2 + n] = starts
        l = np.zeros((m, 3), np.int64)
        ahead = np.append(targets, math.inf)
        c = np.array([cfg.dt, cfg.abs_tol, cfg.rel_tol, cfg.blowup_radius, targets[-1]])
        # steps >= max_steps as Python compares them; no run reaches 2^63 - 1.
        max_steps = math.ceil(cfg.max_steps) if cfg.max_steps < _LONG_MAX else _LONG_MAX
        cap = min(_BUFFER, m * len(targets))  # the most samples the rows have

        def calls(lo, hi):
            """The samples of each call over rows lo..hi - 1, as visit takes them."""
            next_row = np.array([lo], np.int64)
            while next_row[0] < hi:
                # A buffer per call, which visit may keep.
                buf, at = np.empty((cap, n)), np.empty((2, cap), np.int64)
                count = orbits(hi, next_row.ctypes.data, f.ctypes.data, l.ctypes.data,
                               c.ctypes.data, max_steps, ahead.ctypes.data, len(targets),
                               buf.ctypes.data, at.ctypes.data, cap)
                if count:
                    yield at[0, :count], at[1, :count], buf[:count]

        _sliced(calls, m, _slices(m, m * len(targets)), visit)
        status, attempts = l[:, 0], l[:, 2]
        errors = {}
        for row in np.flatnonzero(status == _ESCAPED).tolist():
            errors[row] = EscapedDomainError(float(f[row, 0]), f[row, 2:2 + n].tolist())
            errors[row].attempts = int(attempts[row])
        rows = np.flatnonzero(status == _LEFT)
        state = [f[rows, 0], l[rows, 1], f[rows, 2:2 + n].T]
        if method == "rk45_adaptive":
            state += [f[rows, 1], f[rows, 2 + n:].T]
        left = [(None, np.flatnonzero(status == _LEFT_AT_START)), (attempts[rows], rows, *state)]
        return errors, left, attempts

    return run


# Compiler flags of the native loop. Without contraction gcc would fuse a
# * b + c into one rounding where the target has an FMA, and builtins let
# it fuse sin and cos into sincos: either changes bits.
_CFLAGS = ("-O2", "-ffp-contract=off", "-fno-builtin", "-fPIC", "-shared")
_BUILD_TIMEOUT_S = 120
# Loaded orbits functions by the hash of their source and build, or None
# where the build or load failed: a cleared _native costs no build again.
_LIBRARIES: dict = {}


def _sha256(data: bytes) -> str:
    """The hex sha256 of data. hashlib loads OpenSSL, 3.6 MiB of memory
    on x86-64 Linux, which a run that draws no random numbers, such as
    perfbench's vdp_roa_grid, does not load otherwise; so the
    interpreter's own module is taken where it has one, as the random
    module does."""
    try:
        from _sha2 import sha256  # Python 3.12 on
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def _library(source: str):
    """The orbits function of source, built with $CC, else cc, and cached
    by the sha256 of the source, the flags, the compiler and the platform
    in ${XDG_CACHE_HOME:-~/.cache}/lyapset; None where it cannot be built
    or loaded. Nothing here is imported before the first native loop."""
    import platform
    import shlex

    try:
        compiler = shlex.split(os.environ.get("CC") or "cc")
    except ValueError:  # unbalanced quotes: no compiler
        return None
    key = _sha256("\0".join(
        [source, *_CFLAGS, *compiler, sys.platform, platform.machine()]).encode())
    if key not in _LIBRARIES:
        _LIBRARIES[key] = _open(key, source, compiler)
    return _LIBRARIES[key]


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: the default
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "lyapset")


def _open(key: str, source: str, compiler: list[str]):
    """Load the cached build of key, else build it into the cache, else,
    where the cache is not writable, into a directory for this process."""
    import tempfile

    path = os.path.join(_cache_dir(), key + ".so")
    loaded = _dlopen(path) if os.path.exists(path) else None
    if loaded is None:
        try:
            os.makedirs(os.path.dirname(path), mode=0o700, exist_ok=True)
            loaded = _compile(source, compiler, path)
        except OSError:
            with tempfile.TemporaryDirectory() as scratch:
                loaded = _compile(source, compiler, os.path.join(scratch, key + ".so"))
    return loaded


def _compile(source: str, compiler: list[str], path: str):
    """Build source into path, written under a temporary name in its
    directory and then renamed, and load it; None where the compiler is
    missing, fails or times out, or the build does not load. Raises
    OSError where the directory is not writable."""
    import subprocess
    import tempfile

    handle, building = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(path))
    os.close(handle)
    try:
        subprocess.run([*compiler, *_CFLAGS, "-o", building, "-x", "c", "-", "-lm"],
                       input=source, text=True, capture_output=True, check=True,
                       timeout=_BUILD_TIMEOUT_S)
        os.replace(building, path)
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        if os.path.exists(building):
            os.remove(building)
    return _dlopen(path)


def _dlopen(path: str):
    import ctypes

    try:
        orbits = ctypes.CDLL(path).orbits
    except (OSError, AttributeError):
        return None
    orbits.restype = ctypes.c_int64
    orbits.argtypes = [ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
                       ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
                       ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64]
    return orbits


# Work of a (field, method) from which integrate_lanes runs the native
# loop: the attempts its orbit loops made, plus rows x targets of the call
# at hand. A build takes 0.1-0.3 s, so a small run builds nothing. Of the
# 397 (field, method) pairs that the tier-1 suite of ea9f16b integrates,
# 9 reach 20k attempts, and they hold 95% of its 3.17M attempts.
_NATIVE_FROM = 20_000


def _runs_natively(cfg: IntegratorConfig, targets: np.ndarray) -> bool:
    """Whether the native loop takes cfg and targets as the orbit loop
    does: it takes the settings as doubles, where the orbit loop would
    take an int as it is, and its buffer's room check reads the targets
    as increasing."""
    return (all(isinstance(v, float) for v in (cfg.dt, cfg.abs_tol, cfg.rel_tol,
                                               cfg.blowup_radius))
            and bool(np.all(targets[1:] > targets[:-1])))


def integrate_lanes(V: VectorFieldSpec, starts, targets, cfg: IntegratorConfig, visit):
    """Integrate every row of starts through the targets.

    Each row takes the steps, and the bits, that the orbit loop
    takes from that start alone, whichever loop runs it. Once the field
    and method have done _NATIVE_FROM work, as the meter of their orbit
    loop counts it (see _compiled), _native's loop runs the rows, in
    calls of at most _BUFFER samples, from _PARALLEL_FROM samples in row
    slices on threads; each call's samples reach visit in one call, rows
    ascending within it, the calls as they arrive, and a row it
    stops before a failing attempt is resumed there by the orbit loop.
    Below that, or where no native loop can be built, one orbit loop runs
    each row. visit(rows, j, states) receives row numbers, the index in
    targets of the target each reached and the states there, (len(rows),
    n), arrays of its own: from the native loop, every (row, target) pair
    of a buffer, a row repeating, j increasing within it and across its
    calls; from an orbit loop, the row's samples in one call, j
    increasing, and for a row that the native loop stopped, only those it
    had not visited. So the order of rows across calls may change from one
    run to the next, and the order of one row's samples does not; what a
    caller reduces from its visits is the same in every run where it holds
    for any order of rows, as it does for _sweep (fmin, fmax and
    maximum.at, and the value of the largest j as the last), for
    _big_l_values and flow_rows (written by row and j) and for
    _first_exit (it stops at an exit only once every earlier row has
    ended inside). visit runs in the caller's thread, under
    np.errstate(all="ignore") either way, and what it raises passes
    through once every thread has ended. A row leaves after its last
    target, or where the orbit loop raises: on escape, a domain failure
    of the field, the step budget or a step size underflow.
    targets must be positive and strictly increasing. Returns, by failed
    row, the EscapedDomainError, EvalDomainError or StepLimitError that the
    orbit loop raises from that start alone: same type and text, and for
    an escape the same time and state bits; one raised by the orbit loop,
    or an escape of the native loop, carries the row's attempts as
    `attempts`.
    """
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 2 or starts.shape[1] != V.dim:
        raise DimensionMismatchError(f"starts must be (m, {V.dim}), got {starts.shape}")
    if not np.all(np.isfinite(starts)):
        raise ValueError("state point coordinates must be finite")
    targets = np.asarray(targets, dtype=float)
    times = targets.tolist()  # the orbit loop runs on floats
    orbit = _compiled(V, cfg.method)
    orbit.work = getattr(orbit, "work", 0) + len(starts) * len(times)
    native = None
    if orbit.work >= _NATIVE_FROM and _runs_natively(cfg, targets):
        native = _native(V, cfg.method)
    with np.errstate(all="ignore"):
        errors, left = {}, [(None, np.arange(len(starts)))]
        if native is not None:
            errors, left, _ = native(starts, targets, cfg, visit)
        for row, y, resume in _unfinished(starts, left):
            out: list = []
            try:
                attempts = orbit(y, times, cfg, out, resume)
            except (EscapedDomainError, EvalDomainError, StepLimitError) as exc:
                # Kept bare: the frames of its traceback, or its cause's, link
                # back to ones holding errors, a cycle only the collector frees.
                errors[row] = exc.with_traceback(None)
                exc.__cause__ = exc.__context__ = None
                attempts = exc.attempts
            orbit.work += attempts
            if out:
                j = resume[1] if resume else 0
                visit(np.full(len(out), row), np.arange(j, j + len(out)), np.array(out))
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
