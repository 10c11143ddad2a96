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
reaches visit in one call. A call keeps two rows in flight, their
attempts alternating, so that one core overlaps the chains of dependent
stages of two orbits; a buffer therefore holds the samples of two rows
interleaved, each row's in order. A run of _PARALLEL_FROM samples or more
cuts its rows into one contiguous slice per core, each slice's calls on
a thread of its own, as ctypes releases the GIL during a call; visit
still runs in the caller's thread, taking the buffers as they arrive,
each slice's in their order. A row runs within one slice and runs the
same statements whichever row shares its call, so its samples, error and
attempts depend neither on the slices nor on the lanes. Given a point, a
ball or a box, the C loop also takes each sample's distance to it with
the set's own bits: it passes them to visit, ends a row at its first
distance outside a given epsilon, or reduces them per row and per target
in C, so that those samples never reach visit. One C function, in the
prelude of every native source, takes those distances; a second source,
built once for every dimension, runs the shell rays of
geometry._shell_points with it for such a set, and for a point cloud
with the sorted scan of a third, the nearest-member search that takes a
point cloud's distances. Each build is
cached under ${XDG_CACHE_HOME:-~/.cache}/lyapset, until it has not been
loaded for _STALE_S when a new build is written, and it is made with
contraction and builtins off, so that gcc neither fuses a * b + c nor
merges sin and cos: the native loop's bits are the orbit loop's. Where
the orbit loop raises inside the field, and on an exhausted budget or a
step size underflow, the native loop stops the row before that attempt
and the orbit loop resumes it there, from the row's loop state, and
raises the exact error; an escape comes back as its time and state. So
no orbit is integrated twice. Without a compiler, or where a build or
load fails, the orbit loop runs every start, and NumPy every shell ray
and cloud distance, with the same bits.
"""

from __future__ import annotations

import contextlib
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
from .geometry import Box, ClosedBall, CompactSet, PointCloud, SinglePoint, as_point

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
        # As doubles, so that the orbit loop and the native loop compute alike.
        for name in ("dt", "rel_tol", "abs_tol", "blowup_radius"):
            object.__setattr__(self, name, float(getattr(self, name)))


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
    condition, over the lines body: in Python, or in C. In Python, head
    may also open a for loop or a def."""
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
    loop, which raises there. It takes each sample as _c_sample does:
    where it writes samples to the buffer, as _c_source lays it out, the
    buffer has room for every target the step can pass."""
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
        orbit loop appends each sample to out, the C loop takes it as
        _c_sample does."""
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
            record = lambda values: [f"p[{i}] = {v};" for i, v in enumerate(values)]  # noqa: E731
            advance = _c_sample(n)
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
# attempt, failed in the field at its start, or finished at a sample not
# within epsilon of the set.
_FRESH, _RUNNING, _DONE, _ESCAPED, _LEFT, _LEFT_AT_START, _EXITED = range(7)

# The sets whose distances the native loop takes, by their kind there, 0
# for none: these classes themselves, as a subclass may measure otherwise.
_POINT, _BALL, _BOX = 1, 2, 3
_SET_KINDS = {SinglePoint: _POINT, ClosedBall: _BALL, Box: _BOX}


@dataclass(frozen=True, eq=False)
class _Near:
    """The set M whose distances a caller of integrate_lanes reduces, for
    the native loop to take them itself, as _c_sample does, where it takes
    M's. A finite epsilon ends a row at its first sample whose distance is
    not < epsilon. With sums, (m, 3) and C-contiguous, the native loop
    reduces each row's distances into sums[row], (lowest, latest, largest
    at a target j >= tail), from the values there, and each target's
    largest into peak, instead of passing them to visit."""

    M: CompactSet
    epsilon: float = math.inf
    sums: np.ndarray | None = None
    peak: np.ndarray | None = None
    tail: int = 0


def _set_params(M: CompactSet | None, n: int, epsilon: float = math.inf) -> np.ndarray:
    """The set argument of the native code: (kind, epsilon, radius), then
    the point or the centre, or lo and hi; kind 0 where M is not a set
    whose distances that code takes, or is None."""
    params = np.zeros(3 + 2 * n)
    kind = _SET_KINDS.get(type(M), 0)
    if kind:
        vectors = (M.lo, M.hi) if kind == _BOX else (M.center if kind == _BALL else M.point,)
        params[:3] = kind, epsilon, M.radius if kind == _BALL else 0.0
        params[3:3 + n * len(vectors)] = np.concatenate(vectors)
    return params


def _c_sample(n: int) -> list[str]:
    """The C statements that take the sample p at targets[j] of row, and
    d, its set_distance. With sums, the row's reductions and the slice's
    peak at j take d, min2 and max2 being fmin and fmax where the value
    reduced into is not NaN, as it never is; else the sample, its distance
    and its row and j go to the buffer. Then it moves to the next target,
    and where stops, it ends the row at a distance not < epsilon."""
    return [
        f"d = set_distance(set, p, {n});",
        *_block("if sums", ["u = sums + 3 * row;", "u[0] = min2(u[0], d);", "u[1] = d;",
                            "if (j >= tail) u[2] = max2(u[2], d);",
                            "peak[j] = max2(peak[j], d);"], "c"),
        *_block("else", [*(f"buf[{n} * count + {i}] = p[{i}];" for i in range(n)),
                         "if (kind) dist[count] = d;",
                         "at[count] = row;", "at[cap + count] = j;", "count += 1;"], "c"),
        "j += 1;",
        "target = targets[j];",
        "if (stops && !(d < epsilon)) goto exited;",
    ]


# The C code that begins every native source. set_distance(set, p, n) is
# the distance of the point p of n coordinates to the set of _set_params'
# array, 0 for kind 0, by the set's operations in its order, so with its
# own bits: a norm is the square root of the squares summed from left to
# right (squares), as geometry._squared sums them; a ball's distance is
# max(0, norm - radius) as np.maximum takes it, and a box's the norm of
# p - clip(p, lo, hi).
_C_PRELUDE = """#include <float.h>
#include <math.h>
#include <stdint.h>

#if FLT_EVAL_METHOD != 0
#error "each double operation must round to double"
#endif

""" + f"enum {{ BALL = {_BALL}, BOX = {_BOX} }};" + """

static inline double min2(double a, double b) { return b < a ? b : a; }
static inline double max2(double a, double b) { return b > a ? b : a; }

static inline double squares(const double *p, const double *q, int64_t n)
{
    double s = 0.0, e;
    int64_t c;
    for (c = 0; c < n; c++) {
        e = p[c] - q[c];
        s = s + e * e;
    }
    return s;
}

static inline double set_distance(const double *set, const double *p, int64_t n)
{
    const int64_t kind = (int64_t) set[0];
    const double *lo = set + 3, *hi = set + 3 + n;
    double d = 0.0, e;
    int64_t c;
    if (kind == BOX) {
        for (c = 0; c < n; c++) {
            e = p[c] - (p[c] < lo[c] ? lo[c] : p[c] > hi[c] ? hi[c] : p[c]);
            d = d + e * e;
        }
        return sqrt(d);
    }
    d = kind ? sqrt(squares(p, set + 3, n)) : 0.0;
    if (kind == BALL)
        d = 0.0 >= d - set[2] ? 0.0 : d - set[2];
    return d;
}
"""

# What the attempts of a lane return where the buffer has no room for the
# targets the next step could pass but holds samples: the row stays
# _RUNNING and the call returns.
_FULL = -1
# Each lane's attempts are inlined, so that its loop state stays in
# registers; the start of a row is not, as it runs once per row.
_INLINE = "static inline __attribute__((always_inline))"


def _c_source(V: VectorFieldSpec, method: str) -> str:
    """The C translation unit of the native loop of V and method: one
    function,

        int64_t orbits(int64_t m, int64_t *next, double *f, int64_t *l,
                       const double *cfg, int64_t max_steps, int64_t last,
                       double *buf, int64_t *at, double *dist,
                       int64_t cap, double *sums, double *peak,
                       int64_t tail)

    which runs the rows from next[0] to m - 1 around the _emit_step body
    in C, as the orbit loop runs them in Python, two rows in flight. A
    lane holds one row's loop state; the two lanes' attempts alternate,
    and a lane whose row ends takes the next row. A row runs exactly the
    statements it runs alone, so nothing of it depends on the other lane:
    the lanes only let the core overlap two chains of dependent stages.
    One lane runs on alone, in a loop of its own, once no row is left to
    take, and always where a finite epsilon stops rows, so that a stop
    ends the call as soon as it happens.

    Row r's loop state is f[r], (t, h_next, y, k1), of which RK4 keeps t
    and y, and l[r], (status, j, attempts); cfg is (dt, abs_tol,
    rel_tol, blowup_radius, horizon), then the set, _set_params' array,
    then the last targets and inf. next[0] is the lowest row not
    finished: a call takes the rows from there whose status is _FRESH or
    _RUNNING, in ascending order. Where the set's kind is not 0 the
    function takes each sample's distance to the set, and a finite
    epsilon ends a row, finished, at its first distance not < epsilon,
    and the call with it, so that the caller sees the exit. With sums,
    each sample's distance is reduced into sums and peak as _Near lays
    them out, with tail its first target there, and nothing is written to
    the buffer, which has no room then. Else samples go to the buffer,
    cap of them: the k-th state to buf[k], its distance, where kind is
    not 0, to dist[k], its row to at[k] and its j to at[cap + k]. Before
    an attempt that could pass more targets than the buffer has room for,
    the function saves the rows in flight as _RUNNING and returns the
    count of samples written; after the last row, next[0] is m. It stops
    a row for the orbit loop, to be resumed where the Python loop raises,
    before the attempt: on an exhausted budget, a failure in the field or
    a step size underflow, or when one step passes more targets than the
    whole buffer holds."""
    n = V.dim
    ys = [f"y{i}" for i in range(n)]
    adaptive = method == "rk45_adaptive"
    width = 2 + 2 * n
    # Where f[r] holds each name of a row's loop state, and the names kept.
    slots = {name: i for i, name in enumerate(["t", "h_next", *ys, *(f"k1_{i}" for i in range(n))])}
    state = list(slots) if adaptive else ["t", *ys]
    lane = [*state, "target"]
    temporaries = ["h", "t_old", "remaining", "theta", "d", f"p[{n}]"]
    per_coordinate = [f"s{s}_" for s in range(2, 6)]
    if adaptive:
        temporaries += ["a", "b", "enorm", "factor", "theta1"]
        per_coordinate += ["r", "dd_", "c3_", "c4_", "c5_", "s6_", "s7_"]
    else:
        temporaries += ["b1", "b2", "b4"]
    temporaries += [f"{name}{i}" for name in per_coordinate for i in range(n)]
    # The arguments of orbits after l, which the attempts read too.
    call = ("const double *cfg, int64_t max_steps, int64_t last, double *buf, int64_t *at, "
            "double *dist, int64_t cap, double *sums, double *peak, int64_t tail")

    def labels(body, ends):
        """The lines of the labels of ends, (label, lines), that body jumps to."""
        text = "\n".join(body)
        return [line for label, lines in ends if f"goto {label};" in text
                for line in [f"{label}:", *lines]]

    # take(row, ...): the first row from row on that is _FRESH or _RUNNING,
    # started where it is _FRESH, or m where none is left. A start that
    # escapes, or fails in the field, ends its row there.
    start = _escape_test(ys, "c")
    started = []
    if adaptive:  # h_next is min(dt, horizon)
        k1 = _emit_results(V.components, ys, start, "c")
        start += [*(f"k1_{i} = {k};" for i, k in enumerate(k1)),
                  "h_next = horizon < dt ? horizon : dt;"]
        started = [f"s[{slots[name]}] = {name};" for name in state if name not in ("t", *ys)]
    take = [
        "const double radius2 = cfg[3] * cfg[3];",
        *(["const double dt = cfg[0], horizon = cfg[4];"] if adaptive else []),
        f"double {', '.join(state[1:])};",
        "double *s;",
        "int64_t *q;",
        *_block("for ; row < m; row++", [
            f"s = f + {width} * row;",
            "q = l + 3 * row;",
            f"if (q[0] == {_RUNNING}) return row;",
            f"if (q[0] != {_FRESH}) continue;",
            *(f"{y} = s[{slots[y]}];" for y in ys),
            "{", *("    " + line for line in start), "}",
            *started,
            "return row;",
            *labels(start, [("escaped", [f"q[0] = {_ESCAPED};", "continue;"]),
                            ("failed", [f"q[0] = {_LEFT_AT_START};"])])], "c"),
        "return m;",
    ]
    # load(L, row, ...) and save(L, status, ...) move a row's loop state
    # between the arrays and lane L; attempts(L, alone, ...) makes one
    # attempt of L's row, or with alone every attempt until the row ends or
    # stops, and returns the row's status, or _FULL.
    load = [
        f"const double *s = f + {width} * row;",
        "const int64_t *q = l + 3 * row;",
        *(f"L->{name} = s[{slots[name]}];" for name in state),
        "L->target = targets[q[1]];",
        "L->row = row;",
        "L->j = q[1];",
        "L->steps = q[2];",
    ]
    step = "h_next" if adaptive else "dt"
    body = _emit_step(V, method, "c")
    attempts = [
        "const double atol = cfg[1], rtol = cfg[2];" if adaptive else "const double dt = cfg[0];",
        "const double radius2 = cfg[3] * cfg[3], horizon = cfg[4];",
        f"const double *set = cfg + 5, *targets = cfg + {8 + 2 * n}, epsilon = set[1];",
        "const int64_t kind = (int64_t) set[0];",
        "const int stops = kind != 0 && epsilon < HUGE_VAL;",
        "const int64_t row = L->row;",
        f"double {', '.join(f'{name} = L->{name}' for name in lane)};",
        f"int64_t j = L->j, steps = L->steps, count = *counted, status = {_RUNNING};",
        f"double {', '.join(temporaries)}, *u;",
        "do {",
        *("    " + line for line in [
            "remaining = horizon - t;",
            "if (steps >= max_steps) goto left;",
            # The targets an accepted attempt passes lie in (t, t_new],
            # with t_new = t + h, or the horizon where h is remaining.
            "if (!sums && j + cap - count < last && "
            f"targets[j + cap - count] <= ({step} < remaining ? t + {step} : horizon)) goto full;",
            "steps += 1;",
            *body]),
        "} while (alone && t < horizon);",
        f"if (!(t < horizon)) status = {_DONE};",
        "goto save;",
        # After a failure the orbit loop makes the failing attempt again.
        *labels(body, [("escaped", [f"status = {_ESCAPED};", "goto save;"]),
                       ("exited", [f"status = {_EXITED};", "goto save;"]),
                       ("failed", ["steps -= 1;"])]),
        "left:",
        f"status = {_LEFT};",
        "goto save;",
        "full:",
        f"status = count ? {_FULL} : {_LEFT};",
        "save:",
        *(f"L->{name} = {name};" for name in lane),
        "L->j = j;",
        "L->steps = steps;",
        "*counted = count;",
        "return status;",
    ]
    save = [
        f"double *s = f + {width} * L->row;",
        "int64_t *q = l + 3 * L->row;",
        "q[0] = status;",
        *(f"s[{slots[name]}] = L->{name};" for name in state),
        "q[1] = L->j;",
        "q[2] = L->steps;",
    ]
    arguments = "&count, cfg, max_steps, last, buf, at, dist, cap, sums, peak, tail"

    def take_into(L, ended):
        """Take the next row into lane L, else do ended."""
        return ["cursor = take(cursor, m, f, l, cfg);", f"if (cursor == m) {ended}",
                f"load(&{L}, cursor, f, l, targets);", "cursor += 1;"]

    def lanes(L, ended):
        """An attempt of lane L of two; where its row ends, take the next."""
        return [f"status = attempts(&{L}, 0, {arguments});",
                *_block(f"if status != {_RUNNING}", [
                    f"if (status == {_FULL}) goto full;",
                    f"save(&{L}, status, f, l);", *take_into(L, ended)], "c")]

    orbits = [
        f"const double *targets = cfg + {8 + 2 * n};",
        "const int stops = (int64_t) cfg[5] != 0 && cfg[6] < HUGE_VAL;",
        "int64_t count = 0, cursor = next[0], status;",
        "struct lane A, B;",
        *take_into("A", "goto finished;"),
        "if (stops) goto alone;",
        *take_into("B", "goto alone;"),
        *_block("for ;;", [*lanes("A", "{ A = B; goto alone; }"), *lanes("B", "goto alone;")],
                "c"),
        "full:",
        f"save(&A, {_RUNNING}, f, l);",
        f"save(&B, {_RUNNING}, f, l);",
        "next[0] = A.row < B.row ? A.row : B.row;",
        "return count;",
        "alone:",
        *_block("for ;;", [
            f"status = attempts(&A, 1, {arguments});",
            f"if (status == {_FULL}) {{ save(&A, {_RUNNING}, f, l); next[0] = A.row; "
            "return count; }",
            "save(&A, status, f, l);",
            f"if (status == {_EXITED}) {{ next[0] = cursor; return count; }}",
            *take_into("A", "break;")], "c"),
        "finished:",
        "next[0] = m;",
        "return count;",
    ]

    def function(head, lines):
        return [head, "{", *("    " + line for line in lines), "}", ""]

    return "\n".join([
        _C_PRELUDE,
        f"struct lane {{ double {', '.join(lane)}; int64_t row, j, steps; }};", "",
        *function("static __attribute__((noinline)) int64_t take(int64_t row, int64_t m, "
                  "double *f, int64_t *l, const double *cfg)", take),
        *function(f"{_INLINE} void load(struct lane *L, int64_t row, const double *f, "
                  "const int64_t *l, const double *targets)", load),
        *function(f"{_INLINE} int64_t attempts(struct lane *L, int alone, int64_t *counted, "
                  f"{call})", attempts),
        *function(f"{_INLINE} void save(const struct lane *L, int64_t status, double *f, "
                  "int64_t *l)", save),
        *function(f"int64_t orbits(int64_t m, int64_t *next, double *f, int64_t *l, {call})",
                  orbits),
    ])


# The nearest-member search of a point cloud: Friedman, Baskett & Shustek
# (IEEE Trans. Comput. C-24, 1975) over the members sorted on one
# coordinate, the key. scan(p, ...) scans down from p's place in the key,
# then up, and a side ends at its first member whose gap on the key,
# squared, is not below the best squared distance so far: that square is a
# term of the member's sum, a rounded sum of squares is never below one of
# its terms, and the gaps only grow along a side. So every member left out
# has a sum at least the best, and scan returns the exact minimum of best
# and the sums, taken from left to right, as geometry._squared takes them:
# from best = HUGE_VAL, its root has the sorted-window search's bits.
# With stop, it returns the first sum s below best with r - sqrt(s) > tol:
# the distance is at most sqrt(s), so it is below r - tol too. stop is a
# constant at each call, so nearest compiles without that test. One side,
# then the other, and not the nearer gap first: that branch mispredicts,
# and on a 2-core Xeon it took the 31,816 queries of perfbench's
# cycle_cloud from 7.9 to 15.4 ms, for 4% fewer members tested.
_SCAN = f"""
{_INLINE} double scan(const double *p, int64_t k, int64_t n, int64_t axis,
                      const double *members, const double *key, double best,
                      int stop, double r, double tol)
""" + """{
    const double at = p[axis];
    double e, s;
    int64_t j, lo = 0, hi = k, mid;
    while (lo < hi) {
        mid = lo + (hi - lo) / 2;
        if (key[mid] < at) lo = mid + 1; else hi = mid;
    }
    for (j = lo - 1; j >= 0; j--) {
        e = at - key[j];
        if (!(e * e < best)) break;
        s = squares(p, members + n * j, n);
        if (stop && s < best && r - sqrt(s) > tol) return s;
        best = min2(best, s);
    }
    for (j = lo; j < k; j++) {
        e = key[j] - at;
        if (!(e * e < best)) break;
        s = squares(p, members + n * j, n);
        if (stop && s < best && r - sqrt(s) > tol) return s;
        best = min2(best, s);
    }
    return best;
}
"""

# geometry._shell_points' search in C, for each of the m rays of n
# coordinates, as its NumPy loops run it. Ray i starts at base[i] along
# the unit vector u[i], rows of n. Its outer bound s starts at r[i] and
# doubles, up to 90 times, while base[i] + s u[i] lies at a distance <
# r[i] from the set. Then up to 256 halvings of [lo, hi] = [0, s], at mid
# = 0.5 (lo + hi), look for a point at a distance within tol[i] of r[i];
# out[i] is that point, else the midpoint of the last bounds. |d - r| <=
# tol is tested on both signs, as r - d is exactly -(d - r) and, with
# builtins off, fabs is a call. set is _set_params' array. With k = 0 its
# kind is not 0, and set_distance's distances give every point the NumPy
# loops' bits. Else the set is the cloud of k members sorted on axis (key),
# and a point depends only on two tests of each d, d < r and |d - r| <=
# tol, which scan's d settles. It starts from a bound U = (r + 2 tol)^2
# where sqrt(U) - r > tol, else HUGE_VAL: where no sum is below U, d =
# sqrt(U) and the exact distance are both beyond r + tol; where it stops
# early, both are below r - tol; otherwise d is exact. So a cloud's points
# have those bits too.
_SHELL_SOURCE = _C_PRELUDE + _SCAN + """
static inline double distance(const double *set, const double *p, int64_t n, int64_t k,
                              int64_t axis, const double *members, const double *key,
                              double bound, double r, double tol)
{
    return k ? sqrt(scan(p, k, n, axis, members, key, bound, 1, r, tol))
             : set_distance(set, p, n);
}

void shell(int64_t m, int64_t n, int64_t k, int64_t axis, const double *base,
           const double *u, const double *r, const double *tol, const double *set,
           const double *members, const double *key, double *out)
{
    const double *b, *v;
    double s_lo, s_hi, mid, d, bound, *p;
    int64_t i, t, c;
    for (i = 0; i < m; i++) {
        b = base + n * i;
        v = u + n * i;
        p = out + n * i;
        bound = (r[i] + 2.0 * tol[i]) * (r[i] + 2.0 * tol[i]);
        if (!(sqrt(bound) - r[i] > tol[i])) bound = HUGE_VAL;
        s_hi = r[i];
        for (t = 0; t < 90; t++) {
            for (c = 0; c < n; c++)
                p[c] = b[c] + s_hi * v[c];
            if (!(distance(set, p, n, k, axis, members, key, bound, r[i], tol[i]) < r[i]))
                break;
            s_hi = s_hi * 2.0;
        }
        s_lo = 0.0;
        for (t = 0; t < 256; t++) {
            mid = 0.5 * (s_lo + s_hi);
            for (c = 0; c < n; c++)
                p[c] = b[c] + mid * v[c];
            d = distance(set, p, n, k, axis, members, key, bound, r[i], tol[i]);
            if (d - r[i] <= tol[i] && r[i] - d <= tol[i]) break;
            if (d < r[i]) s_lo = mid; else s_hi = mid;
        }
        if (t == 256) {
            mid = 0.5 * (s_lo + s_hi);
            for (c = 0; c < n; c++)
                p[c] = b[c] + mid * v[c];
        }
    }
}
"""


@lru_cache(maxsize=None)
def _shell_search():
    """The shell function of _SHELL_SOURCE, or None where it cannot be
    built or loaded."""
    return _library(_SHELL_SOURCE, "shell")


def _shell_rays(M: CompactSet, base: np.ndarray, u: np.ndarray, r: np.ndarray,
                tol: np.ndarray) -> np.ndarray | None:
    """The points of geometry._shell_points' rays from base along u,
    found in C with the bits of its NumPy loops; None where M is neither a
    set whose distances the native code takes (_set_params) nor a
    PointCloud itself, where a cloud's ray could reach a point that is not
    finite, on which its distances raise, or where the shell function
    cannot be built or loaded, so that the caller runs them. base and u
    are C-contiguous float64 arrays of r.size rows and M.dim columns, r a
    float64 array and tol a C-contiguous one of r.size entries."""
    params = _set_params(M, M.dim)
    cloud = type(M) is PointCloud
    # A ray's points lie within |r| 2^90 of its base, a member, so below
    # this bound they are finite.
    if cloud and not np.abs(r).max(initial=0.0) < 2.0 ** -91 * (1e300 - np.abs(base).max(initial=0.0)):
        return None
    shell = _shell_search() if params[0] or cloud else None
    if shell is None:
        return None
    axis, members, key = M._sorted() if cloud else (0, params, params[:0])
    # Named, so that each array outlives the call that reads it.
    arrays = (base, u, np.ascontiguousarray(r), tol, params, members, key, np.empty_like(u))
    shell(r.size, M.dim, key.size, axis, *(a.ctypes.data for a in arrays))
    return arrays[-1]


_NEAREST_SOURCE = _C_PRELUDE + _SCAN + """
void nearest(int64_t m, const double *queries, int64_t k, int64_t n, int64_t axis,
             const double *members, const double *key, double *out)
{
    int64_t i;
    for (i = 0; i < m; i++)
        out[i] = sqrt(scan(queries + n * i, k, n, axis, members, key, HUGE_VAL, 0, 0.0, 0.0));
}
"""


@lru_cache(maxsize=None)
def _nearest_kernel():
    """The nearest function of _NEAREST_SOURCE, or None where it cannot be
    built or loaded."""
    return _library(_NEAREST_SOURCE, "nearest")


def _nearest(M: PointCloud, queries: np.ndarray) -> np.ndarray | None:
    """The distances of queries, finite points in a C-contiguous float64
    array of M.dim columns, to the cloud M, in C; None where the search
    cannot be built or loaded, so that the caller searches in NumPy."""
    search = _nearest_kernel()
    if search is None:
        return None
    axis, members, key = M._sorted()
    out = np.empty(queries.shape[0])
    search(queries.shape[0], queries.ctypes.data, key.size, M.dim, axis,
           members.ctypes.data, key.ctypes.data, out.ctypes.data)
    return out


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


def _address(a: np.ndarray | None):
    """The address of a's data for ctypes, None for None."""
    return None if a is None else a.ctypes.data


@lru_cache(maxsize=128)
def _native(V: VectorFieldSpec, method: str):
    """The native loop of V and method, or None where it cannot be built
    or loaded.

    run(starts, targets, cfg, visit, near=None) -> (errors, left, attempts)
    runs the rows of starts, cut into W contiguous slices by _slices, and
    each slice into calls by the buffer; from _PARALLEL_FROM samples each
    slice runs in a thread of its own, through ctypes, which releases the
    GIL during a call. A call keeps two rows in flight, as _c_source
    describes, and each call's samples reach visit in one call, in the
    caller's thread: the two rows' samples interleaved, j increasing
    within a row, a row cut off by the full buffer continuing in its
    slice's next call; the calls are taken as they arrive, each slice's in
    their order. Where
    near's set is one whose distances the loop takes (_set_params), visit
    takes them too, as a fourth argument, and a row that an epsilon ends
    ends its call; with near.sums, the rows' distances are reduced into
    near's arrays, each slice's peak into its own array, merged with fmax
    once every slice has ended, and no sample reaches visit.
    errors holds the escapes, each an EscapedDomainError of the row's time
    and state that carries its attempts; left holds, in _unfinished's
    groups, the rows stopped for the orbit loop, which resumes them; and
    attempts is the attempts of each row, up to where it stopped. A row
    runs within its slice, and the same statements beside any other row,
    so none of these depends on W or on which rows share a call."""
    orbits = _library(_c_source(V, method), "orbits")
    if orbits is None:
        return None
    n = V.dim
    width = 2 + 2 * n

    def run(starts, targets, cfg, visit, near=None):
        m = len(starts)
        f = np.zeros((m, width))
        f[:, 2:2 + n] = starts
        l = np.zeros((m, 3), np.int64)
        near_set = _set_params(near.M, n, near.epsilon) if near else _set_params(None, n)
        c = np.concatenate([(cfg.dt, cfg.abs_tol, cfg.rel_tol, cfg.blowup_radius, targets[-1]),
                            near_set, targets, (math.inf,)])
        # steps >= max_steps as Python compares them; no run reaches 2^63 - 1.
        max_steps = math.ceil(cfg.max_steps) if cfg.max_steps < _LONG_MAX else _LONG_MAX
        sums = near.sums if near_set[0] else None
        if sums is not None and not all(
                a.shape == shape and a.dtype == np.float64 and a.flags.c_contiguous
                and a.flags.writeable for a, shape in ((sums, (m, 3)), (near.peak, targets.shape))):
            raise ValueError("near.sums and near.peak must be writable C-contiguous float64 "
                             "arrays of shapes (rows, 3) and (targets,)")
        # The most samples the rows have, and none where they are reduced.
        cap = 0 if sums is not None else min(_BUFFER, m * len(targets))
        peaks = []

        # Addresses are taken once per run where they can be, as each
        # costs a microsecond or two.
        fixed = (f.ctypes.data, l.ctypes.data, c.ctypes.data, max_steps, len(targets))

        def calls(lo, hi):
            """The samples of each call over rows lo..hi - 1, as visit takes them."""
            next_row = np.array([lo], np.int64)
            peak = None if sums is None else np.full(len(targets), -math.inf)
            peaks.append(peak)
            head = (hi, next_row.ctypes.data, *fixed)
            rest = (cap, _address(sums), _address(peak), 0 if sums is None else near.tail)
            while next_row[0] < hi:
                # A buffer per call, which visit may keep.
                buf, at = np.empty((cap, n)), np.empty((2, cap), np.int64)
                dist = np.empty(cap) if near_set[0] and sums is None else None
                count = orbits(*head, buf.ctypes.data, at.ctypes.data, _address(dist), *rest)
                if count:
                    yield at[0, :count], at[1, :count], buf[:count], *(
                        () if dist is None else (dist[:count],))

        _sliced(calls, m, _slices(m, m * len(targets)), visit)
        if sums is not None:
            for peak in peaks:  # exact maxima, in any order of the slices
                np.fmax(near.peak, peak, out=near.peak)
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
# A cached build that no process has loaded for this long is removed when
# a new build is written beside it: every load touches its build's mtime.
_STALE_S = 30 * 24 * 3600
# The functions that the C sources export: their result, then their
# arguments, by letter: i an int64_t, p a pointer, v no value.
_EXPORTS = {"orbits": "iippppiipppippi", "shell": "viiiipppppppp", "nearest": "vipiiippp"}
# Loaded functions by the hash of their source and build, or None where
# the build or load failed: a cleared _native costs no build again.
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


def _library(source: str, name: str):
    """The function name of source, as _EXPORTS types it, built with $CC,
    else cc, and cached by the sha256 of the source, the flags, the
    compiler and the platform in ${XDG_CACHE_HOME:-~/.cache}/lyapset; None
    where it cannot be built or loaded. Nothing here is imported before
    the first native call."""
    import platform
    import shlex

    try:
        compiler = shlex.split(os.environ.get("CC") or "cc")
    except ValueError:  # unbalanced quotes: no compiler
        return None
    key = _sha256("\0".join(
        [source, *_CFLAGS, *compiler, sys.platform, platform.machine()]).encode())
    if key not in _LIBRARIES:
        _LIBRARIES[key] = _open(key, source, compiler, name)
    return _LIBRARIES[key]


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: the default
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "lyapset")


def _open(key: str, source: str, compiler: list[str], name: str):
    """Load the cached build of key and touch it, else build it into the
    cache and remove the builds there that are _STALE_S old, else, where
    the cache is not writable, build it into a directory for this
    process."""
    import tempfile

    path = os.path.join(_cache_dir(), key + ".so")
    loaded = _dlopen(path, name) if os.path.exists(path) else None
    if loaded is not None:
        with contextlib.suppress(OSError):
            os.utime(path)
        return loaded
    try:
        os.makedirs(os.path.dirname(path), mode=0o700, exist_ok=True)
        loaded = _compile(source, compiler, path, name)
    except OSError:
        with tempfile.TemporaryDirectory() as scratch:
            return _compile(source, compiler, os.path.join(scratch, key + ".so"), name)
    if loaded is not None:
        _prune(os.path.dirname(path))
    return loaded


def _prune(directory: str) -> None:
    """Remove the builds in directory that no process has loaded for
    _STALE_S; one that cannot be read or removed stays."""
    import time

    stale = time.time() - _STALE_S
    with contextlib.suppress(OSError), os.scandir(directory) as entries:
        for entry in entries:
            with contextlib.suppress(OSError):
                if entry.name.endswith(".so") and entry.stat().st_mtime < stale:
                    os.remove(entry.path)


def _compile(source: str, compiler: list[str], path: str, name: str):
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
    return _dlopen(path, name)


def _dlopen(path: str, name: str):
    import ctypes

    try:
        function = getattr(ctypes.CDLL(path), name)
    except (OSError, AttributeError):
        return None
    types = {"i": ctypes.c_int64, "p": ctypes.c_void_p, "v": None}
    function.restype, *function.argtypes = (types[letter] for letter in _EXPORTS[name])
    return function


# Work of a (field, method) from which integrate_lanes runs the native
# loop: the attempts its orbit loops made, plus rows x targets of the call
# at hand. A build takes 0.2-0.7 s, so a small run builds nothing. Of the
# 397 (field, method) pairs that the tier-1 suite of ea9f16b integrates,
# 9 reach 20k attempts, and they hold 95% of its 3.17M attempts.
_NATIVE_FROM = 20_000


def integrate_lanes(V: VectorFieldSpec, starts, targets, cfg: IntegratorConfig, visit,
                    near: _Near | None = None):
    """Integrate every row of starts through the targets.

    Each row takes the steps, and the bits, that the orbit loop
    takes from that start alone, whichever loop runs it. Once the field
    and method have done _NATIVE_FROM work, as the meter of their orbit
    loop counts it (see _compiled), _native's loop runs the rows, in
    calls of at most _BUFFER samples, from _PARALLEL_FROM samples in row
    slices on threads; each call keeps two rows in flight and its samples
    reach visit in one call, the calls as they arrive, and a row it
    stops before a failing attempt is resumed there by the orbit loop.
    Below that, or where no native loop can be built, one orbit loop runs
    each row. visit(rows, j, states) receives row numbers, the index in
    targets of the target each reached and the states there, (len(rows),
    n), arrays of its own: from the native loop, every (row, target) pair
    of a buffer, the samples of its two rows in flight interleaved, not
    ascending, j increasing within a row and across its calls; from an
    orbit loop, the row's samples in one call, j increasing, and for a
    row that the native loop stopped, only those it had not visited. So
    the order of rows within and across calls may change from one run to
    the next, and the order of one row's samples does not; what a caller
    reduces from its visits is the same in every run where it holds for
    any order of rows, as it does for _sweep (fmin, fmax and maximum.at,
    and the value of the largest j as the last), for _big_l_values,
    flow_rows and render._sampled_orbits (written by row and j) and for
    _first_exit (it stops at an exit only once every earlier row has
    ended inside). visit runs in the caller's thread, under
    np.errstate(all="ignore") either way, and what it raises passes
    through once every thread has ended. A row leaves after its last
    target, or where the orbit loop raises: on escape, a domain failure
    of the field, the step budget or a step size underflow.
    A caller that reduces distances to a set passes near, a _Near. Where
    the native loop takes that set's distances, it passes them to visit
    as a fourth argument, d, with the set's own bits; a finite
    near.epsilon then ends a native row, finished, at its first sample
    whose distance is not < epsilon, and its call with it, as such a run
    keeps one row in flight per call; with near.sums the native rows
    reduce their distances there and reach no visit. The orbit loop's rows, the resumed ones
    included, always reach visit with three arguments, and the caller
    takes their distances and reduces them itself.
    targets must be positive and strictly increasing, else it raises
    ValueError. Returns, by failed row, the EscapedDomainError,
    EvalDomainError or StepLimitError that the orbit loop raises from that
    start alone: same type and text, and for an escape the same time and
    state bits; one raised by the orbit loop, or an escape of the native
    loop, carries the row's attempts as `attempts`.
    """
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 2 or starts.shape[1] != V.dim:
        raise DimensionMismatchError(f"starts must be (m, {V.dim}), got {starts.shape}")
    if not np.all(np.isfinite(starts)):
        raise ValueError("state point coordinates must be finite")
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 1 or not (targets.size and targets[0] > 0
                                 and np.all(targets[1:] > targets[:-1])):
        raise ValueError("targets must be a nonempty 1-D array, positive and strictly increasing")
    times = targets.tolist()  # the orbit loop runs on floats
    orbit = _compiled(V, cfg.method)
    orbit.work = getattr(orbit, "work", 0) + len(starts) * len(times)
    native = _native(V, cfg.method) if orbit.work >= _NATIVE_FROM else None
    with np.errstate(all="ignore"):
        errors, left = {}, [(None, np.arange(len(starts)))]
        if native is not None:
            errors, left, _ = native(starts, targets, cfg, visit, near)
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
