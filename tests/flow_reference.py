"""Reference scalar integrator for the bitwise tests of lyapset.flow.

_walk is the step-by-step loop that the generated orbit loops replaced:
one call of the compiled field closure per stage (_dp_stages, or
_rk4_step for the fixed method), the error norm and the blow-up test
written as loops, and the builtin min and max in the step control. It
steps freely to the last target and reads each sample off the step that
passed it, through the method's continuous extension (_dp_dense,
_rk4_dense). The generated loops, and the lanes through them, must
reproduce it bit for bit, attempt counts and errors included.
"""

import math
from functools import lru_cache

from lyapset.errors import EscapedDomainError, StepLimitError
from lyapset.expr import VectorFieldSpec, compile_vector_field
from lyapset.flow import _MIN_STEP, IntegratorConfig
from lyapset.flow import (
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54,
    _A61, _A62, _A63, _A64, _A65, _B1, _B3, _B4, _B5, _B6,
    _D1, _D3, _D4, _D5, _D6, _D7, _E1, _E3, _E4, _E5, _E6, _E7,
)


def _norm2(y):
    """Squared norm summed in coordinate order."""
    s = 0.0
    for v in y:
        s += v * v
    return s


def _rk4_step(f, y, h, n):
    """One classical RK4 step: the new state and the four slopes."""
    k1 = f(y)
    k2 = f([y[i] + 0.5 * h * k1[i] for i in range(n)])
    k3 = f([y[i] + 0.5 * h * k2[i] for i in range(n)])
    k4 = f([y[i] + h * k3[i] for i in range(n)])
    y4 = [y[i] + h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) for i in range(n)]
    return y4, (k1, k2, k3, k4)


def _rk4_dense(y, k, h, theta):
    """The classical 3rd-order continuous extension of an RK4 step from y
    with slopes k, at the fraction theta of the step h (HNW II.6)."""
    k1, k2, k3, k4 = k
    b1 = theta * (1.0 + theta * (-1.5 + theta * (2 / 3)))
    b2 = theta * theta * (1.0 - theta * (2 / 3))
    b4 = theta * theta * (-0.5 + theta * (2 / 3))
    return [y[i] + h * (b1 * k1[i] + b2 * (k2[i] + k3[i]) + b4 * k4[i]) for i in range(len(y))]


def _dp_dense(y, y5, k, h, theta):
    """Dormand-Prince's 4th-order continuous extension of the step from y to
    y5 with slopes k (k[0] = k1 .. k[6] = k7), at the fraction theta of the
    step h, in the form of Hairer's contd5."""
    k1, _, k3, k4, k5, k6, k7 = k
    theta1 = 1.0 - theta
    sample = []
    for i in range(len(y)):
        dd = y5[i] - y[i]
        c3 = h * k1[i] - dd
        c4 = dd - h * k7[i] - c3
        c5 = h * (_D1 * k1[i] + _D3 * k3[i] + _D4 * k4[i] + _D5 * k5[i] + _D6 * k6[i]
                  + _D7 * k7[i])
        sample.append(y[i] + theta * (dd + theta1 * (c3 + theta * (c4 + theta1 * c5))))
    return sample


def _blowup_check(y, t, radius2):
    if _norm2(y) > radius2:
        raise EscapedDomainError(t, list(y))


def _dp_stages(f, y, k1, h, n):
    """One Dormand-Prince attempt, one field-closure call per stage."""
    k2 = f([y[i] + h * (_A21 * k1[i]) for i in range(n)])
    k3 = f([y[i] + h * (_A31 * k1[i] + _A32 * k2[i]) for i in range(n)])
    k4 = f([y[i] + h * (_A41 * k1[i] + _A42 * k2[i] + _A43 * k3[i]) for i in range(n)])
    k5 = f(
        [y[i] + h * (_A51 * k1[i] + _A52 * k2[i] + _A53 * k3[i] + _A54 * k4[i]) for i in range(n)]
    )
    k6 = f(
        [
            y[i] + h * (_A61 * k1[i] + _A62 * k2[i] + _A63 * k3[i] + _A64 * k4[i] + _A65 * k5[i])
            for i in range(n)
        ]
    )
    y5 = [
        y[i] + h * (_B1 * k1[i] + _B3 * k3[i] + _B4 * k4[i] + _B5 * k5[i] + _B6 * k6[i])
        for i in range(n)
    ]
    k7 = f(y5)
    err = [
        h * (_E1 * k1[i] + _E3 * k3[i] + _E4 * k4[i] + _E5 * k5[i] + _E6 * k6[i] + _E7 * k7[i])
        for i in range(n)
    ]
    return y5, (k1, k2, k3, k4, k5, k6, k7), err


def reference_attempt(f, y, k1, h, atol, rtol):
    """_dp_stages on the field closure f, then the scaled error sum and the
    squared norm of y5 as the step control sums them."""
    n = len(y)
    y5, k, err = _dp_stages(f, y, k1, h, n)
    err_sum = 0.0
    for i in range(n):
        sc = atol + rtol * max(abs(y[i]), abs(y5[i]))
        r = err[i] / sc
        err_sum += r * r
    return y5, k, err_sum, _norm2(y5)


_closure = lru_cache(maxsize=128)(compile_vector_field)


def _walk(V: VectorFieldSpec, y, targets, cfg: IntegratorConfig):
    """Integrate to the last target, yielding (target, state) at each target
    in order; returns the number of step attempts.

    The step size is clipped only at the last target. An accepted step whose
    new state passed the blow-up test yields each target it passed: its new
    state at a target equal to its end time, else the continuous extension.
    """
    f = _closure(V)
    n = len(y)
    radius2 = cfg.blowup_radius * cfg.blowup_radius
    atol, rtol = cfg.abs_tol, cfg.rel_tol
    horizon = targets[-1]
    adaptive = cfg.method == "rk45_adaptive"
    _blowup_check(y, 0.0, radius2)

    steps = 0
    t = 0.0
    h = min(cfg.dt, horizon)
    k1 = f(y) if adaptive else None
    pending = iter(targets)
    target = next(pending)
    while t < horizon:
        remaining = horizon - t
        steps += 1
        if steps > cfg.max_steps:
            raise StepLimitError(f"exceeded {cfg.max_steps} steps at t={t:.6g}")
        if adaptive:
            h_try = min(h, remaining)
            y_new, k, err_sum, norm2 = reference_attempt(f, y, k1, h_try, atol, rtol)
            enorm = math.sqrt(err_sum / n)
            accepted = enorm <= 1.0
        else:
            h_try = min(cfg.dt, remaining)
            y_new, k = _rk4_step(f, y, h_try, n)
            norm2, accepted = _norm2(y_new), True
        if accepted:
            t_old = t
            t = horizon if h_try == remaining else t + h_try
            if norm2 > radius2:
                raise EscapedDomainError(t, list(y_new))
            while target <= t:
                if target == t:
                    yield target, list(y_new)
                else:
                    theta = (target - t_old) / h_try
                    yield target, (_dp_dense(y, y_new, k, h_try, theta) if adaptive
                                   else _rk4_dense(y, k, h_try, theta))
                target = next(pending, math.inf)
            y, k1 = y_new, k[-1]  # first same as last; RK4 evaluates its own k1
        elif h_try <= _MIN_STEP:
            raise StepLimitError(f"step size underflow at t={t:.6g}")
        if not adaptive:
            continue
        if enorm == 0.0:
            factor = 5.0
        else:
            factor = min(5.0, max(0.2, 0.9 * enorm ** -0.2))
        h = min(max(h_try * factor, _MIN_STEP), horizon)
    return steps
