"""Reference scalar integrator for the bitwise tests of lyapset.flow.

_walk is the step-by-step loop that the generated orbit loops replaced:
one call of the compiled field closure per stage (_dp_stages, or
_rk4_step for the fixed method), the error norm and the blow-up test
written as loops, and the builtin min and max in the step control. The
generated loops, and the lanes through them, must reproduce it bit for
bit, attempt counts and errors included.
"""

import math
from functools import lru_cache

from lyapset.errors import EscapedDomainError, StepLimitError
from lyapset.expr import VectorFieldSpec, compile_vector_field
from lyapset.flow import _MIN_STEP, IntegratorConfig, _norm2, _rk4_step
from lyapset.flow import (
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54,
    _A61, _A62, _A63, _A64, _A65, _B1, _B3, _B4, _B5, _B6,
    _E1, _E3, _E4, _E5, _E6, _E7,
)


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
    return y5, k7, err


def reference_attempt(f, y, k1, h, atol, rtol):
    """_dp_stages on the field closure f, then the scaled error sum and the
    squared norm of y5 as the step control sums them."""
    n = len(y)
    y5, k7, err = _dp_stages(f, y, k1, h, n)
    err_sum = 0.0
    for i in range(n):
        sc = atol + rtol * max(abs(y[i]), abs(y5[i]))
        r = err[i] / sc
        err_sum += r * r
    return y5, k7, err_sum, _norm2(y5)


_closure = lru_cache(maxsize=128)(compile_vector_field)


def _walk(V: VectorFieldSpec, y, targets, cfg: IntegratorConfig):
    """Integrate through each target time in order, yielding (target, state)
    there; returns the number of step attempts.

    Step endpoints are forced onto every target, so yielded samples are
    integrator states, not interpolants.
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
    for target in targets:
        while True:
            remaining = target - t
            if remaining <= 0.0:
                break
            steps += 1
            if steps > cfg.max_steps:
                raise StepLimitError(f"exceeded {cfg.max_steps} steps at t={t:.6g}")
            if not adaptive:
                h_try = min(cfg.dt, remaining)
                y = _rk4_step(f, y, h_try, n)
                t = target if h_try == remaining else t + h_try
                _blowup_check(y, t, radius2)
                continue
            h_try = min(h, remaining)
            y5, k7, err_sum, norm2 = reference_attempt(f, y, k1, h_try, atol, rtol)
            enorm = math.sqrt(err_sum / n)
            if enorm <= 1.0:
                y, k1 = y5, k7
                t = target if h_try == remaining else t + h_try
                if norm2 > radius2:
                    raise EscapedDomainError(t, list(y))
            elif h_try <= _MIN_STEP:
                raise StepLimitError(f"step size underflow at t={t:.6g}")
            if enorm == 0.0:
                factor = 5.0
            else:
                factor = min(5.0, max(0.2, 0.9 * enorm ** -0.2))
            h = min(max(h_try * factor, _MIN_STEP), horizon)
        yield target, list(y)
    return steps
