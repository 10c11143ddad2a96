"""Built-in closed-form checks, runnable from the command line.

Each check exercises one module against an analytically known answer.
Tolerances are multiplied by a caller-supplied scale (the CLI wires it
to the LYAPSET_TOL_SCALE environment variable), which exists to prove
the checks can fail: an absurdly small scale must break them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EscapedDomainError
from .expr import ScalarFieldSpec, VectorFieldSpec, eval_expr, gradient
from .flow import IntegratorConfig, flow, semigroup_defect, trajectory
from .geometry import Box, ClosedBall, PointCloud, SinglePoint, sample_shell
from .limits import (
    LABEL_ATTRACTED, LABEL_NOT, LABEL_WEAK, classify_attraction, estimate_omega, roa_grid,
)
from .lyapunov import ConverseConfig, big_L, central_gradient, ell, verify_certificate
from .stability import estimate_delta, uniform_attraction_time

_SINK1 = VectorFieldSpec.from_strings(["-x1"])
_SINK2 = VectorFieldSpec.from_strings(["-x1", "-x2"])
_OSC = VectorFieldSpec.from_strings(["x2", "-x1"])
_GROW = VectorFieldSpec.from_strings(["x1"])

_CFG = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13)
_FAST = IntegratorConfig()


def _circle_cloud(count: int = 360) -> PointCloud:
    theta = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
    return PointCloud(np.stack([np.cos(theta), np.sin(theta)], axis=1))


def _check_shell_sampling(scale: float):
    M = ClosedBall([0.0, 0.0], 1.0)
    pts = sample_shell(M, 0.5, 16, seed=7)
    worst = max(abs(M.distance(p) - 0.5) for p in pts.points)
    return worst <= 1e-12 * scale, f"max |d - r| = {worst:.3e}"


def _check_gradient_fd(scale: float):
    s = ScalarFieldSpec.from_string("exp(x1)*cos(x2) + x1*x2^2", 2)
    x = [0.3, -0.7]
    sym = gradient(s, x)
    fd = central_gradient(lambda p: eval_expr(s.body, p), x)
    worst = max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(sym, fd))
    return worst <= 1e-5 * scale, f"max rel dev = {worst:.3e}"


def _check_linear_decay(scale: float):
    err = abs(float(flow(_SINK1, [1.0], 1.0, _CFG)[0]) - math.exp(-1.0))
    return err <= 1e-8 * scale, f"|x(1) - 1/e| = {err:.3e}"


def _check_quarter_turn(scale: float):
    end = flow(_OSC, [1.0, 0.0], math.pi / 2.0, _CFG)
    err = float(np.linalg.norm(end - np.array([0.0, -1.0])))
    return err <= 1e-8 * scale, f"|x(pi/2) - (0,-1)| = {err:.3e}"


def _check_semigroup(scale: float):
    worst = 0.0
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.uniform(-2, 2, size=2)
        t1, t2 = rng.uniform(0.1, 2.0, size=2)
        worst = max(worst, semigroup_defect(_OSC, x, float(t1), float(t2), _CFG))
    return worst <= 1e-7 * scale, f"max defect = {worst:.3e}"


def _check_time_reversal(scale: float):
    x = np.array([1.3, -0.4])
    back = flow(_OSC, flow(_OSC, x, 1.7, _CFG), -1.7, _CFG)
    err = float(np.linalg.norm(back - x))
    return err <= 1e-7 * scale, f"|round trip - x| = {err:.3e}"


def _check_escape(scale: float):
    try:
        trajectory(_GROW, [1.0], 100.0, 1.0, _FAST)
    except EscapedDomainError as exc:
        ok = exc.time < 100.0
        return ok, f"escaped at t = {exc.time:.2f}"
    return False, "no escape reported"


def _check_sink_omega(scale: float):
    est = estimate_omega(_SINK2, [1.0, 1.0], _FAST, transient_T=20.0, window_T=5.0,
                         out_dt=0.01, cluster_tol=1e-4)
    ok = len(est.points) == 1
    dist = float(np.linalg.norm(est.points.points[0]))
    return ok and dist <= 1e-6 * scale, f"reps = {len(est.points)}, |rep| = {dist:.3e}"


def _check_oscillator_defect(scale: float):
    period = 2.0 * math.pi
    est = estimate_omega(_OSC, [1.0, 0.0], _CFG, transient_T=5.0, window_T=period,
                         out_dt=period / 628.0, cluster_tol=1e-4)
    return est.invariance_defect <= 1e-5 * scale, f"defect = {est.invariance_defect:.3e}"


def _check_attraction_labels(scale: float):
    cloud = _circle_cloud(720)
    v1 = classify_attraction(_SINK2, [2.0, 2.0], SinglePoint([0.0, 0.0]), _FAST, 30.0, 1e-4)
    v2 = classify_attraction(_OSC, [2.0, 0.0], cloud, _FAST, 50.0, 1e-3, out_dt=0.05)
    v3 = classify_attraction(_OSC, [1.0, 0.0], SinglePoint([1.0, 0.0]), _FAST, 50.0, 1e-3)
    got = (v1.label, v2.label, v3.label)
    want = (LABEL_ATTRACTED, LABEL_NOT, LABEL_WEAK)
    return got == want, f"labels = {got}"


def _check_sink_delta(scale: float):
    delta, _ = estimate_delta(_SINK2, SinglePoint([0.0, 0.0]), 0.5, _FAST,
                              horizon_T=10.0, shell_samples=6, seed=3, out_dt=0.1)
    ok = delta is not None and delta >= 0.45
    return ok, f"delta = {delta}"


def _check_unstable_delta(scale: float):
    delta, witness = estimate_delta(_GROW, SinglePoint([0.0]), 0.5, _FAST,
                                    horizon_T=20.0, shell_samples=4, seed=3, out_dt=0.1)
    return delta is None and witness is not None, f"delta = {delta}"


def _check_uniform_time(scale: float):
    K = PointCloud([[2.0], [-2.0], [1.0], [-1.0]])
    est = uniform_attraction_time(_SINK1, K, SinglePoint([0.0]), 0.1, _FAST, 10.0)
    ok = est.value is not None and abs(est.value - math.log(20.0)) <= 0.1 * scale
    return ok, f"T = {est.value}"


def _check_sink_big_l(scale: float):
    cc = ConverseConfig(horizon_T=10.0, out_dt=0.01)
    value = big_L(_SINK1, SinglePoint([0.0]), [1.0], _FAST, cc)
    err = abs(value - 0.5)
    return err <= 1e-3 * scale, f"|L - 0.5| = {err:.3e}"


def _check_circle_ell(scale: float):
    cc = ConverseConfig(horizon_T=10.0, out_dt=0.02)
    value = ell(_OSC, _circle_cloud(720), [2.0, 0.0], _FAST, cc)
    err = abs(value - 1.0)
    return err <= 1e-2 * scale, f"|ell - 1| = {err:.3e}"


def _check_certificate_accept(scale: float):
    L = ScalarFieldSpec.from_string("x1^2+x2^2", 2)
    rep = verify_certificate(_SINK2, SinglePoint([0.0, 0.0]), L, 0.1, 2.0, 60, 5, _FAST)
    return rep.verdict == "accepted", f"verdict = {rep.verdict}, grad = {rep.gradient_margin:.3e}"


def _check_certificate_reject(scale: float):
    L = ScalarFieldSpec.from_string("x1^2", 1)
    rep = verify_certificate(_GROW, SinglePoint([0.0]), L, 0.1, 2.0, 40, 5, _FAST)
    return rep.verdict == "rejected", f"verdict = {rep.verdict}, grad = {rep.gradient_margin:.3e}"


def _check_roa_pitchfork(scale: float):
    V = VectorFieldSpec.from_strings(["x1 - x1^3"])
    M = PointCloud([[-1.0], [1.0]])
    grid = roa_grid(V, M, Box([-2.0], [2.0]), 21, _FAST, 20.0, 1e-3, out_dt=0.1)
    counts = grid.counts()
    ok = counts.get(LABEL_ATTRACTED, 0) == 20 and counts.get(LABEL_NOT, 0) == 1
    return ok, f"counts = {counts}"


CHECKS = (
    ("geometry.shell_sampling", _check_shell_sampling),
    ("expr.gradient_vs_fd", _check_gradient_fd),
    ("flow.linear_decay", _check_linear_decay),
    ("flow.quarter_turn", _check_quarter_turn),
    ("flow.semigroup", _check_semigroup),
    ("flow.time_reversal", _check_time_reversal),
    ("flow.escape_detection", _check_escape),
    ("limits.sink_omega", _check_sink_omega),
    ("limits.oscillator_defect", _check_oscillator_defect),
    ("limits.attraction_labels", _check_attraction_labels),
    ("limits.roa_pitchfork", _check_roa_pitchfork),
    ("stability.sink_delta", _check_sink_delta),
    ("stability.unstable_delta", _check_unstable_delta),
    ("stability.uniform_time", _check_uniform_time),
    ("lyapunov.sink_big_l", _check_sink_big_l),
    ("lyapunov.circle_ell", _check_circle_ell),
    ("lyapunov.certificate_accept", _check_certificate_accept),
    ("lyapunov.certificate_reject", _check_certificate_reject),
)


def run_selftest(scale: float = 1.0, name_filter: str = "", out=print) -> bool:
    """Run all (or filtered) checks; prints one line each, True iff all pass."""
    all_ok = True
    ran = 0
    for name, fn in CHECKS:
        if name_filter and name_filter not in name:
            continue
        ran += 1
        try:
            ok, detail = fn(scale)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok = all_ok and ok
        out(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
    if ran == 0:
        out(f"no checks match filter {name_filter!r}")
        return False
    return all_ok
