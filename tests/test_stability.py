import importlib
import math
import os
import sys

import numpy as np
import pytest

from conftest import circle_cloud, count_generators, native, native_builds, orbit_attempts, sliced
from flow_reference import _walk
from lyapset import stability
from lyapset.cli import _run_stability, main
from lyapset.errors import (
    EscapedDomainError,
    EvalDomainError,
    OrbitUnboundedError,
    StepLimitError,
)
from lyapset.expr import VectorFieldSpec
from lyapset.flow import IntegratorConfig, partial_trajectory, sample_times
from lyapset.geometry import (
    Box,
    ClosedBall,
    PointCloud,
    SinglePoint,
    sample_set_points,
    sample_shell,
)
from lyapset.limits import roa_grid
from lyapset.problem import load_problem
from lyapset.stability import (
    BISECTION_STEPS,
    VERDICT_INCONCLUSIVE,
    VERDICT_STABLE,
    VERDICT_UNSTABLE,
    EpsilonDeltaPair,
    StabilityReport,
    UniformTimeEstimate,
    _candidate_points,
    check_positive_invariance,
    classify_stability,
    estimate_delta,
    uniform_attraction_time,
)

ORIGIN_2D = SinglePoint([0.0, 0.0])


def _stays_inside_sample_by_sample(V, x, M, epsilon, horizon_T, out_dt, cfg):
    """The delta probe of one start read sample by sample: one M.distance
    per state, stopping at the first outside epsilon."""
    if not M.distance(x) < epsilon:
        return False
    targets = sample_times(horizon_T, out_dt)[1:]
    try:
        for _, state in _walk(V, [float(v) for v in x], targets, cfg):
            if not M.distance(state) < epsilon:
                return False
    except (EscapedDomainError, EvalDomainError):
        return False
    return True


def _delta_sample_by_sample(
    V, M, epsilon, cfg, horizon_T, shell_samples, out_dt, tol=0.0, certified=None
):
    """estimate_delta's search over the sample-by-sample probe: halving,
    with one probe at hi - tol/2 once some delta is certified."""
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
        failed = None
        for p in _candidate_points(M, mid, shell_samples, 0):
            if not _stays_inside_sample_by_sample(V, p, M, epsilon, horizon_T, out_dt, cfg):
                failed = p
                break
        if failed is None:
            certified, lo = mid, mid
        else:
            witness, hi = failed, mid
    return certified, (None if certified is not None else witness)


def _delta_bits(estimate, args, knobs):
    """(delta, witness) as hex strings, or the type and text of the error."""
    try:
        delta, witness = estimate(*args, **knobs)
    except StepLimitError as exc:
        return type(exc).__name__, str(exc)
    return (None if delta is None else delta.hex(),
            None if witness is None else [float(v).hex() for v in witness])


# Step budgets of the probes below (horizon 10, out_dt 0.1): half the
# attempts of a sink orbit from inside epsilon, and one attempt short of
# the constant field's orbit, which grows its step five-fold per attempt
# and so leaves epsilon = 0.5 in its first few.
_SINK_HALF_BUDGET = orbit_attempts(["-x1", "-x2"], [0.25, 0.0], 10.0, 0.1) // 2
_ONE_SHORT_BUDGET = orbit_attempts(["1"], [0.0], 10.0, 0.1) - 1

# name: (field, set, epsilon, integrator settings)
_PARITY_CASES = {
    "sink": (["-x1", "-x2"], ORIGIN_2D, 0.5, {}),
    "rotation": (["x2", "-x1"], ORIGIN_2D, 0.5, {}),
    "unstable": (["x1", "-x2"], ORIGIN_2D, 0.5, {}),
    # Every probe fails. The starts leave at different times, and the
    # witness is the first to leave in start order, not in time.
    "unstable-fast": (["3 * x1", "-x2"], ORIGIN_2D, 0.5, {}),
    # Orbits of radius above 0.6 escape while still inside epsilon.
    "escaping": (["x2", "-x1"], ORIGIN_2D, 1.0, {"blowup_radius": 0.6}),
    # Starts with x1 < -0.2 fail at the first field evaluation.
    "sqrt-domain": (["-x1 * sqrt(x1 + 0.2)", "-x2"], ORIGIN_2D, 0.5, {}),
    # The step budget runs out inside epsilon: both raise.
    "step-limit-inside": (["-x1", "-x2"], ORIGIN_2D, 0.5, {"max_steps": _SINK_HALF_BUDGET}),
    # Every orbit leaves epsilon by t = 1, then runs out of steps.
    "step-limit-after-exit": (["1"], SinglePoint([0.0]), 0.5, {"max_steps": _ONE_SHORT_BUDGET}),
}


class TestEstimateDelta:
    def test_sink_certifies_near_epsilon(self, sink2, cfg):
        delta, witness = estimate_delta(
            sink2, ORIGIN_2D, 0.5, cfg, horizon_T=12.0, shell_samples=8, out_dt=0.1
        )
        assert witness is None
        assert delta >= 0.45

    def test_oscillator_certifies(self, osc, cfg):
        delta, witness = estimate_delta(
            osc, ORIGIN_2D, 1.0, cfg, horizon_T=8.0, shell_samples=8, out_dt=0.1
        )
        assert witness is None
        assert delta >= 0.9

    def test_unstable_returns_witness(self, grow1, cfg):
        delta, witness = estimate_delta(
            grow1, SinglePoint([0.0]), 0.5, cfg, horizon_T=15.0, shell_samples=4, out_dt=0.1
        )
        assert delta is None
        assert witness is not None

    def test_candidate_points_from_one_generator(self, monkeypatch):
        made = count_generators(monkeypatch)
        points = stability._candidate_points(circle_cloud(60), 0.1, 10, 4)
        assert made == [(4,)]
        assert len(points) == 10 + 3

    def test_witness_replays(self, grow1, pitchfork, cfg):
        # A witness is only honest if integrating it really leaves the
        # epsilon-ball at some sampled time (or escapes outright).
        cases = [
            (grow1, SinglePoint([0.0]), 0.5),
            (pitchfork, SinglePoint([0.0]), 0.5),
        ]
        for V, M, eps in cases:
            delta, witness = estimate_delta(
                V, M, eps, cfg, horizon_T=15.0, shell_samples=4, out_dt=0.1
            )
            assert delta is None
            assert M.distance(witness) <= eps
            traj, error = partial_trajectory(V, witness, 15.0, 0.1, cfg)
            exited = float(M.distances(traj.states).max()) >= eps
            assert exited or error is not None

    def test_delta_monotone_in_epsilon(self, sink2, osc, cfg):
        resolution = 0.5 * 2.0 ** -(20 - 1)
        for V, horizon in ((sink2, 12.0), (osc, 8.0)):
            found = [
                estimate_delta(
                    V, ORIGIN_2D, eps, cfg, horizon_T=horizon, shell_samples=8, out_dt=0.1
                )[0]
                for eps in (0.25, 0.5)
            ]
            assert found[0] is not None and found[1] is not None
            assert found[0] <= found[1] + resolution

    def test_certificate_survives_resampling(self, sink2, osc, cfg):
        # Re-verify each found delta against a fresh shell sample, twice as
        # dense, with a different seed: zero tolerance for new escapes.
        for V, horizon in ((sink2, 12.0), (osc, 8.0)):
            eps = 0.5
            delta, _ = estimate_delta(
                V, ORIGIN_2D, eps, cfg,
                horizon_T=horizon, shell_samples=8, seed=0, out_dt=0.1,
            )
            fresh = sample_shell(ORIGIN_2D, delta, 16, seed=12345).points
            for p in fresh:
                traj, error = partial_trajectory(V, p, horizon, 0.1, cfg)
                assert error is None
                assert float(ORIGIN_2D.distances(traj.states).max()) < eps

    def test_epsilon_validated(self, sink2, cfg):
        with pytest.raises(ValueError):
            estimate_delta(sink2, ORIGIN_2D, 0.0, cfg)

    def test_shell_samples_validated(self, sink2, cfg):
        with pytest.raises(ValueError, match="shell_samples must be >= 1"):
            estimate_delta(sink2, ORIGIN_2D, 0.5, cfg, shell_samples=0)

    @pytest.mark.parametrize("tol", [-1e-3, math.nan])
    def test_tol_validated(self, sink2, cfg, tol):
        with pytest.raises(ValueError, match="tol must be >= 0"):
            estimate_delta(sink2, ORIGIN_2D, 0.5, cfg, tol=tol)

    @pytest.mark.parametrize("certified", [0.0, -0.1, 0.6, math.nan])
    def test_certified_validated(self, sink2, cfg, certified):
        with pytest.raises(ValueError, match=r"certified must lie in \(0, epsilon\]"):
            estimate_delta(sink2, ORIGIN_2D, 0.5, cfg, certified=certified)

    @pytest.mark.parametrize("case", sorted(_PARITY_CASES))
    def test_matches_sample_by_sample_probe(self, case):
        # Each probe orbit is integrated whole and tested with one
        # M.distances call; the reference walks it lazily with M.distance.
        texts, M, eps, settings = _PARITY_CASES[case]
        V = VectorFieldSpec.from_strings(texts)
        args = (V, M, eps, IntegratorConfig(**settings))
        for tol in (0.0, 1e-3):
            knobs = {"horizon_T": 10.0, "shell_samples": 8, "out_dt": 0.1, "tol": tol}
            got = _delta_bits(estimate_delta, args, knobs)
            assert got == _delta_bits(_delta_sample_by_sample, args, knobs)

    def test_certified_start_matches_sample_by_sample_probe(self, osc):
        knobs = {"horizon_T": 10.0, "shell_samples": 8, "out_dt": 0.1, "tol": 1e-3}
        smaller, _ = _delta_sample_by_sample(osc, ORIGIN_2D, 0.25, IntegratorConfig(), **knobs)
        args = (osc, ORIGIN_2D, 0.5, IntegratorConfig())
        knobs["certified"] = smaller
        got = _delta_bits(estimate_delta, args, knobs)
        assert got == _delta_bits(_delta_sample_by_sample, args, knobs)
        assert float.fromhex(got[0]) > smaller

    def test_tol_stops_on_the_full_path(self, sink2, osc, cfg):
        # Every probe holds here, so with tol > 0 the top probe ends the
        # search at epsilon - tol/2: below the full search's delta and
        # within tol of it.
        knobs = {"horizon_T": 8.0, "shell_samples": 8, "out_dt": 0.1}
        for V in (sink2, osc):
            full, _ = estimate_delta(V, ORIGIN_2D, 0.5, cfg, **knobs)
            for tol in (1e-3, 0.05):
                delta, witness = estimate_delta(V, ORIGIN_2D, 0.5, cfg, tol=tol, **knobs)
                assert witness is None
                assert delta <= full
                assert full - delta <= tol

    def test_failing_top_probe_falls_back_to_bisection(self, monkeypatch):
        # Orbits of radius 0.5 pass; at the top, 1 - tol/2, they escape past
        # 0.6. That failed top is the new hi, and halving goes on below it.
        texts, M, eps, settings = _PARITY_CASES["escaping"]
        probed = []
        inner = stability._candidate_points

        def recording(M, delta, *args):
            probed.append(delta)
            return inner(M, delta, *args)

        monkeypatch.setattr(stability, "_candidate_points", recording)
        tol = 1e-3
        delta, witness = estimate_delta(
            VectorFieldSpec.from_strings(texts), M, eps, IntegratorConfig(**settings),
            horizon_T=10.0, shell_samples=8, out_dt=0.1, tol=tol,
        )
        top = eps - 0.5 * tol
        assert probed[:3] == [0.5 * eps, top, 0.5 * (0.5 * eps + top)]
        assert all(d < top for d in probed[2:])
        assert witness is None and 0.5 <= delta < 0.6

    @pytest.mark.parametrize("case, certified, expected", [
        ("sink", None, "0x1.ffffe00000000p-2"),
        ("sink", 0.25, "0x1.fffff00000000p-2"),
        ("escaping", None, "0x1.3333200000000p-1"),
        ("escaping", 0.25, "0x1.3333280000000p-1"),
    ])
    def test_tol_zero_halves_every_step(self, case, certified, expected):
        # With tol = 0 there is no top probe: the deltas of the plain
        # 20-step halving, fixed here as bits.
        texts, M, eps, settings = _PARITY_CASES[case]
        delta, witness = estimate_delta(
            VectorFieldSpec.from_strings(texts), M, eps, IntegratorConfig(**settings),
            horizon_T=10.0, shell_samples=8, out_dt=0.1, certified=certified,
        )
        assert witness is None and delta.hex() == expected

    def test_tol_leaves_witness_unchanged(self, grow1, cfg):
        # Until some delta is certified, tol stops nothing.
        knobs = {"horizon_T": 15.0, "shell_samples": 4, "out_dt": 0.1}
        args = (grow1, SinglePoint([0.0]), 0.5, cfg)
        full = _delta_bits(estimate_delta, args, knobs)
        assert full[0] is None and full[1] is not None
        assert _delta_bits(estimate_delta, args, {**knobs, "tol": 1e-3}) == full

    def test_exit_before_step_limit_is_witness(self):
        V = VectorFieldSpec.from_strings(["1"])
        M = SinglePoint([0.0])
        cfg = IntegratorConfig(max_steps=_ONE_SHORT_BUDGET)
        delta, witness = estimate_delta(
            V, M, 0.5, cfg, horizon_T=10.0, shell_samples=4, out_dt=0.1
        )
        assert delta is None
        traj, error = partial_trajectory(V, witness, 10.0, 0.1, cfg)
        assert isinstance(error, StepLimitError)
        assert float(M.distances(traj.states).max()) >= 0.5

    @pytest.mark.parametrize("case", sorted(_PARITY_CASES))
    def test_same_bits_from_either_loop(self, case):
        # Orbit loops or the native loop, the same delta, witness or
        # StepLimitError as the sample-by-sample probe.
        texts, M, eps, settings = _PARITY_CASES[case]
        args = (VectorFieldSpec.from_strings(texts), M, eps, IntegratorConfig(**settings))
        knobs = {"horizon_T": 10.0, "shell_samples": 8, "out_dt": 0.1, "tol": 1e-3}
        expected = _delta_bits(_delta_sample_by_sample, args, knobs)
        for on in (False, True):
            with native(on):
                assert _delta_bits(estimate_delta, args, knobs) == expected

    def test_step_limit_inside_epsilon_raises(self, sink2):
        with pytest.raises(StepLimitError):
            estimate_delta(
                sink2, ORIGIN_2D, 0.5, IntegratorConfig(max_steps=_SINK_HALF_BUDGET),
                horizon_T=10.0, shell_samples=4, out_dt=0.1,
            )


class TestPositiveInvariance:
    def test_sink_ball_invariant(self, sink2, cfg):
        excursion = check_positive_invariance(
            sink2, ClosedBall([0.0, 0.0], 0.5), cfg, boundary_samples=8,
            horizon_T=10.0, out_dt=0.1,
        )
        assert excursion <= 1e-6

    def test_outward_field_large_excursion(self, grow1, cfg):
        excursion = check_positive_invariance(
            grow1, ClosedBall([0.0], 1.0), cfg, boundary_samples=4,
            horizon_T=5.0, out_dt=0.1,
        )
        assert excursion >= math.exp(5.0) - 1.0 - 1e-3

    def test_circle_cloud_invariant(self, osc, unit_circle_720, cfg):
        spacing = 2.0 * math.pi / 720.0
        excursion = check_positive_invariance(
            osc, unit_circle_720, cfg, boundary_samples=8, horizon_T=10.0, out_dt=0.1
        )
        assert excursion <= spacing + 1e-6

    def test_escape_reports_inf(self, grow1, cfg):
        excursion = check_positive_invariance(
            grow1, ClosedBall([0.0], 1.0), cfg, boundary_samples=4,
            horizon_T=20.0, out_dt=0.5,
        )
        assert excursion == math.inf

    def test_horizon_validated(self, sink2, cfg):
        with pytest.raises(ValueError):
            check_positive_invariance(sink2, ORIGIN_2D, cfg, horizon_T=0.0)

    def test_step_limit_raises(self, sink2):
        # An exhausted step budget says nothing about the orbit, so it is
        # not reported as an escape.
        with pytest.raises(StepLimitError):
            check_positive_invariance(
                sink2, ClosedBall([0.0, 0.0], 0.5), IntegratorConfig(max_steps=3)
            )


def _uniform_start_by_start(V, K, M, epsilon, cfg, T_max, out_dt):
    """uniform_attraction_time as a loop over single orbits."""
    entry = 0.0
    for k in K.points:
        traj, error = partial_trajectory(V, k, T_max, out_dt, cfg)
        if error is not None:
            return UniformTimeEstimate(None, integration_failed=True)
        d = M.distances(traj.states)
        violations = np.nonzero(d >= epsilon)[0]
        if violations.size == 0:
            continue
        last = int(violations[-1])
        if last == len(traj) - 1:
            return UniformTimeEstimate(None)
        entry = max(entry, float(traj.times[last + 1]))
    return UniformTimeEstimate(entry)


# x1 = 1 is an equilibrium of the cubic field, outside the 0.1-ball at the
# last sample; starts with x1 > 1 blow up, and sqrt(x1) fails below 0.
_CUBIC = ["-x1 + x1^3", "-x2"]
_GRID = [[a, b] for a in (-1.0, -0.5, 0.0, 0.5, 1.0) for b in (-1.0, 0.0, 1.0)]
_START_BY_START_CASES = {
    "vanderpol-entry-time": (["-x2", "x1 - (1 - x1^2)*x2"], _GRID),
    "vanderpol-escape": (["-x2", "x1 - (1 - x1^2)*x2"], [[0.5, 0.5], [3.0, 3.0]]),
    "outside-then-escape": (_CUBIC, [[0.5, 0.0], [1.0, 0.0], [2.0, 0.0]]),
    "escape-then-outside": (_CUBIC, [[0.5, 0.0], [2.0, 0.0], [1.0, 0.0]]),
    "singular-sqrt": (["-sqrt(x1)", "-x2"], [[0.0, 0.5], [0.5, 0.0]]),
}


class _FussySet(SinglePoint):
    def distances(self, points):
        if np.any(np.asarray(points)[:, 0] < 0):
            raise OrbitUnboundedError("synthetic per-start failure")
        return super().distances(points)


def _excursion_start_by_start(V, M, cfg, boundary_samples, horizon_T, out_dt):
    """check_positive_invariance as a loop over single orbits."""
    worst = 0.0
    for p in sample_set_points(M, boundary_samples, 0).points:
        traj, error = partial_trajectory(V, p, horizon_T, out_dt, cfg)
        if isinstance(error, StepLimitError):
            raise error
        if error is not None:
            return math.inf
        worst = max(worst, float(M.distances(traj.states).max()))
    return worst


def _invariance_outcome(check, V, M, cfg):
    """The excursion as hex, or the type and text of what check raises."""
    try:
        return check(V, M, cfg, boundary_samples=4, horizon_T=10.0, out_dt=0.1).hex()
    except (StepLimitError, OrbitUnboundedError) as exc:
        return type(exc).__name__, str(exc)


# name: (field, set, integrator settings, outcome). A cloud's members are
# the starts, in order: (1, 0) escapes past radius 2 by t = 0.71, within
# the budget, and (0, 1), which decays, runs out of steps halfway to the
# horizon; _FussySet's distance raises once the orbit reaches x1 < 0.
_INVARIANCE_BUDGET = {"blowup_radius": 2.0,
                      "max_steps": orbit_attempts(["x1", "-x2"], [0.0, 1.0], 10.0, 0.1,
                                                  blowup_radius=2.0) // 2}
_INVARIANCE_CASES = {
    "inside": (["-x1", "-x2"], ClosedBall([0.0, 0.0], 0.5), {}, "value"),
    "escape-then-step-limit": (["x1", "-x2"], PointCloud([[1.0, 0.0], [0.0, 1.0]]),
                               _INVARIANCE_BUDGET, "inf"),
    "step-limit-then-escape": (["x1", "-x2"], PointCloud([[0.0, 1.0], [1.0, 0.0]]),
                               _INVARIANCE_BUDGET, "StepLimitError"),
    "distance-error": (["-1", "0"], _FussySet([0.0, 0.0]), {}, "OrbitUnboundedError"),
}


class TestInvarianceOrder:
    @pytest.mark.parametrize("case", sorted(_INVARIANCE_CASES))
    def test_same_result_from_either_loop(self, case):
        # The first start that fails decides, whichever loop runs them.
        texts, M, settings, outcome = _INVARIANCE_CASES[case]
        args = (VectorFieldSpec.from_strings(texts), M, IntegratorConfig(**settings))
        expected = _invariance_outcome(_excursion_start_by_start, *args)
        if isinstance(expected, tuple):
            assert expected[0] == outcome
        else:
            assert (expected == "inf") == (outcome == "inf")
        for on in (False, True):
            with native(on):
                assert _invariance_outcome(check_positive_invariance, *args) == expected


class TestUniformAttractionTime:
    def test_linear_sink_entry_time(self, sink1, cfg):
        K = PointCloud([[-2.0], [-1.0], [1.0], [2.0]])
        est = uniform_attraction_time(
            sink1, K, SinglePoint([0.0]), 0.1, cfg, T_max=20.0, out_dt=0.05
        )
        # Worst start |x|=2 needs t > ln 20 = 2.9957; first sampled time
        # past that on the 0.05 grid is 3.0.
        assert est.value == pytest.approx(3.0, abs=1e-12)
        assert abs(est.value - math.log(20.0)) <= 0.1
        assert not est.integration_failed

    def test_starts_inside_give_zero(self, sink2, cfg):
        K = PointCloud([[0.01, 0.0], [0.0, -0.01]])
        est = uniform_attraction_time(
            sink2, K, ClosedBall([0.0, 0.0], 0.5), 0.1, cfg, T_max=5.0
        )
        assert est.value == 0.0

    def test_never_attracted_is_none(self, osc, cfg):
        K = PointCloud([[0.5, 0.0]])
        est = uniform_attraction_time(
            osc, K, ORIGIN_2D, 0.1, cfg, T_max=10.0, out_dt=0.1
        )
        assert est.value is None
        assert not est.integration_failed

    def test_escape_flagged(self, grow1, cfg):
        K = PointCloud([[1.0]])
        est = uniform_attraction_time(
            grow1, K, SinglePoint([0.0]), 0.1, cfg, T_max=20.0, out_dt=0.5
        )
        assert est.value is None
        assert est.integration_failed

    @pytest.mark.parametrize("case", sorted(_START_BY_START_CASES))
    def test_matches_start_by_start_loop(self, case, cfg):
        # The starts run in one integrate_lanes call, through the native
        # loop here; the reference runs them one by one and stops at the
        # first that decides.
        texts, starts = _START_BY_START_CASES[case]
        V = VectorFieldSpec.from_strings(texts)
        K = PointCloud(starts)
        args = (V, K, ORIGIN_2D, 0.1, cfg, 10.0, 0.1)
        with native(True):
            got = uniform_attraction_time(*args)
        expected = _uniform_start_by_start(*args)
        assert got.integration_failed == expected.integration_failed
        assert got.value == expected.value
        if got.value is not None:
            assert got.value.hex() == expected.value.hex()

    @pytest.mark.parametrize("case", sorted(_START_BY_START_CASES) + ["distance-error"])
    def test_same_estimate_from_either_loop(self, case, cfg):
        # distance-error: the second start stays at x1 < 0, where the set's
        # distance raises.
        texts, starts = _START_BY_START_CASES.get(
            case, (["-x1", "-x2"], [[0.5, 0.0], [-0.5, 0.0], [0.0, 3.0]]))
        M = _FussySet([0.0, 0.0]) if case == "distance-error" else ORIGIN_2D
        args = (VectorFieldSpec.from_strings(texts), PointCloud(starts), M, 0.1, cfg,
                10.0, 0.1)
        estimates = []
        for on in (False, True):
            with native(on):
                est = uniform_attraction_time(*args)
            estimates.append((est.value if est.value is None else est.value.hex(),
                              est.integration_failed))
        assert estimates[0] == estimates[1]
        if case == "distance-error":
            assert estimates[0] == (None, True)

    def test_distance_error_is_integration_failure(self, sink2, cfg):
        # The second start stays at x1 < 0, where the set's distance raises;
        # roa_grid records such a start as an error row.
        K = PointCloud([[0.5, 0.0], [-0.5, 0.0], [0.0, 3.0]])
        est = uniform_attraction_time(
            sink2, K, _FussySet([0.0, 0.0]), 0.1, cfg, T_max=2.0, out_dt=0.5
        )
        assert est.value is None
        assert est.integration_failed

    def test_validation(self, sink1, cfg):
        with pytest.raises(ValueError):
            uniform_attraction_time(
                sink1, PointCloud([[1.0]]), SinglePoint([0.0]), 0.0, cfg, 5.0
            )
        with pytest.raises(ValueError):
            uniform_attraction_time(
                sink1, PointCloud(np.empty((0, 1))), SinglePoint([0.0]), 0.1, cfg, 5.0
            )


class TestClassifyStability:
    def test_sink_stable_evidence(self, sink2, cfg):
        report = classify_stability(
            sink2,
            ORIGIN_2D,
            cfg,
            epsilons=[0.5],
            roa_box=Box([-0.3, -0.3], [0.3, 0.3]),
            resolution=3,
            horizon_T=12.0,
            shell_samples=8,
            out_dt=0.1,
        )
        assert report.verdict == VERDICT_STABLE
        assert report.pairs[0].delta is not None
        assert report.invariance_excursion <= 1e-6
        assert report.uniform_T == 0.0
        assert report.notes[0].startswith("roa grid (3, 3)")

    def test_pitchfork_unstable_witness(self, pitchfork, cfg):
        report = classify_stability(
            pitchfork,
            SinglePoint([0.0]),
            cfg,
            epsilons=[0.5],
            roa_box=Box([-0.25], [0.25]),
            resolution=3,
            horizon_T=15.0,
            shell_samples=4,
            out_dt=0.1,
        )
        assert report.verdict == VERDICT_UNSTABLE
        assert report.pairs[0].delta is None
        assert report.pairs[0].witness is not None
        assert report.uniform_T is None

    def test_center_is_inconclusive(self, osc, cfg):
        report = classify_stability(
            osc,
            ORIGIN_2D,
            cfg,
            epsilons=[0.25],
            roa_box=Box([-0.5, -0.5], [0.5, 0.5]),
            resolution=5,
            horizon_T=8.0,
            shell_samples=8,
            out_dt=0.1,
        )
        assert report.verdict == VERDICT_INCONCLUSIVE
        assert all(p.delta is not None for p in report.pairs)
        assert "stable, not attracting within horizon" in report.notes

    def test_stable_evidence_implies_invariance(self, sink2, cfg):
        # Stability evidence for the ball should come with an essentially
        # zero outward excursion of the ball itself.
        M = ClosedBall([0.0, 0.0], 0.25)
        report = classify_stability(
            sink2,
            M,
            cfg,
            epsilons=[0.5],
            roa_box=Box([-0.4, -0.4], [0.4, 0.4]),
            resolution=3,
            horizon_T=12.0,
            shell_samples=8,
            out_dt=0.1,
        )
        assert report.verdict == VERDICT_STABLE
        assert report.invariance_excursion <= 1e-4

    def test_empty_epsilons_rejected(self, sink2, cfg):
        with pytest.raises(ValueError):
            classify_stability(
                sink2, ORIGIN_2D, cfg, epsilons=[], roa_box=Box([-1, -1], [1, 1])
            )


def _count_integrate_lanes(monkeypatch) -> list:
    """Wrap integrate_lanes wherever it is looked up; returns the call log."""
    calls = []
    modules = [importlib.import_module(f"lyapset.{m}") for m in ("flow", "limits")]
    inner = modules[0].integrate_lanes

    def counting(*args, **kwargs):
        calls.append(len(args[1]))
        return inner(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, "integrate_lanes", counting, raising=False)
    return calls


# name: (set, epsilons, roa box half-width, horizon); every case is stable.
_GRID_PARITY_CASES = {
    "point": (ORIGIN_2D, [0.1, 0.5], 0.4, 8.0),
    "ball": (ClosedBall([0.0, 0.0], 0.2), [0.1], 0.5, 8.0),
    "box": (Box([-0.1, -0.2], [0.1, 0.2]), [0.05, 0.3], 0.5, 8.0),
    "cloud": (PointCloud([[0.0, 0.0], [0.05, 0.0], [0.0, 0.05]]), [0.1], 0.4, 8.0),
    "inside-from-start": (ClosedBall([0.0, 0.0], 0.5), [0.2], 0.3, 4.0),
    # The corner nodes end at distance 0.4*sqrt(2)*e^-1.5 ~ 0.126, within the
    # grid's tol 0.2 but not below epsilon, so no uniform time exists.
    "final-outside-epsilon": (ORIGIN_2D, [0.1], 0.4, 1.5),
}


_PROBLEM_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "problems")


def _bundled_stability(name: str):
    """The bundled problem and the arguments its stability block passes."""
    problem = load_problem(os.path.join(_PROBLEM_DIR, f"{name}.json"))
    block = problem.stability
    knobs = {
        "horizon_T": block["horizon"], "shell_samples": block["shell_samples"],
        "seed": problem.block_seed("stability"), "out_dt": block["out_dt"],
    }
    return problem, block, knobs


def _count_stability_orbits(monkeypatch) -> list:
    """Log one entry per orbit that starts in the stability module's own
    distance passes, its delta probes and invariance check, not its grid:
    one per run of the orbit loop. The native loop is off: it runs every
    row of a pass's buffer, past an early stop."""
    calls, inside = [], []
    flow = importlib.import_module("lyapset.flow")
    monkeypatch.setattr(flow, "_NATIVE_FROM", sys.maxsize)
    compiled, distance_pass = flow._compiled, stability._distance_pass

    def counting_compiled(V, method):
        loop = compiled(V, method)

        def counted(*args):
            if inside:
                calls.append(1)
            return loop(*args)

        return counted

    def tracked(*args):
        inside.append(True)
        try:
            return distance_pass(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(flow, "_compiled", counting_compiled)
    monkeypatch.setattr(stability, "_distance_pass", tracked)
    return calls


@pytest.mark.parametrize("name", ["harmonic_oscillator", "linear_sink"])
class TestBundledDeltaSearch:
    def test_deltas_ascend_within_tol(self, name):
        problem, block, _ = _bundled_stability(name)
        pairs = _run_stability(problem, problem.integrator)[0]["pairs"]
        assert [p["epsilon"] for p in pairs] == sorted(block["epsilons"])
        deltas = [p["delta"] for p in pairs]
        assert all(d is not None for d in deltas)
        assert deltas == sorted(deltas)
        for p in pairs:
            assert 0 <= p["epsilon"] - p["delta"] <= block["tol"]

    def test_at_most_half_the_full_orbits(self, name, monkeypatch):
        # The block's count includes its invariance check; the full count is
        # the delta searches alone, each run to BISECTION_STEPS probes.
        problem, block, knobs = _bundled_stability(name)
        calls = _count_stability_orbits(monkeypatch)
        _run_stability(problem, problem.integrator)
        block_orbits = len(calls)
        calls.clear()
        for eps in block["epsilons"]:
            estimate_delta(problem.field, problem.set_spec, eps, problem.integrator, **knobs)
        assert block_orbits <= 0.5 * len(calls)

    def test_block_orbit_count(self, name, monkeypatch):
        # Every probe holds: per epsilon one top probe, plus one first
        # halving for the smallest; then the invariance check's orbits.
        problem, _, _ = _bundled_stability(name)
        calls = _count_stability_orbits(monkeypatch)
        _run_stability(problem, problem.integrator)
        assert len(calls) == {"harmonic_oscillator": 38, "linear_sink": 31}[name]


def test_failing_probes_stop_at_their_first_exit(monkeypatch):
    # All BISECTION_STEPS probes fail, each at its first orbit, as its
    # orbits run one by one; then the invariance check's one orbit.
    problem, _, _ = _bundled_stability("unstable_linear")
    calls = _count_stability_orbits(monkeypatch)
    _run_stability(problem, problem.integrator)
    assert len(calls) == 21


def _saddle_first_exits(monkeypatch):
    """The saddle case of the first-exit tests: the (witness, worst bits)
    of _first_exit with the native loop off, on, and on with a buffer of
    one sample, which stops a row for the orbit loop to resume once one
    of its steps passes two targets; asserted equal, but for the worst of
    the witness, which the native loop ends at its first sample outside
    epsilon and the orbit loop does not. Returns the field and, per run,
    the resume arguments of the orbit loops it ran."""
    V = VectorFieldSpec.from_strings(["-x1", "x2"])
    points = np.stack([np.linspace(-0.45, 0.45, 60), np.zeros(60)], axis=1)
    points[40, 1] = 0.1
    times = sample_times(10.0, 0.1)
    cfg = IntegratorConfig(blowup_radius=4.0)
    flow = importlib.import_module("lyapset.flow")
    compiled = flow._compiled
    runs = []

    def recording(V, method):
        loop = compiled(V, method)
        return lambda y, *args: runs[-1].append(args[-1]) or loop(y, *args)

    monkeypatch.setattr(flow, "_compiled", recording)
    exits = []
    for on, buffer in ((False, flow._BUFFER), (True, flow._BUFFER), (True, 1)):
        runs.append([])
        monkeypatch.setattr(flow, "_BUFFER", buffer)
        with native(on):
            witness, worst = stability._first_exit(V, ORIGIN_2D, points, 0.5, times, cfg)
        assert not worst[40] < 0.5
        worst[40] = np.nan
        exits.append((witness.tolist(), [v.hex() for v in worst.tolist()]))
    assert exits[0][0] == points[40].tolist()
    assert exits[1] == exits[0] and exits[2] == exits[0]
    return V, runs


def test_first_exit_stops_across_the_lane_handoff(monkeypatch):
    # The saddle's origin is unstable. Of 60 points, 59 lie on its stable
    # axis and decay, so their largest distance is their first; point 40
    # leaves epsilon near t = ln 5 and escapes near t = ln 40, before any other
    # orbit ends. So the pass ends once points 0-39 end inside, whichever
    # loop runs them. With a buffer of one sample, the native loop hands
    # each row to the orbit loop at its first step that passes two
    # targets: the _Stop raised in the visit of point 39's resumed orbit
    # ends the pass, and points 41-59 are never resumed.
    V, (_, _, resumes) = _saddle_first_exits(monkeypatch)
    if native_builds(V):
        assert len(resumes) == 40 and None not in resumes


def test_first_exit_from_the_native_loop(monkeypatch):
    # The native loop runs points 0-40 in one call, and no orbit loop, as
    # none fails in the field: it ends point 40 at its exit, and so the
    # call; the _Stop in that call's visit ends the pass with the same
    # witness and largest distances, the witness's aside.
    V, (_, runs, _) = _saddle_first_exits(monkeypatch)
    if native_builds(V):
        assert runs == []


def test_probe_rows_end_at_their_exit(monkeypatch):
    # unstable_linear's probes all fail. The orbit loop runs the first
    # point's orbit to its end before the pass stops; the native loop ends
    # each point at its first sample outside epsilon, and its call there,
    # so its probes reduce at most 10% more samples than the orbit loop's,
    # not the samples of every point of a buffer.
    problem, block, knobs = _bundled_stability("unstable_linear")
    distance_pass = stability._distance_pass
    results, samples = [], []

    def counted(V, M, points, times, cfg, reduce, *rest):
        def counting(rows, j, d):
            samples[-1] += len(rows)
            return reduce(rows, j, d)

        return distance_pass(V, M, points, times, cfg, counting, *rest)

    monkeypatch.setattr(stability, "_distance_pass", counted)
    for on in (False, True):
        samples.append(0)
        with native(on):
            delta, witness = estimate_delta(problem.field, problem.set_spec, block["epsilons"][0],
                                            problem.integrator, **knobs)
        results.append((delta, None if witness is None else witness.tolist()))
    assert results[0][0] is None and results[1] == results[0]
    assert samples[1] <= 1.1 * samples[0]


def test_analyze_probe_work_is_pinned(monkeypatch, tmp_path):
    # `analyze problems/unstable_linear.json` with the native loop forced
    # on: its first exits, the delta probes (1,564 samples) and the
    # invariance check (151), reduce 1,715 samples. A finite epsilon keeps
    # one row in flight per native call, so that a probe's call ends at its
    # first exit. One slice, as every probe of the bundled problems runs:
    # with slices on threads, another slice's calls may reach the
    # reduction before the pass stops.
    distance_pass, samples = stability._distance_pass, []

    def counted(V, M, points, times, cfg, reduce, *rest):
        def counting(rows, j, d):
            samples.append(len(rows))
            return reduce(rows, j, d)

        return distance_pass(V, M, points, times, cfg, counting, *rest)

    monkeypatch.setattr(stability, "_distance_pass", counted)
    with native(True), sliced(1):
        assert main(["analyze", os.path.join(_PROBLEM_DIR, "unstable_linear.json"),
                     "--out-dir", str(tmp_path)]) == 2
    if native_builds(VectorFieldSpec.from_strings(["x1"])):
        assert sum(samples) == 1715


class TestClassifyStabilityOnePass:
    def test_one_lane_batch(self, sink2, cfg, monkeypatch):
        calls = _count_integrate_lanes(monkeypatch)
        report = classify_stability(
            sink2, ORIGIN_2D, cfg, epsilons=[0.1],
            roa_box=Box([-0.4, -0.4], [0.4, 0.4]), resolution=5,
            horizon_T=8.0, shell_samples=4, out_dt=0.1,
        )
        assert report.verdict == VERDICT_STABLE and report.uniform_T > 0
        # Two delta probes of 4 shell and 1 interior points, the invariance
        # check's one set point, then one integrate_lanes call for the
        # whole 5x5 grid.
        assert calls == [5, 5, 1, 25]

    @pytest.mark.parametrize("case", sorted(_GRID_PARITY_CASES))
    def test_uniform_time_matches_separate_pass(self, case, sink2, cfg):
        M, epsilons, half, horizon_T = _GRID_PARITY_CASES[case]
        box = Box([-half, -half], [half, half])
        knobs = {"resolution": 4, "horizon_T": horizon_T, "out_dt": 0.1, "tol": 0.2}
        report = classify_stability(
            sink2, M, cfg, epsilons, box, shell_samples=4, **knobs
        )
        assert report.verdict == VERDICT_STABLE
        grid = roa_grid(sink2, M, box, 4, cfg, horizon_T, 0.2, out_dt=0.1)
        expected = uniform_attraction_time(
            sink2, PointCloud(grid.nodes), M, min(epsilons), cfg, horizon_T, 0.1
        )
        assert not expected.integration_failed
        if expected.value is None:
            assert report.uniform_T is None
            assert case == "final-outside-epsilon"
        else:
            assert report.uniform_T.hex() == expected.value.hex()
            assert (expected.value == 0.0) == (case == "inside-from-start")


class TestReportTypes:
    def test_pair_validation(self):
        with pytest.raises(ValueError):
            EpsilonDeltaPair(epsilon=0.5, delta=0.6, witness=None)
        with pytest.raises(ValueError):
            EpsilonDeltaPair(epsilon=0.5, delta=None, witness=None)

    def test_report_round_trips_to_json(self):
        pair = EpsilonDeltaPair(epsilon=0.5, delta=0.4, witness=None)
        report = StabilityReport(
            pairs=(pair,),
            invariance_excursion=1e-9,
            uniform_T=0.0,
            verdict=VERDICT_STABLE,
            notes=("roa grid (3, 3): ok",),
        )
        blob = report.to_json()
        assert blob["verdict"] == VERDICT_STABLE
        assert blob["pairs"][0] == {"epsilon": 0.5, "delta": 0.4, "witness": None}
        assert blob["notes"] == ["roa grid (3, 3): ok"]
        assert UniformTimeEstimate(None, True).to_json() == {
            "value": None,
            "integration_failed": True,
        }
