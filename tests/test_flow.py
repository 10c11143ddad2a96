import importlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flow_reference import _walk
from lyapset.errors import EscapedDomainError, EvalDomainError, StepLimitError
from lyapset.expr import VectorFieldSpec, compile_vector_field
from lyapset.flow import (
    IntegratorConfig,
    Trajectory,
    _compiled,
    flow,
    integrate_lanes,
    partial_trajectory,
    sample_times,
    semigroup_defect,
    trajectory,
)
from conftest import LANES, ORBITS, lanes_from, orbit_attempts
from test_expr import any_exprs

# One strategy per dimension, built once: building one per draw costs ~25 ms.
_EXPRS = {n: any_exprs(n) for n in range(1, 5)}


class TestConfig:
    def test_defaults(self):
        c = IntegratorConfig()
        assert c.method == "rk45_adaptive"
        assert c.blowup_radius == 1e6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "euler"},
            {"dt": 0.0},
            {"rel_tol": -1e-9},
            {"abs_tol": 0.0},
            {"blowup_radius": 0.0},
            {"max_steps": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)


class TestFlow:
    def test_linear_decay(self, sink1, cfg):
        y = flow(sink1, [1.0], 1.0, cfg)
        assert abs(y[0] - math.exp(-1)) <= 1e-8

    def test_identity_bitwise(self, sink2, cfg):
        x = np.array([0.12345678901234567, -3.9876543210987654])
        y = flow(sink2, x, 0.0, cfg)
        assert np.array_equal(y, x)
        assert y is not x

    def test_quarter_turn(self, osc, cfg):
        y = flow(osc, [1.0, 0.0], math.pi / 2, cfg)
        assert np.linalg.norm(y - np.array([0.0, -1.0])) <= 1e-8

    def test_negative_time_reverses(self, sink1, cfg):
        y = flow(sink1, [1.0], -1.0, cfg)
        assert abs(y[0] - math.e) <= 1e-8

    def test_rk4_fixed_agrees(self, sink1):
        c = IntegratorConfig(method="rk4_fixed", dt=0.001)
        y = flow(sink1, [1.0], 1.0, c)
        assert abs(y[0] - math.exp(-1)) <= 1e-10

    def test_blowup_reports_escape(self, grow1, cfg):
        with pytest.raises(EscapedDomainError) as exc_info:
            flow(grow1, [1.0], 100.0, cfg)
        # e^t crosses 1e6 at t = ln(1e6) = 13.8155
        assert exc_info.value.time == pytest.approx(math.log(1e6), abs=0.1)

    def test_eval_error_surfaces(self, cfg):
        V = VectorFieldSpec.from_strings(["sqrt(x1)"])
        with pytest.raises(EvalDomainError):
            flow(V, [-1.0], 1.0, cfg)


class TestSampleTimes:
    def test_multiples_plus_final(self):
        assert sample_times(2.0, 0.3) == pytest.approx(
            [0.0, 0.3, 0.6, 0.9, 1.2, 1.5, 1.8, 2.0]
        )

    def test_equal_horizon_gives_two_samples(self):
        assert sample_times(0.7, 0.7) == [0.0, 0.7]

    def test_no_duplicate_when_horizon_divides(self):
        times = sample_times(1.0, 0.25)
        assert times == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_invalid(self):
        with pytest.raises(ValueError):
            sample_times(0.0, 0.1)
        with pytest.raises(ValueError):
            sample_times(1.0, 2.0)
        # Rejected from T / out_dt, before the 1e300-entry list is built.
        with pytest.raises(ValueError, match="T / out_dt must be <="):
            sample_times(1.0, 1e-300)


class TestTrajectory:
    def test_linear_samples(self, sink1, cfg):
        tr = trajectory(sink1, [1.0], 2.0, 1.0, cfg)
        expected = [1.0, math.exp(-1), math.exp(-2)]
        assert np.allclose(tr.states[:, 0], expected, atol=1e-8)

    def test_two_samples_when_T_equals_dt(self, sink1, cfg):
        tr = trajectory(sink1, [1.0], 0.5, 0.5, cfg)
        assert len(tr) == 2
        assert tr.times[0] == 0.0
        assert tr.times[-1] == 0.5

    def test_initial_state_exact(self, osc, cfg):
        x = np.array([1.1111111111111112, -0.7777777777777778])
        tr = trajectory(osc, x, 1.0, 0.1, cfg)
        assert np.array_equal(tr.states[0], x)

    def test_escape_before_horizon(self, grow1, cfg):
        with pytest.raises(EscapedDomainError):
            trajectory(grow1, [1.0], 100.0, 1.0, cfg)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.1, 0.2]), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.full((2, 1), np.nan))

    @pytest.mark.parametrize("method", ["rk45_adaptive", "rk4_fixed"])
    def test_final_sample_is_flow_bitwise(self, vdp, method):
        # The steps do not depend on the sample times, and the sample at the
        # horizon is the state of the step that ends there, not an
        # interpolant: it is flow's state, bit for bit.
        cfg = IntegratorConfig(method=method, dt=0.03)
        for x, T, out_dt in (([2.0, 0.0], 6.5, 0.01), ([0.5, -1.5], 3.0, 0.7),
                             ([1.0, 1.0], 0.4, 0.4)):
            final = trajectory(vdp, x, T, out_dt, cfg).states[-1]
            assert final.tobytes() == flow(vdp, x, T, cfg).tobytes()

    def test_samples_consistent_with_flow(self, osc, cfg_tight):
        tr = trajectory(osc, [1.0, 0.0], 3.0, 0.5, cfg_tight)
        for t, state in zip(tr.times[1:], tr.states[1:]):
            direct = flow(osc, [1.0, 0.0], float(t), cfg_tight)
            assert np.linalg.norm(state - direct) <= 1e-8


class TestPartialAndLazy:
    def test_partial_returns_prefix_and_error(self, grow1, cfg):
        traj, error = partial_trajectory(grow1, [1.0], 100.0, 1.0, cfg)
        assert isinstance(error, EscapedDomainError)
        assert traj.times[-1] <= 14.0
        assert len(traj) >= 13

    def test_partial_clean_run_has_no_error(self, sink1, cfg):
        traj, error = partial_trajectory(sink1, [1.0], 1.0, 0.5, cfg)
        assert error is None
        assert len(traj) == 3


class TestSemigroup:
    def test_zero_times_exact(self, sink1, cfg):
        assert semigroup_defect(sink1, [1.0], 0.0, 0.0, cfg) == 0.0

    def test_linear_halves(self, sink1, cfg_tight):
        assert semigroup_defect(sink1, [1.0], 0.5, 0.5, cfg_tight) <= 1e-8

    def test_rotation_group_inverse(self, osc, cfg_tight):
        assert semigroup_defect(osc, [2.0, 0.0], 1.0, -1.0, cfg_tight) <= 1e-8

    def test_randomized_defect_within_tolerance(self, sink2, osc, cfg_tight):
        rng = np.random.default_rng(2718)
        for V in (sink2, osc):
            for _ in range(10):
                x = rng.uniform(-2, 2, size=2)
                t1 = float(rng.uniform(0, 2))
                t2 = float(rng.uniform(0, 2))
                assert semigroup_defect(V, x, t1, t2, cfg_tight) <= 100 * 1e-7


class TestContinuity:
    def test_linear_field_lipschitz_bound(self, sink2, cfg_tight):
        # For the linear sink the flow map contracts, Lipschitz constant 1
        # forward in time; a perturbation never grows beyond e^{L|t|}|delta|.
        rng = np.random.default_rng(99)
        delta = 1e-6
        for _ in range(10):
            x = rng.uniform(-2, 2, size=2)
            u = rng.standard_normal(2)
            u *= delta / np.linalg.norm(u)
            t = float(rng.uniform(0.1, 3.0))
            a = flow(sink2, x, t, cfg_tight)
            b = flow(sink2, x + u, t, cfg_tight)
            bound = math.exp(1.0 * t) * delta * (1 + 1e-6) + 1e-12
            assert np.linalg.norm(a - b) <= bound

    def test_time_reversal_returns(self, osc, cfg_tight):
        x = np.array([1.0, 0.5])
        y = flow(osc, flow(osc, x, 2.0, cfg_tight), -2.0, cfg_tight)
        assert np.linalg.norm(y - x) <= 1e-7


_FAILURES = (EscapedDomainError, EvalDomainError, StepLimitError)


def _error_bits(error):
    if error is None:
        return None
    bits = [type(error).__name__, str(error)]
    if isinstance(error, EscapedDomainError):
        bits += [error.time.hex(), [v.hex() for v in error.state]]
    return bits


def _generated_orbit(V, y, targets, cfg):
    """Samples, attempt count (None on failure) and error of the generated loop."""
    out = []
    try:
        attempts = _compiled(V, cfg.method)(list(y), targets, cfg, out)
    except _FAILURES as exc:
        return out, None, exc
    return out, attempts, None


def _reference_orbit(V, y, targets, cfg):
    """The same, read off the reference _walk."""
    samples = []
    walk = _walk(V, list(y), targets, cfg)
    try:
        while True:
            samples.append(next(walk)[1])
    except StopIteration as stop:
        return samples, stop.value, None
    except _FAILURES as exc:
        return samples, None, exc


def _orbit_bits(run):
    samples, attempts, error = run
    return [[v.hex() for v in s] for s in samples], attempts, _error_bits(error)


def _orbit_case(texts, y, targets, **options):
    return VectorFieldSpec.from_strings(texts), y, targets, IntegratorConfig(**options)


@st.composite
def _orbits(draw):
    n = draw(st.integers(1, 4))
    V = VectorFieldSpec(tuple(draw(_EXPRS[n]) for _ in range(n)), n)
    y = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    T = draw(st.floats(0.05, 3.0))
    targets = sample_times(T, T * draw(st.floats(0.01, 1.0)))[1:]
    cfg = IntegratorConfig(
        method=draw(st.sampled_from(("rk45_adaptive", "rk4_fixed"))),
        dt=draw(st.floats(1e-3, 0.5)),
        rel_tol=draw(st.floats(1e-12, 1e-2)),
        abs_tol=draw(st.floats(1e-14, 1e-2)),
        blowup_radius=draw(st.floats(1.0, 20.0)),
        max_steps=draw(st.integers(1, 80)),
    )
    return V, y, targets, cfg


class TestGeneratedOrbit:
    @settings(max_examples=200, deadline=None)
    @given(_orbits())
    # A harmonic delta-probe orbit, as the stability block runs it.
    @example(_orbit_case(["x2", "-x1"], [0.3, 0.1], sample_times(8.0, 0.1)[1:],
                         rel_tol=1e-10, abs_tol=1e-13))
    # One step to 0.2, then one from 0.2 onto the horizon 0.9: without the
    # snap onto the horizon, t ends at 0.2 + 0.7, just below 0.9, and one
    # more step follows. Then one step to the horizon, with 0.2 inside it.
    @example(_orbit_case(["0"], [1.0], [0.2, 0.9], dt=0.2))
    @example(_orbit_case(["0"], [1.0], [0.2, 0.9], method="rk4_fixed", dt=100.0))
    # Several samples per step, and several steps per sample.
    @example(_orbit_case(["x2", "-x1"], [1.0, 0.0], sample_times(2.0, 0.01)[1:],
                         rel_tol=1e-3, abs_tol=1e-6))
    @example(_orbit_case(["x2", "-x1"], [1.0, 0.0], [1.5, 3.0], rel_tol=1e-12, abs_tol=1e-14))
    # Targets on step endpoints (0.25 and 1.5, and with RK4 each target):
    # there the sample is the new state, not the extension at theta = 1.
    @example(_orbit_case(["1"], [0.0], [0.25, 1.0, 1.5, 2.0], dt=0.25))
    @example(_orbit_case(["x1"], [1.0], [0.25, 1.0, 1.5, 2.0], method="rk4_fixed", dt=0.25))
    # RK4 with its step above out_dt: three or four samples per step.
    @example(_orbit_case(["x2", "-x1"], [1.0, 0.0], sample_times(2.0, 0.1)[1:],
                         method="rk4_fixed", dt=0.35))
    # The slope -1/x1 blows up at t = 0.5: the step size underflows.
    @example(_orbit_case(["-1 / x1"], [1.0], [0.4, 1.0], max_steps=10_000))
    # Escape at the start, before any step.
    @example(_orbit_case(["x2", "-x1"], [3.0, 4.0], [1.0], blowup_radius=4.0))
    @example(_orbit_case(["x2", "-x1"], [3.0, 4.0], [1.0], method="rk4_fixed",
                         blowup_radius=4.0))
    # A domain failure of the first slope, and one inside an RK4 step.
    @example(_orbit_case(["sqrt(x1)"], [-1.0], [1.0]))
    @example(_orbit_case(["-sqrt(x1 - 0.5)"], [1.0], [3.0], method="rk4_fixed", dt=0.4))
    def test_bitwise_equal_to_reference_walk(self, case):
        V, y, targets, cfg = case
        assert _orbit_bits(_generated_orbit(V, y, targets, cfg)) == _orbit_bits(
            _reference_orbit(V, y, targets, cfg)
        )


def _lane_samples(V, starts, targets, cfg, loop=LANES):
    """Per start of one integrate_lanes call, with _LANES_FROM set to loop:
    the bits of its samples, in the order visit saw them, and the
    _error_bits of the error returned for it."""
    samples = [[] for _ in starts]

    def visit(rows, j, states):
        for row, target, state in zip(rows.tolist(), j.tolist(), states):
            samples[row].append((target, [float(v).hex() for v in state]))

    with lanes_from(loop):
        errors = integrate_lanes(V, starts, targets, cfg, visit)
    assert set(errors) <= set(range(len(starts)))
    assert all(isinstance(error, _FAILURES) for error in errors.values())
    return [(samples[i], _error_bits(errors.get(i))) for i in range(len(starts))]


def _orbit_samples(V, y, targets, cfg):
    """The same for the generated orbit loop run from one start alone."""
    out, _, error = _generated_orbit(V, y, targets, cfg)
    samples = [(j, [v.hex() for v in state]) for j, state in enumerate(out)]
    return samples, _error_bits(error)


def _batch_case(texts, starts, targets, **options):
    return VectorFieldSpec.from_strings(texts), starts, targets, IntegratorConfig(**options)


def _lanes_case(texts, starts):
    """A batch of starts on the field texts, run to t = 1e-300 in one step
    of that size, so stage states stay at the starts and lanes fail or not
    as the field does there. The blow-up radius lets starts near 1e300
    reach the field's guards."""
    return _batch_case(texts, starts, [1e-300], dt=1e-300, blowup_radius=1e308)


# A 7 x 7 grid on [-1, 1]^2, to t = 2: 21 orbits escape, and on the other
# 28 exp overflows.
_MIXED_GRID = _batch_case(
    ["x2", "-exp(x1*x1*40) + x2"],
    np.stack([c.reshape(-1) for c in np.meshgrid(*[np.linspace(-1.0, 1.0, 7)] * 2,
                                                  indexing="ij")], -1).tolist(),
    sample_times(2.0, 0.05)[1:],
)


@st.composite
def _lane_batches(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    V = VectorFieldSpec(tuple(draw(_EXPRS[n]) for _ in range(n)), n)
    # Moderate values, and values near the top of the double range where
    # stage sums, squares and powers overflow.
    value = st.one_of(st.floats(-4.0, 4.0), st.floats(-1e300, 1e300))
    starts = [draw(st.lists(value, min_size=n, max_size=n)) for _ in range(m)]
    T = draw(st.floats(0.05, 3.0))
    targets = sample_times(T, T * draw(st.floats(0.01, 1.0)))[1:]
    cfg = IntegratorConfig(
        method=draw(st.sampled_from(("rk45_adaptive", "rk4_fixed"))),
        dt=draw(st.floats(1e-3, 0.5)),
        rel_tol=draw(st.floats(1e-12, 1e-2)),
        abs_tol=draw(st.floats(1e-14, 1e-2)),
        blowup_radius=draw(st.floats(1.0, 1e308)),
        max_steps=draw(st.integers(1, 80)),
    )
    return V, starts, targets, cfg


class TestLaneBatch:
    @settings(max_examples=200, deadline=None)
    @given(_lane_batches())
    # One case per place where the scalar code raises: each guard, then
    # each Python float or math exception, then a non-finite operand of
    # exp, which fails though exp(-inf) is finite, then a constant
    # expression that raises on every lane.
    @example(_lanes_case(["x1 * 1e300 * 1e300"], [[1.0], [0.0]]))
    @example(_lanes_case(["tanh(x1 * 1e300 * 1e300)"], [[1.0], [0.5e-300]]))
    @example(_lanes_case(["(x1 * 1e300 * 1e300)^0"], [[1.0], [1e-300]]))
    @example(_lanes_case(["1 / (x1 * 1e300 * 1e300)"], [[1.0], [1e-300]]))
    @example(_lanes_case(["min(x1 * 1e300 * 1e300, -x1)"], [[1.0], [0.0]]))
    @example(_lanes_case(["max(-x1, x1 * 1e300 * 1e300)"], [[1.0], [-1e-300]]))
    @example(_lanes_case(["sqrt(x1)"], [[-1.0], [-0.0], [2.0]]))
    @example(_lanes_case(["sin(x1 * 1e300 * 1e300)"], [[1.0], [-3.0e-300]]))
    @example(_lanes_case(["cos(x1 * 1e300 * 1e300)"], [[-1.0], [1e-300]]))
    @example(_lanes_case(["1 / x1"], [[0.0], [-0.0], [0.5]]))
    @example(_lanes_case(["exp(x1 * 1000)"], [[1.0], [-1.0], [0.5]]))
    @example(_lanes_case(["x1^-3"], [[1e-300], [0.0], [2.0]]))
    @example(_lanes_case(["x1^0.5"], [[-1.0], [4.0]]))
    @example(_lanes_case(["x1^3"], [[1e200], [-1e100]]))
    @example(_lanes_case(["exp(-(x1 * 1e300 * 1e300))", "-x2"], [[1.0, 1.0], [-1.0, 0.0]]))
    @example(_lanes_case(["1 / 0 + x1"], [[1.0], [2.0]]))
    # A cube that np.power rounds differently from libm's pow.
    @example(_lanes_case(["x1^3"], [[2.3383853854339334], [0.5]]))
    # Squares are products: a base whose square pow rounds otherwise, and
    # a square that overflows, also under exp(-inf) = 0.
    @example(_lanes_case(["x1^2"], [[2.817595433862767], [1e200], [0.5]]))
    @example(_lanes_case(["exp(-(x1^2))"], [[1e200], [0.5]]))
    # Two steps, to 0.2 and from there onto the horizon 0.9, within a
    # budget of two: without the snap onto the horizon, t ends just below
    # 0.9 and a third step follows. Then one step with 0.2 inside it.
    @example(_batch_case(["0"], [[1.0]], [0.2, 0.9], dt=0.2, max_steps=2))
    @example(_batch_case(["0"], [[1.0]], [0.2, 0.9], method="rk4_fixed", dt=100.0,
                         max_steps=2))
    # Several samples per step and lanes apart in time, several steps per
    # sample, targets on step endpoints, and RK4 with its step above out_dt.
    @example(_batch_case(["x2", "-x1"], [[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]],
                         sample_times(2.0, 0.01)[1:], rel_tol=1e-3, abs_tol=1e-6))
    @example(_batch_case(["x2", "-x1"], [[1.0, 0.0], [0.5, 0.5]], [1.5, 3.0],
                         rel_tol=1e-12, abs_tol=1e-14))
    @example(_batch_case(["1"], [[0.0], [1.0]], [0.25, 1.0, 1.5, 2.0], dt=0.25))
    @example(_batch_case(["x1"], [[1.0], [-0.5]], [0.25, 1.0, 1.5, 2.0], method="rk4_fixed",
                         dt=0.25))
    @example(_batch_case(["x2", "-x1"], [[1.0, 0.0], [0.3, -0.2]], sample_times(2.0, 0.1)[1:],
                         method="rk4_fixed", dt=0.35))
    # Lanes that leave the batch at different targets: the step size of
    # the first underflows where -1/x1 blows up at t = 0.5; the second
    # finishes.
    @example(_batch_case(["-1 / x1"], [[1.0], [2.0]], [0.4, 1.0], max_steps=10_000))
    # A stage overflows in an attempt at the smallest step size: the scalar
    # loop raises the domain failure before its step control can underflow.
    @example(_batch_case(["x1 * 1e300"], [[0.1], [0.0]], [1e-12], dt=1e-12,
                         blowup_radius=1e308))
    # Harmonic delta probes, one of them started outside the blow-up
    # radius, all out of step budget before the horizon.
    @example(_batch_case(["x2", "-x1"], [[0.3, 0.1], [3.0, 4.0], [0.0, 1.0]],
                         sample_times(8.0, 0.1)[1:], blowup_radius=4.0, max_steps=60))
    @example(_batch_case(["x1"], [[1.0], [0.5], [-2.0]], sample_times(3.0, 0.5)[1:],
                         method="rk4_fixed", dt=0.1, blowup_radius=4.0))
    # Escapes and domain failures in one batch: the lanes that fail in the
    # field run again in the orbit loop for their errors.
    @example(_MIXED_GRID)
    def test_bitwise_equal_to_orbit_loop(self, case):
        V, starts, targets, cfg = case
        assert _lane_samples(V, starts, targets, cfg) == [
            _orbit_samples(V, y, targets, cfg) for y in starts
        ]

    @pytest.mark.parametrize("text", ["x1^2", "exp(-(x1^2))"])
    def test_square_overflow_fails_its_lane(self, text):
        V, starts, targets, cfg = _lanes_case([text], [[1e200], [0.5]])
        for loop in (LANES, ORBITS):
            rows = _lane_samples(V, starts, targets, cfg, loop)
            assert [error is not None for _, error in rows] == [True, False]

    def test_visit_exception_propagates_unchanged(self, osc, cfg):
        error = ZeroDivisionError("raised by visit")

        def visit(rows, j, states):
            raise error

        for loop in (LANES, ORBITS):
            with lanes_from(loop), pytest.raises(ZeroDivisionError) as exc_info:
                integrate_lanes(osc, [[1.0, 0.0], [0.5, 0.5]], [0.5, 1.0], cfg, visit)
            assert exc_info.value is error


_HARMONIC_HALF_BUDGET = orbit_attempts(["x2", "-x1"], [0.3, 0.1], 8.0, 0.1) // 2

# name: (batch case, {row: the start of the text of the error that ends it}).
_DISPATCH_CASES = {
    # Escapes at the start and mid-orbit at two different targets, and a
    # start that finishes.
    "escape": (_batch_case(["x1"], [[1.0], [0.1], [0.5], [-5.0]], sample_times(3.0, 0.5)[1:],
                           blowup_radius=4.0),
               {0: "escaped domain at t=1.44609", 2: "escaped domain at t=2.10921",
                3: "escaped domain at t=0"}),
    "domain": (_batch_case(["-sqrt(x1 - 0.5)", "-x2"], [[1.0, 1.0], [0.0, 1.0], [5.0, 0.5]],
                           [0.5, 1.0, 3.0], method="rk4_fixed", dt=0.4),
               {0: "math domain error", 1: "math domain error"}),
    # The equilibrium finishes in a few growing steps; the other starts run
    # out of steps halfway.
    "step-budget": (_batch_case(["x2", "-x1"], [[0.3, 0.1], [0.0, 0.0], [2.0, -1.0]],
                                sample_times(8.0, 0.1)[1:], max_steps=_HARMONIC_HALF_BUDGET),
                    {0: f"exceeded {_HARMONIC_HALF_BUDGET} steps",
                     2: f"exceeded {_HARMONIC_HALF_BUDGET} steps"}),
    "underflow": (_batch_case(["-1 / x1"], [[1.0], [2.0], [0.5]], [0.1, 0.4, 1.0],
                              max_steps=10_000),
                  {0: "step size underflow", 2: "step size underflow"}),
}


class TestLoopDispatch:
    def test_lane_batch_from_lanes_from_starts(self, osc, cfg, monkeypatch):
        module = importlib.import_module("lyapset.flow")
        generated, inner = [], module._compiled

        def recording(V, method, lanes=False):
            generated.append(lanes)
            return inner(V, method, lanes)

        monkeypatch.setattr(module, "_compiled", recording)
        for m in (1, module._LANES_FROM - 1, module._LANES_FROM, module._LANES_FROM + 1):
            generated.clear()
            integrate_lanes(osc, np.zeros((m, 2)), [0.5], cfg, lambda rows, j, states: None)
            assert generated == [m >= module._LANES_FROM]

    @pytest.mark.parametrize("name", sorted(_DISPATCH_CASES))
    def test_either_loop_gives_the_same_bits(self, name):
        (V, starts, targets, cfg), ends = _DISPATCH_CASES[name]
        lanes = _lane_samples(V, starts, targets, cfg, LANES)
        assert _lane_samples(V, starts, targets, cfg, ORBITS) == lanes
        got = {row: error[1] for row, (_, error) in enumerate(lanes) if error}
        assert got.keys() == ends.keys()
        assert all(got[row].startswith(end) for row, end in ends.items())

    def test_no_sample_inside_an_escaping_step(self):
        # x e^t leaves radius 4 at t = ln(4 / x), inside a step that ends
        # at the escape time; the targets every 0.01 inside that step are
        # not recorded, whichever loop runs the orbit.
        V, starts, targets, cfg = _batch_case(["x1"], [[1.0], [2.0]],
                                              sample_times(3.0, 0.01)[1:], blowup_radius=4.0)
        for loop in (LANES, ORBITS):
            rows = _lane_samples(V, starts, targets, cfg, loop)
            for (x,), (samples, error) in zip(starts, rows):
                escape = float.fromhex(error[2])
                assert error[0] == "EscapedDomainError" and escape > math.log(4.0 / x)
                assert [j for j, _ in samples] == list(range(len(samples)))
                assert all(float.fromhex(state[0]) <= 4.0 for _, state in samples)
                # The first target left out lies before the escape, so
                # inside the escaping step: each earlier step recorded
                # every target up to its end.
                assert targets[len(samples)] < escape

    def test_lanes_failed_in_the_field_alone_run_again(self, monkeypatch):
        # Every row fails, by escape or in the field. The batch records the
        # escapes; only the 28 domain failures run again, in the orbit loop.
        V, starts, targets, cfg = _MIXED_GRID
        module = importlib.import_module("lyapset.flow")
        orbits, inner = [], module._compiled

        def recording(V, method, lanes=False):
            loop = inner(V, method, lanes)
            return loop if lanes else lambda y, *args: orbits.append(y) or loop(y, *args)

        monkeypatch.setattr(module, "_compiled", recording)
        lanes = _lane_samples(V, starts, targets, cfg, LANES)
        kinds = [error[0] for _, error in lanes]
        assert kinds.count("EscapedDomainError") == 21
        assert kinds.count("EvalDomainError") == 28
        domain = [starts[row] for row, kind in enumerate(kinds) if kind == "EvalDomainError"]
        assert sorted(orbits) == domain
        orbits.clear()
        assert _lane_samples(V, starts, targets, cfg, ORBITS) == lanes
        assert orbits == starts


class TestCompiledCache:
    def test_signed_zero_constants_are_distinct_fields(self):
        plus = VectorFieldSpec.from_strings(["0"])
        minus = plus.negated()  # Const(-0.0)
        expected = compile_vector_field(minus)([1.0])[0].hex()
        assert expected == "-0x0.0p+0"
        for lanes in (False, True):
            assert _compiled(plus, "rk4_fixed", lanes) is not _compiled(minus, "rk4_fixed", lanes)
        # From -0.0 an RK4 step adds h / 6 * (sum of slopes), which keeps
        # the sign of zero only when every slope is -0.0.
        cfg = IntegratorConfig(method="rk4_fixed", dt=0.5)
        for V, bits in ((plus, "0x0.0p+0"), (minus, expected)):
            out = []
            _compiled(V, cfg.method)([-0.0], [0.5], cfg, out)
            assert out[0][0].hex() == bits
            assert _lane_samples(V, [[-0.0], [-0.0]], [0.5], cfg) == [([(0, [bits])], None)] * 2
