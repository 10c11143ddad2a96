import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lyapset import geometry
from lyapset.errors import (
    DimensionMismatchError,
    EscapedDomainError,
    OrbitUnboundedError,
    StepLimitError,
)
from lyapset.expr import VectorFieldSpec
from lyapset.flow import IntegratorConfig, flow, flow_rows, trajectory
from lyapset.geometry import (
    Box,
    ClosedBall,
    PointCloud,
    SinglePoint,
    _greedy_cluster,
    hausdorff,
)
from lyapset.limits import (
    LABEL_ATTRACTED,
    LABEL_ERROR,
    LABEL_NOT,
    LABEL_WEAK,
    classify_attraction,
    estimate_omega,
    roa_grid,
)
from lyapset.lyapunov import ConverseConfig, converse_table
from lyapset.problem import load_problem

from conftest import OSC_ALIGNED_DT, TWO_PI, circle_cloud, native
from test_geometry import hausdorff_brute

PROBLEM_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "problems")


class TestEstimateOmega:
    def test_sink_collapses_to_single_representative(self, sink2, cfg):
        est = estimate_omega(
            sink2, [1.0, 1.0], cfg, transient_T=20.0, window_T=5.0, cluster_tol=1e-4
        )
        assert len(est.points) == 1
        assert np.linalg.norm(est.points.points[0]) <= 1e-6
        assert est.invariance_defect <= 1e-6

    def test_oscillator_circle_with_aligned_window(self, osc, cfg_tight):
        est = estimate_omega(
            osc,
            [0.6, 0.0],
            cfg_tight,
            transient_T=5.0,
            window_T=TWO_PI,
            out_dt=OSC_ALIGNED_DT,
            cluster_tol=1e-4,
        )
        assert len(est.points) == 628
        radii = np.linalg.norm(est.points.points, axis=1)
        assert np.max(np.abs(radii - 0.6)) <= 1e-6
        assert est.invariance_defect <= 1e-5

    def test_estimate_is_the_set_m(self, osc, cfg):
        # The estimate goes in as M as it is, with the same bits as a cloud
        # built from a copy of its points.
        est = estimate_omega(
            osc, [0.6, 0.0], cfg, transient_T=5.0, window_T=TWO_PI, out_dt=0.05,
            cluster_tol=1e-3,
        )
        assert isinstance(est.points, PointCloud)

        def evidence(M):
            v = classify_attraction(osc, [0.7, 0.0], M, cfg, 5.0, 0.2, out_dt=0.05)
            grid = roa_grid(osc, M, Box([-1.0, -1.0], [1.0, 1.0]), 4, cfg, 3.0, 0.2,
                            out_dt=0.1)
            table = converse_table(osc, M, [[0.7, 0.0], [0.2, 0.1]], cfg,
                                   ConverseConfig(2.0, 0.05))
            return (
                (v.label, v.escaped, v.final_distance.hex(), v.min_distance.hex()),
                (grid.to_csv(), grid.min_distances.tobytes(), grid.peak_distances.tobytes(),
                 grid.escaped, grid.errors),
                (table.to_csv(), table.truncation_bound.hex()),
            )

        assert evidence(est.points) == evidence(PointCloud(est.points.points))

    def test_unbounded_orbit_raises(self, grow1, cfg):
        with pytest.raises(OrbitUnboundedError):
            estimate_omega(grow1, [1.0], cfg)

    @pytest.mark.parametrize("on", [False, True])
    def test_probe_escape_raises_the_flow_text(self, grow1, on):
        # x1' = x1 from 1 stays below 10 through the window [1, 2]; the
        # probe carries the last representative, e^2, on to e^2.5 > 10.
        cfg = IntegratorConfig(blowup_radius=10.0)
        last = trajectory(grow1, flow(grow1, [1.0], 1.0, cfg), 1.0, 0.5, cfg).states[-1]
        with pytest.raises(EscapedDomainError) as scalar:
            flow(grow1, last, 0.5, cfg)
        with native(on), pytest.raises(OrbitUnboundedError) as probe:
            estimate_omega(grow1, [1.0], cfg, transient_T=1.0, window_T=1.0, out_dt=0.5)
        assert str(probe.value) == f"representative escaped during probe: {scalar.value}"

    def test_invalid_windowsint(self, sink1, cfg):
        with pytest.raises(ValueError):
            estimate_omega(sink1, [1.0], cfg, transient_T=0.0)
        with pytest.raises(ValueError):
            estimate_omega(sink1, [1.0], cfg, window_T=-1.0)

    @pytest.mark.parametrize("tol", [-0.05, 0.0, float("nan")])
    def test_invalid_cluster_tol(self, osc, cfg, tol):
        # A negative radius would cluster as its absolute value and report
        # the negative one.
        with pytest.raises(ValueError, match="cluster_tol must be > 0"):
            estimate_omega(osc, [1.0, 0.0], cfg, cluster_tol=tol)


class TestOmegaProperties:
    def test_shift_invariance_of_estimate(self, sink1, osc, vdp, cfg):
        # The limit set of x and of any forward image of x agree; the
        # clustered estimates should match to within a few cluster radii.
        cases = [
            (sink1, [1.0], dict(transient_T=30.0, window_T=5.0, cluster_tol=1e-4)),
            (
                osc,
                [0.6, 0.0],
                dict(transient_T=5.0, window_T=TWO_PI, cluster_tol=1e-3),
            ),
            (
                vdp,
                [0.5, 0.0],
                dict(transient_T=60.0, window_T=6.7, out_dt=0.002, cluster_tol=2e-3),
            ),
        ]
        rng = np.random.default_rng(7)
        for V, x, knobs in cases:
            base = estimate_omega(V, x, cfg, **knobs)
            for _ in range(2):
                t = float(rng.uniform(0.0, 5.0))
                shifted = estimate_omega(V, flow(V, x, t, cfg), cfg, **knobs)
                h = hausdorff(base.points.points, shifted.points.points)
                assert h <= 10 * knobs["cluster_tol"]

    def test_invariance_defect_bound(self, sink1, rot_sink, osc, cfg):
        cases = [
            (sink1, [1.0], dict(transient_T=30.0, window_T=5.0, cluster_tol=1e-4)),
            (rot_sink, [1.0, 1.0], dict(transient_T=30.0, window_T=5.0, cluster_tol=1e-4)),
            (osc, [0.6, 0.0], dict(transient_T=5.0, window_T=TWO_PI, cluster_tol=1e-3)),
        ]
        for V, x, knobs in cases:
            est = estimate_omega(V, x, cfg, **knobs)
            assert est.invariance_defect <= 10 * knobs["cluster_tol"]


def _greedy_cluster_loop(samples: np.ndarray, tol: float) -> np.ndarray:
    """Reference clustering: each sample against every representative so
    far, by the squared differences summed from left to right."""
    reps = np.empty_like(samples)
    count = 0
    tol2 = tol * tol
    for p in samples:
        if count:
            total = 0.0
            for c in range(samples.shape[1]):
                e = reps[:count, c] - p[c]
                total = total + e * e
            if np.min(total) <= tol2:
                continue
        reps[count] = p
        count += 1
    return reps[:count].copy()


def _cluster_window(kind: str, n: int, k: int, tol: float, seed: int) -> np.ndarray:
    """k samples in R^n of one kind, drawn from seed."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (k, n))
    if kind == "rounded":
        x = np.round(x, 1)
    elif kind == "duplicates":
        x = np.round(x, 1)[rng.integers(0, max(1, k // 4), k)]
    elif kind == "constant":
        x[:, rng.integers(n)] = 0.25
    elif kind == "converged":  # every pair within tol
        x = 0.3 + x * (0.49 * tol / math.sqrt(n))
    elif kind == "tiny":  # squared gaps underflow to 0 or to subnormals
        x = np.round(3.0 * x) * 1e-162
    return x


# Cluster tolerances: 1e-161 squares to a subnormal, 1e-170 to 0.
_CLUSTER_TOLS = (1e-3, 0.05, 0.4, 1e-161, 1e-170)


@st.composite
def _cluster_cases(draw):
    """(kind, n, k, tol, seed, chunk entries). At 7 entries the blocks hold 3
    samples and a chunk about one row, so those cases keep to 60 samples."""
    chunk = draw(st.sampled_from([geometry._CHUNK_ENTRIES, 7]))
    kind = draw(st.sampled_from(["uniform", "rounded", "duplicates", "constant", "converged",
                                 "tiny"]))
    k = draw(st.integers(1, 400 if chunk > 7 else 60))
    tol = draw(st.sampled_from(_CLUSTER_TOLS))
    return kind, draw(st.integers(1, 9)), k, tol, draw(st.integers(0, 2**32 - 1)), chunk


def _omega_case(name: str):
    """Field, start, integrator and estimate_omega knobs of a real window:
    a bundled problem's omega block, or perfbench's 4-D cycle."""
    if name == "cycle":
        V = VectorFieldSpec.from_strings(["x2", "(1 - x1^2)*x2 - x1", "x1 - x3", "x2 - 2*x4"])
        return V, [0.5, 0.0, 0.0, 0.0], IntegratorConfig(), dict(
            transient_T=60.0, window_T=6.7, out_dt=0.01, cluster_tol=1e-3)
    problem = load_problem(os.path.join(PROBLEM_DIR, f"{name}.json"))
    block = problem.omega
    return problem.field, block["x0"], problem.integrator, dict(
        transient_T=block["transient"], window_T=block["window"], out_dt=block["out_dt"],
        cluster_tol=block["cluster_tol"])


class TestGreedyCluster:
    @settings(max_examples=300, deadline=None)
    @given(_cluster_cases())
    @example(("uniform", 8, 300, 0.4, 1, geometry._CHUNK_ENTRIES))  # 8 or more terms
    @example(("uniform", 9, 60, 0.4, 2, 7))
    @example(("rounded", 2, 400, 0.05, 3, geometry._CHUNK_ENTRIES))
    @example(("duplicates", 3, 400, 1e-3, 4, geometry._CHUNK_ENTRIES))
    @example(("constant", 2, 400, 0.05, 5, geometry._CHUNK_ENTRIES))
    @example(("converged", 9, 400, 1e-3, 6, geometry._CHUNK_ENTRIES))
    @example(("converged", 1, 60, 0.05, 7, 7))
    @example(("tiny", 2, 200, 1e-170, 8, geometry._CHUNK_ENTRIES))
    @example(("tiny", 4, 200, 1e-161, 9, geometry._CHUNK_ENTRIES))
    def test_matches_loop_oracle_bitwise(self, case):
        kind, n, k, tol, seed, chunk = case
        samples = _cluster_window(kind, n, k, tol, seed)
        with mock.patch.object(geometry, "_CHUNK_ENTRIES", chunk):
            got = _greedy_cluster(samples, tol)
        expected = _greedy_cluster_loop(samples, tol)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        if kind == "converged":
            assert got.shape[0] == 1

    @pytest.mark.parametrize("name", ["harmonic_oscillator", "vanderpol", "cycle"])
    def test_estimate_matches_oracles_bitwise(self, name):
        V, x, cfg, knobs = _omega_case(name)
        est = estimate_omega(V, x, cfg, **knobs)
        settled = flow(V, x, knobs["transient_T"], cfg)
        window = trajectory(V, settled, knobs["window_T"], knobs["out_dt"], cfg).states
        reps = _greedy_cluster_loop(window, knobs["cluster_tol"])
        moved, error = flow_rows(V, reps, knobs["out_dt"], cfg)
        assert error is None
        assert est.points.points.tobytes() == reps.tobytes()
        assert est.invariance_defect.hex() == hausdorff_brute(moved, reps).hex()


class TestClassifyAttraction:
    def test_sink_attracted(self, sink2, cfg):
        v = classify_attraction(
            sink2, [1.0, 1.0], SinglePoint([0.0, 0.0]), cfg, horizon_T=20.0, tol=1e-3
        )
        assert v.label == LABEL_ATTRACTED
        assert v.final_distance <= 1e-6
        assert not v.escaped

    def test_periodic_revisit_is_weak(self, osc, cfg):
        # The orbit through (1,0) returns to it each period but spends most
        # of the time far away, so the tail criterion fails while the dip
        # criterion holds.
        v = classify_attraction(
            osc, [1.0, 0.0], SinglePoint([1.0, 0.0]), cfg, horizon_T=20.0, tol=1e-3
        )
        assert v.label == LABEL_WEAK
        assert v.min_distance <= 1e-3
        assert v.final_distance > 1e-3

    def test_constant_radius_not_attracted(self, osc, cfg):
        v = classify_attraction(
            osc, [1.0, 0.0], SinglePoint([0.0, 0.0]), cfg, horizon_T=20.0, tol=1e-3
        )
        assert v.label == LABEL_NOT
        assert v.min_distance == pytest.approx(1.0, abs=1e-6)

    def test_escape_reported(self, grow1, cfg):
        v = classify_attraction(
            grow1, [1.0], SinglePoint([0.0]), cfg, horizon_T=20.0, tol=1e-3
        )
        assert v.escaped
        assert v.label == LABEL_NOT

    def test_step_budget_raises(self, sink1, cfg):
        # An exhausted budget says nothing about where the orbit goes.
        with pytest.raises(StepLimitError, match="exceeded 3 steps at t="):
            classify_attraction(sink1, [1.0], SinglePoint([0.0]),
                                IntegratorConfig(max_steps=3), horizon_T=5.0, tol=1e-3)

    def test_validation(self, sink1, cfg):
        with pytest.raises(ValueError):
            classify_attraction(sink1, [1.0], SinglePoint([0.0]), cfg, horizon_T=0.0, tol=1e-3)
        with pytest.raises(ValueError):
            classify_attraction(sink1, [1.0], SinglePoint([0.0]), cfg, horizon_T=1.0, tol=0.0)


_REVERSED_VDP = ["-x2", "x1 - (1 - x1^2)*x2"]
_ORIGIN = SinglePoint([0.0, 0.0])
# field, set, resolution, integrator options, horizon, tol. Each case has
# escaping or failing orbits, and all but two have nodes with different
# verdicts.
_POINTWISE_CASES = {
    "vanderpol-point": (_REVERSED_VDP, _ORIGIN, 5, {}, 10.0, 1e-3),
    "vanderpol-ball": (_REVERSED_VDP, ClosedBall([0.0, 0.0], 0.5), 5, {}, 10.0, 1e-3),
    "vanderpol-box": (_REVERSED_VDP, Box([-0.2, -0.1], [0.3, 0.2]), 5, {}, 10.0, 1e-3),
    "vanderpol-cloud": (_REVERSED_VDP, circle_cloud(200, 0.5), 5, {}, 10.0, 1e-2),
    "vanderpol-rk4": (_REVERSED_VDP, _ORIGIN, 5, {"method": "rk4_fixed"}, 3.0, 1e-3),
    "step-budget": (_REVERSED_VDP, _ORIGIN, 3, {"max_steps": 3}, 5.0, 3.0),
    "singular-sqrt": (["-sqrt(x1)", "-x2"], _ORIGIN, 4, {}, 5.0, 1e-3),
    # Where x3 runs away, the step size underflows: 9 error rows.
    "three-dimensional": (
        ["-x1 + x2*x3", "-x2 - sin(x1)", "exp(x3) - 1 - 2*x3 + min(tanh(x1), 0)^2"],
        SinglePoint([0.0, 0.0, 0.0]), 3, {}, 3.0, 1e-2,
    ),
}


class _FussySet(SinglePoint):
    def distances(self, points):
        if np.any(np.asarray(points)[:, 0] < 0):
            raise OrbitUnboundedError("synthetic per-node failure")
        return super().distances(points)


def _grid_row(V, node, M, cfg, horizon_T, tol):
    """classify_attraction on one node as roa_grid records it: label,
    escaped, final and min distance as hex, and error text. An exhausted
    step budget is an error row."""
    try:
        v = classify_attraction(V, node, M, cfg, horizon_T, tol, out_dt=0.1)
    except StepLimitError as exc:
        return LABEL_ERROR, False, math.nan.hex(), math.nan.hex(), str(exc)
    return v.label, v.escaped, v.final_distance.hex(), v.min_distance.hex(), None


_EITHER_LOOP_CASES = {
    **_POINTWISE_CASES,
    # The distance raises where x1 < 0, which the rotating orbits reach at
    # different samples.
    "distance-error": (["x2", "-x1"], _FussySet([0.0, 0.0]), 3, {}, 5.0, 1e-3),
    # The nodes off the origin come within tol during the tail, not at its
    # start: weakly attracted, by the tail maximum.
    "within-tol-in-tail": (["-x1", "-x2"], _ORIGIN, 3, {}, 5.0, 2e-2),
}


class TestRoaGrid:
    def test_pitchfork_all_but_origin(self, pitchfork, cfg):
        grid = roa_grid(
            pitchfork,
            PointCloud([[-1.0], [1.0]]),
            Box([-2.0], [2.0]),
            41,
            cfg,
            horizon_T=40.0,
            tol=1e-3,
            out_dt=0.5,
        )
        counts = grid.counts()
        assert counts[LABEL_ATTRACTED] == 40
        assert counts[LABEL_NOT] == 1
        idx = int(np.argmin(np.abs(grid.nodes[:, 0])))
        assert grid.nodes[idx, 0] == 0.0
        assert grid.labels[idx] == LABEL_NOT

    def test_sink_box_fully_attracted(self, sink2, cfg):
        grid = roa_grid(
            sink2,
            ClosedBall([0.0, 0.0], 0.0),
            Box([-1.0, -1.0], [1.0, 1.0]),
            11,
            cfg,
            horizon_T=12.0,
            tol=1e-3,
            out_dt=0.5,
        )
        assert grid.shape == (11, 11)
        assert grid.counts() == {LABEL_ATTRACTED: 121}

    def test_oscillator_only_origin(self, osc, cfg):
        grid = roa_grid(
            osc,
            SinglePoint([0.0, 0.0]),
            Box([-1.0, -1.0], [1.0, 1.0]),
            11,
            cfg,
            horizon_T=5.0,
            tol=1e-3,
            out_dt=0.1,
        )
        counts = grid.counts()
        assert counts[LABEL_ATTRACTED] == 1
        assert counts[LABEL_NOT] == 120
        attracted_idx = grid.labels.index(LABEL_ATTRACTED)
        assert np.array_equal(grid.nodes[attracted_idx], [0.0, 0.0])

    def test_domain_escape_is_a_verdict_not_a_crash(self, cfg):
        # sqrt(x1) is undefined at the x=-1 node; the sweep must still
        # finish, recording that node as an escaped non-attracted orbit.
        V = VectorFieldSpec.from_strings(["sqrt(x1)"])
        grid = roa_grid(
            V, SinglePoint([0.0]), Box([-1.0], [1.0]), 3, cfg, horizon_T=5.0, tol=1e-3
        )
        assert grid.labels == (LABEL_NOT, LABEL_ATTRACTED, LABEL_NOT)
        assert grid.escaped == (True, False, False)

    def test_error_rows_recorded(self, sink2, cfg):
        grid = roa_grid(
            sink2,
            _FussySet([0.0, 0.0]),
            Box([-1.0, -1.0], [1.0, 1.0]),
            (2, 2),
            cfg,
            horizon_T=2.0,
            tol=1e-1,
            out_dt=0.5,
        )
        assert grid.counts()[LABEL_ERROR] == 2
        bad = [i for i, lab in enumerate(grid.labels) if lab == LABEL_ERROR]
        for i in bad:
            assert math.isnan(grid.final_distances[i])
            assert "synthetic" in grid.errors[i]
        good = [i for i in range(4) if i not in bad]
        for i in good:
            assert grid.errors[i] is None

    def test_matches_pointwise_classification(self, osc, cfg):
        M = SinglePoint([0.0, 0.0])
        box = Box([-1.0, -1.0], [1.0, 1.0])
        grid = roa_grid(osc, M, box, 3, cfg, horizon_T=5.0, tol=1e-3, out_dt=0.1)
        for node, label, fd in zip(grid.nodes, grid.labels, grid.final_distances):
            v = classify_attraction(osc, node, M, cfg, horizon_T=5.0, tol=1e-3, out_dt=0.1)
            assert v.label == label
            assert v.final_distance == fd

    @pytest.mark.parametrize("case", sorted(_POINTWISE_CASES))
    def test_lanes_match_pointwise_bitwise(self, case):
        # The grid runs its nodes in one integrate_lanes call, through the
        # native loop here; classify_attraction runs one orbit alone. They
        # must agree bit for bit.
        texts, M, res, options, horizon_T, tol = _POINTWISE_CASES[case]
        V = VectorFieldSpec.from_strings(texts)
        box = Box([-2.0] * V.dim, [2.0] * V.dim)
        cfg = IntegratorConfig(**options)
        with native(True):
            grid = roa_grid(V, M, box, res, cfg, horizon_T=horizon_T, tol=tol, out_dt=0.1)
        rows = [_grid_row(V, node, M, cfg, horizon_T, tol) for node in grid.nodes]
        assert list(zip(
            grid.labels, grid.escaped, [d.hex() for d in grid.final_distances.tolist()],
            [d.hex() for d in grid.min_distances.tolist()], grid.errors,
        )) == rows

    @pytest.mark.parametrize("case", sorted(_EITHER_LOOP_CASES))
    def test_same_grid_from_either_loop(self, case):
        texts, M, res, options, horizon_T, tol = _EITHER_LOOP_CASES[case]
        V = VectorFieldSpec.from_strings(texts)
        box = Box([-2.0] * V.dim, [2.0] * V.dim)
        grids = []
        for on in (False, True):
            with native(on):
                grid = roa_grid(V, M, box, res, IntegratorConfig(**options), horizon_T=horizon_T,
                                tol=tol, out_dt=0.1)
            grids.append((
                grid.labels, grid.escaped, grid.errors,
                *([d.hex() for d in a.tolist()]
                  for a in (grid.final_distances, grid.min_distances, grid.peak_distances)),
            ))
        assert grids[0] == grids[1]

    def test_step_limit_rows_are_errors(self, sink2):
        grid = roa_grid(sink2, SinglePoint([0.0, 0.0]), Box([-1.0, -1.0], [1.0, 1.0]), 3,
                        IntegratorConfig(max_steps=3), horizon_T=5.0, tol=1e-3, out_dt=0.1)
        assert grid.counts() == {LABEL_ERROR: 9}
        assert grid.to_json()["errors"] == 9
        assert not any(grid.escaped)
        assert all(e.startswith("exceeded 3 steps at t=") for e in grid.errors)

    def test_grid_layout_row_major(self, sink2, cfg):
        grid = roa_grid(
            sink2,
            SinglePoint([0.0, 0.0]),
            Box([0.0, 0.0], [1.0, 2.0]),
            (2, 3),
            cfg,
            horizon_T=1.0,
            tol=10.0,
            out_dt=0.5,
        )
        assert grid.shape == (2, 3)
        expected = [
            [0.0, 0.0], [0.0, 1.0], [0.0, 2.0],
            [1.0, 0.0], [1.0, 1.0], [1.0, 2.0],
        ]
        assert np.allclose(grid.nodes, expected)

    def test_csv_shape(self, sink2, cfg):
        grid = roa_grid(
            sink2,
            SinglePoint([0.0, 0.0]),
            Box([-1.0, -1.0], [1.0, 1.0]),
            3,
            cfg,
            horizon_T=2.0,
            tol=1e-1,
            out_dt=0.5,
        )
        text = grid.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "x1,x2,label,final_distance"
        assert len(lines) == 1 + 9
        # Each number as repr writes the float, element by element.
        assert lines[1:] == [
            ",".join(repr(float(c)) for c in node) + f",{label},{float(d)!r}"
            for node, label, d in zip(grid.nodes, grid.labels, grid.final_distances)]

    def test_validation(self, sink2, cfg):
        with pytest.raises(TypeError):
            roa_grid(sink2, SinglePoint([0.0, 0.0]), "box", 3, cfg, 1.0, 1e-3)
        with pytest.raises(ValueError):
            roa_grid(sink2, SinglePoint([0.0, 0.0]), Box([-1.0], [1.0]), 3, cfg, 1.0, 1e-3)
        with pytest.raises(ValueError):
            roa_grid(
                sink2, SinglePoint([0.0, 0.0]), Box([-1, -1], [1, 1]), 1, cfg, 1.0, 1e-3
            )
        with pytest.raises(ValueError):
            roa_grid(
                sink2, SinglePoint([0.0, 0.0]), Box([-1, -1], [1, 1]), (3,), cfg, 1.0, 1e-3
            )

    def test_set_dimension_rejected(self, sink2, cfg):
        # Rejected before any node is integrated, as classify_attraction
        # and uniform_attraction_time reject it, not as an all-error grid.
        with pytest.raises(DimensionMismatchError):
            roa_grid(sink2, SinglePoint([0.0]), Box([-1, -1], [1, 1]), 3, cfg, 1.0, 1e-3)


def _distance_to_own_limit(V, x, cfg, horizon_T, out_dt, **omega_knobs):
    """(t, d) pairs: distance from the orbit of x to its own estimated limit set."""
    cloud = PointCloud(estimate_omega(V, x, cfg, **omega_knobs).points.points)
    traj = trajectory(V, x, horizon_T, out_dt, cfg)
    return list(zip(traj.times.tolist(), cloud.distances(traj.states).tolist()))


class TestOmegaDistanceDecay:
    def test_sink_matches_exponential(self, sink1, cfg):
        curve = _distance_to_own_limit(
            sink1,
            [1.0],
            cfg,
            horizon_T=10.0,
            out_dt=0.5,
            transient_T=30.0,
            window_T=5.0,
            cluster_tol=1e-4,
        )
        assert curve[-1][1] <= 1e-4
        for t, d in curve:
            assert abs(d - math.exp(-t)) <= 1e-8

    def test_fixed_point_stays_at_zero(self, sink1, cfg):
        curve = _distance_to_own_limit(
            sink1,
            [0.0],
            cfg,
            horizon_T=2.0,
            out_dt=0.5,
            transient_T=10.0,
            window_T=2.0,
            cluster_tol=1e-4,
        )
        assert max(d for _, d in curve) <= 1e-9

    def test_vanderpol_decays_to_cycle(self, vdp, cfg):
        curve = _distance_to_own_limit(
            vdp,
            [0.1, 0.0],
            cfg,
            horizon_T=40.0,
            out_dt=0.25,
            transient_T=60.0,
            window_T=6.7,
            cluster_tol=1e-3,
        )
        assert curve[0][1] > 1.0  # starts far inside the cycle
        assert curve[-1][1] <= 1e-2
        times = [t for t, _ in curve]
        assert times == sorted(times)
