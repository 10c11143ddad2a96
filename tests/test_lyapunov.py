import math

import numpy as np
import pytest

from lyapset.errors import StepLimitError
from lyapset.expr import ScalarFieldSpec, VectorFieldSpec
from lyapset.flow import IntegratorConfig, flow
from lyapset.geometry import Box, PointCloud, SinglePoint
from lyapset.lyapunov import (
    VERDICT_ACCEPTED,
    VERDICT_REJECTED,
    CertificateReport,
    ConverseConfig,
    big_L,
    central_gradient,
    converse_table,
    ell,
    truncation_bound,
    verify_certificate,
    verify_converse_properties,
)

ORIGIN_1D = SinglePoint([0.0])
ORIGIN_2D = SinglePoint([0.0, 0.0])
CLOUD_SPACING_720 = 2.0 * math.pi / 720.0


class TestConverseConfig:
    def test_steps_snap_to_grid(self):
        assert ConverseConfig(1.0, 0.3).steps == 3
        assert ConverseConfig(10.0, 0.05).steps == 200

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"horizon_T": 0.0, "out_dt": 0.1},
            {"horizon_T": 1.0, "out_dt": -0.1},
            {"horizon_T": 1.0, "out_dt": 0.1, "lam": 0.0},
            {"horizon_T": 1.0, "out_dt": 0.1, "quadrature": "gauss"},
            {"horizon_T": 0.05, "out_dt": 0.1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ConverseConfig(**kwargs)

    def test_truncation_bound_formula(self):
        cc = ConverseConfig(10.0, 0.1, lam=0.5)
        assert truncation_bound(2.0, cc) == pytest.approx(
            2.0 * math.exp(-0.5 * 10.0) / 0.5, rel=1e-12
        )

    def test_simpson_needs_even_intervals(self, sink1, cfg):
        cc = ConverseConfig(0.9, 0.3, quadrature="simpson")  # 3 intervals
        with pytest.raises(ValueError):
            big_L(sink1, ORIGIN_1D, [1.0], cfg, cc)


class TestEll:
    def test_monotone_decay_sup_at_start(self, sink1, cfg):
        cc = ConverseConfig(10.0, 0.05)
        assert abs(ell(sink1, ORIGIN_1D, [1.5], cfg, cc) - 1.5) <= 1e-9

    def test_zero_on_invariant_set(self, sink2, cfg):
        cc = ConverseConfig(10.0, 0.05)
        assert ell(sink2, ORIGIN_2D, [0.0, 0.0], cfg, cc) <= 1e-12

    def test_conserved_radius_against_cloud(self, osc, unit_circle_720, cfg):
        cc = ConverseConfig(10.0, 0.05)
        value = ell(osc, unit_circle_720, [2.0, 0.0], cfg, cc)
        assert abs(value - 1.0) <= CLOUD_SPACING_720

    def test_never_below_initial_distance(self, osc, cfg):
        cc = ConverseConfig(5.0, 0.05)
        x = [0.3, -0.4]
        assert ell(osc, ORIGIN_2D, x, cfg, cc) >= ORIGIN_2D.distance(x)


class TestBigL:
    def test_linear_sink_closed_form(self, sink1, cfg):
        # ell(orbit(t)) = |x| e^{-t}, so the weighted integral is |x|/2.
        cc = ConverseConfig(10.0, 0.02)
        assert abs(big_L(sink1, ORIGIN_1D, [1.0], cfg, cc) - 0.5) <= 1e-3

    def test_zero_on_set(self, sink2, cfg):
        cc = ConverseConfig(10.0, 0.05)
        assert big_L(sink2, ORIGIN_2D, [0.0, 0.0], cfg, cc) <= 1e-9

    def test_constant_distance_integrates_weight(self, osc, unit_circle_720, cfg):
        cc = ConverseConfig(10.0, 0.02)
        value = big_L(osc, unit_circle_720, [2.0, 0.0], cfg, cc)
        assert abs(value - 1.0) <= 1e-3

    def test_truncation_soundness(self, sink1, osc, unit_circle_720, cfg):
        short = ConverseConfig(5.0, 0.02)
        long = ConverseConfig(10.0, 0.02)
        cases = [
            (sink1, ORIGIN_1D, [1.5]),
            (osc, unit_circle_720, [2.0, 0.0]),
        ]
        for V, M, x in cases:
            a = big_L(V, M, x, cfg, short)
            b = big_L(V, M, x, cfg, long)
            ell_max = ell(V, M, x, cfg, long)
            assert abs(b - a) <= truncation_bound(ell_max, short)

    def test_scaling_covariance_linear_sink(self, sink2, cfg):
        cc = ConverseConfig(10.0, 0.05)
        x = np.array([0.8, 0.6])
        base = big_L(sink2, ORIGIN_2D, x, cfg, cc)
        for c in (2.0, 0.5):
            scaled = big_L(sink2, ORIGIN_2D, c * x, cfg, cc)
            assert abs(scaled - c * base) <= 1e-3 * c * base

    def test_quadrature_rules_agree(self, sink1, osc, unit_circle_720, cfg):
        cases = [
            (sink1, ORIGIN_1D, [1.5], 10.0, 0.01),
            (osc, unit_circle_720, [2.0, 0.0], 10.0, 0.02),
        ]
        for V, M, x, T, h in cases:
            trap = big_L(V, M, x, cfg, ConverseConfig(T, h, quadrature="trapezoid"))
            simp = big_L(V, M, x, cfg, ConverseConfig(T, h, quadrature="simpson"))
            assert abs(trap - simp) <= 1e-4 * abs(simp)


class TestConverseTable:
    def test_rows_and_csv(self, sink1, cfg):
        cc = ConverseConfig(10.0, 0.02)
        table = converse_table(sink1, ORIGIN_1D, [[1.0], [0.0]], cfg, cc)
        assert len(table.rows) == 2
        first, second = table.rows
        assert abs(first.ell - 1.0) <= 1e-9
        assert abs(first.big_l - 0.5) <= 1e-3
        assert first.tail_ok and second.tail_ok
        assert second.ell <= 1e-12
        text = table.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "x1,ell,big_l,tail_ok,error"
        assert len(lines) == 3

    def test_escape_becomes_error_row(self, grow1, cfg):
        cc = ConverseConfig(10.0, 0.05)
        table = converse_table(grow1, ORIGIN_1D, [[1.0], [0.0]], cfg, cc)
        bad, good = table.rows
        assert bad.error is not None
        assert math.isnan(bad.ell) and math.isnan(bad.big_l)
        assert good.error is None
        blob = table.to_json()
        assert blob["rows"][0]["error"] is not None
        assert blob["lambda"] == 1.0


class TestVerifyConverseProperties:
    def test_linear_sink_no_violations(self, sink2, cfg):
        report = verify_converse_properties(
            sink2,
            ORIGIN_2D,
            Box([-2.0, -2.0], [2.0, 2.0]),
            n_samples=100,
            seed=0,
            cfg=cfg,
            cc=ConverseConfig(10.0, 0.05),
        )
        assert report.total_violations == 0
        assert report.integration_failures == ()

    def test_vanderpol_cycle_monotone(self, vdp, vdp_cycle_cloud, cfg_coarse):
        report = verify_converse_properties(
            vdp,
            vdp_cycle_cloud,
            Box([-3.0, -3.0], [3.0, 3.0]),
            n_samples=50,
            seed=2024,
            cfg=cfg_coarse,
            cc=ConverseConfig(10.0, 0.05),
        )
        assert report.monotone_violations == ()
        assert report.integration_failures == ()

    def test_samples_on_set_exempt_from_strict_decrease(self, sink2, cfg):
        report = verify_converse_properties(
            sink2,
            ORIGIN_2D,
            Box([0.0, 0.0], [0.0, 0.0]),
            n_samples=3,
            seed=1,
            cfg=cfg,
            cc=ConverseConfig(5.0, 0.05),
        )
        assert report.strict_violations == ()
        assert report.total_violations == 0

    def test_sample_count_validated(self, sink2, cfg):
        with pytest.raises(ValueError):
            verify_converse_properties(
                sink2, ORIGIN_2D, Box([-1, -1], [1, 1]), 0, 0, cfg,
                ConverseConfig(5.0, 0.05),
            )


class TestConstructedLIsItsOwnCertificate:
    def test_black_box_checks_on_sink(self, sink2, cfg):
        # Probe the numerically built L like an opaque candidate: zero on
        # the set, strictly smaller after flowing from any off-set start.
        cc = ConverseConfig(10.0, 0.05)

        def Lhat(point):
            return big_L(sink2, ORIGIN_2D, point, cfg, cc)

        assert Lhat([0.0, 0.0]) <= 1e-9
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 5:
            x = rng.uniform(-2.0, 2.0, size=2)
            if np.linalg.norm(x) <= 1e-2:
                continue
            base = Lhat(x)
            for t in (0.5, 1.0):
                assert Lhat(flow(sink2, x, t, cfg)) < base
            checked += 1


class TestVerifyCertificate:
    def test_quadratic_accepted_on_sink(self, sink2, cfg):
        L = ScalarFieldSpec.from_string("x1^2 + x2^2", 2)
        report = verify_certificate(
            sink2, ORIGIN_2D, L, 0.0, 2.0, n_samples=500, seed=5, cfg=cfg
        )
        assert report.verdict == VERDICT_ACCEPTED
        assert report.positivity_margin > 0
        assert report.zero_on_M_max <= 1e-9
        assert report.gradient_margin < 0
        assert report.trajectory_decrease_margin < 0
        assert report.gradient_mode == "symbolic"

    def test_unstable_field_rejected(self, grow1, cfg):
        L = ScalarFieldSpec.from_string("x1^2", 1)
        report = verify_certificate(
            grow1, ORIGIN_1D, L, 0.1, 2.0, n_samples=200, seed=5, cfg=cfg
        )
        assert report.verdict == VERDICT_REJECTED
        # grad L . V = 2 x1^2, at least 2 r_in^2 at every sample
        assert report.gradient_margin >= 2 * 0.1**2

    def test_rotating_sink_accepted(self, rot_sink, cfg):
        L = ScalarFieldSpec.from_string("x1^2 + x2^2", 2)
        report = verify_certificate(
            rot_sink, ORIGIN_2D, L, 0.0, 2.0, n_samples=500, seed=5, cfg=cfg
        )
        assert report.verdict == VERDICT_ACCEPTED
        assert report.gradient_margin < 0

    def test_nondifferentiable_falls_back_to_central(self, sink2, cfg):
        L = ScalarFieldSpec.from_string("abs(x1) + abs(x2)", 2)
        report = verify_certificate(
            sink2, ORIGIN_2D, L, 0.1, 2.0, n_samples=200, seed=5, cfg=cfg
        )
        assert report.gradient_mode == "central_differences"
        assert any("fallback" in note for note in report.notes)
        assert report.verdict == VERDICT_ACCEPTED
        assert report.gradient_margin < 0

    def test_eval_failure_rejects_with_note(self, sink1, cfg):
        L = ScalarFieldSpec.from_string("sqrt(x1)", 1)
        report = verify_certificate(
            sink1, ORIGIN_1D, L, 0.1, 2.0, n_samples=50, seed=5, cfg=cfg
        )
        assert report.verdict == VERDICT_REJECTED
        assert any("evaluation failure" in note for note in report.notes)

    def test_division_by_zero_on_set_rejects_with_note(self, sink2, cfg):
        # L is 0/0-singular at M itself; Python floats raise there, NumPy
        # scalars would give exp(-inf) = 0 and a warning.
        L = ScalarFieldSpec.from_string("exp(-1/(x1*x1 + x2*x2))", 2)
        report = verify_certificate(
            sink2, ORIGIN_2D, L, 0.0, 2.0, n_samples=20, seed=5, cfg=cfg
        )
        assert report.verdict == VERDICT_REJECTED
        assert any("evaluation failure" in note for note in report.notes)

    def test_step_budget_raises(self, sink2):
        # An exhausted budget says nothing about the candidate: no verdict.
        L = ScalarFieldSpec.from_string("x1^2 + x2^2", 2)
        with pytest.raises(StepLimitError, match="exceeded 3 steps at t="):
            verify_certificate(sink2, ORIGIN_2D, L, 0.1, 2.0, 20, 5, IntegratorConfig(max_steps=3))

    def test_validation(self, sink2, cfg):
        L2 = ScalarFieldSpec.from_string("x1^2 + x2^2", 2)
        with pytest.raises(ValueError):
            verify_certificate(sink2, ORIGIN_2D, L2, -0.1, 2.0, 10, 0, cfg)
        with pytest.raises(ValueError):
            verify_certificate(sink2, ORIGIN_2D, L2, 1.0, 1.0, 10, 0, cfg)
        L1 = ScalarFieldSpec.from_string("x1^2", 1)
        with pytest.raises(ValueError):
            verify_certificate(sink2, ORIGIN_2D, L1, 0.0, 1.0, 10, 0, cfg)

    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_sample_count_validated(self, cfg, n_samples):
        # With no sample every margin kept its start value, and a source
        # around its equilibrium was accepted.
        source = VectorFieldSpec.from_strings(["x1", "x2"])
        L = ScalarFieldSpec.from_string("x1^2 + x2^2", 2)
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            verify_certificate(source, ORIGIN_2D, L, 0.1, 1.0, n_samples, 0, cfg)

    def test_report_json_shape(self):
        report = CertificateReport(
            positivity_margin=0.1,
            zero_on_M_max=0.0,
            gradient_margin=-0.5,
            trajectory_decrease_margin=-0.2,
            verdict=VERDICT_ACCEPTED,
            samples=10,
            seed=3,
        )
        blob = report.to_json()
        assert blob["verdict"] == VERDICT_ACCEPTED
        assert blob["gradient_mode"] == "symbolic"
        assert blob["notes"] == []


class TestCentralGradient:
    def test_matches_symbolic_on_smooth_function(self):
        fn = lambda p: p[0] ** 2 + 3.0 * p[0] * p[1]  # noqa: E731
        g = central_gradient(fn, [1.0, 2.0])
        assert g[0] == pytest.approx(2.0 + 6.0, rel=1e-7)
        assert g[1] == pytest.approx(3.0, rel=1e-7)
