import math
import sys
from collections import deque

import numpy as np
import pytest

from conftest import circle_cloud, count_generators, native, orbit_attempts
from lyapset.errors import (
    EscapedDomainError,
    EvalDomainError,
    LyapsetError,
    NondifferentiableError,
    StepLimitError,
)
from lyapset.expr import (
    ScalarFieldSpec,
    VectorFieldSpec,
    compile_gradient,
    compile_scalar,
    compile_vector_field,
)
from lyapset.flow import IntegratorConfig, flow, flow_rows, trajectory
from lyapset.geometry import Box, PointCloud, SinglePoint
from lyapset.limits import estimate_omega
from lyapset.lyapunov import (
    _annulus_points,
    _big_l_at,
    _certificate_check,
    _windowed_sup,
    DECREASE_SAMPLES,
    PROBE_TIMES,
    SET_SAMPLES,
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
            {"horizon_T": 0.9, "out_dt": 0.3, "quadrature": "simpson"},  # 3 intervals
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ConverseConfig(**kwargs)

    def test_weights_computed_once(self):
        # The weights are the per-call formula's bits, made once and read-only.
        cc = ConverseConfig(10.0, 0.1, lam=0.5)
        expected = np.exp(-cc.lam * cc.out_dt * np.arange(cc.steps + 1))
        assert cc.weights is cc.weights
        assert cc.weights.tobytes() == expected.tobytes()
        assert not cc.weights.flags.writeable

    def test_truncation_bound_formula(self):
        cc = ConverseConfig(10.0, 0.1, lam=0.5)
        assert truncation_bound(2.0, cc) == pytest.approx(
            2.0 * math.exp(-0.5 * 10.0) / 0.5, rel=1e-12
        )


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


def _windowed_sup_deque(d: np.ndarray, window: int) -> np.ndarray:
    """Reference sliding maximum: a monotone deque of indices, linear time."""
    n = d.shape[0] - window
    out = np.empty(n)
    dq: deque[int] = deque()
    for j in range(d.shape[0]):
        while dq and d[dq[-1]] <= d[j]:
            dq.pop()
        dq.append(j)
        k = j - window
        if k >= 0:
            if dq[0] < k:
                dq.popleft()
            if k < n:
                out[k] = d[dq[0]]
    return out


def _windowed_sup_explicit(d: np.ndarray, window: int) -> np.ndarray:
    """Reference sliding maximum: np.max over each window, which gives NaN
    for a window that holds one."""
    return np.stack([np.max(d[..., k : k + window + 1], axis=-1)
                     for k in range(d.shape[-1] - window)], axis=-1)


class TestWindowedSup:
    @pytest.mark.parametrize("window", [0, 1, 3, 10, 25])
    @pytest.mark.parametrize("extra", [0, 1, 7, max(int(round(p / 0.1)) for p in PROBE_TIMES)])
    def test_rows_bitwise_explicit_max(self, window, extra):
        # Rows as _big_l_values leaves them: NaN past a failure, from the
        # start or partway, among finite curves; ties, +-inf and lengths
        # 2w + 1 (converse_table) and 2w + 1 + the largest probe index
        # (verify_converse_properties) among them.
        rng = np.random.default_rng(window * 100 + extra)
        size = 2 * window + 1 + extra
        d = rng.uniform(0.0, 2.0, size=(9, size))
        d[1] = np.round(d[1], 0)  # ties
        d[2] = 0.5
        d[3, size // 2 :] = math.nan
        d[4, :] = math.nan
        d[5, -1:] = math.nan
        d[6, rng.integers(0, size, 3)] = math.inf
        d[7, rng.integers(0, size, 3)] = -math.inf
        d[8, size // 3 :] = math.nan
        d[8, : size // 3] = math.inf
        got = _windowed_sup(d, window)
        assert got.shape == (9, size - window)
        assert got.tobytes() == _windowed_sup_explicit(d, window).tobytes()
        for row in range(9):
            assert _windowed_sup(d[row], window).tobytes() == got[row].tobytes()

    @pytest.mark.parametrize("size", [1, 2, 5, 64])
    def test_extreme_windows(self, size):
        rng = np.random.default_rng(size)
        d = rng.uniform(-1.0, 1.0, size=(3, size))
        d[1, -1] = math.nan
        d[2, 0] = -math.inf
        for window in {0, size - 1}:
            assert _windowed_sup(d, window).tobytes() == _windowed_sup_explicit(d, window).tobytes()
        with pytest.raises(ValueError):
            _windowed_sup(d, size)

    def test_matches_deque_oracle_bitwise(self):
        rng = np.random.default_rng(5)
        curves = [rng.uniform(0.0, 2.0, size=401), np.linspace(0.0, 3.0, 301),
                  np.linspace(3.0, 0.0, 301), np.round(rng.uniform(0.0, 1.0, size=257), 1),
                  np.zeros(64), np.full(33, 0.25)]
        curves += [rng.exponential(size=int(rng.integers(1, 80))) for _ in range(50)]
        for d in curves:
            for window in {w for w in (0, 1, 2, 7, d.size // 2) if w < d.size} | {d.size - 1}:
                got = _windowed_sup(d, window)
                assert got.tobytes() == _windowed_sup_deque(d, window).tobytes(), (d, window)


# x1 = e^t x1(0) leaves the blow-up radius 3, sqrt fails where x2 < -0.2,
# and with a budget one attempt short of the shorter of their orbits to
# t = 2, the orbits that move in x2 end before t = 2. Only the equilibrium
# at the origin runs to the end.
_MIXED_TEXTS = ["x1", "-x2 * sqrt(x2 + 0.2)"]
_MIXED = VectorFieldSpec.from_strings(_MIXED_TEXTS)
_MIXED_POINTS = [[0.0, 0.0], [1.0, 0.0], [0.0, -0.5], [0.0, 0.5], [2.9, 0.0], [0.05, -0.1]]
_MIXED_BUDGET = min(orbit_attempts(_MIXED_TEXTS, p, 2.0, 0.1, blowup_radius=3.0)
                    for p in ([0.0, 0.5], [0.05, -0.1])) - 1
_MIXED_CFG = IntegratorConfig(blowup_radius=3.0, max_steps=_MIXED_BUDGET)


def _converse_rows_one_by_one(V, M, points, cfg, cc):
    """converse_table's rows from one trajectory per point."""
    rows = []
    for p in points:
        try:
            traj = trajectory(V, p, 2 * cc.steps * cc.out_dt, cc.out_dt, cfg)
        except LyapsetError as exc:
            rows.append(("nan", "nan", False, str(exc)))
            continue
        d = M.distances(traj.states)
        tail_ok = bool(d[int(0.9 * d.shape[0]) :].max() < d.max()) if d.max() > 0 else True
        big_l = _big_l_at(_windowed_sup(d, cc.steps), 0, cc)
        rows.append((float(d[: cc.steps + 1].max()).hex(), big_l.hex(), tail_ok, None))
    return rows


class TestConverseTable:
    def test_error_rows_from_either_loop(self):
        # An escape, a domain failure and two step limits among the rows:
        # each error text is the one trajectory() raises for its point.
        cc = ConverseConfig(1.0, 0.1)
        expected = _converse_rows_one_by_one(_MIXED, ORIGIN_2D, _MIXED_POINTS, _MIXED_CFG, cc)
        assert [row[3] for row in expected] == [
            None, "escaped domain at t=1.15928", "math domain error",
            f"exceeded {_MIXED_BUDGET} steps at t=1.93782", "escaped domain at t=0.06",
            f"exceeded {_MIXED_BUDGET} steps at t=1.61495",
        ]
        for on in (False, True):
            with native(on):
                table = converse_table(_MIXED, ORIGIN_2D, _MIXED_POINTS, _MIXED_CFG, cc)
            got = [(r.ell.hex(), r.big_l.hex(), r.tail_ok, r.error) for r in table.rows]
            assert got == expected
            assert [r.x.tolist() for r in table.rows] == _MIXED_POINTS


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
        # Each number as repr writes the float, element by element.
        assert table.to_csv().split("\n")[1:-1] == [
            ",".join(repr(float(c)) for c in r.x)
            + f",{r.ell!r},{r.big_l!r},{int(r.tail_ok)},{(r.error or '').replace(',', ';')}"
            for r in table.rows]
        blob = table.to_json()
        assert blob["rows"][0]["error"] is not None
        assert blob["lambda"] == 1.0


# Half the attempts of an orbit from the sample box of
# test_failures_from_either_loop to t = 2, the shortest horizon it runs.
_SHORT_BUDGET = orbit_attempts(_MIXED_TEXTS, [0.1, -0.19995], 2.0, 0.1, blowup_radius=3.0) // 2


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

    @pytest.mark.parametrize("max_steps", [pytest.param(_SHORT_BUDGET, id="short"), 10_000_000])
    def test_failures_from_either_loop(self, max_steps):
        # Samples on both sides of the sqrt domain edge x2 = -0.2, some of
        # whose continuity probes cross it; with the full budget most
        # escape by t = 4, with the short one the orbits that do not fail
        # at their start run out of steps. The report, failures and their
        # order included, does not depend on the loop.
        cfg = IntegratorConfig(blowup_radius=3.0, max_steps=max_steps)
        box = Box([0.0, -0.20005], [0.1, -0.19995])
        reports = []
        for on in (False, True):
            with native(on):
                reports.append(verify_converse_properties(
                    _MIXED, ORIGIN_2D, box, 12, 5, cfg, ConverseConfig(1.0, 0.1)).to_json())
        assert reports[0] == reports[1]
        texts = " ".join(text for _, text in reports[0]["integration_failures"])
        assert "math domain error" in texts
        if max_steps == _SHORT_BUDGET:
            assert f"exceeded {_SHORT_BUDGET} steps" in texts
        else:
            assert "escaped domain" in texts and "continuity probe: math domain error" in texts

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


def _certificate_one_by_one(V, M, Lcand, r_in, r_out, n_samples, seed, cfg,
                            zero_tol=1e-9, decrease_time=1.0):
    """verify_certificate's report from three compiled closures called point
    by point, the decrease rows flowed after the annulus is evaluated."""
    notes = []
    lfn = compile_scalar(Lcand.body)
    vfn = compile_vector_field(V)
    try:
        gfn = compile_gradient(Lcand)
        gradient_mode = "symbolic"
    except NondifferentiableError as exc:
        gfn = lambda pt: central_gradient(lfn, pt)  # noqa: E731
        gradient_mode = "central_differences"
        notes.append(f"gradient fallback: {exc}")
    rng = np.random.default_rng(seed)
    annulus = _annulus_points(M, r_in, r_out, n_samples, rng)
    on_set = M.sample_points(SET_SAMPLES, rng)
    positivity, zero_max, gradient_margin, decrease_margin = math.inf, 0.0, -math.inf, -math.inf
    try:
        for p in on_set:
            zero_max = max(zero_max, abs(lfn(p.tolist())))
        for p in annulus:
            pt = p.tolist()
            positivity = min(positivity, lfn(pt))
            g = gfn(pt)
            v = vfn(pt)
            gradient_margin = max(gradient_margin, sum(a * b for a, b in zip(g, v)))
        moved, error = flow_rows(V, annulus[:DECREASE_SAMPLES], decrease_time, cfg)
        for p, q in zip(annulus, moved):
            decrease_margin = max(decrease_margin, lfn(q.tolist()) - lfn(p.tolist()))
        if error is not None:
            raise error
    except (EvalDomainError, EscapedDomainError) as exc:
        notes.append(f"evaluation failure: {exc}")
        positivity, zero_max, gradient_margin, decrease_margin = (
            -math.inf, math.inf, math.inf, math.inf)
    accepted = (positivity > 0 and zero_max <= zero_tol
                and gradient_margin < 0 and decrease_margin < 0)
    return CertificateReport(
        positivity_margin=float(positivity),
        zero_on_M_max=float(zero_max),
        gradient_margin=float(gradient_margin),
        trajectory_decrease_margin=float(decrease_margin),
        verdict=VERDICT_ACCEPTED if accepted else VERDICT_REJECTED,
        samples=n_samples,
        seed=seed,
        gradient_mode=gradient_mode,
        notes=tuple(notes),
    )


def _report_bits(report: CertificateReport) -> tuple:
    margins = (report.positivity_margin, report.zero_on_M_max, report.gradient_margin,
               report.trajectory_decrease_margin)
    return (*(m.hex() for m in margins), report.verdict, report.gradient_mode, report.notes,
            report.samples, report.seed)


_CYCLE = VectorFieldSpec.from_strings(["x2", "(1 - x1^2)*x2 - x1", "x1 - x3", "x2 - 2*x4"])
_SQUARES_4 = ScalarFieldSpec.from_string("x1^2 + x2^2 + x3^2 + x4^2", 4)


@pytest.fixture(scope="module")
def cycle_omega_cloud():
    """The omega cloud of the lifted Van der Pol cycle, as the benchmark's
    cycle_cloud workload estimates it."""
    est = estimate_omega(_CYCLE, [0.5, 0.0, 0.0, 0.0], IntegratorConfig(),
                         transient_T=60.0, window_T=6.7)
    return PointCloud(est.points.points)


# name: (field texts, candidate, annulus, samples, seed), around the origin.
# Where x1 < -1, the field and the candidate of both-fail-in-annulus fail
# with different errors, and the candidate's is the one reported. In
# cancelling-products, terms of 1e16, 1 + x2 and -1e16 in grad L . V leave
# a sum that Python 3.12's compensated sum() keeps and a left-to-right sum
# rounds to 0 or 2, so a check that added the products itself would fail
# there. The zero candidates are +-0.0 with the sign of -x1 or x1, and at
# seed 0 the first annulus point and the last lie on opposite sides, so a
# running minimum that kept the later of two equal zeros would flip the
# sign of the positivity margin.
_CERTIFICATE_CASES = {
    "sink-2d": (["-x1", "-x2"], "x1^2 + x2^2", (0.0, 2.0), 500, 5),
    "rotating-sink": (["-x1 + x2", "-x1 - x2"], "x1^2 + x2^2", (0.0, 2.0), 300, 5),
    "growth-1d": (["x1"], "x1^2", (0.1, 2.0), 200, 5),
    "abs-fallback": (["-x1", "-x2"], "abs(x1) + abs(x2)", (0.1, 2.0), 200, 5),
    "fails-on-set": (["-x1", "-x2"], "exp(-1/(x1*x1 + x2*x2))", (0.0, 2.0), 20, 5),
    "candidate-fails-in-annulus": (["-x1"], "sqrt(x1)", (0.1, 2.0), 50, 5),
    "both-fail-in-annulus": (["-sqrt(x1 + 1)", "-x2"], "x2^2 + exp(1e9*(-1 - x1))",
                             (0.1, 2.0), 100, 3),
    "field-fails-in-annulus": (["-x1", "-sqrt(x2 + 1)"], "x1^2 + x2^2", (0.1, 2.0), 100, 3),
    "fallback-fails-in-annulus": (["-x1", "-x2"], "max(x1, 0) + sqrt(x2 + 1)",
                                  (0.1, 2.0), 100, 3),
    "cancelling-products": (["1", "1 + x2", "1"], "1e16*x1 + x2 - 1e16*x3",
                            (0.1, 1.0), 100, 2),
    "zero": (["-x1"], "x1*0", (0.1, 1.0), 20, 0),
    "negative-zero": (["-x1"], "x1*-0", (0.1, 1.0), 20, 0),
}


class TestVerifyCertificate:
    @pytest.mark.parametrize("case", sorted(_CERTIFICATE_CASES))
    def test_bitwise_the_closures_point_by_point(self, case, cfg):
        texts, candidate, annulus, samples, seed = _CERTIFICATE_CASES[case]
        V = VectorFieldSpec.from_strings(texts)
        L = ScalarFieldSpec.from_string(candidate, V.dim)
        M = SinglePoint([0.0] * V.dim)
        expected = _certificate_one_by_one(V, M, L, *annulus, samples, seed, cfg)
        got = verify_certificate(V, M, L, *annulus, samples, seed, cfg)
        assert _report_bits(got) == _report_bits(expected)
        if "fail" in case:
            assert got.notes[-1].startswith("evaluation failure: ")
        if case == "both-fail-in-annulus":
            assert got.notes[-1] == "evaluation failure: math range error"
        if case == "cancelling-products":
            # 1 + x2 once compensated, else 1e16 + (1 + x2) rounds to 1e16 + 2
            margin = got.gradient_margin
            assert 1.0 < margin < 2.0 if sys.version_info >= (3, 12) else margin == 2.0

    def test_cycle_cloud_bitwise_the_closures(self, cycle_omega_cloud):
        # The benchmark's certificate: the 4-D cycle field around its omega
        # cloud, rejected, at two seeds.
        cfg = IntegratorConfig()
        for seed in (0, 1):
            expected = _certificate_one_by_one(_CYCLE, cycle_omega_cloud, _SQUARES_4,
                                               0.05, 1.0, 200, seed, cfg)
            got = verify_certificate(_CYCLE, cycle_omega_cloud, _SQUARES_4, 0.05, 1.0, 200, seed, cfg)
            assert _report_bits(got) == _report_bits(expected)
            assert got.verdict == VERDICT_REJECTED

    def test_one_check_per_field_and_candidate(self, cfg):
        # Two parses of the same texts share one generated check; candidates
        # that differ only in 0.0 against -0.0 do not.
        _certificate_check.cache_clear()
        for _ in range(2):
            V = VectorFieldSpec.from_strings(["-x1", "-x2"])
            L = ScalarFieldSpec.from_string("x1^2 + x2^2", 2)
            verify_certificate(V, ORIGIN_2D, L, 0.1, 1.0, 10, 0, cfg)
        assert _certificate_check.cache_info()[:2] == (1, 1)  # hits, misses
        V = VectorFieldSpec.from_strings(["-x1"])
        zero, negative_zero = (ScalarFieldSpec.from_string(text, 1) for text in ("x1*0", "x1*-0"))
        assert _certificate_check(V, zero)[0] is not _certificate_check(V, negative_zero)[0]
        reports = [verify_certificate(V, ORIGIN_1D, L, 0.1, 1.0, 20, 1, cfg)
                   for L in (zero, negative_zero)]
        assert reports[0].positivity_margin.hex() != reports[1].positivity_margin.hex()

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

    def test_one_generator_per_call(self, sink2, cfg, monkeypatch):
        # The annulus and the set members come from one generator.
        L = ScalarFieldSpec.from_string("x1^2 + x2^2", 2)
        made = count_generators(monkeypatch)
        verify_certificate(sink2, circle_cloud(100), L, 0.05, 0.5, 200, 7, cfg)
        assert made == [(7,)]

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

    @pytest.mark.parametrize("decrease_time", [0.0, -1.0, math.nan])
    def test_decrease_time_validated(self, sink2, cfg, decrease_time):
        L = ScalarFieldSpec.from_string("x1^2 + x2^2", 2)
        with pytest.raises(ValueError, match="decrease_time must be > 0"):
            verify_certificate(sink2, ORIGIN_2D, L, 0.1, 1.0, 10, 0, cfg,
                               decrease_time=decrease_time)

    # name: (candidate, integrator settings). Over the decrease time the
    # field moves x1 by -1 and scales x2 by e: at seed 6 the 13th sample
    # leaves the radius 5, and sqrt(x1 + 2) fails first at the 3rd
    # sample's image, both among the DECREASE_SAMPLES that are flowed.
    _DECREASE_CASES = {
        "escape": ("x1^2 + x2^2", {"blowup_radius": 5.0}),
        "domain": ("sqrt(x1 + 2) - sqrt(2)", {}),
        "domain-before-escape": ("sqrt(x1 + 2) - sqrt(2)", {"blowup_radius": 5.0}),
        "step-limit": ("x1^2 + x2^2", {"max_steps": 3}),
    }

    @pytest.mark.parametrize("case", sorted(_DECREASE_CASES))
    def test_decrease_failure_from_either_loop(self, case):
        # The first annulus sample whose flow or moved value fails decides
        # the note, as flowing the samples one by one does.
        text, settings = self._DECREASE_CASES[case]
        V = VectorFieldSpec.from_strings(["-1", "x2"])
        L = ScalarFieldSpec.from_string(text, 2)
        cfg = IntegratorConfig(**settings)
        lfn = compile_scalar(L.body)
        expected = None
        annulus = _annulus_points(ORIGIN_2D, 0.1, 2.0, 40, np.random.default_rng(6))
        try:
            for p in annulus[:DECREASE_SAMPLES]:
                lfn(flow(V, p, 1.0, cfg).tolist())
        except (EvalDomainError, EscapedDomainError, StepLimitError) as exc:
            expected = type(exc).__name__, str(exc)
        assert expected is not None, "no decrease sample failed"
        for on in (False, True):
            with native(on):
                try:
                    report = verify_certificate(V, ORIGIN_2D, L, 0.1, 2.0, 40, 6, cfg)
                except StepLimitError as exc:
                    assert expected == ("StepLimitError", str(exc))
                    continue
            assert report.verdict == VERDICT_REJECTED
            assert report.notes[-1] == f"evaluation failure: {expected[1]}"
            oracle = _certificate_one_by_one(V, ORIGIN_2D, L, 0.1, 2.0, 40, 6, cfg)
            assert _report_bits(report) == _report_bits(oracle)

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
