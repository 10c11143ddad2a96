"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Each test computes its measurements first, prints a single
``[criterion NN] PASS/FAIL`` line straight to the terminal, and only then
asserts, so a red run still shows the full scoreboard.
"""

import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from conftest import OSC_ALIGNED_DT, TWO_PI
from lyapset.cli import main as cli_main
from lyapset.errors import EvalDomainError
from lyapset.expr import (
    Binary,
    Const,
    ScalarFieldSpec,
    Unary,
    Var,
    differentiate,
    eval_expr,
)
from lyapset.flow import flow, partial_trajectory, semigroup_defect
from lyapset.geometry import Box, PointCloud, SinglePoint
from lyapset.limits import (
    LABEL_ATTRACTED,
    LABEL_NOT,
    LABEL_WEAK,
    classify_attraction,
    estimate_omega,
    roa_grid,
)
from lyapset.lyapunov import (
    VERDICT_ACCEPTED,
    VERDICT_REJECTED,
    ConverseConfig,
    big_L,
    verify_certificate,
    verify_converse_properties,
)
from lyapset.stability import estimate_delta, uniform_attraction_time

ORIGIN_1D = SinglePoint([0.0])
ORIGIN_2D = SinglePoint([0.0, 0.0])

PROBLEM_DIR = Path(__file__).resolve().parent.parent / "problems"


@pytest.fixture
def criterion(capsys):
    """Printer for the one-line-per-criterion scoreboard."""

    def emit(num, ok, detail):
        with capsys.disabled():
            print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")

    return emit


class TestAcceptance:
    def test_criterion_01_flow_axioms(self, criterion, sink2, osc, cfg_tight):
        rng = np.random.default_rng(11)
        worst = 0.0
        identity_ok = True
        for field in (sink2, osc):
            for _ in range(100):
                x = rng.uniform(-2.0, 2.0, size=2)
                t1, t2 = rng.uniform(0.0, 2.0, size=2)
                worst = max(worst, semigroup_defect(field, x, t1, t2, cfg_tight))
            probe = rng.uniform(-2.0, 2.0, size=2)
            frozen = flow(field, probe, 0.0, cfg_tight)
            identity_ok = identity_ok and np.array_equal(frozen, probe)
        ok = identity_ok and worst <= 1e-7
        criterion(
            1,
            ok,
            f"identity exact, worst semigroup defect {worst:.3e} <= 1e-7 "
            "over 200 random (x, t1, t2)",
        )
        assert identity_ok
        assert worst <= 1e-7

    def test_criterion_02_closed_form_accuracy(self, criterion, sink1, osc, cfg):
        err_decay = abs(flow(sink1, [1.0], 1.0, cfg)[0] - math.exp(-1.0))
        turned = flow(osc, [1.0, 0.0], math.pi / 2.0, cfg)
        err_turn = float(np.linalg.norm(turned - np.array([0.0, -1.0])))
        ok = err_decay <= 1e-8 and err_turn <= 1e-8
        criterion(
            2,
            ok,
            f"decay error {err_decay:.3e}, quarter-turn error {err_turn:.3e}, "
            "both <= 1e-8",
        )
        assert err_decay <= 1e-8
        assert err_turn <= 1e-8

    def test_criterion_03_omega_invariance(
        self, criterion, vdp, osc, sink2, cfg, cfg_tight
    ):
        vdp_est = estimate_omega(
            vdp,
            [0.5, 0.0],
            cfg,
            transient_T=60.0,
            window_T=6.7,
            out_dt=0.01,
            cluster_tol=1e-3,
        )
        osc_defects = []
        for radius in (0.6, 1.0):
            est = estimate_omega(
                osc,
                [radius, 0.0],
                cfg_tight,
                transient_T=5.0,
                window_T=TWO_PI,
                out_dt=OSC_ALIGNED_DT,
                cluster_tol=1e-4,
            )
            osc_defects.append(est.invariance_defect)
        sink_est = estimate_omega(
            sink2,
            [1.0, 1.0],
            cfg,
            transient_T=20.0,
            window_T=5.0,
            cluster_tol=1e-4,
        )
        sink_offset = float(np.linalg.norm(sink_est.points.points[0]))
        ok = (
            vdp_est.invariance_defect <= 1e-2
            and max(osc_defects) <= 1e-5
            and len(sink_est.points) == 1
            and sink_offset <= 1e-6
        )
        criterion(
            3,
            ok,
            f"invariance defects: van der Pol {vdp_est.invariance_defect:.3e} "
            f"<= 1e-2, circles {max(osc_defects):.3e} <= 1e-5, "
            f"sink rep offset {sink_offset:.3e} <= 1e-6",
        )
        assert vdp_est.invariance_defect <= 1e-2
        assert max(osc_defects) <= 1e-5
        assert len(sink_est.points) == 1
        assert sink_offset <= 1e-6

    def test_criterion_04_attraction_classification(
        self, criterion, sink2, osc, unit_circle_720, cfg
    ):
        sink_verdict = classify_attraction(
            sink2, [2.0, 2.0], ORIGIN_2D, cfg, horizon_T=30.0, tol=1e-4
        )
        circle_verdict = classify_attraction(
            osc, [2.0, 0.0], unit_circle_720, cfg, horizon_T=50.0, tol=1e-3
        )
        weak_verdict = classify_attraction(
            osc, [1.0, 0.0], SinglePoint([1.0, 0.0]), cfg, horizon_T=50.0, tol=1e-3
        )
        circle_gap = abs(circle_verdict.final_distance - 1.0)
        ok = (
            sink_verdict.label == LABEL_ATTRACTED
            and circle_verdict.label == LABEL_NOT
            and circle_gap <= 1e-3
            and weak_verdict.label == LABEL_WEAK
        )
        criterion(
            4,
            ok,
            f"sink {sink_verdict.label}, outer orbit {circle_verdict.label} "
            f"with final distance 1{circle_gap:+.1e}, recurrent point "
            f"{weak_verdict.label}",
        )
        assert sink_verdict.label == LABEL_ATTRACTED
        assert circle_verdict.label == LABEL_NOT
        assert circle_gap <= 1e-3
        assert weak_verdict.label == LABEL_WEAK

    def test_criterion_05_roa_grids(self, criterion, pitchfork, sink2, cfg):
        pitch = roa_grid(
            pitchfork,
            PointCloud([[-1.0], [1.0]]),
            Box([-2.0], [2.0]),
            41,
            cfg,
            horizon_T=40.0,
            tol=1e-3,
            out_dt=0.5,
        )
        pitch_counts = pitch.counts()
        middle = int(np.argmin(np.abs(pitch.nodes[:, 0])))
        sink_grid = roa_grid(
            sink2,
            ORIGIN_2D,
            Box([-1.0, -1.0], [1.0, 1.0]),
            11,
            cfg,
            horizon_T=20.0,
            tol=1e-3,
            out_dt=0.5,
        )
        sink_counts = sink_grid.counts()
        ok = (
            pitch_counts.get(LABEL_ATTRACTED, 0) == 40
            and pitch_counts.get(LABEL_NOT, 0) == 1
            and pitch.nodes[middle, 0] == 0.0
            and pitch.labels[middle] == LABEL_NOT
            and sink_counts == {LABEL_ATTRACTED: 121}
        )
        criterion(
            5,
            ok,
            f"pitchfork grid {pitch_counts.get(LABEL_ATTRACTED, 0)}/41 attracted "
            f"with the origin excluded, sink grid "
            f"{sink_counts.get(LABEL_ATTRACTED, 0)}/121 attracted",
        )
        assert pitch_counts.get(LABEL_ATTRACTED, 0) == 40
        assert pitch_counts.get(LABEL_NOT, 0) == 1
        assert pitch.nodes[middle, 0] == 0.0
        assert pitch.labels[middle] == LABEL_NOT
        assert sink_counts == {LABEL_ATTRACTED: 121}

    def test_criterion_06_epsilon_delta(
        self, criterion, sink2, osc, grow1, cfg
    ):
        ratios = []
        for field in (sink2, osc):
            for eps in (0.1, 0.5, 1.0):
                delta, witness = estimate_delta(
                    field,
                    ORIGIN_2D,
                    eps,
                    cfg,
                    horizon_T=10.0,
                    shell_samples=8,
                    out_dt=0.1,
                )
                assert witness is None
                assert delta is not None
                ratios.append(delta / eps)
        eps_unstable = 0.5
        delta_unstable, witness = estimate_delta(
            grow1,
            ORIGIN_1D,
            eps_unstable,
            cfg,
            horizon_T=15.0,
            shell_samples=4,
            out_dt=0.1,
        )
        witness_ok = False
        if delta_unstable is None and witness is not None:
            assert ORIGIN_1D.distance(witness) <= eps_unstable
            traj, error = partial_trajectory(grow1, witness, 15.0, 0.1, cfg)
            exited = float(ORIGIN_1D.distances(traj.states).max()) >= eps_unstable
            witness_ok = exited or error is not None
        ok = min(ratios) >= 0.9 and witness_ok
        criterion(
            6,
            ok,
            f"stable systems: delta/epsilon >= {min(ratios):.4f} across six "
            "epsilons; unstable line yields a replayable escape witness",
        )
        assert min(ratios) >= 0.9
        assert witness_ok

    def test_criterion_07_uniform_attraction_time(self, criterion, sink1, cfg):
        compact_k = PointCloud([[-2.0], [-1.0], [1.0], [2.0]])
        estimate = uniform_attraction_time(
            sink1,
            compact_k,
            ORIGIN_1D,
            0.1,
            cfg,
            T_max=20.0,
            out_dt=0.05,
        )
        expected = math.log(20.0)
        ok = (
            estimate.value is not None
            and not estimate.integration_failed
            and abs(estimate.value - expected) <= 0.1
        )
        detail_value = float("nan") if estimate.value is None else estimate.value
        criterion(
            7,
            ok,
            f"uniform entry time {detail_value:.4f} within 0.1 of "
            f"ln(20) = {expected:.4f}",
        )
        assert estimate.value is not None
        assert not estimate.integration_failed
        assert abs(estimate.value - expected) <= 0.1

    def test_criterion_08_converse_construction(
        self, criterion, sink2, vdp, vdp_cycle_cloud, cfg, cfg_coarse
    ):
        tight = ConverseConfig(10.0, 0.02)
        rng = np.random.default_rng(8)
        worst_gap = 0.0
        for _ in range(20):
            x = rng.uniform(-2.0, 2.0, size=2)
            value = big_L(sink2, ORIGIN_2D, x, cfg, tight)
            worst_gap = max(worst_gap, abs(value - np.linalg.norm(x) / 2.0))
        probe = ConverseConfig(10.0, 0.05)
        sink_report = verify_converse_properties(
            sink2,
            ORIGIN_2D,
            Box([-2.0, -2.0], [2.0, 2.0]),
            100,
            0,
            cfg,
            probe,
            tol=1e-3,
        )
        vdp_report = verify_converse_properties(
            vdp,
            vdp_cycle_cloud,
            Box([-3.0, -3.0], [3.0, 3.0]),
            100,
            2024,
            cfg_coarse,
            probe,
            tol=1e-3,
        )
        violations = (
            len(sink_report.monotone_violations)
            + len(sink_report.strict_violations)
            + len(vdp_report.monotone_violations)
            + len(vdp_report.strict_violations)
        )
        ok = worst_gap <= 1e-3 and violations == 0
        criterion(
            8,
            ok,
            f"constructed L matches |x|/2 within {worst_gap:.3e}; "
            f"{violations} decrease violations across 200 sampled orbits",
        )
        assert worst_gap <= 1e-3
        assert violations == 0

    def test_criterion_09_certificate_verifier(
        self, criterion, sink2, rot_sink, grow1, cfg
    ):
        r_in = 0.1
        quad = ScalarFieldSpec.from_string("x1^2 + x2^2", 2)
        accepted_ok = True
        margins = []
        for field in (sink2, rot_sink):
            report = verify_certificate(
                field, ORIGIN_2D, quad, r_in, 2.0, 500, 9, cfg
            )
            margins.append(report.gradient_margin)
            accepted_ok = accepted_ok and (
                report.verdict == VERDICT_ACCEPTED
                and report.gradient_margin < -1e-6 * r_in**2
            )
        reject = verify_certificate(
            grow1,
            ORIGIN_1D,
            ScalarFieldSpec.from_string("x1^2", 1),
            r_in,
            2.0,
            200,
            9,
            cfg,
        )
        reject_ok = reject.verdict == VERDICT_REJECTED
        checked, worst_rel = self._gradient_fd_sweep()
        sweep_ok = checked == 1000 and worst_rel <= 1e-5
        ok = accepted_ok and reject_ok and sweep_ok
        criterion(
            9,
            ok,
            f"quadratic accepted with margins {margins[0]:.3e}/{margins[1]:.3e}, "
            f"unstable field rejected, {checked}/1000 random gradients within "
            f"{worst_rel:.2e} of finite differences",
        )
        assert accepted_ok
        assert reject_ok
        assert checked == 1000
        assert worst_rel <= 1e-5

    @staticmethod
    def _gradient_fd_sweep():
        """Compare symbolic gradients against central differences.

        Draws random smooth expressions in two variables until 1000 clean
        comparisons accumulate; wildly scaled samples are redrawn rather
        than compared.
        """
        rng = np.random.default_rng(17)
        unary_ops = ("sin", "cos", "tanh")
        binary_ops = ("add", "sub", "mul")

        def draw(depth):
            if depth == 0 or rng.uniform() < 0.3:
                if rng.uniform() < 0.6:
                    return Var(int(rng.integers(1, 3)))
                return Const(round(float(rng.uniform(-2.0, 2.0)), 3))
            pick = int(rng.integers(0, 6))
            if pick < 3:
                return Binary(binary_ops[pick], draw(depth - 1), draw(depth - 1))
            if pick < 5:
                op = unary_ops[int(rng.integers(0, 3))] if pick == 3 else "exp"
                return Unary(op, draw(depth - 1))
            return Binary(
                "pow", draw(depth - 1), Const(float(rng.integers(2, 4)))
            )

        checked = 0
        worst_rel = 0.0
        attempts = 0
        while checked < 1000 and attempts < 20000:
            attempts += 1
            body = draw(3)
            x = rng.uniform(-1.5, 1.5, size=2)
            try:
                value = eval_expr(body, x)
                partials = [
                    eval_expr(differentiate(body, i), x) for i in (1, 2)
                ]
            except EvalDomainError:
                continue
            if abs(value) > 1e8 or max(abs(p) for p in partials) > 1e8:
                continue
            skip = False
            rel = 0.0
            for i in (1, 2):
                h = 1e-6 * max(1.0, abs(x[i - 1]))
                left = np.array(x)
                right = np.array(x)
                left[i - 1] -= h
                right[i - 1] += h
                try:
                    fd = (eval_expr(body, right) - eval_expr(body, left)) / (
                        2.0 * h
                    )
                except EvalDomainError:
                    skip = True
                    break
                sym = partials[i - 1]
                rel = max(
                    rel, abs(sym - fd) / max(1.0, abs(sym), abs(fd))
                )
            if skip:
                continue
            checked += 1
            worst_rel = max(worst_rel, rel)
        return checked, worst_rel

    def test_criterion_10_determinism(self, criterion, tmp_path):
        mismatches = []
        for name in (
            "linear_sink",
            "harmonic_oscillator",
            "unstable_linear",
            "vanderpol",
        ):
            artifacts = []
            for run in ("a", "b"):
                run_dir = tmp_path / f"{name}_{run}"
                run_dir.mkdir()
                problem = run_dir / f"{name}.json"
                shutil.copy(PROBLEM_DIR / f"{name}.json", problem)
                code = cli_main(["analyze", str(problem)])
                assert code in (0, 2)
                report = run_dir / f"{name}.report.json"
                assert cli_main(["plot", str(report)]) == 0
                blobs = {
                    path.name: path.read_bytes()
                    for path in sorted(run_dir.iterdir())
                    if path.suffix in (".json", ".svg", ".csv")
                }
                artifacts.append(blobs)
            if artifacts[0] != artifacts[1]:
                mismatches.append(name)
        ok = not mismatches
        criterion(
            10,
            ok,
            "repeated analyze+plot runs byte-identical for all four bundled "
            "problems" if ok else f"nondeterministic outputs: {mismatches}",
        )
        assert not mismatches
