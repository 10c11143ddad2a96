import math

import numpy as np
import pytest

from lyapset import geometry
from lyapset.errors import DimensionMismatchError
from lyapset.geometry import (
    Box,
    ClosedBall,
    FiniteSetApprox,
    PointCloud,
    ShellLocation,
    SinglePoint,
    hausdorff,
    sample_set_points,
    sample_shell,
    shell_classify,
)

from conftest import circle_cloud


def all_variants():
    return [
        SinglePoint([0.3, -0.7]),
        PointCloud([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        ClosedBall([0.5, 0.5], 0.75),
        Box([-1.0, -2.0], [1.5, 0.5]),
    ]


class TestDistance:
    def test_ball_interior_is_zero(self):
        assert ClosedBall([0.0, 0.0], 1.0).distance([0.0, 0.0]) == 0.0

    def test_point_set_345(self):
        assert SinglePoint([0.0, 0.0]).distance([3.0, 4.0]) == 5.0

    def test_ball_exterior(self):
        assert ClosedBall([0.0, 0.0], 1.0).distance([2.0, 0.0]) == pytest.approx(1.0, abs=1e-15)

    def test_box_projection(self):
        box = Box([0.0, 0.0], [1.0, 1.0])
        assert box.distance([2.0, 2.0]) == pytest.approx(math.sqrt(2.0))
        assert box.distance([0.5, 0.5]) == 0.0
        assert box.distance([0.5, -1.0]) == pytest.approx(1.0)

    def test_cloud_minimum_over_members(self):
        cloud = PointCloud([[0.0, 0.0], [10.0, 0.0]])
        assert cloud.distance([9.0, 0.0]) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            SinglePoint([0.0, 0.0]).distance([1.0, 2.0, 3.0])

    def test_lipschitz_over_all_variants(self):
        rng = np.random.default_rng(101)
        for M in all_variants():
            xs = rng.uniform(-3, 3, size=(50, 2))
            ys = rng.uniform(-3, 3, size=(50, 2))
            for x, y in zip(xs, ys):
                gap = abs(M.distance(x) - M.distance(y))
                assert gap <= np.linalg.norm(x - y) + 1e-12

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-2, 2, size=(40, 2))
        for M in all_variants():
            batch = M.distances(pts)
            for i, p in enumerate(pts):
                assert batch[i] == pytest.approx(M.distance(p), abs=1e-12)

    def test_cloud_tree_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        cloud = PointCloud(rng.uniform(-1, 1, size=(200, 3)))
        pts = rng.uniform(-2, 2, size=(64, 3))
        fast = cloud.distances(pts)
        diff = pts[:, None, :] - cloud.points[None, :, :]
        slow = np.sqrt((diff * diff).sum(axis=-1)).min(axis=1)
        assert np.allclose(fast, slow, atol=1e-12)


class TestShellClassify:
    def test_inside_open(self):
        loc = shell_classify([0.5, 0.0], SinglePoint([0.0, 0.0]), 1.0, 1e-9)
        assert loc == ShellLocation.INSIDE_OPEN

    def test_on_shell(self):
        loc = shell_classify([1.0, 0.0], SinglePoint([0.0, 0.0]), 1.0, 1e-9)
        assert loc == ShellLocation.ON_SHELL

    def test_outside_closed(self):
        loc = shell_classify([2.0, 0.0], ClosedBall([0.0, 0.0], 1.0), 0.5, 1e-9)
        assert loc == ShellLocation.OUTSIDE_CLOSED

    def test_partition_randomized(self):
        rng = np.random.default_rng(23)
        tol = 1e-9
        for M in all_variants():
            for _ in range(50):
                x = rng.uniform(-3, 3, size=2)
                r = float(rng.uniform(0.1, 2.0))
                d = M.distance(x)
                if abs(abs(d - r) - tol) <= 2 * tol:
                    continue  # boundary between labels, either side acceptable
                labels = [shell_classify(x, M, r, tol)]
                assert len(set(labels)) == 1
                expected = (
                    ShellLocation.INSIDE_OPEN
                    if d < r - tol
                    else ShellLocation.ON_SHELL
                    if abs(d - r) <= tol
                    else ShellLocation.OUTSIDE_CLOSED
                )
                assert labels[0] == expected


class TestSampleShell:
    def test_point_shell_radius(self):
        approx = sample_shell(SinglePoint([0.0, 0.0]), 1.0, 4, 7)
        assert approx.points.shape == (4, 2)
        radii = np.linalg.norm(approx.points, axis=1)
        assert np.all(np.abs(radii - 1.0) <= 1e-9)

    def test_ball_shell_radius(self):
        approx = sample_shell(ClosedBall([0.0, 0.0], 1.0), 0.5, 8, 1)
        radii = np.linalg.norm(approx.points, axis=1)
        assert np.all(np.abs(radii - 1.5) <= 1e-9)

    def test_box_shell_classifies_on_shell(self):
        M = Box([0.0, 0.0], [1.0, 1.0])
        approx = sample_shell(M, 0.25, 16, 3)
        for p in approx.points:
            assert shell_classify(p, M, 0.25, 1e-8) == ShellLocation.ON_SHELL

    def test_deterministic_for_seed(self):
        a = sample_shell(ClosedBall([1.0, 2.0], 0.5), 0.3, 6, 99).points
        b = sample_shell(ClosedBall([1.0, 2.0], 0.5), 0.3, 6, 99).points
        assert np.array_equal(a, b)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            sample_shell(SinglePoint([0.0]), 0.0, 4, 0)

    def test_cloud_shell(self):
        M = circle_cloud(360)
        approx = sample_shell(M, 0.2, 10, 5)
        for p in approx.points:
            assert abs(M.distance(p) - 0.2) <= 1e-9


class TestSampleSetPoints:
    def test_samples_have_zero_distance(self):
        for M in all_variants():
            pts = sample_set_points(M, 20, 13).points
            assert np.all(M.distances(pts) <= 1e-9)

    def test_point_set_returns_the_point(self):
        pts = sample_set_points(SinglePoint([2.0, 3.0]), 5, 0).points
        assert np.array_equal(pts[0], [2.0, 3.0])


class TestHausdorff:
    def test_identical_singletons(self):
        a = np.array([[1.0, 2.0]])
        assert hausdorff(a, a.copy()) == 0.0

    def test_one_sided_excess(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert hausdorff(a, b) == pytest.approx(1.0)

    def test_rotated_circle(self):
        base = circle_cloud(100).points
        phi = math.pi / 100
        rot = np.array(
            [[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]]
        )
        rotated = base @ rot.T
        bound = 2.0 * math.sin(math.pi / 200) + 1e-12
        assert hausdorff(base, rotated) <= bound

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            a = rng.uniform(-1, 1, size=(8, 2))
            b = rng.uniform(-1, 1, size=(5, 2))
            c = rng.uniform(-1, 1, size=(6, 2))
            assert hausdorff(a, b) == hausdorff(b, a)
            assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 1e-12

    # 7 entries splits every pair of sets into chunks of one to seven rows.
    @pytest.mark.parametrize("chunk", [geometry._CHUNK_ENTRIES, 7])
    def test_matches_unchunked_oracle_bitwise(self, chunk, monkeypatch):
        monkeypatch.setattr(geometry, "_CHUNK_ENTRIES", chunk)

        def directed(p, q):
            diff = p[:, None, :] - q[None, :, :]
            return float(np.sqrt((diff * diff).sum(-1)).min(axis=1).max())

        rng = np.random.default_rng(47)
        sizes = [(671, 671, 4)] + [
            (int(rng.integers(1, 60)), int(rng.integers(1, 60)), int(rng.integers(1, 7)))
            for _ in range(300)
        ]
        for rows_a, rows_b, n in sizes:
            a = rng.uniform(-2, 2, size=(rows_a, n))
            b = rng.uniform(-2, 2, size=(rows_b, n))
            if rng.uniform() < 0.3:  # shared members and coarse values give ties
                a = np.round(a, 1)
                b = np.concatenate([np.round(b, 1), a[:3]])
            expected = max(directed(a, b), directed(b, a))
            assert hausdorff(a, b).hex() == expected.hex()

    def test_rejects_non_finite_members(self):
        a = np.array([[0.0, 0.0], [np.nan, 1.0]])
        with pytest.raises(ValueError):
            hausdorff(a, np.zeros((1, 2)))
        with pytest.raises(ValueError):
            hausdorff(np.zeros((1, 2)), a)


class TestFiniteSetApprox:
    def test_dim_and_len(self):
        fsa = FiniteSetApprox(np.zeros((3, 2)), meta="test")
        assert fsa.dim == 2
        assert len(fsa) == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FiniteSetApprox(np.zeros((0, 2)), meta="empty")


class TestValidation:
    def test_box_lo_above_hi_rejected(self):
        with pytest.raises(ValueError):
            Box([1.0], [0.0])

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            ClosedBall([0.0], -0.1)

    def test_nonfinite_point_rejected(self):
        with pytest.raises(ValueError):
            SinglePoint([math.nan, 0.0])
