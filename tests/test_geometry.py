import importlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from lyapset import geometry
from lyapset.errors import DimensionMismatchError
from lyapset.geometry import (
    Box,
    ClosedBall,
    PointCloud,
    SinglePoint,
    _greedy_cluster,
    hausdorff,
    sample_set_points,
    sample_shell,
)

from conftest import circle_cloud, count_generators

flow = importlib.import_module("lyapset.flow")  # the package exports a function named flow


def pair_squares(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared distances of every row of p to every row of q, (k_p, k_q):
    the squared differences summed from left to right."""
    total = 0.0
    for c in range(p.shape[1]):
        e = p[:, None, c] - q[None, :, c]
        total = total + e * e
    return total


def no_nearest_search(monkeypatch):
    """Force PointCloud's distances onto the NumPy search, as where the C
    nearest search cannot be built."""
    monkeypatch.setattr(flow, "_nearest_kernel", lambda: None)


def hausdorff_brute(a: np.ndarray, b: np.ndarray) -> float:
    """Reference Hausdorff distance: every pairwise distance at once."""

    def directed(p, q):
        return float(np.sqrt(pair_squares(p, q)).min(axis=1).max())

    return max(directed(a, b), directed(b, a))


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
            # A list of rows is taken as their array.
            assert M.distances(pts.tolist()).tobytes() == batch.tobytes()
            for i, p in enumerate(pts):
                assert float(batch[i]).hex() == M.distance(p).hex()

    def test_cloud_tree_matches_bruteforce(self):
        # Three coordinates, summed from left to right either way: the same bits.
        rng = np.random.default_rng(11)
        cloud = PointCloud(rng.uniform(-1, 1, size=(200, 3)))
        pts = rng.uniform(-2, 2, size=(64, 3))
        fast = cloud.distances(pts)
        slow = np.sqrt(pair_squares(pts, cloud.points)).min(axis=1)
        assert fast.tobytes() == slow.tobytes()


class TestSampleShell:
    def test_point_shell_radius(self):
        approx = sample_shell(SinglePoint([0.0, 0.0]), 1.0, 4, 7)
        assert isinstance(approx, PointCloud)
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
            assert abs(M.distance(p) - 0.25) <= 1e-8

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

    def test_one_generator_per_call(self, monkeypatch):
        made = count_generators(monkeypatch)
        sample_shell(circle_cloud(100), 0.2, 50, 5)
        assert made == [(5,)]


def _shell_point_reference(M, r, u, base):
    """One ray at a time, as the shell sampler once ran, on M.distance."""
    target_tol = 1e-12 * max(1.0, r)
    s_hi = r
    for _ in range(90):
        if M.distance(base + s_hi * u) >= r:
            break
        s_hi *= 2.0
    s_lo = 0.0
    for _ in range(256):
        mid = 0.5 * (s_lo + s_hi)
        d = M.distance(base + mid * u)
        if abs(d - r) <= target_tol:
            return base + mid * u
        if d < r:
            s_lo = mid
        else:
            s_hi = mid
    return base + 0.5 * (s_lo + s_hi) * u


def _parity_sets(n, rng):
    lo = rng.uniform(-1, 1, size=n)
    flat = lo + rng.uniform(0, 1, size=n) * (rng.uniform(size=n) < 0.5)
    return {
        "point": SinglePoint(lo),
        "ball": ClosedBall(lo, float(rng.uniform(0.1, 2.0))),
        "ball_r0": ClosedBall(lo, 0.0),
        "box": Box(lo, lo + rng.uniform(0.1, 2.0, size=n)),
        "flat_box": Box(lo, flat),  # lo == hi along about half the axes
        "cloud": PointCloud(rng.uniform(-1, 1, size=(int(rng.integers(1, 30)), n))),
        # Coordinates near 1e6 cannot resolve the 1e-12 tolerance, so these
        # rays run all 256 bisection steps and end on the midpoint.
        "far_ball": ClosedBall(lo + 1e6, 0.5),
    }


class TestShellPoints:
    # Every ray draws from the one generator of the call.
    @pytest.mark.parametrize("n", [1, 2, 3, 4], ids=lambda n: f"shared_rng-{n}")
    def test_bitwise_equal_to_per_ray_reference(self, n):
        rng = np.random.default_rng(n)
        for trial in range(4):
            for kind, M in _parity_sets(n, rng).items():
                rays = int(rng.integers(1, 7))
                radii = [float(r) for r in 10.0 ** rng.uniform(-6, 1, size=rays)]
                got = geometry._shell_points(M, radii, np.random.default_rng([n, trial]))
                # The documented draws: all directions, then max(4, m)
                # members, then each ray's base among them.
                draws = np.random.default_rng([n, trial])
                u = draws.standard_normal((rays, n))
                u /= np.linalg.norm(u, axis=1, keepdims=True)
                members = M.sample_points(max(4, rays), draws)
                base = members[draws.integers(0, members.shape[0], size=rays)]
                want = [_shell_point_reference(M, *ray) for ray in zip(radii, u, base)]
                assert got.tobytes() == np.asarray(want).tobytes(), (kind, radii)

    def test_cloud_rays_spread_over_the_cloud(self):
        # Each ray picks its base among as many members as there are rays,
        # so many rays of a large cloud start from many members.
        M = PointCloud(np.random.default_rng(2).uniform(-1, 1, size=(500, 2)))
        pts = geometry._shell_points(M, [1e-3] * 100, np.random.default_rng(0))
        diff = pts[:, None, :] - M.points[None, :, :]
        nearest = (diff * diff).sum(axis=-1).argmin(axis=1)
        assert len(set(nearest.tolist())) > 50


def _box_points_reference(box, count, rng):
    """The box's members drawn one at a time: up to 64 corners, every one
    in product order where they fit, else each coordinate of each picked
    by a draw of 0 (lo) or 1 (hi); then one uniform point per loop pass."""
    k = min(max(1, count), 64)
    if 2 ** box.dim <= k:
        out = [np.asarray(c) for c in itertools.product(*zip(box.lo, box.hi))]
    else:
        bits = rng.integers(0, 2, size=(k, box.dim))
        out = [np.array([(lo, hi)[b] for lo, hi, b in zip(box.lo, box.hi, row)]) for row in bits]
    while len(out) < count:
        out.append(rng.uniform(box.lo, box.hi))
    return np.asarray(out)


class TestSamplePoints:
    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_box_bitwise_equal_to_point_loop(self, n):
        rng = np.random.default_rng(n)
        lo = rng.uniform(-1, 1, size=n)
        for hi in (lo + rng.uniform(0.1, 2.0, size=n), lo):
            box = Box(lo, hi)
            for count in (0, 1, 2, 5, 64, 70, 200):
                got = box.sample_points(count, np.random.default_rng([n, count]))
                want = _box_points_reference(box, count, np.random.default_rng([n, count]))
                assert got.tobytes() == want.tobytes(), (count, hi)

    def test_box_corners_drawn_where_they_do_not_fit(self):
        # 128 corners in 7 coordinates: the 64 drawn are corners, and they
        # do not all share lo in the leading coordinates.
        box = Box([0.0] * 7, [1.0] * 7)
        corners = box.sample_points(64, np.random.default_rng(0))
        assert np.all((corners == 0.0) | (corners == 1.0))
        assert np.all(corners.max(axis=0) == 1.0) and np.all(corners.min(axis=0) == 0.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_ball_center_then_sphere_and_interior(self, n):
        ball = ClosedBall(np.arange(n) * 0.5, 0.75)
        pts = ball.sample_points(41, np.random.default_rng(n))
        assert pts.shape == (41, n)
        assert np.array_equal(pts[0], ball.center)
        radii = np.linalg.norm(pts - ball.center, axis=1)
        assert np.allclose(radii[1::2], 0.75, rtol=1e-14, atol=0.0)
        assert np.all(radii[2::2] < 0.75)
        assert ball.sample_points(1, np.random.default_rng(0)).tobytes() == ball.center.tobytes()


class TestSampleSetPoints:
    def test_samples_have_zero_distance(self):
        for M in all_variants():
            members = sample_set_points(M, 20, 13)
            assert isinstance(members, PointCloud)
            assert np.all(M.distances(members.points) <= 1e-9)

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
        cloud = circle_cloud(100)
        base = cloud.points
        phi = math.pi / 100
        rot = np.array(
            [[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]]
        )
        rotated = base @ rot.T
        bound = 2.0 * math.sin(math.pi / 200) + 1e-12
        assert hausdorff(base, rotated) <= bound
        assert hausdorff(cloud, rotated) == hausdorff(base, rotated)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            a = rng.uniform(-1, 1, size=(8, 2))
            b = rng.uniform(-1, 1, size=(5, 2))
            c = rng.uniform(-1, 1, size=(6, 2))
            assert hausdorff(a, b) == hausdorff(b, a)
            assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 1e-12

    # Hausdorff takes PointCloud's distances: in C where the nearest search
    # builds, and in the "numpy" cases with it forced off, by the NumPy
    # search over sorted windows. At 7 pairs a chunk of that search holds
    # one row's pairs, or those of a few short rows, so every search spans
    # many chunks.
    @pytest.mark.parametrize("chunk,numpy_search", [
        (geometry._CHUNK_ENTRIES, False), (7, False), (geometry._CHUNK_ENTRIES, True), (7, True)],
        ids=[str(geometry._CHUNK_ENTRIES), "7", f"numpy-{geometry._CHUNK_ENTRIES}", "numpy-7"])
    def test_matches_unchunked_oracle_bitwise(self, chunk, numpy_search, monkeypatch):
        monkeypatch.setattr(geometry, "_CHUNK_ENTRIES", chunk)
        if numpy_search:
            no_nearest_search(monkeypatch)
        rng = np.random.default_rng(47)
        sizes = [(671, 671, 4)] + [
            (int(rng.integers(1, 60)), int(rng.integers(1, 60)), int(rng.integers(1, 7)))
            for _ in range(300)
        ]
        cases = []
        for rows_a, rows_b, n in sizes:
            a = rng.uniform(-2, 2, size=(rows_a, n))
            b = rng.uniform(-2, 2, size=(rows_b, n))
            if rng.uniform() < 0.3:  # shared members and coarse values give ties
                a = np.round(a, 1)
                b = np.concatenate([np.round(b, 1), a[:3]])
            cases.append((a, b))
        # Far apart: every window is the whole set.
        for n in (1, 2, 5):
            cases.append((rng.uniform(-1, 1, (40, n)), rng.uniform(-1, 1, (30, n)) + 50.0))
        # Each set's members share the sorted (widest) coordinate, so the
        # sort separates nothing within a set; and sets of one repeated point.
        a, b = rng.uniform(-1, 1, (45, 3)), rng.uniform(-1, 1, (35, 3))
        a[:, 0], b[:, 0] = 0.0, 3.0
        cases += [(a, b), (np.full((6, 2), 0.5), np.full((4, 2), 0.5))]
        # Rows of eight terms or more, which NumPy's own sums add pairwise.
        for n in (8, 9, 12):
            cases.append((rng.uniform(-2, 2, (50, n)), rng.uniform(-2, 2, (40, n))))
        for a, b in cases:
            assert hausdorff(a, b).hex() == hausdorff_brute(a, b).hex()

    def test_rejects_non_finite_members(self):
        a = np.array([[0.0, 0.0], [np.nan, 1.0]])
        with pytest.raises(ValueError):
            hausdorff(a, np.zeros((1, 2)))
        with pytest.raises(ValueError):
            hausdorff(np.zeros((1, 2)), a)

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(DimensionMismatchError):
            hausdorff(np.zeros((2, 2)), np.zeros((3, 3)))
        with pytest.raises(DimensionMismatchError):
            hausdorff(PointCloud(np.zeros((3, 3))), np.zeros((2, 2)))


class TestPeakMemory:
    """No k^2 array: what the pair searches hold at once stays within a
    fixed multiple of one chunk's differences, against 128 MB for all the
    distances of two 4000-point sets and 3.2 GB for 20,000 samples."""

    def _peak(self, fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_far_apart_hausdorff(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-1, 1, (4000, 2))
        b = rng.uniform(-1, 1, (4000, 2)) + 100.0
        assert self._peak(lambda: hausdorff(a, b)) < 16 * geometry._CHUNK_ENTRIES * 2 * 8

    def test_far_apart_hausdorff_numpy_search(self, monkeypatch):
        # Every window of the NumPy search is the whole other set here.
        no_nearest_search(monkeypatch)
        self.test_far_apart_hausdorff()

    def test_converged_window_clustering(self):
        window = 0.5 + np.random.default_rng(4).uniform(-1e-5, 1e-5, (20_000, 2))
        reps = []
        peak = self._peak(lambda: reps.append(_greedy_cluster(window, 1e-3)))
        assert reps[0].shape == (1, 2)
        assert peak < 16 * geometry._CHUNK_ENTRIES * 2 * 8


class TestPointCloud:
    def test_dim_and_len(self):
        cloud = PointCloud(np.zeros((3, 2)))
        assert cloud.dim == 2
        assert len(cloud) == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((0, 2)))


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
