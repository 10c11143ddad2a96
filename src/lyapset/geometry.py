"""Compact subsets of R^n and the distance machinery around them.

A state point is a 1-D float ndarray. Compact sets come in four variants:
a single point, a finite point cloud (a sampled curve or cycle, an
omega-limit estimate, points drawn from a set or its shell), a closed
Euclidean ball, and an axis-aligned box. Every variant answers
exact point-to-set distances from one sum in every dimension: the squared
differences added from left to right (`_squared`), as the native code adds
them. The point cloud answers the minimum over its members, by a C search
over its members sorted on their widest coordinate, or without a compiler
by the sorted-window search below, with the same bits. Each variant has
one distance formula, `distances` over an (m, n) array; `distance` of one
point applies it to a one-row array, so both forms agree bitwise.

Points on the shell {x : d(x, M) = r} come from one sampler, which shoots
rays out of the set and bisects them: for a point, a ball, a box or a
point cloud in one call of a C search, elsewhere all together in NumPy,
with the same bits either way. A sampling call draws from one seeded generator, one array
call per kind of draw. Finite sets are clustered by a search over sorted
windows of their widest coordinate. Their Hausdorff distance is the larger
of the two one-sided maxima of the point cloud's own distances.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DimensionMismatchError

# Largest number of point pairs whose differences are materialized at
# once, beyond one row's. Small chunks keep the difference arrays in cache
# and the peak memory low; chunking does not change any pair's squared
# distance, so results are the same bits.
_CHUNK_ENTRIES = 16_384


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Validate and convert a coordinate sequence to a state point."""
    p = np.asarray(x, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("a state point must be a nonempty 1-D coordinate sequence")
    if not np.all(np.isfinite(p)):
        raise ValueError("state point coordinates must be finite")
    if dim is not None and p.size != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {p.size}")
    return p


class CompactSet:
    """Common surface of the four compact-set variants."""

    dim: int

    def distance(self, x) -> float:
        """Distance from one point, by the formula `distances` applies."""
        return float(self.distances(self._check_dim(as_point(x))[None, :])[0])

    def distances(self, points: np.ndarray) -> np.ndarray:
        """Vectorized distance for an (m, n) array of points."""
        raise NotImplementedError

    def sample_points(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Points of the set itself (members and boundary), (k, n), drawn
        from rng with one array call per kind of draw."""
        raise NotImplementedError

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    def _check_dim(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise DimensionMismatchError(
                f"point dimension {x.shape[-1]} != set dimension {self.dim}"
            )
        return x


class SinglePoint(CompactSet):
    def __init__(self, point):
        self.point = as_point(point)
        self.dim = self.point.size

    def distances(self, points):
        return np.sqrt(_squared(self._check_dim(points), self.point))

    def sample_points(self, count, rng):
        return self.point[None, :].copy()

    def bounding_box(self):
        return self.point.copy(), self.point.copy()

    def to_json(self):
        return {"type": "point", "coords": self.point.tolist()}

    def __repr__(self):
        return f"SinglePoint({self.point.tolist()})"


class PointCloud(CompactSet):
    """A finite set of points, itself compact: a sampling of a set, or the
    representatives of an omega-limit estimate. Distance is the minimum
    over members, the square root of the least `_squared` sum. A C search
    over the members sorted on their widest coordinate takes it
    (flow._nearest); where that search cannot be built, a NumPy search over
    sorted windows does, exactly too, so with the same bits. `hausdorff`
    takes its one-sided maxima from these distances. Shell rays out of the
    cloud itself, not of a subclass, run in C with the C search's scan
    (flow._shell_rays)."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("point cloud needs a nonempty (k, n) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point cloud members must be finite")
        self.points = pts
        self.dim = pts.shape[1]
        self._by_key = None

    def _sorted(self) -> tuple[int, np.ndarray, np.ndarray]:
        """The members' widest coordinate, the members sorted on it, and
        their values there, C-contiguous; sorted on first use."""
        if self._by_key is None:
            axis = _widest_axis(self.points)
            members = self.points.take(np.argsort(self.points[:, axis], kind="stable"), 0)
            self._by_key = axis, members, members[:, axis].copy()
        return self._by_key

    def distances(self, points):
        from .flow import _nearest  # flow imports this module

        points = self._check_dim(points)
        if not np.all(np.isfinite(points)):
            raise ValueError("'x' must be finite, check for nan or inf values")
        queries = np.ascontiguousarray(points.reshape(-1, self.dim))
        out = _nearest(self, queries)
        if out is None:
            axis, members, key = self._sorted()
            at = queries[:, axis]
            near = np.searchsorted(key, at)
            # The two sorted neighbours on either side bound a query's least
            # squared distance. Squares past the largest double are inf, as in C.
            with np.errstate(over="ignore"):
                bound = _row_minima(queries, members, np.maximum(near - 2, 0),
                                    np.minimum(near + 2, key.size))
                out = np.sqrt(_row_minima(queries, members, *_windows(key, at, _reach(bound))))
        return out.reshape(points.shape[:-1])

    def sample_points(self, count, rng):
        if count >= self.points.shape[0]:
            return self.points.copy()
        idx = rng.integers(0, self.points.shape[0], size=count)
        return self.points[idx]

    def bounding_box(self):
        return self.points.min(axis=0), self.points.max(axis=0)

    def to_json(self):
        return {"type": "cloud", "points": self.points.tolist()}

    def __len__(self):
        return self.points.shape[0]

    def __repr__(self):
        return f"PointCloud(<{len(self)} points in R^{self.dim}>)"


class ClosedBall(CompactSet):
    def __init__(self, center, radius: float):
        self.center = as_point(center)
        self.radius = float(radius)
        if self.radius < 0:
            raise ValueError("ball radius must be >= 0")
        self.dim = self.center.size

    def distances(self, points):
        d = np.sqrt(_squared(self._check_dim(points), self.center))
        return np.maximum(0.0, d - self.radius)

    def sample_points(self, count, rng):
        # Center first, then alternating exact-boundary and interior points.
        u = rng.standard_normal((max(count - 1, 0), self.dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        scale = np.ones(len(u))
        scale[1::2] = rng.uniform(size=len(u) // 2) ** (1.0 / self.dim)
        return np.vstack([self.center, self.center + self.radius * scale[:, None] * u])

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius

    def to_json(self):
        return {"type": "ball", "center": self.center.tolist(), "radius": self.radius}

    def __repr__(self):
        return f"ClosedBall({self.center.tolist()}, r={self.radius})"


class Box(CompactSet):
    def __init__(self, lo, hi):
        self.lo = as_point(lo)
        self.hi = as_point(hi, dim=self.lo.size)
        if np.any(self.lo > self.hi):
            raise ValueError("box needs lo <= hi componentwise")
        self.dim = self.lo.size

    def distances(self, points):
        points = self._check_dim(points)
        return np.sqrt(_squared(points, np.clip(points, self.lo, self.hi)))

    def sample_points(self, count, rng):
        # Up to 64 corners: every corner, in product order, where they fit;
        # else as many drawn at random, a bit per coordinate picking lo (0)
        # or hi (1), so that rays from them do not all start at lo in the
        # leading coordinates.
        k = min(max(1, count), 64)
        if 2 ** self.dim <= k:
            corners = np.array(list(itertools.product(*zip(self.lo, self.hi))))
        else:
            corners = np.where(rng.integers(0, 2, size=(k, self.dim)) == 1, self.hi, self.lo)
        extra = rng.uniform(self.lo, self.hi, size=(max(count - len(corners), 0), self.dim))
        return np.vstack([corners, extra])

    def bounding_box(self):
        return self.lo.copy(), self.hi.copy()

    def to_json(self):
        return {"type": "box", "lo": self.lo.tolist(), "hi": self.hi.tolist()}

    def __repr__(self):
        return f"Box({self.lo.tolist()}, {self.hi.tolist()})"


def _shell_points(M: CompactSet, radii, rng: np.random.Generator) -> np.ndarray:
    """Row i lies at distance radii[i] from the set, to 1e-12 relative.

    The m rays draw from rng in three array calls: all unit directions,
    max(4, m) members of the set, and each ray's base among them, so the
    rays of a cloud spread over it. All rays then grow their outer bound
    by doubling and bisect together, one `distances` call per step over
    the rays not yet done. For a point, a ball, a box or a point cloud,
    one C call (flow._shell_rays) runs that search ray by ray instead, by
    the same operations in the same order, so with the same bits: one
    build serves every dimension, and its distances are the native orbit
    loop's, or for a cloud the C nearest search's scan, which ends once a
    step's two tests, d < r and |d - r| <= tol, are decided as the exact
    distance decides them. Other sets, and runs where it cannot be built,
    take these loops.
    """
    from .flow import _shell_rays  # flow imports this module

    r = np.asarray(radii, dtype=float)
    tol = 1e-12 * np.maximum(1.0, r)
    u = rng.standard_normal((r.size, M.dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    members = M.sample_points(max(4, r.size), rng)
    base = members[rng.integers(0, members.shape[0], size=r.size)]
    out = _shell_rays(M, base, u, r, tol)
    if out is not None:
        return out

    def along(rays, s):
        return base[rays] + s[:, None] * u[rays]

    s_hi = r.copy()
    rays = np.arange(r.size)
    for _ in range(90):
        rays = rays[M.distances(along(rays, s_hi[rays])) < r[rays]]
        if rays.size == 0:
            break
        s_hi[rays] *= 2.0
    s_lo = np.zeros_like(r)
    out = np.empty_like(u)
    rays = np.arange(r.size)
    for _ in range(256):
        mid = 0.5 * (s_lo[rays] + s_hi[rays])
        pts = along(rays, mid)
        d = M.distances(pts)
        hit = np.abs(d - r[rays]) <= tol[rays]
        out[rays[hit]] = pts[hit]
        below = d < r[rays]
        s_lo[rays] = np.where(below, mid, s_lo[rays])
        s_hi[rays] = np.where(below, s_hi[rays], mid)
        rays = rays[~hit]
        if rays.size == 0:
            return out
    out[rays] = along(rays, 0.5 * (s_lo[rays] + s_hi[rays]))
    return out


def sample_shell(M: CompactSet, r: float, count: int, seed: int) -> PointCloud:
    """Sample `count` points of the shell {x : d(x, M) = r}, deterministically.

    Points are drawn by shooting random rays out of the set, all from one
    generator seeded with seed, and bisecting each until d matches r.
    """
    if r <= 0:
        raise ValueError("shell sampling needs r > 0")
    if count < 1:
        raise ValueError("count must be >= 1")
    return PointCloud(_shell_points(M, [r] * count, np.random.default_rng(seed)))


def sample_set_points(M: CompactSet, count: int, seed: int) -> PointCloud:
    """Sample members (and boundary, where meaningful) of the set itself."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return PointCloud(M.sample_points(count, np.random.default_rng(seed)))


# Sorted windows. Pairs of points are searched along one coordinate: the
# widest one of the input, sorted once. The squared distance of a pair is a
# sum of squares, each at most the sum, since adding a nonnegative term
# never lowers a rounded sum. So a pair whose squared distance is at most b
# lies within _reach(b) on that coordinate, and only the pairs inside that
# window of the sorted order are tested.


def _widest_axis(points: np.ndarray) -> int:
    """The coordinate along which the (k, n) points spread most."""
    return int(np.argmax(points.max(axis=0) - points.min(axis=0)))


def _reach(bound):
    """A gap on one coordinate that no pair with squared distance <= bound
    exceeds. The factor covers the rounding of the difference, its square
    and this root; the floor covers squares that underflow."""
    return 1.000001 * np.sqrt(np.maximum(bound, 2.0**-1022))


def _windows(key: np.ndarray, at, reach):
    """Per value of at, the slice [lo, hi) of the sorted key within reach.
    Rounding is monotone, so at - reach and at + reach, rounded, still
    enclose every key within reach."""
    return np.searchsorted(key, at - reach, "left"), np.searchsorted(key, at + reach, "right")


def _pair_chunks(lo: np.ndarray, hi: np.ndarray):
    """The pairs (i, j) with lo[i] <= j < hi[i], ordered by i then j, as index
    arrays in chunks of whole rows. A chunk ends before the row whose first
    pair reaches the next multiple of _CHUNK_ENTRIES, so it holds at most
    that many pairs and one row more."""
    sizes = hi - lo
    before = np.cumsum(sizes) - sizes
    total = int(before[-1] + sizes[-1]) if sizes.size else 0
    cuts = np.searchsorted(before, np.arange(0, total, _CHUNK_ENTRIES)).tolist()
    for r0, r1 in zip(cuts, cuts[1:] + [sizes.size]):
        i = np.repeat(np.arange(r0, r1), sizes[r0:r1])
        if i.size:
            yield i, lo[i] + np.arange(i.size) - (before[i] - before[r0])


def _squared(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared distances of the rows of p and q, broadcast: the squared
    differences added column by column from left to right, as the C
    prelude's squares adds them; NumPy's row sums are pairwise from 8 on."""
    s = 0.0
    for c in range(p.shape[-1]):
        e = p[..., c] - q[..., c]
        s = s + e * e
    return s


def _row_minima(P: np.ndarray, Q: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per row i of P, the smallest squared distance to Q[lo[i]:hi[i]]."""
    out = np.full(P.shape[0], np.inf)
    for i, j in _pair_chunks(lo, hi):
        first = np.flatnonzero(np.diff(i, prepend=-1))
        out[i[first]] = np.minimum.reduceat(_squared(P.take(i, 0), Q.take(j, 0)), first)
    return out


def _greedy_cluster(samples: np.ndarray, tol: float) -> np.ndarray:
    """First-come representatives: a sample within tol of an earlier
    representative merges into it, and any other sample becomes one.

    A sample is tested only against the representatives within tol's reach
    on the samples' widest coordinate, sorted once. Samples go in blocks of
    isqrt(2 * _CHUNK_ENTRIES), in order. A block is first tested against
    the earlier representatives; the samples that none of them takes are
    tested against each other and resolved in sample order. So a converged
    window that collapses to one representative costs O(k), and a window
    whose representatives seldom share a reach about O(k) too. Each tested
    pair is decided by `_squared`, the squared distance of the plain loop
    that tests every representative (the tests' oracle), and every pair
    outside the reach is farther than tol, so the representatives are that
    loop's, bit for bit. Worst case: representatives that all share the
    sorted coordinate, where every pair of them is tested, as in the plain
    loop.
    """
    tol2 = tol * tol
    k = samples.shape[0]
    axis = _widest_axis(samples)
    order = np.argsort(samples[:, axis], kind="stable")
    rank = np.empty(k, np.intp)
    rank[order] = np.arange(k)
    lo, hi = _windows(samples[order, axis], samples[:, axis], _reach(tol2))
    rep = np.zeros(k, bool)

    def close(rows, among):
        """Close pairs (a, j): sample j, at a sorted position in among,
        within tol of sample rows[a]; in order of a."""
        for a, b in _pair_chunks(np.searchsorted(among, lo[rows]), np.searchsorted(among, hi[rows])):
            j = order[among[b]]
            near = _squared(samples.take(rows[a], 0), samples.take(j, 0)) <= tol2
            yield a[near], j[near]

    block = math.isqrt(2 * _CHUNK_ENTRIES)
    for start in range(0, k, block):
        rows = np.arange(start, min(start + block, k))
        taken = np.zeros(rows.size, bool)
        for a, _ in close(rows, np.flatnonzero(rep[order])):
            taken[a] = True
        rows = rows[~taken]
        rep[rows] = True
        for a, j in close(rows, np.sort(rank[rows])):
            earlier = j < rows[a]
            a, j = a[earlier], j[earlier]
            cuts = np.flatnonzero(np.diff(a, prepend=-1, append=-1)).tolist()
            for s, e in zip(cuts, cuts[1:]):  # a's partners are final: all come before it
                if rep[j[s:e]].any():
                    rep[rows[a[s]]] = False
    return samples[rep]


def hausdorff(A, B) -> float:
    """Hausdorff distance between two finite point sets, (k, n) arrays or
    PointClouds: the larger of the two one-sided maxima of
    PointCloud.distances, each member's distance to the other set. Each
    is the square root of a least `_squared` sum, the brute force's
    formula, and the square root is monotone, so the result is the brute
    force's, bit for bit. A PointCloud operand keeps its sorted members
    for later distances. Worst case, without a compiler: sets far apart
    make each window of the NumPy search the whole other set, and every
    pair is tested, in both directions.
    """
    a, b = (S if isinstance(S, PointCloud) else PointCloud(S) for S in (A, B))
    return float(max(b.distances(a.points).max(), a.distances(b.points).max()))
