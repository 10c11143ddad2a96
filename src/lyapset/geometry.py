"""Compact subsets of R^n and the distance machinery around them.

A state point is a 1-D float ndarray. Compact sets come in four variants:
a single point, a finite point cloud (a sampled curve or cycle, an
omega-limit estimate, points drawn from a set or its shell), a closed
Euclidean ball, and an axis-aligned box. Every variant answers
exact point-to-set distances; the point cloud answers the minimum over its
members. Each variant has one distance formula, `distances` over an (m, n)
array; `distance` of one point applies it to a one-row array, so the point
and array forms agree bitwise.

Points on the shell {x : d(x, M) = r} come from one sampler, which shoots
seeded rays out of the set and bisects all of them together.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import DimensionMismatchError

# Largest number of pairwise-distance entries materialized at once. Small
# chunks keep the difference arrays in cache and the peak memory low;
# chunking does not change any row's minimum, so results are the same bits.
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
        """Points of the set itself (members and boundary), (k, n)."""
        raise NotImplementedError

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    def _check_dim(self, x: np.ndarray) -> np.ndarray:
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
        return np.linalg.norm(self._check_dim(points) - self.point, axis=-1)

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
    over members."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("point cloud needs a nonempty (k, n) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point cloud members must be finite")
        self.points = pts
        self.dim = pts.shape[1]
        self._tree = None

    def _nearest(self, points: np.ndarray) -> np.ndarray:
        if self._tree is None:
            # Imported on first use: SciPy's import costs more than lyapset's.
            from scipy.spatial import cKDTree

            self._tree = cKDTree(self.points)
        return self._tree.query(points, k=1)[0]

    def distances(self, points):
        points = self._check_dim(np.asarray(points, dtype=float))
        return self._nearest(points)

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
        d = np.linalg.norm(self._check_dim(points) - self.center, axis=-1)
        return np.maximum(0.0, d - self.radius)

    def sample_points(self, count, rng):
        # Center first, then alternating exact-boundary and interior points.
        out = [self.center]
        for k in range(count - 1):
            u = rng.standard_normal(self.dim)
            u /= np.linalg.norm(u)
            if k % 2 == 0:
                out.append(self.center + self.radius * u)
            else:
                scale = rng.uniform() ** (1.0 / self.dim)
                out.append(self.center + self.radius * scale * u)
        return np.asarray(out)

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
        points = self._check_dim(np.asarray(points, dtype=float))
        nearest = np.clip(points, self.lo, self.hi)
        return np.linalg.norm(points - nearest, axis=-1)

    def sample_points(self, count, rng):
        corners = [
            np.asarray(c)
            for c in itertools.islice(itertools.product(*zip(self.lo, self.hi)), 64)
        ]
        out = corners[: max(1, count)]
        while len(out) < count:
            out.append(rng.uniform(self.lo, self.hi))
        return np.asarray(out)

    def bounding_box(self):
        return self.lo.copy(), self.hi.copy()

    def to_json(self):
        return {"type": "box", "lo": self.lo.tolist(), "hi": self.hi.tolist()}

    def __repr__(self):
        return f"Box({self.lo.tolist()}, {self.hi.tolist()})"


def _shell_points(M: CompactSet, radii, rngs) -> np.ndarray:
    """Row i lies at distance radii[i] from the set, to 1e-12 relative.

    Ray i draws its direction and base point from rngs[i], in ray order, so
    rays that share one generator draw in turn. All rays then grow their
    outer bound by doubling and bisect together, one `distances` call per
    step over the rays not yet done.
    """
    r = np.asarray(radii, dtype=float)
    tol = 1e-12 * np.maximum(1.0, r)
    u = np.empty((r.size, M.dim))
    base = np.empty_like(u)
    for i, rng in enumerate(rngs):
        u[i] = rng.standard_normal(M.dim)
        u[i] /= np.linalg.norm(u[i])
        members = M.sample_points(4, rng)
        base[i] = members[rng.integers(0, members.shape[0])]

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

    Points are drawn by shooting seeded random rays out of the set and
    bisecting along each ray until the distance matches r.
    """
    if r <= 0:
        raise ValueError("shell sampling needs r > 0")
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    return PointCloud(_shell_points(M, [r] * count, [rng] * count))


def sample_set_points(M: CompactSet, count: int, seed: int) -> PointCloud:
    """Sample members (and boundary, where meaningful) of the set itself."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    return PointCloud(M.sample_points(count, rng))


def _as_points(A) -> np.ndarray:
    pts = A.points if isinstance(A, PointCloud) else np.asarray(A, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("hausdorff needs nonempty point sets")
    if not np.all(np.isfinite(pts)):
        raise ValueError("hausdorff needs finite points")
    return pts


def hausdorff(A, B) -> float:
    """Hausdorff distance between two finite point sets.

    Brute force rather than PointCloud's KD-tree: SciPy's import costs
    more memory than these sets, and runs without a cloud set never load it.
    One chunked pass over squared distances keeps row and running column
    minima; one monotone square root at the end gives the same bits as
    taking it per entry in each direction.
    """
    pa, pb = _as_points(A), _as_points(B)
    if pa.shape[1] != pb.shape[1]:
        raise DimensionMismatchError("hausdorff operands differ in dimension")
    worst = 0.0
    col_min = np.full(pb.shape[0], np.inf)
    rows = max(1, _CHUNK_ENTRIES // pb.shape[0])
    for start in range(0, pa.shape[0], rows):
        diff = pa[start : start + rows, None, :] - pb[None, :, :]
        sq = (diff * diff).sum(-1)
        worst = max(worst, float(sq.min(axis=1).max()))
        np.minimum(col_min, sq.min(axis=0), out=col_min)
    return float(np.sqrt(max(worst, float(col_min.max()))))
