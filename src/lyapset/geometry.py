"""Compact subsets of R^n and the distance machinery around them.

A state point is a 1-D float ndarray. Compact sets come in four variants:
a single point, a finite point cloud (dense sampling of a curve or cycle),
a closed Euclidean ball, and an axis-aligned box. Every variant answers
exact point-to-set distances; the point cloud answers the minimum over its
members.
"""

from __future__ import annotations

import itertools
from enum import Enum

import numpy as np

from .errors import DimensionMismatchError

# Largest number of pairwise-distance entries materialized at once.
_CHUNK_ENTRIES = 4_000_000


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

    kind: str
    dim: int

    def distance(self, x: np.ndarray) -> float:
        raise NotImplementedError

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
    kind = "point"

    def __init__(self, point):
        self.point = as_point(point)
        self.dim = self.point.size

    def distance(self, x):
        return float(np.linalg.norm(self._check_dim(as_point(x)) - self.point))

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
    """Finite sampling of a compact set; distance is the minimum over members."""

    kind = "cloud"

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

    def distance(self, x):
        x = self._check_dim(as_point(x))
        return float(self._nearest(x[None, :])[0])

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

    def __repr__(self):
        return f"PointCloud(<{self.points.shape[0]} points in R^{self.dim}>)"


class ClosedBall(CompactSet):
    kind = "ball"

    def __init__(self, center, radius: float):
        self.center = as_point(center)
        self.radius = float(radius)
        if self.radius < 0:
            raise ValueError("ball radius must be >= 0")
        self.dim = self.center.size

    def distance(self, x):
        x = self._check_dim(as_point(x))
        return max(0.0, float(np.linalg.norm(x - self.center)) - self.radius)

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
    kind = "box"

    def __init__(self, lo, hi):
        self.lo = as_point(lo)
        self.hi = as_point(hi, dim=self.lo.size)
        if np.any(self.lo > self.hi):
            raise ValueError("box needs lo <= hi componentwise")
        self.dim = self.lo.size

    def distance(self, x):
        x = self._check_dim(as_point(x))
        nearest = np.clip(x, self.lo, self.hi)
        return float(np.linalg.norm(x - nearest))

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


CompactSetSpec = CompactSet  # alias used in signatures


def set_from_json(obj: dict) -> CompactSet:
    kind = obj.get("type")
    if kind == "point":
        return SinglePoint(obj["coords"])
    if kind == "cloud":
        return PointCloud(obj["points"])
    if kind == "ball":
        return ClosedBall(obj["center"], obj["radius"])
    if kind == "box":
        return Box(obj["lo"], obj["hi"])
    raise ValueError(f"unknown set type {kind!r}")


class FiniteSetApprox:
    """Finite stand-in for a set produced by sampling or estimation."""

    def __init__(self, points, meta: str = ""):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("finite set approximation needs a nonempty (k, n) array")
        self.points = pts
        self.meta = meta

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self):
        return self.points.shape[0]

    def __repr__(self):
        return f"FiniteSetApprox(<{len(self)} points in R^{self.dim}>, meta={self.meta!r})"


class ShellLocation(str, Enum):
    INSIDE_OPEN = "inside_open"
    ON_SHELL = "on_shell"
    OUTSIDE_CLOSED = "outside_closed"


def distance_to_set(x, M: CompactSet) -> float:
    """Euclidean distance from a point to the set, inf over members."""
    return M.distance(x)


def shell_classify(x, M: CompactSet, r: float, tol: float) -> ShellLocation:
    """Place a point relative to the distance-r shell around the set."""
    if r < 0:
        raise ValueError("shell radius must be >= 0")
    if tol <= 0:
        raise ValueError("classification tolerance must be > 0")
    d = M.distance(x)
    if abs(d - r) <= tol:
        return ShellLocation.ON_SHELL
    if d < r - tol:
        return ShellLocation.INSIDE_OPEN
    return ShellLocation.OUTSIDE_CLOSED


def _shell_point(M: CompactSet, r: float, rng: np.random.Generator) -> np.ndarray:
    """One point at distance r from the set, bisected to 1e-12 relative."""
    target_tol = 1e-12 * max(1.0, r)
    u = rng.standard_normal(M.dim)
    u /= np.linalg.norm(u)
    base = M.sample_points(4, rng)
    base = base[rng.integers(0, base.shape[0])]

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


def sample_shell(M: CompactSet, r: float, count: int, seed: int) -> FiniteSetApprox:
    """Sample `count` points of the shell {x : d(x, M) = r}, deterministically.

    Points are drawn by shooting seeded random rays out of the set and
    bisecting along each ray until the distance matches r.
    """
    if r <= 0:
        raise ValueError("shell sampling needs r > 0")
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    pts = np.asarray([_shell_point(M, r, rng) for _ in range(count)])
    return FiniteSetApprox(pts, meta=f"shell r={r!r} count={count} seed={seed}")


def sample_set_points(M: CompactSet, count: int, seed: int) -> FiniteSetApprox:
    """Sample members (and boundary, where meaningful) of the set itself."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    return FiniteSetApprox(M.sample_points(count, rng), meta=f"members of {M!r}")


def _as_points(A) -> np.ndarray:
    pts = A.points if isinstance(A, FiniteSetApprox) else np.asarray(A, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("hausdorff needs nonempty point sets")
    return pts


def _directed_hausdorff(A: np.ndarray, B: np.ndarray) -> float:
    worst = 0.0
    rows = max(1, _CHUNK_ENTRIES // max(1, B.shape[0]))
    for start in range(0, A.shape[0], rows):
        chunk = A[start : start + rows]
        diff = chunk[:, None, :] - B[None, :, :]
        nearest = np.sqrt((diff * diff).sum(-1)).min(axis=1)
        worst = max(worst, float(nearest.max()))
    return worst


def hausdorff(A, B) -> float:
    """Hausdorff distance between two finite point sets."""
    pa, pb = _as_points(A), _as_points(B)
    if pa.shape[1] != pb.shape[1]:
        raise DimensionMismatchError("hausdorff operands differ in dimension")
    return max(_directed_hausdorff(pa, pb), _directed_hausdorff(pb, pa))
