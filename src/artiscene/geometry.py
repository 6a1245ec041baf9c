"""Foundational 3D math: rotations, rigid transforms, oriented boxes, point clouds.

All angles are radians and all lengths meters. Direction vectors (joint axes,
pull directions) are expected unit-norm. Values are treated as immutable once
constructed and are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateGeometryError

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

UNIT_TOL = 1e-9
INLIER_TOL = 0.008  # distance from a consensus plane that counts as on it, meters


def as_vec3(v) -> np.ndarray:
    """Convert to a float64 (3,) array."""
    return np.asarray(v, dtype=float).reshape(3)


def unit(v) -> np.ndarray:
    """Normalize a vector; raises on near-zero input."""
    a = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(a))
    if n < 1e-12:
        raise ValueError("cannot normalize a near-zero vector")
    return a / n


def require_unit(v, name: str = "axis") -> np.ndarray:
    a = as_vec3(v)
    if abs(float(np.linalg.norm(a)) - 1.0) > UNIT_TOL:
        raise ValueError(f"{name} must be unit-norm (within {UNIT_TOL})")
    return a


def skew(v) -> np.ndarray:
    """Skew-symmetric matrix [v]_x with [v]_x p = v x p."""
    x, y, z = as_vec3(v)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rodrigues_rotation(axis, angle: float) -> np.ndarray:
    """Rotation matrix about a unit axis: I + sin(a)[u]x + (1-cos(a))[u]x^2."""
    u = require_unit(axis)
    k = skew(u)
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def rotation_axis_angle(rot: np.ndarray) -> tuple[np.ndarray, float]:
    """Extract (axis, angle) with angle in [0, pi] from a rotation matrix.

    The axis sign is chosen so the rotation is +angle about it. For angle ~ 0
    the axis is arbitrary (returns +z). Angles within ~1e-6 of pi resolve the
    axis from the symmetric part but the sign stays ambiguous by nature.
    """
    tr = float(np.trace(rot))
    c = min(1.0, max(-1.0, (tr - 1.0) / 2.0))
    angle = float(np.arccos(c))
    if angle < 1e-12:
        return np.array([0.0, 0.0, 1.0]), 0.0
    if np.pi - angle < 1e-6:
        # R ~ 2 uu^T - I near 180 degrees
        m = (rot + np.eye(3)) / 2.0
        i = int(np.argmax(np.diag(m)))
        ax = m[:, i] / np.sqrt(max(m[i, i], 1e-18))
        return unit(ax), angle
    ax = np.array([rot[2, 1] - rot[1, 2], rot[0, 2] - rot[2, 0], rot[1, 0] - rot[0, 1]])
    return ax / (2.0 * np.sin(angle)), angle


@dataclass(frozen=True)
class RigidTransform:
    """Proper rigid transform x -> R x + t; the program derives every one, unchecked."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float).reshape(3, 3))
        object.__setattr__(self, "translation", as_vec3(self.translation))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Apply to one point (3,) or a stack (N, 3)."""
        p = np.asarray(points, dtype=float)
        if p.ndim == 1:
            return self.rotation @ p + self.translation
        return p @ self.rotation.T + self.translation

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -rt @ self.translation)


@dataclass(frozen=True)
class OrientedBox:
    """Box given by center, positive half extents and a proper orthonormal
    orientation; only boxes read from a scene file are checked (scene._box_from_json)."""

    center: np.ndarray
    half_extents: np.ndarray
    orientation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", as_vec3(self.center))
        object.__setattr__(self, "half_extents", as_vec3(self.half_extents))
        object.__setattr__(self, "orientation",
                           np.asarray(self.orientation, dtype=float).reshape(3, 3))

    def inflated(self, margin: float) -> "OrientedBox":
        return OrientedBox(self.center, self.half_extents + margin, self.orientation)

    def corners(self) -> np.ndarray:
        """All 8 corners, (8, 3)."""
        signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)], dtype=float)
        return self.center + (signs * self.half_extents) @ self.orientation.T

    def transformed(self, t: RigidTransform) -> "OrientedBox":
        return OrientedBox(t.apply(self.center), self.half_extents, t.rotation @ self.orientation)

    def contains(self, point) -> bool:
        local = self.orientation.T @ (as_vec3(point) - self.center)
        return bool(np.all(np.abs(local) <= self.half_extents))

    def distance_to_point(self, point) -> float:
        """Euclidean distance from a point to the box (0 if inside)."""
        local = self.orientation.T @ (as_vec3(point) - self.center)
        outside = np.maximum(np.abs(local) - self.half_extents, 0.0)
        return float(np.linalg.norm(outside))

    def footprint(self) -> np.ndarray:
        """Convex hull of the xy-projected corners, counterclockwise, (M, 2).

        Computed once and kept read-only in memo."""
        hull = self.memo.get("footprint")
        if hull is None:
            hull = _convex_hull_2d(self.corners()[:, :2])
            hull.flags.writeable = False
            self.memo["footprint"] = hull
        return hull

    @cached_property
    def memo(self) -> dict:
        """Values derived from this box (e.g. rasterized footprints), kept
        for the box's lifetime."""
        return {}


def _convex_hull_2d(points: np.ndarray) -> np.ndarray:
    """Andrew monotone chain over a small point set."""
    pts = sorted({(float(x), float(y)) for x, y in points})
    if len(pts) <= 2:
        return np.asarray(pts, dtype=float)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.asarray(lower[:-1] + upper[:-1], dtype=float)


def _box_arrays(boxes: list, margin: float):
    """Stacked centers, half extents inflated by the margin, and orientations."""
    return (np.array([b.center for b in boxes]),
            np.array([b.half_extents for b in boxes]) + margin,
            np.array([b.orientation for b in boxes]))


def obb_overlaps(first, second, margin: float) -> np.ndarray:
    """Separating-axis overlap test, with every box inflated by the margin,
    for every a in first and b in second, as a (len(first), len(second))
    bool array computed in one array pass.

    The 15 candidate axes are each box's 3 axes and their 9 cross products;
    a cross product with norm <= 1e-12 (parallel axes) is skipped. A pair
    overlaps when no axis separates it; touching counts as overlap.
    """
    if margin < 0.0:
        raise ValueError("margin must be >= 0")
    first, second = list(first), list(second)
    n, m = len(first), len(second)
    if n == 0 or m == 0:
        return np.zeros((n, m), dtype=bool)
    ca, ha, ra = _box_arrays(first, margin)
    cb, hb, rb = _box_arrays(second, margin)
    ra, rb = ra[:, None], rb[None, :]                     # (n, 1, 3, 3), (1, m, 3, 3)
    fa = np.broadcast_to(ra.swapaxes(-1, -2), (n, m, 3, 3))  # rows: box axes
    fb = np.broadcast_to(rb.swapaxes(-1, -2), (n, m, 3, 3))
    # each axis of a crossed with each of b, by np.cross's own formulas
    a, b = np.moveaxis(fa[:, :, :, None], -1, 0), np.moveaxis(fb[:, :, None, :], -1, 0)
    cross = np.stack([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                      a[0] * b[1] - a[1] * b[0]], axis=-1).reshape(n, m, 9, 3)
    norm = np.linalg.norm(cross, axis=-1)
    kept = norm > 1e-12
    cross /= np.where(kept, norm, 1.0)[..., None]
    axes = np.concatenate([fa, fb, cross], axis=2)        # (n, m, 15, 3)
    rad_a = np.abs(axes @ ra) @ ha[:, None, :, None]
    rad_b = np.abs(axes @ rb) @ hb[None, :, :, None]
    d = (cb[None] - ca[:, None])[..., None]
    sep = (np.abs(axes @ d) - (rad_a + rad_b))[..., 0]
    sep[..., 6:][~kept] = -np.inf                         # skipped axes separate nothing
    return sep.max(axis=-1) <= 0.0


def kd_tree(points) -> cKDTree:
    """KD-tree over (n, 3) points. scipy.spatial is imported on the first tree, so
    a process that never queries neighbours (planning) starts with numpy alone."""
    from scipy.spatial import cKDTree
    return cKDTree(points)


@dataclass(frozen=True)
class PointCloud:
    """Set of 3D points."""

    points: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float).reshape(-1, 3)
        object.__setattr__(self, "points", p)

    def __len__(self) -> int:
        return int(self.points.shape[0])

    def subset(self, mask) -> "PointCloud":
        return PointCloud(self.points[np.asarray(mask)])

    @cached_property
    def kdtree(self) -> cKDTree:
        """KD-tree over the points, built on first use."""
        return kd_tree(self.points)


def save_xyz(cloud: PointCloud, path) -> None:
    """Write one whitespace-separated point per line (np.savetxt's fmt="%.9g" bytes)."""
    with open(path, "w") as f:
        f.write(("%.9g %.9g %.9g\n" * len(cloud)) % tuple(cloud.points.ravel().tolist()))


def load_xyz(path) -> PointCloud:
    pts = np.loadtxt(path, dtype=float)
    if pts.size == 0:
        raise ValueError(f"empty point cloud file: {path}")
    return PointCloud(pts.reshape(-1, 3))


def plane_normal(points: np.ndarray, viewpoint=None) -> np.ndarray:
    """Dominant plane normal of a point set (smallest PCA axis).

    Raises DegenerateGeometryError when the set does not span a plane.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if pts.shape[0] < 3:
        raise DegenerateGeometryError("need at least 3 points for a plane fit")
    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered
    eigvals, eigvecs = np.linalg.eigh(cov)
    if eigvals[1] <= 1e-12 * max(eigvals[2], 1e-300):
        raise DegenerateGeometryError("points are collinear; plane normal undefined")
    n = eigvecs[:, 0]
    if viewpoint is not None and float(n @ (as_vec3(viewpoint) - pts.mean(axis=0))) < 0.0:
        n = -n
    return n / np.linalg.norm(n)


def consensus_plane_normal(points: np.ndarray, viewpoint=None, min_points: int = 6,
                           tree: cKDTree | None = None) -> np.ndarray:
    """Plane normal of the dominant surface in a mixed neighborhood.

    A neighborhood at a part edge is often bimodal (a front face plus a
    perpendicular edge strip or a nearby static surface), which wrecks a
    single least-squares fit. Micro-planes fitted around spread anchor points
    vote by inlier count (points within INLIER_TOL of the plane) and the
    consensus surface is refit over its inliers. Deterministic: anchors are
    every k-th point, no sampling. tree, when given, is a KD-tree over the
    same points and is queried instead of a new one.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    n = pts.shape[0]
    if n < 3:
        return plane_normal(pts, viewpoint=viewpoint)  # raises
    anchors = np.arange(0, n, max(1, n // 12))
    _, idx = (kd_tree(pts) if tree is None else tree).query(pts[anchors], k=min(9, n))
    local = pts[idx]
    mean = local.mean(axis=1)
    centered = local - mean[:, None]
    eigvals, eigvecs = np.linalg.eigh(centered.transpose(0, 2, 1) @ centered)
    # the per-anchor plane_normal fit, stacked: its degeneracy test and normal
    planar = ~(eigvals[:, 1] <= 1e-12 * np.maximum(eigvals[:, 2], 1e-300))
    cand = eigvecs[:, :, 0] / np.linalg.norm(eigvecs[:, :, 0], axis=1, keepdims=True)
    inliers = np.abs((pts - mean[:, None]) @ cand[:, :, None])[:, :, 0] <= INLIER_TOL
    counts = np.where(planar, inliers.sum(axis=1), 0)
    best = int(np.argmax(counts))  # the first anchor with the most inliers
    if counts[best] < max(min_points, 3):
        return plane_normal(pts, viewpoint=viewpoint)
    return plane_normal(pts[inliers[best]], viewpoint=viewpoint)


def fit_rigid_transform(src: PointCloud, dst: PointCloud) -> RigidTransform:
    """Least-squares rigid alignment src -> dst (point i <-> point i).

    Minimizes sum ||R s_i + t - d_i||^2 via the SVD of the cross-covariance,
    with the reflection corrected to a proper rotation.
    """
    a = src.points
    b = dst.points
    if a.shape != b.shape:
        raise ValueError("source and destination must have equal point counts")
    if a.shape[0] < 3:
        raise ValueError("need at least 3 correspondences")
    wn = np.ones(a.shape[0]) / a.shape[0]
    ca = wn @ a
    cb = wn @ b
    aa = a - ca
    bb = b - cb
    h = (aa * wn[:, None]).T @ bb
    u, s, vt = np.linalg.svd(h)
    if s[1] <= 1e-12 * max(s[0], 1e-300):
        raise DegenerateGeometryError("correspondences are collinear; rotation unconstrained")
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return RigidTransform(rot, cb - rot @ ca)


def erode_isolated(cloud: PointCloud, mask: np.ndarray) -> np.ndarray:
    """Drop marked points whose own-cloud neighborhoods are mostly unmarked.

    Lone marked points (sensor dropout, crop-boundary flicker) carry large
    lever arms into downstream fits; a genuinely moved region supports its
    members. A marked point stays if at least 3 of its 6 nearest other points are.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any() or len(cloud) < 8:
        return mask
    _, idx = cloud.kdtree.query(cloud.points[mask], k=7)
    support = mask[idx[:, 1:]].sum(axis=1)
    out = np.zeros_like(mask)
    out[np.flatnonzero(mask)[support >= 3]] = True
    return out

