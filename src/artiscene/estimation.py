"""Turn pre/post observation pairs into joint models and part segmentations.

A closed-form geometric screw estimator stands in for a learned network over
the same inputs: coarse alignment candidates (PCA and dominant-plane frames,
plus contact-anchored variants) seed a trimmed refinement on mutual nearest-
neighbor pairs of the segmented mobile subsets, and the refined rigid motion
is decomposed into a rotation about an axis or a translation along one.
Observations are already in the world frame (the simulated base pose is
exact), so the recovered parameters need no registration into the scene.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationFailedError, SegmentationFailedError
from .geometry import (MOTION_TAU, DegenerateGeometryError, OrientedBox, PointCloud,
                       RigidTransform, as_vec3, consensus_plane_normal,
                       erode_isolated, fit_rigid_transform, rotation_axis_angle,
                       unit)
from .scene import PRISMATIC, REVOLUTE, JointModel, MobilePart, default_limits
from .sim import Observation

REVOLUTE_MIN_ANGLE = math.radians(5.0)
REVOLUTE_MAX_ANGLE = math.radians(175.0)
MIN_TRANSLATION = 1e-4
MIN_MOBILE_POINTS = 30
HEATMAP_SIGMA = 0.10           # contact heatmap width for segmentation, meters


@dataclass
class EstimatedArticulation:
    part_id: str
    kind: str                      # revolute | prismatic
    axis: np.ndarray               # unit; +state moves pre toward post
    pivot: np.ndarray | None
    observed_delta: float          # recovered motion between the observations
    mobile_mask: np.ndarray | None
    motion_transform: RigidTransform | None = None  # pre -> post rigid motion
    post_mask: np.ndarray | None = None  # moved part within the post cloud


@dataclass(frozen=True)
class ScrewFit:
    kind: str
    axis: np.ndarray
    pivot: np.ndarray | None
    observed_delta: float
    transform: RigidTransform


def segment_mobile_part(pre: Observation, post: Observation) -> np.ndarray:
    """Mask over the pre cloud selecting the moved part.

    Points whose nearest neighbor in the post cloud is farther than
    MOTION_TAU are motion candidates; the mask is region-grown (radius
    2 MOTION_TAU) through the candidates from the seeds, the candidates whose
    contact heatmap weight, a Gaussian of width HEATMAP_SIGMA around the pre
    hotspot, exceeds 0.1.
    """
    pts = pre.cloud.points
    if pts.shape[0] == 0 or len(post.cloud) == 0:
        raise ValueError("clouds must be non-empty")
    d, _ = post.cloud.kdtree.query(pts)
    candidates = erode_isolated(pre.cloud, d > MOTION_TAU)
    d2 = np.sum((pts - pre.hotspot) ** 2, axis=1)
    seeds = candidates & (np.exp(-d2 / (2.0 * HEATMAP_SIGMA ** 2)) > 0.1)
    mask = _region_grow(pts, candidates, seeds, 2.0 * MOTION_TAU)
    if int(mask.sum()) < MIN_MOBILE_POINTS:
        raise SegmentationFailedError(
            f"only {int(mask.sum())} mobile points (need {MIN_MOBILE_POINTS})")
    return mask


def _region_grow(points: np.ndarray, candidates: np.ndarray, seeds: np.ndarray,
                 radius: float) -> np.ndarray:
    cand_idx = np.flatnonzero(candidates)
    if cand_idx.size == 0 or not seeds.any():
        return np.zeros(points.shape[0], dtype=bool)
    cand_pts = points[cand_idx]
    neighbours = PointCloud(cand_pts).kdtree.query_ball_point(cand_pts, radius)
    seed_local = np.flatnonzero(seeds[cand_idx])
    visited = np.zeros(cand_idx.size, dtype=bool)
    stack = list(seed_local)
    visited[seed_local] = True
    while stack:
        for j in neighbours[stack.pop()]:
            if not visited[j]:
                visited[j] = True
                stack.append(j)
    mask = np.zeros(points.shape[0], dtype=bool)
    mask[cand_idx[visited]] = True
    return mask


def _pca_frame(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = points.mean(axis=0)
    centered = points - c
    _, vecs = np.linalg.eigh(centered.T @ centered)
    if np.linalg.det(vecs) < 0.0:
        vecs = vecs.copy()
        vecs[:, 0] = -vecs[:, 0]
    return c, vecs


def _rotation_angle(rot: np.ndarray) -> float:
    return math.acos(min(1.0, max(-1.0, (float(np.trace(rot)) - 1.0) / 2.0)))


def _plane_frame(normal: np.ndarray) -> np.ndarray:
    """Right-handed frame [n, v, n x v] with v the in-plane vertical."""
    z = np.array([0.0, 0.0, 1.0])
    v = z - float(z @ normal) * normal
    if np.linalg.norm(v) < 1e-6:
        x = np.array([1.0, 0.0, 0.0])
        v = x - float(x @ normal) * normal
    v = v / np.linalg.norm(v)
    return np.column_stack([normal, v, np.cross(normal, v)])


def _alignment_candidates(src: PointCloud, dst: PointCloud, anchors=None) -> list:
    """Coarse alignment candidates ranked by nearest-neighbor residual.

    Combines PCA eigenframe matchings (with the proper sign combinations),
    dominant-plane frames referenced to the world vertical (robust for the
    thin near-vertical panels this pipeline sees), and anchored translation
    variants when the grasped contact point is known in both observations.
    Near-ties resolve toward the smaller rotation, the physical reading for
    articulated furniture motion. Each candidate comes with the _mutual_pairs
    it was scored on.
    """
    cs, fs = _pca_frame(src.points)
    cd, fd = _pca_frame(dst.points)
    rotations = [np.eye(3)]
    for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        d = np.diag([sx, sy, sx * sy])  # det +1
        rotations.append(fd @ d @ fs.T)
    try:
        n_s = consensus_plane_normal(src)
        n_d = consensus_plane_normal(dst)
        f_s = _plane_frame(n_s)
        for sign in (1.0, -1.0):
            rotations.append(_plane_frame(sign * n_d) @ f_s.T)
    except DegenerateGeometryError:
        pass
    candidates = [RigidTransform(rot, cd - rot @ cs) for rot in rotations]
    if anchors is not None:
        a_src, a_dst = (as_vec3(a) for a in anchors)
        candidates.extend(RigidTransform(rot, a_dst - rot @ a_src)
                          for rot in rotations)
    scored = []
    for t in candidates:
        pairs = _mutual_pairs(t.apply(src.points), dst)
        d, _, mutual = pairs
        # score on mutual pairs only: points whose twin is outside the other
        # observation window would otherwise drown out the true alignment
        score = float(d[mutual].mean()) if mutual.any() else float(d.mean())
        scored.append((score, t, pairs))
    best_res = min(st[0] for st in scored)
    slack = max(1.05 * best_res, best_res + 1e-6)
    near = sorted((st for st in scored if st[0] <= slack),
                  key=lambda st: _rotation_angle(st[1].rotation))
    far = sorted((st for st in scored if st[0] > slack), key=lambda st: st[0])
    return [(t, pairs) for _, t, pairs in near + far]


def _mutual_pairs(src_moved: np.ndarray, dst: PointCloud):
    """Mutual nearest-neighbor pairs; points whose twin fell outside the other
    observation window pair non-mutually and drop out."""
    d_f, idx_f = dst.kdtree.query(src_moved)
    _, idx_b = PointCloud(src_moved).kdtree.query(dst.points)
    mutual = idx_b[idx_f] == np.arange(src_moved.shape[0])
    return d_f, idx_f, mutual


def _refine_mutual(src: PointCloud, dst: PointCloud, start: RigidTransform, pairs):
    """Trimmed refinement on mutual pairs from a coarse alignment, whose
    _mutual_pairs are given.

    Points whose twin fell outside the other observation window cannot
    vote on the transform. Returns (transform, inlier residual) or None.
    """
    transform = start
    inlier_res = np.inf
    for i in range(25):
        d, idx, mutual = pairs if i == 0 else _mutual_pairs(transform.apply(src.points), dst)
        if not mutual.any():
            return None
        cut = max(3.0 * float(np.median(d[mutual])), 1e-6)
        keep = mutual & (d <= cut)
        if int(keep.sum()) < 3:
            return None
        try:
            refined = fit_rigid_transform(src.subset(keep), PointCloud(dst.points[idx[keep]]))
        except DegenerateGeometryError:
            return None
        delta = np.linalg.norm(refined.rotation - transform.rotation) \
            + np.linalg.norm(refined.translation - transform.translation)
        transform = refined
        inlier_res = float(d[keep].mean())
        if delta < 1e-12:
            break
    return transform, inlier_res


def fit_screw(pre_mobile: PointCloud, post_mobile: PointCloud, anchors=None) -> ScrewFit:
    """Recover the joint that carries the pre subset onto the post subset.

    The two best-ranked coarse alignment candidates (optionally anchored on a
    known contact-point correspondence) each seed a mutual-NN trimmed
    refinement, and the lower inlier residual wins. The refined rigid
    transform is decomposed into either a rotation of angle psi >= 5 degrees
    about a recovered axis/pivot, or a translation along a unit axis.
    Rotations within 5 degrees of 180 are rejected because the axis sign is
    ambiguous there.
    """
    if len(pre_mobile) < MIN_MOBILE_POINTS or len(post_mobile) < MIN_MOBILE_POINTS:
        raise ValueError(f"segmented subsets need >= {MIN_MOBILE_POINTS} points")
    best = None
    for start, pairs in _alignment_candidates(pre_mobile, post_mobile, anchors)[:2]:
        refined = _refine_mutual(pre_mobile, post_mobile, start, pairs)
        if refined is not None and (best is None or refined[1] < best[1]):
            best = refined
        if best is not None and best[1] < 1e-6:
            break
    if best is None:
        raise EstimationFailedError("correspondence search failed on every start")
    transform = best[0]

    axis, psi = rotation_axis_angle(transform.rotation)
    if psi >= REVOLUTE_MAX_ANGLE:
        raise EstimationFailedError("rotation too close to 180 degrees; axis sign ambiguous")
    centroid = pre_mobile.points.mean(axis=0)
    if psi >= REVOLUTE_MIN_ANGLE:
        pivot = _fixed_point(transform, axis, psi, centroid)
        return ScrewFit(REVOLUTE, axis, pivot, psi, transform)
    # below the revolute threshold the motion is read as a translation; measure
    # it at the subset centroid so a residual micro-rotation times the scene
    # coordinate lever arm cannot corrupt the direction
    delta_vec = transform.apply(centroid) - centroid
    tnorm = float(np.linalg.norm(delta_vec))
    if tnorm < MIN_TRANSLATION:
        raise EstimationFailedError("no detectable motion between the subsets")
    return ScrewFit(PRISMATIC, delta_vec / tnorm, None, tnorm, transform)


def _fixed_point(transform: RigidTransform, axis: np.ndarray, psi: float,
                 centroid: np.ndarray) -> np.ndarray:
    """Pivot of a rotation: solve (I - R) q = t in the plane normal to the axis.

    The axis-parallel coordinate is pinned to the centroid's projection so the
    output is deterministic (any point on the line is equivalent).
    """
    e1 = unit(np.cross(axis, [1.0, 0.0, 0.0])
              if abs(axis[0]) < 0.9 else np.cross(axis, [0.0, 1.0, 0.0]))
    e2 = np.cross(axis, e1)
    basis = np.column_stack([e1, e2])
    r2 = basis.T @ transform.rotation @ basis
    t2 = basis.T @ transform.translation
    q2 = np.linalg.solve(np.eye(2) - r2, t2)
    return basis @ q2 + axis * float(axis @ centroid)


@dataclass(frozen=True)
class ArticulationErrors:
    kind_match: bool
    angle_err_deg: float | None
    trans_err_m: float | None


def articulation_errors(est: EstimatedArticulation, truth: JointModel) -> ArticulationErrors:
    """Axis orientation error (sign-invariant) and, for revolute joints, the
    minimum distance between the estimated and true axis lines."""
    if est.kind != truth.kind:
        return ArticulationErrors(False, None, None)
    dot = abs(float(np.clip(est.axis @ truth.axis, -1.0, 1.0)))
    angle_err = math.degrees(math.acos(dot))
    if truth.kind != REVOLUTE:
        return ArticulationErrors(True, angle_err, None)
    trans_err = _line_distance(est.pivot, est.axis, truth.pivot, truth.axis)
    return ArticulationErrors(True, angle_err, trans_err)


def _line_distance(p1, u1, p2, u2) -> float:
    w = as_vec3(p2) - as_vec3(p1)
    c = np.cross(u1, u2)
    n = float(np.linalg.norm(c))
    if n < 1e-9:  # parallel lines
        return float(np.linalg.norm(w - (w @ u1) * u1))
    return abs(float(w @ c)) / n


def estimate_record(part_id: str, pre: Observation, post: Observation) -> EstimatedArticulation:
    """Full object-level estimation for one observation pair."""
    pre_mask = segment_mobile_part(pre, post)
    post_mask = segment_mobile_part(post, pre)
    fit = fit_screw(pre.cloud.subset(pre_mask), post.cloud.subset(post_mask),
                    anchors=(pre.hotspot, post.hotspot))
    return EstimatedArticulation(
        part_id=part_id, kind=fit.kind, axis=fit.axis, pivot=fit.pivot,
        observed_delta=fit.observed_delta, mobile_mask=pre_mask,
        motion_transform=fit.transform, post_mask=post_mask)


def obb_from_points(points: np.ndarray) -> OrientedBox:
    """PCA-oriented bounding box of a point set; every half extent is at least 5 mm."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    c, frame = _pca_frame(pts)
    local = (pts - c) @ frame
    lo = local.min(axis=0)
    hi = local.max(axis=0)
    half = np.maximum((hi - lo) / 2.0, 0.005)
    center = c + frame @ ((hi + lo) / 2.0)
    return OrientedBox(center, half, frame)


def estimated_part(est: EstimatedArticulation, pre: Observation,
                   post: Observation) -> MobilePart:
    """Loadable mobile part from an estimate made by estimate_record.

    The shape is a PCA box over the mobile points of the pre observation,
    unioned with those of the post observation mapped back to the pre pose by
    the recovered motion, since the two views cover different windows of the
    part. Limits default per kind; the pre hotspot is the handle.
    """
    back = est.motion_transform.inverse()
    points = np.vstack([pre.cloud.points[est.mobile_mask],
                        back.apply(post.cloud.points[est.post_mask])])
    if est.kind == REVOLUTE:
        # a revolute panel is attached at its hinge: extend the geometry to the
        # axis line so the box covers the unobserved near-hinge portion
        rel = points - est.pivot
        feet = est.pivot + np.outer(rel @ est.axis, est.axis)
        points = np.vstack([points, feet])
    shape = obb_from_points(points)
    lo, hi = default_limits(est.kind)
    joint = JointModel(est.kind, est.axis,
                       est.pivot if est.kind == REVOLUTE else None, lo, hi)
    return MobilePart(est.part_id, shape, joint, pre.hotspot)
