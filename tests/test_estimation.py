import math

import numpy as np
import pytest

from artiscene import estimation, geometry
from artiscene.errors import EstimationFailedError, SegmentationFailedError
from artiscene.estimation import (EstimatedArticulation,
                                  articulation_errors, estimate_record,
                                  estimated_part, fit_screw, obb_from_points,
                                  segment_mobile_part)
from artiscene.exploration import OBSERVATION_RADIUS
from artiscene.geometry import PointCloud, rodrigues_rotation
from artiscene.scene import JointModel, handle_at
from artiscene.sim import EYE_HEIGHT, Observation, SimConfig, render_observation
from shipped import load


def rand_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def screw_apply(points, axis, pivot, angle):
    rot = rodrigues_rotation(axis, angle)
    return (points - pivot) @ rot.T + pivot


def slab_points(rng, n=600):
    """Door-front-like slab: 0.5 x 0.7 plane patch with a little thickness."""
    return np.column_stack([rng.uniform(0.0, 0.5, n), rng.uniform(-0.01, 0.01, n),
                            rng.uniform(0.0, 0.7, n)])


def line_distance(p1, u1, p2, u2):
    w = np.asarray(p2, float) - np.asarray(p1, float)
    c = np.cross(u1, u2)
    n = np.linalg.norm(c)
    if n < 1e-9:
        return np.linalg.norm(w - (w @ u1) * u1)
    return abs(float(w @ c)) / n


# --- fit_screw ---------------------------------------------------------------

def test_fit_screw_pure_translation():
    rng = np.random.default_rng(0)
    pts = slab_points(rng)
    moved = pts + np.array([0.12, 0.0, 0.0])
    fit = fit_screw(PointCloud(pts), PointCloud(moved))
    assert fit.kind == "prismatic"
    assert np.allclose(fit.axis, [1.0, 0.0, 0.0], atol=1e-9)
    assert fit.observed_delta == pytest.approx(0.12, abs=1e-9)


def test_fit_screw_revolute_hand_example():
    rng = np.random.default_rng(1)
    pts = slab_points(rng) + np.array([0.3, 0.0, 0.0])
    axis = np.array([0.0, 0.0, 1.0])
    pivot = np.array([0.5, 0.2, 0.0])
    moved = screw_apply(pts, axis, pivot, math.radians(40.0))
    fit = fit_screw(PointCloud(pts), PointCloud(moved))
    assert fit.kind == "revolute"
    assert abs(abs(float(fit.axis @ axis)) - 1.0) < 1e-9
    assert line_distance(fit.pivot, fit.axis, pivot, axis) < 1e-6
    assert fit.observed_delta == pytest.approx(math.radians(40.0), abs=1e-9)


def test_fit_screw_noiseless_random_joints():
    rng = np.random.default_rng(2)
    for _ in range(40):
        pts = rng.uniform(-0.3, 0.3, size=(300, 3))
        if rng.random() < 0.5:
            axis = rand_unit(rng)
            pivot = rng.uniform(-0.5, 0.5, size=3)
            angle = rng.uniform(math.radians(10.0), math.radians(170.0))
            moved = screw_apply(pts, axis, pivot, angle)
            fit = fit_screw(PointCloud(pts), PointCloud(moved))
            assert fit.kind == "revolute"
            assert math.acos(min(1.0, abs(float(fit.axis @ axis)))) < 1e-6
            assert line_distance(fit.pivot, fit.axis, pivot, axis) < 1e-6
            assert abs(fit.observed_delta - angle) < 1e-6
        else:
            axis = rand_unit(rng)
            delta = rng.uniform(0.001, 0.3)
            moved = pts + delta * axis
            fit = fit_screw(PointCloud(pts), PointCloud(moved))
            assert fit.kind == "prismatic"
            assert math.acos(min(1.0, abs(float(fit.axis @ axis)))) < 1e-6
            assert abs(fit.observed_delta - delta) < 1e-9


def test_fit_screw_builds_one_tree_of_the_post_subset(monkeypatch):
    rng = np.random.default_rng(1)
    pts = slab_points(rng) + np.array([0.3, 0.0, 0.0])
    post = PointCloud(screw_apply(pts, np.array([0.0, 0.0, 1.0]),
                                  np.array([0.5, 0.2, 0.0]), math.radians(40.0)))
    built, built_in_geometry = [], []
    kd_tree = estimation.kd_tree

    def counting_tree(log):
        def build(data, *args, **kwargs):
            log.append(np.asarray(data).tobytes())
            return kd_tree(data, *args, **kwargs)
        return build

    monkeypatch.setattr(estimation, "kd_tree", counting_tree(built))
    monkeypatch.setattr(geometry, "kd_tree", counting_tree(built_in_geometry))
    fit = fit_screw(PointCloud(pts), post)
    assert fit.kind == "revolute"
    # the candidate ranking, its plane normal of the post subset and the
    # refinement all query the cloud's own tree, built once
    assert "kdtree" in vars(post) and post.points.tobytes() not in built
    assert built_in_geometry.count(post.points.tobytes()) == 1


def test_fit_screw_sign_convention():
    # the returned axis makes the observed motion a positive rotation
    rng = np.random.default_rng(3)
    pts = slab_points(rng)
    axis = np.array([0.0, 0.0, -1.0])
    pivot = np.array([0.0, 0.0, 0.0])
    moved = screw_apply(pts, axis, pivot, math.radians(30.0))
    fit = fit_screw(PointCloud(pts), PointCloud(moved))
    assert fit.observed_delta > 0
    assert float(fit.axis @ axis) > 0.999


def test_fit_screw_near_180_rejected():
    rng = np.random.default_rng(4)
    pts = slab_points(rng)
    moved = screw_apply(pts, np.array([0.0, 0.0, 1.0]), np.zeros(3),
                        math.radians(179.0))
    with pytest.raises(EstimationFailedError):
        fit_screw(PointCloud(pts), PointCloud(moved))


def test_fit_screw_no_motion_rejected():
    rng = np.random.default_rng(5)
    pts = slab_points(rng)
    with pytest.raises(EstimationFailedError):
        fit_screw(PointCloud(pts), PointCloud(pts.copy()))


def test_fit_screw_too_few_points():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(10, 3))
    with pytest.raises(ValueError):
        fit_screw(PointCloud(pts), PointCloud(pts + 0.1))


# --- segmentation ------------------------------------------------------------

def two_part_observation(rng, drawer_delta=0.0, n_static=700, viewpoint=(0.6, -1.5, 0.5)):
    """A moving drawer front beside a static partner front, over a wall."""
    wall = np.column_stack([rng.uniform(-0.2, 1.4, n_static),
                            np.full(n_static, 0.05),
                            rng.uniform(0.0, 1.0, n_static)])
    drawer = np.column_stack([rng.uniform(0.0, 0.45, 220), np.zeros(220),
                              rng.uniform(0.3, 0.55, 220)])
    partner = np.column_stack([rng.uniform(0.75, 1.2, 220), np.zeros(220),
                               rng.uniform(0.3, 0.55, 220)])
    drawer = drawer + np.array([0.0, -drawer_delta, 0.0])
    pts = np.vstack([wall, drawer, partner])
    labels = np.array([0] * n_static + [1] * 220 + [2] * 220)
    hotspot = np.array([0.225, -drawer_delta, 0.42])
    return Observation(PointCloud(pts), hotspot, viewpoint), labels


def test_segmentation_selects_moved_drawer_only():
    rng = np.random.default_rng(7)
    pre, labels = two_part_observation(rng)
    post, _ = two_part_observation(np.random.default_rng(7), drawer_delta=0.10)
    mask = segment_mobile_part(pre, post)
    assert mask.sum() >= 30
    assert set(labels[mask]) == {1}          # drawer points only
    assert (labels[mask] == 1).sum() >= 200  # nearly all of the drawer


def test_segmentation_no_motion_fails():
    rng = np.random.default_rng(8)
    pre, _ = two_part_observation(rng)
    post, _ = two_part_observation(np.random.default_rng(8))
    with pytest.raises(SegmentationFailedError):
        segment_mobile_part(pre, post)


def test_segmentation_seeds_within_the_heatmap_radius_of_the_pre_hotspot():
    # a candidate seeds the region grow when exp(-d^2 / (2 HEATMAP_SIGMA^2))
    # > 0.1, that is within HEATMAP_SIGMA * sqrt(2 ln 10) of the pre hotspot
    radius = estimation.HEATMAP_SIGMA * math.sqrt(2.0 * math.log(10.0))
    pre, labels = two_part_observation(np.random.default_rng(7))
    post, _ = two_part_observation(np.random.default_rng(7), drawer_delta=0.10)
    drawer = pre.cloud.points[labels == 1]
    x, _, z = drawer[np.argmin(drawer[:, 0])]  # the drawer's western edge
    near = Observation(pre.cloud, (x - (radius - 0.03), 0.0, z), pre.viewpoint)
    assert np.array_equal(segment_mobile_part(near, post), segment_mobile_part(pre, post))
    far = Observation(pre.cloud, (x - (radius + 0.01), 0.0, z), pre.viewpoint)
    with pytest.raises(SegmentationFailedError, match="only 0 mobile points"):
        segment_mobile_part(far, post)


def test_segmentation_candidates_monotone_in_tau():
    rng = np.random.default_rng(9)
    pre, _ = two_part_observation(rng)
    post, _ = two_part_observation(np.random.default_rng(9), drawer_delta=0.10)
    from scipy.spatial import cKDTree

    d, _ = cKDTree(post.cloud.points).query(pre.cloud.points)
    prev = None
    for tau in (0.01, 0.02, 0.04, 0.08):
        cands = d > tau
        if prev is not None:
            assert np.all(cands <= prev)  # larger tau never adds candidates
        prev = cands


def per_point_region_grow(points, candidates, seeds, radius):
    """Region growing with one ball query per popped candidate."""
    cand_idx = np.flatnonzero(candidates)
    cand_pts = points[cand_idx]
    tree = geometry.kd_tree(cand_pts)
    visited = seeds[cand_idx].copy()
    stack = list(np.flatnonzero(visited))
    while stack:
        for j in tree.query_ball_point(cand_pts[stack.pop()], radius):
            if not visited[j]:
                visited[j] = True
                stack.append(j)
    mask = np.zeros(points.shape[0], dtype=bool)
    mask[cand_idx[visited]] = True
    return mask


@pytest.mark.parametrize("seed", range(6))
def test_region_grow_equals_per_point_flood(seed):
    # one batched neighbour query floods the same regions as a query per point
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 1.0, size=(rng.integers(50, 800), 3))
    candidates = rng.random(len(points)) < rng.uniform(0.3, 1.0)
    seeds = candidates & (rng.random(len(points)) < 0.02)
    for radius in (0.03, 0.08, 0.15):
        mask = estimation._region_grow(points, candidates, seeds, radius)
        assert np.array_equal(mask, per_point_region_grow(points, candidates, seeds, radius))
        assert not np.any(mask & ~candidates) and np.all(mask[seeds])
    assert not estimation._region_grow(points, candidates, seeds & False, 0.08).any()


# --- error metrics -----------------------------------------------------------

def revolute_est(axis, pivot):
    return EstimatedArticulation("p", "revolute", np.asarray(axis, float),
                                 np.asarray(pivot, float), 0.5, None)


def test_errors_zero_for_exact_estimate():
    truth = JointModel("revolute", (0, 0, 1.0), (0, 0, 0), 0.0, 2.0)
    err = articulation_errors(revolute_est((0, 0, 1.0), (0, 0, 0)), truth)
    assert err.kind_match
    assert err.angle_err_deg == pytest.approx(0.0, abs=1e-12)
    assert err.trans_err_m == pytest.approx(0.0, abs=1e-12)


def test_errors_orthogonal_axes():
    truth = JointModel("revolute", (0, 1.0, 0), (0, 0, 0), 0.0, 2.0)
    err = articulation_errors(revolute_est((0, 0, 1.0), (0, 0, 0)), truth)
    assert err.angle_err_deg == pytest.approx(90.0, abs=1e-9)


def test_errors_sign_invariant():
    truth = JointModel("revolute", (0, 0, 1.0), (0, 0, 0), 0.0, 2.0)
    err = articulation_errors(revolute_est((0, 0, -1.0), (0.0, 0, 0)), truth)
    assert err.angle_err_deg == pytest.approx(0.0, abs=1e-9)


def test_errors_parallel_axis_offset():
    truth = JointModel("revolute", (0, 0, 1.0), (0.0, 0, 0), 0.0, 2.0)
    err = articulation_errors(revolute_est((0, 0, 1.0), (0.08, 0, 0)), truth)
    assert err.trans_err_m == pytest.approx(0.08, abs=1e-12)


def test_errors_kind_mismatch():
    truth = JointModel("prismatic", (1.0, 0, 0), None, 0.0, 0.15)
    err = articulation_errors(revolute_est((1.0, 0, 0), (0, 0, 0)), truth)
    assert not err.kind_match
    assert err.angle_err_deg is None


# --- record-level pipeline ---------------------------------------------------

def test_estimate_record_on_synthetic_drawer():
    rng = np.random.default_rng(13)
    pre, _ = two_part_observation(rng)
    post, _ = two_part_observation(np.random.default_rng(13), drawer_delta=0.10)
    est = estimate_record("drawer", pre, post)
    assert est.kind == "prismatic"
    assert abs(float(est.axis @ [0.0, -1.0, 0.0])) > 0.999
    assert est.observed_delta == pytest.approx(0.10, abs=1e-6)
    assert est.mobile_mask.sum() >= 30


def test_estimate_record_on_rendered_kitchen_doors():
    # the pipeline's path: noisy renders of the crop sphere around the
    # closed-pose handle, with the grasped handle anchoring the alignment
    # candidates
    scene, _ = load("kitchen")
    config = SimConfig()
    closed = scene.initial_state()
    opened = 0.35
    for seed in range(3):
        for part in scene.parts:
            if part.joint.kind != "revolute":
                continue
            rng = np.random.default_rng(seed)
            viewpoint = part.handle + np.array([0.0, -0.8, 0.0])
            viewpoint[2] = EYE_HEIGHT
            crop = (part.handle, OBSERVATION_RADIUS)
            pre = render_observation(scene, closed, viewpoint, config, rng,
                                     hotspot=part.handle, crop=crop)
            post = render_observation(scene, closed.with_theta(part.id, opened),
                                      viewpoint, config, rng,
                                      hotspot=handle_at(part, opened), crop=crop)
            est = estimate_record(part.id, pre, post)
            err = articulation_errors(est, part.joint)
            assert est.kind == "revolute", (seed, part.id)
            assert err.angle_err_deg <= 1.5, (seed, part.id, err)
            assert err.trans_err_m <= 0.008, (seed, part.id, err)


def test_estimated_part_reuses_the_record_masks(monkeypatch):
    pre, _ = two_part_observation(np.random.default_rng(13))
    post, _ = two_part_observation(np.random.default_rng(13), drawer_delta=0.10)
    est = estimate_record("drawer", pre, post)

    def segment_again(*args, **kwargs):
        raise AssertionError("estimated_part segmented an observation again")

    monkeypatch.setattr(estimation, "segment_mobile_part", segment_again)
    part = estimated_part(est, pre, post)
    assert part.id == "drawer"
    assert part.joint.kind == "prismatic"


def test_obb_from_points_wraps():
    rng = np.random.default_rng(14)
    pts = np.column_stack([rng.uniform(0, 0.4, 400), rng.uniform(0, 0.02, 400),
                           rng.uniform(0, 0.6, 400)])
    box = obb_from_points(pts)
    local = (pts - box.center) @ box.orientation
    assert np.all(np.abs(local) <= box.half_extents + 1e-9)
