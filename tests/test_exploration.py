import math
import sys
import weakref
from collections import Counter

import numpy as np
import pytest

from artiscene import estimation, exploration, geometry, scene as scene_module, sim
from artiscene.cli import main
from artiscene.errors import NoActionError, RepositionFailedError
from artiscene.exploration import (FAILURE_THRESHOLD, PRISMATIC_KIND, REVOLUTE_LEFT,
                                   REVOLUTE_RIGHT, UNKNOWN, Handle,
                                   _compliance_action, classify_joint,
                                   detect_failure, explore_scene, reposition_base)
from artiscene.geometry import OrientedBox, PointCloud, rodrigues_rotation
from artiscene.scene import (KinematicScene, RobotState, SceneState,
                             StaticBaseMap, part_pose_at)
from artiscene.sim import Observation, SimConfig, nav_grid
from oracles import cloud_displacement
from shipped import SCENES, aligned_box, load


def noiseless_sim():
    return SimConfig(noise_sigma=0.0, dropout_prob=0.0)


def face_observation(rng, normal_angle=0.0, offset=(0.0, 0.0, 0.0), n=400,
                     viewpoint=(0.0, -1.5, 0.5)):
    """Vertical 0.4 x 0.6 face in the y=0 plane, rotated about +z, then offset."""
    pts = np.column_stack([rng.uniform(-0.2, 0.2, n), np.zeros(n),
                           rng.uniform(0.2, 0.8, n)])
    rot = rodrigues_rotation((0, 0, 1.0), normal_angle)
    pts = pts @ rot.T + np.asarray(offset)
    hotspot = rot @ np.array([0.15, 0.0, 0.5]) + np.asarray(offset)
    return Observation(PointCloud(pts), hotspot, viewpoint)


def test_compliance_direction_is_outward_face_normal():
    rng = np.random.default_rng(0)
    obs = face_observation(rng)
    d = _compliance_action(obs, obs.hotspot)
    angle = math.degrees(math.acos(abs(float(d @ [0, -1, 0]))))
    assert angle < 2.0
    assert d[1] < 0  # toward the viewpoint


def test_compliance_tracks_rotated_face():
    rng = np.random.default_rng(1)
    ang = math.radians(30.0)
    obs = face_observation(rng, normal_angle=ang, viewpoint=(0.5, -1.5, 0.5))
    d = _compliance_action(obs, obs.hotspot)
    expected = rodrigues_rotation((0, 0, 1.0), ang) @ np.array([0.0, -1.0, 0.0])
    angle = math.degrees(math.acos(abs(float(d @ expected))))
    assert angle < 5.0


def test_compliance_needs_local_points():
    rng = np.random.default_rng(2)
    obs = face_observation(rng)
    with pytest.raises(NoActionError):
        _compliance_action(obs, obs.hotspot + np.array([3.0, 0.0, 0.0]))


def test_detect_failure_thresholds(monkeypatch):
    rng = np.random.default_rng(3)
    still = face_observation(rng)
    assert FAILURE_THRESHOLD == 0.02
    assert detect_failure(still, still)  # no motion: failure
    moved = face_observation(rng, offset=(0.0, -0.10, 0.0))
    assert not detect_failure(still, moved)  # drawer advanced
    # boundary: displacement exactly at threshold is not a failure (strict <);
    # 0.03125 = 2^-5 keeps the chamfer mean exactly representable
    exact = face_observation(np.random.default_rng(3), offset=(0.0, -0.03125, 0.0))
    monkeypatch.setattr(exploration, "FAILURE_THRESHOLD", 0.03125)
    assert not detect_failure(still, exact)


def test_detect_failure_equals_thresholded_chamfer(monkeypatch):
    # the check decided on the pre cloud's tree alone, or on both means,
    # equals the symmetric chamfer against the threshold on every pair: at
    # thresholds on, just above and just below both the chamfer and half the
    # current cloud's mean, where the first query stops deciding
    rng = np.random.default_rng(12)
    pairs = [(face_observation(np.random.default_rng(3)),
              face_observation(np.random.default_rng(3), offset=(0.0, -0.03125, 0.0)))]
    for _ in range(12):
        n_pre, n_cur = rng.integers(50, 400, size=2)
        pre = face_observation(rng, n=n_pre)
        cur = face_observation(rng, normal_angle=rng.uniform(-0.3, 0.3),
                               offset=rng.uniform(-0.06, 0.06, 3), n=n_cur)
        pairs.append((pre, cur))
    decided = Counter()
    for pre, cur in pairs:
        chamfer = cloud_displacement(pre.cloud, cur.cloud)
        half_cur = 0.5 * float(pre.cloud.kdtree.query(cur.cloud.points)[0].mean())
        for t in (chamfer, half_cur, 0.02, 0.03125):
            for threshold in (np.nextafter(t, 0.0), t, np.nextafter(t, 1.0)):
                expected = chamfer < threshold
                fresh = (Observation(PointCloud(o.cloud.points), o.hotspot, o.viewpoint)
                         for o in (pre, cur))
                monkeypatch.setattr(exploration, "FAILURE_THRESHOLD", threshold)
                assert detect_failure(*fresh) == expected, (chamfer, threshold)
                decided["first" if half_cur >= threshold else f"second-{expected}"] += 1
    assert set(decided) == {"first", "second-True", "second-False"}


def test_a_check_decided_by_the_first_query_builds_no_current_tree(monkeypatch):
    trees = Counter()
    kd_tree = geometry.kd_tree

    def counting_tree(data, *args, **kwargs):
        trees[np.asarray(data).tobytes()] += 1
        return kd_tree(data, *args, **kwargs)

    monkeypatch.setattr(geometry, "kd_tree", counting_tree)
    rng = np.random.default_rng(4)
    pre = face_observation(rng)
    moved = face_observation(rng, offset=(0.0, -0.10, 0.0))
    still = face_observation(rng)
    assert not detect_failure(pre, moved)
    assert trees == {pre.cloud.points.tobytes(): 1}
    assert detect_failure(pre, still)  # the second mean decides: one more tree
    assert trees == {pre.cloud.points.tobytes(): 1, still.cloud.points.tobytes(): 1}


def test_classify_prismatic_translation():
    rng = np.random.default_rng(4)
    pre = face_observation(rng)
    post = face_observation(rng, offset=(0.0, -0.08, 0.0))
    assert classify_joint(pre, post) == PRISMATIC_KIND


def test_classify_revolute_left_and_right():
    rng = np.random.default_rng(5)
    pre = face_observation(rng)
    post_ccw = face_observation(rng, normal_angle=math.radians(20.0))
    assert classify_joint(pre, post_ccw) == REVOLUTE_LEFT
    post_cw = face_observation(rng, normal_angle=math.radians(-20.0))
    assert classify_joint(pre, post_cw) == REVOLUTE_RIGHT


def test_classify_small_rotation_is_prismatic():
    rng = np.random.default_rng(6)
    pre = face_observation(rng)
    post = face_observation(rng, normal_angle=math.radians(2.0),
                            offset=(0.0, -0.05, 0.0))
    assert exploration.CLASSIFY_THRESHOLD == math.radians(5.0)
    assert classify_joint(pre, post) == PRISMATIC_KIND


def test_classify_no_motion_unknown():
    rng = np.random.default_rng(7)
    pre = face_observation(rng)
    assert classify_joint(pre, pre) == UNKNOWN


def empty_grid():
    base = StaticBaseMap((), (0, 0), (4, 4))
    return nav_grid(KinematicScene(base, ()), SceneState({}))


def test_reposition_prismatic_retreats_along_pull():
    grid = empty_grid()
    robot = RobotState(base_pose=(1.8, 1.0, 0.0))
    pose = reposition_base(PRISMATIC_KIND, (2.0, 1.0, 0.6), robot, grid)
    assert pose[0] == pytest.approx(1.7, abs=0.051)
    assert pose[1] == pytest.approx(1.0, abs=0.051)


def test_reposition_revolute_moves_to_rotation_side():
    grid = empty_grid()
    robot = RobotState(base_pose=(2.0, 1.0, math.pi / 2))
    hotspot = (2.0, 2.0, 0.5)
    left = reposition_base(REVOLUTE_LEFT, hotspot, robot, grid)
    right = reposition_base(REVOLUTE_RIGHT, hotspot, robot, grid)
    # facing +y, a counterclockwise (left) part swings its handle toward +x
    assert left[0] > 2.0
    assert right[0] < 2.0
    for pose in (left, right):
        d = math.hypot(pose[0] - 2.0, pose[1] - 2.0)
        assert d == pytest.approx(0.30, abs=0.08)


def test_reposition_snaps_to_free_cell():
    scene, _ = load("kitchen")
    grid = nav_grid(scene, scene.initial_state())
    robot = RobotState(base_pose=(3.0, 2.8, math.pi / 2))
    # target 0.3 from a hotspot on the counter face is inside the inflated zone
    pose = reposition_base(PRISMATIC_KIND, (3.0, 3.37, 0.7), robot, grid)
    assert grid.is_free(pose[:2])


def test_reposition_fails_when_no_free_cell(monkeypatch):
    scene, _ = load("kitchen")
    grid = nav_grid(scene, scene.initial_state())
    robot = RobotState(base_pose=(3.0, 3.05, math.pi / 2))
    # a target deep inside the counter with a tiny snap radius cannot resolve
    monkeypatch.setattr(exploration, "SNAP_RADIUS", 0.05)
    with pytest.raises(RepositionFailedError):
        reposition_base(PRISMATIC_KIND, (3.0, 3.9, 0.7), robot, grid)


def test_explore_minimal_drawer_noiseless():
    scene, _ = load("minimal_drawer")
    result = explore_scene(scene, noiseless_sim(), robot=RobotState(), rng=np.random.default_rng(0))
    assert len(result.records) == 1
    rec = result.records[0]
    assert rec.succeeded
    assert rec.classified_kind == PRISMATIC_KIND
    assert rec.displacement >= 0.05
    assert rec.attempts_used <= 3
    # ground-truth joint parameters untouched; only the state moved
    assert scene.parts[0].joint.state == 0.0
    assert result.final_state.theta("drawer_1") > 0.1


def test_explore_succeeded_record_invariant():
    scene, _ = load("minimal_drawer")
    result = explore_scene(scene, SimConfig(), robot=RobotState(), rng=np.random.default_rng(5))
    for rec in result.records:
        # the record's displacement is the chamfer distance, to the bit
        assert rec.displacement == cloud_displacement(rec.pre.cloud, rec.post.cloud)
        if rec.succeeded:
            assert cloud_displacement(rec.pre.cloud, rec.post.cloud) \
                >= FAILURE_THRESHOLD


def test_explore_empty_space_handle_fails_out(monkeypatch):
    scene, _ = load("minimal_drawer")
    monkeypatch.setattr(exploration, "MAX_ATTEMPTS", 2)
    handles = [Handle("ghost", np.array([0.5, 0.5, 0.5]))]
    result = explore_scene(scene, noiseless_sim(), handles=handles,
                           robot=RobotState(), rng=np.random.default_rng(0))
    rec = result.records[0]
    assert not rec.succeeded
    assert rec.attempts_used == 2
    assert result.final_state.theta("drawer_1") == 0.0


def test_explore_single_attempt_on_perfect_drawer():
    # noiseless reachable prismatic joint: the first attempt must succeed
    scene, _ = load("minimal_drawer")
    result = explore_scene(scene, noiseless_sim(), robot=RobotState(), rng=np.random.default_rng(1))
    assert result.records[0].attempts_used == 1


def test_explore_step_and_attempt_budgets_respected(monkeypatch):
    scene, _ = load("minimal_drawer")
    monkeypatch.setattr(exploration, "MAX_STEPS", 7)
    monkeypatch.setattr(exploration, "MAX_ATTEMPTS", 2)
    handles = [Handle("ghost", np.array([0.5, 0.5, 0.5]))]
    result = explore_scene(scene, noiseless_sim(), handles=handles,
                           robot=RobotState(), rng=np.random.default_rng(3))
    assert result.records[0].attempts_used <= 2
    pulls = sum(1 for ev in result.events
                if ev["event"] in ("pull", "pull-failed", "pull-blocked"))
    assert pulls <= 2 * 7  # MAX_ATTEMPTS * MAX_STEPS bounds all micro-interactions


def test_final_check_logs_the_last_step(monkeypatch):
    # one 1 cm pull stays under the 2 cm failure threshold, so the check after
    # the step budget fails the attempt and logs it at step MAX_STEPS
    scene, _ = load("minimal_drawer")
    monkeypatch.setattr(exploration, "MAX_STEPS", 1)
    monkeypatch.setattr(exploration, "MAX_ATTEMPTS", 1)
    result = explore_scene(scene, noiseless_sim(), robot=RobotState(), rng=np.random.default_rng(3))
    steps = [(ev["event"], ev["step"]) for ev in result.events if "step" in ev]
    assert steps == [("pull", 1), ("failure", 1)]
    assert not result.records[0].succeeded


def test_explore_survives_a_failed_pre_observation(monkeypatch):
    # the handle's pre observation fails, the attempt's own ones do not
    calls = []
    observe = exploration._observe

    def first_fails(*args):
        calls.append(None)
        return None if len(calls) == 1 else observe(*args)

    monkeypatch.setattr(exploration, "_observe", first_fails)
    scene, _ = load("minimal_drawer")
    result = explore_scene(scene, noiseless_sim(), robot=RobotState(), rng=np.random.default_rng(0))
    rec = result.records[0]
    assert rec.pre is None and rec.post is not None
    assert not any(ev["event"] == "observe-failed" for ev in result.events)
    # without a pre observation nothing classifies: the attempt's kind stands
    assert rec.classified_kind == UNKNOWN
    assert not rec.succeeded and rec.failure_stage == "manipulation"


def test_explore_reuses_poses_footprint_masks_and_kd_trees(monkeypatch):
    """Kitchen seed 0: each (part, theta) is posed once, each distinct box is
    rasterized once into the navigation grid, and no point set gets a second
    KD-tree."""
    poses = Counter()
    thetas = {}
    rasterized = Counter()
    trees = Counter()

    def counting_pose(part, theta):
        key = (part.id, float(theta).hex())
        poses[key] += 1
        thetas[key] = theta
        return part_pose_at(part, theta)

    near_polygon = sim._near_polygon

    def counting_near_polygon(px, py, poly, radius):
        if np.ndim(px) == 2:  # a grid rasterization, not one point
            rasterized[poly.tobytes(), np.shape(px), np.shape(py), radius] += 1
        return near_polygon(px, py, poly, radius)

    kd_tree = geometry.kd_tree

    def counting_tree(data, *args, **kwargs):
        trees[np.asarray(data).tobytes()] += 1
        return kd_tree(data, *args, **kwargs)

    scene, _ = load("kitchen")
    monkeypatch.setattr(scene_module, "part_pose_at", counting_pose)
    monkeypatch.setattr(sim, "_near_polygon", counting_near_polygon)
    monkeypatch.setattr(geometry, "kd_tree", counting_tree)
    result = explore_scene(scene, SimConfig(), robot=RobotState(), rng=np.random.default_rng(0))
    assert all(r.succeeded for r in result.records)

    assert len(poses) > len(scene.parts) and max(poses.values()) == 1
    assert len(trees) > 100 and max(trees.values()) == 1
    # distinct boxes per footprint: the obstacles and every part pose
    boxes = Counter(b.footprint().tobytes() for b in scene.base.obstacles)
    for part_id, theta_hex in poses:
        part = scene.part(part_id)
        box = part.shape.transformed(part_pose_at(part, thetas[part_id, theta_hex]))
        boxes[box.footprint().tobytes()] += 1
    assert rasterized
    for (footprint, *_), count in rasterized.items():
        assert count <= boxes[footprint]


def test_explore_builds_each_crop_window_once_per_viewpoint_and_site(monkeypatch):
    """Kitchen seed 0: each box's crop window is built at most once per
    (viewpoint, site); later renders there take it from the box's memo."""
    at = {}
    renders = []
    builds = Counter()
    render = exploration.render_observation

    def locating_render(scene, state, viewpoint, config, rng, hotspot=None, crop=None):
        at["site"] = (np.asarray(viewpoint).tobytes(), np.asarray(crop[0]).tobytes())
        renders.append(at["site"])
        return render(scene, state, viewpoint, config, rng, hotspot, crop)

    window_nodes = sim._window_nodes

    def counting_window_nodes(face_idx, face_center, *args):
        # a box's visible faces name it at one viewpoint
        builds[at["site"], face_idx.tobytes(), face_center.tobytes()] += 1
        return window_nodes(face_idx, face_center, *args)

    scene, _ = load("kitchen")
    monkeypatch.setattr(exploration, "render_observation", locating_render)
    monkeypatch.setattr(sim, "_window_nodes", counting_window_nodes)
    result = explore_scene(scene, SimConfig(), robot=RobotState(), rng=np.random.default_rng(0))
    assert all(r.succeeded for r in result.records)

    n_boxes = len(scene.base.obstacles) + len(scene.parts)
    n_sites = len(set(renders))
    assert len(renders) > 100 and max(builds.values()) == 1
    # each render after a site's first builds at most the moved part's window
    assert sum(builds.values()) <= n_boxes * n_sites + len(renders) - n_sites


def test_explore_keeps_no_pending_draw():
    # the draw made ahead after the last render is dropped when the run
    # returns, so neither its generator nor a noise array outlives the run
    class Rng(np.random.Generator):  # a plain Generator takes no weak reference
        pass

    rng = Rng(np.random.PCG64(0))
    explore_scene(load("blocked_aisle")[0], SimConfig(), robot=RobotState(), rng=rng)
    gone = weakref.ref(rng)
    del rng
    assert gone() is None and sim._pending is None


def _counting(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_run_all_classifies_each_record_once_and_reuses_scored_pairs(tmp_path, monkeypatch):
    """Kitchen seed 0: a completed attempt is classified only when its record
    falls back on it, so each record classifies its pre/post pair once, and
    each refinement starts from the mutual pairs its candidate was scored on."""
    counts = Counter()
    _counting(monkeypatch, exploration, "_classify", counts)
    _counting(monkeypatch, exploration, "render_observation", counts)
    _counting(monkeypatch, estimation, "_mutual_pairs", counts)
    assert main(["run-all", "--scene", str(SCENES / "kitchen.json"),
                 "--goal", str(SCENES / "kitchen_goal.json"),
                 "--out", str(tmp_path), "--seed", "0"]) == 0
    assert counts == {"render_observation": 219, "_classify": 9, "_mutual_pairs": 186}


def test_a_deferred_classification_equals_the_completed_attempts_own(monkeypatch):
    """With every pre/post classification forced unknown, each record falls
    back on its completed attempt: the kind is classify_joint(pre, last),
    with last the attempt's final observation, as classifying it on
    completion gives."""
    observed = []
    observe = exploration._observe

    def recording_observe(*args):
        observed.append(observe(*args))
        return observed[-1]

    calls = []

    real_classify = exploration._classify

    def post_unknown_classify(pre, current, *args):
        # the record classifies its pre/post pair itself; an attempt's
        # classification goes through _maybe_classify and classify_joint
        caller = sys._getframe(1).f_code.co_name
        if caller == "classify_joint":
            caller = sys._getframe(2).f_code.co_name
        if caller in ("_explore_handle", "_maybe_classify"):
            calls.append(caller)
        return UNKNOWN if caller == "_explore_handle" else real_classify(pre, current, *args)

    scene, _ = load("kitchen")
    monkeypatch.setattr(exploration, "_observe", recording_observe)
    monkeypatch.setattr(exploration, "_classify", post_unknown_classify)
    result = explore_scene(scene, SimConfig(), robot=RobotState(), rng=np.random.default_rng(0))
    assert not any(e["event"] == "failure" for e in result.events)

    kinds = Counter()
    for record in result.records:
        last = observed[[o is record.post for o in observed].index(True) - 1]
        assert record.classified_kind == classify_joint(record.pre, last) != UNKNOWN
        kinds[record.classified_kind] += 1
    assert len(kinds) == 3  # left and right doors, drawers
    assert Counter(calls) == {"_explore_handle": 9, "_maybe_classify": 9}


def _cell_centers(scene, resolution):
    """x and y of the floor grid's cell centers."""
    lo, hi = scene.base.floor_min, scene.base.floor_max
    nx = max(1, int(math.ceil((hi[0] - lo[0]) / resolution)))
    ny = max(1, int(math.ceil((hi[1] - lo[1]) / resolution)))
    return lo[0] + (np.arange(nx) + 0.5) * resolution, lo[1] + (np.arange(ny) + 0.5) * resolution


def _rasterize(scene, state, resolution, robot_radius, extra_boxes):
    """nav_grid without reuse: every footprint rasterized afresh over the
    whole grid."""
    xs, ys = _cell_centers(scene, resolution)
    occ = np.zeros((len(ys), len(xs)), dtype=bool)
    boxes = list(scene.base.obstacles)
    boxes += [p.shape.transformed(part_pose_at(p, state.theta(p.id))) for p in scene.parts]
    for box in boxes + list(extra_boxes):
        occ |= sim._near_polygon(xs[None, :], ys[:, None], box.footprint(), robot_radius)
    return occ


def _edge_boxes(scene):
    """Boxes placed against the floor grid: wholly off it, partly off it,
    touching its edges from inside, and one small box well inside it."""
    lo, hi = scene.base.floor_min, scene.base.floor_max
    mid = (lo + hi) / 2.0
    centers = [(lo[0] - 2.0, lo[1] - 2.0),  # wholly off, beyond a corner
               (hi[0] + 0.2, mid[1]),       # wholly off, within the radius of it
               (lo[0] - 0.05, mid[1]),      # partly off the west edge
               (mid[0], hi[1] + 0.1),       # partly off the north edge
               (hi[0] - 0.1, mid[1]),       # touching the east edge
               (lo[0] + 0.1, lo[1] + 0.15),  # touching the south-west corner
               (mid[0], mid[1])]            # well inside
    return [aligned_box((x, y, 0.5), (0.1, 0.15, 0.5)) for x, y in centers]


def test_cached_nav_grid_equals_fresh_rasterization(monkeypatch):
    scene, _ = load("kitchen")
    rng = np.random.default_rng(7)
    states = [scene.initial_state()]
    for _ in range(6):
        theta = {p.id: rng.uniform(0.0, p.joint.max_state()) for p in scene.parts}
        states.append(SceneState({k: v if rng.random() < 0.7 else 0.0 for k, v in theta.items()}))
    edge_boxes = _edge_boxes(scene)
    for case in range(40):
        state = states[int(rng.integers(len(states)))]
        resolution, radius = [(0.05, 0.30), (0.1, 0.30), (0.05, 0.2)][case % 3]
        extra = []
        for _ in range(int(rng.integers(0, 3))):
            c = np.append(rng.uniform(scene.base.floor_min, scene.base.floor_max), 0.5)
            extra.append(OrientedBox(c, rng.uniform(0.05, 0.4, 3),
                                     rodrigues_rotation((0.0, 0.0, 1.0), rng.uniform(0, math.pi))))
        if extra and case % 2:
            extra.append(extra[0])  # a box given twice
        if case % 4 < 3:
            extra += edge_boxes
        monkeypatch.setattr(sim, "GRID_RESOLUTION", resolution)
        monkeypatch.setattr(sim, "ROBOT_RADIUS", radius)
        grid = nav_grid(scene, state).with_boxes(extra)
        assert np.array_equal(grid.occupied,
                              _rasterize(scene, state, resolution, radius, extra)), case
    # each box keeps one (rows, cols, mask) per grid geometry: its footprint
    # rasterized over its own window, which set into an empty grid is the
    # box's rasterization over the whole grid
    def windows(box):
        return {key: v for key, v in box.memo.items() if key != "footprint"}

    for box in list(scene.base.obstacles) + edge_boxes:
        assert len(windows(box)) == 3
        for key, (rows, cols, mask) in windows(box).items():
            xs, ys = _cell_centers(scene, key[5])
            alone = np.zeros((len(ys), len(xs)), dtype=bool)
            alone[rows, cols] = mask
            assert mask.shape == alone[rows, cols].shape
            assert np.array_equal(alone, sim._near_polygon(xs[None, :], ys[:, None],
                                                           box.footprint(), key[6]))
    wholly_off, beside, *_, well_inside = edge_boxes
    for key, (rows, cols, mask) in windows(wholly_off).items():
        assert mask.size == 0
    for key, (rows, cols, mask) in windows(beside).items():
        # off the grid but within the radius of it, so it marks cells
        assert 0 < mask.size < key[3] * key[4] and mask.any()
    for key, (rows, cols, mask) in windows(well_inside).items():
        assert 0 < rows.start and rows.stop < key[4]
        assert 0 < cols.start and cols.stop < key[3]
        assert mask.any() and not (mask[0].any() or mask[-1].any()
                                   or mask[:, 0].any() or mask[:, -1].any())
    # the cached masks (and the footprint hull they were rasterized from) are
    # shared by every later grid, so they are read-only
    obstacle = scene.base.obstacles[0]
    with pytest.raises(ValueError, match="read-only"):
        obstacle.footprint()[0, 0] = 0.0
    for _, _, mask in windows(obstacle).values():
        with pytest.raises(ValueError, match="read-only"):
            mask[...] = False
