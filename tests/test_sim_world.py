import math
import os
import threading

import numpy as np
import pytest

from artiscene.errors import GraspFailureError, InvalidViewpointError
from artiscene.exploration import OBSERVATION_RADIUS, explore_scene
from artiscene.geometry import OrientedBox, rodrigues_rotation
from artiscene.scene import (PRISMATIC, JointModel, KinematicScene, MobilePart,
                             RobotState, SceneState, StaticBaseMap, handle_at,
                             part_shape_at)
from artiscene import sim
from artiscene.sim import (EYE_HEIGHT, ROBOT_RADIUS, STEP_SIZE, Observation, SimConfig,
                           _crop_windows, _edge_table, _near_edges, _near_polygon,
                           _node_hash, _visible_faces, _window_nodes, arm_blocked,
                           attempt_pull, motion_direction, nav_grid, render_observation)
from shipped import aligned_box, load


def slab_scene():
    """Single 1x1 m wall slab facing +x, for clean render statistics."""
    slab = aligned_box((0.0, 0.0, 1.0), (0.01, 0.5, 0.5))
    base = StaticBaseMap((slab,), (-3, -3), (3, 3))
    return KinematicScene(base, ())


def noiseless():
    return SimConfig(noise_sigma=0.0, dropout_prob=0.0)


@pytest.fixture()
def density(monkeypatch):
    """Sets the surface point density of the renders in one test."""
    return lambda value: monkeypatch.setattr(sim, "SURFACE_POINT_DENSITY", value)


def test_face_sampling_density_and_planarity(density):
    density(1000.0)
    scene = slab_scene()
    obs = render_observation(scene, SceneState({}), (2.0, 0.0, 1.0), noiseless(),
                             np.random.default_rng(1))
    front = obs.cloud.points[obs.cloud.points[:, 0] > 0.0]
    # the 1 m^2 front face yields ~density points, all exactly on its plane
    assert 900 <= front.shape[0] <= 1100
    assert np.allclose(front[:, 0], 0.01, atol=1e-12)


def test_render_deterministic_for_seed():
    scene, _ = load("minimal_drawer")
    cfg = SimConfig()
    a = render_observation(scene, scene.initial_state(), (1.5, 1.0, 1.0), cfg,
                           np.random.default_rng(7))
    b = render_observation(scene, scene.initial_state(), (1.5, 1.0, 1.0), cfg,
                           np.random.default_rng(7))
    assert np.array_equal(a.cloud.points, b.cloud.points)


def test_noise_sigma_matches_plane_residual(density):
    density(1000.0)
    scene = slab_scene()
    cfg = SimConfig(noise_sigma=0.005, dropout_prob=0.0)
    rms = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        obs = render_observation(scene, SceneState({}), (2.0, 0.0, 1.0), cfg, rng)
        front = obs.cloud.points[obs.cloud.points[:, 0] > -0.5]
        rms.append(np.sqrt(np.mean((front[:, 0] - 0.01) ** 2)))
    assert np.mean(rms) == pytest.approx(0.005, rel=0.15)


def test_viewpoint_inside_obstacle_rejected(density):
    density(1000.0)
    scene = slab_scene()
    with pytest.raises(InvalidViewpointError):
        render_observation(scene, SceneState({}), (0.0, 0.0, 1.0), noiseless(),
                           np.random.default_rng(1))


def test_back_faces_culled(density):
    density(1000.0)
    scene = slab_scene()
    obs = render_observation(scene, SceneState({}), (2.0, 0.0, 1.0), noiseless(),
                             np.random.default_rng(1))
    assert not np.any(obs.cloud.points[:, 0] < 0.0)  # rear face invisible


def reference_render(scene, state, viewpoint, config, rng):
    """Face-by-face loop renderer kept as the reference for the vectorized
    one: the same jittered nodes, face order, dropout and noise draws."""
    points = []
    boxes = list(scene.base.obstacles)
    boxes += [part_shape_at(p, state.theta(p.id)) for p in scene.parts]
    pitch = 1.0 / math.sqrt(sim.SURFACE_POINT_DENSITY)
    frames = ((0, 1, 2), (0, 1, 2), (0, 2, 1), (0, 2, 1), (1, 2, 0), (1, 2, 0))
    for box in boxes:
        h, rot = box.half_extents, box.orientation
        for face, (iu, iv, inrm) in enumerate(frames):
            normal = (1.0, -1.0)[face % 2] * rot[:, inrm]
            face_center = box.center + normal * h[inrm]
            if float(normal @ (viewpoint - face_center)) <= 0.0:
                continue
            nu = max(1, int(round(2.0 * h[iu] / pitch)))
            nv = max(1, int(round(2.0 * h[iv] / pitch)))
            ii, jj = np.meshgrid(np.arange(nu, dtype=float), np.arange(nv, dtype=float))
            ii, jj = ii.ravel(), jj.ravel()
            ju = (_node_hash(ii, jj, float(face)) - 0.5) * 0.7
            jv = (_node_hash(ii, jj, float(face) + 13.7) - 0.5) * 0.7
            us = ((ii + 0.5 + ju) / nu) * 2.0 - 1.0
            vs = ((jj + 0.5 + jv) / nv) * 2.0 - 1.0
            points.append(face_center + np.outer(us * h[iu], rot[:, iu])
                          + np.outer(vs * h[iv], rot[:, iv]))
    points = np.vstack(points)
    if config.dropout_prob > 0.0:
        keep = rng.random(points.shape[0]) >= config.dropout_prob
        if keep.any():
            points = points[keep]
    if config.noise_sigma > 0.0:
        points = points + rng.normal(0.0, config.noise_sigma, size=points.shape)
    return points


CROP_CONFIGS = {
    "default": SimConfig(),
    "noiseless": SimConfig(noise_sigma=0.0, dropout_prob=0.0),
    "dropout-only": SimConfig(noise_sigma=0.0),
    "noise-only": SimConfig(dropout_prob=0.0),
    "heavy-noise": SimConfig(noise_sigma=0.02),  # noise beyond one node pitch
}


@pytest.mark.parametrize("name", sorted(CROP_CONFIGS))
def test_crop_render_equals_full_render_then_crop(name):
    # rendering only the crop sphere keeps exactly the full render's points
    # inside it, and leaves the generator where the full render leaves it;
    # the full render equals the face-by-face reference loop
    config = CROP_CONFIGS[name]
    scene, _ = load("kitchen")
    closed = scene.initial_state()
    opened = closed.with_theta("door_1", 0.6).with_theta("drawer_1", 0.1)
    r2 = OBSERVATION_RADIUS ** 2
    for seed, state in enumerate((closed, opened)):
        for part in scene.parts:
            center = handle_at(part, state.theta(part.id))
            viewpoint = center + np.array([0.0, -0.55, 0.0])
            viewpoint[2] = EYE_HEIGHT
            full_rng = np.random.default_rng(seed)
            crop_rng = np.random.default_rng(seed)
            ref_rng = np.random.default_rng(seed)
            full = render_observation(scene, state, viewpoint, config, full_rng,
                                      hotspot=center)
            ref = reference_render(scene, state, viewpoint, config, ref_rng)
            assert np.array_equal(full.cloud.points, ref), part.id
            crop = render_observation(scene, state, viewpoint, config, crop_rng,
                                      hotspot=center, crop=(center, OBSERVATION_RADIUS))
            inside = np.sum((full.cloud.points - center) ** 2, axis=1) <= r2
            assert np.array_equal(crop.cloud.points, full.cloud.points[inside]), part.id
            assert np.array_equal(crop.hotspot, full.hotspot)
            assert crop_rng.random() == full_rng.random() == ref_rng.random()
        far = np.array([3.0, -2.0, 1.0])  # 5 m from every surface
        full = render_observation(scene, state, viewpoint, config, full_rng)
        inside = np.sum((full.cloud.points - far) ** 2, axis=1) <= r2
        with pytest.raises(ValueError):
            Observation(full.cloud.subset(inside), far, viewpoint)
        with pytest.raises(ValueError):
            render_observation(scene, state, viewpoint, config, crop_rng,
                               crop=(far, OBSERVATION_RADIUS))
        assert crop_rng.random() == full_rng.random()


@pytest.mark.parametrize("config", [
    SimConfig(), SimConfig(noise_sigma=0.02, dropout_prob=0.3),
    SimConfig(noise_sigma=5e-324),  # sigma * z underflows to a signed zero or one ulp
], ids=["default", "heavy", "subnormal-sigma"])
def test_noisy_render_equals_the_normal_draw_bit_for_bit(config):
    # the scaled standard normals are rng.normal(0, sigma)'s numbers, down to
    # the sign of a zero, and leave the generator where it leaves it
    scene, _ = load("kitchen")
    state = scene.initial_state().with_theta("door_1", 0.6).with_theta("drawer_1", 0.1)
    r2 = OBSERVATION_RADIUS ** 2
    for seed, part in enumerate(scene.parts[:4]):
        center = handle_at(part, state.theta(part.id))
        viewpoint = center + np.array([0.0, -0.55, 0.0])
        viewpoint[2] = EYE_HEIGHT
        ref_rng = np.random.default_rng(seed)
        ref = reference_render(scene, state, viewpoint, config, ref_rng)
        inside = np.sum((ref - center) ** 2, axis=1) <= r2
        for crop, expected in ((None, ref), ((center, OBSERVATION_RADIUS), ref[inside])):
            rng = np.random.default_rng(seed)
            obs = render_observation(scene, state, viewpoint, config, rng,
                                     hotspot=center, crop=crop)
            assert obs.cloud.points.tobytes() == expected.tobytes(), part.id
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_repeated_renders_equal_renders_on_a_fresh_scene():
    # boxes keep their visible faces and crop windows in their memo across
    # renders; each render equals one on a freshly loaded scene, whose memos
    # are empty, byte for byte, and leaves the generator in the same place
    scene, _ = load("kitchen")
    closed = scene.initial_state()
    site = handle_at(scene.part("door_1"), 0.0)
    viewpoint = site + np.array([0.0, -0.55, 0.55])
    noisy = SimConfig(noise_sigma=0.02)
    # a noiseless render stores the narrowest windows, which the noisy one
    # must widen; then the grasped part moves between renders
    renders = [(closed, SimConfig(noise_sigma=0.0, dropout_prob=0.0)), (closed, noisy)]
    renders += [(closed.with_theta("door_1", t), SimConfig()) for t in (0.0, 0.05, 0.1, 0.1)]
    renders += [(closed.with_theta("door_1", 0.1), noisy)]
    rng = np.random.default_rng(5)
    for crop in ((site, OBSERVATION_RADIUS), None):
        for state, config in renders:
            fresh_rng = np.random.default_rng(5)
            fresh_rng.bit_generator.state = rng.bit_generator.state
            fresh = render_observation(load("kitchen")[0], state, viewpoint, config,
                                       fresh_rng, crop=crop)
            obs = render_observation(scene, state, viewpoint, config, rng, crop=crop)
            assert obs.cloud.points.tobytes() == fresh.cloud.points.tobytes()
            assert rng.bit_generator.state == fresh_rng.bit_generator.state


def test_speculative_draws_equal_serial_draws(monkeypatch):
    # a render takes the draw made ahead only on an exact match of generator,
    # state, node count, dropout and sigma; hit or miss, its points and the
    # generator's state equal those of a render that draws serially
    scene, _ = load("kitchen")
    site = handle_at(scene.part("door_1"), 0.0)
    at = site + np.array([0.0, -0.55, 0.55])
    moved = at + np.array([0.3, 0.0, 0.0])
    crop, far = (site, OBSERVATION_RADIUS), (site + 5.0, OBSERVATION_RADIUS)
    door = scene.initial_state().with_theta
    renders = [  # (door angle, viewpoint, config, crop, shared generator, hit);
        # a render not on the shared generator draws from a new default_rng(0)
        (0.0, at, SimConfig(), crop, True, False),
        (0.02, at, SimConfig(), crop, True, True),  # the grasped part moved
        (0.05, at, SimConfig(), crop, True, True),
        (0.1, at, SimConfig(), crop, True, False),  # one of its faces came into view
        (0.1, moved, SimConfig(), crop, True, False),  # viewpoint changed
        "outside draw",
        (0.1, moved, SimConfig(), crop, True, False),  # state moved on
        (0.1, moved, SimConfig(noise_sigma=0.01), crop, True, False),
        (0.1, moved, SimConfig(dropout_prob=0.05), crop, True, False),
        (0.1, moved, SimConfig(dropout_prob=0.05), far, True, True),  # raises
        (0.1, moved, SimConfig(dropout_prob=0.05), crop, True, True),
        (0.1, moved, SimConfig(dropout_prob=0.05), crop, False, False),
        (0.1, at, SimConfig(), crop, False, False),
        # the draw made ahead is the last render's, on another generator
        (0.1, moved, SimConfig(dropout_prob=0.05), crop, True, False),
    ]
    serial_draw = sim._draw
    drawn_here = []

    def counting_draw(*args):  # the worker's draws are not counted
        if threading.current_thread() is threading.main_thread():
            drawn_here.append(args[1:])
        return serial_draw(*args)

    def render(theta, viewpoint, config, crop, rng):
        try:
            obs = render_observation(scene, door("door_1", theta), viewpoint, config,
                                     rng, crop=crop)
        except ValueError as e:
            assert "nothing inside the crop sphere" in str(e)
            return None
        return obs.cloud.points.tobytes()

    monkeypatch.setattr(sim, "_draw", counting_draw)
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    hits = []
    for step in renders:
        if step == "outside draw":
            assert rng.random() == ref.random()
            continue
        *args, shared, _ = step
        with monkeypatch.context() as serial:
            serial.setattr(sim, "_take_draw", lambda g, a: serial_draw(g, *a))
            expected = render(*args, ref if shared else np.random.default_rng(0))
        drawn_here.clear()
        assert render(*args, rng if shared else np.random.default_rng(0)) == expected
        assert rng.bit_generator.state == ref.bit_generator.state
        hits.append(not drawn_here)
    apart = bool(sim._cpus_apart())  # else no worker: every render draws itself
    assert hits == [apart and step[-1] for step in renders if step != "outside draw"]
    sim.discard_pending_draw()
    # the worker runs on CPUs other than the one that started it
    workers = [t for t in threading.enumerate() if t.name.startswith("artiscene-draw")]
    assert len(workers) == apart
    if apart:
        assert os.sched_getaffinity(workers[0].native_id) < os.sched_getaffinity(0)


def reference_window_nodes(face_idx, face_center, axes, half, counts, lo, hi):
    """The per-node window construction: every node's jitter hashed and its
    point built from the face's pose, node by node, in one array pass."""
    window = hi - lo
    n_window = window[:, 0] * window[:, 1]
    f = np.repeat(np.arange(len(counts)), n_window)
    k = np.arange(f.size) - np.repeat(np.cumsum(n_window) - n_window, n_window)
    i = lo[f, 0] + k % window[f, 0]
    j = lo[f, 1] + k // window[f, 0]
    sizes = counts[:, 0] * counts[:, 1]
    node = (np.cumsum(sizes) - sizes)[f] + j * counts[f, 0] + i
    ii, jj = i.astype(float), j.astype(float)
    salt = face_idx[f].astype(float)
    ju = (_node_hash(ii, jj, salt) - 0.5) * 0.7
    jv = (_node_hash(ii, jj, salt + 13.7) - 0.5) * 0.7
    us = ((ii + 0.5 + ju) / counts[f, 0]) * 2.0 - 1.0
    vs = ((jj + 0.5 + jv) / counts[f, 1]) * 2.0 - 1.0
    points = (face_center[f] + (us * half[f, 0])[:, None] * axes[f, 0]
              + (vs * half[f, 1])[:, None] * axes[f, 1])
    return points, node


@pytest.mark.parametrize("density", [1200.0, 3000.0])
def test_window_nodes_equal_per_node_construction(density):
    # the offsets shared by every pose of a face size give the same points,
    # bit for bit, and the same node indices as building each node from the
    # pose; on full, partial and empty windows of randomly posed boxes, some
    # turned about a horizontal axis as a fold-down panel is
    pitch = 1.0 / math.sqrt(density)
    rng = np.random.default_rng(11)
    kinds = set()
    for trial in range(40):
        axis = rng.normal(size=3)
        if trial % 2:
            axis[2] = 0.0  # horizontal: the top and bottom faces turn into view
        rot = rodrigues_rotation(axis / np.linalg.norm(axis), rng.uniform(-math.pi, math.pi))
        box = OrientedBox(rng.uniform(-1.0, 1.0, 3), rng.uniform(0.01, 0.4, 3), rot)
        faces = _visible_faces(box, rng.uniform(-1.0, 1.0, 3) * 3.0, pitch)
        counts = faces[-1]
        center = box.center + rng.uniform(-0.6, 0.6, 3)
        for lo, hi in ((np.zeros_like(counts), counts),
                       _crop_windows(center, rng.uniform(0.05, 0.5), *faces[1:]),
                       (counts, counts)):
            points, node = _window_nodes(*faces, lo, hi)
            ref_points, ref_node = reference_window_nodes(*faces, lo, hi)
            assert points.tobytes() == ref_points.tobytes()
            assert np.array_equal(node, ref_node) and node.dtype == ref_node.dtype
            n = int(np.prod(hi - lo, axis=1).sum())
            kinds.add("empty" if n == 0 else
                      "full" if n == int(np.prod(counts, axis=1).sum()) else "partial")
    assert kinds == {"empty", "partial", "full"}


def test_explore_computes_each_face_grid_once():
    # kitchen seed 0: each (face, size) offset grid is computed on first use
    # and every later window of that face size, at any pose, reuses it
    hashed = []
    node_hash = sim._node_hash

    def counting_hash(i, j, salt):
        hashed.append(np.shape(i))
        return node_hash(i, j, salt)

    sim._face_grid.cache_clear()
    scene, _ = load("kitchen")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_node_hash", counting_hash)
        explore_scene(scene, SimConfig(), robot=RobotState(), rng=np.random.default_rng(0))
    info = sim._face_grid.cache_info()
    assert info.misses == info.currsize and info.hits > 10 * info.misses
    assert len(hashed) == 2 * info.misses  # two hashes per grid, none per window


def test_viewpoint_inside_a_part_rejected_after_obstacles_without_drawing():
    wall = aligned_box((0.0, 0.0, 1.0), (0.01, 0.5, 0.5))
    drawer = MobilePart("drawer", aligned_box((0.0, 0.2, 1.0), (0.05, 0.1, 0.1)),
                        JointModel(PRISMATIC, (1.0, 0.0, 0.0), limit_max=0.3),
                        handle=(0.05, 0.2, 1.0))
    scene = KinematicScene(StaticBaseMap((wall,), (-3, -3), (3, 3)), (drawer,))
    state = scene.initial_state()
    rng = np.random.default_rng(2)
    render_observation(scene, state, (2.0, 0.2, 1.0), SimConfig(), rng)
    after = rng.bit_generator.state
    # twice each: a viewpoint first seen, then one the boxes' memos hold
    for viewpoint, inside in (((0.04, 0.2, 1.0), "part 'drawer'"),
                              ((0.0, 0.2, 1.0), "a base obstacle")):  # inside both
        for _ in range(2):
            with pytest.raises(InvalidViewpointError, match=f"inside {inside}$"):
                render_observation(scene, state, viewpoint, SimConfig(), rng,
                                   crop=((0.05, 0.2, 1.0), OBSERVATION_RADIUS))
            assert rng.bit_generator.state == after


# --- attempt_pull ------------------------------------------------------------

def pull_setup():
    scene, _ = load("minimal_drawer")
    state = scene.initial_state()
    part = scene.parts[0]
    grasp = handle_at(part, 0.0)
    return scene, state, part, grasp


def test_perfect_pull_advances_full_step():
    scene, state, part, grasp = pull_setup()
    direction = motion_direction(part, 0.0)
    result = attempt_pull(scene, state, part.id, grasp, direction)
    assert result.advanced == pytest.approx(STEP_SIZE[PRISMATIC], abs=1e-12)
    assert not result.slipped


def test_perpendicular_pull_slips():
    scene, state, part, grasp = pull_setup()
    t = motion_direction(part, 0.0)
    perp = np.array([t[1], -t[0], 0.0])
    perp /= np.linalg.norm(perp)
    result = attempt_pull(scene, state, part.id, grasp, perp)
    assert result.slipped
    assert result.advanced == 0.0
    assert result.state.theta(part.id) == 0.0


def test_angled_pull_cosine_contract(monkeypatch):
    scene, state, part, grasp = pull_setup()
    t = motion_direction(part, 0.0)
    perp = np.cross(t, [0.0, 0.0, 1.0])
    perp /= np.linalg.norm(perp)
    ang = math.radians(30.0)
    direction = math.cos(ang) * t + math.sin(ang) * perp
    monkeypatch.setitem(STEP_SIZE, PRISMATIC, 0.02)
    result = attempt_pull(scene, state, part.id, grasp, direction)
    assert result.advanced == pytest.approx(0.02 * math.cos(ang), abs=1e-9)


def test_pull_clamps_at_limit_and_cumulative_sum(monkeypatch):
    scene, state, part, grasp = pull_setup()
    monkeypatch.setitem(STEP_SIZE, PRISMATIC, 0.04)
    total = 0.0
    for i in range(6):
        g = handle_at(part, state.theta(part.id))
        d = motion_direction(part, state.theta(part.id))
        result = attempt_pull(scene, state, part.id, g, d)
        state = result.state
        total += result.advanced
        assert state.theta(part.id) <= part.joint.limit_max + 1e-12
    expected = min(6 * 0.04, part.joint.limit_max)
    assert total == pytest.approx(expected, abs=1e-9)
    assert state.theta(part.id) == pytest.approx(part.joint.limit_max, abs=1e-9)


def test_far_grasp_rejected():
    scene, state, part, _ = pull_setup()
    with pytest.raises(GraspFailureError):
        attempt_pull(scene, state, part.id, (0.0, 1.0, 0.5), motion_direction(part, 0.0))


def test_revolute_motion_direction_is_tangent():
    scene, _ = load("kitchen")
    part = scene.part("door_1")
    for theta in (0.0, 0.5, 1.2):
        d = motion_direction(part, theta)
        h = handle_at(part, theta)
        eps = 1e-6
        h2 = handle_at(part, theta + eps)
        fd = (h2 - h) / eps
        assert np.allclose(d, fd / np.linalg.norm(fd), atol=1e-5)


# --- nav grid ----------------------------------------------------------------

def grid_of(monkeypatch, scene, state, resolution, robot_radius):
    """nav_grid with sim.GRID_RESOLUTION and sim.ROBOT_RADIUS set."""
    monkeypatch.setattr(sim, "GRID_RESOLUTION", resolution)
    monkeypatch.setattr(sim, "ROBOT_RADIUS", robot_radius)
    return nav_grid(scene, state)


def test_empty_scene_all_free(monkeypatch):
    base = StaticBaseMap((), (0, 0), (2, 2))
    scene = KinematicScene(base, ())
    grid = grid_of(monkeypatch, scene, SceneState({}), 0.1, 0.2)
    assert not grid.occupied.any()


def test_inflation_cell_count_arithmetic(monkeypatch):
    # axis-aligned obstacle width w across x: ceil((w + 2r) / res) cells occupied
    w, r, res = 0.5, 0.3, 0.05
    box = aligned_box((2.012 + w / 2, 2.0, 0.5), (w / 2, 0.2, 0.5))
    base = StaticBaseMap((box,), (0, 0), (4.5, 4.0))
    scene = KinematicScene(base, ())
    grid = grid_of(monkeypatch, scene, SceneState({}), res, r)
    iy = grid.cell_of((0.0, 2.0))[1]
    row = grid.occupied[iy]
    assert int(row.sum()) == math.ceil((w + 2 * r) / res)


def test_open_door_occupies_aisle_strip():
    scene, _ = load("kitchen")
    closed = nav_grid(scene, scene.initial_state())
    open_state = scene.initial_state().with_theta("door_1", math.pi / 2)
    opened = nav_grid(scene, open_state)
    assert opened.occupied.sum() > closed.occupied.sum()
    # cells in front of the face line become occupied only when open
    newly = opened.occupied & ~closed.occupied
    xs, ys = opened.cell_centers()
    rows = np.nonzero(newly.any(axis=1))[0]
    assert rows.size > 0
    assert ys[rows].min() < 3.4 - 0.35


def test_inflation_monotone_in_radius(monkeypatch):
    scene, _ = load("kitchen")
    state = scene.initial_state()
    prev = grid_of(monkeypatch, scene, state, 0.05, 0.10).occupied
    for r in (0.20, 0.30, 0.40):
        cur = grid_of(monkeypatch, scene, state, 0.05, r).occupied
        assert np.all(prev <= cur)
        prev = cur


def test_nearest_free_keeps_a_free_point_and_snaps_an_occupied_one():
    box = aligned_box((2.0, 2.0, 0.5), (0.4, 0.3, 0.5))
    scene = KinematicScene(StaticBaseMap((box,), (0, 0), (4, 4)), ())
    grid = nav_grid(scene, SceneState({}))
    free_xy = np.array([0.512, 0.437])
    assert np.array_equal(grid.nearest_free(free_xy, 0.0), free_xy)
    snapped = grid.nearest_free((2.0, 2.0), 1.0)
    assert grid.is_free(snapped)
    # free floor starts 0.3 (half width) + 0.3 (inflation) from the center, within a cell
    assert np.hypot(snapped[0] - 2.0, snapped[1] - 2.0) <= 0.6 + 0.05
    assert grid.nearest_free((2.0, 2.0), 0.3) is None


def _polygon_distance(x, y, poly):
    """Reference: distance from (x, y) to a convex counterclockwise polygon, 0 inside."""
    inside, best = True, math.inf
    for (ax, ay), (bx, by) in zip(poly, np.roll(poly, -1, axis=0)):
        ex, ey = bx - ax, by - ay
        if ex * (y - ay) - ey * (x - ax) < 0.0:
            inside = False
        t = min(max(((x - ax) * ex + (y - ay) * ey) / (ex * ex + ey * ey), 0.0), 1.0)
        best = min(best, math.hypot(x - ax - t * ex, y - ay - t * ey))
    return 0.0 if inside else best


def test_point_and_grid_footprint_queries_agree(monkeypatch):
    # arm_blocked asks one point what nav_grid asks every cell center
    box = OrientedBox((2.0, 2.0, 0.5), (0.4, 0.2, 0.5),
                      rodrigues_rotation((0.0, 0.0, 1.0), 0.6))
    scene = KinematicScene(StaticBaseMap((box,), (0, 0), (4, 4)), ())
    grid = grid_of(monkeypatch, scene, SceneState({}), 0.1, 0.3)
    xs, ys = grid.cell_centers()
    fp = box.footprint()
    edges = _edge_table(fp)
    point = [[_near_edges(x, y, edges, 0.3) for x in xs.tolist()] for y in ys.tolist()]
    assert np.array_equal(np.array(point), grid.occupied)
    assert grid.occupied.any() and not grid.occupied.all()
    for x, y in np.random.default_rng(3).uniform(0.5, 3.5, size=(2000, 2)).tolist():
        d = _polygon_distance(x, y, fp)
        if abs(d - 0.3) > 1e-9:
            assert _near_edges(x, y, edges, 0.3) == (d <= 0.3)


def _probe_points(poly, rng):
    """Points on, just off and about one robot radius off a polygon's vertices
    and edges, plus a few inside and far away."""
    centroid = poly.mean(axis=0)
    pts = [centroid, centroid + 5.0]
    for a, b in zip(poly, np.roll(poly, -1, axis=0)):
        e = b - a
        n = np.array([e[1], -e[0]]) / max(float(np.hypot(*e)), 1e-300)  # outward
        for off in (0.0, 1e-12, 1e-6, ROBOT_RADIUS, -1e-6):
            pts.append(a + off * n)
            pts.append(a + rng.uniform(0.0, 1.0) * e + off * n)
            pts.append(a + off * rng.normal(size=2))
    return [tuple(p.tolist()) for p in pts]


def reference_segment_dist2(px, py, a, b):
    e = b - a
    ee = float(e @ e)
    if ee == 0.0:
        return (px - a[0]) ** 2 + (py - a[1]) ** 2
    t = np.clip(((px - a[0]) * e[0] + (py - a[1]) * e[1]) / ee, 0.0, 1.0)
    cx = a[0] + t * e[0]
    cy = a[1] + t * e[1]
    return (px - cx) ** 2 + (py - cy) ** 2


def reference_near_polygon(px, py, poly, radius):
    """The contact test as arm_blocked and nav_grid ran it before the edge
    table, in numpy arithmetic: numpy scalars for one point, arrays for a
    grid."""
    inside = True
    best = np.inf
    for a, b in zip(poly, np.roll(poly, -1, axis=0)):
        e = b - a
        inside &= e[0] * (py - a[1]) - e[1] * (px - a[0]) >= 0.0
        best = np.minimum(best, reference_segment_dist2(px, py, a, b))
    return inside | (best <= radius * radius)


def test_contact_tests_equal_the_numpy_reference():
    # arm_blocked's float test on the edge table gives the numpy-scalar
    # verdict on yawed and tilted box footprints and on a polygon with a
    # zero-length edge, also at radii a few ulps either side of each point's
    # squared distance as the reference rounds it; nav_grid's array test
    # gives the reference's mask over a grid of cell centers
    rng = np.random.default_rng(8)
    polys = []
    for trial in range(16):
        axis = (0.0, 0.0, 1.0) if trial % 2 else rng.normal(size=3)
        rot = rodrigues_rotation(axis / np.linalg.norm(axis), rng.uniform(-math.pi, math.pi))
        polys.append(OrientedBox(rng.uniform(-2.0, 2.0, 3), rng.uniform(0.01, 0.5, 3),
                                 rot).footprint())
    polys.append(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.3, 1.0]]))
    verdicts = set()
    for poly in polys:
        edges = _edge_table(poly)
        for x, y in _probe_points(poly, rng):
            best = min(float(reference_segment_dist2(x, y, a, b))
                       for a, b in zip(poly, np.roll(poly, -1, axis=0)))
            r = math.sqrt(best)
            radii = [ROBOT_RADIUS] + [r + k * math.ulp(r) for k in range(-3, 4)]
            for radius in radii:
                expected = bool(reference_near_polygon(x, y, poly, radius))
                assert _near_edges(x, y, edges, radius) is expected, (poly, x, y, radius)
                verdicts.add(expected)
        lo, hi = poly.min(axis=0) - 0.5, poly.max(axis=0) + 0.5
        xs, ys = np.arange(lo[0], hi[0], 0.01), np.arange(lo[1], hi[1], 0.01)
        mask = _near_polygon(xs[None, :], ys[:, None], poly, ROBOT_RADIUS)
        expected = reference_near_polygon(xs[None, :], ys[:, None], poly, ROBOT_RADIUS)
        assert np.array_equal(mask, expected) and mask.any() and not mask.all()
    assert verdicts == {True, False}


def test_arm_blocked_equals_the_array_reach_and_contact_tests():
    # the kitchen's parts, closed and open, against bases around each posed
    # footprint: the verdict of reach_mask and the numpy contact test, in that order
    scene, _ = load("kitchen")
    rng = np.random.default_rng(9)
    reasons = set()
    for part in scene.parts:
        for theta in (0.0, 0.5 * part.joint.limit_max):
            state = scene.initial_state().with_theta(part.id, theta)
            grasp = handle_at(part, theta)
            fp = part_shape_at(part, theta).footprint()
            for x, y in _probe_points(fp, rng)[::3]:
                robot = RobotState(base_pose=(x, y, 0.0))
                expected = ("unreachable" if not robot.reach_mask(grasp)[0, 0] else
                            "part-contact" if reference_near_polygon(x, y, fp, ROBOT_RADIUS)
                            else None)
                assert arm_blocked(scene, state, part.id, grasp, robot) == expected
                reasons.add(expected)
    assert reasons == {"unreachable", "part-contact", None}


def test_observation_hotspot_bound():
    from artiscene.geometry import PointCloud

    with pytest.raises(ValueError):
        Observation(cloud=PointCloud(np.zeros((10, 3))),
                    hotspot=(5.0, 0.0, 0.0), viewpoint=(0, 0, 1))


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dropout_prob=1.0)
    with pytest.raises(ValueError):
        SimConfig(noise_sigma=-1.0)
    # NaN fails every comparison, so each bound must be written to reject it
    for field, values in (("noise_sigma", (math.nan, math.inf)),
                          ("dropout_prob", (math.nan, -0.01, math.inf))):
        for value in values:
            with pytest.raises(ValueError, match=field):
                SimConfig(**{field: value})


def test_noiseless_render_points_lie_on_surfaces(density):
    density(400.0)
    scene, _ = load("kitchen")
    obs = render_observation(scene, scene.initial_state(), (3.0, 1.5, 1.0),
                             noiseless(), np.random.default_rng(1))
    boxes = list(scene.base.obstacles) + [p.shape for p in scene.parts]
    for p in obs.cloud.points[::7]:
        dists = []
        for b in boxes:
            local = b.orientation.T @ (p - b.center)
            # distance to the box SURFACE (not just the solid)
            outside = np.maximum(np.abs(local) - b.half_extents, 0.0)
            d_out = np.linalg.norm(outside)
            d_in = np.min(b.half_extents - np.abs(local))
            dists.append(d_out if d_out > 0 else abs(d_in))
        assert min(dists) < 1e-9
