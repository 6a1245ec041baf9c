import itertools
import math
from collections import Counter, deque
from pathlib import Path

import numpy as np
import pytest

from artiscene.errors import LimitViolationError, NoBaseFoundError, UnknownPartError
from artiscene import geometry
from artiscene.geometry import obb_overlaps, rodrigues_rotation
from artiscene import planner, scene as scene_module, sim
from artiscene.planner import (EndEffectorTrajectory, InteractionPlan, PlannerConfig,
                               check_part_collision, check_path,
                               evaluate_candidate_order, part_trajectory, plan_scene,
                               plan_to_json, sample_part_sweep, select_base,
                               validate_plan, write_plan)
from artiscene.scene import (JointModel, KinematicScene, MobilePart, RobotState,
                             SceneState, StaticBaseMap)
from artiscene.sim import OccupancyGrid, nav_grid
from oracles import flood_fill_reachable
from shipped import aligned_box, handle_part, load, plan_inputs

DATA = Path(__file__).resolve().parent / "data"


def rev_joint(axis=(0.0, 0.0, 1.0), pivot=(0.0, 0.0, 0.0), lim=math.pi / 2):
    return JointModel("revolute", axis, pivot, 0.0, lim)


def pris_joint(axis=(1.0, 0.0, 0.0), lim=0.15):
    return JointModel("prismatic", axis, None, 0.0, lim)


# --- trajectories ------------------------------------------------------------

def trajectory(monkeypatch, part, theta_start, theta_goal, k):
    """part_trajectory with planner.K set to k."""
    monkeypatch.setattr(planner, "K", k)
    return part_trajectory(part, theta_start, theta_goal)


def test_revolute_quarter_circle_hand_computed(monkeypatch):
    traj = trajectory(monkeypatch, handle_part(rev_joint(), (1.0, 0.0, 0.0)), 0.0, math.pi / 2, 2)
    expected = np.array([[1.0, 0.0, 0.0],
                         [math.sqrt(2) / 2, math.sqrt(2) / 2, 0.0],
                         [0.0, 1.0, 0.0]])
    assert np.allclose(traj.waypoints, expected, atol=1e-12)
    assert traj.part_id == "p" and traj.goal_delta == math.pi / 2


def test_revolute_first_waypoint_is_grasp(monkeypatch):
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = rng.normal(size=3)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        part = handle_part(rev_joint(axis, rng.normal(size=3)), p)
        traj = trajectory(monkeypatch, part, 0.0, rng.uniform(0.1, math.pi / 2), 7)
        assert np.allclose(traj.waypoints[0], p, atol=1e-15)


def test_revolute_radius_preserved(monkeypatch):
    rng = np.random.default_rng(1)
    for _ in range(100):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        pivot = rng.normal(size=3)
        p = rng.normal(size=3)
        part = handle_part(rev_joint(axis, pivot), p)
        start = rng.uniform(0.0, 0.5)
        traj = trajectory(monkeypatch, part, start, rng.uniform(start + 0.05, math.pi / 2), 10)
        rel = traj.waypoints - pivot
        radial = rel - np.outer(rel @ axis, axis)
        r = np.linalg.norm(radial, axis=1)
        assert np.ptp(r) < 1e-9
        first = rodrigues_rotation(axis, start) @ (p - pivot) + pivot
        assert np.allclose(traj.waypoints[0], first, atol=1e-12)


def test_prismatic_spacing_and_endpoint(monkeypatch):
    part = handle_part(pris_joint(), (0.0, 0.0, 0.0))
    traj = trajectory(monkeypatch, part, 0.0, 0.15, 3)
    assert np.allclose(traj.waypoints[:, 0], [0.0, 0.05, 0.10, 0.15], atol=1e-12)
    diffs = np.diff(traj.waypoints, axis=0)
    assert np.allclose(diffs, diffs[0], atol=1e-12)  # affine in i
    assert np.allclose(traj.waypoints[-1], [0.15, 0, 0], atol=1e-12)
    # from an opened state: the handle starts where that state put it
    traj = trajectory(monkeypatch, part, 0.03, 0.15, 4)
    assert np.allclose(traj.waypoints[:, 0], [0.03, 0.06, 0.09, 0.12, 0.15], atol=1e-12)
    assert traj.goal_delta == pytest.approx(0.12, abs=1e-15)


def test_trajectory_limit_violation(monkeypatch):
    with pytest.raises(LimitViolationError):
        trajectory(monkeypatch, handle_part(pris_joint(), (0, 0, 0)), 0.0, 0.5, 3)
    with pytest.raises(LimitViolationError):
        trajectory(monkeypatch, handle_part(rev_joint(), (1, 0, 0)), 0.0, 2 * math.pi, 3)


def test_waypoint_count_invariant():
    with pytest.raises(ValueError):
        EndEffectorTrajectory("x", np.zeros((5, 3)), 0.1, K=10)


# --- sweeps ------------------------------------------------------------------

def drawer_part():
    shape = aligned_box((0.0, -0.015, 0.5), (0.2, 0.015, 0.12))
    return MobilePart("d", shape, pris_joint((0.0, -1.0, 0.0)), (0.0, -0.03, 0.5))


def door_part():
    shape = aligned_box((0.225, -0.015, 0.45), (0.225, 0.015, 0.3))
    return MobilePart("door", shape, rev_joint((0, 0, 1.0), (0.45, -0.015, 0.45)),
                      (0.05, -0.03, 0.45))


def test_sweep_has_n_configs_from_zero():
    sweep = sample_part_sweep(drawer_part())
    assert len(sweep) == 6
    assert np.allclose(sweep[0].center, drawer_part().shape.center, atol=1e-12)


def test_prismatic_sweep_congruent_colinear():
    part = drawer_part()
    sweep = sample_part_sweep(part)
    centers = np.array([b.center for b in sweep])
    diffs = np.diff(centers, axis=0)
    assert np.allclose(diffs, diffs[0], atol=1e-12)
    d = diffs[0] / np.linalg.norm(diffs[0])
    assert np.allclose(d, [0.0, -1.0, 0.0], atol=1e-12)
    for b in sweep:
        assert np.allclose(b.half_extents, part.shape.half_extents, atol=1e-15)
        assert np.allclose(b.orientation, np.eye(3), atol=1e-12)


def test_revolute_sweep_last_box_rotated_90():
    part = door_part()
    sweep = sample_part_sweep(part)
    rel = sweep[-1].orientation @ sweep[0].orientation.T
    angle = math.acos(np.clip((np.trace(rel) - 1.0) / 2.0, -1.0, 1.0))
    assert angle == pytest.approx(math.pi / 2, abs=1e-12)


def test_collision_check_reports_pair():
    a = aligned_box((0, 0, 0), (0.5, 0.5, 0.5))
    far = aligned_box((5, 0, 0), (0.5, 0.5, 0.5))
    assert check_part_collision([a], []) is None
    assert check_part_collision([a, far], [far]) == (1, 0)


def test_collision_check_reports_the_loops_first_pair():
    box = aligned_box
    sweep = [box((0, 0, 0), (0.2, 0.2, 0.2)), box((3, 0, 0), (0.2, 0.2, 0.2)),
             box((6, 0, 0), (0.2, 0.2, 0.2))]
    env = [box((6, 0.3, 0), (0.2, 0.2, 0.2)), box((9, 0, 0), (0.2, 0.2, 0.2)),
           box((3, 0.3, 0), (0.2, 0.2, 0.2)), box((3, -0.3, 0), (0.2, 0.2, 0.2))]
    # (1, 2), (1, 3) and (2, 0) overlap; column-first order would give (2, 0)
    loop = [(i, j) for i, a in enumerate(sweep) for j, b in enumerate(env)
            if obb_overlaps([a], [b], 0.02)[0, 0]]
    assert loop == [(1, 2), (1, 3), (2, 0)]
    pair = check_part_collision(sweep, env)
    assert pair == (1, 2)
    assert all(type(k) is int for k in pair)  # the pair goes into plan.json


# --- path checks -------------------------------------------------------------

def open_floor_grid():
    base = StaticBaseMap((), (0, 0), (4, 4))
    return nav_grid(KinematicScene(base, ()), SceneState({}))


def test_path_on_empty_grid():
    grid = open_floor_grid()
    assert check_path(grid, (0.5, 0.5, 0.0), (3.5, 3.5, 0.0))


def test_path_blocked_by_full_wall():
    wall = aligned_box((2.0, 2.0, 0.5), (0.1, 2.0, 0.5))
    base = StaticBaseMap((wall,), (0, 0), (4, 4))
    grid = nav_grid(KinematicScene(base, ()), SceneState({}))
    assert not check_path(grid, (0.5, 2.0, 0.0), (3.5, 2.0, 0.0))
    assert check_path(grid, (0.5, 0.5, 0.0), (0.5, 3.5, 0.0))


def test_path_pose_in_occupied_cell_unreachable():
    wall = aligned_box((2.0, 2.0, 0.5), (0.1, 2.0, 0.5))
    base = StaticBaseMap((wall,), (0, 0), (4, 4))
    grid = nav_grid(KinematicScene(base, ()), SceneState({}))
    assert not check_path(grid, (2.0, 2.0, 0.0), (0.5, 0.5, 0.0))


def test_path_into_occupied_cell_blocked_however_close():
    # 1e-6 m apart across a cell edge: np.allclose calls the poses equal,
    # but the second one stands in an occupied cell
    grid = OccupancyGrid(np.zeros(2), 0.1, np.array([[False, True]]))
    a, b = (0.1 - 5e-7, 0.05, 0.0), (0.1 + 5e-7, 0.05, 0.0)
    assert np.allclose(a[:2], b[:2])
    assert grid.cell_of(a[:2]) == (0, 0) and grid.cell_of(b[:2]) == (1, 0)
    assert not check_path(grid, a, b)
    assert check_path(grid, a, a) and not check_path(grid, b, b)


def reference_check_path(grid, from_pose, to_pose):
    """check_path as a breadth-first search from the start cell."""
    start = grid.cell_of(from_pose[:2])
    goal = grid.cell_of(to_pose[:2])
    ny, nx = grid.occupied.shape
    for ix, iy in (start, goal):
        if not (0 <= ix < nx and 0 <= iy < ny) or grid.occupied[iy, ix]:
            return False
    seen = np.zeros((ny, nx), dtype=bool)
    seen[start[1], start[0]] = True
    queue = deque([start])
    while queue:
        cx, cy = queue.popleft()
        if (cx, cy) == goal:
            return True
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            jx, jy = cx + dx, cy + dy
            if 0 <= jx < nx and 0 <= jy < ny and not seen[jy, jx] \
                    and not grid.occupied[jy, jx]:
                seen[jy, jx] = True
                queue.append((jx, jy))
    return False


def _walled_grid(rng):
    """Random grid crossed by walls, each with at most one one-cell gap."""
    ny, nx = (int(v) for v in rng.integers(1, 25, size=2))
    occupied = rng.random((ny, nx)) < rng.choice([0.0, 0.1, 0.3])
    for _ in range(int(rng.integers(0, 4))):
        if rng.random() < 0.5:
            x = int(rng.integers(nx))
            occupied[:, x] = True
            if rng.random() < 0.7:
                occupied[int(rng.integers(ny)), x] = False
        else:
            y = int(rng.integers(ny))
            occupied[y, :] = True
            if rng.random() < 0.7:
                occupied[y, int(rng.integers(nx))] = False
    origin = rng.uniform(-1.0, 1.0, size=2)
    return OccupancyGrid(origin, float(rng.choice([0.05, 0.1, 0.25])), occupied)


def _random_pose(rng, grid):
    """A pose anywhere in or around the grid, often exactly on a cell edge."""
    ny, nx = grid.occupied.shape
    cells = rng.integers(-1, [nx + 1, ny + 1])
    frac = np.where(rng.random(2) < 0.4, 0.0, rng.random(2))
    xy = grid.origin + (cells + frac) * grid.resolution
    return (float(xy[0]), float(xy[1]), float(rng.uniform(-math.pi, math.pi)))


def test_check_path_matches_bfs_reference(monkeypatch):
    labelled = []
    real_labels = sim._region_labels

    def counting_labels(occupied):
        labelled.append(occupied)
        return real_labels(occupied)

    monkeypatch.setattr(sim, "_region_labels", counting_labels)
    rng = np.random.default_rng(13)
    verdicts = Counter()
    compared = 0
    for case in range(200):
        grid = _walled_grid(rng)
        labelled.clear()
        for _ in range(40):
            a = _random_pose(rng, grid)
            kind = int(rng.integers(4))
            if kind == 0:    # the same pose
                b = a
            elif kind == 1:  # another pose in the same cell
                ix, iy = grid.cell_of(a[:2])
                b = tuple(grid.origin + (np.array([ix, iy]) + rng.random(2) * 0.9)
                          * grid.resolution) + (0.0,)
            else:
                b = _random_pose(rng, grid)
            expected = reference_check_path(grid, a, b)
            assert check_path(grid, a, b) == expected, (case, a, b)
            same_cell = grid.cell_of(a[:2]) == grid.cell_of(b[:2])
            free = grid.is_free(a[:2]) and grid.is_free(b[:2])
            verdicts[bool(expected), same_cell, bool(free)] += 1
        # the grid is labelled once, on its first in-grid query
        assert len(labelled) <= 1 and all(o is grid.occupied for o in labelled), case
        # on small grids, every pair of free cells shares a label exactly
        # when the breadth-first search connects them
        ny, nx = grid.occupied.shape
        if nx * ny <= 120:
            cells = [(ix, iy) for iy in range(ny) for ix in range(nx)]
            labels = {c: grid.component(c) for c in cells}
            assert len(labelled) == 1, case
            for c in cells:
                reach = flood_fill_reachable(grid.occupied, c)
                assert (labels[c] is None) == bool(grid.occupied[c[1], c[0]]), (case, c)
                for d in cells:
                    if labels[c] is not None and labels[d] is not None:
                        assert (labels[c] == labels[d]) == bool(reach[d[1], d[0]]), (case, c, d)
                        compared += 1
    # (connected, same cell, both free): each kind of verdict occurs
    assert verdicts[True, True, True] > 0 and verdicts[True, False, True] > 0
    assert verdicts[False, False, True] > 0 and verdicts[False, True, False] > 0
    assert verdicts[False, False, False] > 0
    assert compared > 10_000


# --- base selection ----------------------------------------------------------

def select(monkeypatch, n_samples, sample_range, *args, rng):
    """select_base with planner.N_SAMPLES and planner.SAMPLE_RANGE set."""
    monkeypatch.setattr(planner, "N_SAMPLES", n_samples)
    monkeypatch.setattr(planner, "SAMPLE_RANGE", sample_range)
    return select_base(*args, rng=rng)


def test_select_base_full_coverage():
    scene = KinematicScene(StaticBaseMap((), (0, 0), (4, 4)), ())
    grid = nav_grid(scene, SceneState({}))
    wps = np.column_stack([np.linspace(1.9, 2.1, 11), np.full(11, 2.0),
                           np.full(11, 0.6)])
    traj = EndEffectorTrajectory("p", wps, 0.2, 10)
    arm = RobotState()
    assert planner.N_SAMPLES == 200
    pose, score = select_base(traj, scene, grid, arm, rng=np.random.default_rng(3))
    assert score == 11
    assert all(arm.at(pose).can_reach(w) for w in wps)


def test_select_base_no_free_samples(monkeypatch):
    wall = aligned_box((2.0, 2.0, 0.5), (1.9, 1.9, 0.5))
    scene = KinematicScene(StaticBaseMap((wall,), (0, 0), (4, 4)), ())
    grid = nav_grid(scene, SceneState({}))
    traj = EndEffectorTrajectory("p", np.tile([2.0, 2.0, 0.6], (3, 1)), 0.1, 2)
    with pytest.raises(NoBaseFoundError):
        select(monkeypatch, 50, 0.5, traj, scene, grid, RobotState(),
               rng=np.random.default_rng(0))


def test_select_base_deterministic_and_prefix_monotone(monkeypatch):
    scene = KinematicScene(StaticBaseMap((), (0, 0), (4, 4)), ())
    grid = nav_grid(scene, SceneState({}))
    wps = np.column_stack([np.linspace(1.0, 3.0, 11), np.full(11, 2.0),
                           np.full(11, 0.6)])
    traj = EndEffectorTrajectory("p", wps, 0.2, 10)
    arm = RobotState()
    p1, s1 = select(monkeypatch, 200, planner.SAMPLE_RANGE, traj, scene, grid, arm,
                    rng=np.random.default_rng(9))
    p2, s2 = select(monkeypatch, 200, planner.SAMPLE_RANGE, traj, scene, grid, arm,
                    rng=np.random.default_rng(9))
    assert p1 == p2 and s1 == s2
    _, s_prefix = select(monkeypatch, 50, planner.SAMPLE_RANGE, traj, scene, grid, arm,
                         rng=np.random.default_rng(9))
    assert s1 >= s_prefix


def reference_select_base(trajectory, scene, grid, arm, n_samples, sample_range, rng,
                          counts=None):
    """Sample-by-sample loop kept as the reference for the array scoring in
    select_base, with the scalar math.hypot reach rule. counts, if given,
    receives the number of draws made and of valid samples kept."""
    cxy = trajectory.centroid()[:2]
    best = None  # (-score, distance, index), pose, score
    valid = 0
    draws = 0
    while valid < n_samples and draws < 20 * n_samples:
        draws += 1
        r = sample_range * math.sqrt(rng.random())
        phi = rng.random() * 2.0 * math.pi
        xy = cxy + r * np.array([math.cos(phi), math.sin(phi)])
        on_floor = np.all((xy >= scene.base.floor_min - 1e-12)
                          & (xy <= scene.base.floor_max + 1e-12))
        if not on_floor or not grid.is_free(xy):
            continue
        heading = math.atan2(cxy[1] - xy[1], cxy[0] - xy[0])
        pose = (float(xy[0]), float(xy[1]), heading)
        score = 0
        for w in trajectory.waypoints:
            d = math.hypot(w[0] - pose[0], w[1] - pose[1])
            score += (scene_module.R_MIN <= d <= scene_module.R_MAX
                      and scene_module.Z_MIN <= w[2] <= scene_module.Z_MAX)
        key = (-score, float(np.linalg.norm(xy - cxy)), valid)
        if best is None or key < best[0]:
            best = (key, pose, score)
        valid += 1
    if counts is not None:
        counts.update(draws=draws, valid=valid)
    if best is None:
        raise NoBaseFoundError("no collision-free base sample in range")
    return best[1], best[2]


def test_select_base_matches_loop_reference(monkeypatch):
    rng = np.random.default_rng(2024)
    raised = 0
    regimes = Counter()
    for case in range(300):
        lo, hi = np.zeros(2), rng.uniform(2.0, 4.0, 2)
        obstacles = []
        for _ in range(rng.integers(0, 5)):
            half = rng.uniform(0.05, 0.4, 2)
            c = rng.uniform(lo + half, hi - half)
            obstacles.append(aligned_box((c[0], c[1], 0.5),
                                                      (half[0], half[1], 0.5)))
        scene = KinematicScene(StaticBaseMap(tuple(obstacles), lo, hi), ())
        grid = nav_grid(scene, SceneState({}))
        n_wp = int(rng.integers(2, 12))
        start = rng.uniform(lo, hi)
        wps = np.column_stack([start + np.cumsum(rng.normal(0.0, 0.05, (n_wp, 2)), axis=0),
                               rng.uniform(0.0, 1.4, n_wp)])
        traj = EndEffectorTrajectory("p", wps, 0.1, n_wp - 1)
        r_min = rng.uniform(0.05, 0.5)
        monkeypatch.setattr(scene_module, "R_MIN", r_min)
        monkeypatch.setattr(scene_module, "R_MAX", r_min + rng.uniform(0.1, 1.0))
        arm = RobotState()
        n_samples = int(rng.choice([1, 5, 50, 200]))
        sample_range = rng.uniform(0.2, 2.0)
        counts = {}
        try:
            expected = reference_select_base(traj, scene, grid, arm, n_samples,
                                             sample_range, np.random.default_rng(case),
                                             counts)
        except NoBaseFoundError:
            expected = None
            raised += 1
        # select_base tests the first 8 n draws, then the other 12 n only
        # when fewer than n of the first were free
        if counts["valid"] == n_samples:
            regimes["first block" if counts["draws"] <= 8 * n_samples
                    else "second block"] += 1
        elif counts["valid"]:
            regimes["budget spent"] += 1
        if expected is None:
            with pytest.raises(NoBaseFoundError):
                select(monkeypatch, n_samples, sample_range, traj, scene, grid, arm,
                       rng=np.random.default_rng(case))
        else:
            assert select(monkeypatch, n_samples, sample_range, traj, scene, grid, arm,
                          rng=np.random.default_rng(case)) == expected, case
    assert 0 < raised < 300
    assert set(regimes) == {"first block", "second block", "budget spent"}, regimes


class _Scripted:
    """Generator stand-in whose random() returns a fixed stream in order: one
    number per scalar call, size numbers per array call."""

    def __init__(self, stream):
        self.stream, self.used = list(stream), 0

    def random(self, size=None):
        n = 1 if size is None else size
        out = self.stream[self.used:self.used + n]
        self.used += n
        return out[0] if size is None else np.array(out)


def test_select_base_matches_loop_reference_on_cell_edges_and_floor_slack(monkeypatch):
    """Samples exactly on cell edges, exactly at floor_min - 1e-12 and
    floor_max + 1e-12, and one float past them, on a grid that reaches past
    the floor on every side."""
    lo, hi = np.zeros(2), np.ones(2)
    scene = KinematicScene(StaticBaseMap((), lo, hi), ())
    occupied = np.arange(64).reshape(8, 8) % 5 == 0
    grid = OccupancyGrid(np.full(2, -0.5), 0.25, occupied)
    arm = RobotState()
    # (radius, angle) draws for sample_range 1: radii 0, 0.25, 0.5 and 0.75
    # exactly, angle 0, so every sample sits a whole number of cells east of
    # the centroid, and on its row
    pairs = [(0.0, 0.0), (0.0625, 0.0), (0.25, 0.0), (0.5625, 0.0)]
    slack = [lo[0] - 1e-12, hi[0] + 1e-12]
    past = [np.nextafter(slack[0], -np.inf), np.nextafter(slack[1], np.inf)]
    coords = [-0.25, 0.0, 0.25, 0.5, 0.75, 1.0] + slack + past
    chosen = Counter()
    for cx, cy, n_samples, first in itertools.product(coords, coords, (1, 3), range(4)):
        stream = [u for k in range(20 * n_samples) for u in pairs[(first + k) % 4]]
        traj = EndEffectorTrajectory("p", [[cx, cy, 0.6]] * 2, 0.1, 1)
        assert tuple(traj.centroid()[:2]) == (cx, cy)
        try:
            expected = reference_select_base(traj, scene, grid, arm, n_samples, 1.0,
                                             _Scripted(stream))
        except NoBaseFoundError:
            with pytest.raises(NoBaseFoundError):
                select(monkeypatch, n_samples, 1.0, traj, scene, grid, arm,
                       rng=_Scripted(stream))
            continue
        assert select(monkeypatch, n_samples, 1.0, traj, scene, grid, arm,
                      rng=_Scripted(stream)) == expected, (cx, cy, n_samples, first)
        for v in expected[0][:2]:
            chosen["slack" if v in slack else "past" if v in past else "edge"] += 1
    # bases are chosen on the slack itself but never past it
    assert chosen["slack"] > 0 and chosen["edge"] > 0 and chosen["past"] == 0, chosen


# --- plan_scene --------------------------------------------------------------

def test_single_part_goal_trivial_plan():
    scene, extras = load("minimal_drawer")
    robot = RobotState(base_pose=(1.5, 1.0, math.pi / 2))
    plan = plan_scene(scene, scene.initial_state(), robot, {"drawer_1": 0.15},
                      PlannerConfig(seed=0))
    assert plan.feasible
    assert plan.order() == ["drawer_1"]
    assert plan.steps[0].trajectory.K == 10
    assert validate_plan(scene, scene.initial_state(), robot, plan)


def test_unknown_goal_part_raises():
    scene, _ = load("minimal_drawer")
    with pytest.raises(UnknownPartError):
        plan_scene(scene, scene.initial_state(), RobotState(base_pose=(1.5, 1, 0)),
                   {"nope": 0.1}, PlannerConfig())


def test_candidate_orders_sample_goals_of_more_than_6_parts(monkeypatch):
    ids = [f"part_{i}" for i in (3, 0, 6, 1, 5, 2, 4)]

    def draw(seed):
        return list(planner._candidate_orders(ids, np.random.default_rng([seed, 0xC0FFEE])))

    orders = draw(0)
    assert 100 < len(orders) <= planner.MAX_CANDIDATES
    assert len(set(orders)) == len(orders)
    assert all(type(o) is tuple and sorted(o) == sorted(ids) for o in orders)
    assert draw(0) == orders and draw(1) != orders
    monkeypatch.setattr(planner, "MAX_CANDIDATES", 3)
    assert draw(0) == orders[:3]
    # 6 ids or fewer: every permutation of the sorted ids, whatever the generator
    for n in range(1, 7):
        assert list(planner._candidate_orders(ids[:n], np.random.default_rng(n))) \
            == list(itertools.permutations(sorted(ids[:n])))


from oracles import order_feasible_oracle as oracle_order_feasible


def test_galley_ordering_constraint_matches_oracle():
    scene, robot, goal = plan_inputs("galley_block")
    state = scene.initial_state()
    cfg = PlannerConfig(seed=0)
    verdicts = {}
    for idx, order in enumerate(itertools.permutations(sorted(goal))):
        _, rej = evaluate_candidate_order(scene, state, robot, order, goal, cfg, idx, {})
        verdicts[order] = rej is None
    # exactly the orders opening the island door before the dishwasher work
    for order, ok in verdicts.items():
        expected = order.index("island_door") < order.index("dishwasher")
        assert ok == expected, order
    # independent replay agrees on every ordering
    for order, ok in verdicts.items():
        assert oracle_order_feasible(scene, state, robot, order, goal, cfg) == ok, order


def test_plan_scene_builds_each_step_world_once(monkeypatch):
    scene, robot, goal = plan_inputs("galley_block")
    state = scene.initial_state()
    cfg = PlannerConfig(seed=0)
    # (committed states, ()) per travel grid build (nav_grid), and (committed
    # states, sweep boxes) per standing grid build (with_boxes on a travel grid)
    builds = []
    travel_grids = {}  # id of a travel grid -> its committed states
    real_nav_grid, real_with_boxes = planner.nav_grid, OccupancyGrid.with_boxes

    def counting_nav_grid(scene, state):
        grid = real_nav_grid(scene, state)
        travel_grids[id(grid)] = tuple(sorted(state.joint_states.items()))
        builds.append((travel_grids[id(grid)], ()))
        return grid

    def counting_with_boxes(grid, boxes, *args):
        if id(grid) in travel_grids:
            builds.append((travel_grids[id(grid)], tuple(boxes)))
        return real_with_boxes(grid, boxes, *args)

    monkeypatch.setattr(planner, "nav_grid", counting_nav_grid)
    monkeypatch.setattr(OccupancyGrid, "with_boxes", counting_with_boxes)
    plan = plan_scene(scene, state, robot, goal, cfg)
    shared = len(builds)
    # a standing grid's sweep boxes name the part, so each standing build is
    # one (committed, part) world; the travel grid depends on the committed
    # states alone, and is built once for each whose sweep clears, before
    # the standing grid that is layered on it
    standing = [(states, tuple(map(id, boxes))) for states, boxes in builds if boxes]
    travel = [states for states, boxes in builds if not boxes]
    assert len(standing) == len(set(standing)) == 6
    assert len(travel) == len(set(travel)) == 4
    assert set(travel) == {states for states, _ in standing}
    # a part's inflated sweep boxes are the same read-only objects in every
    # world, so their footprint masks are rasterized once per part
    sweeps = {boxes for _, boxes in standing}
    assert len(sweeps) <= len(goal) < len(standing)
    assert not any(b.half_extents.flags.writeable for _, boxes in builds for b in boxes)
    # evaluating every order on its own, without sharing, agrees
    diagnostics, steps = [], []
    for idx, order in enumerate(itertools.permutations(sorted(goal))):
        steps, rej = evaluate_candidate_order(scene, state, robot, order, goal, cfg, idx, {})
        if rej is None:
            break
        diagnostics.append(rej)
    assert len(diagnostics) == 3
    assert plan.diagnostics == diagnostics
    assert plan_to_json(plan, scene) == plan_to_json(
        InteractionPlan(True, steps, diagnostics), scene)
    assert shared < len(builds) - shared
    # each standing grid equals one with_boxes pass over every box at once
    worlds = {}
    for idx, order in enumerate(itertools.permutations(sorted(goal))):
        if evaluate_candidate_order(scene, state, robot, order, goal, cfg, idx, worlds)[1] is None:
            break
    stepped = [(k, v) for k, v in worlds.items() if len(k) == 2 and isinstance(k[1], str)]
    assert sum(pair is None for _, (pair, _) in stepped) == 6
    for (states, part_id), (pair, grid) in stepped:
        if pair is None:
            boxes = [planner._standing_box(b)
                     for b in planner.sample_part_sweep(scene.part(part_id))]
            full = every_box_at_once(scene, SceneState(dict(states)), boxes)
            assert np.array_equal(grid.occupied, full.occupied), (states, part_id)


def every_box_at_once(scene, state, extra):
    """The grid of nav_grid(scene, state) with the extra boxes rasterized in
    the same with_boxes pass as the scene's own boxes."""
    grid = nav_grid(scene, state)
    boxes = list(scene.base.obstacles) + [scene_module.part_shape_at(p, state.theta(p.id))
                                          for p in scene.parts]
    empty = OccupancyGrid(grid.origin, grid.resolution, np.zeros_like(grid.occupied))
    return empty.with_boxes(boxes + list(extra))


def test_plan_scene_makes_one_sat_pass_per_step_world(monkeypatch):
    """galley_block: each step world is collision-checked in one array pass,
    and each part's mount obstacles are dropped in one pass per plan; there
    is no per-pair SAT to call."""
    scene, robot, goal = plan_inputs("galley_block")
    passes = Counter()

    def counting_overlaps(first, second, margin=0.02):
        passes["mounts" if first is scene.base.obstacles else "sweep"] += 1
        return geometry.obb_overlaps(first, second, margin)

    worlds = []
    real_step_world = planner._step_world

    def counting_step_world(scene, committed, part, travel, obstacles):
        worlds.append((tuple(sorted(committed.items())), part.id))
        return real_step_world(scene, committed, part, travel, obstacles)

    monkeypatch.setattr(planner, "obb_overlaps", counting_overlaps, raising=False)
    assert not hasattr(planner, "obb_intersects")  # no per-pair SAT to call
    assert not hasattr(geometry, "obb_intersects")
    monkeypatch.setattr(planner, "_step_world", counting_step_world)
    plan = plan_scene(scene, scene.initial_state(), robot, goal, PlannerConfig(seed=0))
    assert plan.feasible and len(plan.diagnostics) == 3
    assert len(worlds) == len(set(worlds)) > 0
    parts = {part_id for _, part_id in worlds}
    assert len(worlds) == 8 and len(parts) == 3
    assert passes == {"sweep": len(worlds), "mounts": len(parts)}


def test_plan_scene_builds_each_trajectory_once(monkeypatch):
    """facing_panels, whose 24 orders are all rejected: each (part, start,
    goal) trajectory is built once per plan and shared read-only, and it
    equals a fresh build."""
    scene, robot, goal = plan_inputs("facing_panels", DATA)
    built, used = {}, []
    real_trajectory, real_select_base = planner.part_trajectory, planner.select_base

    def counting_trajectory(part, theta_start, theta_goal):
        key = (part.id, theta_start, theta_goal)
        assert key not in built, key
        built[key] = real_trajectory(part, theta_start, theta_goal)
        return built[key]

    def recording_select_base(trajectory, *args, **kwargs):
        used.append(trajectory)
        return real_select_base(trajectory, *args, **kwargs)

    monkeypatch.setattr(planner, "part_trajectory", counting_trajectory)
    monkeypatch.setattr(planner, "select_base", recording_select_base)
    state = scene.initial_state()
    plan = plan_scene(scene, state, robot, goal, PlannerConfig(seed=0))
    assert not plan.feasible and len(plan.diagnostics) == 24
    assert 0 < len(built) <= len(goal) < len(used)
    assert {id(t) for t in used} == {id(t) for t in built.values()}
    for (part_id, theta_start, theta_goal), trajectory in built.items():
        with pytest.raises(ValueError, match="read-only"):
            trajectory.waypoints[0, 0] = 0.0
        fresh = real_trajectory(scene.part(part_id), theta_start, theta_goal)
        assert np.array_equal(trajectory.waypoints, fresh.waypoints)
        assert (trajectory.part_id, trajectory.goal_delta, trajectory.K) == \
            (fresh.part_id, fresh.goal_delta, fresh.K)
    # evaluating every order on its own, without sharing, agrees
    monkeypatch.setattr(planner, "part_trajectory", real_trajectory)
    assert plan.diagnostics == [
        evaluate_candidate_order(scene, state, robot, order, goal, PlannerConfig(seed=0), idx,
                                 {})[1]
        for idx, order in enumerate(itertools.permutations(sorted(goal)))]


def test_galley_plan_feasible_and_validates():
    scene, robot, goal = plan_inputs("galley_block")
    state = scene.initial_state()
    plan = plan_scene(scene, state, robot, goal, PlannerConfig(seed=0))
    assert plan.feasible
    assert plan.order().index("island_door") < plan.order().index("dishwasher")
    assert validate_plan(scene, state, robot, plan)


def test_blocked_aisle_dishwasher_planned_last():
    scene, robot, goal = plan_inputs("blocked_aisle")
    state = scene.initial_state()
    for seed in range(5):
        plan = plan_scene(scene, state, robot, goal, PlannerConfig(seed=seed))
        assert plan.feasible
        assert plan.order()[-1] == "dishwasher"
        assert validate_plan(scene, state, robot, plan, PlannerConfig(seed=seed))
    # the rejected ordering is genuinely blocked: flood fill confirms
    cfg = PlannerConfig(seed=0)
    steps, rej = evaluate_candidate_order(scene, state, robot,
                                          ("dishwasher", "east_drawer"), goal, cfg, 0, {})
    assert rej is not None and rej["reason"] == "path-blocked"
    committed = state.with_theta("dishwasher", goal["dishwasher"])
    grid = nav_grid(scene, committed)
    reach = flood_fill_reachable(grid.occupied, grid.cell_of(rej["from"]))
    gx, gy = grid.cell_of(rej["to"])
    assert not reach[gy, gx]


def test_infeasible_goal_returns_diagnostics():
    # a free-standing pillar sits in the drawer's pull path (clear of the
    # closed shape, so it is not excluded as the drawer's own cabinet)
    pillar = aligned_box((1.5, 2.38, 0.5), (0.3, 0.08, 0.5))
    body = aligned_box((1.5, 2.75, 0.45), (0.5, 0.2, 0.45))
    base = StaticBaseMap((pillar, body), (0, 0), (3, 3))
    drawer = MobilePart(
        "d", aligned_box((1.5, 2.535, 0.5), (0.2, 0.015, 0.12)),
        pris_joint((0.0, -1.0, 0.0)), (1.5, 2.52, 0.5))
    scene = KinematicScene(base, (drawer,))
    robot = RobotState(base_pose=(1.5, 1.0, math.pi / 2))
    plan = plan_scene(scene, scene.initial_state(), robot, {"d": 0.15},
                      PlannerConfig(seed=0))
    assert not plan.feasible
    assert plan.steps == []
    assert plan.diagnostics
    assert plan.diagnostics[0]["reason"] == "part-collision"
    # the exhaustive oracle also finds no feasible ordering
    assert not oracle_order_feasible(scene, scene.initial_state(), robot,
                                     ("d",), {"d": 0.15}, PlannerConfig(seed=0))


def test_kitchen_goal_plans_with_full_reach():
    scene, robot, goal = plan_inputs("kitchen")
    plan = plan_scene(scene, scene.initial_state(), robot, goal, PlannerConfig(seed=0))
    assert plan.feasible
    assert sorted(plan.order()) == sorted(goal)
    for step in plan.steps:
        assert step.reach_count == step.trajectory.K + 1
    assert validate_plan(scene, scene.initial_state(), robot, plan)


def test_plan_json_byte_stable(tmp_path):
    scene, robot, goal = plan_inputs("blocked_aisle")
    plan = plan_scene(scene, scene.initial_state(), robot, goal, PlannerConfig(seed=3))
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    write_plan(plan, scene, p1)
    plan2 = plan_scene(scene, scene.initial_state(), robot, goal, PlannerConfig(seed=3))
    write_plan(plan2, scene, p2)
    assert p1.read_bytes() == p2.read_bytes()
