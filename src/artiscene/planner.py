"""Scene-level manipulation planning: trajectory synthesis, swept-volume and
path feasibility, base placement, and interaction-order search."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NoBaseFoundError
from .geometry import obb_overlaps
from .scene import (REVOLUTE, KinematicScene, MobilePart, RobotState, SceneState,
                    part_pose_at, part_shape_at)
from .sim import OccupancyGrid, nav_grid

K = 10                  # trajectory segments: K + 1 waypoints per step
N_CONFIGS = 6           # sweep samples from closed to the joint maximum
N_SAMPLES = 200         # valid base samples drawn per step
SAMPLE_RANGE = 1.2      # base sampling disc radius around the trajectory, meters
MARGIN = 0.02           # box clearance in the sweep collision check, meters
STANDING_MARGIN = 0.05  # extra sweep clearance for base placement, meters
MAX_CANDIDATES = 120    # orders sampled when a goal has more than 6 parts


@dataclass(frozen=True)
class EndEffectorTrajectory:
    """K+1 evenly sampled end-effector positions actuating one joint."""

    part_id: str
    waypoints: np.ndarray  # (K+1, 3)
    goal_delta: float
    K: int

    def __post_init__(self):
        w = np.asarray(self.waypoints, dtype=float).reshape(-1, 3)
        if w.shape[0] != self.K + 1:
            raise ValueError("waypoint count must be K+1")
        object.__setattr__(self, "waypoints", w)

    def centroid(self) -> np.ndarray:
        return self.waypoints.mean(axis=0)


def part_trajectory(part: MobilePart, theta_start: float,
                    theta_goal: float) -> EndEffectorTrajectory:
    """The handle posed by part_pose_at at K+1 evenly spaced joint states
    from theta_start to theta_goal; a state past the joint limits raises
    LimitViolationError."""
    delta = theta_goal - theta_start
    wps = [part_pose_at(part, theta_start + i * delta / K).apply(part.handle)
           for i in range(K + 1)]
    return EndEffectorTrajectory(part.id, np.asarray(wps), delta, K)


def sample_part_sweep(part: MobilePart) -> list:
    """Part boxes at N_CONFIGS states interpolated from zero to the maximum."""
    theta_max = part.joint.max_state()
    return [part_shape_at(part, j * theta_max / (N_CONFIGS - 1))
            for j in range(N_CONFIGS)]


def check_part_collision(candidate_sweep, environment):
    """First (sweep, environment) box pair that overlaps with MARGIN, in
    row-major order, or None."""
    hits = np.argwhere(obb_overlaps(candidate_sweep, environment, MARGIN))
    return (int(hits[0, 0]), int(hits[0, 1])) if len(hits) else None


def check_path(grid: OccupancyGrid, from_pose, to_pose) -> bool:
    """4-connected free path between two poses on the inflated grid."""
    start = grid.component(grid.cell_of(from_pose[:2]))
    return start is not None and start == grid.component(grid.cell_of(to_pose[:2]))


def select_base(trajectory: EndEffectorTrajectory, scene: KinematicScene,
                grid: OccupancyGrid, arm: RobotState, *, rng: np.random.Generator):
    """Sampled base pose reaching the most trajectory waypoints.

    Draws poses uniformly in the SAMPLE_RANGE disc around the trajectory
    centroid, keeps the first n = N_SAMPLES collision-free ones of at most
    20 * n draws, scores each by waypoints inside the reach annulus and
    height band, and returns the argmax (ties: nearest the centroid, then
    lowest sample index); NoBaseFoundError when no valid sample appears.

    The (radius, angle) draws are rng.random(16 * n), then, only while
    fewer than n were free, rng.random(24 * n): one rng.random(40 * n)
    call's numbers, a float64 taking one word of the stream; no caller
    reads the generator afterwards. Each block is
    tested for free floor in one pass. Samples are scored nearest first, and
    one of the 16 nearest that reaches every waypoint ends the scoring. The
    reach test is RobotState.reach_mask, whose math.hypot fallback keeps the
    verdict at the annulus edges equal to the scalar can_reach.
    """
    cxy = trajectory.centroid()[:2]
    lo, hi = scene.base.floor_min - 1e-12, scene.base.floor_max + 1e-12
    blocks = []
    for n_draws in (16 * N_SAMPLES, 24 * N_SAMPLES):
        u = rng.random(n_draws)
        r = SAMPLE_RANGE * np.sqrt(u[0::2])
        phi = u[1::2] * 2.0 * math.pi
        x = cxy[0] + r * np.cos(phi)
        y = cxy[1] + r * np.sin(phi)
        ok = grid.free_at(x, y) & (lo[0] <= x) & (x <= hi[0]) & (lo[1] <= y) & (y <= hi[1])
        blocks.append((x[ok], y[ok]))
        if len(blocks[0][0]) >= N_SAMPLES:
            break
    x, y = (np.concatenate(v)[:N_SAMPLES] for v in zip(*blocks))
    if len(x) == 0:
        raise NoBaseFoundError("no collision-free base sample in range")
    dx, dy = x - cxy[0], y - cxy[1]
    near = np.argsort(np.sqrt(dx * dx + dy * dy), kind="stable")  # np.linalg.norm's arithmetic
    w = trajectory.waypoints
    for idx in (near[:16], near):
        score = arm.reach_mask(w, bases=np.column_stack((x[idx], y[idx]))).sum(axis=1)
        j = int(np.argmax(score))
        if score[j] == len(w):
            break
    x, y = float(x[idx[j]]), float(y[idx[j]])
    return (x, y, math.atan2(cxy[1] - y, cxy[0] - x)), int(score[j])


@dataclass(frozen=True)
class PlannerConfig:
    seed: int = 0


@dataclass
class PlanStep:
    part_id: str
    goal: float
    base_pose: tuple
    trajectory: EndEffectorTrajectory
    reach_count: int


@dataclass
class InteractionPlan:
    feasible: bool
    steps: list
    diagnostics: list = field(default_factory=list)

    def order(self) -> list:
        return [s.part_id for s in self.steps]


def _unmounted_obstacles(scene: KinematicScene, active_id: str) -> list:
    """The base obstacles except the cabinet the part is mounted on (its
    closed shape touches it within MARGIN); they depend on the part alone."""
    closed = scene.part(active_id).shape
    mounts = obb_overlaps(scene.base.obstacles, [closed], MARGIN)[:, 0]
    return [b for b, mount in zip(scene.base.obstacles, mounts) if not mount]


def _environment_boxes(scene: KinematicScene, committed: dict, active_id: str,
                       obstacles: list) -> list:
    """Collision environment for one part's sweep: its unmounted obstacles,
    plus every other part at its committed state."""
    return list(obstacles) + [part_shape_at(p, committed[p.id])
                              for p in scene.parts if p.id != active_id]


def _standing_box(box):
    """box inflated by STANDING_MARGIN. A posed sweep box is shared, so the
    inflated box is made once and kept, read-only, in its memo, and so is
    every footprint mask nav_grid rasterizes for it."""
    standing = box.memo.get("standing")
    if standing is None:
        standing = box.inflated(STANDING_MARGIN)
        standing.half_extents.flags.writeable = False
        box.memo["standing"] = standing
    return standing


def _step_world(scene: KinematicScene, committed: dict, part: MobilePart,
                travel: dict, obstacles: list):
    """Collision-check one step's sweep, then build its standing grid.

    Returns (colliding pair, None) when the sweep hits the committed
    environment, so a rejected step builds no grid; otherwise (None, the
    committed state's travel grid, from travel by sorted committed states or
    built and kept there, with the inflated sweep boxes added). obstacles
    are the part's _unmounted_obstacles.
    """
    sweep = sample_part_sweep(part)
    env = _environment_boxes(scene, committed, part.id, obstacles)
    pair = check_part_collision(sweep, env)
    if pair is not None:
        return pair, None
    states = tuple(sorted(committed.items()))
    if states not in travel:
        travel[states] = nav_grid(scene, SceneState(committed))
    return None, travel[states].with_boxes([_standing_box(b) for b in sweep])


def evaluate_candidate_order(scene: KinematicScene, state: SceneState,
                             robot: RobotState, order, goal: dict,
                             config: PlannerConfig, candidate_idx: int, worlds: dict):
    """Simulate committing the order step by step.

    Per step: the part's sweep is collision-checked against the committed
    environment, a base is selected clear of the sweep, and the travel from
    the previous base is path-checked on the pre-step grid. Returns
    (steps, None) on success or (None, diagnostic dict) on the first rejection.

    worlds holds what the orders of one plan share, so each is built once
    per plan: a part id maps to its unmounted obstacles, the sorted committed
    states to their travel grid (built when a sweep clears), (states, part
    id) to the step's _step_world result, and (part id, start, goal) to the
    part's trajectory, its waypoints read-only; an empty dict shares
    nothing. Base selection is not shared: its generator is keyed on
    candidate_idx, and sharing it would re-roll bases and change every
    pinned digest.
    """
    committed = dict(state.joint_states)
    prev_pose = robot.base_pose
    steps = []
    for step_idx, part_id in enumerate(order):
        part = scene.part(part_id)
        theta_start = committed[part_id]
        theta_goal = goal[part_id]
        if theta_goal <= theta_start + 1e-12:
            continue
        states = tuple(sorted(committed.items()))
        if (states, part_id) not in worlds:
            if part_id not in worlds:
                worlds[part_id] = _unmounted_obstacles(scene, part_id)
            worlds[states, part_id] = _step_world(scene, committed, part, worlds,
                                                  worlds[part_id])
        pair, standing_grid = worlds[states, part_id]
        if pair is not None:
            return None, {"order": list(order), "step": part_id,
                          "reason": "part-collision",
                          "sweep_config": pair[0], "environment_box": pair[1]}
        key = part_id, theta_start, theta_goal
        if key not in worlds:
            worlds[key] = part_trajectory(part, theta_start, theta_goal)
            worlds[key].waypoints.flags.writeable = False
        trajectory = worlds[key]
        rng = np.random.default_rng([config.seed, candidate_idx, step_idx])
        try:
            base_pose, reach = select_base(trajectory, scene, standing_grid, robot, rng=rng)
        except NoBaseFoundError:
            return None, {"order": list(order), "step": part_id,
                          "reason": "unreachable"}
        if not check_path(worlds[states], prev_pose, base_pose):
            return None, {"order": list(order), "step": part_id,
                          "reason": "path-blocked",
                          "from": list(prev_pose[:2]), "to": list(base_pose[:2])}
        steps.append(PlanStep(part_id, theta_goal, base_pose, trajectory, reach))
        committed[part_id] = theta_goal
        prev_pose = base_pose
    return steps, None


def _candidate_orders(part_ids, rng: np.random.Generator):
    """Every permutation of the sorted ids when there are at most 6, else the
    distinct ones among MAX_CANDIDATES drawn from rng."""
    ids = sorted(part_ids)
    if len(ids) <= 6:
        yield from itertools.permutations(ids)
        return
    seen = set()
    for _ in range(MAX_CANDIDATES):
        order = tuple(rng.permutation(ids).tolist())
        if order not in seen:
            seen.add(order)
            yield order


def plan_scene(scene: KinematicScene, state: SceneState, robot: RobotState,
               goal: dict, config: PlannerConfig) -> InteractionPlan:
    """Search interaction orders and return the first fully feasible plan.

    Orderings are exhaustive for up to 6 goal parts, sampled otherwise.
    Infeasibility is a result (feasible=False with per-candidate diagnostics),
    not an error.
    """
    for part_id in goal:
        scene.part(part_id)  # raises UnknownPartError
    rng = np.random.default_rng([config.seed, 0xC0FFEE])
    diagnostics = []
    worlds = {}
    for idx, order in enumerate(_candidate_orders(goal.keys(), rng)):
        steps, rejection = evaluate_candidate_order(scene, state, robot, order,
                                                    goal, config, idx, worlds)
        if rejection is None:
            return InteractionPlan(True, steps, diagnostics)
        diagnostics.append(rejection)
    return InteractionPlan(False, [], diagnostics)


def validate_plan(scene: KinematicScene, state: SceneState, robot: RobotState,
                  plan: InteractionPlan, config: PlannerConfig | None = None) -> bool:
    """Re-run collision and path checks from scratch against a finished plan.

    The checks use no planner setting; config is accepted and ignored."""
    committed = dict(state.joint_states)
    prev_pose = robot.base_pose
    travel = {}
    for step in plan.steps:
        pair, standing_grid = _step_world(scene, committed, scene.part(step.part_id), travel,
                                          _unmounted_obstacles(scene, step.part_id))
        if pair is not None or not standing_grid.is_free(step.base_pose[:2]):
            return False
        reach = robot.at(step.base_pose).reach_mask(step.trajectory.waypoints)
        if int(reach.sum()) != step.reach_count:
            return False
        if not check_path(travel[tuple(sorted(committed.items()))], prev_pose, step.base_pose):
            return False
        committed[step.part_id] = step.goal
        prev_pose = step.base_pose
    return True


# --- plan serialization ------------------------------------------------------

def _sig9(x: float) -> float:
    return float(f"{float(x):.9g}")


def plan_to_json(plan: InteractionPlan, scene: KinematicScene) -> dict:
    steps = []
    for s in plan.steps:
        kind = scene.part(s.part_id).joint.kind
        goal_field = ("goal_deg", _sig9(math.degrees(s.goal))) if kind == REVOLUTE \
            else ("goal_m", _sig9(s.goal))
        steps.append({
            "part_id": s.part_id,
            goal_field[0]: goal_field[1],
            "base_pose": {"x": _sig9(s.base_pose[0]), "y": _sig9(s.base_pose[1]),
                          "heading_deg": _sig9(math.degrees(s.base_pose[2]))},
            "waypoints": [[_sig9(v) for v in w] for w in s.trajectory.waypoints],
            "reach_count": s.reach_count,
        })
    return {"feasible": plan.feasible, "steps": steps,
            "diagnostics": plan.diagnostics}


def write_plan(plan: InteractionPlan, scene: KinematicScene, path) -> None:
    with open(path, "w") as f:
        json.dump(plan_to_json(plan, scene), f, indent=2)
        f.write("\n")
