"""Articulation discovery: visit handles, pull along estimated normals under
unknown kinematics, detect failures, reposition, and emit pre/post
observation pairs for the estimator."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (GraspFailureError, InvalidViewpointError, NoActionError,
                     RepositionFailedError)
from .geometry import (MOTION_TAU, DegenerateGeometryError, PointCloud,
                       consensus_plane_normal, erode_isolated, plane_normal, unit)
from .scene import KinematicScene, RobotState, SceneState, handle_at
from .sim import (EYE_HEIGHT, GRASP_TOLERANCE, Observation, OccupancyGrid,
                  SimConfig, arm_blocked, attempt_pull, discard_pending_draw,
                  nav_grid, render_observation)

REVOLUTE_LEFT = "revolute-left"
REVOLUTE_RIGHT = "revolute-right"
PRISMATIC_KIND = "prismatic"
UNKNOWN = "unknown"

FAILURE_THRESHOLD = 0.02       # chamfer displacement, meters
REPOSITION_DISTANCE = 0.30     # base-to-hotspot distance after a failure
SNAP_RADIUS = 0.50             # farthest free cell a reposition target snaps to
RETREAT_DISTANCE = 0.50        # backoff before the post observation
APPROACH_DISTANCE = 0.55       # initial stand-off in front of a handle
OBSERVATION_RADIUS = 0.30      # crop radius around the interaction site
LOCAL_RADIUS = 0.15            # compliance-normal neighborhood
MIN_LOCAL_POINTS = 20          # fewest neighborhood points for a compliance normal
GRACE_STEPS = 12               # pulls before the displacement check applies
STALL_BREAK = 6                # consecutive no-advance pulls ending an attempt
CLASSIFY_THRESHOLD = math.radians(5.0)  # normal rotation above which a joint is revolute
MAX_STEPS = 25                 # micro-interactions per attempt
MAX_ATTEMPTS = 3               # attempts per handle


@dataclass(frozen=True)
class Handle:
    label: str
    position: np.ndarray


@dataclass
class ExplorationRecord:
    part_id: str
    pre: Observation | None
    post: Observation | None
    attempts_used: int
    classified_kind: str
    succeeded: bool
    failure_stage: str | None = None  # navigation | manipulation, when failed
    displacement: float = 0.0


@dataclass
class ExplorationResult:
    records: list
    events: list
    final_state: SceneState


def _compliance_action(obs: Observation, grasp) -> np.ndarray:
    """Pull direction from the local surface normal around the grasp.

    Fits a plane to the points within the compliance neighborhood and returns
    its normal oriented toward the viewpoint (outward). For both drawer fronts
    and door faces this is the direction the part can move.
    """
    g = np.asarray(grasp, dtype=float).reshape(3)
    d2 = np.sum((obs.cloud.points - g) ** 2, axis=1)
    neigh = obs.cloud.points[d2 <= LOCAL_RADIUS * LOCAL_RADIUS]
    if neigh.shape[0] < MIN_LOCAL_POINTS:
        raise NoActionError(
            f"only {neigh.shape[0]} points within {LOCAL_RADIUS} m of the grasp")
    try:
        return consensus_plane_normal(PointCloud(neigh), viewpoint=obs.viewpoint,
                                      min_points=max(MIN_LOCAL_POINTS // 2, 3))
    except DegenerateGeometryError as e:
        raise NoActionError(str(e)) from e


def detect_failure(pre: Observation, current: Observation) -> bool:
    """Failure iff the clouds moved less than FAILURE_THRESHOLD (strict):
    exactly 0.5 * (m_pre + m_cur) < FAILURE_THRESHOLD, the symmetric chamfer
    distance of the mean _nearest_distances of the pre and current clouds.

    The current cloud is first queried against the pre cloud's tree, which
    every check of an attempt shares. Both means are >= 0 and rounding is
    monotone, so 0.5 * m_cur >= FAILURE_THRESHOLD proves no failure; only
    otherwise is the current cloud given a tree and the pre cloud queried
    against it."""
    m_cur = float(pre.cloud.kdtree.query(current.cloud.points)[0].mean())
    if 0.5 * m_cur >= FAILURE_THRESHOLD:
        return False
    m_pre = float(current.cloud.kdtree.query(pre.cloud.points)[0].mean())
    return 0.5 * (m_pre + m_cur) < FAILURE_THRESHOLD


def _nearest_distances(pre: Observation, current: Observation) -> tuple:
    """Each cloud's per-point distances to the other: (pre's, current's)."""
    return (current.cloud.kdtree.query(pre.cloud.points)[0],
            pre.cloud.kdtree.query(current.cloud.points)[0])


def classify_joint(pre: Observation, current: Observation) -> str:
    """Joint type from the rotation between displaced-subset plane normals:
    prismatic up to CLASSIFY_THRESHOLD, revolute above it.

    Counterclockwise rotation seen from above (about world +z) is 'left'.
    Returns 'unknown' when either displaced subset is too small or degenerate.
    """
    return _classify(pre, current, _nearest_distances(pre, current))


def _classify(pre: Observation, current: Observation, distances: tuple) -> str:
    """classify_joint on the pair's _nearest_distances; the displaced subsets
    are eroded to drop isolated flicker (dropout and crop-boundary noise)."""
    moved_pre, moved_cur = (o.cloud.points[erode_isolated(o.cloud, d > MOTION_TAU)]
                            for o, d in zip((pre, current), distances))
    if moved_pre.shape[0] < 3 or moved_cur.shape[0] < 3:
        return UNKNOWN
    try:
        n_pre = plane_normal(moved_pre, viewpoint=pre.viewpoint)
        n_cur = plane_normal(moved_cur, viewpoint=current.viewpoint)
    except DegenerateGeometryError:
        return UNKNOWN
    angle = math.acos(float(np.clip(n_pre @ n_cur, -1.0, 1.0)))
    if angle <= CLASSIFY_THRESHOLD:
        return PRISMATIC_KIND
    side = float(np.cross(n_pre, n_cur)[2])
    return REVOLUTE_LEFT if side >= 0.0 else REVOLUTE_RIGHT


def reposition_base(kind: str, hotspot, robot: RobotState, grid: OccupancyGrid) -> tuple:
    """New base pose after a failed attempt, REPOSITION_DISTANCE from the
    hotspot.

    Revolute: step diagonally back and to the side the handle is heading
    toward (the rotation side). Prismatic: retreat straight back from the
    hotspot. The pose snaps to the nearest free grid cell within SNAP_RADIUS.
    """
    h = np.asarray(hotspot, dtype=float).reshape(3)
    bx, by, _ = robot.base_pose
    f = unit(np.array([h[0] - bx, h[1] - by]))
    back = -f
    if kind == REVOLUTE_LEFT:
        lateral = np.array([-back[1], back[0]])  # 90 degrees counterclockwise of back
        direction = unit(back + lateral)
    elif kind == REVOLUTE_RIGHT:
        lateral = np.array([back[1], -back[0]])
        direction = unit(back + lateral)
    elif kind in (PRISMATIC_KIND, UNKNOWN):
        direction = back
    else:
        raise ValueError(f"unknown joint kind {kind!r}")
    target = grid.nearest_free(h[:2] + direction * REPOSITION_DISTANCE, SNAP_RADIUS)
    if target is None:
        raise RepositionFailedError(
            f"no free cell within {SNAP_RADIUS} m of the reposition target")
    heading = math.atan2(h[1] - target[1], h[0] - target[0])
    return (float(target[0]), float(target[1]), heading)


def resolve_grasped_part(scene: KinematicScene, state: SceneState, point) -> str | None:
    """Part whose current handle is close enough to grasp at the given point."""
    p = np.asarray(point, dtype=float).reshape(3)
    best = None
    best_d = GRASP_TOLERANCE
    for part in scene.parts:
        d = float(np.linalg.norm(handle_at(part, state.theta(part.id)) - p))
        if d <= best_d:
            best = part.id
            best_d = d
    return best


def _outward_normal_xy(box, point) -> np.ndarray | None:
    """Horizontal outward normal of the box face nearest to a surface point."""
    local = box.orientation.T @ (np.asarray(point, dtype=float) - box.center)
    slack = box.half_extents - np.abs(local)
    i = int(np.argmin(slack))
    normal = np.sign(local[i]) * box.orientation[:, i] if local[i] != 0 \
        else box.orientation[:, i]
    xy = normal[:2]
    n = np.linalg.norm(xy)
    return xy / n if n > 1e-6 else None


def _approach_pose(scene: KinematicScene, grid: OccupancyGrid, hotspot):
    """Stand APPROACH_DISTANCE in front of the handle, along the nearest
    face normal."""
    h = np.asarray(hotspot, dtype=float).reshape(3)
    boxes = list(scene.base.obstacles) + [p.shape for p in scene.parts]
    out = None
    if boxes:
        nearest = min(boxes, key=lambda b: b.distance_to_point(h))
        out = _outward_normal_xy(nearest, h)
    if out is None:
        out = np.array([0.0, -1.0])
    target = grid.nearest_free(h[:2] + out * APPROACH_DISTANCE, 1.0)
    if target is None:
        return None
    heading = math.atan2(h[1] - target[1], h[0] - target[0])
    return (float(target[0]), float(target[1]), heading)


def _log(events: list, event: str, **fields):
    """Append to the deterministic exploration log; time is the event's index,
    not wall clock."""
    events.append({"t": len(events), "event": event, **fields})


def explore_scene(scene: KinematicScene, sim_config: SimConfig, handles=None, *,
                  robot: RobotState, rng: np.random.Generator) -> ExplorationResult:
    """Run the discovery stage over every handle and collect observation pairs.

    Per handle: stand in front of it, take a pre observation, pull along the
    estimated surface normal up to MAX_STEPS times, reposition and retry on
    detected failures (up to MAX_ATTEMPTS), then retreat and take the post
    observation. Joint parameters are never touched, only joint states.
    """
    if handles is None:
        handles = [Handle(p.id, p.handle) for p in scene.parts]
    state = scene.initial_state()
    events: list = []
    records = []

    try:
        for hd in handles:
            record, state = _explore_handle(scene, state, hd, sim_config, robot, rng, events)
            records.append(record)
    finally:  # no generator or noise array outlives the run
        discard_pending_draw()

    return ExplorationResult(records, events, state)


def _observe(scene, state, viewpoint, hotspot, center, sim_config, rng):
    """Observation of the OBSERVATION_RADIUS sphere around a fixed
    interaction-site center, or None when that region is empty (e.g. a handle
    annotated in free space) or otherwise unobservable.

    One crop center per handle makes the static content of successive
    observations coincide, so apparent displacement comes from real motion
    only, and lets every box that did not move take its visible faces and
    crop window from its memo. The renderer draws the noise for the whole
    visible scene, so the generator stream, and with it every later
    observation, does not depend on the crop."""
    try:
        return render_observation(scene, state, viewpoint, sim_config, rng,
                                  hotspot=hotspot, crop=(center, OBSERVATION_RADIUS))
    except (ValueError, InvalidViewpointError):
        return None


def _pose_to_list(pose) -> list:
    return [round(float(v), 6) for v in pose]


def _explore_handle(scene, state, hd: Handle, sim_config, robot, rng, events):
    grid = nav_grid(scene, state)
    part_id = resolve_grasped_part(scene, state, hd.position)
    hotspot0 = _current_hotspot(scene, state, part_id, hd)

    pose = _approach_pose(scene, grid, hotspot0)
    if pose is None:
        _log(events, "navigate-failed", handle=hd.label)
        return ExplorationRecord(hd.label, None, None, 0, UNKNOWN, False,
                                 failure_stage="navigation"), state
    _log(events, "navigate", handle=hd.label, base=_pose_to_list(pose))
    _log(events, "grasp", handle=hd.label, part=part_id,
                 hotspot=[round(float(v), 6) for v in hotspot0])
    robot = robot.at(pose)
    viewpoint = np.array([pose[0], pose[1], EYE_HEIGHT])

    site = hotspot0.copy()
    pre = _observe(scene, state, viewpoint, hotspot0, site, sim_config, rng)
    _log(events, "observe", handle=hd.label, phase="pre",
                 points=len(pre.cloud) if pre else 0)

    classified = UNKNOWN
    completed = None  # the last observation of a completed attempt
    attempts = 0
    while True:
        attempts += 1
        attempt_pre = _observe(scene, state, viewpoint,
                               _current_hotspot(scene, state, part_id, hd),
                               site, sim_config, rng)
        if attempt_pre is None:
            _log(events, "observe-failed", handle=hd.label, attempt=attempts)
        else:
            state, completed, classified = _run_attempt(
                scene, state, hd, part_id, attempt_pre, pre, site, robot,
                viewpoint, sim_config, rng, events, classified)
        if completed is not None:
            break
        if attempts >= MAX_ATTEMPTS:
            _log(events, "attempts-exhausted", handle=hd.label, attempts=attempts)
            break
        # reposition and retry
        grid = nav_grid(scene, state)
        hotspot = _current_hotspot(scene, state, part_id, hd)
        try:
            pose = reposition_base(classified, hotspot, robot, grid)
        except RepositionFailedError:
            _log(events, "reposition-failed", handle=hd.label)
            attempts = MAX_ATTEMPTS
            break
        _log(events, "reposition", handle=hd.label, kind=classified, base=_pose_to_list(pose))
        robot = robot.at(pose)
        viewpoint = np.array([pose[0], pose[1], EYE_HEIGHT])

    # retreat, then the post observation
    hotspot = _current_hotspot(scene, state, part_id, hd)
    bx, by, heading = robot.base_pose
    away = np.array([bx - hotspot[0], by - hotspot[1]])
    n = np.linalg.norm(away)
    away = away / n if n > 1e-9 else np.array([0.0, -1.0])
    grid = nav_grid(scene, state)
    target = grid.nearest_free(np.array([bx, by]) + away * RETREAT_DISTANCE, 1.0)
    if target is None:
        target = np.array([bx, by])
    viewpoint = np.array([target[0], target[1], EYE_HEIGHT])
    _log(events, "retreat", handle=hd.label, base=_pose_to_list((target[0], target[1], heading)))
    post = _observe(scene, state, viewpoint, hotspot, site, sim_config, rng)
    _log(events, "observe", handle=hd.label, phase="post",
                 points=len(post.cloud) if post else 0)

    if pre is not None and post is not None:
        # the symmetric chamfer distance, and the kind, from one query each way
        distances = _nearest_distances(pre, post)
        displacement = 0.5 * (float(distances[0].mean()) + float(distances[1].mean()))
        final_kind = _classify(pre, post, distances)
    else:
        displacement = 0.0
        final_kind = UNKNOWN
    if final_kind == UNKNOWN:
        # a completed attempt is classified only when the record falls back on it
        final_kind = classified if completed is None \
            else _maybe_classify(pre, completed, classified)
    succeeded = completed is not None and displacement >= FAILURE_THRESHOLD
    record = ExplorationRecord(
        part_id=hd.label, pre=pre, post=post, attempts_used=attempts,
        classified_kind=final_kind, succeeded=succeeded,
        failure_stage=None if succeeded else "manipulation",
        displacement=float(displacement))
    _log(events, "record", handle=hd.label, succeeded=succeeded, kind=final_kind,
                 displacement=round(float(displacement), 6), attempts=attempts)
    return record, state


def _current_hotspot(scene, state, part_id, hd: Handle):
    if part_id:
        return handle_at(scene.part(part_id), state.theta(part_id))
    return np.asarray(hd.position, dtype=float)


def _run_attempt(scene, state, hd, part_id, attempt_pre, first_pre, site, robot,
                 viewpoint, sim_config, rng, events, classified):
    """One attempt: up to MAX_STEPS micro-interactions, then a final check.

    Returns (state, completed, classified). completed is the last observation
    of a completed attempt, left for the caller to classify when it needs to,
    and None when the attempt failed.
    """
    no_advance = 0
    for i in range(1, MAX_STEPS + 2):
        # pass MAX_STEPS + 1 is the final check: observe, never pull
        final = i > MAX_STEPS
        step = min(i, MAX_STEPS)
        hotspot = _current_hotspot(scene, state, part_id, hd)
        obs = _observe(scene, state, viewpoint, hotspot, site, sim_config, rng)
        if obs is None:
            _log(events, "observe-failed", handle=hd.label, step=step)
            return state, None, classified

        stalled = no_advance >= STALL_BREAK
        check_failure = final or i > GRACE_STEPS or stalled
        if check_failure and detect_failure(attempt_pre, obs):
            classified = _maybe_classify(first_pre, obs, classified)
            _log(events, "failure", handle=hd.label, step=step, kind=classified)
            return state, None, classified
        if stalled or final:
            if not final:
                # arm made progress earlier but cannot advance further: done here
                _log(events, "stall", handle=hd.label, step=step)
            return state, obs, classified

        advanced = 0.0
        try:
            direction = _compliance_action(obs, hotspot)
            blocked = None
            if part_id:
                blocked = arm_blocked(scene, state, part_id, hotspot, robot)
            if blocked:
                _log(events, "pull-blocked", handle=hd.label, step=step, reason=blocked)
            elif part_id is None:
                raise GraspFailureError("no part at the annotated handle")
            else:
                result = attempt_pull(scene, state, part_id, hotspot, direction)
                state = result.state
                advanced = result.advanced
                _log(events, "pull", handle=hd.label, step=step,
                             advanced=round(float(advanced), 9), slipped=result.slipped)
        except (NoActionError, GraspFailureError) as e:
            _log(events, "pull-failed", handle=hd.label, step=step, reason=type(e).__name__)

        no_advance = 0 if abs(advanced) > 1e-12 else no_advance + 1


def _maybe_classify(first_pre, obs, fallback):
    if first_pre is None:  # the handle's pre observation failed
        return fallback
    kind = classify_joint(first_pre, obs)
    return kind if kind != UNKNOWN else fallback
