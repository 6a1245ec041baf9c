"""Scene-level articulation model: static base map, mobile parts, joints, states.

Scene files store angles in degrees for readability; everything in memory is
radians and meters. Scene values are immutable; joint states live in a
separate SceneState mapping.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (LimitViolationError, SceneFormatError, SceneValidationError,
                     UnknownPartError)
from .geometry import (OrientedBox, RigidTransform, as_vec3, obb_overlaps,
                       require_unit, rodrigues_rotation)

SCHEMA_VERSION = 1

REVOLUTE = "revolute"
PRISMATIC = "prismatic"

# planner maximum states: 90 degrees for revolute joints, 15 cm for prismatic
MAX_STATE = {REVOLUTE: math.pi / 2.0, PRISMATIC: 0.15}

# the arm's reach: a grasp point lies R_MIN to R_MAX from the base axis and
# Z_MIN to Z_MAX above the floor, meters
R_MIN, R_MAX = 0.20, 0.95
Z_MIN, Z_MAX = 0.10, 1.20


@dataclass(frozen=True)
class JointModel:
    """One-DoF joint: revolute (axis + pivot) or prismatic (axis only),
    closed at state 0.0, which its limits bracket."""

    kind: str
    axis: np.ndarray
    pivot: np.ndarray | None = None
    limit_min: float = 0.0
    limit_max: float = 0.0

    def __post_init__(self):
        if self.kind not in (REVOLUTE, PRISMATIC):
            raise ValueError(f"unknown joint kind: {self.kind!r}")
        object.__setattr__(self, "axis", require_unit(self.axis, "joint axis"))
        if self.kind == REVOLUTE:
            if self.pivot is None:
                raise ValueError("revolute joints require a pivot")
            object.__setattr__(self, "pivot", as_vec3(self.pivot))
        elif self.pivot is not None:
            raise ValueError("prismatic joints carry no pivot")
        if not (self.limit_min <= 0.0 <= self.limit_max):
            raise LimitViolationError(
                f"closed state 0.0 outside limits [{self.limit_min}, {self.limit_max}]")

    def clamp(self, theta: float) -> float:
        return min(max(theta, self.limit_min), self.limit_max)

    def max_state(self) -> float:
        return min(MAX_STATE[self.kind], self.limit_max)


def default_limits(kind: str) -> tuple[float, float]:
    """Joint limits default to the planner maximum states."""
    return 0.0, MAX_STATE[kind]


@dataclass(frozen=True)
class MobilePart:
    """A one-DoF mobile part: geometry at theta=0, its joint and its handle."""

    id: str
    shape: OrientedBox
    joint: JointModel
    handle: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "handle", as_vec3(self.handle))
        if self.shape.distance_to_point(self.handle) > 0.01 + 1e-9:
            raise SceneValidationError(
                f"part {self.id!r}: handle farther than 1 cm from the shape surface")

    @cached_property
    def _poses(self) -> dict:
        """(pose, box) per joint state already posed; see _posed."""
        return {}


@dataclass(frozen=True)
class StaticBaseMap:
    """Immovable scene geometry plus the navigable floor rectangle."""

    obstacles: tuple
    floor_min: np.ndarray
    floor_max: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        lo = np.asarray(self.floor_min, dtype=float).reshape(2)
        hi = np.asarray(self.floor_max, dtype=float).reshape(2)
        if np.any(hi <= lo):
            raise SceneValidationError("floor bounds must have positive extent")
        object.__setattr__(self, "floor_min", lo)
        object.__setattr__(self, "floor_max", hi)
        for i, box in enumerate(self.obstacles):
            fp = box.footprint()
            if np.any(fp < lo - 1e-9) or np.any(fp > hi + 1e-9):
                raise SceneValidationError(f"obstacle {i} extends outside the floor bounds")


@dataclass(frozen=True)
class RobotState:
    """SE(2) base pose of the arm whose reach is the R_MIN to R_MAX annulus
    and Z_MIN to Z_MAX height band."""

    base_pose: tuple = (0.0, 0.0, 0.0)  # x, y, heading (rad)

    def can_reach(self, point) -> bool:
        """reach_mask's verdict for one point: it uses math.hypot within 1e-9
        of either radius, and farther out np.hypot, which differs from
        math.hypot in the last bit at most, cannot cross a radius."""
        x, y, z = as_vec3(point).tolist()
        d = math.hypot(x - self.base_pose[0], y - self.base_pose[1])
        return R_MIN <= d <= R_MAX and Z_MIN <= z <= Z_MAX

    def reach_mask(self, points, bases=None) -> np.ndarray:
        """(bases, points) bool array: each point inside the reach annulus
        and height band of the arm at each base xy (default: its own).

        np.hypot can differ from math.hypot in the last bit, so distances
        within 1e-9 of R_MIN or R_MAX are recomputed with math.hypot."""
        p = np.asarray(points, dtype=float).reshape(-1, 3)
        xy = np.reshape(self.base_pose[:2] if bases is None else bases, (-1, 2))
        dx = p[None, :, 0] - xy[:, None, 0]
        dy = p[None, :, 1] - xy[:, None, 1]
        d = np.hypot(dx, dy)
        near = (np.abs(d - R_MIN) <= 1e-9) | (np.abs(d - R_MAX) <= 1e-9)
        for i, j in zip(*np.nonzero(near)):
            d[i, j] = math.hypot(dx[i, j], dy[i, j])
        in_band = (Z_MIN <= p[:, 2]) & (p[:, 2] <= Z_MAX)
        return (R_MIN <= d) & (d <= R_MAX) & in_band

    def at(self, pose) -> "RobotState":
        return RobotState((float(pose[0]), float(pose[1]), float(pose[2])))


@dataclass(frozen=True)
class SceneState:
    """Joint state per part id."""

    joint_states: dict

    def theta(self, part_id: str) -> float:
        if part_id not in self.joint_states:
            raise UnknownPartError(part_id)
        return self.joint_states[part_id]

    def with_theta(self, part_id: str, theta: float) -> "SceneState":
        if part_id not in self.joint_states:
            raise UnknownPartError(part_id)
        d = dict(self.joint_states)
        d[part_id] = float(theta)
        return SceneState(d)


@dataclass(frozen=True)
class KinematicScene:
    """Static base map plus mobile parts; the scene-level articulation model."""

    base: StaticBaseMap
    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        ids = [p.id for p in self.parts]
        if len(set(ids)) != len(ids):
            raise SceneValidationError("part ids must be unique")
        shapes = [p.shape for p in self.parts]
        overlap = np.argwhere(np.triu(obb_overlaps(shapes, shapes, margin=0.0), k=1))
        if len(overlap):
            i, j = overlap[0]  # the first pair in (i, j) loop order
            raise SceneValidationError(f"parts {ids[i]!r} and {ids[j]!r} overlap at theta=0")

    def part(self, part_id: str) -> MobilePart:
        for p in self.parts:
            if p.id == part_id:
                return p
        raise UnknownPartError(part_id)

    def part_ids(self) -> list:
        return [p.id for p in self.parts]

    def initial_state(self) -> SceneState:
        return SceneState({p.id: 0.0 for p in self.parts})


def part_pose_at(part: MobilePart, theta: float) -> RigidTransform:
    """Rigid motion of the part relative to its theta=0 geometry.

    Revolute: x -> R(theta)(x - q) + q about (axis, pivot). Prismatic:
    translation theta * axis.
    """
    j = part.joint
    if not (j.limit_min - 1e-9 <= theta <= j.limit_max + 1e-9):
        raise LimitViolationError(
            f"theta {theta} outside limits [{j.limit_min}, {j.limit_max}] for part {part.id!r}")
    if j.kind == REVOLUTE:
        rot = rodrigues_rotation(j.axis, theta)
        return RigidTransform(rot, j.pivot - rot @ j.pivot)
    return RigidTransform(np.eye(3), theta * j.axis)


def _posed(part: MobilePart, theta: float) -> tuple:
    """(pose, box) of the part at theta, computed once per part and exact
    theta (the sign of a zero included) and shared by every caller, so its
    arrays are read-only."""
    key = (theta, math.copysign(1.0, theta))
    hit = part._poses.get(key)
    if hit is None:
        pose = part_pose_at(part, theta)
        box = part.shape.transformed(pose)
        for a in (pose.rotation, pose.translation, box.center, box.half_extents,
                  box.orientation):
            a.flags.writeable = False
        hit = part._poses[key] = (pose, box)
    return hit


def part_shape_at(part: MobilePart, theta: float) -> OrientedBox:
    return _posed(part, theta)[1]


def handle_at(part: MobilePart, theta: float) -> np.ndarray:
    return _posed(part, theta)[0].apply(part.handle)


def goal_satisfied(scene: KinematicScene, state: SceneState, goal: dict) -> bool:
    """True iff every referenced part's theta is at or above its threshold."""
    for part_id, threshold in goal.items():
        scene.part(part_id)
        if state.theta(part_id) < threshold:
            return False
    return True


# --- JSON serialization ----------------------------------------------------

def _box_to_json(box: OrientedBox) -> dict:
    d = {"center": [float(v) for v in box.center],
         "half_extents": [float(v) for v in box.half_extents]}
    r = box.orientation
    # yaw-only boxes round-trip through the human-readable field
    yaw = math.atan2(r[1, 0], r[0, 0])
    if np.allclose(r, rodrigues_rotation((0.0, 0.0, 1.0), yaw), atol=1e-12):
        d["yaw_deg"] = math.degrees(yaw)
    else:
        d["rotation"] = [float(v) for v in r.reshape(-1)]
    return d


def _require_finite(d: dict, keys, where: str) -> None:
    """Each number under d[key] is finite (json reads NaN and Infinity);
    raises SceneFormatError naming the field. Absent and null keys are left
    to the field's own rule."""
    for key in keys:
        if d.get(key) is None:
            continue
        try:
            finite = np.isfinite(np.asarray(d[key], dtype=float)).all()
        except (TypeError, ValueError):
            finite = False
        if not finite:
            raise SceneFormatError(f"{where}.{key}", "expected finite numbers")


def _box_from_json(d: dict, where: str) -> OrientedBox:
    for key in ("center", "half_extents"):
        if key not in d:
            raise SceneFormatError(f"{where}.{key}", "missing field")
    _require_finite(d, ("center", "half_extents", "rotation", "yaw_deg"), where)
    if "rotation" in d:
        rot = np.asarray(d["rotation"], dtype=float).reshape(3, 3)
        if np.linalg.norm(rot @ rot.T - np.eye(3)) > 1e-8 or abs(np.linalg.det(rot) - 1.0) > 1e-8:
            raise SceneFormatError(f"{where}.rotation", "must be orthonormal with determinant +1")
    else:
        rot = rodrigues_rotation((0.0, 0.0, 1.0), math.radians(float(d.get("yaw_deg", 0.0))))
    try:
        box = OrientedBox(d["center"], d["half_extents"], rot)
    except ValueError as e:
        raise SceneFormatError(where, str(e)) from e
    if np.any(box.half_extents <= 0.0):
        raise SceneFormatError(f"{where}.half_extents", "must be strictly positive")
    return box


def _joint_to_json(j: JointModel) -> dict:
    d = {"kind": j.kind, "axis": [float(v) for v in j.axis]}
    if j.kind == REVOLUTE:
        d["pivot"] = [float(v) for v in j.pivot]
        d["limits_deg"] = [math.degrees(j.limit_min), math.degrees(j.limit_max)]
    else:
        d["limits_m"] = [j.limit_min, j.limit_max]
    return d


def _joint_from_json(d: dict, where: str) -> JointModel:
    kind = d.get("kind")
    if kind not in (REVOLUTE, PRISMATIC):
        raise SceneFormatError(f"{where}.kind", f"must be '{REVOLUTE}' or '{PRISMATIC}'")
    if "axis" not in d:
        raise SceneFormatError(f"{where}.axis", "missing field")
    _require_finite(d, ("axis", "pivot", "limits_deg", "limits_m"), where)
    if kind == REVOLUTE:
        if "pivot" not in d:
            raise SceneFormatError(f"{where}.pivot", "revolute joints require a pivot")
        if "limits_m" in d:
            raise SceneFormatError(f"{where}.limits_m", "revolute joints use limits_deg")
        lim = d.get("limits_deg")
        limits = tuple(math.radians(float(v)) for v in lim) if lim else default_limits(kind)
        pivot = d["pivot"]
    else:
        if "pivot" in d:
            raise SceneFormatError(f"{where}.pivot", "prismatic joints carry no pivot")
        if "limits_deg" in d:
            raise SceneFormatError(f"{where}.limits_deg", "prismatic joints use limits_m")
        lim = d.get("limits_m")
        limits = tuple(float(v) for v in lim) if lim else default_limits(kind)
        pivot = None
    try:
        return JointModel(kind, d["axis"], pivot, limits[0], limits[1])
    except (ValueError, LimitViolationError) as e:
        raise SceneFormatError(where, str(e)) from e


def scene_to_json(scene: KinematicScene) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "base": {
            "obstacles": [_box_to_json(b) for b in scene.base.obstacles],
            "floor_bounds": {"min": [float(v) for v in scene.base.floor_min],
                             "max": [float(v) for v in scene.base.floor_max]},
        },
        "parts": [
            {"id": p.id,
             "shape": _box_to_json(p.shape),
             "joint": _joint_to_json(p.joint),
             "handle": [float(v) for v in p.handle]}
            for p in scene.parts
        ],
    }


def scene_from_json(doc: dict) -> KinematicScene:
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise SceneFormatError("schema_version", f"expected {SCHEMA_VERSION}")
    if "base" not in doc:
        raise SceneFormatError("base", "missing field")
    base_doc = doc["base"]
    fb = base_doc.get("floor_bounds")
    if not fb or "min" not in fb or "max" not in fb:
        raise SceneFormatError("base.floor_bounds", "missing min/max")
    _require_finite(fb, ("min", "max"), "base.floor_bounds")
    obstacles = [_box_from_json(b, f"base.obstacles[{i}]")
                 for i, b in enumerate(base_doc.get("obstacles", []))]
    base = StaticBaseMap(obstacles, fb["min"], fb["max"])
    parts = []
    for i, pd in enumerate(doc.get("parts", [])):
        where = f"parts[{i}]"
        if "id" not in pd:
            raise SceneFormatError(f"{where}.id", "missing field")
        for key in ("shape", "joint", "handle"):
            if key not in pd:
                raise SceneFormatError(f"{where}.{key}", "missing field")
        _require_finite(pd, ("handle",), where)
        parts.append(MobilePart(
            id=str(pd["id"]),
            shape=_box_from_json(pd["shape"], f"{where}.shape"),
            joint=_joint_from_json(pd["joint"], f"{where}.joint"),
            handle=pd["handle"],
        ))
    return KinematicScene(base, parts)


def _read_scene_doc(path) -> dict:
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            raise SceneFormatError("<document>", f"invalid JSON: {e}") from e


def load_scene(path) -> KinematicScene:
    """Load and validate a scene file; returns the scene.

    Schema violations raise SceneFormatError naming the field; invariant
    violations raise SceneValidationError.
    """
    return load_scene_extras(path)[0]


def save_scene(scene: KinematicScene, path, extra: dict | None = None) -> None:
    doc = scene_to_json(scene)
    if extra:
        doc.update(extra)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def load_scene_extras(path) -> tuple[KinematicScene, dict]:
    """Load and validate a scene file in one read; returns the scene and its
    sections other than the schema's, which may only be 'sim' and 'robot'."""
    doc = _read_scene_doc(path)
    scene = scene_from_json(doc)
    extras = {k: v for k, v in doc.items() if k not in ("schema_version", "base", "parts")}
    unknown = sorted(set(extras) - {"sim", "robot"})
    if unknown:
        raise SceneFormatError(", ".join(unknown), "unknown top-level section")
    _validate_handles_reachable(scene)
    return scene, extras


def _validate_handles_reachable(scene: KinematicScene) -> None:
    """Every handle must have free floor within arm reach of its xy position."""
    from .sim import nav_grid  # local import to avoid a cycle

    grid = nav_grid(scene, scene.initial_state())
    if grid.occupied.all():
        raise SceneValidationError("no free floor space in the scene")
    for part in scene.parts:
        if grid.nearest_free(part.handle[:2], R_MAX) is None:
            raise SceneValidationError(
                f"part {part.id!r}: handle unreachable from free floor space")
