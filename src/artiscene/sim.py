"""Deterministic synthetic stand-in for the real scene.

Renders point-cloud observations of box surfaces with face-orientation
culling, answers pull attempts against the hidden ground-truth joints, and
rasterizes the navigation grid. All randomness flows through an explicit
numpy Generator; operations take a state and return new values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GraspFailureError, InvalidViewpointError
from .geometry import OrientedBox, PointCloud, as_vec3, require_unit, unit
from .scene import (REVOLUTE, KinematicScene, MobilePart, RobotState, SceneState,
                    handle_at, part_shape_at)

GRASP_TOLERANCE = 0.05  # max grasp-to-handle distance, meters
ROBOT_RADIUS = 0.30     # robot body (footprint) radius, meters
GRID_RESOLUTION = 0.05  # navigation grid cell size, meters


@dataclass(frozen=True)
class SimConfig:
    surface_point_density: float = 1200.0  # points per square meter
    noise_sigma: float = 0.003             # per-axis Gaussian noise, meters
    dropout_prob: float = 0.02
    slip_angle: float = math.radians(60.0)
    step_revolute: float = 0.05            # radians per micro-action
    step_prismatic: float = 0.01           # meters per micro-action
    rng_seed: int = 0
    eye_height: float = 1.0

    def __post_init__(self):
        if self.surface_point_density <= 0.0:
            raise ValueError("surface_point_density must be positive")
        if self.noise_sigma < 0.0:
            raise ValueError("noise_sigma must be >= 0")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ValueError("dropout_prob must lie in [0, 1)")
        if not 0.0 < self.slip_angle < math.pi / 2.0:
            raise ValueError("slip_angle must lie in (0, pi/2)")

    def step_size(self, kind: str) -> float:
        return self.step_revolute if kind == REVOLUTE else self.step_prismatic


@dataclass(frozen=True)
class Observation:
    """World-frame cloud plus the grasp hotspot and camera viewpoint."""

    cloud: PointCloud
    hotspot: np.ndarray
    viewpoint: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "hotspot", as_vec3(self.hotspot))
        object.__setattr__(self, "viewpoint", as_vec3(self.viewpoint))
        if len(self.cloud) == 0:
            raise ValueError("observation cloud must be non-empty")
        lo = self.cloud.points.min(axis=0) - 0.1
        hi = self.cloud.points.max(axis=0) + 0.1
        if np.any(self.hotspot < lo) or np.any(self.hotspot > hi):
            raise ValueError("hotspot lies outside the observed volume")

    def cropped(self, radius: float, center=None) -> "Observation":
        """Points within radius of the hotspot (or an explicit center)."""
        c = self.hotspot if center is None else as_vec3(center)
        d2 = np.sum((self.cloud.points - c) ** 2, axis=1)
        mask = d2 <= radius * radius
        return Observation(self.cloud.subset(mask), self.hotspot, self.viewpoint)


_FACE_FRAMES = (
    (0, 1, 2), (0, 1, 2),  # +-z faces: u=x, v=y, n=z
    (0, 2, 1), (0, 2, 1),  # +-y
    (1, 2, 0), (1, 2, 0),  # +-x
)
_FACE_SIGNS = (1.0, -1.0, 1.0, -1.0, 1.0, -1.0)


def _node_hash(i: np.ndarray, j: np.ndarray, salt: float) -> np.ndarray:
    """Deterministic per-node pseudo-random fraction in [0, 1)."""
    v = np.sin(i * 12.9898 + j * 78.233 + salt * 37.719) * 43758.5453
    return v - np.floor(v)


def _sample_box_faces(box: OrientedBox, viewpoint: np.ndarray,
                      density: float) -> np.ndarray:
    """Jittered-grid samples on the faces whose outward normal faces the
    viewpoint.

    Sample positions are a deterministic function of the box geometry, so
    repeated renders of a static surface yield the same support points and
    apparent motion comes only from real motion, sensor noise and dropout.
    The per-node jitter breaks the lattice periodicity that would otherwise
    alias registration along the face tangent.
    """
    out = []
    h = box.half_extents
    pitch = 1.0 / math.sqrt(density)
    for face_idx, ((iu, iv, inrm), sign) in enumerate(zip(_FACE_FRAMES, _FACE_SIGNS)):
        normal = sign * box.orientation[:, inrm]
        face_center = box.center + normal * h[inrm]
        if float(normal @ (viewpoint - face_center)) <= 0.0:
            continue
        nu = max(1, int(round(2.0 * h[iu] / pitch)))
        nv = max(1, int(round(2.0 * h[iv] / pitch)))
        ii, jj = np.meshgrid(np.arange(nu, dtype=float), np.arange(nv, dtype=float))
        ii = ii.ravel()
        jj = jj.ravel()
        ju = (_node_hash(ii, jj, float(face_idx)) - 0.5) * 0.7
        jv = (_node_hash(ii, jj, float(face_idx) + 13.7) - 0.5) * 0.7
        us = ((ii + 0.5 + ju) / nu) * 2.0 - 1.0
        vs = ((jj + 0.5 + jv) / nv) * 2.0 - 1.0
        pts = (face_center
               + np.outer(us * h[iu], box.orientation[:, iu])
               + np.outer(vs * h[iv], box.orientation[:, iv]))
        out.append(pts)
    if not out:
        return np.empty((0, 3))
    return np.vstack(out)


def sample_scene_surfaces(scene: KinematicScene, state: SceneState, viewpoint,
                          config: SimConfig):
    """Sample visible surfaces; returns (points (N,3), labels list of str).

    Labels carry provenance: 'base' for static obstacles, else the part id.
    """
    vp = as_vec3(viewpoint)
    chunks = []
    labels = []
    for box in scene.base.obstacles:
        pts = _sample_box_faces(box, vp, config.surface_point_density)
        chunks.append(pts)
        labels.extend(["base"] * pts.shape[0])
    for part in scene.parts:
        box = part_shape_at(part, state.theta(part.id))
        pts = _sample_box_faces(box, vp, config.surface_point_density)
        chunks.append(pts)
        labels.extend([part.id] * pts.shape[0])
    points = np.vstack(chunks) if chunks else np.empty((0, 3))
    return points, labels


def render_observation(scene: KinematicScene, state: SceneState, viewpoint,
                       config: SimConfig, rng: np.random.Generator | None = None,
                       hotspot=None) -> Observation:
    """Render a noisy observation of the scene from a free-space viewpoint.

    Face-orientation culling stands in for occlusion: back-facing faces are
    dropped entirely. Deterministic given the generator (or config.rng_seed
    when none is passed).
    """
    vp = as_vec3(viewpoint)
    for box in scene.base.obstacles:
        if box.contains(vp):
            raise InvalidViewpointError("viewpoint lies inside a base obstacle")
    for part in scene.parts:
        if part_shape_at(part, state.theta(part.id)).contains(vp):
            raise InvalidViewpointError(f"viewpoint lies inside part {part.id!r}")
    if rng is None:
        rng = np.random.default_rng(config.rng_seed)
    points, _ = sample_scene_surfaces(scene, state, vp, config)
    if points.shape[0] == 0:
        raise ValueError("nothing visible from this viewpoint")
    if config.dropout_prob > 0.0:
        keep = rng.random(points.shape[0]) >= config.dropout_prob
        if keep.any():
            points = points[keep]
    if config.noise_sigma > 0.0:
        points = points + rng.normal(0.0, config.noise_sigma, size=points.shape)
    hs = as_vec3(hotspot) if hotspot is not None else points.mean(axis=0)
    return Observation(PointCloud(points), hs, vp)


@dataclass(frozen=True)
class PullResult:
    advanced: float
    slipped: bool
    state: SceneState


def motion_direction(part: MobilePart, theta: float) -> np.ndarray:
    """True instantaneous direction of the handle under +theta motion."""
    j = part.joint
    if j.kind == REVOLUTE:
        h = handle_at(part, theta)
        return unit(np.cross(j.axis, h - j.pivot))
    return j.axis.copy()


def attempt_pull(scene: KinematicScene, state: SceneState, part_id: str, grasp,
                 direction, config: SimConfig) -> PullResult:
    """Advance the hidden joint if the pull direction falls inside the slip cone.

    The joint advances by step * cos(angle) clamped to its limits when the
    angle between the pull and the true motion direction is at most
    config.slip_angle; otherwise the grasp slips and nothing moves.
    """
    part = scene.part(part_id)
    d = require_unit(direction, "pull direction")
    g = as_vec3(grasp)
    theta = state.theta(part_id)
    if float(np.linalg.norm(g - handle_at(part, theta))) > GRASP_TOLERANCE:
        raise GraspFailureError(
            f"grasp is farther than {GRASP_TOLERANCE} m from the handle of {part_id!r}")
    t = motion_direction(part, theta)
    cos_a = float(np.clip(d @ t, -1.0, 1.0))
    angle = math.acos(cos_a)
    if angle > config.slip_angle:
        return PullResult(0.0, True, state)
    step = config.step_size(part.joint.kind)
    new_theta = part.joint.clamp(theta + step * cos_a)
    return PullResult(new_theta - theta, False, state.with_theta(part_id, new_theta))


def arm_blocked(scene: KinematicScene, state: SceneState, part_id: str, grasp,
                robot: RobotState, robot_radius: float = ROBOT_RADIUS) -> str | None:
    """Why the arm cannot execute a pull right now, or None if it can.

    Models the real system's self-collision and joint-limit failures: the
    grasp must lie inside the reach annulus/height band, and the moving part
    must not have swung into the robot body.
    """
    if not robot.can_reach(grasp):
        return "unreachable"
    box = part_shape_at(scene.part(part_id), state.theta(part_id))
    # robot body as a vertical cylinder vs. the part footprint
    x, y, _ = robot.base_pose
    if _near_polygon(x, y, box.footprint(), robot_radius):
        return "part-contact"
    return None


@dataclass(frozen=True)
class OccupancyGrid:
    """2D occupancy over the floor; cell (ix, iy) center at origin + (i + 0.5) * res."""

    origin: np.ndarray      # (2,), min corner
    resolution: float
    occupied: np.ndarray    # (ny, nx) bool, indexed [iy, ix]

    def cell_centers(self):
        ny, nx = self.occupied.shape
        xs = self.origin[0] + (np.arange(nx) + 0.5) * self.resolution
        ys = self.origin[1] + (np.arange(ny) + 0.5) * self.resolution
        return xs, ys

    def cell_of(self, xy) -> tuple:
        p = np.asarray(xy, dtype=float).reshape(2)
        ix = int(np.floor((p[0] - self.origin[0]) / self.resolution))
        iy = int(np.floor((p[1] - self.origin[1]) / self.resolution))
        return ix, iy

    def in_grid(self, ix: int, iy: int) -> bool:
        ny, nx = self.occupied.shape
        return 0 <= ix < nx and 0 <= iy < ny

    def is_free(self, xy) -> bool:
        ix, iy = self.cell_of(xy)
        return self.in_grid(ix, iy) and not bool(self.occupied[iy, ix])

    def nearest_free(self, xy, max_dist: float):
        """xy itself when its cell is free, else the closest free cell center
        within max_dist of xy, or None."""
        p = np.asarray(xy, dtype=float).reshape(2)
        if self.is_free(p):
            return p
        free = ~self.occupied
        if not free.any():
            return None
        xs, ys = self.cell_centers()
        d2 = (xs[None, :] - p[0]) ** 2 + (ys[:, None] - p[1]) ** 2
        d2 = np.where(free, d2, np.inf)
        iy, ix = np.unravel_index(int(np.argmin(d2)), d2.shape)
        if d2[iy, ix] > max_dist * max_dist:
            return None
        return np.array([xs[ix], ys[iy]])


def _near_polygon(px, py, poly: np.ndarray, radius: float):
    """Whether each point (px, py) lies inside or within radius of a convex
    counterclockwise polygon; px and py broadcast, scalars give one bool."""
    inside = True
    best = np.inf
    for a, b in zip(poly, np.roll(poly, -1, axis=0)):
        e = b - a
        inside &= e[0] * (py - a[1]) - e[1] * (px - a[0]) >= 0.0
        best = np.minimum(best, _segment_dist2(px, py, a, b))
    return inside | (best <= radius * radius)


def _segment_dist2(px, py, a, b):
    e = b - a
    ee = float(e @ e)
    if ee == 0.0:
        return (px - a[0]) ** 2 + (py - a[1]) ** 2
    t = np.clip(((px - a[0]) * e[0] + (py - a[1]) * e[1]) / ee, 0.0, 1.0)
    cx = a[0] + t * e[0]
    cy = a[1] + t * e[1]
    return (px - cx) ** 2 + (py - cy) ** 2


def nav_grid(scene: KinematicScene, state: SceneState,
             resolution: float = GRID_RESOLUTION, robot_radius: float = ROBOT_RADIUS,
             extra_boxes=()) -> OccupancyGrid:
    """Occupancy grid: base obstacles plus parts at their current state,
    inflated by the robot radius."""
    if resolution <= 0.0:
        raise ValueError("resolution must be positive")
    lo = scene.base.floor_min
    hi = scene.base.floor_max
    nx = max(1, int(math.ceil((hi[0] - lo[0]) / resolution)))
    ny = max(1, int(math.ceil((hi[1] - lo[1]) / resolution)))
    xs = lo[0] + (np.arange(nx) + 0.5) * resolution
    ys = lo[1] + (np.arange(ny) + 0.5) * resolution
    occ = np.zeros((ny, nx), dtype=bool)
    boxes = list(scene.base.obstacles)
    boxes.extend(part_shape_at(p, state.theta(p.id)) for p in scene.parts)
    boxes.extend(extra_boxes)
    for box in boxes:
        occ |= _near_polygon(xs[None, :], ys[:, None], box.footprint(), robot_radius)
    return OccupancyGrid(np.asarray(lo, dtype=float).copy(), resolution, occ)
