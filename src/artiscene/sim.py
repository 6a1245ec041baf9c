"""Deterministic synthetic stand-in for the real scene.

Renders point-cloud observations of box surfaces with face-orientation
culling, answers pull attempts against the hidden ground-truth joints, and
rasterizes the navigation grid. All randomness flows through an explicit
numpy Generator; operations take a state and return new values.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import GraspFailureError, InvalidViewpointError
from .geometry import PointCloud, as_vec3, require_unit, unit
from .scene import (PRISMATIC, REVOLUTE, KinematicScene, MobilePart, RobotState,
                    SceneState, handle_at, part_shape_at)

GRASP_TOLERANCE = 0.05  # max grasp-to-handle distance, meters
ROBOT_RADIUS = 0.30     # robot body (footprint) radius, meters
GRID_RESOLUTION = 0.05  # navigation grid cell size, meters
SURFACE_POINT_DENSITY = 1200.0  # rendered surface points per square meter
SLIP_ANGLE = math.radians(60.0)  # widest pull-to-motion angle that does not slip
STEP_SIZE = {REVOLUTE: 0.05, PRISMATIC: 0.01}  # joint advance per pull: rad, m
EYE_HEIGHT = 1.0        # camera height above the floor, meters


@dataclass(frozen=True)
class SimConfig:
    noise_sigma: float = 0.003             # per-axis Gaussian noise, meters
    dropout_prob: float = 0.02

    def __post_init__(self):
        # comparisons with NaN are false, so each test is written to fail on it
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError("noise_sigma must be finite and >= 0")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ValueError("dropout_prob must lie in [0, 1)")


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


_FACE_FRAMES = np.array([
    (0, 1, 2), (0, 1, 2),  # +-z faces: u=x, v=y, n=z
    (0, 2, 1), (0, 2, 1),  # +-y
    (1, 2, 0), (1, 2, 0),  # +-x
])
_FACE_SIGNS = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])


def _node_hash(i: np.ndarray, j: np.ndarray, salt) -> np.ndarray:
    """Deterministic per-node pseudo-random fraction in [0, 1)."""
    v = np.sin(i * 12.9898 + j * 78.233 + salt * 37.719) * 43758.5453
    return v - np.floor(v)


def _visible_faces(box, viewpoint: np.ndarray, pitch: float):
    """The faces of box whose outward normal faces the viewpoint, in face
    order, as per-face arrays: face index (0-5), center, (u, v, normal) axes,
    (u, v) half extents and (u, v) node counts."""
    axes = box.orientation.T[_FACE_FRAMES]
    half = box.half_extents[_FACE_FRAMES]
    axes[:, 2] *= _FACE_SIGNS[:, None]
    center = box.center + axes[:, 2] * half[:, 2:]
    seen = np.sum(axes[:, 2] * (viewpoint - center), axis=1) > 0.0
    counts = np.maximum(1, np.round(2.0 * half[seen, :2] / pitch)).astype(np.intp)
    return np.arange(6)[seen], center[seen], axes[seen], half[seen, :2], counts


def _crop_windows(center, reach: float, face_center, axes, half, counts):
    """Per face, the [lo, hi) node index ranges along u and v that can land
    within reach of center; lo == hi on faces whose plane is out of reach."""
    rel = center - face_center
    off_plane = np.abs(np.sum(axes[:, 2] * rel, axis=1))
    rho = np.sqrt(np.maximum(reach * reach - off_plane * off_plane, 0.0))[:, None]
    in_plane = np.sum(axes[:, :2] * rel[:, None], axis=2)
    # node k of n sits at edge fraction (k + 0.5 + jitter) / n, |jitter| <= 0.35
    lo = np.floor((in_plane - rho + half) / (2.0 * half) * counts) - 1
    hi = np.floor((in_plane + rho + half) / (2.0 * half) * counts) + 2
    lo, hi = (np.clip(x, 0, counts).astype(np.intp) for x in (lo, hi))
    far = off_plane > reach
    hi[far] = lo[far]
    return lo, hi


@lru_cache(maxsize=256)
def _face_grid(face: int, hu: float, hv: float, cu: int, cv: int):
    """A face's node offsets along u and v from its center, and each node's
    index on the face, as read-only (cv, cu) grids of rows (v) by columns
    (u). They depend on the face's index, size and node counts, not on the
    box pose, so one grid serves every pose of every box of that size."""
    jj, ii = np.indices((cv, cu), dtype=float)
    ju = (_node_hash(ii, jj, face) - 0.5) * 0.7
    jv = (_node_hash(ii, jj, face + 13.7) - 0.5) * 0.7
    us = ((ii + 0.5 + ju) / cu) * 2.0 - 1.0
    vs = ((jj + 0.5 + jv) / cv) * 2.0 - 1.0
    grids = (us * hu, vs * hv, np.arange(cu * cv).reshape(cv, cu))
    for g in grids:
        g.flags.writeable = False
    return grids


def _window_nodes(face_idx, face_center, axes, half, counts, lo, hi):
    """Jittered-grid samples of each face's [lo, hi) node window, in face then
    row (v) then column (u) order, with each node's index among all faces."""
    points, node, offset = [np.empty((0, 3))], [np.empty(0, np.intp)], 0
    for f, c, ax, h, n, (u0, v0), (u1, v1) in zip(face_idx.tolist(), face_center, axes,
                                                   half.tolist(), counts.tolist(), lo, hi):
        du, dv, index = (g[v0:v1, u0:u1].ravel() for g in _face_grid(f, *h, *n))
        points.append(c + du[:, None] * ax[0] + dv[:, None] * ax[1])
        node.append(index + offset)
        offset += n[0] * n[1]
    return np.concatenate(points), np.concatenate(node)


def _draw(rng: np.random.Generator, n_nodes: int, p: float, sigma: float):
    """Dropout and noise for n_nodes nodes: the kept-node mask and each
    node's noise row (None when none drop out), the kept nodes' (k, 3) noise
    (None when sigma is 0), and max |noise| floored at 6 sigma."""
    keep = row = noise = None
    if p > 0.0:
        keep = rng.random(n_nodes) >= p
        if keep.any():
            row = np.cumsum(keep) - 1  # node -> noise row
        else:  # every point dropped out: keep them all
            keep = None
    if sigma > 0.0:
        n_kept = n_nodes if keep is None else int(row[-1]) + 1
        # rng.normal(0.0, sigma)'s stream and numbers, scaled in place: its
        # 0.0 + sigma * z differs only in a zero's sign, which + 0.0 restores
        noise = rng.standard_normal((n_kept, 3))
        noise *= sigma
    # a noisy point within a crop radius has its node within radius + |noise|
    # + rounding; the 6 sigma floor keeps one window per site as noise varies
    margin = 6.0 * sigma
    if noise is not None:
        margin = max(margin, float(noise.max()), float(-noise.min()))
    return keep, row, noise, margin


def _draw_from(state: dict, args: tuple):
    """_draw on a new PCG64 generator set to state, with its end state."""
    rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = state
    return _draw(rng, *args), rng.bit_generator.state


def _cpus_apart() -> set:
    """The CPUs this process may use other than the calling thread's current
    one; empty where that is unknown (no Linux /proc or affinity call)."""
    try:
        with open("/proc/thread-self/stat") as f:  # field 39: the thread's CPU
            cpu = int(f.read().rsplit(")", 1)[1].split()[36])
        return os.sched_getaffinity(0) - {cpu}
    except (OSError, AttributeError, ValueError, IndexError):
        return set()


def _pin(cpus: set) -> None:
    """Worker initializer: run on cpus, or where the scheduler puts it."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


# the one thread that makes the next render's draw ahead, kept off the first
# render's CPU: left to the scheduler, it is woken on the core of the render
# thread that woke it and delays that thread instead of overlapping it;
# False where no other CPU is known, and renders then draw serially
_worker = None
# (generator, its start state, _draw args, future) of that draw; any render
# may replace it, but one takes it only on an exact match, so sharing it
# between callers can cost a draw made ahead, never change a result
_pending = None


def _take_draw(rng: np.random.Generator, args: tuple):
    """_draw(rng, *args), taken from the draw made ahead when it matches
    exactly; then the next draw with the same args is made ahead."""
    global _worker, _pending
    pending, _pending = _pending, None
    state = rng.bit_generator.state
    if pending is not None and pending[0] is rng and pending[1:3] == (state, args):
        drawn, state = pending[3].result()
        rng.bit_generator.state = state
    else:  # a discarded draw is left to finish: it has nearly always started
        drawn = _draw(rng, *args)
        state = rng.bit_generator.state
    if _worker is None:
        cpus, _worker = _cpus_apart(), False
        if cpus:
            from concurrent.futures import ThreadPoolExecutor
            _worker = ThreadPoolExecutor(1, thread_name_prefix="artiscene-draw",
                                         initializer=_pin, initargs=(cpus,))
    # default_rng's PCG64 only: its state is a dict of ints, which == above
    # compares exactly, and _draw_from rebuilds it
    if _worker and type(rng.bit_generator) is np.random.PCG64:
        _pending = (rng, state, args, _worker.submit(_draw_from, state, args))
    return drawn


def discard_pending_draw() -> None:
    """Drop the draw made ahead, if any, with its generator and arrays."""
    global _pending
    _pending = None


def render_observation(scene: KinematicScene, state: SceneState, viewpoint,
                       config: SimConfig, rng: np.random.Generator,
                       hotspot=None, crop=None) -> Observation:
    """Render a noisy observation of the scene from a free-space viewpoint,
    keeping the points inside the sphere crop=(center, radius), or all of
    them when crop is None; the hotspot defaults to their mean.

    Surfaces are sampled on a jittered grid of face nodes that depends only
    on the box geometry, so repeated renders of a static surface yield the
    same support points; the jitter breaks the lattice periodicity that would
    otherwise alias registration along the face tangent. Back-facing faces
    are dropped, standing in for occlusion. Dropout and noise are drawn for
    every visible node, so the generator ends where a full render leaves it
    and the kept points are exactly the full render's points inside the
    sphere; only the nodes that can land inside are built. Each box keeps in
    its memo, per viewpoint, whether the viewpoint is inside it, its visible
    faces and their node total, and per crop center the nodes of the widest
    window built so far, so a box that does not move between renders is
    culled and sampled once. A box that moved (the grasped part) takes its
    nodes' jitter and face-frame offsets from grids keyed on the face's
    index, size and node counts, never on its pose; its window points are
    the per-node formula center + du * axis_u + dv * axis_v, element for
    element, so they match a per-node build bit for bit. Deterministic given
    the generator.

    The draw (_draw) takes, in this order, one uniform per visible node for
    dropout and three standard normals per kept node, scaled by sigma. After
    drawing, the render has the next draw with the same node count, dropout
    and sigma made ahead on a worker thread kept off the render thread's CPU
    (where the process has another), from a copy of the generator at its
    current state. The next render takes that draw only if it is passed the
    same generator object, the generator is still in the copy's start state
    and the node count, dropout and sigma are equal; it then sets the
    generator to the copy's end state. Otherwise it discards the draw and
    draws itself, so both ways give the same points and leave the generator
    in the same state.
    """
    vp = as_vec3(viewpoint)
    pitch = 1.0 / math.sqrt(SURFACE_POINT_DENSITY)
    key = ("render", *vp.tolist(), pitch)
    boxes = [(box, "a base obstacle") for box in scene.base.obstacles]
    boxes += [(part_shape_at(p, state.theta(p.id)), f"part {p.id!r}") for p in scene.parts]
    views = []
    for box, name in boxes:  # obstacles first, then parts
        view = box.memo.get(key)
        if view is None:
            faces = _visible_faces(box, vp, pitch)
            n = int(np.prod(faces[-1], axis=1).sum())
            view = box.memo[key] = (box.contains(vp), faces, n)
        if view[0]:
            raise InvalidViewpointError(f"viewpoint lies inside {name}")
        views.append((box, *view[1:]))
    n_nodes = sum(n for _, _, n in views)
    if n_nodes == 0:
        raise ValueError("nothing visible from this viewpoint")
    args = (n_nodes, config.dropout_prob, config.noise_sigma)
    keep, row, noise, margin = _take_draw(rng, args)
    if crop is None:
        center, reach = None, math.inf
    else:
        center, radius = as_vec3(crop[0]), float(crop[1])
        reach = radius + math.sqrt(3.0) * margin + 1e-6
    # a wider window holds the same nodes in the same order, plus nodes whose
    # points the sphere test drops, so the widest window built is reused
    window_key = (key, None if center is None else tuple(center.tolist()))
    points, node, offset = [], [], 0
    for box, faces, n in views:
        window = box.memo.get(window_key)
        if window is None or window[0] < reach:
            counts = faces[-1]
            lo, hi = ((np.zeros_like(counts), counts) if center is None
                      else _crop_windows(center, reach, *faces[1:]))
            window = box.memo[window_key] = (reach, *_window_nodes(*faces, lo, hi))
        points.append(window[1])
        node.append(window[2] + offset)
        offset += n
    points, node = np.concatenate(points), np.concatenate(node)
    if keep is not None:
        kept = keep[node]
        points, node = points[kept], row[node[kept]]
    if noise is not None:
        points = points + (noise[node] + 0.0)
    if crop is not None:
        points = points[np.sum((points - center) ** 2, axis=1) <= radius * radius]
    if points.shape[0] == 0:
        raise ValueError("nothing inside the crop sphere")
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
                 direction) -> PullResult:
    """Advance the hidden joint if the pull direction falls inside the slip cone.

    The joint advances by its kind's STEP_SIZE * cos(angle) clamped to its
    limits when the angle between the pull and the true motion direction is
    at most SLIP_ANGLE; otherwise the grasp slips and nothing moves.
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
    if angle > SLIP_ANGLE:
        return PullResult(0.0, True, state)
    new_theta = part.joint.clamp(theta + STEP_SIZE[part.joint.kind] * cos_a)
    return PullResult(new_theta - theta, False, state.with_theta(part_id, new_theta))


def arm_blocked(scene: KinematicScene, state: SceneState, part_id: str, grasp,
                robot: RobotState) -> str | None:
    """Why the arm cannot execute a pull right now, or None if it can.

    Models the real system's self-collision and joint-limit failures: the
    grasp must lie inside the reach annulus/height band, and the moving part
    must not have swung into the robot body.
    """
    if not robot.can_reach(grasp):
        return "unreachable"
    box = part_shape_at(scene.part(part_id), state.theta(part_id))
    edges = box.memo.get("edges")
    if edges is None:
        edges = box.memo["edges"] = _edge_table(box.footprint())
    # robot body as a vertical cylinder vs. the part footprint
    x, y, _ = robot.base_pose
    if _near_edges(x, y, edges, ROBOT_RADIUS):
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
        """(ix, iy) of a point's cell."""
        i = np.floor((np.asarray(xy, dtype=float) - self.origin) / self.resolution)
        return tuple(i.astype(int).tolist())

    def is_free(self, xy):
        """Whether a point's cell is in the grid and free."""
        return self.free_at(*np.asarray(xy, dtype=float))

    def free_at(self, x, y):
        """is_free for points given as x and y arrays, in one lookup of cell
        indices clipped to [-1, n] in the mask padded by one occupied cell."""
        ny, nx = self.occupied.shape
        ix = np.clip(np.floor((x - self.origin[0]) / self.resolution), -1, nx)
        iy = np.clip(np.floor((y - self.origin[1]) / self.resolution), -1, ny)
        return self._free[(iy * (nx + 2) + ix + (nx + 3)).astype(np.intp)]

    @cached_property
    def _free(self) -> np.ndarray:
        free = np.zeros((self.occupied.shape[0] + 2, self.occupied.shape[1] + 2), dtype=bool)
        np.logical_not(self.occupied, out=free[1:-1, 1:-1])
        free.flags.writeable = False
        return free.ravel()

    def component(self, cell):
        """Label of the 4-connected free region holding cell (ix, iy), or
        None when the cell is off the grid or occupied: two free cells are
        connected iff their labels are equal. The first call labels them all."""
        (ix, iy), (ny, nx) = cell, self.occupied.shape
        label = int(self._labels[iy, ix]) if 0 <= ix < nx and 0 <= iy < ny else -1
        return None if label < 0 else label

    _labels = cached_property(lambda self: _region_labels(self.occupied))

    def with_boxes(self, boxes) -> "OccupancyGrid":
        """This grid with every cell within ROBOT_RADIUS of a box's footprint
        occupied. A box's mask is rasterized once per grid geometry, over the
        cells within ROBOT_RADIUS + resolution of its bounding box (no other
        is that near), and kept on the box as (rows, cols, read-only mask).
        OR is exact and order-free: boxes added later give the same grid."""
        xs, ys = self.cell_centers()
        occ = self.occupied.copy()
        key = ("nav_grid", *self.origin.tolist(), len(xs), len(ys), self.resolution, ROBOT_RADIUS)
        pad = ROBOT_RADIUS + self.resolution
        for box in boxes:
            window = box.memo.get(key)
            if window is None:
                fp = box.footprint()
                cols = slice(*np.searchsorted(xs, (fp[:, 0].min() - pad, fp[:, 0].max() + pad)))
                rows = slice(*np.searchsorted(ys, (fp[:, 1].min() - pad, fp[:, 1].max() + pad)))
                mask = _near_polygon(xs[None, cols], ys[rows, None], fp, ROBOT_RADIUS)
                mask.flags.writeable = False
                window = box.memo[key] = (rows, cols, mask)
            rows, cols, mask = window
            occ[rows, cols] |= mask
        return OccupancyGrid(self.origin, self.resolution, occ)

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


def _region_labels(occupied: np.ndarray) -> np.ndarray:
    """Per cell, a label of its 4-connected free region (-1 when occupied):
    runs of free cells along rows are numbered, and runs in adjacent rows
    are merged by union-find once, in the column where the later of the two
    starts (He, Chao and Suzuki, "A run-based two-scan labeling algorithm",
    IEEE TIP 2008)."""
    free = ~occupied
    start = free.copy()
    start[:, 1:] &= occupied[:, :-1]
    run = np.cumsum(start).reshape(free.shape) - 1
    touch = free[:-1] & free[1:] & (start[:-1] | start[1:])
    parent = list(range(int(run[-1, -1]) + 1))

    def root(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for a, b in zip(run[:-1][touch].tolist(), run[1:][touch].tolist()):
        a, b = root(a), root(b)
        parent[max(a, b)] = min(a, b)
    roots = np.array([root(i) for i in range(len(parent))] + [-1], dtype=np.intc)
    return roots[np.where(free, run, -1)]


def _edge_table(poly: np.ndarray) -> list:
    """Per edge of a polygon, from each vertex a to the next b, the floats
    (a0, a1, e0, e1, e @ e) with e = b - a."""
    edges = np.concatenate((poly[1:], poly[:1])) - poly
    return [(a0, a1, e0, e1, float(e @ e))
            for (a0, a1), (e0, e1), e in zip(poly.tolist(), edges.tolist(), edges)]


def _near_polygon(px, py, poly: np.ndarray, radius: float):
    """Whether each point (px, py) of two broadcasting arrays lies inside or
    within radius of a convex counterclockwise polygon. Every edge is tested
    in one pass over a leading edge axis; a zero-length edge gets t = 0, so
    its distance is the distance to its vertex."""
    a0, a1, e0, e1, ee = (c[:, None, None] for c in np.array(_edge_table(poly)).T)
    inside = np.all(e0 * (py - a1) - e1 * (px - a0) >= 0.0, axis=0)
    t = np.clip(((px - a0) * e0 + (py - a1) * e1) / np.where(ee == 0.0, 1.0, ee), 0.0, 1.0)
    d2 = (px - (a0 + t * e0)) ** 2 + (py - (a1 + t * e1)) ** 2
    return inside | (d2.min(axis=0) <= radius * radius)


def _near_edges(x: float, y: float, edges: list, radius: float) -> bool:
    """_near_polygon for one point, in float arithmetic on the polygon's
    _edge_table. It rounds as numpy scalars do: ** is libm pow, not x * x,
    e @ e is numpy's dot, not e0 * e0 + e1 * e1, and t is clipped as np.clip
    does, so it gives numpy's verdict exactly."""
    inside, best = True, math.inf
    for a0, a1, e0, e1, ee in edges:
        inside = inside and e0 * (y - a1) - e1 * (x - a0) >= 0.0
        if ee == 0.0:
            d2 = (x - a0) ** 2 + (y - a1) ** 2
        else:
            t = min(max(((x - a0) * e0 + (y - a1) * e1) / ee, 0.0), 1.0)
            d2 = (x - (a0 + t * e0)) ** 2 + (y - (a1 + t * e1)) ** 2
        best = min(best, d2)
    return inside or best <= radius * radius


def nav_grid(scene: KinematicScene, state: SceneState) -> OccupancyGrid:
    """Occupancy grid of GRID_RESOLUTION cells: base obstacles plus parts at
    their current state, inflated by ROBOT_RADIUS."""
    lo, hi = scene.base.floor_min, scene.base.floor_max
    nx = max(1, int(math.ceil((hi[0] - lo[0]) / GRID_RESOLUTION)))
    ny = max(1, int(math.ceil((hi[1] - lo[1]) / GRID_RESOLUTION)))
    boxes = list(scene.base.obstacles)
    boxes.extend(part_shape_at(p, state.theta(p.id)) for p in scene.parts)
    empty = OccupancyGrid(np.array(lo, dtype=float), GRID_RESOLUTION,
                          np.zeros((ny, nx), dtype=bool))
    return empty.with_boxes(boxes)
