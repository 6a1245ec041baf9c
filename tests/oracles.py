"""Independent test oracles, kept free of the library's SAT/BFS code paths."""

import numpy as np


def obb_separation(a, b):
    """Largest separation of two boxes over the 15 SAT axes (negative when
    none separates), one axis at a time: a scalar reference for
    geometry.obb_overlaps and a measure of how far a pair is from contact."""
    axes = []
    for i in range(3):
        axes.append(a.orientation[:, i])
        axes.append(b.orientation[:, i])
    for i in range(3):
        for j in range(3):
            c = np.cross(a.orientation[:, i], b.orientation[:, j])
            n = np.linalg.norm(c)
            if n > 1e-12:
                axes.append(c / n)
    d = b.center - a.center
    best = -np.inf
    for ax in axes:
        ra = float(np.abs(ax @ a.orientation) @ a.half_extents)
        rb = float(np.abs(ax @ b.orientation) @ b.half_extents)
        best = max(best, abs(float(ax @ d)) - (ra + rb))
    return best


def cloud_displacement(a, b):
    """Symmetric chamfer distance between two point clouds: the mean of each
    cloud's nearest-neighbour distances to the other, averaged; a reference
    for the failure check and the record displacement of exploration."""
    d_ab, _ = b.kdtree.query(a.points)
    d_ba, _ = a.kdtree.query(b.points)
    return 0.5 * (float(d_ab.mean()) + float(d_ba.mean()))


def box_contains(box, pts):
    local = (np.atleast_2d(pts) - box.center) @ box.orientation
    return np.all(np.abs(local) <= box.half_extents + 1e-12, axis=1)


def _aabb(box):
    c = box.corners()
    return c.min(axis=0), c.max(axis=0)


def _edge_points(box, spacing):
    """Points sampled along the 12 edges at the given spacing."""
    h = box.half_extents
    pts = []
    for fixed in range(3):
        ax = [i for i in range(3) if i != fixed][0]
        other = [i for i in range(3) if i != fixed and i != ax]
        for s1 in (-1.0, 1.0):
            for s2 in (-1.0, 1.0):
                n = max(2, int(np.ceil(2 * h[fixed] / spacing)) + 1)
                t = np.linspace(-h[fixed], h[fixed], n)
                local = np.zeros((n, 3))
                local[:, fixed] = t
                local[:, ax] = s1 * h[ax]
                local[:, other[0]] = s2 * h[other[0]]
                pts.append(local)
    local = np.vstack(pts)
    return box.center + local @ box.orientation.T


def boxes_overlap_oracle(a, b, rng, volume_samples=10_000, edge_spacing=5e-4):
    """Point-sampling box overlap test.

    Three escalating probes, all containment-based: corners of one box inside
    the other, uniform volume samples over the intersection of the axis-aligned
    bounds, and dense samples along the box edges (which catch thin wedge
    overlaps volume sampling cannot see).
    """
    if box_contains(b, a.corners()).any() or box_contains(a, b.corners()).any():
        return True
    lo = np.maximum(_aabb(a)[0], _aabb(b)[0])
    hi = np.minimum(_aabb(a)[1], _aabb(b)[1])
    if np.any(hi <= lo):
        return False
    pts = rng.uniform(lo, hi, size=(volume_samples, 3))
    if np.any(box_contains(a, pts) & box_contains(b, pts)):
        return True
    return (box_contains(b, _edge_points(a, edge_spacing)).any()
            or box_contains(a, _edge_points(b, edge_spacing)).any())


def order_feasible_oracle(scene, state, robot, order, goal, cfg):
    """Independent commitment replay for one interaction order.

    The collision checks run through the point-sampling box oracle and the
    path checks through an independent flood fill; base poses come from the
    same deterministic sampler the planner uses.
    """
    from artiscene.errors import NoBaseFoundError
    from artiscene.planner import (MARGIN, STANDING_MARGIN, _environment_boxes,
                                   _unmounted_obstacles, part_trajectory,
                                   sample_part_sweep, select_base)
    from artiscene.scene import SceneState
    from artiscene.sim import nav_grid

    rng = np.random.default_rng(98765)
    committed = dict(state.joint_states)
    prev = robot.base_pose
    for step_idx, pid in enumerate(order):
        part = scene.part(pid)
        sweep = sample_part_sweep(part)
        env = _environment_boxes(scene, committed, pid, _unmounted_obstacles(scene, pid))
        for box in sweep:
            for other in env:
                if boxes_overlap_oracle(box.inflated(MARGIN),
                                        other.inflated(MARGIN), rng,
                                        volume_samples=4000):
                    return False
        committed_state = SceneState(committed)
        travel = nav_grid(scene, committed_state)
        standing = travel.with_boxes([b.inflated(STANDING_MARGIN) for b in sweep])
        traj = part_trajectory(part, committed[pid], goal[pid])
        try:
            pose, _ = select_base(traj, scene, standing, robot,
                                  rng=np.random.default_rng([cfg.seed, step_idx + 777]))
        except NoBaseFoundError:
            return False
        reach = flood_fill_reachable(travel.occupied, travel.cell_of(prev[:2]))
        gx, gy = travel.cell_of(pose[:2])
        ny, nx = reach.shape
        if not (0 <= gx < nx and 0 <= gy < ny and reach[gy, gx]):
            return False
        committed[pid] = goal[pid]
        prev = pose
    return True


def flood_fill_reachable(occupied, start_cell):
    """Independent 4-connected flood fill; returns the reachable mask."""
    from collections import deque

    ny, nx = occupied.shape
    seen = np.zeros_like(occupied, dtype=bool)
    sx, sy = start_cell
    if not (0 <= sx < nx and 0 <= sy < ny) or occupied[sy, sx]:
        return seen
    seen[sy, sx] = True
    queue = deque([(sx, sy)])
    while queue:
        cx, cy = queue.popleft()
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            jx, jy = cx + dx, cy + dy
            if 0 <= jx < nx and 0 <= jy < ny and not seen[jy, jx] \
                    and not occupied[jy, jx]:
                seen[jy, jx] = True
                queue.append((jx, jy))
    return seen
