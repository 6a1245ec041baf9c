"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with: pytest tests/test_acceptance.py -v -s
"""

import itertools
import json
import math
import time

import numpy as np

from artiscene import planner
from artiscene.cli import main as cli_main
from artiscene.errors import EstimationFailedError, LimitViolationError
from artiscene.estimation import fit_screw
from artiscene.exploration import explore_scene
from artiscene.geometry import OrientedBox, PointCloud, obb_overlaps, rodrigues_rotation
from artiscene.planner import (PlannerConfig, evaluate_candidate_order,
                               part_trajectory, plan_scene, validate_plan)
from artiscene.scene import JointModel, RobotState
from artiscene.sim import SimConfig
from oracles import (boxes_overlap_oracle, flood_fill_reachable, obb_separation,
                     order_feasible_oracle)
from shipped import SCENES, handle_part, load, plan_inputs

KIND_TRUTH = {"door_1": "revolute-left", "door_2": "revolute-right",
              "door_3": "revolute-left", "door_4": "revolute-right",
              "door_5": "revolute-left", "drawer_1": "prismatic",
              "drawer_2": "prismatic", "drawer_3": "prismatic",
              "drawer_4": "prismatic"}

NOISELESS = '{"sim": {"noise_sigma": 0.0, "dropout_prob": 0.0}}'


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def rand_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def line_dist(p1, u1, p2, u2):
    w = np.asarray(p2, float) - np.asarray(p1, float)
    c = np.cross(u1, u2)
    n = np.linalg.norm(c)
    if n < 1e-9:
        return float(np.linalg.norm(w - (w @ u1) * u1))
    return abs(float(w @ c)) / n


def test_criterion_1_rotation_group():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        u = rand_unit(rng)
        a = rng.uniform(-2 * math.pi, 2 * math.pi)
        r = rodrigues_rotation(u, a)
        worst = max(worst,
                    float(np.abs(r @ r.T - np.eye(3)).max()),
                    abs(float(np.linalg.det(r)) - 1.0),
                    float(np.abs(r @ u - u).max()),
                    abs(float(np.trace(r)) - (1.0 + 2.0 * math.cos(a))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 1.0
    report(1, ok, f"1000 rotations, worst deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_trajectory_suite(monkeypatch):
    rng = np.random.default_rng(202)
    worst = 0.0
    for case in range(1000):
        p = rng.normal(size=3)
        axis = rand_unit(rng)
        monkeypatch.setattr(planner, "K", int(rng.integers(1, 15)))
        if rng.random() < 0.5:
            pivot = rng.normal(size=3)
            joint = JointModel("revolute", axis, pivot, 0.0, math.pi / 2)
            g = rng.uniform(0.05, math.pi / 2)
            s = rng.uniform(0.0, g) if case % 2 else 0.0  # odd cases start opened
            traj = part_trajectory(handle_part(joint, p), s, g)
            start = rodrigues_rotation(axis, s) @ (p - pivot) + pivot
            end = rodrigues_rotation(axis, g) @ (p - pivot) + pivot
            worst = max(worst, float(np.abs(traj.waypoints[0] - start).max()),
                        float(np.abs(traj.waypoints[-1] - end).max()))
            rel = traj.waypoints - pivot
            radial = rel - np.outer(rel @ axis, axis)
            r = np.linalg.norm(radial, axis=1)
            worst = max(worst, float(np.ptp(r)))
        else:
            joint = JointModel("prismatic", axis, None, 0.0, 0.15)
            g = rng.uniform(0.01, 0.15)
            s = rng.uniform(0.0, g) if case % 2 else 0.0
            traj = part_trajectory(handle_part(joint, p), s, g)
            worst = max(worst, float(np.abs(traj.waypoints[0] - (p + s * axis)).max()),
                        float(np.abs(traj.waypoints[-1] - (p + g * axis)).max()))
            diffs = np.diff(traj.waypoints, axis=0)
            worst = max(worst, float(np.abs(diffs - diffs[0]).max()))
        if s == 0.0:
            worst = max(worst, float(np.abs(traj.waypoints[0] - p).max()))
    door = JointModel("revolute", (0, 0, 1.0), (0, 0, 0), 0, math.pi / 2)
    monkeypatch.setattr(planner, "K", 2)
    quarter = part_trajectory(handle_part(door, (1.0, 0.0, 0.0)), 0.0, math.pi / 2)
    expected = np.array([[1, 0, 0], [math.sqrt(2) / 2, math.sqrt(2) / 2, 0], [0, 1, 0]])
    worst = max(worst, float(np.abs(quarter.waypoints - expected).max()))
    try:
        part_trajectory(handle_part(door, (1.0, 0.0, 0.0)), 0.0, math.pi)
        past_limit = "accepted"
    except LimitViolationError:
        past_limit = "rejected"
    ok = worst < 1e-9 and past_limit == "rejected"
    report(2, ok, f"1000 random parts + quarter circle, worst deviation {worst:.2e}, "
                  f"goal past the limit {past_limit}")


def test_criterion_3_screw_estimator_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    # noiseless: exact recovery and perfect classification
    worst_axis = 0.0
    worst_pivot = 0.0
    kinds_ok = 0
    for k in range(100):
        pts = rng.uniform(-0.3, 0.3, size=(400, 3))
        axis = rand_unit(rng)
        if k % 2 == 0:
            pivot = rng.uniform(-0.5, 0.5, size=3)
            angle = rng.uniform(math.radians(10), math.radians(170))
            rot = rodrigues_rotation(axis, angle)
            fit = fit_screw(PointCloud(pts), PointCloud((pts - pivot) @ rot.T + pivot))
            if fit.kind == "revolute":
                kinds_ok += 1
            worst_axis = max(worst_axis,
                             math.acos(min(1.0, abs(float(fit.axis @ axis)))))
            worst_pivot = max(worst_pivot, line_dist(fit.pivot, fit.axis, pivot, axis))
        else:
            delta = rng.uniform(0.001, 0.3)
            fit = fit_screw(PointCloud(pts), PointCloud(pts + delta * axis))
            if fit.kind == "prismatic":
                kinds_ok += 1
            worst_axis = max(worst_axis,
                             math.acos(min(1.0, abs(float(fit.axis @ axis)))))
    noiseless_ok = kinds_ok == 100 and worst_axis < 1e-6 and worst_pivot < 1e-6

    # noisy regime: 5 mm sigma, 2048 points, motion >= 30 deg / 0.08 m
    axis_errs = []
    pivot_errs = []
    noisy_kinds = 0
    for k in range(100):
        base = np.column_stack([rng.uniform(0.0, 0.6, 2048),
                                rng.uniform(-0.015, 0.015, 2048),
                                rng.uniform(0.0, 0.7, 2048)])
        axis = rand_unit(rng)
        if k % 2 == 0:
            pivot = rng.uniform(-0.4, 0.4, size=3) + np.array([0.3, 0.0, 0.35])
            angle = rng.uniform(math.radians(30), math.radians(80))
            rot = rodrigues_rotation(axis, angle)
            moved = (base - pivot) @ rot.T + pivot
        else:
            moved = base + rng.uniform(0.08, 0.15) * axis
        try:
            fit = fit_screw(PointCloud(base + rng.normal(0, 0.005, base.shape)),
                            PointCloud(moved + rng.normal(0, 0.005, base.shape)))
        except EstimationFailedError:
            continue
        expected = "revolute" if k % 2 == 0 else "prismatic"
        if fit.kind != expected:
            continue
        noisy_kinds += 1
        axis_errs.append(math.degrees(math.acos(min(1.0, abs(float(fit.axis @ axis))))))
        if expected == "revolute":
            pivot_errs.append(line_dist(fit.pivot, fit.axis, pivot, axis))
    elapsed = time.perf_counter() - t0
    med_axis = float(np.median(axis_errs))
    med_pivot = float(np.median(pivot_errs))
    ok = (noiseless_ok and noisy_kinds >= 95 and med_axis < 5.0
          and med_pivot < 0.05 and elapsed < 60.0)
    report(3, ok, f"noiseless worst axis {worst_axis:.2e} rad / pivot "
                  f"{worst_pivot:.2e} m, kinds {kinds_ok}/100; noisy median axis "
                  f"{med_axis:.3f} deg, pivot {med_pivot * 1000:.2f} mm "
                  f"({noisy_kinds}/100 kinds), {elapsed:.1f}s")


def test_criterion_4_exploration_end_to_end():
    scene, _ = load("kitchen")
    robot = RobotState(base_pose=(3.0, 1.2, math.pi / 2))
    results = []
    times = []
    for seed in range(5):
        t0 = time.perf_counter()
        res = explore_scene(scene, SimConfig(), robot=robot,
                            rng=np.random.default_rng(seed))
        times.append(time.perf_counter() - t0)
        good = sum(1 for r in res.records
                   if r.succeeded and r.classified_kind == KIND_TRUTH[r.part_id])
        results.append(good)
    ok = all(g >= 8 for g in results) and max(times) < 60.0
    report(4, ok, f"correct+succeeded per seed {results}, max {max(times):.1f}s/seed")


def test_criterion_5_obb_vs_sampling_oracle():
    rng = np.random.default_rng(505)

    def random_box():
        rot = rodrigues_rotation(rand_unit(rng), rng.uniform(0.0, math.pi))
        return OrientedBox(rng.uniform(-1, 1, size=3),
                           rng.uniform(0.1, 0.6, size=3), rot)

    disagreements = []
    for _ in range(10_000):
        a = random_box()
        b = random_box()
        if obb_overlaps([a], [b], margin=0.0)[0, 0] != boxes_overlap_oracle(a, b, rng):
            disagreements.append(abs(obb_separation(a, b)))
    agree = 1.0 - len(disagreements) / 10_000
    near_contact = all(d < 1e-3 for d in disagreements)
    ok = agree >= 0.995 and near_contact
    report(5, ok, f"agreement {agree * 100:.2f}% over 10,000 pairs, "
                  f"{len(disagreements)} disagreements all within 1e-3 of contact")


def test_criterion_6_ordering_oracle():
    scene, robot, goal = plan_inputs("galley_block")
    state = scene.initial_state()
    cfg = PlannerConfig(seed=0)
    orders = list(itertools.permutations(sorted(goal)))
    planner_verdicts = {}
    for idx, order in enumerate(orders):
        _, rej = evaluate_candidate_order(scene, state, robot, order, goal, cfg, idx, {})
        planner_verdicts[order] = rej is None
    oracle_verdicts = {order: order_feasible_oracle(scene, state, robot, order,
                                                    goal, cfg)
                       for order in orders}
    verdicts_match = planner_verdicts == oracle_verdicts
    constraint = all(ok == (o.index("island_door") < o.index("dishwasher"))
                     for o, ok in planner_verdicts.items())
    plan = plan_scene(scene, state, robot, goal, cfg)
    plan_ok = plan.feasible and validate_plan(scene, state, robot, plan, cfg)

    # random-order baseline vs the oracle feasible fraction
    oracle_fraction = sum(oracle_verdicts.values()) / len(orders)
    draw_rng = np.random.default_rng(606)
    hits = sum(oracle_verdicts[orders[draw_rng.integers(len(orders))]]
               for _ in range(1000))
    baseline = hits / 1000.0
    baseline_ok = abs(baseline - oracle_fraction) <= 0.03
    ok = verdicts_match and constraint and plan_ok and baseline_ok
    report(6, ok, f"verdicts match oracle on all 6 orders "
                  f"({sum(planner_verdicts.values())}/6 feasible), plan "
                  f"{plan.order() if plan.feasible else 'infeasible'}, baseline "
                  f"{baseline:.3f} vs oracle {oracle_fraction:.3f}")


def test_criterion_7_path_blocking_fixture():
    scene, robot, goal = plan_inputs("blocked_aisle")
    state = scene.initial_state()
    blocker_last = True
    for seed in range(5):
        plan = plan_scene(scene, state, robot, goal, PlannerConfig(seed=seed))
        if not plan.feasible or plan.order()[-1] != "dishwasher":
            blocker_last = False

    # every rejected ordering is genuinely blocked per the flood-fill oracle
    cfg = PlannerConfig(seed=0)
    rejected_confirmed = True
    for idx, order in enumerate(itertools.permutations(sorted(goal))):
        _, rej = evaluate_candidate_order(scene, state, robot, order, goal, cfg, idx, {})
        if rej is None:
            continue
        if rej["reason"] != "path-blocked":
            rejected_confirmed = False
            continue
        committed = state
        for pid in order[:order.index(rej["step"])]:
            committed = committed.with_theta(pid, goal[pid])
        from artiscene.sim import nav_grid

        grid = nav_grid(scene, committed)
        reach = flood_fill_reachable(grid.occupied, grid.cell_of(rej["from"]))
        gx, gy = grid.cell_of(rej["to"])
        ny, nx = reach.shape
        if 0 <= gx < nx and 0 <= gy < ny and reach[gy, gx]:
            rejected_confirmed = False
    ok = blocker_last and rejected_confirmed
    report(7, ok, "aisle-blocking part planned last on 5 seeds; "
                  "flood fill confirms every rejected order is blocked")


def run_pipeline(tmp_path, name, seed):
    out = tmp_path / name
    rc = cli_main(["run-all", "--scene", str(SCENES / "kitchen.json"),
                   "--goal", str(SCENES / "kitchen_goal.json"), "--out", str(out),
                   "--seed", str(seed), "--config", NOISELESS])
    assert rc == 0
    return out


def test_criterion_8_opening_degree(tmp_path):
    out = run_pipeline(tmp_path, "run", 0)
    manifest = json.loads((out / "manifest.json").read_text())
    exec_open = manifest["execution_opening_degrees"]
    explore_open = manifest["exploration_opening_degrees"]
    goal_ok = manifest["plan_feasible"] and exec_open and \
        all(v >= 0.95 for v in exec_open.values())
    explore_rev = [v for k, v in explore_open.items() if k.startswith("door")]
    exec_rev = [v for k, v in exec_open.items() if k.startswith("door")]
    heuristic_lower = np.mean(explore_rev) < np.mean(exec_rev)
    ok = goal_ok and heuristic_lower
    report(8, ok, f"model-based openings {sorted(exec_open.values())} all >= 0.95; "
                  f"exploration-only revolute mean {np.mean(explore_rev):.2f} < "
                  f"model-based {np.mean(exec_rev):.2f}")


def test_criterion_9_determinism(tmp_path):
    out1 = run_pipeline(tmp_path, "run1", 11)
    out2 = run_pipeline(tmp_path, "run2", 11)
    plan_same = (out1 / "plan/plan.json").read_bytes() == \
        (out2 / "plan/plan.json").read_bytes()
    metrics_same = (out1 / "estimate/metrics.csv").read_bytes() == \
        (out2 / "estimate/metrics.csv").read_bytes()
    ok = plan_same and metrics_same
    report(9, ok, "plan JSON and metrics CSV byte-identical across two seeded runs")
