"""Command-line front end: explore, estimate, plan, and the full pipeline.

Every command reads its own inputs (scene, scene extras, --config, goal,
--truth) and prepares --out before it runs any stage. Exit codes: 0 success
(including an infeasible plan, which is a valid answer); 1 the command could
not read its own inputs or use --out; 2 scene/goal validation errors; 3 a
failure inside a stage.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .errors import (ArtisceneError, LimitViolationError, SceneFormatError,
                     SceneValidationError, UnknownPartError)
from .estimation import articulation_errors, estimate_record, estimated_part
from .execution import execute_plan, opening_degree
from .exploration import explore_scene
from .geometry import load_xyz, save_xyz
from .planner import PlannerConfig, plan_scene, write_plan
from .scene import (REVOLUTE, KinematicScene, RobotState, goal_satisfied,
                    load_scene, load_scene_extras, save_scene)
from .sim import Observation, SimConfig

EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

VALIDATION_ERRORS = (SceneFormatError, SceneValidationError, UnknownPartError)


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _prepare_out(path: str, force: bool) -> Path:
    out = Path(path)
    if out.exists() and any(out.iterdir()) and not force:
        raise ValueError(f"output directory {path} is not empty (use --force)")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _read_json(path) -> dict:
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return doc


def _load_overrides(arg: str | None) -> dict:
    if not arg:
        return {}
    return json.loads(arg) if arg.lstrip().startswith("{") else _read_json(arg)


def _is_a(value, kind) -> bool:
    """isinstance for JSON config values: an int is a float too, a bool never a number."""
    return not isinstance(value, bool) and isinstance(
        value, (int, float) if kind is float else kind)


def _dataclass_with(cls, overrides: dict, **flags):
    """cls from JSON overrides. The fields in flags are set by a command-line flag
    or robot.start, so the JSON may not name them; every other field is a float."""
    fields = {f.name for f in dataclasses.fields(cls)} - set(flags)
    unknown = set(overrides) - fields
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    for name, value in overrides.items():
        if not _is_a(value, float):
            raise ValueError(f"{cls.__name__}.{name}: expected float, got {value!r}")
    return cls(**overrides, **flags)


def _build_configs(extras: dict, args):
    """Merge scene-file extras, --config overrides and direct flags."""
    if args.seed < 0:
        raise ValueError(f"--seed: expected a non-negative integer, got {args.seed}")
    overrides = _load_overrides(args.config)
    unknown = set(overrides) - {"sim", "robot"}
    if unknown:
        raise ValueError(f"--config: unknown sections {sorted(unknown)}")
    for doc in (extras, overrides):
        for name in ("sim", "robot"):
            if not _is_a(doc.get(name, {}), dict):
                raise ValueError(f"{name}: expected a JSON object")
    sim_kwargs = dict(extras.get("sim", {}))
    sim_kwargs.update(overrides.get("sim", {}))
    if args.noise_sigma is not None:
        sim_kwargs["noise_sigma"] = args.noise_sigma
    sim = _dataclass_with(SimConfig, sim_kwargs)

    robot_kwargs = dict(extras.get("robot", {}))
    robot_kwargs.update(overrides.get("robot", {}))
    start = robot_kwargs.pop("start", [0.0, 0.0, 0.0])
    if not (_is_a(start, list) and len(start) == 3
            and all(_is_a(v, float) and math.isfinite(v) for v in start)):
        raise ValueError(f"robot.start: expected finite [x, y, heading_deg], got {start!r}")
    pose = (float(start[0]), float(start[1]), math.radians(start[2]))
    robot = _dataclass_with(RobotState, robot_kwargs, base_pose=pose)
    return sim, PlannerConfig(seed=args.seed), robot


def _parse_goal(scene: KinematicScene, raw: dict) -> dict:
    """Goal file maps part id -> threshold (degrees for revolute, meters else).

    A threshold that is not a number raises ValueError; one that is not
    finite, or above the joint's upper limit, raises LimitViolationError.
    A threshold at or below the closed state is already met, so it stands."""
    goal = {}
    for part_id, value in raw.items():
        part = scene.part(part_id)  # raises UnknownPartError
        if not _is_a(value, float):
            raise ValueError(f"goal {part_id}: expected a number, got {value!r}")
        theta = math.radians(value) if part.joint.kind == REVOLUTE else float(value)
        if not (math.isfinite(theta) and theta <= part.joint.limit_max + 1e-9):
            raise LimitViolationError(f"goal {part_id}: {value!r} is not a finite "
                                      f"value within the joint's upper limit")
        goal[part_id] = theta
    return goal


# --- explore -----------------------------------------------------------------

def _write_observation(obs: Observation, stem: Path) -> dict:
    save_xyz(obs.cloud, f"{stem}.xyz")
    return {"cloud": f"{stem.name}.xyz",
            "hotspot": [float(v) for v in obs.hotspot],
            "viewpoint": [float(v) for v in obs.viewpoint]}


def run_explore(scene: KinematicScene, extras: dict, sim: SimConfig, robot: RobotState,
                rng: np.random.Generator, out: Path) -> dict:
    """Discovery stage, drawing its sensor noise from rng; writes records,
    log, base map and breakdown to out."""
    t0 = time.perf_counter()
    result = explore_scene(scene, sim, robot=robot, rng=rng)
    elapsed = time.perf_counter() - t0

    with open(out / "exploration_log.jsonl", "w") as f:
        for event in result.events:
            f.write(json.dumps(event) + "\n")

    records_dir = out / "records"
    records_dir.mkdir(exist_ok=True)
    # estimate reads every record here, so a --force rerun drops the last run's
    for stale in [*records_dir.glob("*.json"), *records_dir.glob("*.xyz")]:
        stale.unlink()
    for rec in result.records:
        doc = {"part_id": rec.part_id, "succeeded": rec.succeeded,
               "classified_kind": rec.classified_kind,
               "attempts_used": rec.attempts_used,
               "displacement": rec.displacement,
               "failure_stage": rec.failure_stage}
        if rec.pre is not None:
            doc["pre"] = _write_observation(rec.pre, records_dir / f"{rec.part_id}_pre")
        if rec.post is not None:
            doc["post"] = _write_observation(rec.post, records_dir / f"{rec.part_id}_post")
        with open(records_dir / f"{rec.part_id}.json", "w") as f:
            json.dump(doc, f, indent=2)

    save_scene(KinematicScene(scene.base, ()), out / "base_map.json", extra=extras)

    openings = {p.id: opening_degree(scene, p.id, result.final_state.theta(p.id))
                for p in scene.parts}
    breakdown = {
        "total": len(result.records),
        "success": sum(1 for r in result.records if r.succeeded),
        "navigation_failures": sum(1 for r in result.records
                                   if r.failure_stage == "navigation"),
        "manipulation_failures": sum(1 for r in result.records
                                     if r.failure_stage == "manipulation"),
        "opening_degrees": {k: round(v, 6) for k, v in sorted(openings.items())},
    }
    with open(out / "breakdown.json", "w") as f:
        json.dump(breakdown, f, indent=2)
    print(f"explored {breakdown['total']} handles: {breakdown['success']} succeeded "
          f"({elapsed:.1f}s)")
    return breakdown


def cmd_explore(args):
    scene, extras = load_scene_extras(args.scene)
    sim, _, robot = _build_configs(extras, args)
    return lambda out: run_explore(scene, extras, sim, robot,
                                   np.random.default_rng(args.seed), out)


# --- estimate ----------------------------------------------------------------

def _read_record(rec_path: Path):
    """(part_id, (pre, post) or None when exploration failed) of one explore
    record; a record without what estimation reads raises ValueError."""
    doc = json.loads(rec_path.read_text())
    if not (isinstance(doc, dict) and isinstance(doc.get("part_id"), str)):
        raise ValueError(f"{rec_path}: expected an object with a string part_id")
    if not doc.get("succeeded"):
        return doc["part_id"], None
    pair = []
    for key in ("pre", "post"):
        sub = doc.get(key)
        if not (isinstance(sub, dict) and isinstance(sub.get("cloud"), str)
                and {"hotspot", "viewpoint"} <= sub.keys()):
            raise ValueError(f"{rec_path}: {key}: expected an object with cloud, "
                             "hotspot and viewpoint")
        cloud = load_xyz(rec_path.parent / sub["cloud"])
        pair.append(Observation(cloud, sub["hotspot"], sub["viewpoint"]))
    return doc["part_id"], pair


def run_estimate(records_root: Path, out: Path,
                 truth: KinematicScene | None = None) -> dict:
    """Estimation stage over an explore output; metrics need the true scene.

    Records are world-frame clouds taken from the exact base pose, so each
    estimate goes into the scene as fitted, with no registration.
    """
    records_dir = records_root / "records"
    if not records_dir.is_dir():
        raise SceneValidationError(f"no records directory under {records_root}")
    base_scene, extras = load_scene_extras(records_root / "base_map.json")

    estimates = []
    failures = []
    parts = []
    for rec_path in sorted(records_dir.glob("*.json")):
        part_id, pair = _read_record(rec_path)
        if pair is None:
            failures.append({"part_id": part_id, "stage": "exploration"})
            continue
        pre, post = pair
        try:
            est = estimate_record(part_id, pre, post)
            estimates.append(est)
            parts.append(estimated_part(est, pre, post))
        except ArtisceneError as e:
            failures.append({"part_id": part_id, "stage": "estimation",
                             "reason": str(e)})

    est_scene = KinematicScene(base_scene.base, parts)
    save_scene(est_scene, out / "estimated_scene.json", extra=extras)

    rows = []
    if truth is not None:
        for est in estimates:
            try:
                joint = truth.part(est.part_id).joint
            except UnknownPartError:
                continue
            err = articulation_errors(est, joint)
            rows.append([est.part_id, joint.kind, est.kind,
                         "" if err.angle_err_deg is None else f"{err.angle_err_deg:.9g}",
                         "" if err.trans_err_m is None else f"{err.trans_err_m:.9g}"])
    with open(out / "metrics.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["part_id", "kind_true", "kind_est", "angle_err_deg",
                         "trans_err_m"])
        writer.writerows(sorted(rows))

    summary = {"estimated": len(estimates), "failures": failures}
    with open(out / "estimation_summary.json", "w") as f:
        json.dump(summary, f, indent=2)
    print(f"estimated {len(estimates)} parts ({len(failures)} failures)")
    return summary


def cmd_estimate(args):
    truth = load_scene(args.truth) if args.truth else None
    return lambda out: run_estimate(Path(args.records), out, truth)


# --- plan --------------------------------------------------------------------

def run_plan(scene: KinematicScene, goal: dict, planner_cfg: PlannerConfig,
             robot: RobotState, out: Path):
    """Planning stage from the closed state; writes plan.json and summary.txt."""
    plan = plan_scene(scene, scene.initial_state(), robot, goal, planner_cfg)
    write_plan(plan, scene, out / "plan.json")

    lines = [f"feasible: {plan.feasible}"]
    if plan.feasible:
        lines.append("order: " + " -> ".join(plan.order()))
        for s in plan.steps:
            lines.append(f"  {s.part_id}: base=({s.base_pose[0]:.3f}, "
                         f"{s.base_pose[1]:.3f}) reach={s.reach_count}/{s.trajectory.K + 1}")
    for d in plan.diagnostics:
        lines.append(f"rejected {d['order']}: {d['reason']} at {d['step']}")
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    print(lines[0] + (f"; order: {' -> '.join(plan.order())}" if plan.feasible else ""))
    return plan


def cmd_plan(args):
    scene, extras = load_scene_extras(args.scene)
    _, planner_cfg, robot = _build_configs(extras, args)
    goal = _parse_goal(scene, _read_json(args.goal))
    return lambda out: run_plan(scene, goal, planner_cfg, robot, out)


# --- run-all -----------------------------------------------------------------

def cmd_run_all(args):
    scene, extras = load_scene_extras(args.scene)
    sim, planner_cfg, robot = _build_configs(extras, args)
    raw_goal = _read_json(args.goal)
    goal = _parse_goal(scene, raw_goal)

    def stages(out: Path) -> None:
        manifest = {"scene": str(args.scene), "goal": str(args.goal), "seed": args.seed,
                    "stages": {}}
        # discovery stage on the pristine scene
        explore_out = out / "explore"
        explore_out.mkdir(exist_ok=True)
        t0 = time.perf_counter()
        breakdown = run_explore(scene, extras, sim, robot,
                                np.random.default_rng(args.seed), explore_out)
        manifest["stages"]["explore"] = {"out": str(explore_out),
                                         "seconds": round(time.perf_counter() - t0, 3)}
        manifest["exploration_opening_degrees"] = breakdown["opening_degrees"]

        estimate_out = out / "estimate"
        estimate_out.mkdir(exist_ok=True)
        t0 = time.perf_counter()
        est_summary = run_estimate(explore_out, estimate_out, scene)
        manifest["stages"]["estimate"] = {"out": str(estimate_out),
                                          "seconds": round(time.perf_counter() - t0, 3)}
        breakdown.pop("opening_degrees")
        breakdown["estimation_failures"] = sum(
            1 for f in est_summary["failures"] if f["stage"] == "estimation")
        manifest["discovery_breakdown"] = breakdown

        # manipulation stage: joints reset to closed, plan on the estimated model;
        # the goal's degree conversion follows the estimated joint kinds
        plan_out = out / "plan"
        plan_out.mkdir(exist_ok=True)
        t0 = time.perf_counter()
        est_scene = load_scene(estimate_out / "estimated_scene.json")
        plan = run_plan(est_scene, _parse_goal(est_scene, raw_goal), planner_cfg, robot,
                        plan_out)
        manifest["stages"]["plan"] = {"out": str(plan_out),
                                      "seconds": round(time.perf_counter() - t0, 3)}

        t0 = time.perf_counter()
        state = scene.initial_state()
        rows = []
        openings = {}
        if plan.feasible:
            result = execute_plan(scene, state, plan, est_scene, robot)
            for o in result.outcomes:
                openings[o.part_id] = o.opening_degree
                rows.append([o.part_id, f"{o.achieved:.9g}",
                             f"{o.opening_degree:.9g}", o.pulls, o.completed])
        with open(out / "execution.csv", "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["part_id", "theta_final", "opening_degree", "pulls",
                             "completed"])
            writer.writerows(rows)
        manifest["stages"]["execute"] = {"out": str(out / "execution.csv"),
                                         "seconds": round(time.perf_counter() - t0, 3)}
        manifest["plan_feasible"] = plan.feasible
        manifest["execution_opening_degrees"] = {k: round(v, 6)
                                                 for k, v in sorted(openings.items())}
        final = result.final_state if plan.feasible and plan.steps else state
        manifest["goal_satisfied"] = goal_satisfied(scene, final, goal)

        with open(out / "manifest.json", "w") as f:
            json.dump(manifest, f, indent=2)
        print(f"pipeline complete; manifest at {out / 'manifest.json'}")

    return stages


# --- entry point -------------------------------------------------------------

def _add_common(p, scene=True):
    """--out and --force; with scene, also --scene and the flags that set the
    stage configs, which estimate does not read."""
    if scene:
        p.add_argument("--scene", required=True, help="scene JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--force", action="store_true", help="allow non-empty --out")
    if not scene:
        return
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="JSON overrides (path or inline)")
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artiscene",
        description="Build and use a scene-level articulation model in simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("explore", help="run the articulation discovery stage")
    _add_common(p)
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("estimate", help="estimate joint models from records")
    p.add_argument("--records", required=True, help="explore output directory")
    p.add_argument("--truth", default=None, help="ground-truth scene for metrics")
    _add_common(p, scene=False)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("plan", help="plan a feasible interaction sequence")
    _add_common(p)
    p.add_argument("--goal", required=True, help="goal JSON: part id -> threshold")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("run-all", help="explore, estimate, plan and execute")
    _add_common(p)
    p.add_argument("--goal", required=True, help="goal JSON: part id -> threshold")
    p.set_defaults(func=cmd_run_all)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, unknown = parser.parse_known_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    if unknown:
        return _fail(EXIT_USAGE, f"unrecognized arguments: {' '.join(unknown)}")
    try:
        # a command reads its inputs and returns its stages, run on the prepared --out
        stages = args.func(args)
        out = _prepare_out(args.out, args.force)
    except (*VALIDATION_ERRORS, LimitViolationError) as e:  # the goal past a limit
        return _fail(EXIT_VALIDATION, str(e))
    except (OSError, ValueError) as e:
        return _fail(EXIT_USAGE, str(e))
    try:
        stages(out)
    except VALIDATION_ERRORS as e:
        return _fail(EXIT_VALIDATION, str(e))
    except (ArtisceneError, OSError, ValueError) as e:
        return _fail(EXIT_RUNTIME, str(e))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
