"""Pipeline benchmark for artiscene.

    python3 perfbench/run.py --workload kitchen_pipeline --seed 0 --seconds 30 --trace 0

Runs one workload as a closed loop from a single process: one caller, and each
pipeline run starts only after the previous one has ended. Every run goes
through the in-process CLI entry point ``artiscene.cli.main``. Each output is
checked, and the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted``
and ``failed`` count the distinct operations of the seed's input pool. With ``--trace 1``
every input is run both untraced and traced, the two runs must write
byte-identical outputs, and the metrics are the per-layer ones. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import layers
import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCENES = ROOT / "scenes"
WORK = BENCH / "_work"

SETUP_REPEATS = (5, 4)  # set-ups before and after the measured loop
MIN_ITERATIONS = 3
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import artiscene.cli; "
                "print(time.perf_counter() - t)")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# layers reported as both a call count and a total time
COUNTED_LAYERS = (
    "sim.render", "sim.pull", "sim.nav_grid", "exploration.compliance",
    "exploration.failure_check", "estimation.segment", "geometry.icp",
    "geometry.outlier_filter", "planner.nav_grid", "planner.select_base",
    "planner.bfs",
)
TIMED_LAYERS = ("exploration", "estimation", "estimation.fit_screw",
                "estimation.register", "planner", "execution", "cli.io",
                "cli.base_map")
SPAN_NAMES = ("run",) + tuple(dict.fromkeys(name for name, _, _ in layers.LAYERS))
REJECTIONS = ("part-collision", "path-blocked", "unreachable")

PER_LAYER = {
    **{f"{n}.calls": "count" for n in COUNTED_LAYERS},
    **{f"{n}.s": "s" for n in COUNTED_LAYERS + TIMED_LAYERS},
    **{f"{n}.self_s": "s" for n in SPAN_NAMES},
    "sim.render.points": "count",
    "sim.crop.keep_ratio": "ratio",
    "sim.arm_blocked.calls": "count",
    "exploration.handles": "count",
    "exploration.handles_ok_ratio": "ratio",
    "exploration.attempts": "count",
    "estimation.failures": "count",
    "estimation.pivot_err_mm_max": "mm",
    "estimation.axis_err_deg_max": "deg",
    "geometry.icp.iterations": "count",
    "geometry.outlier_filter.points_in": "count",
    "planner.orders_evaluated": "count",
    "planner.useful_step_ratio": "ratio",
    **{f"planner.rejected.{r}": "count" for r in REJECTIONS},
    "planner.sat.pairs": "count",
    "planner.sat.s": "s",
    "execution.pulls": "count",
    "execution.completed_ratio": "ratio",
    "execution.opening_min": "ratio",
    "model_s": "s",
    "plan_s": "s",
    "failed_frac": "ratio",
    "goal_ok_frac": "ratio",
    "trace.overhead_s": "s",
    "trace.wrapper_us_per_call": "us",
    "trace.wrapper_cost_s": "s",
    "bench.iterations": "count",
    "raw.wall_s": "s",
    "probe.kernel_us": "us",
}


@dataclass
class Op:
    """One CLI invocation: ``run-all`` on a scene or ``plan`` on a scene."""

    command: str
    scene: Path
    goal: Path
    seed: int

    def argv(self, out: Path) -> list[str]:
        return [self.command, "--scene", str(self.scene), "--goal", str(self.goal),
                "--out", str(out), "--seed", str(self.seed)]


@dataclass
class Outcome:
    """Checked result of one Op."""

    correct: bool = False
    failed: bool = True
    goal_ok: bool = False
    digests: dict = field(default_factory=dict)
    pivot_err_mm: float = 0.0
    axis_err_deg: float = 0.0
    opening_min: float = 0.0


@dataclass
class Iteration:
    """One pass over an input (one or more Ops), untraced or traced."""

    index: int = 0                               # the input's place in the pool
    wall: float = 0.0                            # at the reference speed
    raw_wall: float = 0.0
    kernel_s: list = field(default_factory=list)  # mean probe kernel time per Op
    stats: dict = field(default_factory=dict)    # span name -> [calls, s, self s]
    counts: dict = field(default_factory=dict)
    outcomes: list = field(default_factory=list)

    def add(self, wall: float, factor: float, stats: dict, counts: dict,
            outcome: Outcome):
        """Add one Op; its times are scaled by the probe factor."""
        self.wall += wall * factor
        self.raw_wall += wall
        self.kernel_s.append(speed.REFERENCE_KERNEL_S / factor)
        for name, (calls, total, own) in stats.items():
            s = self.stats.setdefault(name, [0, 0.0, 0.0])
            s[0] += calls
            s[1] += total * factor
            s[2] += own * factor
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value
        self.outcomes.append(outcome)

    def total(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def check_run_all(op: Op, out: Path, rc: int) -> Outcome:
    """A run-all fails unless it exits 0, plans feasible, satisfies the goal
    and discovers every part with its true kind. Its output is incorrect when
    it crashes, misses a file, misclassifies a part or calls the (feasible by
    design) goal infeasible."""
    outcome = Outcome()
    if rc != 0:
        return outcome
    files = {"plan.json": out / "plan" / "plan.json",
             "metrics.csv": out / "estimate" / "metrics.csv",
             "execution.csv": out / "execution.csv"}
    try:
        manifest = json.loads((out / "manifest.json").read_text())
        metrics = _read_csv(files["metrics.csv"])
        execution = _read_csv(files["execution.csv"])
        outcome.digests = {name: _digest(path) for name, path in files.items()}
        n_parts = len(json.loads(op.scene.read_text())["parts"])
        kinds_ok = len(metrics) == n_parts and all(
            r["kind_true"] == r["kind_est"] for r in metrics)
        feasible = manifest["plan_feasible"] is True
        goal = manifest["goal_satisfied"] is True
        outcome.pivot_err_mm = 1000.0 * max(
            (float(r["trans_err_m"]) for r in metrics if r["trans_err_m"]), default=0.0)
        outcome.axis_err_deg = max(
            (float(r["angle_err_deg"]) for r in metrics if r["angle_err_deg"]),
            default=0.0)
        outcome.opening_min = min(
            (float(r["opening_degree"]) for r in execution), default=0.0)
    except (OSError, ValueError, KeyError) as e:
        print(f"# unreadable output of {op.scene.name}: {e}", file=sys.stderr)
        return outcome
    outcome.correct = kinds_ok and feasible
    outcome.goal_ok = feasible and goal
    outcome.failed = not (kinds_ok and feasible and goal)
    return outcome


def check_plan(op: Op, out: Path, rc: int) -> Outcome:
    """An order_search plan fails, and is incorrect, unless its verdict is
    infeasible (the generated goal cannot be met in any order)."""
    outcome = Outcome()
    if rc != 0:
        return outcome
    path = out / "plan.json"
    try:
        infeasible = json.loads(path.read_text())["feasible"] is False
        outcome.digests = {"plan.json": _digest(path)}
    except (OSError, ValueError, KeyError) as e:
        print(f"# unreadable output of {op.scene.name}: {e}", file=sys.stderr)
        return outcome
    outcome.correct = outcome.goal_ok = infeasible
    outcome.failed = not infeasible
    return outcome


class Runner:
    """Runs Ops through the in-process CLI under a tracer and the speed
    probe."""

    def __init__(self, cli, work: Path):
        self.cli = cli
        self.work = work
        self.ops_run = 0
        self.sink = open(os.devnull, "w")
        self.probe = speed.SpeedProbe()
        self.factor = 1.0  # scale of the latest sampled interval

    def close(self):
        self.sink.close()

    def iteration(self, ops: list[Op], tracer: layers.Tracer, index: int = 0) -> Iteration:
        it = Iteration(index)
        for op in ops:
            out = self.work / f"op{self.ops_run}"
            self.ops_run += 1
            gc.collect()
            with tracer, contextlib.redirect_stdout(self.sink), self.probe:
                t0 = time.perf_counter()
                try:
                    rc = tracer.call("run", self.cli.main, op.argv(out))
                except Exception:  # a crash is a failed, incorrect operation
                    traceback.print_exc()
                    rc = None
                wall = time.perf_counter() - t0
            self.factor = self.probe.factor(self.factor)
            stats, counts = tracer.take()
            check = check_run_all if op.command == "run-all" else check_plan
            it.add(wall, self.factor, stats, counts, check(op, out, rc))
            shutil.rmtree(out, ignore_errors=True)
        return it


# --- set-up ------------------------------------------------------------------

def import_seconds() -> float:
    """Time to import the CLI in a fresh interpreter (measured in the child)."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def validate_order_search(entry: dict) -> bool:
    """The scene passes load_scene validation (handle reachability included)
    and each single-panel subgoal plans feasible and passes validate_plan."""
    from artiscene.planner import PlannerConfig, plan_scene, validate_plan
    from artiscene.scene import RobotState, load_scene

    scene = load_scene(entry["scene"])
    doc = json.loads(entry["scene"].read_text())
    x, y, heading = doc["robot"]["start"]
    robot = RobotState().at((x, y, math.radians(heading)))
    config = PlannerConfig(seed=entry["seed"])
    for sub in entry["subgoals"]:
        goal = {k: math.radians(v) for k, v in json.loads(sub.read_text()).items()}
        state = scene.initial_state()
        plan = plan_scene(scene, state, robot, goal, config)
        if not (plan.feasible and validate_plan(scene, state, robot, plan, config)):
            print(f"# set-up check failed: {sub.name}", file=sys.stderr)
            return False
    return True


def set_up(runner: Runner, workload: str, seed: int, work: Path, repeats: int):
    """Prepare the inputs and import the CLI afresh, ``repeats`` times.

    Returns (input pool, whether every set-up check passed, raw set-up
    times, the probe's kernel times)."""
    times, kernels, ok = [], [], True
    for _ in range(repeats):
        with runner.probe:
            t0 = time.perf_counter()
            pool, passed = prepare(workload, seed, work)
            prepared = time.perf_counter() - t0
            times.append(prepared + import_seconds())
        kernels += runner.probe.samples
        ok &= passed
    return pool, ok, times, kernels


def prepare(workload: str, seed: int, work: Path) -> tuple[list[list[Op]], bool]:
    """The input pool of a workload and whether its set-up checks pass."""
    if workload == "order_search":
        entries = workloads.write_order_search_inputs(seed, work / "inputs")
        ok = all([validate_order_search(e) for e in entries])
        return [[Op("plan", e["scene"], e["goal"], e["seed"])] for e in entries], ok
    pool = [[Op("run-all", SCENES / f"{name}.json", SCENES / f"{name}_goal.json", s)
             for name in workloads.PIPELINE_SCENES[workload]]
            for s in workloads.pipeline_seeds(workload, seed)]
    ok = all(op.scene.is_file() and op.goal.is_file() for ops in pool for op in ops)
    return pool, ok


# --- measurement -------------------------------------------------------------

def measure(runner: Runner, pool: list, seconds: float, traced: bool):
    """Closed loop over the pool: at least one whole pass, then on until the
    next iteration would overrun.

    Returns (untraced iterations, traced iterations, the full tracer).
    Traced runs pair every input with an untraced run of it, alternating
    which goes first."""
    stage = layers.Tracer(layers.STAGES)
    full = layers.Tracer(layers.LAYERS)
    plain, deep = [], []
    start = time.perf_counter()
    i = 0
    while True:
        index = i % len(pool)
        if traced:
            first, second = (stage, full) if i % 2 == 0 else (full, stage)
            a = runner.iteration(pool[index], first, index)
            b = runner.iteration(pool[index], second, index)
            plain.append(a if first is stage else b)
            deep.append(b if first is stage else a)
        else:
            plain.append(runner.iteration(pool[index], stage, index))
        i += 1
        elapsed = time.perf_counter() - start
        if i >= max(MIN_ITERATIONS, len(pool)) and elapsed * (i + 1) / i > seconds:
            break
    return plain, deep, full


def tally(iterations) -> tuple[int, int, int, bool]:
    """(attempted, failed, goal met, agree) over the distinct operations of
    the pool.

    An operation is one Op of one pool input, however often the loop
    repeated it, so the counts depend on the seed alone and not on how many
    iterations fitted in the run. It fails when any of its runs failed.
    ``agree`` is false when two runs of one operation (untraced and traced
    included) wrote different bytes."""
    runs = {}
    for it in iterations:
        for j, outcome in enumerate(it.outcomes):
            runs.setdefault((it.index, j), []).append(outcome)
    failed = sum(any(o.failed for o in rs) for rs in runs.values())
    goal_ok = sum(all(o.goal_ok for o in rs) for rs in runs.values())
    agree = all(o.digests == rs[0].digests for rs in runs.values() for o in rs)
    return len(runs), failed, goal_ok, agree


def per_input_median(iterations, value) -> float:
    """Mean over the pool's inputs of each input's median ``value``, so the
    inputs that the loop ran once more than others do not tilt the result."""
    runs = {}
    for it in iterations:
        runs.setdefault(it.index, []).append(value(it))
    return sum(median(v) for v in runs.values()) / len(runs)


def kernel_times(iterations) -> list:
    return [k for it in iterations for k in it.kernel_s]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(it: Iteration) -> dict:
    c = it.counts
    m = {}
    for name in COUNTED_LAYERS:
        m[f"{name}.calls"] = it.calls(name)
    for name in COUNTED_LAYERS + TIMED_LAYERS:
        m[f"{name}.s"] = it.total(name)
    for name in SPAN_NAMES:
        m[f"{name}.self_s"] = it.stats.get(name, (0, 0.0, 0.0))[2]
    steps_tried = c.get("planner.rejected.part-collision", 0) + it.calls("planner.select_base")
    m.update({
        "sim.render.points": c.get("sim.render.points", 0),
        "sim.crop.keep_ratio": ratio(c.get("sim.crop.points_out", 0),
                                     c.get("sim.crop.points_in", 0)),
        "sim.arm_blocked.calls": it.calls("sim.arm_blocked"),
        "exploration.handles": c.get("exploration.handles", 0),
        "exploration.handles_ok_ratio": ratio(c.get("exploration.handles_ok", 0),
                                              c.get("exploration.handles", 0)),
        "exploration.attempts": c.get("exploration.attempts", 0),
        "estimation.failures": c.get("estimation.failures", 0),
        "geometry.icp.iterations": c.get("geometry.icp.iterations", 0),
        "geometry.outlier_filter.points_in": c.get("geometry.outlier_filter.points_in", 0),
        "planner.orders_evaluated": c.get("planner.orders_evaluated", 0),
        "planner.useful_step_ratio": ratio(c.get("planner.useful_steps", 0), steps_tried),
        "planner.sat.pairs": it.calls("planner.sat"),
        "planner.sat.s": it.total("planner.sat"),
        "execution.pulls": c.get("execution.pulls", 0),
        "execution.completed_ratio": ratio(c.get("execution.completed", 0),
                                           c.get("execution.steps", 0)),
        "estimation.pivot_err_mm_max": max(o.pivot_err_mm for o in it.outcomes),
        "estimation.axis_err_deg_max": max(o.axis_err_deg for o in it.outcomes),
        "execution.opening_min": min(o.opening_min for o in it.outcomes),
    })
    for r in REJECTIONS:
        m[f"planner.rejected.{r}"] = c.get(f"planner.rejected.{r}", 0)
    return m


def machine() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "src_loc": sum(len(p.read_text().splitlines())
                           for p in sorted(SRC.rglob("*.py")))}


def report(metrics: dict, units: dict, correct: bool, attempted: int, failed: int):
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "artiscene" / "__init__.py").is_file():
        print(f"error: no artiscene sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import artiscene.cli as cli

    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(cli, work)
    try:
        import_seconds()  # warm-up: the first import reads files from disk
        before, after = SETUP_REPEATS
        pool, setup_ok, setups, kernels = set_up(runner, args.workload, args.seed,
                                                 work, before)
        plain, deep, tracer = measure(runner, pool, args.seconds, bool(args.trace))
        if not args.trace:
            # The machine's speed changes every few seconds, so set-ups spread
            # over the whole run give a steadier median than set-ups in a row.
            _, ok, times, samples = set_up(runner, args.workload, args.seed,
                                           work, after)
            setup_ok, setups, kernels = setup_ok and ok, setups + times, kernels + samples
        # One scale for all set-ups, from the median kernel time: a set-up
        # interval holds only a few samples, and one preempted sample would
        # dominate their mean.
        setup_scale = speed.REFERENCE_KERNEL_S / median(kernels) if kernels else 1.0
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)

    outcomes = [o for it in plain + deep for o in it.outcomes]
    attempted, failed, goal_ok, agree = tally(plain + deep)
    correct = setup_ok and agree and all(o.correct for o in outcomes)
    info = machine()
    print(f"# {args.workload} seed={args.seed} iterations={len(plain)} "
          f"traced={len(deep)} runs={len(outcomes)} attempted={attempted} "
          f"failed={failed} "
          + " ".join(f"{k}={v}" for k, v in info.items()))

    if not args.trace:
        metrics = {
            "wall_s": per_input_median(plain, lambda it: it.wall),
            "setup_s": median(setups) * setup_scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(f"# setup_s raw: {' '.join(f'{v:.3f}' for v in setups)}; scale {setup_scale:.3f}")
        print(f"# wall_s={metrics['wall_s']:.4f} n={len(plain)}; raw median="
              f"{median(it.raw_wall for it in plain):.4f} per iteration: "
              + " ".join(f"{it.raw_wall:.3f}" for it in plain)
              + f"; probe kernel median {1e6 * median(kernel_times(plain)):.1f} us")
        report(metrics, END_TO_END, correct, attempted, failed)
        return 0

    per_it = [layer_metrics(it) for it in deep]
    metrics = {k: median(m[k] for m in per_it) for k in per_it[0]}
    wrapper_us = layers.wrapper_cost_us()
    wrapped_calls = median(sum(s[0] for n, s in it.stats.items() if n != "run")
                           for it in deep)
    metrics.update({
        "model_s": median(it.total("exploration") + it.total("estimation") for it in plain),
        "plan_s": median(it.total("planner") + it.total("execution") for it in plain),
        "failed_frac": ratio(failed, attempted),
        "goal_ok_frac": ratio(goal_ok, attempted),
        "trace.overhead_s": (per_input_median(deep, lambda it: it.wall)
                             - per_input_median(plain, lambda it: it.wall)),
        "trace.wrapper_us_per_call": wrapper_us,
        "trace.wrapper_cost_s": wrapper_us * 1e-6 * wrapped_calls,
        "bench.iterations": len(deep),
        "raw.wall_s": median(it.raw_wall for it in plain),
        "probe.kernel_us": 1e6 * median(kernel_times(plain)),
    })
    trace_path = WORK / f"trace-{args.workload}-{args.seed}.json"
    trace_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                      "machine": info, "spans": tracer.records()}))
    ranked = sorted(SPAN_NAMES, key=lambda n: -metrics[f"{n}.self_s"])
    print("# self time per iteration: " + ", ".join(
        f"{n}={metrics[f'{n}.self_s']:.4f}" for n in ranked[:6]))
    print(f"# every run of an operation wrote the same outputs: {agree}; "
          f"spans in {trace_path}")
    if tracer.missing:
        print("# not traced, binding not found: " + ", ".join(sorted(tracer.missing)))
    report(metrics, PER_LAYER, correct, attempted, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
