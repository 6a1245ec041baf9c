"""Layer spans recorded from outside the program.

The package imports with ``from .x import y``, so a caller looks a function
up in its *own* module namespace. Each wrapper is therefore installed on the
caller's binding (for example ``artiscene.planner.obb_intersects``, not
``artiscene.geometry.obb_intersects``), and every original is put back when
the tracer exits.

A span is (name, start, end, parent index, run id). Spans stay in memory; the
benchmark writes them out when it ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

# (span name, caller module, attribute path in that module)
STAGES = (
    ("exploration", "artiscene.cli", "explore_scene"),
    ("estimation", "artiscene.cli", "run_estimate"),
    ("planner", "artiscene.cli", "plan_scene"),
    ("execution", "artiscene.cli", "execute_plan"),
)

LAYERS = STAGES + (
    ("cli.io", "artiscene.cli", "load_scene"),
    ("cli.io", "artiscene.cli", "load_scene_extras"),
    ("cli.io", "artiscene.cli", "save_scene"),
    ("cli.io", "artiscene.cli", "load_xyz"),
    ("cli.io", "artiscene.cli", "save_xyz"),
    ("cli.io", "artiscene.cli", "write_plan"),
    ("cli.base_map", "artiscene.cli", "_base_map_cloud"),
    ("sim.render", "artiscene.exploration", "render_observation"),
    ("sim.crop", "artiscene.sim", "Observation.cropped"),
    ("sim.nav_grid", "artiscene.exploration", "nav_grid"),
    ("sim.pull", "artiscene.exploration", "attempt_pull"),
    ("sim.pull", "artiscene.execution", "attempt_pull"),
    ("sim.arm_blocked", "artiscene.exploration", "arm_blocked"),
    ("sim.arm_blocked", "artiscene.execution", "arm_blocked"),
    ("exploration.compliance", "artiscene.exploration", "_compliance_action"),
    ("exploration.failure_check", "artiscene.exploration", "detect_failure"),
    ("estimation.segment", "artiscene.estimation", "segment_mobile_part"),
    ("estimation.fit_screw", "artiscene.estimation", "fit_screw"),
    ("estimation.register", "artiscene.cli", "register_to_scene"),
    ("geometry.icp", "artiscene.estimation", "icp_register"),
    ("geometry.outlier_filter", "artiscene.geometry", "remove_statistical_outliers"),
    ("planner.sat", "artiscene.planner", "obb_intersects"),
    ("planner.nav_grid", "artiscene.planner", "nav_grid"),
    ("planner.select_base", "artiscene.planner", "select_base"),
    ("planner.bfs", "artiscene.planner", "check_path"),
)


def _count_render(counts, args, result):
    counts["sim.render.points"] += len(result.cloud)


def _count_crop(counts, args, result):
    counts["sim.crop.points_in"] += len(args[0].cloud)
    counts["sim.crop.points_out"] += len(result.cloud)


def _count_exploration(counts, args, result):
    counts["exploration.handles"] += len(result.records)
    counts["exploration.handles_ok"] += sum(r.succeeded for r in result.records)
    counts["exploration.attempts"] += sum(r.attempts_used for r in result.records)


def _count_estimation(counts, args, result):
    counts["estimation.failures"] += sum(f["stage"] == "estimation"
                                         for f in result["failures"])


def _count_icp(counts, args, result):
    counts["geometry.icp.iterations"] += result.iterations


def _count_outlier_filter(counts, args, result):
    counts["geometry.outlier_filter.points_in"] += len(args[0])


def _count_planner(counts, args, result):
    counts["planner.orders_evaluated"] += len(result.diagnostics) + result.feasible
    counts["planner.useful_steps"] += len(result.steps)
    for d in result.diagnostics:
        counts[f"planner.rejected.{d['reason']}"] += 1


def _count_execution(counts, args, result):
    counts["execution.pulls"] += sum(o.pulls for o in result.outcomes)
    counts["execution.completed"] += sum(o.completed for o in result.outcomes)
    counts["execution.steps"] += len(result.outcomes)


HOOKS = {
    "sim.render": _count_render,
    "sim.crop": _count_crop,
    "exploration": _count_exploration,
    "estimation": _count_estimation,
    "geometry.icp": _count_icp,
    "geometry.outlier_filter": _count_outlier_filter,
    "planner": _count_planner,
    "execution": _count_execution,
}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, key = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, key


class Tracer:
    """Installs span-recording wrappers while active (``with tracer:``)."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans: list = []
        self.counts: Counter = Counter()
        self.run = 0
        self._stack: list = []
        self._saved: list = []
        self._taken = 0
        self.missing: set = set()  # bindings not found, as "module.path"

    def __enter__(self):
        for name, module, path in self.layers:
            try:
                owner, key = _resolve(module, path)
                original = vars(owner)[key]
            except (ImportError, AttributeError, KeyError):
                # refactored away: that layer reads zero, and run.py says so
                self.missing.add(f"{module}.{path}")
                continue
            self._saved.append((owner, key, original))
            setattr(owner, key, self.wrap(name, original, HOOKS.get(name)))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)
        return False

    def wrap(self, name: str, fn, hook=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run)
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span of its own (the root span of a pipeline run)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def take(self) -> tuple[dict, dict]:
        """Per-name [calls, total s, self s] and counters of the spans
        recorded since the last take; starts a new run id."""
        spans = self.spans[self._taken:]
        child = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= self._taken:
                child[parent] += end - start
        stats: dict = {}
        for i, (name, start, end, _, _) in enumerate(spans, self._taken):
            s = stats.setdefault(name, [0, 0.0, 0.0])
            s[0] += 1
            s[1] += end - start
            s[2] += end - start - child[i]
        counts = dict(self.counts)
        self.counts.clear()
        self._taken = len(self.spans)
        self.run += 1
        return stats, counts

    def records(self) -> list[dict]:
        return [{"run": run, "name": name, "start": start, "end": end, "parent": parent}
                for name, start, end, parent, run in self.spans]


def wrapper_cost_us(calls: int = 20000, repeats: int = 5) -> float:
    """Median added cost of one wrapped call, in microseconds."""
    def noop():
        return None

    samples = []
    for _ in range(repeats):
        tracer = Tracer(())
        wrapped = tracer.wrap("noop", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        samples.append(((t2 - t1) - (t1 - t0)) / calls * 1e6)
    samples.sort()
    return samples[len(samples) // 2]
