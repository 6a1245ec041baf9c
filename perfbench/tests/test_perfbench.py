"""Tests of the benchmark itself: seeded inputs, wrappers, metric tables.

Run from the repository root: python -m pytest -q perfbench/tests
"""

import json
import signal
import time

import pytest

import layers
import run
import speed
import workloads
from artiscene.scene import load_scene

ROOT = run.ROOT


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_order_search_scenes_pass_scene_validation(seed, tmp_path):
    for entry in workloads.write_order_search_inputs(seed, tmp_path):
        scene = load_scene(entry["scene"])  # includes handle reachability
        goal = json.loads(entry["goal"].read_text())
        assert sorted(goal) == sorted(p.id for p in scene.parts)
        assert len(scene.parts) == 4


def test_order_search_single_panel_subgoals_plan_feasible(tmp_path):
    entries = workloads.write_order_search_inputs(3, tmp_path)
    assert all(run.validate_order_search(e) for e in entries[:2])


def test_same_seed_same_inputs_new_seed_new_inputs():
    for workload in workloads.PIPELINE_SCENES:
        assert workloads.pipeline_seeds(workload, 5) == workloads.pipeline_seeds(workload, 5)
        assert workloads.pipeline_seeds(workload, 5) != workloads.pipeline_seeds(workload, 6)
    for index in range(workloads.ORDER_SEARCH_POOL):
        assert workloads.order_search_scene(5, index) == workloads.order_search_scene(5, index)
        assert workloads.order_search_scene(5, index) != workloads.order_search_scene(6, index)


def _bindings():
    out = []
    for _, module, path in layers.LAYERS:
        owner, key = layers._resolve(module, path)
        out.append(vars(owner)[key])
    return out


def test_traced_run_records_spans_and_removes_wrappers(tmp_path):
    import artiscene.cli as cli

    originals = _bindings()
    entry = workloads.write_order_search_inputs(2, tmp_path / "in")[0]
    panels = tmp_path / "panels.json"  # two orders, both rejected: infeasible
    panels.write_text(json.dumps({p: 90.0 for p in workloads.PANELS}))
    pool = [[run.Op("plan", entry["scene"], panels, 2)]]
    runner = run.Runner(cli, tmp_path)
    try:
        with layers.Tracer() as tracer:
            assert all(a is not b for a, b in zip(_bindings(), originals))
        plain, deep, tracer = run.measure(runner, pool, 0.0, traced=True)
    finally:
        runner.close()
    assert all(a is b for a, b in zip(_bindings(), originals))
    assert len(deep) == run.MIN_ITERATIONS
    assert run.tally(plain + deep) == (1, 0, 1, True)  # one operation, run 6 times
    assert all(o.correct and not o.failed for it in plain + deep for o in it.outcomes)
    names = {r["name"] for r in tracer.records()}
    assert {"run", "planner", "planner.sat", "planner.select_base"} <= names
    stats = deep[0].stats
    assert stats["planner.sat"][0] > 0
    assert stats["run"][2] < stats["run"][1]  # self time excludes child spans


def _iteration(index, *outcomes):
    it = run.Iteration(index)
    it.outcomes = list(outcomes)
    return it


def test_tally_counts_each_operation_once_whatever_the_repeats():
    ok = run.Outcome(correct=True, failed=False, goal_ok=True, digests={"a": "1"})
    short = run.Outcome(correct=True, failed=True, goal_ok=False, digests={"a": "2"})
    once = [_iteration(0, ok, short), _iteration(1, ok, ok)]
    assert run.tally(once) == (4, 1, 3, True)
    assert run.tally(once + [_iteration(0, ok, short)] * 3) == (4, 1, 3, True)
    # a repeat that writes other bytes marks the outputs as disagreeing
    assert run.tally(once + [_iteration(1, ok, short)]) == (4, 2, 2, False)


def test_wall_time_weighs_every_input_of_the_pool_alike():
    its = [run.Iteration(index, wall=wall) for index, wall in
           ((0, 1.0), (1, 3.0), (0, 1.2), (1, 2.0), (0, 0.8))]
    # input 0 ran three times, input 1 twice: (1.0 + 2.5) / 2, not the median 1.2
    assert run.per_input_median(its, lambda it: it.wall) == 1.75


def test_tracer_restores_bindings_after_an_exception():
    originals = _bindings()
    with pytest.raises(RuntimeError):
        with layers.Tracer():
            raise RuntimeError
    assert all(a is b for a, b in zip(_bindings(), originals))


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_missing_binding_is_skipped_and_reported():
    tracer = layers.Tracer((("gone", "artiscene.cli", "no_such_function"),))
    with tracer:
        pass
    assert tracer.missing == {"artiscene.cli.no_such_function"}


def test_every_layer_binding_exists():
    for _, module, path in layers.LAYERS:
        owner, key = layers._resolve(module, path)
        assert callable(vars(owner)[key]), (module, path)


def test_speed_probe_samples_then_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe()
    with probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3 * speed.INTERVAL_S:
            sum(range(1000))
    assert len(probe.samples) >= 2 and probe.factor(7.0) > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with probe:
        pass
    assert probe.factor(7.0) == 7.0  # no sample: the fallback
