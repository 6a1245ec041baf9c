import builtins
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

from artiscene import sim
from artiscene.cli import main
from artiscene.planner import PlannerConfig
from artiscene.scene import RobotState, load_scene, load_scene_extras, save_scene
from shipped import SCENES

NOISELESS = '{"sim": {"noise_sigma": 0.0, "dropout_prob": 0.0}}'
AISLE, AISLE_GOAL = SCENES / "blocked_aisle.json", SCENES / "blocked_aisle_goal.json"


@pytest.fixture()
def drawer_scene(tmp_path):
    return shutil.copy(SCENES / "minimal_drawer.json", tmp_path / "scene.json")


def write_goal(tmp_path, goal):
    p = tmp_path / "goal.json"
    p.write_text(json.dumps(goal))
    return p


def test_explore_minimal_drawer(tmp_path, drawer_scene):
    out = tmp_path / "out"
    rc = main(["explore", "--scene", str(drawer_scene), "--out", str(out),
               "--seed", "0"])
    assert rc == 0
    records = list((out / "records").glob("*.json"))
    assert len(records) == 1
    doc = json.loads(records[0].read_text())
    assert doc["succeeded"] is True
    assert doc["classified_kind"] == "prismatic"
    assert (out / "exploration_log.jsonl").exists()
    breakdown = json.loads((out / "breakdown.json").read_text())
    assert breakdown["success"] == 1


def test_explore_malformed_scene_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 1, "base": {}, "parts": []}))
    rc = main(["explore", "--scene", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_explore_refuses_nonempty_out(tmp_path, drawer_scene):
    out = tmp_path / "out"
    out.mkdir()
    (out / "junk.txt").write_text("x")
    rc = main(["explore", "--scene", str(drawer_scene), "--out", str(out)])
    assert rc == 1
    rc = main(["explore", "--scene", str(drawer_scene), "--out", str(out),
               "--force"])
    assert rc == 0


def test_explore_log_deterministic(tmp_path, drawer_scene):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert main(["explore", "--scene", str(drawer_scene), "--out", str(out),
                     "--seed", "7"]) == 0
    assert (out1 / "exploration_log.jsonl").read_bytes() == \
        (out2 / "exploration_log.jsonl").read_bytes()


def test_estimate_emits_loadable_scene(tmp_path, drawer_scene):
    exp = tmp_path / "exp"
    assert main(["explore", "--scene", str(drawer_scene), "--out", str(exp),
                 "--seed", "0", "--config", NOISELESS]) == 0
    est = tmp_path / "est"
    rc = main(["estimate", "--records", str(exp), "--truth", str(drawer_scene),
               "--out", str(est)])
    assert rc == 0
    est_scene = load_scene(est / "estimated_scene.json")
    assert est_scene.part_ids() == ["drawer_1"]
    lines = (est / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == "part_id,kind_true,kind_est,angle_err_deg,trans_err_m"
    part, kt, ke, ang, trans = lines[1].split(",")
    assert (part, kt, ke) == ("drawer_1", "prismatic", "prismatic")
    assert float(ang) < 1.0


def test_plan_single_part(tmp_path, drawer_scene):
    out = tmp_path / "plan"
    goal = write_goal(tmp_path, {"drawer_1": 0.15})
    rc = main(["plan", "--scene", str(drawer_scene), "--goal", str(goal),
               "--out", str(out), "--seed", "0"])
    assert rc == 0
    plan = json.loads((out / "plan.json").read_text())
    assert plan["feasible"] is True
    assert len(plan["steps"]) == 1
    step = plan["steps"][0]
    assert step["part_id"] == "drawer_1"
    assert step["goal_m"] == 0.15
    assert len(step["waypoints"]) == 11


def test_plan_unknown_part_exits_2(tmp_path, drawer_scene):
    goal = write_goal(tmp_path, {"ghost": 0.15})
    rc = main(["plan", "--scene", str(drawer_scene), "--goal", str(goal),
               "--out", str(tmp_path / "p")])
    assert rc == 2


def test_plan_ordering_fixture(tmp_path):
    out = tmp_path / "plan"
    rc = main(["plan", "--scene", str(AISLE), "--goal", str(AISLE_GOAL),
               "--out", str(out), "--seed", "0"])
    assert rc == 0
    plan = json.loads((out / "plan.json").read_text())
    assert plan["feasible"] is True
    assert [s["part_id"] for s in plan["steps"]] == ["east_drawer", "dishwasher"]
    assert plan["diagnostics"][0]["reason"] == "path-blocked"
    assert "order:" in (out / "summary.txt").read_text()


def test_run_all_empty_goal_noop(tmp_path, drawer_scene):
    goal = write_goal(tmp_path, {})
    out = tmp_path / "run"
    rc = main(["run-all", "--scene", str(drawer_scene), "--goal", str(goal),
               "--out", str(out), "--seed", "0", "--config", NOISELESS])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["plan_feasible"] is True
    assert manifest["execution_opening_degrees"] == {}


def test_run_all_deterministic_outputs(tmp_path, drawer_scene):
    goal = write_goal(tmp_path, {"drawer_1": 0.15})
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        rc = main(["run-all", "--scene", str(drawer_scene), "--goal", str(goal),
                   "--out", str(out), "--seed", "5"])
        assert rc == 0
        outs.append(out)
    a, b = outs
    assert (a / "plan/plan.json").read_bytes() == (b / "plan/plan.json").read_bytes()
    assert (a / "estimate/metrics.csv").read_bytes() == \
        (b / "estimate/metrics.csv").read_bytes()


def test_noise_sigma_flag_overrides(tmp_path, drawer_scene):
    out = tmp_path / "o"
    rc = main(["explore", "--scene", str(drawer_scene), "--out", str(out),
               "--seed", "0", "--noise-sigma", "0.0",
               "--config", '{"sim": {"dropout_prob": 0.0}}'])
    assert rc == 0
    doc = json.loads(next((out / "records").glob("*.json")).read_text())
    assert doc["displacement"] > 0.05


def _drop_pre(doc):
    del doc["pre"]
    return doc


def _drop_pre_hotspot(doc):
    del doc["pre"]["hotspot"]
    return doc


def _drop_part_id(doc):
    del doc["part_id"]
    return doc


def _missing_cloud(doc):
    doc["pre"]["cloud"] = "missing.xyz"
    return doc


@pytest.mark.parametrize("breakage", [
    pytest.param(_missing_cloud, id="missing-cloud"),
    pytest.param(_drop_pre, id="no-pre"),
    pytest.param(_drop_part_id, id="no-part-id"),
    pytest.param(_drop_pre_hotspot, id="no-pre-hotspot"),
    pytest.param(lambda doc: [1, 2], id="not-an-object"),
])
def test_estimate_runtime_error_exits_3(tmp_path, drawer_scene, capsys, breakage):
    exp = tmp_path / "exp"
    assert main(["explore", "--scene", str(drawer_scene), "--out", str(exp),
                 "--seed", "0"]) == 0
    # a malformed record is a runtime failure of estimate, named by its file
    rec = next((exp / "records").glob("*.json"))
    rec.write_text(json.dumps(breakage(json.loads(rec.read_text()))))
    capsys.readouterr()
    rc = main(["estimate", "--records", str(exp), "--out", str(tmp_path / "est")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


KITCHEN = SCENES / "kitchen.json"


@pytest.mark.parametrize("command,scene,goal,code", [
    # not a number: a config value of the wrong type
    pytest.param("plan", KITCHEN, {"door_1": True}, 1, id="bool"),
    pytest.param("plan", KITCHEN, {"door_1": None}, 1, id="null"),
    pytest.param("plan", KITCHEN, {"door_1": [1]}, 1, id="list"),
    pytest.param("plan", KITCHEN, {"door_1": {}}, 1, id="object"),
    pytest.param("plan", KITCHEN, {"door_1": "45"}, 1, id="string"),
    # not finite, or past the upper limit after the unit conversion
    pytest.param("plan", KITCHEN, {"door_1": 200}, 2, id="past-limit"),
    pytest.param("plan", KITCHEN, {"door_1": 90.0000001}, 2, id="just-past-limit"),
    pytest.param("plan", KITCHEN, {"door_1": float("nan")}, 2, id="nan"),
    pytest.param("plan", KITCHEN, {"door_1": float("inf")}, 2, id="infinity"),
    pytest.param("plan", KITCHEN, {"door_1": float("-inf")}, 2, id="minus-infinity"),
    pytest.param("plan", KITCHEN, {"drawer_1": 0.15 + 1e-8}, 2, id="prismatic-past-limit"),
    pytest.param("run-all", KITCHEN, {"door_1": 200}, 2, id="run-all-past-limit"),
    pytest.param("run-all", KITCHEN, {"door_1": False}, 1, id="run-all-bool"),
])
def test_bad_goal_values_exit_before_out(tmp_path, capsys, command, scene, goal, code):
    out = tmp_path / "out"
    rc = main([command, "--scene", str(scene), "--goal", str(write_goal(tmp_path, goal)),
               "--out", str(out)])
    assert rc == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def test_goal_at_limit_or_below_closed_plans(tmp_path):
    # at the limit within 1e-9, or below the closed state (already met)
    goal = write_goal(tmp_path, {"door_1": 90.0, "drawer_1": -0.1})
    rc = main(["plan", "--scene", str(KITCHEN), "--goal", str(goal),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    plan = json.loads((tmp_path / "out" / "plan.json").read_text())
    assert plan["feasible"] and [s["part_id"] for s in plan["steps"]] == ["door_1"]


def test_non_finite_scene_number_exits_2(tmp_path):
    doc = json.loads((SCENES / "minimal_drawer.json").read_text())
    doc["parts"][0]["shape"]["yaw_deg"] = float("nan")
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(doc))
    rc = main(["plan", "--scene", str(scene),
               "--goal", str(write_goal(tmp_path, {"drawer_1": 0.1})),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field,value", [
    pytest.param("rotation", [1, 0, 0, 0, 1, 0, 0, 0, -1], id="improper-rotation"),
    pytest.param("half_extents", [0.2, 0.0, 0.12], id="zero-half-extent"),
])
def test_bad_scene_box_exits_2(tmp_path, capsys, field, value):
    doc = json.loads((SCENES / "minimal_drawer.json").read_text())
    doc["parts"][0]["shape"][field] = value
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(doc))
    rc = main(["plan", "--scene", str(scene),
               "--goal", str(write_goal(tmp_path, {"drawer_1": 0.1})),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: parts[0].shape.{field}: ")
    assert not (tmp_path / "out").exists()


def test_joint_limits_that_exclude_the_closed_state_exit_2(tmp_path, capsys):
    # every joint starts closed, at state 0.0, so its limits must bracket 0.0
    doc = json.loads(KITCHEN.read_text())
    doc["parts"][0]["joint"]["limits_deg"] = [10, 90]
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(doc))
    rc = main(["plan", "--scene", str(scene),
               "--goal", str(write_goal(tmp_path, {"door_1": 45.0})),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: parts[0].joint: closed state 0.0 ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["explore", "plan", "run-all"])
@pytest.mark.parametrize("section", [
    pytest.param({"simm": {"noise_sigma": 5}}, id="misspelled-sim"),
    pytest.param({"planner": {"max_candidates": 0}}, id="removed-planner"),
])
def test_unknown_scene_section_exits_2_before_out(tmp_path, capsys, command, section):
    # a scene file may hold the schema's keys and the sim and robot sections
    doc = json.loads((SCENES / "minimal_drawer.json").read_text())
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({**doc, **section}))
    args = [command, "--scene", str(scene), "--out", str(tmp_path / "out")]
    if command != "explore":
        args += ["--goal", str(write_goal(tmp_path, {"drawer_1": 0.1}))]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {next(iter(section))}: unknown top-level section\n"
    assert not (tmp_path / "out").exists()


def test_written_scene_files_load_with_their_sections(tmp_path, drawer_scene):
    # base_map.json and estimated_scene.json carry the input's sim and robot
    # sections, the only ones besides the schema's that a scene file may hold
    doc = json.loads(drawer_scene.read_text())
    doc["sim"] = {"noise_sigma": 0.002}
    drawer_scene.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run-all", "--scene", str(drawer_scene), "--out", str(out),
                 "--goal", str(write_goal(tmp_path, {"drawer_1": 0.1}))]) == 0
    for written in ("explore/base_map.json", "estimate/estimated_scene.json"):
        _, extras = load_scene_extras(out / written)
        assert extras == {"robot": doc["robot"], "sim": doc["sim"]}, written


@pytest.mark.parametrize("command,extra", [
    pytest.param("explore", ["--config", "{bad"], id="explore-bad-config"),
    pytest.param("explore", ["--config", '{"sim": {"bogus": 1}}'],
                 id="explore-unknown-sim-field"),
    pytest.param("plan", ["--config", "{bad"], id="plan-bad-config"),
    pytest.param("plan", ["--goal", "TMP/missing_goal.json"], id="plan-missing-goal"),
    pytest.param("plan", ["--goal", "TMP/list.json"], id="plan-goal-not-an-object"),
    pytest.param("explore", ["--config", "TMP/list.json"], id="explore-config-not-an-object"),
    pytest.param("estimate", ["--truth", "TMP/missing_truth.json"],
                 id="estimate-missing-truth"),
    pytest.param("explore", ["--out", "TMP/file"], id="explore-file-out"),
    pytest.param("estimate", ["--out", "TMP/file"], id="estimate-file-out"),
    pytest.param("plan", ["--out", "TMP/file"], id="plan-file-out"),
    pytest.param("run-all", ["--out", "TMP/file"], id="run-all-file-out"),
    pytest.param("explore", ["--config", '{"robot": {"start": 5}}'],
                 id="explore-robot-start-not-3-numbers"),
    pytest.param("plan", ["--config", '{"robot": {"start": [NaN, 1.0, 90.0]}}'],
                 id="plan-nan-robot-start"),
    # the reach limits are constants: a robot section takes only start
    pytest.param("run-all", ["--config", '{"robot": {"z_min": NaN}}'],
                 id="run-all-nan-robot-z-min"),
    pytest.param("run-all", ["--config", '{"robot": {"z_min": 2.0}}'],
                 id="run-all-robot-z-min-above-z-max"),
    pytest.param("run-all", ["--config", '{"robot": {"r_max": Infinity}}'],
                 id="run-all-infinite-robot-r-max"),
    # a section other than sim and robot is unknown, the removed ones too
    pytest.param("plan", ["--config", '{"simm": {"noise_sigma": 5}, '
                                      '"planer": {"max_candidates": 0}}'],
                 id="plan-misspelled-sections"),
    pytest.param("explore", ["--config", '{"exploration": {}}'],
                 id="explore-exploration-section"),
    pytest.param("plan", ["--config", '{"planner": {}}'], id="plan-planner-section"),
    pytest.param("explore", ["--config", '{"sim": 5}'], id="explore-sim-not-an-object"),
    pytest.param("explore", ["--config", '{"sim": {"noise_sigma": "x"}}'],
                 id="explore-float-field-given-a-string"),
    pytest.param("explore", ["--config", '{"exploration": {"max_steps": "7"}}'],
                 id="explore-int-field-given-a-string"),
    pytest.param("plan", ["--config", '{"planner": []}'], id="plan-planner-not-an-object"),
    pytest.param("explore", ["--config", '{"exploration": {"max_attempts": true}}'],
                 id="explore-int-field-given-a-bool"),
    pytest.param("explore", ["--noise-sigma", "-1"], id="explore-negative-noise-sigma"),
    pytest.param("explore", ["--noise-sigma", "nan"], id="explore-nan-noise-sigma"),
    # the order sample size is a constant: --max-candidates is no flag
    pytest.param("plan", ["--max-candidates", "0"], id="plan-zero-max-candidates"),
    pytest.param("plan", ["--max-candidates", "-5"], id="plan-negative-max-candidates"),
    # sim takes only noise_sigma and dropout_prob; the rest are constants
    pytest.param("explore", ["--config", '{"sim": {"surface_point_density": Infinity}}'],
                 id="explore-infinite-point-density"),
    pytest.param("explore", ["--config", '{"sim": {"eye_height": NaN}}'],
                 id="explore-nan-eye-height"),
    pytest.param("explore", ["--config", '{"sim": {"step_revolute": 0}}'],
                 id="explore-zero-revolute-step"),
    pytest.param("plan", ["--config", '{"planner": {"K": 5}}'],
                 id="plan-planner-constant-not-a-field"),
    pytest.param("explore", ["--config", '{"exploration": {"robot_radius": 0.3}}'],
                 id="explore-exploration-constant-not-a-field"),
    pytest.param("explore", ["--config", '{"robot": {"base_pose": [1.5, 1.0, 0.0]}}'],
                 id="explore-robot-base-pose-comes-from-start"),
    pytest.param("explore", ["--config", '{"sim": {"rng_seed": 3}}'],
                 id="explore-sim-rng-seed-comes-from-seed"),
    pytest.param("plan", ["--config", '{"planner": {"seed": 99}}'],
                 id="plan-planner-seed-comes-from-seed"),
    pytest.param("explore", ["--seed", "-1"], id="explore-negative-seed"),
    pytest.param("plan", ["--seed", "-1"], id="plan-negative-seed"),
    pytest.param("run-all", ["--seed", "-1"], id="run-all-negative-seed"),
    # estimate reads no seed, noise or config: it takes none of their flags
    pytest.param("estimate", ["--seed", "-1"], id="estimate-seed-flag"),
    pytest.param("estimate", ["--noise-sigma", "5"], id="estimate-noise-sigma-flag"),
    pytest.param("estimate", ["--max-candidates", "-3"], id="estimate-max-candidates-flag"),
    pytest.param("estimate", ["--config", '{"sim": {"bogus": 1}}'],
                 id="estimate-config-flag"),
])
def test_unreadable_inputs_exit_1(tmp_path, drawer_scene, capsys, command, extra):
    # the command cannot read its own inputs or use --out: exit 1, no traceback
    (tmp_path / "file").write_text("x")
    (tmp_path / "list.json").write_text("[1]")
    if command == "estimate":
        argv = [command, "--records", str(tmp_path / "no_records")]
    else:
        argv = [command, "--scene", str(drawer_scene)]
    if command in ("plan", "run-all"):
        argv += ["--goal", str(write_goal(tmp_path, {"drawer_1": 0.15}))]
    argv += ["--out", str(tmp_path / "out")]
    argv += [v.replace("TMP", str(tmp_path)) for v in extra]  # a repeated flag wins
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_config_dataclasses_hold_only_the_settable_values():
    # --config sets sim's fields and robot.start, --seed the planner's; a new
    # field would be a new knob, so it takes a deliberate edit here
    def names(cls):
        return tuple(f.name for f in dataclasses.fields(cls))

    assert names(sim.SimConfig) == ("noise_sigma", "dropout_prob")
    assert names(PlannerConfig) == ("seed",)
    assert names(RobotState) == ("base_pose",)


@pytest.fixture()
def json_reads(monkeypatch):
    """Counts the opens for reading of each .json file, by resolved path."""
    reads = Counter()
    real_open = builtins.open

    def counting_open(file, mode="r", *args, **kwargs):
        if "r" in mode and str(file).endswith(".json"):
            reads[Path(file).resolve()] += 1
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    return reads


def test_each_command_reads_each_scene_file_once(tmp_path, drawer_scene, json_reads):
    goal = write_goal(tmp_path, {"drawer_1": 0.15})
    run = tmp_path / "run"
    assert main(["run-all", "--scene", str(drawer_scene), "--goal", str(goal),
                 "--out", str(run), "--seed", "0"]) == 0
    for scene_file in (drawer_scene, run / "explore/base_map.json",
                       run / "estimate/estimated_scene.json"):
        assert json_reads[scene_file.resolve()] == 1, scene_file
    assert set(json_reads.values()) == {1}

    staged = [
        ["explore", "--scene", str(drawer_scene), "--out", str(tmp_path / "e")],
        ["estimate", "--records", str(tmp_path / "e"), "--truth", str(drawer_scene),
         "--out", str(tmp_path / "m")],
        ["plan", "--scene", str(tmp_path / "m/estimated_scene.json"),
         "--goal", str(goal), "--out", str(tmp_path / "p")],
    ]
    for argv in staged:
        json_reads.clear()
        assert main(argv) == 0
        assert json_reads and set(json_reads.values()) == {1}, (argv[0], json_reads)


def test_force_rerun_estimates_only_its_own_records(tmp_path, drawer_scene):
    # estimate reads every record under explore's records/, so a --force rerun
    # into a used directory must not leave the last run's records there
    out = tmp_path / "run"
    assert main(["run-all", "--scene", str(AISLE), "--goal", str(AISLE_GOAL),
                 "--out", str(out), "--seed", "0"]) == 0
    drawer_goal = write_goal(tmp_path, {"drawer_1": 0.15})
    assert main(["run-all", "--scene", str(drawer_scene), "--goal", str(drawer_goal),
                 "--out", str(out), "--seed", "0", "--force"]) == 0
    assert load_scene(out / "estimate/estimated_scene.json").part_ids() == ["drawer_1"]
    fresh = tmp_path / "fresh"
    assert main(["explore", "--scene", str(drawer_scene), "--out", str(fresh),
                 "--seed", "0"]) == 0
    assert sorted(p.name for p in (out / "explore/records").iterdir()) == \
        sorted(p.name for p in (fresh / "records").iterdir())

    # explore --force over the drawer's output, then estimate
    assert main(["explore", "--scene", str(AISLE), "--out", str(fresh),
                 "--seed", "0", "--force"]) == 0
    est = tmp_path / "est"
    assert main(["estimate", "--records", str(fresh), "--out", str(est)]) == 0
    assert sorted(load_scene(est / "estimated_scene.json").part_ids()) == \
        ["dishwasher", "east_drawer"]


FRESH_INTERPRETER = """
import sys, threading
sys.path.insert(0, sys.argv[1])
from artiscene import sim
from artiscene.cli import main
assert main(sys.argv[2:]) == 0
print("scipy.spatial" in sys.modules, "concurrent.futures" in sys.modules,
      threading.active_count())
"""


@pytest.mark.parametrize("command, explores", [("plan", False), ("explore", True)])
def test_scipy_loads_only_with_the_first_kd_tree(tmp_path, drawer_scene, command,
                                                 explores):
    # a fresh interpreter, so that the test session's own imports do not count;
    # the render's draw-ahead worker thread, like scipy, comes with the first
    # explore, so plan and a bare import of the CLI start neither
    data = Path(__file__).resolve().parent / "data"
    if command == "plan":
        argv = ["plan", "--scene", str(data / "facing_panels.json"),
                "--goal", str(data / "facing_panels_goal.json")]
    else:
        argv = ["explore", "--scene", str(drawer_scene)]
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", FRESH_INTERPRETER, str(src), *argv,
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, check=True)
    ahead = explores and len(os.sched_getaffinity(0)) > 1  # a worker needs two CPUs
    assert proc.stdout.splitlines()[-1] == f"{explores} {ahead} {1 + ahead}"


def test_draw_ahead_worker_needs_a_second_cpu(tmp_path, monkeypatch, drawer_scene):
    # explore starts one artiscene-draw thread where the process may use two
    # CPUs and none where it may use one, and writes the same bytes either way
    written = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(cpus))
        monkeypatch.setattr(sim, "_worker", None)
        before = set(threading.enumerate())
        out = tmp_path / f"out{len(cpus)}"
        assert main(["explore", "--scene", str(drawer_scene), "--out", str(out),
                     "--seed", "0"]) == 0
        started = [t for t in set(threading.enumerate()) - before
                   if t.name.startswith("artiscene-draw")]
        assert len(started) == len(cpus) - 1
        assert bool(sim._worker) == (len(cpus) > 1)
        if sim._worker:
            sim._worker.shutdown()
        written.append({p.relative_to(out): p.read_bytes()
                        for p in sorted(out.rglob("*")) if p.is_file()})
    assert written[0] == written[1]


def test_estimate_missing_records_exits_runtime(tmp_path):
    rc = main(["estimate", "--records", str(tmp_path / "nope"),
               "--out", str(tmp_path / "est")])
    assert rc in (2, 3)


def test_run_all_fold_down_scene_end_to_end(tmp_path):
    # horizontal-axis joint through the whole chain: the estimated model must
    # reproduce the path-blocking constraint and execute to full opening
    out = tmp_path / "run"
    rc = main(["run-all", "--scene", str(AISLE), "--goal", str(AISLE_GOAL),
               "--out", str(out), "--seed", "0", "--config", NOISELESS])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["plan_feasible"] is True
    assert manifest["goal_satisfied"] is True
    plan = json.loads((out / "plan/plan.json").read_text())
    assert [s["part_id"] for s in plan["steps"]] == ["east_drawer", "dishwasher"]
    assert all(v >= 0.95 for v in manifest["execution_opening_degrees"].values())
    metrics = (out / "estimate/metrics.csv").read_text().strip().splitlines()
    for line in metrics[1:]:
        _, kind_true, kind_est, ang, _ = line.split(",")
        assert kind_true == kind_est
        assert float(ang) < 1.0


def test_shipped_scene_files_round_trip(tmp_path):
    # the scene files are the only scene definition, so they pin the format:
    # each is written back byte for byte, and each goal names only its parts
    paths = [p for p in sorted(SCENES.glob("*.json")) if not p.stem.endswith("_goal")]
    assert len(paths) == 4
    for path in paths:
        scene, extras = load_scene_extras(path)
        save_scene(scene, tmp_path / path.name, extra=extras)
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name
        goal_path = SCENES / f"{path.stem}_goal.json"
        if goal_path.exists():
            goal = json.loads(goal_path.read_text())
            assert set(goal) <= set(scene.part_ids()), goal_path.name
