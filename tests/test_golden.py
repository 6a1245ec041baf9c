"""Golden digests of the pipeline outputs at fixed seeds.

Each ``run-all`` case runs the whole pipeline in-process and compares the
sha256 of four output files against pinned values; the staged case runs
``explore``, ``estimate --truth`` and ``plan`` one after another and pins one
file of each stage; the infeasible case pins the ``plan.json`` of a goal that
every order fails, with its rejection diagnostics, and the feasible case the
``plan.json`` of a one-part goal on the same scene, with its drawn base pose;
the noisy case pins the log and one record cloud of ``explore`` at heavy noise
and dropout. A refactor must leave every digest unchanged; a deliberate
behaviour change updates the digests here and says why in CHANGES.md.

The digests belong to one toolchain: Python 3.11, numpy 2.4, scipy 1.17.
Other versions may round floating point differently and so produce other
bytes without any change in the code.
"""

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from artiscene.cli import main
from shipped import SCENES

DATA = Path(__file__).resolve().parent / "data"

GOLDEN = {
    ("kitchen", 0): {
        "plan/plan.json":
            "dc6468dbf75dff6d4e1626c09419ccef5d89898c773251f07fb8476ace410b22",
        "estimate/metrics.csv":
            "de1873817e62ba3c2d78ae09d2cc78d393283804e5bb0f1b61351ac0026a6909",
        "execution.csv":
            "76d82b6caca673d3948fc507ddeae1b73b8acb0bcc0b8d56ba301a1b2c5dad64",
        "explore/exploration_log.jsonl":
            "8d04e50d21170289efdcaf567aedab5193c3a1ba72c00a8aca18af5702b9b3dd",
    },
    ("galley_block", 0): {
        "plan/plan.json":
            "1413ee2412833ace81ddec3e870cfa8919b06767180d8a90c72637b4bf14011a",
        "estimate/metrics.csv":
            "1fb18100310ed897c7c974f8eff530dde773b91afa14641d1c9379d5b55f7155",
        "execution.csv":
            "15757937ed974387835ff9115238169fb7de05245a3f3b98ac162542caeeb372",
        "explore/exploration_log.jsonl":
            "b575ee5e4ff74aa1bce0fa92eb877bf697591f70989fa8b6548d15c788ed2344",
    },
    # the fold-down panel turns about a horizontal axis: its visible faces
    # change with theta
    ("blocked_aisle", 0): {
        "plan/plan.json":
            "4b4ded8b2509aa9776feb831b55d2f2053b3c201b7302da1c400a18f26efcaac",
        "estimate/metrics.csv":
            "a0f14fd5a057dbbb3d2ce773428d5ee5b7e2b4daeb64989ad466473268ef2a75",
        "execution.csv":
            "c206edcc250c8c286351b921470a24af63a9bb5862687b27eab097e353b320a8",
        "explore/exploration_log.jsonl":
            "44592a586bf642048095949d31149dc095423cecdf56e25b7986a82da45344d9",
    },
    # execution stops on part-contact: the estimated dishwasher panel is
    # narrower than the true one, whose footprint the robot body touches
    ("galley_block", 6): {
        "plan/plan.json":
            "fcddd1f3560c21db5631214e5ca6b469b4131ebe0f46eb4e683543eca4b48361",
        "estimate/metrics.csv":
            "24f2b6baaca9c383da76d83dcaa414de58a3176e2fa49a727003ff5217d035ab",
        "execution.csv":
            "bdd9537b34ab1ce3f569c4e7708b61801f7e689630c8778b27d3e1051262a81e",
        "explore/exploration_log.jsonl":
            "20373897e57a7ebbda2521babd7b57d7198346d29ed2adc25a8a3b6c5aa2c226",
    },
}


def _mismatches(root: Path, pinned: dict) -> list:
    """``"name: digest"`` for every pinned file under root whose digest differs."""
    out = []
    for name, expected in pinned.items():
        digest = hashlib.sha256((root / name).read_bytes()).hexdigest()
        if digest != expected:
            out.append(f"{name}: {digest}")
    return out


@pytest.mark.parametrize("scene,seed", sorted(GOLDEN))
def test_run_all_outputs_match_golden_digests(tmp_path, scene, seed):
    out = tmp_path / "out"
    rc = main(["run-all", "--scene", str(SCENES / f"{scene}.json"),
               "--goal", str(SCENES / f"{scene}_goal.json"),
               "--out", str(out), "--seed", str(seed)])
    assert rc == 0
    mismatches = _mismatches(out, GOLDEN[(scene, seed)])
    assert not mismatches, (f"{scene} seed {seed} digests changed:\n"
                            + "\n".join(mismatches))


STAGED = {
    ("blocked_aisle", 3): {
        "explore/exploration_log.jsonl":
            "de39f2dddc5b86f63bf9b10e8d5dc8f7a73b90449e9bccefae0d317a28bdefdc",
        "estimate/estimated_scene.json":
            "80d1c876846d6d37f3fcab9fa2df9a174fe8f7086e7f8c8b1d23251f2d46be7c",
        "estimate/metrics.csv":
            "a7beb2fed245f746f28453515aedc2e26121f79f06266c676de576eadd52ec1d",
        "plan/plan.json":
            "ca9efac4064da303b793b8aeb179173044d09f4c6aeae17f2c19f18eaa0b5ced",
    },
}


@pytest.mark.parametrize("scene,seed", sorted(STAGED))
def test_staged_commands_match_golden_digests(tmp_path, scene, seed):
    scene_path = SCENES / f"{scene}.json"
    explore, estimate, plan = (tmp_path / d for d in ("explore", "estimate", "plan"))
    assert main(["explore", "--scene", str(scene_path), "--out", str(explore),
                 "--seed", str(seed)]) == 0
    assert main(["estimate", "--records", str(explore), "--truth", str(scene_path),
                 "--out", str(estimate)]) == 0
    assert main(["plan", "--scene", str(estimate / "estimated_scene.json"),
                 "--goal", str(SCENES / f"{scene}_goal.json"),
                 "--out", str(plan), "--seed", str(seed)]) == 0
    mismatches = _mismatches(tmp_path, STAGED[(scene, seed)])
    assert not mismatches, (f"{scene} seed {seed} staged digests changed:\n"
                            + "\n".join(mismatches))


# explore at heavy noise and dropout, where a crop window must reach
# sqrt(3) * 6 sigma = 0.21 m beyond the crop sphere
NOISY_EXPLORE = {
    "exploration_log.jsonl":
        "5be2ffaba1c38bc2adf56c0e760c50413eb92ca50a683498aa231483e9c39067",
    "records/door_1_post.xyz":
        "ad99f5e9cae998fab5d19de79b62118604171eadeffcf460be649d07a721da0a",
}


def test_noisy_explore_matches_golden_digests(tmp_path):
    assert main(["explore", "--scene", str(SCENES / "kitchen.json"), "--out", str(tmp_path),
                 "--seed", "1", "--config",
                 '{"sim": {"noise_sigma": 0.02, "dropout_prob": 0.1}}']) == 0
    mismatches = _mismatches(tmp_path, NOISY_EXPLORE)
    assert not mismatches, "noisy explore digests changed:\n" + "\n".join(mismatches)


# data/facing_panels.json: a galley whose north and south fold-down panels
# overlap when both are open, so every order of the goal is rejected
INFEASIBLE_PLAN = "0ec66e2071a33c795e17c4fb12faade28aa9cb8b23d676b7254470fc7762c878"


def test_infeasible_plan_matches_golden_digest(tmp_path):
    assert main(["plan", "--scene", str(DATA / "facing_panels.json"),
                 "--goal", str(DATA / "facing_panels_goal.json"),
                 "--out", str(tmp_path), "--seed", "0"]) == 0
    plan = json.loads((tmp_path / "plan.json").read_text())
    assert not plan["feasible"] and len(plan["diagnostics"]) == 24
    reasons = Counter(d["reason"] for d in plan["diagnostics"])
    assert reasons == {"part-collision": 16, "path-blocked": 8}
    mismatches = _mismatches(tmp_path, {"plan.json": INFEASIBLE_PLAN})
    assert not mismatches, "infeasible plan digest changed:\n" + "\n".join(mismatches)


# the north panel alone opens: one step whose base pose is drawn on the
# standing grid of facing_panels, where few base samples land on a free cell
FEASIBLE_PLAN = "86c719f3e7cc42a48891f26b9661aac9bf345ca32fe5130167e9156034cfb2f5"


def test_feasible_plan_matches_golden_digest(tmp_path):
    assert main(["plan", "--scene", str(DATA / "facing_panels.json"),
                 "--goal", str(DATA / "facing_panels_north_goal.json"),
                 "--out", str(tmp_path), "--seed", "0"]) == 0
    plan = json.loads((tmp_path / "plan.json").read_text())
    assert plan["feasible"] and [s["part_id"] for s in plan["steps"]] == ["north_panel"]
    mismatches = _mismatches(tmp_path, {"plan.json": FEASIBLE_PLAN})
    assert not mismatches, "feasible plan digest changed:\n" + "\n".join(mismatches)


# data/order_search_<i>.json: the generated galleys that the benchmark's
# order_search workload plans at seed 0, one per pool slot (slot 0 is
# facing_panels above). Each plan rejects all 24 orders, among them orders
# rejected as path-blocked with their sampled base, so the digests pin the
# base sampling bit for bit.
ORDER_SEARCH_PLANS = {
    1: "c7194bb909de7c890483c75a1a0c1d61fa835741f5e6d47e2fa368a2abd15024",
    2: "d57e625690f266e07f670d0fc537ecb663940dba17c8fb71230714dbf8e5fe40",
    3: "847d32ce74f806e4e54af2ee5d55215674ae06556c19ca58f9fd61d5b55879db",
}


@pytest.mark.parametrize("index", sorted(ORDER_SEARCH_PLANS))
def test_order_search_plan_matches_golden_digest(tmp_path, index):
    assert main(["plan", "--scene", str(DATA / f"order_search_{index}.json"),
                 "--goal", str(DATA / f"order_search_{index}_goal.json"),
                 "--out", str(tmp_path), "--seed", "0"]) == 0
    plan = json.loads((tmp_path / "plan.json").read_text())
    assert not plan["feasible"] and len(plan["diagnostics"]) == 24
    assert Counter(d["reason"] for d in plan["diagnostics"])["path-blocked"] > 0
    mismatches = _mismatches(tmp_path, {"plan.json": ORDER_SEARCH_PLANS[index]})
    assert not mismatches, "order_search plan digest changed:\n" + "\n".join(mismatches)
