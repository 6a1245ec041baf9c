"""Golden digests of the pipeline outputs at fixed seeds.

Each ``run-all`` case runs the whole pipeline in-process and compares the
sha256 of five output files against pinned values; the staged case runs
``explore``, ``estimate --truth`` and ``plan`` one after another and pins one
file of each stage. A refactor must leave every digest unchanged; a
deliberate behaviour change updates the digests here and says why in
CHANGES.md.

The digests belong to one toolchain: Python 3.11, numpy 2.4, scipy 1.17.
Other versions may round floating point differently and so produce other
bytes without any change in the code.
"""

import hashlib
from pathlib import Path

import pytest

from artiscene.cli import main

SCENES = Path(__file__).resolve().parents[1] / "scenes"

GOLDEN = {
    ("kitchen", 0): {
        "plan/plan.json":
            "1369355b842c517546d3c68bcbb4b860eef5a89b23f2f8fddbc329efd647d7e0",
        "estimate/metrics.csv":
            "5eefcf7ba428d181772c6bd60af63ba13b999063885c049f15f36942b667f4c2",
        "execution.csv":
            "76d82b6caca673d3948fc507ddeae1b73b8acb0bcc0b8d56ba301a1b2c5dad64",
        "explore/exploration_log.jsonl":
            "8d04e50d21170289efdcaf567aedab5193c3a1ba72c00a8aca18af5702b9b3dd",
        "explore/base_map.xyz":
            "493d781a2688ad878d2879a6b20185878e06f106af248172d3933bae1be88a03",
    },
    ("galley_block", 0): {
        "plan/plan.json":
            "8a9696e48134ee43420bb64b74366e559ed6af113b9986a57c0ccc1e7a203bf1",
        "estimate/metrics.csv":
            "3fa03134eaa33c1ac01ebcce0bdb2675f005ed51553dbf605562afeffc745629",
        "execution.csv":
            "15757937ed974387835ff9115238169fb7de05245a3f3b98ac162542caeeb372",
        "explore/exploration_log.jsonl":
            "b575ee5e4ff74aa1bce0fa92eb877bf697591f70989fa8b6548d15c788ed2344",
        "explore/base_map.xyz":
            "96dfed434c65f386568335d3c35adc267ae5fef59bc987632c2256e59dc47bfd",
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
            "cd1ba1b2c5525daf77528b9d4b066923a6d1bf296c754e0a3ae9869d7bb181e0",
        "estimate/metrics.csv":
            "5151f42c4b28728af4a9acf486208f89dec005deedc3163076443fb6736c31c3",
        "plan/plan.json":
            "c899a26ee3b24cedd95628fc589b99bf15127edbe712a0d0cab5647598fa9088",
    },
}


@pytest.mark.parametrize("scene,seed", sorted(STAGED))
def test_staged_commands_match_golden_digests(tmp_path, scene, seed):
    scene_path = SCENES / f"{scene}.json"
    explore, estimate, plan = (tmp_path / d for d in ("explore", "estimate", "plan"))
    assert main(["explore", "--scene", str(scene_path), "--out", str(explore),
                 "--seed", str(seed)]) == 0
    assert main(["estimate", "--records", str(explore), "--truth", str(scene_path),
                 "--out", str(estimate), "--seed", str(seed)]) == 0
    assert main(["plan", "--scene", str(estimate / "estimated_scene.json"),
                 "--goal", str(SCENES / f"{scene}_goal.json"),
                 "--out", str(plan), "--seed", str(seed)]) == 0
    mismatches = _mismatches(tmp_path, STAGED[(scene, seed)])
    assert not mismatches, (f"{scene} seed {seed} staged digests changed:\n"
                            + "\n".join(mismatches))
