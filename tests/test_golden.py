"""Golden digests of the pipeline outputs at fixed seeds.

Each case runs ``run-all`` in-process and compares the sha256 of five output
files against pinned values. A refactor must leave every digest unchanged; a
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


@pytest.mark.parametrize("scene,seed", sorted(GOLDEN))
def test_run_all_outputs_match_golden_digests(tmp_path, scene, seed):
    out = tmp_path / "out"
    rc = main(["run-all", "--scene", str(SCENES / f"{scene}.json"),
               "--goal", str(SCENES / f"{scene}_goal.json"),
               "--out", str(out), "--seed", str(seed)])
    assert rc == 0
    mismatches = []
    for name, expected in GOLDEN[(scene, seed)].items():
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        if digest != expected:
            mismatches.append(f"{name}: {digest}")
    assert not mismatches, (f"{scene} seed {seed} digests changed:\n"
                            + "\n".join(mismatches))
