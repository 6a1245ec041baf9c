"""Every box and transform the program derives is proper: its rotation is
orthonormal with determinant +1 and a box's half extents are positive.

RigidTransform and OrientedBox do not check this when they are built; only
boxes read from a scene file are checked (scene._box_from_json). These tests
check what the program derives from valid inputs: the posed parts of every
shipped scene and their standing boxes, and the fits, alignment candidates
and estimated boxes of the estimate stage on the golden cases' records.
"""

import numpy as np
import pytest

from artiscene import estimation
from artiscene.cli import main
from artiscene.planner import _standing_box, sample_part_sweep
from artiscene.scene import part_pose_at, part_shape_at
from shipped import SCENES, aligned_box, load

TOL = 1e-8
SCENE_NAMES = sorted(p.stem for p in SCENES.glob("*.json") if not p.stem.endswith("_goal"))


def improper(rotation) -> list:
    """The rules a rotation breaks: 'orthonormal' and 'det'."""
    r = np.asarray(rotation)
    broken = []
    if np.linalg.norm(r @ r.T - np.eye(3)) > TOL:
        broken.append("orthonormal")
    if abs(np.linalg.det(r) - 1.0) > TOL:
        broken.append("det")
    return broken


def bad_box(box) -> list:
    return improper(box.orientation) + (["half extents"] if np.any(box.half_extents <= 0.0)
                                        else [])


def test_the_checks_see_improper_rotations_and_flat_boxes():
    assert improper(np.diag([1.0, 1.0, -1.0])) == ["det"]
    assert improper(np.eye(3) * 1.001) == ["orthonormal", "det"]
    assert bad_box(aligned_box((0, 0, 0), (0.1, 0.0, 0.1))) == ["half extents"]


@pytest.mark.parametrize("name", SCENE_NAMES)
def test_posed_parts_and_standing_boxes_are_proper(name):
    scene, _ = load(name)
    found = [(i, bad_box(b)) for i, b in enumerate(scene.base.obstacles) if bad_box(b)]
    checked = 0
    for part in scene.parts:
        j = part.joint
        for theta in np.linspace(j.limit_min, j.limit_max, 25).tolist():
            pose, box = part_pose_at(part, theta), part_shape_at(part, theta)
            for what, broken in (("pose", improper(pose.rotation)),
                                 ("inverse", improper(pose.inverse().rotation)),
                                 ("box", bad_box(box)),
                                 ("standing", bad_box(_standing_box(box)))):
                if broken:
                    found.append((part.id, theta, what, broken))
            checked += 1
        found += [(part.id, "sweep", bad_box(b)) for b in sample_part_sweep(part)
                  if bad_box(b)]
    assert checked == 25 * len(scene.parts) > 0
    assert not found, found


GOLDEN_CASES = [("kitchen", 0), ("galley_block", 0), ("blocked_aisle", 0), ("galley_block", 6)]


@pytest.mark.parametrize("name,seed", GOLDEN_CASES, ids=[f"{n}-{s}" for n, s in GOLDEN_CASES])
def test_fits_candidates_and_estimated_boxes_are_proper(tmp_path, monkeypatch, name, seed):
    """The estimate stage on the records explore writes for a golden case:
    every fit_rigid_transform result, every coarse alignment candidate, the
    motion of every estimate and its inverse, and every obb_from_points box."""
    derived = {"fit": [], "candidate": [], "box": []}

    def recording(kind, fn, pick):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            derived[kind] += pick(result)
            return result
        return wrapper

    for binding, kind, pick in (
            ("fit_rigid_transform", "fit", lambda t: [t.rotation]),
            ("_alignment_candidates", "candidate", lambda c: [t.rotation for t, _ in c]),
            ("obb_from_points", "box", lambda b: [b])):
        monkeypatch.setattr(estimation, binding,
                            recording(kind, getattr(estimation, binding), pick))
    real_fit_screw = estimation.fit_screw

    def fit_screw(*args, **kwargs):
        fit = real_fit_screw(*args, **kwargs)
        derived["fit"] += [fit.transform.rotation, fit.transform.inverse().rotation]
        return fit

    monkeypatch.setattr(estimation, "fit_screw", fit_screw)
    explore, estimate = tmp_path / "explore", tmp_path / "estimate"
    assert main(["explore", "--scene", str(SCENES / f"{name}.json"), "--seed", str(seed),
                 "--out", str(explore)]) == 0
    assert main(["estimate", "--records", str(explore), "--out", str(estimate)]) == 0
    assert len(derived["box"]) >= 2 and len(derived["candidate"]) > len(derived["fit"]) > 0
    found = [(kind, i, broken) for kind in ("fit", "candidate")
             for i, r in enumerate(derived[kind]) if (broken := improper(r))]
    found += [("box", i, broken) for i, b in enumerate(derived["box"]) if (broken := bad_box(b))]
    assert not found, found
