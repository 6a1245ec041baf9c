"""The shipped scenes under scenes/, read the way the command-line tool reads
them, and the boxes and parts the tests build their own scenes from."""

import json
import math
from pathlib import Path

import numpy as np

from artiscene.geometry import OrientedBox
from artiscene.scene import MobilePart, RobotState, load_scene_extras

SCENES = Path(__file__).resolve().parents[1] / "scenes"


def load(name, where=SCENES):
    """(scene, extras) of <where>/<name>.json."""
    return load_scene_extras(where / f"{name}.json")


def plan_inputs(name, where=SCENES):
    """(scene, robot at the scene's start, goal of <name>_goal.json in radians
    for revolute parts and meters for prismatic ones)."""
    scene, extras = load(name, where)
    x, y, heading = extras["robot"]["start"]
    robot = RobotState(base_pose=(x, y, math.radians(heading)))
    raw = json.loads((where / f"{name}_goal.json").read_text())
    goal = {pid: math.radians(v) if scene.part(pid).joint.kind == "revolute" else float(v)
            for pid, v in raw.items()}
    return scene, robot, goal


def aligned_box(center, half_extents):
    """OrientedBox with the world axes as its orientation."""
    return OrientedBox(center, half_extents, np.eye(3))


def handle_part(joint, p):
    """A part on joint whose handle p lies inside its small box."""
    return MobilePart("p", aligned_box(p, (0.05, 0.05, 0.05)), joint, p)
