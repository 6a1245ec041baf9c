"""Open-loop execution of an interaction plan against the simulated scene.

The executor believes the estimated model: it tracks joint progress from the
simulator's reported advances, aims each pull at the next waypoint of the
planned trajectory, and stops a step at its goal or after repeated stalls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GraspFailureError
from .geometry import unit
from .planner import InteractionPlan
from .scene import KinematicScene, RobotState, SceneState, handle_at
from .sim import STEP_SIZE, arm_blocked, attempt_pull

STALL_LIMIT = 8


@dataclass
class StepOutcome:
    part_id: str
    goal: float
    achieved: float       # true joint state after the step
    opening_degree: float
    pulls: int
    completed: bool


@dataclass
class ExecutionResult:
    outcomes: list
    final_state: SceneState


def opening_degree(scene: KinematicScene, part_id: str, theta: float) -> float:
    """Ratio of the joint state to its maximum state."""
    return theta / scene.part(part_id).joint.max_state()


def execute_plan(scene: KinematicScene, state: SceneState, plan: InteractionPlan,
                 est_scene: KinematicScene, robot: RobotState) -> ExecutionResult:
    """Drive each planned step with micro-pulls along its trajectory."""
    outcomes = []
    for step in plan.steps:
        robot = robot.at(step.base_pose)
        est_part = est_scene.part(step.part_id)
        delta = step.trajectory.goal_delta
        start_est = step.goal - delta
        max_pulls = int(math.ceil(abs(delta) / STEP_SIZE[est_part.joint.kind])) * 3 + 30

        progress = 0.0
        stalls = 0
        pulls = 0
        while progress < delta - 1e-9 and pulls < max_pulls and stalls < STALL_LIMIT:
            pulls += 1
            theta_est = min(start_est + progress, est_part.joint.limit_max)
            grasp = handle_at(est_part, theta_est)
            target = _next_waypoint(step.trajectory, progress, delta, grasp)
            if target is None:
                break
            direction = unit(target - grasp)
            if arm_blocked(scene, state, step.part_id, grasp, robot):
                stalls += 1
                continue
            try:
                result = attempt_pull(scene, state, step.part_id, grasp, direction)
            except GraspFailureError:
                stalls += 1
                continue
            if result.slipped or abs(result.advanced) <= 1e-12:
                stalls += 1
                continue
            stalls = 0
            state = result.state
            progress += result.advanced

        achieved = state.theta(step.part_id)
        outcomes.append(StepOutcome(
            part_id=step.part_id, goal=step.goal, achieved=achieved,
            opening_degree=opening_degree(scene, step.part_id, achieved),
            pulls=pulls, completed=progress >= delta - 1e-9))
    return ExecutionResult(outcomes, state)


def _next_waypoint(trajectory, progress: float, delta: float, grasp: np.ndarray):
    """First waypoint strictly ahead of the current progress."""
    k = trajectory.K
    idx = min(k, int(math.floor(progress / delta * k + 1e-9)) + 1)
    for i in range(idx, k + 1):
        w = trajectory.waypoints[i]
        if float(np.linalg.norm(w - grasp)) > 1e-9:
            return w
    return None
