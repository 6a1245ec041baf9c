import math

import pytest

from artiscene.execution import execute_plan, opening_degree
from artiscene.planner import PlannerConfig, plan_scene
from artiscene.scene import RobotState
from shipped import load, plan_inputs


def test_opening_degree_ratio():
    scene, _ = load("minimal_drawer")
    assert opening_degree(scene, "drawer_1", 0.15) == pytest.approx(1.0)
    assert opening_degree(scene, "drawer_1", 0.075) == pytest.approx(0.5)


def test_execute_drawer_to_goal():
    scene, _ = load("minimal_drawer")
    robot = RobotState(base_pose=(1.5, 1.0, math.pi / 2))
    state = scene.initial_state()
    plan = plan_scene(scene, state, robot, {"drawer_1": 0.15}, PlannerConfig(seed=0))
    assert plan.feasible
    result = execute_plan(scene, state, plan, scene, robot)
    out = result.outcomes[0]
    assert out.completed
    assert out.opening_degree == pytest.approx(1.0, abs=1e-9)
    assert result.final_state.theta("drawer_1") == pytest.approx(0.15, abs=1e-9)


def test_execute_kitchen_goal_with_true_model():
    # executing against the ground-truth model is the oracle upper bound
    scene, robot, goal = plan_inputs("kitchen")
    state = scene.initial_state()
    plan = plan_scene(scene, state, robot, goal, PlannerConfig(seed=0))
    assert plan.feasible
    result = execute_plan(scene, state, plan, scene, robot)
    for out in result.outcomes:
        assert out.opening_degree >= 0.99, out


def test_execution_respects_joint_limits():
    scene, _ = load("minimal_drawer")
    robot = RobotState(base_pose=(1.5, 1.0, math.pi / 2))
    state = scene.initial_state()
    plan = plan_scene(scene, state, robot, {"drawer_1": 0.15}, PlannerConfig(seed=1))
    result = execute_plan(scene, state, plan, scene, robot)
    part = scene.part("drawer_1")
    assert result.final_state.theta("drawer_1") <= part.joint.limit_max + 1e-12
