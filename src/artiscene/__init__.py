"""Scene-level articulation modeling and interaction planning in simulation."""

from .errors import ArtisceneError
from .geometry import (OrientedBox, PointCloud, RigidTransform, cloud_displacement,
                       fit_rigid_transform, obb_intersects, rodrigues_rotation)
from .scene import (JointModel, KinematicScene, MobilePart, RobotState, SceneState,
                    StaticBaseMap, goal_satisfied, load_scene, part_pose_at,
                    save_scene)
from .sim import Observation, SimConfig, attempt_pull, nav_grid, render_observation
from .exploration import (ExplorationConfig, ExplorationRecord, classify_joint,
                          compliance_action, detect_failure, explore_scene,
                          reposition_base)
from .estimation import (ContactHeatmap, EstimatedArticulation, articulation_errors,
                         fit_screw, segment_mobile_part)
from .planner import (EndEffectorTrajectory, InteractionPlan, PlannerConfig,
                      check_part_collision, check_path, plan_scene,
                      prismatic_trajectory, revolute_trajectory, sample_part_sweep,
                      select_base)
from .execution import execute_plan

__version__ = "0.1.0"

__all__ = [
    "ArtisceneError", "OrientedBox", "PointCloud", "RigidTransform",
    "cloud_displacement", "fit_rigid_transform", "obb_intersects",
    "rodrigues_rotation", "JointModel",
    "KinematicScene", "MobilePart", "RobotState", "SceneState", "StaticBaseMap",
    "goal_satisfied", "load_scene", "part_pose_at", "save_scene", "Observation",
    "SimConfig", "attempt_pull", "nav_grid", "render_observation",
    "ExplorationConfig", "ExplorationRecord", "classify_joint",
    "compliance_action", "detect_failure", "explore_scene", "reposition_base",
    "ContactHeatmap", "EstimatedArticulation", "articulation_errors", "fit_screw",
    "segment_mobile_part", "EndEffectorTrajectory",
    "InteractionPlan", "PlannerConfig", "check_part_collision", "check_path",
    "plan_scene", "prismatic_trajectory", "revolute_trajectory",
    "sample_part_sweep", "select_base", "execute_plan",
]
