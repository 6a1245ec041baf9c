import json
import math

import numpy as np
import pytest

from artiscene.errors import (LimitViolationError, SceneFormatError,
                              SceneValidationError, UnknownPartError)
from artiscene.scene import (R_MAX, R_MIN, Z_MAX, Z_MIN, JointModel, KinematicScene,
                             MobilePart, RobotState, SceneState, StaticBaseMap,
                             goal_satisfied, handle_at, load_scene, part_pose_at,
                             part_shape_at, save_scene, scene_from_json, scene_to_json)
from shipped import aligned_box, load


def drawer_part(part_id="d", axis=(1.0, 0.0, 0.0)):
    shape = aligned_box((0.0, 0.0, 0.5), (0.2, 0.02, 0.15))
    joint = JointModel("prismatic", axis, None, 0.0, 0.15)
    return MobilePart(part_id, shape, joint, (0.0, -0.02, 0.5))


def door_part(part_id="door"):
    shape = aligned_box((1.15, 0.0, 0.5), (0.15, 0.02, 0.3))
    joint = JointModel("revolute", (0.0, 0.0, 1.0), (1.0, 0.0, 0.5), 0.0, math.pi / 2)
    return MobilePart(part_id, shape, joint, (1.28, -0.02, 0.5))


def test_joint_invariants():
    with pytest.raises(ValueError):
        JointModel("revolute", (0, 0, 2.0), (0, 0, 0), 0.0, 1.0)
    with pytest.raises(ValueError):
        JointModel("revolute", (0, 0, 1.0), None, 0.0, 1.0)
    with pytest.raises(ValueError):
        JointModel("prismatic", (0, 0, 1.0), (0, 0, 0), 0.0, 1.0)
    with pytest.raises(LimitViolationError):
        JointModel("prismatic", (0, 0, 1.0), None, 0.05, 0.1)  # closed state 0.0 outside


def test_handle_must_touch_shape():
    shape = aligned_box((0, 0, 0.5), (0.2, 0.02, 0.15))
    joint = JointModel("prismatic", (1.0, 0, 0), None, 0.0, 0.15)
    with pytest.raises(SceneValidationError):
        MobilePart("bad", shape, joint, (0.0, -0.5, 0.5))


def test_part_pose_identity_at_zero():
    for part in (drawer_part(), door_part()):
        t = part_pose_at(part, 0.0)
        assert np.allclose(t.rotation, np.eye(3), atol=1e-12)
        assert np.allclose(t.translation, 0.0, atol=1e-12)


def test_prismatic_pose_is_axis_translation():
    t = part_pose_at(drawer_part(), 0.15)
    assert np.allclose(t.translation, [0.15, 0, 0], atol=1e-12)
    assert np.allclose(t.rotation, np.eye(3), atol=1e-12)


def test_revolute_pose_hand_computed():
    # rotation about z through q=(1,0,0) by 90 degrees: (1.3,0,0.5) -> (1,0.3,0.5)
    part = door_part()
    t = part_pose_at(part, math.pi / 2)
    moved = t.apply(np.array([1.3, 0.0, 0.5]))
    assert np.allclose(moved, [1.0, 0.3, 0.5], atol=1e-12)


def test_pose_out_of_limits():
    with pytest.raises(LimitViolationError):
        part_pose_at(drawer_part(), 0.2)


def test_revolute_preserves_corner_distance_to_axis():
    part = door_part()
    axis_point = np.asarray(part.joint.pivot)
    axis = np.asarray(part.joint.axis)
    corners = part.shape.corners()

    def dist_to_axis(p):
        rel = p - axis_point
        return np.linalg.norm(rel - (rel @ axis) * axis)

    for theta in np.linspace(0.0, math.pi / 2, 7):
        t = part_pose_at(part, theta)
        for c in corners:
            assert abs(dist_to_axis(t.apply(c)) - dist_to_axis(c)) < 1e-9


def test_prismatic_pose_composition():
    part = drawer_part()
    t1 = part_pose_at(part, 0.05)
    t2 = part_pose_at(part, 0.07)
    # t1 after t2: x -> R1 (R2 x + t2) + t1
    both = t1.rotation @ t2.translation + t1.translation
    t12 = part_pose_at(part, 0.12)
    assert np.allclose(t1.rotation @ t2.rotation, t12.rotation, atol=1e-12)
    assert np.allclose(both, t12.translation, atol=1e-12)


def test_handle_tracks_revolute_motion():
    part = door_part()
    h = handle_at(part, math.pi / 2)
    # handle (1.28,-0.02) about pivot (1.0, 0): rel (0.28,-0.02) -> (0.02, 0.28)
    assert np.allclose(h, [1.02, 0.28, 0.5], atol=1e-12)


def test_posed_box_is_shared_and_read_only():
    part = door_part()
    box = part_shape_at(part, 0.3)
    assert part_shape_at(part, 0.3) is box
    expected = part.shape.transformed(part_pose_at(part, 0.3))
    assert np.array_equal(box.center, expected.center)
    assert np.array_equal(box.orientation, expected.orientation)
    with pytest.raises(ValueError, match="read-only"):
        box.center[0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        box.orientation[:] = np.eye(3)
    assert np.array_equal(part_shape_at(part, 0.3).center, expected.center)
    # handle_at hands out a fresh array
    h = handle_at(part, 0.3)
    h[0] = 5.0
    assert handle_at(part, 0.3)[0] != 5.0


def test_scene_rejects_duplicate_ids_and_overlap():
    base = StaticBaseMap((), (-1, -1), (3, 3))
    with pytest.raises(SceneValidationError):
        KinematicScene(base, (drawer_part("a"), drawer_part("a")))
    p1 = drawer_part("a")
    p2 = drawer_part("b")  # identical shapes overlap
    with pytest.raises(SceneValidationError):
        KinematicScene(base, (p1, p2))


def test_scene_overlap_error_names_the_first_pair_in_loop_order():
    base = StaticBaseMap((), (-1, -1), (3, 3))
    # overlapping pairs: (a, d) and (b, c); (b, c) comes first column-wise
    parts = (drawer_part("a"), door_part("b"), door_part("c"), drawer_part("d"))
    with pytest.raises(SceneValidationError, match="parts 'a' and 'd' overlap"):
        KinematicScene(base, parts)
    with pytest.raises(SceneValidationError, match="parts 'b' and 'c' overlap"):
        KinematicScene(base, parts[1:] + parts[:1])


def test_goal_satisfied_thresholds():
    scene, _ = load("minimal_drawer")
    state = scene.initial_state()
    assert goal_satisfied(scene, state, {})
    assert not goal_satisfied(scene, state, {"drawer_1": 0.05})
    assert goal_satisfied(scene, state.with_theta("drawer_1", 0.05), {"drawer_1": 0.05})
    with pytest.raises(UnknownPartError):
        goal_satisfied(scene, state, {"nope": 0.1})


def test_goal_revolute_30_degree_threshold():
    base = StaticBaseMap((), (-1, -1), (3, 3))
    scene = KinematicScene(base, (door_part("door"),))
    goal = {"door": math.radians(30.0)}
    sat35 = SceneState({"door": math.radians(35.0)})
    sat25 = SceneState({"door": math.radians(25.0)})
    assert goal_satisfied(scene, sat35, goal)
    assert not goal_satisfied(scene, sat25, goal)


def test_minimal_scene_loads_with_one_part(tmp_path):
    scene, extras = load("minimal_drawer")
    path = tmp_path / "scene.json"
    save_scene(scene, path, extra=extras)
    loaded = load_scene(path)
    assert len(loaded.parts) == 1
    assert loaded.parts[0].joint.kind == "prismatic"


def test_kitchen_loads_with_nine_parts(tmp_path):
    scene, extras = load("kitchen")
    path = tmp_path / "kitchen.json"
    save_scene(scene, path, extra=extras)
    loaded = load_scene(path)
    assert len(loaded.parts) == 9
    kinds = [p.joint.kind for p in loaded.parts]
    assert kinds.count("revolute") == 5
    assert kinds.count("prismatic") == 4


def test_round_trip_preserves_numbers(tmp_path):
    scene, _ = load("kitchen")
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_scene(scene, p1)
    save_scene(load_scene(p1), p2)
    d1 = json.loads(p1.read_text())
    d2 = json.loads(p2.read_text())
    assert d1 == d2
    again = scene_from_json(scene_to_json(scene))
    for orig, back in zip(scene.parts, again.parts):
        assert np.allclose(orig.shape.center, back.shape.center, atol=1e-12)
        assert np.allclose(orig.joint.axis, back.joint.axis, atol=1e-12)
        assert abs(orig.joint.limit_max - back.joint.limit_max) < 1e-12


def test_schema_violations_name_the_field(tmp_path):
    scene, _ = load("minimal_drawer")
    doc = scene_to_json(scene)
    del doc["parts"][0]["joint"]["axis"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SceneFormatError) as exc:
        load_scene(path)
    assert "axis" in str(exc.value)


NAN, INF = float("nan"), float("inf")


NON_FINITE_FIELDS = [
    (("parts", 0, "shape", "center"), [1.5, NAN, 0.5], "parts[0].shape.center"),
    (("parts", 0, "shape", "half_extents"), [0.2, 0.015, NAN], "parts[0].shape.half_extents"),
    (("parts", 0, "shape", "yaw_deg"), NAN, "parts[0].shape.yaw_deg"),
    (("parts", 0, "shape", "rotation"), [1, 0, 0, 0, 1, 0, 0, 0, INF],
     "parts[0].shape.rotation"),
    (("parts", 0, "joint", "axis"), [0.0, NAN, 0.0], "parts[0].joint.axis"),
    (("parts", 0, "joint", "limits_m"), [0.0, INF], "parts[0].joint.limits_m"),
    (("parts", 0, "joint"), {"kind": "revolute", "axis": [0, 0, 1],
                             "pivot": [1.3, NAN, 0.5], "limits_deg": [0, 90]},
     "parts[0].joint.pivot"),
    (("parts", 0, "joint"), {"kind": "revolute", "axis": [0, 0, 1],
                             "pivot": [1.3, 2.42, 0.5], "limits_deg": [0, -INF]},
     "parts[0].joint.limits_deg"),
    (("parts", 0, "handle"), [1.5, NAN, 0.5], "parts[0].handle"),
    (("base", "floor_bounds", "max"), [INF, 3.0], "base.floor_bounds.max"),
    (("base", "floor_bounds", "min"), [0.0, -INF], "base.floor_bounds.min"),
    (("base", "obstacles"), [{"center": [0.5, 0.5, NAN], "half_extents": [0.1, 0.1, 0.1]}],
     "base.obstacles[0].center"),
]


@pytest.mark.parametrize("path,value,field", NON_FINITE_FIELDS,
                         ids=[field for _, _, field in NON_FINITE_FIELDS])
def test_non_finite_scene_numbers_name_the_field(path, value, field):
    # json reads NaN and Infinity, so the scene checks refuse them by field
    scene, _ = load("minimal_drawer")
    doc = scene_to_json(scene)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(SceneFormatError) as exc:
        scene_from_json(json.loads(json.dumps(doc)))
    assert exc.value.field == field


# boxes are checked where a scene file enters, not by the OrientedBox
# constructor: a proper orthonormal rotation and positive half extents
BAD_BOXES = [
    (("parts", 0, "shape", "rotation"), [1, 0, 0, 0, 1, 0, 0, 0, -1],
     "parts[0].shape.rotation"),  # improper: a reflection
    (("parts", 0, "shape", "rotation"), [1, 0, 0, 0, 1, 0.1, 0, 0, 1],
     "parts[0].shape.rotation"),  # not orthonormal
    (("parts", 0, "shape", "half_extents"), [0.2, 0.0, 0.12], "parts[0].shape.half_extents"),
    (("parts", 0, "shape", "half_extents"), [0.2, 0.015, -0.12],
     "parts[0].shape.half_extents"),
    (("base", "obstacles"), [{"center": [0.5, 0.5, 0.5], "half_extents": [0.1, 0.0, 0.1]}],
     "base.obstacles[0].half_extents"),
]


@pytest.mark.parametrize("path,value,field", BAD_BOXES,
                         ids=["improper-rotation", "skewed-rotation", "zero-half-extent",
                              "negative-half-extent", "flat-obstacle"])
def test_bad_scene_boxes_name_the_field(path, value, field):
    scene, _ = load("minimal_drawer")
    doc = scene_to_json(scene)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(SceneFormatError) as exc:
        scene_from_json(json.loads(json.dumps(doc)))
    assert exc.value.field == field


def test_overlapping_parts_rejected_at_load(tmp_path):
    scene, _ = load("minimal_drawer")
    doc = scene_to_json(scene)
    clone = json.loads(json.dumps(doc["parts"][0]))
    clone["id"] = "drawer_2"
    doc["parts"].append(clone)
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SceneValidationError):
        load_scene(path)


def test_prismatic_limit_field_mismatch(tmp_path):
    scene, _ = load("minimal_drawer")
    doc = scene_to_json(scene)
    doc["parts"][0]["joint"]["limits_deg"] = [0, 90]
    del doc["parts"][0]["joint"]["limits_m"]
    path = tmp_path / "units.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SceneFormatError) as exc:
        load_scene(path)
    assert "limits_deg" in str(exc.value)


def test_robot_reach_annulus():
    robot = RobotState(base_pose=(0.0, 0.0, 0.0))
    assert robot.can_reach((0.5, 0.0, 0.5))
    assert not robot.can_reach((0.05, 0.0, 0.5))   # inside r_min
    assert not robot.can_reach((2.0, 0.0, 0.5))    # beyond r_max
    assert not robot.can_reach((0.5, 0.0, 1.5))    # above the height band


def test_reach_mask_boundary_matches_math_hypot():
    # offsets at exactly R_MIN or R_MAX by math.hypot where np.hypot differs
    # in the last bit: a point on an annulus edge must still count as reached
    rng = np.random.default_rng(4)
    offsets = []
    for radius in (R_MIN, R_MAX):
        found = []
        for x in rng.uniform(0.1, 0.9, 8000) * radius:
            y0 = math.sqrt(radius * radius - x * x)
            y = next((y for y in (y0 + k * math.ulp(y0) for k in range(-4, 5))
                      if math.hypot(x, y) == radius), None)
            if y is not None and np.hypot(x, y) != radius:
                found.append((x, y))
        assert found, radius
        offsets += found[:20]
    robot = RobotState(base_pose=(0.0, 0.0, 0.0))
    for x, y in offsets:
        assert robot.can_reach((x, y, 0.5))
        mask = robot.reach_mask([(x, y, 0.5), (x, y, 1.5)], bases=[(0.0, 0.0), (x, y)])
        assert mask.tolist() == [[True, False], [False, False]]


def test_can_reach_equals_reach_mask_at_the_annulus_and_band_edges():
    # can_reach's one math.hypot gives reach_mask's verdict for points a few
    # ulps either side of R_MIN, R_MAX, Z_MIN and Z_MAX
    rng = np.random.default_rng(12)
    verdicts = set()
    for _ in range(30):
        base = (*rng.uniform(-3.0, 3.0, 2).tolist(), 0.0)
        angle = rng.uniform(-math.pi, math.pi)
        c, s = math.cos(angle), math.sin(angle)
        dist, z = rng.uniform(R_MIN, R_MAX), rng.uniform(Z_MIN, Z_MAX)
        for k in range(-3, 4):
            points = [(base[0] + r * c, base[1] + r * s, z)
                      for r in (R_MIN + k * math.ulp(R_MIN), R_MAX + k * math.ulp(R_MAX))]
            points += [(base[0] + dist * c, base[1] + dist * s, h + k * math.ulp(h))
                       for h in (Z_MIN, Z_MAX)]
            robot = RobotState(base_pose=base)
            for point in points:
                expected = bool(robot.reach_mask(point)[0, 0])
                assert robot.can_reach(point) is expected, (base, point)
                verdicts.add(expected)
    assert verdicts == {True, False}


def test_unreachable_handle_rejected_at_load(tmp_path):
    # drawer handle walled in on all sides: no free floor within arm reach
    scene, extras = load("minimal_drawer")
    doc = scene_to_json(scene)
    for cx, cy, hx, hy in ((1.5, 1.2, 1.5, 0.15), (1.5, 2.95, 1.5, 0.05),
                           (0.25, 2.1, 0.2, 1.0), (2.75, 2.1, 0.2, 1.0)):
        doc["base"]["obstacles"].append(
            {"center": [cx, cy, 0.5], "half_extents": [hx, hy, 0.5], "yaw_deg": 0})
    path = tmp_path / "walled.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SceneValidationError):
        load_scene(path)
