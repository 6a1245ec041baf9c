import math
import time

import numpy as np
import pytest

from artiscene.geometry import (RigidTransform, rodrigues_rotation,
                                rotation_axis_angle, unit)


def random_axis(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def test_zero_angle_is_identity():
    r = rodrigues_rotation((0.0, 0.0, 1.0), 0.0)
    assert np.allclose(r, np.eye(3), atol=1e-15)


def test_quarter_turn_about_z():
    r = rodrigues_rotation((0.0, 0.0, 1.0), math.pi / 2.0)
    assert np.allclose(r @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-12)


def test_non_unit_axis_rejected():
    with pytest.raises(ValueError):
        rodrigues_rotation((0.0, 0.0, 2.0), 0.3)


def test_rotation_group_properties_1000_samples():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    for _ in range(1000):
        u = random_axis(rng)
        a = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
        r = rodrigues_rotation(u, a)
        assert np.linalg.norm(r @ r.T - np.eye(3)) < 1e-9
        assert abs(np.linalg.det(r) - 1.0) < 1e-9
        assert np.linalg.norm(r @ u - u) < 1e-9          # axis fixed point
        assert abs(np.trace(r) - (1.0 + 2.0 * math.cos(a))) < 1e-9
        assert np.linalg.norm(r @ rodrigues_rotation(u, -a) - np.eye(3)) < 1e-9
    assert time.perf_counter() - t0 < 1.0


def test_axis_angle_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(200):
        u = random_axis(rng)
        a = rng.uniform(0.05, math.pi - 0.05)
        ax, ang = rotation_axis_angle(rodrigues_rotation(u, a))
        assert abs(ang - a) < 1e-9
        assert np.linalg.norm(ax - u) < 1e-8


def test_axis_angle_near_pi():
    u = unit(np.array([1.0, 2.0, 3.0]))
    ax, ang = rotation_axis_angle(rodrigues_rotation(u, math.pi - 1e-8))
    assert abs(ang - (math.pi - 1e-8)) < 1e-6
    assert min(np.linalg.norm(ax - u), np.linalg.norm(ax + u)) < 1e-3


def test_rigid_transform_compose_inverse():
    rng = np.random.default_rng(3)
    for _ in range(50):
        t = RigidTransform(rodrigues_rotation(random_axis(rng), rng.uniform(0, 3)),
                           rng.normal(size=3))
        p = rng.normal(size=(10, 3))
        assert np.allclose(t.inverse().apply(t.apply(p)), p, atol=1e-12)
        inv = t.inverse()  # t after its inverse: x -> R (R' x + t') + t
        assert np.allclose(t.rotation @ inv.rotation, np.eye(3), atol=1e-12)
        assert np.allclose(t.rotation @ inv.translation + t.translation, 0.0, atol=1e-12)
