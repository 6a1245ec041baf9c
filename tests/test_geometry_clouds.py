import math

import numpy as np
import pytest

from artiscene.errors import DegenerateGeometryError
from artiscene.geometry import (PointCloud, cloud_displacement,
                                fit_rigid_transform, load_xyz, rodrigues_rotation,
                                save_xyz)


def rand_rotation(rng, max_angle=math.pi):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return rodrigues_rotation(axis, rng.uniform(0.0, max_angle))


def rotation_angle_deg(r):
    c = np.clip((np.trace(r) - 1.0) / 2.0, -1.0, 1.0)
    return math.degrees(math.acos(c))


# --- rigid fit ---------------------------------------------------------------

def test_fit_identity():
    rng = np.random.default_rng(3)
    pts = PointCloud(rng.normal(size=(50, 3)))
    t = fit_rigid_transform(pts, pts)
    assert np.allclose(t.rotation, np.eye(3), atol=1e-12)
    assert np.allclose(t.translation, 0.0, atol=1e-12)


def test_fit_recovers_known_transform():
    rng = np.random.default_rng(4)
    for _ in range(50):
        src = rng.normal(size=(200, 3))
        rot = rand_rotation(rng)
        trans = rng.normal(size=3)
        t = fit_rigid_transform(PointCloud(src), PointCloud(src @ rot.T + trans))
        assert np.linalg.norm(t.rotation - rot) < 1e-9
        assert np.linalg.norm(t.translation - trans) < 1e-9


def test_fit_exact_on_minimal_noncollinear():
    src = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]])
    rot = rodrigues_rotation((0, 0, 1.0), 0.7)
    dst = src @ rot.T + np.array([0.1, -0.2, 0.3])
    t = fit_rigid_transform(PointCloud(src), PointCloud(dst))
    assert np.linalg.norm(t.apply(src) - dst) < 1e-9


def test_fit_noise_monte_carlo():
    rng = np.random.default_rng(5)
    errs = []
    for _ in range(100):
        src = rng.uniform(-0.5, 0.5, size=(1000, 3))
        rot = rand_rotation(rng)
        trans = rng.normal(size=3)
        noisy = src @ rot.T + trans + rng.normal(0.0, 1e-3, size=(1000, 3))
        t = fit_rigid_transform(PointCloud(src), PointCloud(noisy))
        errs.append(rotation_angle_deg(t.rotation.T @ rot))
    assert max(errs) < 0.5


def test_fit_collinear_degenerate():
    line = np.column_stack([np.linspace(0, 1, 10), np.zeros(10), np.zeros(10)])
    with pytest.raises(DegenerateGeometryError):
        fit_rigid_transform(PointCloud(line), PointCloud(line + 0.1))


# --- chamfer displacement ----------------------------------------------------

def test_displacement_zero_for_equal_clouds():
    rng = np.random.default_rng(12)
    c = PointCloud(rng.normal(size=(100, 3)))
    assert cloud_displacement(c, c) == 0.0


def test_displacement_translated_plane_patch():
    # plane normal to the motion: every nearest neighbor is the moved twin
    g = np.linspace(-0.5, 0.5, 20)
    yy, zz = np.meshgrid(g, g)
    pts = np.column_stack([np.zeros(yy.size), yy.ravel(), zz.ravel()])
    a = PointCloud(pts)
    b = PointCloud(pts + np.array([0.10, 0.0, 0.0]))
    assert cloud_displacement(a, b) == pytest.approx(0.10, abs=1e-6)


def test_displacement_disjoint_clusters():
    rng = np.random.default_rng(13)
    a = PointCloud(rng.uniform(-0.05, 0.05, size=(200, 3)))
    b = PointCloud(rng.uniform(-0.05, 0.05, size=(200, 3)) + np.array([1.0, 0, 0]))
    assert cloud_displacement(a, b) >= 1.0 - 2 * 0.05 * math.sqrt(3)


def test_displacement_positive_for_distinct_clouds():
    a = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0]]))
    b = PointCloud(np.array([[0.0, 0, 0], [1.0, 0.2, 0]]))
    assert cloud_displacement(a, b) > 0.0


def test_displacement_symmetry():
    rng = np.random.default_rng(14)
    a = PointCloud(rng.normal(size=(150, 3)))
    b = PointCloud(rng.normal(size=(80, 3)))
    assert cloud_displacement(a, b) == pytest.approx(cloud_displacement(b, a), abs=1e-15)


def test_xyz_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    cloud = PointCloud(rng.normal(size=(64, 3)))
    path = tmp_path / "cloud.xyz"
    save_xyz(cloud, path)
    back = load_xyz(path)
    assert np.allclose(back.points, cloud.points, atol=1e-7)
