import math
from collections import Counter

import numpy as np
import pytest
from scipy.spatial import cKDTree

from artiscene import geometry
from artiscene.errors import DegenerateGeometryError
from artiscene.geometry import (PointCloud, consensus_plane_normal,
                                fit_rigid_transform, load_xyz, plane_normal,
                                rodrigues_rotation, save_xyz)
from oracles import cloud_displacement


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


@pytest.mark.parametrize("n", [0, 1, 2, 1000])
def test_save_xyz_writes_savetxt_bytes(tmp_path, n):
    rng = np.random.default_rng(16 + n)
    pts = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-300, 21, size=(n, 3))
    special = np.array([-0.0, 1e-300, 1e20, -1e20, 0.0, -1e-300, 0.1, 1.0 / 3.0, 123456789.5])
    pts.ravel()[:min(pts.size, special.size)] = special[:pts.size]
    save_xyz(PointCloud(pts), tmp_path / "ours.xyz")
    np.savetxt(tmp_path / "savetxt.xyz", pts, fmt="%.9g")
    assert (tmp_path / "ours.xyz").read_bytes() == (tmp_path / "savetxt.xyz").read_bytes()


# --- consensus plane normal ----------------------------------------------------

def reference_consensus_plane_normal(points, viewpoint=None, min_points=6,
                                     inlier_tol=0.008):
    """consensus_plane_normal as one KD query, plane fit and inlier count per
    anchor; returns (normal, whether another anchor tied the winning count
    with different inliers)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    n = pts.shape[0]
    step = max(1, n // 12)
    tree = cKDTree(pts)
    best_mask = None
    best_count = 0
    tied = False
    for anchor in range(0, n, step):
        _, idx = tree.query(pts[anchor], k=min(9, n))
        try:
            cand = plane_normal(pts[idx])
        except DegenerateGeometryError:
            continue
        res = np.abs((pts - pts[idx].mean(axis=0)) @ cand)
        inliers = res <= inlier_tol
        count = int(inliers.sum())
        if count > best_count:
            best_count = count
            best_mask = inliers
            tied = False
        elif count == best_count and not np.array_equal(inliers, best_mask):
            tied = True
    if best_mask is None or best_count < max(min_points, 3):
        return plane_normal(pts, viewpoint=viewpoint), False
    return plane_normal(pts[best_mask], viewpoint=viewpoint), tied


def _planes_case(rng, n):
    """Two perpendicular plane patches meeting along an edge, with noise."""
    k = int(rng.integers(0, n + 1))
    a = np.column_stack([rng.uniform(-0.1, 0.1, k), np.zeros(k), rng.uniform(-0.1, 0.1, k)])
    b = np.column_stack([rng.uniform(-0.1, 0.1, n - k), rng.uniform(-0.1, 0.0, n - k),
                         np.zeros(n - k)])
    sigma = rng.choice([0.0, 0.001, 0.003, 0.01])
    return np.vstack([a, b]) + rng.normal(0.0, sigma, (n, 3))


def _mirrored_case(rng, n):
    """A noiseless patch and its mirror image across x = z, shuffled: anchors
    on either patch tie in inlier count with different inliers."""
    half = rng.uniform(0.0, 0.1, (n // 2, 2))
    a = np.column_stack([half, np.zeros(n // 2)])
    return np.vstack([a, a[:, [2, 1, 0]]])


def _line_and_plane_case(rng, n):
    """A plane patch plus a dense collinear strand: anchors on the strand
    have degenerate neighborhoods and are skipped."""
    k = int(rng.integers(9, max(10, n // 2)))
    line = np.outer(rng.uniform(0.0, 0.1, k), [0.0, 0.0, 1.0]) + [0.3, 0.0, 0.0]
    plane = np.column_stack([rng.uniform(-0.1, 0.1, n), np.zeros(n), rng.uniform(-0.1, 0.1, n)])
    return np.vstack([line, plane])


def _collinear_case(rng, n):
    return np.outer(rng.uniform(-1.0, 1.0, n), rng.normal(size=3)) + rng.normal(size=3)


def _coincident_case(rng, n):
    return np.tile(rng.normal(size=3), (n, 1))


def _clusters_case(rng, n):
    """Clusters of coincident points (degenerate anchors) on a tilted plane."""
    centers = np.column_stack([rng.uniform(-0.1, 0.1, (4, 2)), np.zeros(4)])
    return (centers[rng.integers(0, 4, n)] @ rodrigues_rotation((1.0, 0.0, 0.0), 0.3).T
            + rng.normal(0.0, rng.choice([0.0, 0.002]), (n, 3)) * (rng.random((n, 1)) < 0.5))


def _small_case(rng, n):
    return rng.normal(0.0, 0.05, (int(rng.integers(0, 14)), 3))


CONSENSUS_CASES = (_planes_case, _mirrored_case, _line_and_plane_case, _collinear_case,
                   _coincident_case, _clusters_case, _small_case)


def test_consensus_plane_normal_matches_loop_reference(monkeypatch):
    rng = np.random.default_rng(2025)
    outcomes = Counter()
    for case in range(420):
        make = CONSENSUS_CASES[case % len(CONSENSUS_CASES)]
        pts = make(rng, int(rng.integers(3, 200)))
        pts = pts[rng.permutation(len(pts))]
        kwargs = {"viewpoint": rng.normal(size=3) if rng.random() < 0.5 else None,
                  "min_points": int(rng.integers(1, 40))}
        inlier_tol = float(rng.choice([0.002, 0.008, 0.05]))
        monkeypatch.setattr(geometry, "INLIER_TOL", inlier_tol)
        try:
            expected, tied = reference_consensus_plane_normal(pts, inlier_tol=inlier_tol,
                                                               **kwargs)
        except DegenerateGeometryError as e:
            with pytest.raises(DegenerateGeometryError) as got:
                consensus_plane_normal(pts, **kwargs)
            assert str(got.value) == str(e), case
            outcomes[make.__name__, "raised"] += 1
            continue
        assert np.array_equal(consensus_plane_normal(pts, **kwargs), expected), case
        # a tree over the same points built elsewhere gives the same normal
        assert np.array_equal(consensus_plane_normal(pts, tree=cKDTree(pts), **kwargs),
                              expected), case
        outcomes[make.__name__, "tied" if tied else "normal"] += 1
    for make in (_planes_case, _mirrored_case, _line_and_plane_case, _clusters_case,
                 _small_case):
        assert outcomes[make.__name__, "normal"] + outcomes[make.__name__, "tied"] > 0
    for make in (_collinear_case, _coincident_case, _small_case):
        assert outcomes[make.__name__, "raised"] > 0
    assert outcomes["_mirrored_case", "tied"] > 10
