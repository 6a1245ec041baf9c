import itertools
import math

import numpy as np
import pytest

from artiscene.geometry import OrientedBox, obb_overlaps, rodrigues_rotation
from oracles import boxes_overlap_oracle, obb_separation
from shipped import aligned_box


def overlaps(a, b, margin=0.02) -> bool:
    """obb_overlaps' verdict for the single pair (a, b)."""
    return bool(obb_overlaps([a], [b], margin)[0, 0])


def random_box(rng, center_scale=1.0):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    rot = rodrigues_rotation(axis, rng.uniform(0.0, np.pi))
    return OrientedBox(rng.uniform(-center_scale, center_scale, size=3),
                       rng.uniform(0.1, 0.6, size=3), rot)


def test_identical_boxes_intersect():
    box = aligned_box((0, 0, 0), (1, 1, 1))
    assert overlaps(box, box, margin=0.0)


def test_distant_cubes_disjoint():
    a = aligned_box((0, 0, 0), (0.5, 0.5, 0.5))
    b = aligned_box((5, 0, 0), (0.5, 0.5, 0.5))
    assert not overlaps(a, b, margin=0.0)


def test_margin_inflates_both_boxes():
    a = aligned_box((0, 0, 0), (0.5, 0.5, 0.5))
    b = aligned_box((1.1, 0, 0), (0.5, 0.5, 0.5))
    assert not overlaps(a, b, margin=0.0)
    assert overlaps(a, b, margin=0.06)  # gap 0.1 closed by 2 * 0.06


def test_negative_margin_rejected():
    box = aligned_box((0, 0, 0), (1, 1, 1))
    with pytest.raises(ValueError):
        overlaps(box, box, margin=-0.1)


def test_symmetry_random_pairs():
    rng = np.random.default_rng(5)
    for _ in range(300):
        a = random_box(rng)
        b = random_box(rng)
        m = rng.uniform(0.0, 0.1)
        assert overlaps(a, b, m) == overlaps(b, a, m)


def test_agrees_with_point_sampling_oracle():
    # smaller sibling of the acceptance run (10,000 pairs live there)
    rng = np.random.default_rng(17)
    disagreements = 0
    for _ in range(1000):
        a = random_box(rng)
        b = random_box(rng)
        sat = overlaps(a, b, margin=0.0)
        oracle = boxes_overlap_oracle(a, b, rng, volume_samples=4000)
        if sat != oracle:
            disagreements += 1
            # SAT is exact for boxes: the oracle may only miss thin slivers
            assert sat and not oracle
            assert abs(obb_separation(a, b)) < 1e-3
    assert disagreements / 1000 <= 0.005


def test_touching_faces_count_as_overlap():
    a = aligned_box((0, 0, 0), (0.5, 0.5, 0.5))
    b = aligned_box((1.0, 0, 0), (0.5, 0.5, 0.5))
    assert obb_separation(a, b) == pytest.approx(0.0, abs=1e-12)
    assert overlaps(a, b, margin=0.0)


def test_footprint_of_yawed_box():
    box = OrientedBox((1, 2, 0.5), (0.5, 0.25, 0.5),
                      rodrigues_rotation((0, 0, 1), 0.3))
    fp = box.footprint()
    assert fp.shape == (4, 2)
    assert np.allclose(fp.mean(axis=0), [1, 2], atol=1e-12)
    # computed once per box and shared, so read-only
    assert box.footprint() is fp and not fp.flags.writeable


YAWS = (0.0, math.pi / 2, -math.pi / 2, math.pi / 4, 3 * math.pi / 4, math.pi)


def grid_box(rng, yaw=None):
    """Round coordinates and a grid yaw: exact ties and parallel axes."""
    yaw = YAWS[rng.integers(len(YAWS))] if yaw is None else yaw
    return OrientedBox(rng.integers(-8, 9, 3) * 0.125, rng.integers(1, 6, 3) * 0.05,
                       rodrigues_rotation((0.0, 0.0, 1.0), yaw))


def touching_pair(rng, margin):
    """Two equally oriented boxes whose faces touch once inflated by the margin."""
    a = grid_box(rng)
    hb = rng.integers(1, 6, 3) * 0.05
    k = rng.integers(3)
    offset = rng.integers(-1, 2, 3) * 0.05
    offset[k] = rng.choice([-1, 1]) * (a.half_extents[k] + hb[k] + 2 * margin)
    return a, OrientedBox(a.center + a.orientation @ offset, hb, a.orientation)


def near_parallel_pair(rng):
    """Axes 1e-12 rad apart: cross-axis norms at the 1e-12 skip cutoff."""
    a = grid_box(rng, 0.0)
    b = OrientedBox(a.center + rng.uniform(-0.5, 0.5, 3), rng.uniform(0.05, 0.3, 3),
                    rodrigues_rotation((0.0, 0.0, 1.0), 1e-12))
    return a, b


def _off_tie(a, b, margin):
    """A pair the scalar reference decides by more than rounding: its best
    separation is farther than 1e-9 from contact and no cross axis norm lies
    within 2x of the 1e-12 skip cutoff."""
    a, b = a.inflated(margin), b.inflated(margin)
    norms = [np.linalg.norm(np.cross(a.orientation[:, i], b.orientation[:, j]))
             for i in range(3) for j in range(3)]
    return abs(obb_separation(a, b)) > 1e-9 and not any(
        0.5e-12 < n <= 2e-12 for n in norms)


def test_obb_overlaps_batched_matches_single_pairs():
    rng = np.random.default_rng(12)
    pairs = off_tie = 0
    for case in range(240):
        margin = (0.0, 0.02, 0.05)[case % 3]
        first = [random_box(rng) if case % 4 == 0 else grid_box(rng)
                 for _ in range(rng.integers(0, 4))]
        second = [grid_box(rng) for _ in range(rng.integers(0, 4))]
        for _ in range(rng.integers(0, 5)):
            a, b = touching_pair(rng, margin) if case % 5 else near_parallel_pair(rng)
            first.insert(rng.integers(len(first) + 1), a)
            second.insert(rng.integers(len(second) + 1), b)
        if case % 16 == 1:
            first = []
        elif case % 16 == 2:
            second = []
        got = obb_overlaps(first, second, margin)
        assert got.dtype == bool and got.shape == (len(first), len(second)), case
        for (i, a), (j, b) in itertools.product(enumerate(first), enumerate(second)):
            # one pass per pair gives the batch's verdict, ties included
            assert got[i, j] == overlaps(a, b, margin), (case, i, j)
            # away from ties, the scalar reference's verdict
            if _off_tie(a, b, margin):
                off_tie += 1
                sep = obb_separation(a.inflated(margin), b.inflated(margin))
                assert got[i, j] == (sep <= 0.0), (case, i, j)
        pairs += got.size
    assert pairs > 2500 and off_tie > pairs // 2
    # touching faces count as overlap
    a = aligned_box((0, 0, 0), (0.5, 0.5, 0.5))
    b = aligned_box((1.0, 0, 0), (0.5, 0.5, 0.5))
    assert obb_overlaps([a], [b], 0.0).tolist() == [[True]]
    # a cross axis whose norm sits at the 1e-12 skip cutoff
    c = OrientedBox((3.0, 0, 0), (0.5, 0.5, 0.5), rodrigues_rotation((0, 0, 1), 1e-12))
    assert obb_overlaps([a], [c], 0.0).tolist() == [[False]]
    assert obb_overlaps([], [a, b], 0.02).shape == (0, 2)
    assert obb_overlaps([a, b], (), 0.02).shape == (2, 0)
    with pytest.raises(ValueError):
        obb_overlaps([a], [b], margin=-0.1)
