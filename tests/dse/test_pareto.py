"""Unit + property tests for the vectorized Pareto machinery."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.dse.pareto import (
    crowding_distance,
    frontier_diff,
    hypervolume,
    nondominated_mask,
    pareto_rank,
    reference_point,
)

pytestmark = pytest.mark.dse


def _brute_force_mask(points: np.ndarray) -> np.ndarray:
    keep = np.ones(len(points), dtype=bool)
    for b in range(len(points)):
        for a in range(len(points)):
            if a == b:
                continue
            if (points[a] <= points[b]).all() and (points[a] < points[b]).any():
                keep[b] = False
                break
    return keep


@st.composite
def point_clouds(draw):
    n = draw(st.integers(1, 24))
    d = draw(st.integers(1, 4))
    values = draw(
        st.lists(
            st.lists(
                st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
                min_size=d,
                max_size=d,
            ),
            min_size=n,
            max_size=n,
        )
    )
    return np.array(values, dtype=np.float64)


class TestNondominatedMask:
    def test_empty(self):
        assert nondominated_mask(np.zeros((0, 3))).shape == (0,)

    def test_single_point_is_frontier(self):
        assert nondominated_mask([[1.0, 2.0]]).tolist() == [True]

    def test_duplicates_never_eject_each_other(self):
        mask = nondominated_mask([[1.0, 2.0], [1.0, 2.0]])
        assert mask.tolist() == [True, True]

    def test_known_frontier(self):
        pts = [[1, 4], [2, 2], [4, 1], [3, 3], [4, 4]]
        assert nondominated_mask(pts).tolist() == [True, True, True, False, False]

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            nondominated_mask([[np.nan, 1.0]])

    @settings(max_examples=60, deadline=None)
    @given(point_clouds())
    def test_matches_brute_force(self, pts):
        assert nondominated_mask(pts).tolist() == _brute_force_mask(pts).tolist()


class TestParetoRank:
    def test_peels_fronts(self):
        pts = [[1, 1], [2, 2], [3, 3]]
        assert pareto_rank(pts).tolist() == [0, 1, 2]

    @settings(max_examples=40, deadline=None)
    @given(point_clouds())
    def test_rank_zero_is_the_frontier(self, pts):
        ranks = pareto_rank(pts)
        assert ((ranks == 0) == nondominated_mask(pts)).all()
        assert (ranks >= 0).all()

    @settings(max_examples=40, deadline=None)
    @given(point_clouds())
    def test_every_front_is_nondominated_within_itself(self, pts):
        ranks = pareto_rank(pts)
        for front in np.unique(ranks):
            members = pts[ranks == front]
            assert nondominated_mask(members).all()


class TestCrowdingDistance:
    def test_boundaries_are_infinite(self):
        pts = [[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]]
        dist = crowding_distance(pts)
        assert np.isinf(dist[0]) and np.isinf(dist[2])
        assert np.isfinite(dist[1])

    def test_isolated_point_beats_clustered(self):
        # Index 2 sits in a tight cluster; index 1 has room on both sides.
        pts = [[0.0, 10.0], [4.9, 5.1], [5.0, 5.0], [5.1, 4.9], [10.0, 0.0]]
        dist = crowding_distance(pts)
        assert np.isfinite(dist[1]) and np.isfinite(dist[2])
        assert dist[2] < dist[1]


class TestHypervolume:
    def test_single_point_box(self):
        assert hypervolume([[1.0, 1.0]], [3.0, 2.0]) == pytest.approx(2.0)

    def test_2d_staircase(self):
        pts = [[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]]
        # x-sweep slabs: (2-1)*(4-3) + (3-2)*(4-2) + (4-3)*(4-1) = 6.
        assert hypervolume(pts, [4.0, 4.0]) == pytest.approx(6.0)

    def test_3d_single_point(self):
        assert hypervolume([[1.0, 1.0, 1.0]], [2.0, 3.0, 4.0]) == pytest.approx(6.0)

    def test_point_outside_reference_contributes_nothing(self):
        assert hypervolume([[5.0, 5.0]], [4.0, 4.0]) == 0.0

    def test_dominated_points_do_not_change_volume(self):
        frontier = [[1.0, 3.0], [3.0, 1.0]]
        padded = frontier + [[3.0, 3.0], [2.5, 3.5]]
        ref = [4.0, 4.0]
        assert hypervolume(padded, ref) == pytest.approx(hypervolume(frontier, ref))

    @settings(max_examples=40, deadline=None)
    @given(pts=point_clouds())
    # The last three rows copy earlier ones one ulp lower in a single
    # coordinate: the true gain is far below one ulp of the ~1.8e7
    # volume, and the slicing sum of the full set rounds one ulp
    # (3.7e-9) below the subset's.
    @example(
        pts=np.array(
            [
                [95.0, 77.57, 38.67, 83.72],
                [8.89, 22.54, 51.96, 36.97],
                [11.96, 67.49, 95.46, 75.55],
                [95.0, 77.57, 38.669999999999995, 83.72],
                [95.0, 77.57, 38.67, 83.71999999999998],
                [11.96, 67.49, 95.45999999999998, 75.55],
            ]
        )
    )
    def test_monotone_in_points(self, pts):
        """Adding points never shrinks the dominated volume."""
        ref = reference_point(pts)
        full = hypervolume(pts, ref)
        subset = hypervolume(pts[: max(1, len(pts) // 2)], ref)
        # Equal volumes may differ by float rounding in the slicing sum,
        # which scales with the volume: allow a relative 1e-12.
        assert full >= subset - 1e-12 * max(1.0, subset)

    @settings(max_examples=30, deadline=None)
    @given(point_clouds())
    def test_3d_agrees_with_2d_extrusion(self, pts):
        """Appending a constant coordinate scales volume by its clearance."""
        ref = reference_point(pts)
        base = hypervolume(pts, ref)
        extruded = np.hstack([pts, np.zeros((len(pts), 1))])
        ref3 = np.append(ref, 2.0)
        assert hypervolume(extruded, ref3) == pytest.approx(2.0 * base, rel=1e-9)


class TestFrontierDiff:
    def test_identical_frontiers_retain_everything(self):
        pts = [[1.0, 3.0], [3.0, 1.0]]
        diff = frontier_diff(pts, pts)
        assert diff.gained == ()
        assert diff.lost == ()
        assert diff.retained == (0, 1)
        assert diff.hv_ratio == pytest.approx(1.0)

    def test_strict_improvement_is_gained_not_lost(self):
        diff = frontier_diff([[2.0, 2.0]], [[1.0, 1.0]])
        assert diff.gained == (0,)
        assert diff.lost == ()  # the old point is covered by the new one
        assert diff.hv_ratio > 1.0

    def test_abandoned_tradeoff_point_is_lost(self):
        diff = frontier_diff([[1.0, 3.0], [3.0, 1.0]], [[1.0, 3.0]])
        assert diff.lost == (1,)
        assert diff.retained == (0,)
        assert diff.hv_ratio < 1.0

    def test_empty_frontiers(self):
        diff = frontier_diff(np.zeros((0, 2)), np.zeros((0, 2)))
        assert diff.hv_a == diff.hv_b == 0.0
        assert diff.hv_ratio == 1.0

    def test_mismatched_dimensions_rejected(self):
        with pytest.raises(ValueError, match="objective spaces"):
            frontier_diff([[1.0, 2.0]], [[1.0, 2.0, 3.0]])


class TestReferencePoint:
    def test_margin_clears_the_nadir(self):
        ref = reference_point([[1.0, 10.0], [2.0, 0.0]], margin=1.5)
        assert ref[0] == pytest.approx(3.0)
        assert ref[1] == pytest.approx(15.0)

    def test_zero_coordinate_still_gets_clearance(self):
        ref = reference_point([[0.0, 0.0]], margin=1.1)
        assert (ref > 0).all()

    def test_no_points_rejected(self):
        with pytest.raises(ValueError, match="no points"):
            reference_point(np.zeros((0, 2)))
