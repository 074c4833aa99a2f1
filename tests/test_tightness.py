from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from cantorval.exact import PointSet
from cantorval.families import multigeometric
from cantorval.series import SubsumLadder
from cantorval.tightness import (
    max_tight_diameter,
    tight_decompose,
    tight_trend,
)

from oracles import brute_max_tight_diameter, brute_maximal_tight_subsets


def points(*values):
    return PointSet.from_values(values)


class TestDecompose:
    def test_integer_example(self):
        dec = tight_decompose(points(0, 1, 2, 5, 6), 1)
        assert dec.blocks == ((0, 2), (3, 4))
        assert dec.diameters == (F(2), F(1))

    def test_gn_depth_two_blocks(self):
        dec = tight_decompose(points(0, F(1, 2), F(3, 4), F(5, 4)), F(5, 12))
        assert dec.blocks == ((0, 0), (1, 2), (3, 3))
        assert dec.diameters == (0, F(1, 4), 0)

    def test_singleton(self):
        dec = tight_decompose(points(3), F(1, 100))
        assert dec.blocks == ((0, 0),)
        assert dec.diameters == (F(0),)

    def test_rejects_empty_and_negative_eps(self):
        with pytest.raises(ValueError):
            tight_decompose(PointSet(()), 1)
        with pytest.raises(ValueError):
            tight_decompose(points(1), -1)

    def test_blocks_concatenate_to_input(self):
        ps = points(0, F(1, 3), F(2, 3), 2, F(7, 3), 4)
        dec = tight_decompose(ps, F(1, 2))
        covered = []
        for a, b in dec.blocks:
            covered.extend(range(a, b + 1))
        assert covered == list(range(len(ps)))

    def test_gap_equal_to_eps_stays_inside(self):
        dec = tight_decompose(points(0, 1), 1)
        assert dec.blocks == ((0, 1),)
        dec2 = tight_decompose(points(0, 1), F(999, 1000))
        assert dec2.blocks == ((0, 0), (1, 1))


class TestMaxDiameter:
    def test_examples(self):
        assert max_tight_diameter(points(0, 1, 2, 5, 6), 1) == 2
        assert max_tight_diameter(points(0, F(1, 2), F(3, 4), F(5, 4)), F(5, 12)) == F(1, 4)
        assert max_tight_diameter(points(7), 1) == 0

    def test_nondecreasing_in_eps_and_caps_at_diameter(self):
        ps = points(0, F(1, 4), F(2, 3), 1, F(3, 2))
        eps_grid = [F(i, 12) for i in range(0, 10)]
        values = [max_tight_diameter(ps, e) for e in eps_grid]
        assert all(a <= b for a, b in zip(values, values[1:]))
        max_gap = max(b - a for a, b in zip(ps.values, ps.values[1:]))
        assert max_tight_diameter(ps, max_gap) == ps.values[-1] - ps.values[0]

    @given(
        st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=11),
        st.fractions(min_value=0, max_value=8, max_denominator=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_exhaustive_subset_search(self, values, eps):
        ps = PointSet.from_values(values)
        assert max_tight_diameter(ps, eps) == brute_max_tight_diameter(ps.values, eps)

    @given(st.lists(st.integers(min_value=0, max_value=24), min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_blocks_are_the_maximal_tight_subsets(self, values):
        eps = F(3, 2)
        ps = PointSet.from_values(values)
        dec = tight_decompose(ps, eps)
        got = sorted(tuple(ps.values[a : b + 1]) for a, b in dec.blocks)
        assert got == brute_maximal_tight_subsets(ps.values, eps)


class TestTrend:
    def test_dyadic_closed_form(self):
        trend = tight_trend(SubsumLadder(multigeometric([1], "1/2").stream()), 10)
        for n, value in trend.rows:
            assert value == 1 - F(1, 2) ** n
        assert trend.interval_evidence

    def test_middle_thirds_is_identically_zero(self):
        trend = tight_trend(SubsumLadder(multigeometric([2], "1/3").stream()), 8)
        assert all(value == 0 for _, value in trend.rows)
        assert not trend.interval_evidence

    def test_gn_frozen_values(self):
        trend = tight_trend(SubsumLadder(multigeometric([3, 2], "1/4").stream()), 8)
        values = dict(trend.rows)
        assert values[2] == F(1, 4)
        assert values[3] == F(7, 16)
        assert values[4] == F(5, 16)
        assert trend.interval_evidence
        assert all(v > 0 for _, v in trend.rows)

    def test_rejects_zero_depth(self):
        with pytest.raises(ValueError):
            tight_trend(SubsumLadder(multigeometric([1], "1/2").stream()), 0)

    def test_matches_exhaustive_oracle_at_small_depth(self):
        from oracles import brute_subsums

        stream = multigeometric([3, 2], "1/4").stream()
        trend = tight_trend(SubsumLadder(stream), 4)
        for n, value in trend.rows:  # F_4 has 16 points; oracle is O(2^16)
            subsums = sorted(brute_subsums(stream.terms(n)))
            assert value == brute_max_tight_diameter(subsums, stream.tail(n))
