from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from cantorval.exact import (
    EMPTY_SET,
    IntervalSet,
    PointSet,
    interval,
    normalize,
    rat,
    rat_str,
)

from oracles import brute_merge, point_in_intervals


def iset(*pairs):
    return normalize(interval(lo, hi) for lo, hi in pairs)


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=24
)


def interval_sets(max_parts=5):
    return st.lists(
        st.tuples(small_fractions, small_fractions), min_size=0, max_size=max_parts
    ).map(lambda ps: normalize(interval(min(a, b), max(a, b)) for a, b in ps))


class TestRat:
    def test_parse_forms(self):
        assert rat("5/12") == F(5, 12)
        assert rat("-3") == F(-3)
        assert rat(7) == F(7)
        assert rat(F(1, 3)) == F(1, 3)

    def test_rejects_floats_and_bools(self):
        with pytest.raises(TypeError):
            rat(0.5)
        with pytest.raises(TypeError):
            rat(True)

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator"):
            rat("1/0")

    def test_canonical_string(self):
        assert rat_str(F(5, 12)) == "5/12"
        assert rat_str(-3) == "-3/1"
        assert rat_str(F(10, 4)) == "5/2"


class TestNormalize:
    def test_touching_endpoints_merge(self):
        assert iset((0, 1), (1, 2)) == iset((0, 2))

    def test_order_two_bricks(self):
        got = iset((0, "5/12"), ("1/2", "11/12"), ("3/4", "7/6"), ("5/4", "5/3"))
        assert got == iset((0, "5/12"), ("1/2", "7/6"), ("5/4", "5/3"))

    def test_empty(self):
        assert normalize([]) == EMPTY_SET

    def test_rejects_reversed_endpoints(self):
        with pytest.raises(ValueError):
            interval(1, 0)

    def test_idempotent(self):
        s = iset((0, 1), ("3/2", 2), (2, "5/2"))
        assert normalize(s.parts) == s

    @given(st.lists(st.tuples(small_fractions, small_fractions), max_size=6))
    def test_matches_event_merge_oracle(self, pairs):
        fixed = [(min(a, b), max(a, b)) for a, b in pairs]
        got = normalize(interval(a, b) for a, b in fixed)
        expected = brute_merge(fixed)
        assert [(p.lo, p.hi) for p in got.parts] == expected

    @given(interval_sets())
    def test_normalize_idempotent_property(self, s):
        assert normalize(s.parts) == s


class TestMeasure:
    def test_examples(self):
        assert iset((0, 2)).measure == 2
        assert iset((0, "5/12"), ("1/2", "7/6"), ("5/4", "5/3")).measure == F(3, 2)
        assert EMPTY_SET.measure == 0

    def test_interior_measure_drops_points(self):
        s = iset((0, 1), (2, 2))
        assert s.measure == 1
        assert s.interior_measure == 1
        assert s.nondegenerate() == iset((0, 1))

    @given(interval_sets(), interval_sets())
    def test_inclusion_exclusion(self, a, b):
        union = a.union(b)
        inter = a.intersect(b)
        assert union.measure + inter.measure == a.measure + b.measure


class TestIntersect:
    def test_touching_gives_degenerate_point(self):
        assert iset((0, 1)).intersect(iset((1, 2))) == IntervalSet((interval(1, 1),))

    def test_overlap(self):
        assert iset((0, "1/2")).intersect(iset(("1/4", "3/4"))) == iset(("1/4", "1/2"))

    def test_empty(self):
        assert EMPTY_SET.intersect(iset((0, 1))) == EMPTY_SET

    @given(interval_sets(), interval_sets(), small_fractions)
    def test_pointwise_agreement(self, a, b, x):
        got = a.intersect(b)
        assert got.contains_point(x) == (a.contains_point(x) and b.contains_point(x))


class TestSubset:
    def test_examples(self):
        assert iset(("1/4", "1/2")).is_subset_of(iset((0, 1)))
        assert not iset((0, 1)).is_subset_of(iset((0, "1/2"), ("3/4", 1)))
        assert EMPTY_SET.is_subset_of(iset((0, 1)))
        assert EMPTY_SET.is_subset_of(EMPTY_SET)

    @given(interval_sets(), interval_sets())
    def test_agrees_with_endpoint_and_midpoint_sampling(self, a, b):
        claim = a.is_subset_of(b)
        pairs = [(p.lo, p.hi) for p in b.parts]
        samples = []
        for p in a.parts:
            samples.extend([p.lo, p.hi, (p.lo + p.hi) / 2])
        sampled = all(point_in_intervals(x, pairs) for x in samples)
        if claim:
            assert sampled
        if not sampled:
            assert not claim


class TestDifference:
    def test_middle_removed(self):
        got = iset((0, 1)).difference(iset(("1/4", "1/2")))
        assert got == iset((0, "1/4"), ("1/2", 1))

    def test_uncovered_degenerate_survives(self):
        got = IntervalSet((interval(0, 0),)).difference(iset((1, 2)))
        assert got == IntervalSet((interval(0, 0),))

    @given(interval_sets(), interval_sets(), small_fractions)
    def test_difference_covers_uncovered_points(self, a, b, x):
        got = a.difference(b)
        if a.contains_point(x) and not b.contains_point(x):
            assert got.contains_point(x)


class TestPointSet:
    def test_dedup_and_counts(self):
        ps = PointSet.from_pairs([(1, 1), (F(1, 2), 2), (1, 3)])
        assert ps.values == (F(1, 2), F(1))
        assert ps.counts == (2, 4)
        assert ps.count_of(1) == 4
        assert ps.count_of(7) == 0

    def test_rejects_disorder(self):
        with pytest.raises(ValueError):
            PointSet((F(1), F(0)))
        with pytest.raises(ValueError):
            PointSet((F(0), F(1)), (1,))
        with pytest.raises(ValueError):
            PointSet((F(0),), (0,))

    def test_json_round_trip(self):
        ps = PointSet.from_pairs([(F(1, 2), 2), (F(3, 4), 1)])
        assert PointSet.from_json(ps.to_json()) == ps
        bare = PointSet.from_values([F(1, 3), F(1, 3), 1])
        assert PointSet.from_json(bare.to_json()) == bare

    def test_interval_set_pairs_round_trip(self):
        s = iset((0, "5/12"), ("1/2", "7/6"))
        assert IntervalSet.from_pairs(s.to_pairs()) == s
