import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

from cantorval.exact import (
    EMPTY_SET,
    PointSet,
    covered_parts,
    intersect_parts,
    interval,
    lattice_str,
    lattice_strs,
    merge_parts,
    nondegenerate_parts,
    normalize,
    pairs_chunks,
    rat,
    rat_str,
)

from oracles import (
    brute_merge,
    interior_measure,
    interval_set_from_pairs,
    is_subset_of,
    point_in_intervals,
)


def iset(*pairs):
    return normalize(interval(lo, hi) for lo, hi in pairs)


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=24
)


def interval_sets(max_parts=5):
    return st.lists(
        st.tuples(small_fractions, small_fractions), min_size=0, max_size=max_parts
    ).map(lambda ps: normalize(interval(min(a, b), max(a, b)) for a, b in ps))


small_ints = st.integers(min_value=-40, max_value=40)

# points on and halfway between the integer endpoints
lattice_points = st.fractions(min_value=-41, max_value=41, max_denominator=2)


def part_lists(max_parts=5):
    """Canonical integer part lists, as merge_parts makes them."""
    return st.lists(
        st.tuples(small_ints, small_ints), min_size=0, max_size=max_parts
    ).map(lambda ps: merge_parts((min(a, b), max(a, b)) for a, b in ps))


def parts_length(parts):
    return sum(hi - lo for lo, hi in parts)


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

    @pytest.mark.parametrize(
        "text", ["1e-3", "1e-20000", "0.5", " 1/2", "+1/2", "1/-2", "1_000", "", "\u0661/2"]
    )
    def test_rejects_strings_beyond_digits_over_digits(self, text):
        with pytest.raises(ValueError, match="'p/q' or 'p'"):
            rat(text)

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
    def test_interior_measure_drops_points(self):
        s = iset((0, 1), (2, 2))
        assert interior_measure(s) == 1
        assert nondegenerate_parts([(0, 1), (2, 2)]) == [(0, 1)]

    @given(part_lists(), part_lists())
    def test_inclusion_exclusion(self, a, b):
        union = merge_parts(a + b)
        inter = intersect_parts(a, b)
        assert parts_length(union) + parts_length(inter) == parts_length(a) + parts_length(b)


class TestMergeParts:
    def test_touching_parts_merge(self):
        assert merge_parts([(2, 3), (0, 1), (1, 2)]) == [(0, 3)]

    @given(st.lists(st.tuples(small_ints, small_ints), max_size=6))
    def test_matches_event_merge_oracle(self, pairs):
        fixed = [(min(a, b), max(a, b)) for a, b in pairs]
        assert merge_parts(fixed) == brute_merge(fixed)


class TestIntersect:
    # integer parts over the denominator 4: [0, 1/2] is (0, 2)
    def test_touching_gives_degenerate_point(self):
        assert intersect_parts([(0, 4)], [(4, 8)]) == [(4, 4)]

    def test_overlap(self):
        assert intersect_parts([(0, 2)], [(1, 3)]) == [(1, 2)]

    def test_empty(self):
        assert intersect_parts([], [(0, 4)]) == []

    @given(part_lists(), part_lists(), lattice_points)
    def test_pointwise_agreement(self, a, b, x):
        got = intersect_parts(a, b)
        assert point_in_intervals(x, got) == (
            point_in_intervals(x, a) and point_in_intervals(x, b)
        )


class TestSubset:
    def test_examples(self):
        assert is_subset_of(iset(("1/4", "1/2")), iset((0, 1)))
        assert not is_subset_of(iset((0, 1)), iset((0, "1/2"), ("3/4", 1)))
        assert is_subset_of(EMPTY_SET, iset((0, 1)))
        assert is_subset_of(EMPTY_SET, EMPTY_SET)

    @given(interval_sets(), interval_sets())
    def test_agrees_with_endpoint_and_midpoint_sampling(self, a, b):
        claim = is_subset_of(a, b)
        pairs = [(p.lo, p.hi) for p in b.parts]
        samples = []
        for p in a.parts:
            samples.extend([p.lo, p.hi, (p.lo + p.hi) / 2])
        sampled = all(point_in_intervals(x, pairs) for x in samples)
        if claim:
            assert sampled
        if not sampled:
            assert not claim


class TestCoveredParts:
    def test_examples(self):
        cover = [(0, 2), (3, 4)]
        assert covered_parts([(0, 1), (1, 3), (3, 4)], cover) == [(0, 1), (3, 4)]
        assert covered_parts([], cover) == []
        assert covered_parts([(0, 1)], []) == []

    @given(part_lists(), part_lists())
    def test_agrees_with_endpoint_and_midpoint_sampling(self, a, b):
        kept = covered_parts(a, b)
        for lo, hi in a:
            sampled = all(
                point_in_intervals(x, b) for x in (lo, hi, F(lo + hi, 2))
            )
            if (lo, hi) in kept:
                assert sampled
            if not sampled:
                assert (lo, hi) not in kept


class TestPointSet:
    @given(st.lists(small_fractions), small_fractions)
    def test_lookup_matches_a_scan(self, values, x):
        ps = PointSet.from_values(values)
        assert ps.values == tuple(sorted(set(values)))
        assert (x in ps) == (x in values)

    def test_non_rationals_are_not_members(self):
        ps = PointSet.from_values([F(1, 2), 1])
        assert "1/2" in ps
        assert 0.5 not in ps
        assert None not in ps
        assert True not in ps

    def test_rejects_disorder(self):
        with pytest.raises(ValueError):
            PointSet((F(1), F(0)))
        with pytest.raises(ValueError):
            PointSet((F(0), F(1)), (1,))
        with pytest.raises(ValueError):
            PointSet((F(0),), (0,))

    def test_interval_set_pairs_round_trip(self):
        s = iset((0, "5/12"), ("1/2", "7/6"))
        assert interval_set_from_pairs(s.to_pairs()) == s


class TestLatticeStrs:
    """lattice_strs is lattice_str over a list, with str(d) written once."""

    @given(
        st.integers(1, 12),
        st.one_of(st.integers(1, 50), st.integers(2**64, 2**100)),
        st.lists(st.integers(-100, 100), max_size=8),
        st.lists(st.integers(-(10**40), 10**40), max_size=8),
    )
    def test_matches_lattice_str(self, a, b, multiples, free):
        # d = a * b, so multiples of a share a factor with d when a > 1
        d = a * b
        ks = [0, d, -d, 2 * d] + [m * a for m in multiples] + free
        expected = [lattice_str(k, d) for k in ks]
        assert lattice_strs(ks, d) == expected

    def test_examples(self):
        assert lattice_strs([0, 6, 4, 5, -3], 6) == ["0/1", "1/1", "2/3", "5/6", "-1/2"]
        assert lattice_strs([], 7) == []
        big = 3 * 2**80
        assert lattice_strs([2**80, 1], big) == ["1/3", f"1/{big}"]


class TestPairsChunks:
    """pairs_chunks writes a list of string pairs as json.dumps(indent=2)
    does at any nesting: three chunks, whose middle one is the whole body,
    or the one chunk "[]" for no pairs."""

    @given(
        st.lists(st.tuples(small_fractions, small_fractions).map(sorted), max_size=12),
        st.integers(0, 4),
        st.booleans(),
    )
    @example([], 0, False)
    @example([], 2, True)  # one part has no gap
    @example([(F(0), F(1))], 1, False)
    @example([(F(0), F(1))], 1, True)
    @example([(F(0), F(1, 9)), (F(2, 9), F(1, 3)), (F(2, 3), F(7, 9)), (F(8, 9), F(1))], 3, True)
    def test_joined_chunks_are_indented_json(self, parts, indent, gaps):
        starts = [rat_str(lo) for lo, _ in parts]
        ends = [rat_str(hi) for _, hi in parts]
        # the gaps call of an iteration row: his is one shorter than los
        los, his = (ends, starts[1:]) if gaps else (starts, ends)
        pairs = [list(p) for p in zip(los, his)]
        newline = "\n" + "  " * indent
        chunks = pairs_chunks(los, his, newline)
        text = json.dumps(pairs, indent=2).replace("\n", newline)
        assert "".join(chunks) == text
        if pairs:
            assert len(chunks) == 3
            assert chunks[1] == text[text.index('"') + 1 : text.rindex('"')]
        else:
            assert chunks == ("[]",)
