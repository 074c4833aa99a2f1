from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from cantorval.exact import IntervalSet, interval, normalize
from cantorval.families import PeriodicSeq, geometric, mg_stream, multigeometric
from cantorval.families.periodic import BlockGeometric
from cantorval.series import (
    DEFAULT_CAP,
    CapacityError,
    FiniteStream,
    GeometricTailStream,
    SubsumLadder,
    kakeya_split,
)
from cantorval.uniqueness import (
    RepeatedTermSpec,
    _profile_pass,
    multirep_outer,
    repeated_stream,
    repetition_report,
    representation_uniqueness_oracle,
    semifast_check,
    tail_sum_unique,
)

from oracles import (
    enumerated_repetition_report,
    fraction_representation_uniqueness_oracle,
    point_in_set,
    reference_semifast_violation,
    reference_weighted_tail,
)

GN = mg_stream(multigeometric([3, 2], "1/4"))
DYADIC = mg_stream(multigeometric([1], "1/2"))
THIRDS = mg_stream(multigeometric([2], "1/3"))

# y_i = 2^(1-i) repeated (1, 2, 2, ...): 1, 1/2, 1/2, 1/4, 1/4, ...
HALVING = RepeatedTermSpec(geometric(1, "1/2"), PeriodicSeq((1,), (2,)))
SEMIFAST = RepeatedTermSpec(geometric("1/4", "1/4"), PeriodicSeq((), (2,)))


def planted_stream():
    """x_2 = x_3 + x_4 by construction (1, 1/2, 1/4, 1/4, then geometric)."""
    return GeometricTailStream([1, F(1, 2), F(1, 4), F(1, 4)], F(1, 8), F(1, 2))


def iset(*pairs):
    return normalize(interval(lo, hi) for lo, hi in pairs)


@st.composite
def repeated_specs(draw):
    """Strictly decreasing y (prefix, then a block of one or two values)
    with eventually periodic repetition counts in 1..3."""
    ratio = F(draw(st.integers(1, 3)), draw(st.integers(4, 10)))
    start = F(draw(st.integers(1, 9)), draw(st.sampled_from([1, 2, 3, 5])))
    block = [start]
    if draw(st.booleans()):
        # strictly between ratio * start and start
        block.append(start * (ratio + (1 - ratio) * F(draw(st.integers(1, 9)), 10)))
    pre = []
    for _ in range(draw(st.integers(0, 2))):
        step = F(draw(st.integers(1, 5)), draw(st.sampled_from([1, 2, 4])))
        pre.insert(0, (pre[0] if pre else start) + step)
    counts = PeriodicSeq(
        tuple(draw(st.lists(st.integers(1, 3), max_size=2))),
        tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))),
    )
    return RepeatedTermSpec(BlockGeometric(tuple(pre), tuple(block), ratio), counts)


class TestCollisions:
    def test_repeated_halving_collides_at_three(self):
        report = repetition_report(SubsumLadder(repeated_stream(HALVING)), 3)
        assert report.collisions.values == (F(1),)
        assert report.collisions.counts == (2,)
        (value, first, second) = report.witnesses[0]
        assert value == 1
        assert {first, second} == {(1,), (2, 3)}

    def test_gn_depth_four_is_collision_free(self):
        assert len(repetition_report(SubsumLadder(GN), 4).collisions) == 0

    def test_depth_zero_empty(self):
        assert len(repetition_report(SubsumLadder(GN), 0).collisions) == 0

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            repetition_report(SubsumLadder(GN, cap=100), 10)

    def test_witness_sums_check_out(self):
        stream = planted_stream()
        report = repetition_report(SubsumLadder(stream), 4)
        # the planted identity x_2 = x_3 + x_4 propagates into 1 and 3/2
        assert report.collisions.values == (F(1, 2), F(1), F(3, 2))
        for value, first, second in report.witnesses:
            assert sum((stream.term(i) for i in first), F(0)) == value
            assert sum((stream.term(i) for i in second), F(0)) == value
            assert first != second

    def test_equal_term_swaps_are_not_collisions(self):
        # two copies of the same value: one multiset, no collision
        spec = RepeatedTermSpec(geometric("1/4", "1/4"), PeriodicSeq((), (2,)))
        report = repetition_report(SubsumLadder(repeated_stream(spec)), 6)
        assert len(report.collisions) == 0


# a small pool of term values, so that drawn streams repeat values often
POOL = sorted({F(a, b) for a in (1, 2, 3) for b in (1, 2, 3, 4, 6)}, reverse=True)


@st.composite
def streams_with_depth(draw, distinct=False):
    """(stream, k): a finite or geometric-tail stream and a depth 0..10 within it.

    Terms come from POOL, nonincreasing, so values repeat unless
    ``distinct``; a geometric tail may start at the last explicit value.
    """
    picks = st.lists(st.sampled_from(POOL), max_size=10, unique=distinct)
    prefix = sorted(draw(picks), reverse=True)
    if draw(st.booleans()):
        stream = FiniteStream(prefix)
        return stream, draw(st.integers(0, len(prefix)))
    top = prefix[-1] if prefix else POOL[0]
    below = [v for v in POOL if v < top or v == top and not distinct]
    start = draw(st.sampled_from(below)) if below else top / 2
    ratio = F(draw(st.integers(1, 3)), draw(st.integers(4, 7)))
    return GeometricTailStream(prefix, start, ratio), draw(st.integers(0, 10))


class TestProfilePass:
    """The one-pass profile tally against the earlier enumeration of every profile."""

    @given(streams_with_depth())
    @settings(max_examples=150, deadline=None)
    @example((GeometricTailStream([], 1, F(1, 2)), 10))  # distinct terms, no collision
    @example((FiniteStream([3, 2, 1]), 3))  # distinct terms, 3 = 2 + 1
    @example((FiniteStream([1] * 8), 8))  # all terms equal: one multiset per size
    @example((FiniteStream([3, 2, 2, 1, 1, 1]), 6))  # 3 = 2 + 1 = 1 + 1 + 1
    def test_report_matches_enumeration(self, stream_and_depth):
        stream, k = stream_and_depth
        ladder = SubsumLadder(stream)
        assert repetition_report(ladder, k).to_json() == (
            enumerated_repetition_report(ladder, k).to_json()
        )

    @given(streams_with_depth(distinct=True))
    @settings(max_examples=100, deadline=None)
    @example((FiniteStream([3, 2, 1]), 3))
    def test_distinct_terms_tally_the_ladder_counts(self, stream_and_depth):
        stream, k = stream_and_depth
        level = SubsumLadder(stream).level(k)
        d = level.denominator
        weights = [t.numerator * (d // t.denominator) for t in stream.terms(k)]
        tallies, _, _ = _profile_pass(weights, [1] * k)
        assert tuple(sorted(tallies)) == level.values
        assert tuple(tallies[v] for v in level.values) == level.counts

    def test_three_profiles_keep_the_first_two_witnesses(self):
        report = repetition_report(SubsumLadder(FiniteStream([3, 2, 2, 1, 1, 1])), 6)
        at = report.collisions.values.index(3)
        assert report.collisions.counts[at] == 3  # {3}, {2, 1} and {1, 1, 1}
        value, first, second = next(w for w in report.witnesses if w[0] == 3)
        # in product order the profile with fewest 3s and 2s comes first
        assert (first, second) == ((4, 5, 6), (2, 4))


class TestMultirepOuter:
    def test_dyadic_touching_point(self):
        got = multirep_outer(SubsumLadder(DYADIC), 1)
        assert got == IntervalSet((interval("1/2", "1/2"),))

    def test_middle_thirds_disjoint_bricks(self):
        assert multirep_outer(SubsumLadder(THIRDS), 1) == IntervalSet(())

    def test_gn_depth_two_overlap(self):
        assert multirep_outer(SubsumLadder(GN), 2) == iset(("3/4", "11/12"))

    def test_collisions_lie_in_outer_at_deeper_levels(self):
        ladder = SubsumLadder(planted_stream())
        report = repetition_report(ladder, 4)
        for j in range(4, 8):
            outer = multirep_outer(ladder, j)
            for value in report.collisions.values:
                assert point_in_set(value, outer)

    def test_outer_contains_collisions_at_own_level(self):
        ladder = SubsumLadder(repeated_stream(HALVING))
        for k in (3, 4, 5, 6):
            outer = multirep_outer(ladder, k)
            for value in repetition_report(ladder, k).collisions.values:
                assert point_in_set(value, outer)


class TestSemifast:
    def test_quartering_with_two_repeats_passes(self):
        got = semifast_check(SEMIFAST)
        assert got.semifast
        assert got.first_violation is None

    def test_halving_with_two_repeats_fails_immediately(self):
        spec = RepeatedTermSpec(geometric("1/2", "1/2"), PeriodicSeq((), (2,)))
        got = semifast_check(spec)
        assert not got.semifast
        assert got.first_violation == 1

    def test_plain_fast_convergence(self):
        spec = RepeatedTermSpec(geometric("1/3", "1/3"), PeriodicSeq((), (1,)))
        assert semifast_check(spec).semifast

    @given(repeated_specs())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_tails(self, spec):
        assert semifast_check(spec).first_violation == reference_semifast_violation(spec)
        for k in range(0, 6):
            assert spec.weighted_tail(k) == reference_weighted_tail(spec, k)


class TestRepresentationOracle:
    def test_semifast_depth_four(self):
        assert representation_uniqueness_oracle(SEMIFAST, 4)

    def test_halving_collides_at_depth_three(self):
        spec = RepeatedTermSpec(geometric("1/2", "1/2"), PeriodicSeq((), (2,)))
        assert not representation_uniqueness_oracle(spec, 3)

    def test_depth_zero_vacuous(self):
        assert representation_uniqueness_oracle(SEMIFAST, 0)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            representation_uniqueness_oracle(SEMIFAST, 10, cap=50)

    @pytest.mark.parametrize(
        "spec",
        [
            SEMIFAST,
            RepeatedTermSpec(geometric("1/3", "1/3"), PeriodicSeq((), (1,))),
            RepeatedTermSpec(geometric("1/5", "1/5"), PeriodicSeq((), (3,))),
            RepeatedTermSpec(geometric("1/10", "1/10"), PeriodicSeq((), (4,))),
            RepeatedTermSpec(geometric("1/8", "1/8"), PeriodicSeq((2,), (1, 2))),
        ],
    )
    def test_semifast_implies_oracle_at_feasible_depths(self, spec):
        assert semifast_check(spec).semifast
        for depth in (1, 2, 3, 4):
            assert representation_uniqueness_oracle(spec, depth)

    @given(repeated_specs(), st.integers(0, 5))
    @settings(max_examples=80, deadline=None)
    # binary digits: neighbouring sums lie exactly one tail apart
    @example(spec=RepeatedTermSpec(geometric(1, "1/2"), PeriodicSeq((), (1,))), depth=3)
    def test_lattice_sums_match_fraction_sums(self, spec, depth):
        got = representation_uniqueness_oracle(spec, depth)
        assert got == fraction_representation_uniqueness_oracle(spec, depth, DEFAULT_CAP)


class TestTailUniqueness:
    def test_gn_depth_two(self):
        assert tail_sum_unique(GN, 2)  # r_2 = 5/12 < x_2 = 1/2

    def test_dyadic_never_certifies(self):
        assert not any(tail_sum_unique(DYADIC, k) for k in range(1, 8))

    def test_middle_thirds_certifies(self):
        assert tail_sum_unique(THIRDS, 1)  # r_1 = 1/3 < x_1 = 2/3

    def test_gn_matches_kakeya_indices(self):
        split = kakeya_split(GN, 6)
        for k in range(1, 7):
            assert tail_sum_unique(GN, k) == (k in split.kakeya)


class TestRepeatedTermSpecValidation:
    def test_rejects_nondecreasing_base(self):
        with pytest.raises(ValueError):
            RepeatedTermSpec(
                geometric(1, "1/2").__class__((), (F(1), F(1)), F(1, 2)),
                PeriodicSeq((), (1,)),
            )

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            RepeatedTermSpec(geometric(1, "1/2"), PeriodicSeq((), (0,)))
        with pytest.raises(ValueError):
            RepeatedTermSpec(geometric(1, "1/2"), PeriodicSeq((), (True,)))

    def test_expanded_stream_shape(self):
        stream = repeated_stream(HALVING)
        assert stream.terms(5) == (1, F(1, 2), F(1, 2), F(1, 4), F(1, 4))

    def test_json_round_trip(self):
        from cantorval.families import spec_from_json

        assert spec_from_json(SEMIFAST.to_json()) == SEMIFAST
