from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from cantorval import series
from cantorval.exact import PointSet
from cantorval.families import RepeatedTermSpec, geometric, multigeometric, PeriodicSeq
from cantorval.series import (
    CapacityError,
    KakeyaPattern,
    SubsumLadder,
    compare_sign,
    finite_subsums,
    group_convolve,
    kakeya_split,
)

from cantorval.uniqueness import tail_sum_unique

from oracles import FiniteStream, brute_subsum_levels, brute_subsums, geometric_tail_stream
from test_families import gf_specs, kyiv_specs, mg_specs, mm_specs
from test_uniqueness import repeated_specs


@st.composite
def geometric_tails(draw):
    """(prefix, start, ratio): positive nonincreasing terms, ratio in (0, 1)."""
    positive = st.builds(F, st.integers(1, 20), st.integers(1, 12))
    prefix = sorted(draw(st.lists(positive, max_size=6)), reverse=True)
    start = draw(positive)
    if prefix:
        start = min(start, prefix[-1])
    q = draw(st.integers(2, 9))
    return prefix, start, F(draw(st.integers(1, q - 1)), q)


GN_BLOCK = PointSet((0, 2, 3, 5), (1, 1, 1, 1))  # subsums of {3, 2}


def dyadic():
    return multigeometric([1], "1/2").stream()


def gn():
    return multigeometric([3, 2], "1/4").stream()


def repeated_1_2():
    # y_i = 2^(1-i) repeated (1, 2, 2, ...) times
    spec = RepeatedTermSpec(geometric(1, "1/2"), PeriodicSeq((1,), (2,)))
    return spec.stream()


class TestFiniteSubsums:
    def test_dyadic_depth_two(self):
        ps = finite_subsums(dyadic(), 2)
        assert ps.values == (F(0), F(1, 4), F(1, 2), F(3, 4))
        assert ps.counts == (1, 1, 1, 1)

    def test_gn_depth_two(self):
        ps = finite_subsums(gn(), 2)
        assert ps.values == (F(0), F(1, 2), F(3, 4), F(5, 4))

    def test_repeated_collision_count(self):
        ps = finite_subsums(repeated_1_2(), 3)
        assert ps.counts[ps.values.index(1)] == 2  # {1} and {2,3}

    def test_depth_zero(self):
        ps = finite_subsums(dyadic(), 0)
        assert ps.values == (F(0),)
        assert ps.counts == (1,)

    def test_capacity_error_is_explicit(self):
        with pytest.raises(CapacityError):
            finite_subsums(gn(), 6, cap=10)

    def test_capacity_error_comes_before_the_oversized_set(self, monkeypatch):
        # sets of 2, 4 and 8 values fit; the 16-value step is counted first,
        # so group_convolve never builds it
        calls = []
        convolve = series.group_convolve

        def counting(a, b, cap):
            calls.append(len(a))
            return convolve(a, b, cap)

        monkeypatch.setattr(series, "group_convolve", counting)
        with pytest.raises(CapacityError) as info:
            finite_subsums(gn(), 6, cap=10)
        assert (info.value.stage, info.value.size, info.value.cap) == ("group_convolve", 16, 10)
        assert calls == [1, 2, 4]

    @pytest.mark.parametrize("k", range(1, 9))
    def test_capacity_counts_repeated_values_once(self, k):
        # repeated_1_2 repeats subsums, so 2n exceeds the size at the cap
        size = len(finite_subsums(repeated_1_2(), k))
        assert finite_subsums(repeated_1_2(), k, cap=size).values
        with pytest.raises(CapacityError) as info:
            finite_subsums(repeated_1_2(), k, cap=size - 1)
        assert (info.value.stage, info.value.size) == ("group_convolve", size)

    @pytest.mark.parametrize("k", range(0, 13))
    def test_matches_direct_enumeration(self, k):
        stream = gn()
        got = finite_subsums(stream, k)
        expected = brute_subsums(stream.terms(k))
        assert dict(zip(got.values, got.counts)) == expected

    def test_incremental_equals_convolve_step(self):
        stream = repeated_1_2()
        for k in range(12):
            direct = finite_subsums(stream, k + 1)
            stepped = group_convolve(
                finite_subsums(stream, k),
                PointSet((0, stream.term(k + 1)), (1, 1)),
            )
            assert direct == stepped

    @pytest.mark.parametrize("make", [dyadic, gn, repeated_1_2])
    def test_count_sum_and_extremes(self, make):
        stream = make()
        for k in range(0, 10):
            ps = finite_subsums(stream, k)
            assert sum(ps.counts) == 2**k
            assert ps.values[0] == 0
            assert ps.values[-1] == stream.tail(0) - stream.tail(k)


class TestSubsumLadder:
    @pytest.mark.parametrize("make", [dyadic, gn, repeated_1_2])
    def test_every_level_matches_direct_enumeration(self, make):
        stream = make()
        ladder = SubsumLadder(stream)
        ladder.level(12)  # builds all levels in one go; the reads below reuse them
        expected = brute_subsum_levels(stream.terms(12))
        for k in range(13):
            assert ladder.level(k).points().values == tuple(sorted(expected[k]))
            counted = finite_subsums(stream, k)
            assert dict(zip(counted.values, counted.counts)) == expected[k]

    def test_capacity_error_names_the_first_oversized_level(self):
        ladder = SubsumLadder(gn(), cap=10)
        assert len(ladder.level(3)) == 8
        for _ in range(2):  # asking again fails the same way
            with pytest.raises(CapacityError, match="would produce 16 values, cap is 10"):
                ladder.level(6)
        assert len(ladder.level(3)) == 8

    def test_rejects_negative_depth_and_cap(self):
        with pytest.raises(ValueError):
            SubsumLadder(gn()).level(-1)
        with pytest.raises(ValueError):
            SubsumLadder(gn(), cap=0)

    def test_finite_stream_subsums(self):
        values = FiniteStream([3, 2, 2])
        expected = brute_subsums([3, 2, 2])
        assert SubsumLadder(values).level(3).points().values == tuple(sorted(expected))
        counted = finite_subsums(values, 3)
        assert dict(zip(counted.values, counted.counts)) == expected
        assert values.tail(1) == 4 and values.tail(3) == 0
        with pytest.raises(ValueError):
            values.term(4)


class TestKakeyaSplit:
    def test_dyadic_all_reversed(self):
        split = kakeya_split(dyadic(), 5)
        assert split.kakeya == ()
        assert split.reversed_kakeya == (1, 2, 3, 4, 5)

    def test_gn_alternates(self):
        split = kakeya_split(gn(), 4)
        assert split.kakeya == (2, 4)
        assert split.reversed_kakeya == (1, 3)

    def test_plain_thirds_all_kakeya(self):
        stream = geometric_tail_stream([], F(1, 3), F(1, 3))  # x_n = 3^-n
        split = kakeya_split(stream, 5)
        assert split.kakeya == (1, 2, 3, 4, 5)

    def test_partition_is_exact(self):
        split = kakeya_split(gn(), 12)
        assert sorted(split.kakeya + split.reversed_kakeya) == list(range(1, 13))
        assert set(split.kakeya) & set(split.reversed_kakeya) == set()

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            kakeya_split(dyadic(), 0)


class TestGroupConvolve:
    def test_gn_block_self_sum(self):
        block = GN_BLOCK
        got = group_convolve(block, block)
        assert got.values == (F(0), F(2), F(3), F(4), F(5), F(6), F(7), F(8), F(10))
        assert got.counts[got.values.index(5)] == 4  # 0+5, 2+3, 3+2, 5+0

    def test_zero_is_identity(self):
        a = GN_BLOCK
        zero = PointSet((0,), (1,))
        assert group_convolve(a, zero) == a

    def test_binomial_counts(self):
        a = PointSet((0, 1), (1, 1))
        got = group_convolve(a, a)
        assert got.values == (F(0), F(1), F(2))
        assert got.counts == (1, 2, 1)

    def test_commutative_associative(self):
        a = GN_BLOCK
        b = PointSet((0, F(1, 2)), (1, 2))
        c = PointSet((F(1, 3), 1), (1, 1))
        assert group_convolve(a, b) == group_convolve(b, a)
        assert group_convolve(group_convolve(a, b), c) == group_convolve(
            a, group_convolve(b, c)
        )

    def test_capacity(self):
        a = PointSet.from_values(range(40))
        with pytest.raises(CapacityError):
            group_convolve(a, a, cap=50)


class TestStreams:
    @pytest.mark.parametrize("make", [dyadic, gn, repeated_1_2])
    def test_tail_recurrence(self, make):
        stream = make()
        for n in range(0, 40):
            assert stream.tail(n) == stream.term(n + 1) + stream.tail(n + 1)

    @pytest.mark.parametrize("make", [dyadic, gn, repeated_1_2])
    def test_monotone_positive(self, make):
        stream = make()
        terms = stream.terms(40)
        assert all(t > 0 for t in terms)
        assert all(a >= b for a, b in zip(terms, terms[1:]))

    def test_geometric_tail_stream_validation(self):
        with pytest.raises(ValueError):
            geometric_tail_stream([1, 2], 1, F(1, 2))  # increasing prefix
        with pytest.raises(ValueError):
            geometric_tail_stream([1], 2, F(1, 2))  # tail jumps above prefix
        with pytest.raises(ValueError):
            geometric_tail_stream([], 1, 1)  # ratio not < 1
        with pytest.raises(ValueError):
            geometric_tail_stream([], 1, 0)  # ratio not > 0
        with pytest.raises(ValueError):
            geometric_tail_stream([], 1, F(-1, 2))  # ratio not > 0

    @given(geometric_tails())
    @settings(max_examples=100, deadline=None)
    def test_fixture_matches_geometric_closed_forms(self, drawn):
        # A tail reference that does not go through periodic_tail.
        prefix, start, ratio = drawn
        p = len(prefix)

        def closed_tail(n):
            if n < p:
                return sum(prefix[n:], F(0)) + start / (1 - ratio)
            return start * ratio ** (n - p) / (1 - ratio)

        stream = geometric_tail_stream(prefix, start, ratio)
        assert stream.terms(p + 4) == tuple(prefix) + tuple(start * ratio**i for i in range(4))
        assert [stream.tail(n) for n in range(p + 5)] == [closed_tail(n) for n in range(p + 5)]
        pattern = stream.kakeya_pattern()
        assert pattern.prefix == tuple(
            compare_sign(prefix[n - 1], closed_tail(n)) for n in range(1, p + 1)
        )
        assert pattern.cycle == (compare_sign(1 - ratio, ratio),)

    @given(st.one_of(mg_specs(), gf_specs(), mm_specs(), kyiv_specs(), repeated_specs()))
    @settings(max_examples=100, deadline=None)
    def test_pattern_and_its_readers_match_the_definition(self, spec):
        # the pattern is the one source of x_n vs r_n: check it against exact
        # terms and tails two periods past its cycle, and every reader with it
        stream = spec.stream()
        pattern = stream.kakeya_pattern()
        horizon = stream.boundary(stream.preperiod + 4 * stream.period)
        indices = range(1, horizon + 1)
        for n in indices:
            assert pattern.comparison_at(n) == compare_sign(stream.term(n), stream.tail(n))
        split = kakeya_split(stream, horizon)
        assert split.kakeya == tuple(n for n in indices if stream.term(n) > stream.tail(n))
        for n in indices:
            assert tail_sum_unique(stream, n) == (stream.tail(n) < stream.term(n))


class TestKakeyaPattern:
    def test_predicates(self):
        assert KakeyaPattern((), ("=",)).kakeya_is_finite
        assert not KakeyaPattern((), ("<", ">")).strict_reversed_is_finite
        assert KakeyaPattern(("<",), (">", "=")).strict_reversed_is_finite

    def test_rejects_bad_symbols(self):
        with pytest.raises(ValueError):
            KakeyaPattern((), ("?",))
        with pytest.raises(ValueError):
            KakeyaPattern((), ())
