"""The integer-lattice subsum ladder against Fraction references.

Every reader of a SubsumLadder sweeps integers over a common denominator.
These tests rebuild what each one reads over Fractions: subset enumeration
and endpoint merging from the oracles, the Fraction kernels group_convolve
and tight_decompose, and the multiple-representation formula written out.
The streams mix term denominators 2..12, so the lattice rescales as it grows.
"""

import json
from fractions import Fraction as F
from math import lcm
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from cantorval import series
from cantorval.engine import IterationRows, iterate
from cantorval.exact import Interval, IntervalSet, PointSet, lattice_str, normalize, rat_str
from cantorval.families import multigeometric, spec_from_json
from cantorval.series import (
    CapacityError,
    LatticeLevel,
    SubsumLadder,
    finite_subsums,
    group_convolve,
)
from cantorval.tightness import max_tight_diameter, tight_trend
from cantorval.uniqueness import multirep_outer, repetition_report

from oracles import (
    FiniteStream,
    brute_bricks,
    brute_merge,
    brute_subsum_levels,
    geometric_tail_stream,
    iteration_row_text,
    lattice_stream,
    longest_component,
)


@st.composite
def mixed_streams(draw):
    """A nonincreasing prefix over denominators 2..12, then a geometric tail."""
    prefix = sorted(
        draw(
            st.lists(
                st.builds(F, st.integers(1, 30), st.integers(2, 12)),
                min_size=1,
                max_size=7,
            )
        ),
        reverse=True,
    )
    start = prefix[-1] * draw(st.sampled_from([F(1), F(1, 2), F(2, 3)]))
    ratio = F(1, draw(st.integers(2, 5)))
    return geometric_tail_stream(prefix, start, ratio), len(prefix) + 2

@st.composite
def mixed_pattern_streams(draw):
    """A nonincreasing prefix, then c equal terms per group at ratio 1/b.

    Inside a group x_n <= r_n until its last term, which is a Kakeya index
    exactly when b - 1 > c, and the prefix mixes both kinds; returns the
    stream and every level up to a depth of at most 10, in a random order.
    """
    prefix = sorted(
        draw(st.lists(st.builds(F, st.integers(1, 30), st.integers(2, 12)), max_size=4)),
        reverse=True,
    )
    term = (prefix[-1] if prefix else F(1)) * draw(st.sampled_from([F(1), F(1, 2), F(2, 3)]))
    count = draw(st.integers(1, 3))
    ratio = F(1, draw(st.integers(2, 6)))
    groups = [(t,) for t in prefix] + [(term,) * count, (term * ratio,) * count]
    stream = lattice_stream(groups, len(prefix), 1)
    depth = min(10, len(prefix) + 3 * count)
    return stream, draw(st.permutations(range(depth + 1)))


def lattice_sweep(ladder, n):
    """I_n swept gap by gap from F_n on the lattice lcm(D_n, den r_n), as
    its parts' rational endpoint pairs."""
    d, values, reach = ladder.on_tail_lattice(n)
    starts, ends = [values[0]], []
    for a, b in zip(values, values[1:]):
        if b - a > reach:
            ends.append(a + reach)
            starts.append(b)
    ends.append(values[-1] + reach)
    return [(F(a, d), F(b, d)) for a, b in zip(starts, ends)]


class TestCarryForward:
    """bricks(n) at x_n <= r_n is the Bricks of I_{n-1}, not a sweep of F_n."""

    @given(mixed_pattern_streams())
    @settings(max_examples=80, deadline=None)
    def test_any_request_order_matches_brute_force_and_sweep(self, drawn):
        stream, order = drawn
        ladder = SubsumLadder(stream)
        for n in order:
            got = ladder.bricks(n)
            d = got.denominator
            parts = [(F(a, d), F(b, d)) for a, b in zip(got.starts, got.ends)]
            assert parts == brute_bricks(ladder.level(n).points().values, stream.tail(n))
            assert parts == lattice_sweep(ladder, n)
        for n in range(1, len(order)):
            carried = stream.term(n) <= stream.tail(n)
            assert (ladder.bricks(n) is ladder.bricks(n - 1)) == carried

    def test_deep_level_from_a_fresh_ladder_does_not_recurse(self, monkeypatch):
        # 2000 terms 1/2, then 2000 terms 1/4, ...: x_n <= r_n at every n,
        # so only level 0 is swept and the 1500 later levels are carried
        spec = spec_from_json({
            "type": "repeated",
            "y": {"pre": [], "block": ["1/2"], "ratio": "1/2"},
            "counts": {"pre": [], "period": [2000]},
        })
        swept = []
        sweep = SubsumLadder._sweep
        monkeypatch.setattr(
            SubsumLadder,
            "_sweep",
            lambda ladder, n, *built: swept.append(n) or sweep(ladder, n, *built),
        )
        ladder = SubsumLadder(spec.stream())
        got = ladder.bricks(1500)
        assert len(got) == 1
        assert (F(got.starts[0], got.denominator), F(got.ends[0], got.denominator)) == (
            0, ladder.stream.tail(0)
        )
        assert swept == [0]


@st.composite
def finite_ladders(draw):
    """Up to 8 terms and a zero tail: the last level is all single points."""
    terms = draw(st.lists(st.sampled_from([F(3), F(2), F(1), F(1, 2), F(1, 3)]), max_size=8))
    stream = FiniteStream(sorted(terms, reverse=True))
    return stream, draw(st.permutations(range(len(terms) + 1)))


class TestRowText:
    """IterationRows.chunks is the rows' indent-2 text at any nesting."""

    @given(st.one_of(mixed_pattern_streams(), finite_ladders()), st.integers(0, 6))
    @settings(max_examples=80, deadline=None)
    def test_row_text_is_indent_2_json(self, drawn, nesting):
        stream, order = drawn
        ladder = SubsumLadder(stream)
        for n in order:  # a ladder already asked for its levels in any order
            ladder.bricks(n)
        newline = "\n" + "  " * nesting
        text = "".join(IterationRows(ladder, len(order) - 1).chunks(newline))
        docs = json.loads(text)
        assert json.dumps(docs, indent=2).replace("\n", newline) == text
        for n, doc in enumerate(docs):
            report = iterate(ladder, n)
            b = report.bricks
            starts = [lattice_str(k, b.denominator) for k in b.starts]
            ends = [lattice_str(k, b.denominator) for k in b.ends]
            assert doc["parts"] == [list(p) for p in zip(starts, ends)]
            assert doc["gaps"] == [list(g) for g in zip(ends, starts[1:])]
            assert doc["longest_component"] in doc["parts"]
            assert doc["measure"] == rat_str(report.measure)
            assert doc["tail"] == rat_str(stream.tail(n))

    @given(st.one_of(mixed_pattern_streams(), finite_ladders()), st.integers(0, 6))
    @settings(max_examples=80, deadline=None)
    # x_1 = 1 <= r_1 = 5/3 is carried and x_2 = 1 > r_2 = 2/3 is swept,
    # and level 2 is asked for first, as classify's gaps witness asks for a
    # Kakeya index before the report's rows
    @example((lattice_stream([(F(1), F(1)), (F(1, 4), F(1, 4))], 0, 1), [2, 0, 1, 3, 4, 5]), 1)
    # a zero tail last: level 3's parts are single points, starts == ends
    @example((FiniteStream([F(2), F(1), F(1, 2)]), [3, 2, 1, 0]), 2)
    def test_rows_in_order_match_fresh_formatting(self, drawn, nesting):
        # IterationRows hands one row's endpoint strings to the next; every
        # row must read as if each endpoint were formatted anew, and writing
        # the rows reads no term or tail of the stream
        stream, order = drawn
        ladder = SubsumLadder(stream)
        for n in order:  # a ladder already asked for its levels in any order
            ladder.bricks(n)
        rows = IterationRows(ladder, len(order) - 1)
        newline = "\n" + "  " * nesting
        inner = newline + "  "
        expected = [iteration_row_text(iterate(ladder, n), inner) for n in range(len(order))]
        unread = AssertionError("the row text read the stream")
        with mock.patch.object(stream, "term", side_effect=unread), mock.patch.object(
            stream, "tail", side_effect=unread
        ):
            text = "".join(rows.chunks(newline))
        assert text == "[" + inner + ("," + inner).join(expected) + newline + "]"

    @pytest.mark.parametrize("terms", [[], [F(1)], [F(2), F(1), F(1)]])
    def test_single_part_level_has_no_gaps(self, terms):
        text = "".join(IterationRows(SubsumLadder(FiniteStream(terms)), 0).chunks("\n  "))
        assert '"gaps": [],' in text
        (doc,) = json.loads(text)
        assert doc["parts"] == [["0/1", rat_str(sum(terms, F(0)))]]
        assert doc["gaps"] == [] and doc["gap_count"] == 0


@st.composite
def levels_and_terms(draw):
    """A strictly increasing integer level, a positive term whose denominator
    divides the level's or is drawn freely, and a cap offset: the cap is the
    merged size plus this offset, at least 1."""
    denominator = draw(st.integers(1, 12))
    values = tuple(sorted(draw(st.sets(st.integers(0, 60), min_size=1, max_size=24))))
    divisors = [k for k in range(1, denominator + 1) if denominator % k == 0]
    term_denominator = draw(st.one_of(st.sampled_from(divisors), st.integers(1, 12)))
    term = F(draw(st.integers(1, 60)), term_denominator)
    return LatticeLevel(denominator, values), term, draw(st.integers(-3, 3))


class TestExtend:
    """LatticeLevel.extend, the merge that builds every level, against a set union."""

    @given(levels_and_terms())
    @settings(max_examples=200, deadline=None)
    # equal terms: 3/4 + 3/4 lands on 3/4 + 0, and the cap is the merged size
    @example((LatticeLevel(4, (0, 3)), F(3, 4), 0))
    # the same collision one value over the cap
    @example((LatticeLevel(4, (0, 3)), F(3, 4), -1))
    # a new denominator rescales the level from 2 to 6
    @example((LatticeLevel(2, (0, 1, 3)), F(1, 3), 2))
    # 2n > cap, so the size is counted first, and it equals the cap
    @example((LatticeLevel(1, (0, 1, 2)), F(1), 0))
    def test_merge_matches_set_union_and_cap(self, drawn):
        level, term, offset = drawn
        d = lcm(level.denominator, term.denominator)
        scaled = {v * (d // level.denominator) for v in level.values}
        shift = term * d
        assert shift.denominator == 1
        expected = tuple(sorted(scaled | {v + shift.numerator for v in scaled}))
        cap = max(1, len(expected) + offset)
        # extend allocates the merged level with one sorted call
        with mock.patch.object(series, "sorted", create=True, wraps=sorted) as merges:
            if len(expected) <= cap:
                got = level.extend(term, cap)
                assert (got.denominator, got.values) == (d, expected)
                assert merges.call_count == 1
            else:
                for _ in range(2):  # asking again fails the same way
                    with pytest.raises(CapacityError) as info:
                        level.extend(term, cap)
                    error = info.value
                    assert (error.stage, error.size, error.cap) == (
                        "subsum_ladder",
                        len(expected),
                        cap,
                    )
                assert merges.call_count == 0


class TestLevels:
    @given(mixed_streams())
    @settings(max_examples=60, deadline=None)
    def test_every_level_matches_enumeration_and_convolution(self, drawn):
        stream, depth = drawn
        ladder = SubsumLadder(stream)
        terms = stream.terms(depth)
        expected = brute_subsum_levels(terms)
        counted = None
        for k in range(depth + 1):
            got = ladder.level(k).points()
            assert got.values == tuple(sorted(expected[k]))
            assert ladder.level(k).denominator == lcm(*(t.denominator for t in terms[:k]))
            previous, counted = counted, finite_subsums(stream, k)
            assert dict(zip(counted.values, counted.counts)) == expected[k]
            if k:
                step = PointSet((0, terms[k - 1]), (1, 1))
                assert got.values == group_convolve(ladder.level(k - 1).points(), step).values
                assert counted == group_convolve(previous, step)

    def test_rescales_when_a_denominator_is_new(self):
        ladder = SubsumLadder(geometric_tail_stream(["1/2", "1/3", "1/4", "1/5"], "1/7", "1/2"))
        assert [ladder.level(k).denominator for k in range(6)] == [1, 2, 6, 12, 60, 420]
        assert ladder.level(2).values == (0, 2, 3, 5)
        assert len(ladder.level(5).points()) == 32

    def test_capacity_error_counts_the_full_merge(self):
        ladder = SubsumLadder(multigeometric([3, 2], "1/4").stream(), cap=15)
        with pytest.raises(CapacityError) as info:
            ladder.level(4)
        assert (info.value.stage, info.value.size, info.value.cap) == ("subsum_ladder", 16, 15)
        assert len(ladder.level(3)) == 8


class TestReaders:
    @given(mixed_streams())
    @settings(max_examples=60, deadline=None)
    def test_iteration_parts_match_merged_bricks(self, drawn):
        stream, depth = drawn
        ladder = SubsumLadder(stream)
        docs = json.loads("".join(IterationRows(ladder, depth).chunks("\n")))
        for n in range(depth + 1):
            tail = stream.tail(n)
            report = iterate(ladder, n)
            parts = report.iteration.parts
            expected = brute_merge((f, f + tail) for f in ladder.level(n).points().values)
            assert [(p.lo, p.hi) for p in parts] == expected
            assert report.measure == sum((hi - lo for lo, hi in expected), F(0))
            assert report.gap_count == len(expected) - 1
            assert longest_component(report) == max(parts, key=lambda p: p.hi - p.lo)
            doc = docs[n]
            assert doc["parts"] == report.iteration.to_pairs()
            assert doc["gaps"] == [
                [rat_str(a.hi), rat_str(b.lo)] for a, b in zip(parts, parts[1:])
            ]
            assert doc["longest_component"] == longest_component(report).as_pair()
            assert doc["measure"] == rat_str(report.measure)

    @given(mixed_streams())
    @settings(max_examples=60, deadline=None)
    def test_tight_trend_rows_match_tight_decompose(self, drawn):
        stream, depth = drawn
        ladder = SubsumLadder(stream)
        for n, value in tight_trend(ladder, depth).rows:
            assert value == max_tight_diameter(ladder.level(n).points(), stream.tail(n))

    @given(mixed_streams())
    @settings(max_examples=60, deadline=None)
    def test_multirep_outer_matches_fraction_formula(self, drawn):
        stream, depth = drawn
        ladder = SubsumLadder(stream)
        for k in range(1, depth + 1):
            values = ladder.level(k).points().values
            tail = stream.tail(k)
            expected = normalize(
                Interval(b, a + tail) for a, b in zip(values, values[1:]) if b <= a + tail
            )
            assert multirep_outer(ladder, k) == expected
            report = repetition_report(ladder, k)
            d = report.outer_denominator
            assert IntervalSet.from_lattice(report.outer_starts, report.outer_ends, d) == expected
            assert json.loads("".join(report.chunks("\n")))["outer"] == expected.to_pairs()
        assert not repetition_report(ladder, 0).outer_starts
