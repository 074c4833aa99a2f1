import json
from fractions import Fraction as F
from math import prod
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from cantorval import cli, uniqueness
from cantorval.classify import resolve_stream
from cantorval.exact import IntervalSet, interval, normalize
from cantorval.families import (
    PeriodicSeq,
    RepeatedTermSpec,
    geometric,
    multigeometric,
    semifast_check,
    spec_from_json,
)
from cantorval.families.periodic import BlockGeometric
from cantorval.series import (
    DEFAULT_CAP,
    CapacityError,
    SubsumLadder,
    finite_subsums,
    kakeya_split,
)
from cantorval.uniqueness import (
    _RankDecoder,
    _profile_pass,
    multirep_outer,
    repetition_report,
    representation_uniqueness_oracle,
    tail_sum_unique,
)

from oracles import (
    FiniteStream,
    enumerated_repetition_report,
    fraction_representation_uniqueness_oracle,
    geometric_tail_stream,
    point_in_set,
    rank_subset,
    reference_semifast_violation,
    repetition_dict,
    reference_weighted_tail,
    value_groups,
)

GN = multigeometric([3, 2], "1/4").stream()
DYADIC = multigeometric([1], "1/2").stream()
THIRDS = multigeometric([2], "1/3").stream()

# y_i = 2^(1-i) repeated (1, 2, 2, ...): 1, 1/2, 1/2, 1/4, 1/4, ...
HALVING = RepeatedTermSpec(geometric(1, "1/2"), PeriodicSeq((1,), (2,)))
SEMIFAST = RepeatedTermSpec(geometric("1/4", "1/4"), PeriodicSeq((), (2,)))

SPECS = Path(__file__).resolve().parents[1] / "scripts" / "specs"


def planted_stream():
    """x_2 = x_3 + x_4 by construction (1, 1/2, 1/4, 1/4, then geometric)."""
    return geometric_tail_stream([1, F(1, 2), F(1, 4), F(1, 4)], F(1, 8), F(1, 2))


def iset(*pairs):
    return normalize(interval(lo, hi) for lo, hi in pairs)


def written(report, newline):
    """The repetition report's chunks at the nesting of ``newline``, joined."""
    return "".join(report.chunks(newline))


def parsed(report):
    """The repetition report as the text ``analyze`` writes, parsed."""
    return json.loads(written(report, "\n"))


def witnesses(report):
    """(value, first, second) of each witness the report writes."""
    return [
        (F(w["value"]), tuple(w["first"]), tuple(w["second"]))
        for w in parsed(report)["witnesses"]
    ]


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
        report = repetition_report(SubsumLadder(HALVING.stream()), 3)
        assert report.collisions.values == (F(1),)
        assert report.collisions.counts == (2,)
        (value, first, second) = witnesses(report)[0]
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
        for value, first, second in witnesses(report):
            assert sum((stream.term(i) for i in first), F(0)) == value
            assert sum((stream.term(i) for i in second), F(0)) == value
            assert first != second

    def test_equal_term_swaps_are_not_collisions(self):
        # two copies of the same value: one multiset, no collision
        spec = RepeatedTermSpec(geometric("1/4", "1/4"), PeriodicSeq((), (2,)))
        report = repetition_report(SubsumLadder(spec.stream()), 6)
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
    return geometric_tail_stream(prefix, start, ratio), draw(st.integers(0, 10))


class TestProfilePass:
    """The one-pass profile tally against the earlier enumeration of every profile."""

    @given(streams_with_depth())
    @settings(max_examples=150, deadline=None)
    @example((geometric_tail_stream([], 1, F(1, 2)), 10))  # distinct terms, no collision
    @example((FiniteStream([3, 2, 1]), 3))  # distinct terms, 3 = 2 + 1
    @example((FiniteStream([1] * 8), 8))  # all terms equal: one multiset per size
    @example((FiniteStream([3, 2, 2, 1, 1, 1]), 6))  # 3 = 2 + 1 = 1 + 1 + 1
    def test_report_matches_enumeration(self, stream_and_depth):
        stream, k = stream_and_depth
        ladder = SubsumLadder(stream)
        report = repetition_report(ladder, k)
        expected = enumerated_repetition_report(ladder, k)
        assert report == expected
        assert written(report, "\n") == written(expected, "\n")
        groups = value_groups(report.sizes)
        assert [(first, second) for _, first, second in witnesses(report)] == [
            (rank_subset(report.sizes, groups, a), rank_subset(report.sizes, groups, b))
            for a, b in expected.ranks
        ]

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
        assert tuple(tallies[v] for v in level.values) == finite_subsums(stream, k).counts

    def test_three_profiles_keep_the_first_two_witnesses(self):
        report = repetition_report(SubsumLadder(FiniteStream([3, 2, 2, 1, 1, 1])), 6)
        at = report.collisions.values.index(3)
        assert report.collisions.counts[at] == 3  # {3}, {2, 1} and {1, 1, 1}
        value, first, second = next(w for w in witnesses(report) if w[0] == 3)
        # in product order the profile with fewest 3s and 2s comes first
        assert (first, second) == ((4, 5, 6), (2, 4))


class TestRankDecoder:
    """Ranks decoded from two halves against the per-rank decoding."""

    @given(st.lists(st.integers(1, 4), max_size=8))
    @settings(max_examples=60, deadline=None)
    @example([8])  # a single group of 8 equal terms: the lead half is empty
    @example([3, 1, 1])  # radix 2 * 2 = 4 reaches sqrt(16): split after the 3
    @example([])  # k = 0: the one empty profile
    def test_every_rank_decodes_as_one_group_at_a_time(self, sizes):
        groups = value_groups(sizes)
        decoder = _RankDecoder(tuple(sizes))

        def subset(rank):
            high, low = divmod(rank, decoder.radix)
            return decoder.lead(high) + decoder.trail(low)

        ranks = range(prod(size + 1 for size in sizes))
        assert [subset(r) for r in ranks] == [rank_subset(sizes, groups, r) for r in ranks]


class TestLatticeReport:
    def test_report_and_json_build_no_fraction(self, monkeypatch):
        spec = spec_from_json(json.loads((SPECS / "ferens_5432.json").read_text()))
        ladder = SubsumLadder(resolve_stream(spec))
        made = []

        def counting(*args):
            made.append(args)
            return F(*args)

        monkeypatch.setattr(uniqueness, "Fraction", counting)
        report = repetition_report(ladder, 12)
        doc = parsed(report)
        assert made == []
        monkeypatch.undo()
        values = tuple(F(v) for v in doc["collisions"]["values"])
        assert len(values) == 1131
        assert report.collisions.values == values
        assert report.collisions.counts == tuple(doc["collisions"]["counts"])
        assert [w["value"] for w in doc["witnesses"]] == doc["collisions"]["values"]


@st.composite
def repeated_term_streams(draw):
    """(stream, k): y_i = ratio^(i-1) repeated counts_i times, k up to 9.

    Equal terms and a ratio of 1/2 or 1/3 make sums that three or more
    multisets reach: with 1, 1/2, 1/2, 1/4, 1/4 the sum 1 is {1}, {1/2, 1/2}
    and {1/2, 1/4, 1/4}.
    """
    counts = PeriodicSeq(
        tuple(draw(st.lists(st.integers(1, 3), max_size=2))),
        tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))),
    )
    spec = RepeatedTermSpec(geometric(1, F(1, draw(st.integers(2, 4)))), counts)
    return spec.stream(), draw(st.integers(0, 9))


@st.composite
def multigeometric_streams(draw):
    """(stream, k): a multigeometric stream of up to 3 coefficients, k up to 8."""
    ks = sorted(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)), reverse=True)
    q = F(1, draw(st.integers(2, 6)))
    return multigeometric(ks, q).stream(), draw(st.integers(0, 8))


class TestSkippedProfilePass:
    """repetition_report runs _profile_pass only when F_k has fewer values
    than there are profiles, and reports the same either way."""

    @staticmethod
    def counted(stream, k):
        """(report, whether _profile_pass ran, ladder) for ``stream`` at ``k``."""
        ladder = SubsumLadder(stream)
        with mock.patch.object(uniqueness, "_profile_pass", wraps=_profile_pass) as tally:
            report = repetition_report(ladder, k)
        return report, tally.called, ladder

    @given(st.one_of(repeated_term_streams(), multigeometric_streams(), streams_with_depth()))
    @settings(max_examples=150, deadline=None)
    @example((FiniteStream([3, 2, 2, 1, 1, 1]), 6))  # 3 = 2 + 1 = 1 + 1 + 1: the pass runs
    @example((THIRDS, 12))  # 4,096 profiles, 4,096 sums: skipped
    @example((SEMIFAST.stream(), 12))  # equal terms, 729 multisets, 729 sums: skipped
    def test_skip_matches_enumeration(self, stream_and_depth):
        stream, k = stream_and_depth
        report, ran, ladder = self.counted(stream, k)
        profiles = prod(size + 1 for size in report.sizes)
        assert ran == (len(ladder.level(k)) < profiles)
        expected = enumerated_repetition_report(ladder, k)
        assert report == expected
        assert written(report, "\n") == written(expected, "\n")

    @pytest.mark.parametrize(
        "stream,k,ran",
        [(FiniteStream([3, 2, 2, 1, 1, 1]), 6, True), (THIRDS, 12, False),
         (SEMIFAST.stream(), 12, False)],
        ids=["collisions", "middle-thirds", "semifast"],
    )
    def test_examples_fall_on_both_sides(self, stream, k, ran):
        report, called, _ = self.counted(stream, k)
        assert called == ran
        assert bool(report.collided) == ran

    def test_analyze_runs_the_pass_where_profiles_collide(self, tmp_path):
        out = str(tmp_path / "report.json")
        ran = []
        for path in sorted(SPECS.glob("*.json")):
            with mock.patch.object(uniqueness, "_profile_pass", wraps=_profile_pass) as tally:
                assert cli.main(["analyze", "--spec", str(path), "--depth", "14", "--out", out]) == 0
            ran += [path.stem] * tally.call_count
        assert ran == ["ferens_5432", "gf_decimal", "mm_ones"]


class TestHalfTexts:
    """A report's text formats each half of its witness subsets once."""

    def test_ferens_formats_one_text_per_half_rank(self, tmp_path):
        path = SPECS / "ferens_5432.json"
        with mock.patch.object(uniqueness, "_half_text", wraps=uniqueness._half_text) as half:
            args = ["analyze", "--spec", str(path), "--depth", "14", "--out", str(tmp_path / "r")]
            assert cli.main(args) == 0
        stream = resolve_stream(spec_from_json(json.loads(path.read_text())))
        report = repetition_report(SubsumLadder(stream), 12)
        radix = _RankDecoder(report.sizes).radix
        ranks = [rank for pair in report.ranks for rank in pair]
        halves = {r // radix for r in ranks}, {r % radix for r in ranks}
        assert len(report.collided) == 1131
        # 14,457 witness indices, from 64 lead and 64 trailing half ranks
        assert sum(len(w[1]) + len(w[2]) for w in witnesses(report)) == 14457
        assert half.call_count == len(halves[0]) + len(halves[1]) <= 128

    def test_cap_below_the_profile_count_exits_in_its_stage(self, capsys):
        # ferens_5432's F_12 has 1,417 values from 4,096 profiles
        path = str(SPECS / "ferens_5432.json")
        assert cli.main(["analyze", "--spec", path, "--depth", "12", "--cap", "2000"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("capacity exhausted in repetition_report:")
        assert len(err.splitlines()) == 1


class TestReportText:
    """RepetitionReport.chunks join to the report's indent-2 text at any
    nesting, and it parses back to the dict the report once built, with
    each witness decoded one rank at a time."""

    @given(
        st.one_of(repeated_term_streams(), multigeometric_streams(), streams_with_depth()),
        st.integers(0, 6),
    )
    @settings(max_examples=150, deadline=None)
    @example((HALVING.stream(), 5), 3)  # the sum 1 is reached by 3 multisets
    @example((FiniteStream([3, 2, 2, 1, 1, 1]), 6), 0)  # 3 = 2 + 1 = 1 + 1 + 1
    @example((DYADIC, 0), 2)  # k = 0: no collision and no outer part
    def test_text_is_indent_2_json(self, stream_and_depth, indent):
        stream, k = stream_and_depth
        report = repetition_report(SubsumLadder(stream), k)
        newline = "\n" + "  " * indent
        text = written(report, newline)
        assert json.dumps(json.loads(text), indent=2).replace("\n", newline) == text
        assert json.loads(text) == repetition_dict(report)

    def test_three_multisets_reach_one_sum(self):
        report = repetition_report(SubsumLadder(HALVING.stream()), 5)
        assert max(report.counts) >= 3
        assert parsed(report) == repetition_dict(report)

    def test_depth_zero_has_no_collision_and_no_outer(self):
        report = repetition_report(SubsumLadder(DYADIC), 0)
        assert written(report, "\n  ") == (
            '{\n    "k": 0,\n    "collisions": {\n      "values": [],\n'
            '      "counts": []\n    },\n    "witnesses": [],\n    "outer": []\n  }'
        )

    def test_single_point_outer_formats_its_strings_once(self, monkeypatch):
        # dyadic's 4,095 outer parts at k = 12 are all points: the ends
        # reuse the starts' strings, so one call formats outer
        report = repetition_report(SubsumLadder(DYADIC), 12)
        assert report.outer_starts == report.outer_ends
        assert len(report.outer_starts) == 4095
        calls = []
        lattice_strs = uniqueness.lattice_strs

        def counting(ks, d):
            calls.append(len(ks))
            return lattice_strs(ks, d)

        monkeypatch.setattr(uniqueness, "lattice_strs", counting)
        assert parsed(report) == repetition_dict(report)
        assert calls == [len(report.collided), 4095]

    @pytest.mark.parametrize(
        "stream, k, collides", [(THIRDS, 6, False), (HALVING.stream(), 5, True)]
    )
    def test_decoder_is_built_only_for_witnesses(self, stream, k, collides, monkeypatch):
        report = repetition_report(SubsumLadder(stream), k)
        builds = []
        decoder = uniqueness._RankDecoder

        def counting(sizes):
            builds.append(sizes)
            return decoder(sizes)

        monkeypatch.setattr(uniqueness, "_RankDecoder", counting)
        text = written(report, "\n")
        assert bool(report.ranks) == collides
        assert builds == ([report.sizes] if collides else [])
        assert text == json.dumps(repetition_dict(report), indent=2)

    def test_middle_thirds_has_no_collision_and_no_outer(self):
        report = repetition_report(SubsumLadder(THIRDS), 6)
        doc = repetition_dict(report)
        assert doc["collisions"] == {"values": [], "counts": []}
        assert doc["witnesses"] == [] and doc["outer"] == []
        assert written(report, "\n") == json.dumps(doc, indent=2)


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
        ladder = SubsumLadder(HALVING.stream())
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
        stream = HALVING.stream()
        assert stream.terms(5) == (1, F(1, 2), F(1, 2), F(1, 4), F(1, 4))

    def test_json_round_trip(self):
        from cantorval.families import spec_from_json

        assert spec_from_json(SEMIFAST.to_json()) == SEMIFAST
