import functools
import inspect
import json
from fractions import Fraction as F
from math import lcm
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cantorval.classify import Evidence, classify
from cantorval import engine
from cantorval.cli import build_parser, build_report, main
from cantorval.engine import (
    IterationRows,
    certify_interior,
    hutchinson,
    iterate,
    measure_bounds,
)
from cantorval.exact import EMPTY_SET, Interval, IntervalSet, interval, merge_parts, normalize
from cantorval.families import (
    KyivSpec,
    PeriodicSeq,
    multigeometric,
    self_similar,
    spec_from_json,
)
from cantorval.series import DEFAULT_CAP, SelfSimilar, SubsumLadder, kakeya_split

import oracles
from oracles import (
    brute_bricks,
    brute_intersect,
    brute_subsums,
    fraction_certify_interior,
    fraction_hutchinson,
    is_subset_of,
    longest_component,
    reference_report_sections,
    set_nondegenerate,
)
from test_cli import BIG_BLOCK, multigeometric_json
from test_families import mg_specs

DYADIC = multigeometric([1], "1/2")
THIRDS = multigeometric([2], "1/3")
GN = multigeometric([3, 2], "1/4")
FERENS = multigeometric([5, 4, 3, 2], "1/10")
FULL = multigeometric([3, 2, 1], "1/4")
KYIV_48 = KyivSpec(PeriodicSeq((), (4,)), PeriodicSeq((), (8,)))


def mg_ladder(spec):
    return SubsumLadder(spec.stream())


def iset(*pairs):
    return normalize(interval(lo, hi) for lo, hi in pairs)


class TestIterate:
    def test_dyadic_first_iteration_is_full_interval(self):
        rep = iterate(mg_ladder(DYADIC), 1)
        assert rep.iteration == iset((0, 1))
        assert rep.brick_count == 2
        assert rep.gap_count == 0

    def test_gn_depth_two(self):
        rep = iterate(mg_ladder(GN), 2)
        assert rep.iteration == iset((0, "5/12"), ("1/2", "7/6"), ("5/4", "5/3"))
        assert rep.measure == F(3, 2)
        assert rep.gap_count == 2
        assert longest_component(rep) == interval("1/2", "7/6")
        row = json.loads("".join(IterationRows(mg_ladder(GN), 2).chunks("\n")))[2]
        assert row["gaps"] == [["5/12", "1/2"], ["7/6", "5/4"]]

    def test_middle_thirds_first_step(self):
        rep = iterate(mg_ladder(THIRDS), 1)
        assert rep.iteration == iset((0, "1/3"), ("2/3", 1))
        assert rep.measure == F(2, 3)

    def test_depth_zero_is_the_full_brick(self):
        rep = iterate(mg_ladder(GN), 0)
        assert rep.iteration == iset((0, "5/3"))

    @pytest.mark.parametrize("depth", range(0, 11))
    def test_matches_brute_force_bricks(self, depth):
        stream = GN.stream()
        rep = iterate(SubsumLadder(stream), depth)
        expected = brute_bricks(sorted(brute_subsums(stream.terms(depth))), stream.tail(depth))
        assert [(p.lo, p.hi) for p in rep.iteration.parts] == expected

    @pytest.mark.parametrize(
        "spec", [DYADIC, THIRDS, GN, FERENS], ids=["dyadic", "thirds", "gn", "ferens"]
    )
    def test_nesting_and_measure_monotone(self, spec):
        stream = spec.stream()
        ladder = SubsumLadder(stream)
        reports = [iterate(ladder, n) for n in range(0, 10)]
        for prev, cur in zip(reports, reports[1:]):
            assert is_subset_of(cur.iteration, prev.iteration)
            assert cur.measure <= prev.measure
            assert min(p.hi - p.lo for p in cur.iteration.parts) >= stream.tail(cur.n)

    @pytest.mark.parametrize(
        "stream_maker",
        [lambda: GN.stream(), lambda: KYIV_48.stream()],
        ids=["gn", "kyiv"],
    )
    def test_kakeya_iteration_coupling(self, stream_maker):
        # I_{n-1} = I_n iff n is a reversed index; equivalently the step to
        # I_{n+1} is strict iff n+1 is a Kakeya index.
        stream = stream_maker()
        split = kakeya_split(stream, 13)
        ladder = SubsumLadder(stream)
        reports = [iterate(ladder, n) for n in range(0, 14)]
        for n in range(1, 13):
            stable = reports[n - 1].iteration == reports[n].iteration
            assert stable == (n in split.reversed_kakeya)
            strict = (
                reports[n + 1].iteration != reports[n].iteration
                and is_subset_of(reports[n + 1].iteration, reports[n].iteration)
            )
            assert strict == ((n + 1) in split.kakeya)

    def test_brick_splitting_when_next_index_is_kakeya(self):
        # For a stream with disjoint bricks, each order-n brick meets I_{n+1}
        # in exactly [x_t, x_t + r_{n+1}] and [x_t + x_{n+1}, x_t + r_n].
        stream = THIRDS.stream()
        ladder = SubsumLadder(stream)
        for n in range(0, 6):
            nxt = iterate(ladder, n + 1).iteration
            r_n, r_next, x_next = stream.tail(n), stream.tail(n + 1), stream.term(n + 1)
            for f in sorted(brute_subsums(stream.terms(n))):
                brick = IntervalSet((Interval(f, f + r_n),))
                got = iset(*brute_intersect(nxt, brick))
                assert got == iset((f, f + r_next), (f + x_next, f + r_n))


class TestHutchinson:
    def test_gn_one_step_from_the_hull(self):
        got = hutchinson(GN, iset((0, "5/3")))
        assert got == iset((0, "5/12"), ("1/2", "7/6"), ("5/4", "5/3"))

    def test_empty_to_empty(self):
        assert hutchinson(GN, EMPTY_SET) == EMPTY_SET

    def test_dyadic_full_interval_is_fixed(self):
        assert hutchinson(DYADIC, iset((0, 1))) == iset((0, 1))

    def test_rejects_operand_outside_hull(self):
        with pytest.raises(ValueError):
            hutchinson(GN, iset((0, 2)))

    @pytest.mark.parametrize(
        "spec,steps",
        [(DYADIC, 5), (THIRDS, 5), (GN, 5), (FERENS, 3)],
        ids=["dyadic", "thirds", "gn", "ferens"],
    )
    def test_step_identity_on_iterations(self, spec, steps):
        ladder = mg_ladder(spec)
        m = spec.m
        for n in range(0, steps + 1):
            stepped = hutchinson(spec, iterate(ladder, m * n).iteration)
            assert stepped == iterate(ladder, m * (n + 1)).iteration


class TestNoBlock:
    """A spec that ``self_similar`` gives no block: a family with no
    self-similar block, or a multigeometric block over the cap."""

    @pytest.mark.parametrize(
        "spec", [KYIV_48, spec_from_json(json.loads(BIG_BLOCK))], ids=["kyiv48", "big_block"]
    )
    def test_operator_refuses_and_run_windows_is_none(self, spec):
        # with no value there is no operator and no run-window union
        with pytest.raises(ValueError, match="no self-similar block within the cap") as info:
            hutchinson(spec, iset((0, 1)))
        assert len(str(info.value).splitlines()) == 1
        with pytest.raises(ValueError, match="no self-similar block within the cap"):
            certify_interior(spec, SubsumLadder(spec.stream()))
        assert self_similar(spec) is None


def multigeometric_specs():
    """The multigeometric specs of the family and CLI tests."""
    return st.one_of(mg_specs(), multigeometric_json().map(spec_from_json))


@st.composite
def operands(draw):
    """A multigeometric spec, its kept value, and a canonical part list S
    inside [0, r_0] over d, a multiple of the block's and r_0's lattice:
    random parts, or the hull [0, r_0] itself."""
    spec = draw(multigeometric_specs())
    similar = self_similar(spec)
    total = similar.total
    d = lcm(similar.block.denominator, total.denominator) * draw(st.integers(1, 3))
    top = total.numerator * (d // total.denominator)
    ends = st.integers(0, top)
    pairs = st.lists(st.tuples(ends, ends), max_size=5).map(lambda ps: merge_parts(map(sorted, ps)))
    return spec, similar, d, draw(st.one_of(pairs, st.just([(0, top)])))


def lattice_set(d, parts):
    return IntervalSet.from_lattice([lo for lo, _ in parts], [hi for _, hi in parts], d)


class TestOperatorOnTheValue:
    """The kept ``SelfSimilar`` value is Phi: its ``image``, ``covers`` and
    ``windows`` against the Fraction operator of ``oracles``."""

    @given(operands())
    @settings(max_examples=100, deadline=None)
    def test_image_and_cover_match_the_fraction_operator(self, operand):
        spec, similar, d, parts = operand
        s = lattice_set(d, parts)
        bd = similar.ratio.denominator * d
        got = [(F(lo, bd), F(hi, bd)) for lo, hi in similar.image(d, parts)]
        assert got == [(p.lo, p.hi) for p in fraction_hutchinson(spec, s)]
        assert similar.covers(d, parts) == oracles._self_covered(spec, s)

    @given(multigeometric_specs())
    @settings(max_examples=100, deadline=None)
    @example(FERENS)  # the union passes its recheck
    @example(GN)  # no run window at all
    def test_windows_are_the_fraction_union(self, spec):
        candidates = oracles._run_window_candidates(spec)
        pieces = [p for c in candidates if oracles._self_covered(spec, c) for p in c]
        union = set_nondegenerate(normalize(pieces))
        got = self_similar(spec).windows
        if oracles._self_covered(spec, union):
            d, parts = got
            assert lattice_set(d, parts) == union
        else:
            assert got is None


class TestCertify:
    def test_dyadic_certifies_the_unit_interval(self):
        cert = certify_interior(DYADIC, mg_ladder(DYADIC), seed_depth=2, budget=4)
        assert cert.verified
        assert cert.s == iset((0, 1))
        assert cert.interior_measure == 1

    def test_full_interval_spec_certifies(self):
        cert = certify_interior(FULL, mg_ladder(FULL), seed_depth=1, budget=4)
        assert cert.verified
        assert cert.s == iset((0, 2))
        assert cert.interior_measure == 2

    @pytest.mark.parametrize("budget", [0, 2, 8, 20])
    def test_middle_thirds_never_verifies(self, budget):
        cert = certify_interior(THIRDS, mg_ladder(THIRDS), seed_depth=2, budget=budget)
        assert not cert.verified
        assert cert.interior_measure == 0
        assert cert.s == EMPTY_SET

    def test_gn_outcome_recorded_not_verified(self):
        cert = certify_interior(GN, mg_ladder(GN), seed_depth=3, budget=10)
        assert not cert.verified
        assert cert.diagnostics  # explains why

    def test_ferens_certifies_a_fat_interval(self):
        cert = certify_interior(FERENS, mg_ladder(FERENS), seed_depth=1, budget=6)
        assert cert.verified
        assert cert.s == iset(("2/9", "4/3"))
        assert cert.interior_measure == F(10, 9)

    @pytest.mark.parametrize(
        "spec", [DYADIC, FULL, FERENS], ids=["dyadic", "full", "ferens"]
    )
    def test_certificates_sit_inside_every_iteration(self, spec):
        ladder = mg_ladder(spec)
        cert = certify_interior(spec, ladder, seed_depth=2, budget=6)
        assert cert.verified
        for n in range(0, 15):
            assert is_subset_of(cert.s, iterate(ladder, n).iteration)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            certify_interior(GN, mg_ladder(GN), seed_depth=0, budget=4)
        with pytest.raises(ValueError):
            certify_interior(GN, mg_ladder(GN), seed_depth=1, budget=-1)

    @given(
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
        st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=25, deadline=None)
    @example(raw_coeffs=[1, 3], denom=2)  # (3, 1; 1/2): k_m < k_1 q
    def test_random_spec_certificates_are_sound(self, raw_coeffs, denom):
        # soundness must hold for arbitrary specs, not just the curated ones
        spec = multigeometric(sorted(raw_coeffs, reverse=True), F(1, denom))
        ladder = mg_ladder(spec)
        cert = certify_interior(spec, ladder, seed_depth=1, budget=3)
        if cert.verified:
            assert cert.interior_measure == sum((p.hi - p.lo for p in cert.s.parts), F(0))
            for n in range(0, 9):
                assert is_subset_of(cert.s, iterate(ladder, n).iteration)
        else:
            assert cert.interior_measure == 0 and not cert.s


class TestLatticeSearchMatchesFractionSearch:
    """The integer-lattice search returns the Fraction search's certificate."""

    @given(
        st.lists(
            st.tuples(st.integers(1, 9), st.sampled_from([1, 2, 3, 5])),
            min_size=1,
            max_size=3,
        ),
        st.integers(2, 8).flatmap(
            lambda b: st.tuples(st.one_of(st.just(1), st.integers(1, b - 1)), st.just(b))
        ),
        st.integers(1, 3),
        st.integers(0, 12),
    )
    @settings(max_examples=100, deadline=None)
    @example(  # refinement stops at round 7 with 1,024 parts, past the part limit
        raw_coeffs=[(2, 1)], ratio=(1, 3), seed_depth=3, budget=12
    )
    @example(  # ferens_5432: the run-window certificate [2/9, 4/3]
        raw_coeffs=[(5, 1), (4, 1), (3, 1), (2, 1)], ratio=(1, 10), seed_depth=1, budget=6
    )
    @example(  # q = a / b with a >= 2 and a rational coefficient
        raw_coeffs=[(7, 2), (5, 3)], ratio=(3, 5), seed_depth=2, budget=12
    )
    def test_whole_certificate_is_equal(self, raw_coeffs, ratio, seed_depth, budget):
        spec = multigeometric(
            sorted((F(p, q) for p, q in raw_coeffs), reverse=True), F(*ratio)
        )
        got = certify_interior(spec, mg_ladder(spec), seed_depth, budget)
        expected = fraction_certify_interior(spec, mg_ladder(spec), seed_depth, budget)
        assert got == expected  # every field, diagnostics strings included


class TestMeasureBounds:
    def test_dyadic_bounds_are_tight(self):
        got = measure_bounds(mg_ladder(DYADIC), 4, spec=DYADIC)
        assert got.upper_lambda_e == 1
        assert got.lower_interior == 1
        assert got.boundary_gap == 0

    def test_middle_thirds_upper_decays(self):
        for depth in (1, 2, 5):
            got = measure_bounds(mg_ladder(THIRDS), depth, spec=THIRDS)
            assert got.upper_lambda_e == F(2, 3) ** depth
            assert got.lower_interior == 0

    def test_gn_frozen_chain(self):
        ladder = mg_ladder(GN)
        values = {d: measure_bounds(ladder, d, spec=GN) for d in (2, 4, 6, 8)}
        assert values[2].upper_lambda_e == F(3, 2)
        assert values[4].upper_lambda_e == F(11, 8)
        assert values[6].upper_lambda_e == F(41, 32)
        assert values[8].upper_lambda_e == F(155, 128)
        gaps = [values[d].boundary_gap for d in (2, 4, 6, 8)]
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < gaps[0]

    def test_ferens_two_sided(self):
        got = measure_bounds(mg_ladder(FERENS), 8, spec=FERENS)
        assert got.lower_interior == F(10, 9)
        assert got.upper_lambda_e >= got.lower_interior
        assert got.boundary_gap == got.upper_lambda_e - got.lower_interior

    def test_plain_stream_gets_upper_only(self):
        got = measure_bounds(SubsumLadder(KYIV_48.stream()), 13)
        assert got.upper_lambda_e < 1
        assert got.lower_interior == 0

    def test_a_spec_that_is_not_multigeometric_gets_no_search(self):
        ladder = SubsumLadder(KYIV_48.stream())
        assert measure_bounds(ladder, 13, spec=KYIV_48) == measure_bounds(ladder, 13)

    def test_one_budget_default(self):
        # a library classify or certificate search at its defaults writes
        # the certificate rounds that analyze writes at its own
        defaults = [
            inspect.signature(f).parameters["budget"].default
            for f in (classify, certify_interior, measure_bounds)
        ]
        defaults.append(Evidence(GN, mg_ladder(GN)).budget)
        defaults.append(build_parser().parse_args(["analyze"]).budget)
        assert defaults == [engine.DEFAULT_BUDGET] * 5

    @pytest.mark.parametrize("spec", [DYADIC, FERENS], ids=["dyadic", "ferens"])
    def test_gap_nonincreasing_in_budget(self, spec):
        ladder = mg_ladder(spec)
        gaps = [measure_bounds(ladder, 8, b, spec).boundary_gap for b in (0, 4, 12)]
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))

    @given(
        st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=3),
        st.integers(min_value=2, max_value=10),
    )
    @settings(max_examples=8, deadline=None)
    @example(raw_coeffs=[4], denom=4)
    def test_proved_empty_interior_needs_no_search(self, raw_coeffs, denom):
        # a report skips the certificate search when the classification
        # proves the interior empty; the full search must agree with the skip
        spec = multigeometric(sorted(raw_coeffs, reverse=True), F(1, denom))
        ladder = mg_ladder(spec)
        assume(classify(spec, ladder, horizon=6, budget=12).interior_empty)
        full = measure_bounds(ladder, 6, 12, spec)
        assert full.lower_interior == 0
        assert full.certificate is None
        report = build_report(spec, 6, 6, DEFAULT_CAP, 12)
        assert report["measure_bounds"] == full.to_json()


def ratios():
    """q = a / b with b <= 10, as (a, b)."""
    return st.integers(2, 10).flatmap(
        lambda b: st.tuples(st.one_of(st.just(1), st.integers(1, b - 1)), st.just(b))
    )


class TestSkippedSearches:
    """With infinitely many Kakeya indices a search verifies exactly when the
    run-window candidates do, so skipping the others changes no report."""

    @given(
        st.lists(st.integers(1, 9), min_size=1, max_size=3),
        ratios(),
        st.integers(1, 3),
        st.integers(0, 12),
    )
    @settings(max_examples=100, deadline=None)
    @example(raw_coeffs=[5, 4, 3, 2], ratio=(1, 10), seed_depth=1, budget=12)  # verifies
    @example(raw_coeffs=[3, 2], ratio=(1, 4), seed_depth=2, budget=12)  # does not
    def test_search_never_stabilizes(self, raw_coeffs, ratio, seed_depth, budget):
        spec = multigeometric(sorted(raw_coeffs, reverse=True), F(*ratio))
        ladder = mg_ladder(spec)
        assume(not ladder.stream.kakeya_pattern().kakeya_is_finite)
        cert = certify_interior(spec, ladder, seed_depth, budget)
        # an unstabilized refinement spends its budget or hits the part limit
        assert cert.rounds == budget or any("exceed limit" in d for d in cert.diagnostics)
        # and then verifies through the run-window candidates, which a
        # budget-0 search tries at once
        assert cert.verified == (self_similar(spec).windows is not None)
        assert cert.s == certify_interior(spec, ladder, seed_depth, 0).s

    @given(
        st.lists(st.integers(1, 9), min_size=1, max_size=3),
        ratios(),
        st.integers(1, 8),
        st.integers(1, 8),
    )
    @settings(max_examples=100, deadline=None)
    @example(raw_coeffs=[5, 4, 3, 2], ratio=(1, 10), depth=12, horizon=12)
    @example(raw_coeffs=[5, 1], ratio=(2, 3), depth=6, horizon=6)  # preperiod 2
    def test_report_sections_match_every_search(self, raw_coeffs, ratio, depth, horizon):
        spec = multigeometric(sorted(raw_coeffs, reverse=True), F(*ratio))
        report = build_report(spec, depth, horizon, DEFAULT_CAP, 12)
        expected = reference_report_sections(spec, depth, horizon, DEFAULT_CAP, 12)
        assert report["classification"] == expected["classification"]
        assert report["measure_bounds"] == expected["measure_bounds"]
        # no report carries an unverified certificate, which is why a failed
        # search keeps no diagnostics beyond the part limit
        carried = (
            report["classification"]["witnesses"].get("certificate"),
            report["measure_bounds"]["certificate"],
        )
        assert all(c is None or c["verified"] for c in carried)

    def test_run_window_candidates_are_built_once_per_spec(self, monkeypatch, capsys):
        # classify's gate and search, measure_bounds' gate and its search all
        # read the one union kept on the one kept value
        built = []

        def counted(similar):
            built.append(similar)
            return windows(similar)

        windows = SelfSimilar.windows.func
        kept = functools.cached_property(counted)
        kept.__set_name__(SelfSimilar, "windows")
        monkeypatch.setattr(SelfSimilar, "windows", kept)
        self_similar.cache_clear()
        path = Path(__file__).resolve().parents[1] / "scripts" / "specs" / "ferens_5432.json"
        assert main(["analyze", "--spec", str(path), "--depth", "14"]) == 0
        capsys.readouterr()
        spec = spec_from_json(json.loads(path.read_text()))
        assert len(built) == 1 and built[0] is self_similar(spec)
        assert built[0].windows is not None
