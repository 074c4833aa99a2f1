from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from cantorval.classify import (
    PROVERS,
    Evidence,
    Tier,
    Verdict,
    _from_separated_blocks,
    classify,
    resolve_stream,
)
from cantorval.engine import iterate
from cantorval.families import (
    GFSpec,
    KyivSpec,
    MMSpec,
    PeriodicSeq,
    RepeatedTermSpec,
    geometric,
    multigeometric,
)
from cantorval.series import SubsumLadder, kakeya_split

from oracles import fraction_separated_blocks, geometric_tail_stream
from test_families import gf_specs, kyiv_specs, mg_specs, mm_specs
from test_uniqueness import repeated_specs

DYADIC = multigeometric([1], "1/2")
THIRDS = multigeometric([2], "1/3")
GN = multigeometric([3, 2], "1/4")
FERENS = multigeometric([5, 4, 3, 2], "1/10")
FULL = multigeometric([3, 2, 1], "1/4")
GF_DECIMAL = GFSpec(PeriodicSeq((), (2,)), PeriodicSeq((), (4,)), geometric("1/10", "1/10"))
MM_ONES = MMSpec(PeriodicSeq((), (1,)))
KYIV_48 = KyivSpec(PeriodicSeq((), (4,)), PeriodicSeq((), (8,)))
SEMIFAST = RepeatedTermSpec(geometric("1/4", "1/4"), PeriodicSeq((), (2,)))


def fresh_classify(subject, **options):
    """classify over a fresh ladder of the subject's stream."""
    return classify(subject, SubsumLadder(resolve_stream(subject)), **options)


def separated_witness(spec):
    """The witness _from_separated_blocks gives for ``spec``, or None."""
    found = _from_separated_blocks(Evidence(spec, SubsumLadder(spec.stream())))
    return None if found is None else found.witnesses["separated_blocks"]


class TestClassify:
    def test_dyadic_multi_interval_proved(self):
        got = fresh_classify(DYADIC, horizon=10)
        assert got.verdict is Verdict.MULTI_INTERVAL
        assert got.tier is Tier.PROVED

    def test_middle_thirds_cantor_proved(self):
        got = fresh_classify(THIRDS, horizon=10)
        assert got.verdict is Verdict.CANTOR
        assert got.tier is Tier.PROVED

    def test_gn_cantorval_never_unknown(self):
        got = fresh_classify(GN, horizon=10)
        assert got.verdict is Verdict.CANTORVAL
        assert got.verdict is not Verdict.UNKNOWN
        assert got.witnesses["tight_trend"]["interval_evidence"]
        assert got.witnesses["gap_count"] > 0

    def test_ferens_cantorval_certified(self):
        got = fresh_classify(FERENS, horizon=8)
        assert got.verdict is Verdict.CANTORVAL
        assert got.tier is Tier.CERTIFIED
        assert got.witnesses["certificate"]["verified"]
        # a certified Cantorval carries both witness halves: the interior
        # certificate and a concrete nonempty gap list
        assert got.witnesses["gaps"]
        assert got.witnesses["certificate"]["parts"] == [["2/9", "4/3"]]

    def test_full_interval_spec_multi_interval_proved(self):
        got = fresh_classify(FULL, horizon=8)
        assert got.verdict is Verdict.MULTI_INTERVAL
        assert got.tier is Tier.PROVED

    def test_family_proofs(self):
        for spec in (GF_DECIMAL, MM_ONES, KYIV_48):
            got = fresh_classify(spec, horizon=6)
            assert got.verdict is Verdict.CANTORVAL
            assert got.tier is Tier.PROVED

    def test_separated_blocks_certify_cantor(self):
        # position 1 has x < r (5 < 4 + 2 + r_0), so neither classical
        # theorem applies, but all block subsum gaps exceed r_0 = 11/12:
        # the group bricks are pairwise disjoint and recur self-similarly.
        spec = multigeometric([5, 4, 2], "1/13")
        got = fresh_classify(spec, horizon=8)
        assert got.verdict is Verdict.CANTOR
        assert got.tier is Tier.CERTIFIED
        assert "separated_blocks" in got.witnesses
        pattern = resolve_stream(spec).kakeya_pattern()
        assert "<" in pattern.cycle and ">" in pattern.cycle

    def test_semifast_repeated_terms_cantor_proved(self):
        got = fresh_classify(SEMIFAST, horizon=6)
        assert got.verdict is Verdict.CANTOR
        assert got.tier is Tier.PROVED
        assert got.witnesses["semifast"]["semifast"]

    def test_invalid_kyiv_falls_through_to_stream_analysis(self):
        bad = KyivSpec(PeriodicSeq((), (3,)), PeriodicSeq((), (5,)))
        got = fresh_classify(bad, horizon=8)
        assert got.witnesses.get("family") != "kyiv"

    def test_verdicts_stable_under_horizon_increase(self):
        for spec in (DYADIC, THIRDS, GN, FERENS, KYIV_48):
            a = fresh_classify(spec, horizon=8)
            b = fresh_classify(spec, horizon=9)
            assert (a.verdict, a.tier) == (b.verdict, b.tier)

    def test_proved_multi_interval_iterations_stabilize(self):
        stream = resolve_stream(DYADIC)
        split = kakeya_split(stream, 9)
        assert split.kakeya == ()
        ladder = SubsumLadder(stream)
        reports = [iterate(ladder, n) for n in range(0, 10)]
        for n in range(1, 10):
            assert reports[n - 1].iteration == reports[n].iteration

    def test_proved_cantor_gaps_multiply(self):
        ladder = SubsumLadder(resolve_stream(THIRDS))
        for n in range(1, 9):
            parts_now = len(iterate(ladder, n).iteration.parts)
            parts_next = len(iterate(ladder, n + 1).iteration.parts)
            assert parts_next == 2 * parts_now

    def test_equality_prefix_then_strict_is_cantor(self):
        # x_n = r_n for n <= 3, x_n > r_n afterwards
        stream = geometric_tail_stream([6, 3, F(3, 2)], 1, F(1, 3))
        split = kakeya_split(stream, 8)
        assert split.reversed_kakeya == (1, 2, 3)
        got = fresh_classify(stream, horizon=8)
        assert got.verdict is Verdict.CANTOR
        assert got.tier is Tier.PROVED

    def test_heuristic_verdict_carries_horizon(self):
        got = fresh_classify(GN, horizon=9)
        assert got.tier is Tier.HEURISTIC
        assert got.horizon == 9
        assert got.witnesses["kakeya"]["horizon"] == 9

    @pytest.mark.parametrize("horizon", [4, 6, 8, 10, 12])
    def test_no_interval_evidence_and_nonzero_diameter_is_unknown(self, horizon):
        # (8, 2; 1/4) has infinitely many Kakeya indices, and the tight
        # diameter of F_n is 0 at odd n and 1/2^(n-1) at even n, so the trend
        # shows no interval evidence and does not end at 0.  Its block has
        # |S| = 4 subsums and Q = 1/4, so |S| Q = 1 and counting decides nothing.
        got = fresh_classify(multigeometric([8, 2], "1/4"), horizon=horizon)
        assert (got.verdict, got.tier, got.horizon) == (Verdict.UNKNOWN, Tier.HEURISTIC, horizon)
        trend = got.witnesses["tight_trend"]
        assert trend["interval_evidence"] is False
        assert trend["rows"][-1] == [horizon, f"1/{2 ** (horizon - 1)}"]

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            fresh_classify(GN, horizon=0)

    def test_json_shape(self):
        doc = fresh_classify(GN, horizon=6).to_json()
        assert set(doc) == {"verdict", "tier", "horizon", "witnesses"}
        assert doc["verdict"] == "Cantorval"


class TestProvers:
    def test_order(self):
        assert [prover.__name__ for prover in PROVERS] == [
            "_from_family",
            "_from_pattern",
            "_from_separated_blocks",
            "_from_certificate",
            "_from_horizon",
        ]

    @given(
        st.one_of(mg_specs(), gf_specs(), mm_specs(), kyiv_specs(), repeated_specs()),
        st.integers(1, 6),
    )
    @settings(max_examples=200, deadline=None)
    @example(spec=FERENS, horizon=6)  # _from_certificate decides
    @example(spec=multigeometric([5, 4, 2], "1/13"), horizon=4)  # separated blocks
    @example(spec=GN, horizon=6)  # _from_horizon decides
    def test_caller_evidence_and_the_last_prover(self, spec, horizon):
        ladder = SubsumLadder(resolve_stream(spec))
        evidence = Evidence(spec, ladder, horizon, 4)
        got = classify(spec, ladder, evidence=evidence)
        assert got == fresh_classify(spec, horizon=horizon, budget=4)
        # the last prover, _from_horizon, is reached only with infinitely
        # many Kakeya indices
        if all(prover(evidence) is None for prover in PROVERS[:-1]):
            assert not evidence.pattern.kakeya_is_finite
            assert got.tier is Tier.HEURISTIC


class TestSeparatedBlocks:
    """The lattice comparison and its witness against the Fraction test."""

    @given(
        st.lists(
            st.builds(F, st.integers(1, 30), st.sampled_from([1, 2, 3, 5])),
            min_size=1,
            max_size=4,
        ),
        st.integers(2, 10).flatmap(lambda b: st.tuples(st.integers(1, b - 1), st.just(b))),
    )
    @settings(max_examples=200, deadline=None)
    @example(coeffs=[F(1)], ratio=(1, 2))  # min gap 1 equals r_0 = 1
    @example(coeffs=[F(1)], ratio=(1, 3))  # min gap 1 exceeds r_0 = 1/2
    @example(coeffs=[F(5), F(4), F(2)], ratio=(1, 13))
    @example(coeffs=[F(7, 2), F(5, 3)], ratio=(1, 9))  # block lattice 1/6
    def test_matches_fraction_reference(self, coeffs, ratio):
        spec = multigeometric(sorted(coeffs, reverse=True), F(*ratio))
        assert separated_witness(spec) == fraction_separated_blocks(spec)

    def test_strict_edge(self):
        assert separated_witness(multigeometric([1], "1/2")) is None
        assert separated_witness(multigeometric([1], "1/3")) == {
            "block": ["0/1", "1/1"],
            "min_gap": "1/1",
            "r0": "1/2",
        }
