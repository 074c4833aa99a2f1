import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import cantorval
from cantorval.classify import resolve_stream
from cantorval.families import (
    BlockGeometric,
    GFSpec,
    KyivSpec,
    MMSpec,
    PeriodicSeq,
    RepeatedTermSpec,
    geometric,
    gf_group_set,
    gf_validate,
    kyiv_chain_margin,
    kyiv_group_set,
    kyiv_progression,
    kyiv_validate,
    kyiv_values,
    mm_block,
    mm_block_coefficients,
    multigeometric,
    self_similar,
    spec_from_json,
    standardness_ratio,
    subsum_run_total,
)
from cantorval.families.grouped import periodic_tail
from cantorval.series import StreamError
from cantorval.tightness import max_tight_diameter

from oracles import (
    ReferenceGroups,
    brute_subsums,
    mm_scale,
    reference_gf2_failure,
    reference_kyiv_values,
    reference_standardness,
)
from test_uniqueness import repeated_specs


GN = multigeometric([3, 2], "1/4")
GF_DECIMAL = GFSpec(PeriodicSeq((), (2,)), PeriodicSeq((), (4,)), geometric("1/10", "1/10"))
MM_ONES = MMSpec(PeriodicSeq((), (1,)))
KYIV_48 = KyivSpec(PeriodicSeq((), (4,)), PeriodicSeq((), (8,)))
KYIV_MIXED = KyivSpec(PeriodicSeq((5,), (4, 6)), PeriodicSeq((11,), (8, 14)))


class TestPeriodic:
    def test_indexing(self):
        seq = PeriodicSeq((9,), (1, 2))
        assert [seq[i] for i in range(1, 7)] == [9, 1, 2, 1, 2, 1]

    def test_block_geometric_values_and_tail(self):
        bg = BlockGeometric((F(1),), (F(1, 2), F(1, 4)), F(1, 8))
        # values: 1, 1/2, 1/4, 1/16, 1/32, 1/128, ...
        assert [bg.value(i) for i in range(1, 6)] == [1, F(1, 2), F(1, 4), F(1, 16), F(1, 32)]

        def tail(k):
            return periodic_tail(bg.value, k, 1, 2, F(1, 8))

        total = 1 + (F(1, 2) + F(1, 4)) / (1 - F(1, 8))
        assert tail(0) == total
        for k in range(0, 12):
            assert tail(k) == bg.value(k + 1) + tail(k + 1)

    def test_geometric_tail(self):
        g = geometric("1/10", "1/10")
        assert periodic_tail(g.value, 0, 0, 1, F(1, 10)) == F(1, 9)
        assert periodic_tail(g.value, 2, 0, 1, F(1, 10)) == F(1, 900)

    def test_tail_below_the_preperiod_adds_the_head(self):
        bg = BlockGeometric((F(5), F(3)), (F(2), F(1)), F(1, 3))

        def tail(k):
            return periodic_tail(bg.value, k, 2, 2, F(1, 3))

        assert tail(0) == 8 + F(9, 2)
        for k in range(0, 8):
            assert tail(k) == bg.value(k + 1) + tail(k + 1)
        with pytest.raises(ValueError):
            tail(-1)


class TestMultigeometric:
    def test_gn_stream_values(self):
        st = GN.stream()
        assert st.tail(0) == F(5, 3)
        assert st.terms(3) == (F(3, 4), F(1, 2), F(3, 16))
        assert st.tail(2) == F(5, 12)

    def test_gn_keeps_coefficient_groups(self):
        st = GN.stream()
        assert st.preperiod == 0
        assert all(st.boundary(j) == 2 * j for j in range(0, 8))

    def test_overlapping_coefficients_are_sorted(self):
        # k_m < k_1 q: the sequences 3 q^j and q^j interleave across groups
        st = multigeometric([3, 1], "1/2").stream()
        assert st.terms(4) == (F(3, 2), F(3, 4), F(1, 2), F(3, 8))
        assert st.preperiod == 1
        assert st.tail(0) == 4

    def test_long_preperiod_tails_are_exact(self):
        # 2^2099, ..., 2, 1 come before the run (1/2, 1/2): 1050 head groups
        st = multigeometric([2**2100, 1], "1/2").stream()
        assert st.preperiod == 1050
        assert st.tail(0) == 2**2100 + 1
        count = st.boundary(st.preperiod + 2)
        for n in range(0, count):
            assert st.tail(n) == st.term(n + 1) + st.tail(n + 1)
        assert st.kakeya_pattern().cycle == ("<", "<")

    def test_dyadic_stream(self):
        st = multigeometric([1], "1/2").stream()
        for n in range(1, 8):
            assert st.term(n) == F(1, 2) ** n
            assert st.tail(n) == F(1, 2) ** n

    def test_blocks(self):
        assert self_similar(GN).block.points().values == (F(0), F(2), F(3), F(5))
        assert self_similar(multigeometric([1], "1/2")).block.points().values == (F(0), F(1))
        got = self_similar(multigeometric([4, 3, 2], "1/10")).block
        assert got.points().values == tuple(map(F, (0, 2, 3, 4, 5, 6, 7, 9)))
        # the lattice is the lcm of the coefficients' denominators
        rational = self_similar(multigeometric(["7/2", "5/3"], "3/5")).block
        assert (rational.denominator, rational.values) == (6, (0, 10, 21, 31))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            multigeometric([], "1/2")
        with pytest.raises(ValueError):
            multigeometric([2, 3], "1/2")  # increasing
        with pytest.raises(ValueError):
            multigeometric([1], "3/2")

    def test_json_round_trip(self):
        doc = GN.to_json()
        assert doc == {"type": "multigeometric", "k": [3, 2], "q": "1/4"}
        assert spec_from_json(doc) == GN


class TestGeneralizedFerens:
    def test_run_total(self):
        assert subsum_run_total(2, 4) == 12

    def test_validate_decimal_scale(self):
        report = gf_validate(GF_DECIMAL)
        assert report.passed
        assert report.s_values[0] == 12

    def test_gf2_fails_for_halving_scale(self):
        spec = GFSpec(
            PeriodicSeq((), (2,)), PeriodicSeq((), (4,)), geometric("1/2", "1/2")
        )
        report = gf_validate(spec)
        assert report.gf1_holds
        assert not report.gf2_holds
        assert report.first_gf2_failure[0] == 1
        assert report.first_gf2_failure[1] == 1  # m_1 q_1 = 2 * 1/2

    def test_group_terms_follow_the_coefficient_run(self):
        st = GF_DECIMAL.stream()
        assert st.terms(4) == (F(5, 10), F(4, 10), F(3, 10), F(2, 10))
        assert st.term(5) == F(5, 100)

    def test_group_set_matches_brute_force(self):
        got = gf_group_set(GF_DECIMAL, 1)
        expected = sorted(brute_subsums([F(5, 10), F(4, 10), F(3, 10), F(2, 10)]))
        assert list(got.values) == expected
        assert got.values == tuple(
            F(v, 10) for v in [0] + list(range(2, 13)) + [14]
        )

    def test_group_maximum_is_group_sum(self):
        got = gf_group_set(GF_DECIMAL, 1)
        assert got.values[-1] == F(14, 10)  # (s_1 + m_1) q_1

    def test_second_instance_group_set_matches_brute_force(self):
        spec = GFSpec(PeriodicSeq((), (3,)), PeriodicSeq((), (5,)), geometric("1/100", "1/100"))
        assert spec.s(1) == 22  # 4 + 5 + 6 + 7
        got = gf_group_set(spec, 1)
        terms = [F(c, 100) for c in (7, 6, 5, 4, 3)]
        assert list(got.values) == sorted(brute_subsums(terms))

    def test_preperiodic_scale_stream(self):
        spec = GFSpec(
            PeriodicSeq((2,), (3,)),
            PeriodicSeq((4,), (5,)),
            BlockGeometric((F(1, 10),), (F(1, 100),), F(1, 10)),
        )
        st = spec.stream()
        assert st.terms(4) == (F(5, 10), F(4, 10), F(3, 10), F(2, 10))
        assert st.terms(9)[4:] == (F(7, 100), F(6, 100), F(5, 100), F(4, 100), F(3, 100))
        for n in range(0, 30):
            assert st.tail(n) == st.term(n + 1) + st.tail(n + 1)

    def test_structural_validation(self):
        with pytest.raises(ValueError):
            GFSpec(PeriodicSeq((), (1,)), PeriodicSeq((), (4,)), geometric("1/10", "1/10"))
        with pytest.raises(ValueError):
            GFSpec(PeriodicSeq((), (4,)), PeriodicSeq((), (4,)), geometric("1/10", "1/10"))

    def test_json_round_trip(self):
        assert spec_from_json(GF_DECIMAL.to_json()) == GF_DECIMAL


class TestMarchwickiMiska:
    def test_block_coefficients(self):
        assert mm_block_coefficients(1) == (4, 3, 2)
        assert mm_block_coefficients(2) == (8, 5, 4, 2)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_block_formula_matches_brute_force(self, n):
        got = mm_block(n)
        expected = sorted(brute_subsums(mm_block_coefficients(n)))
        assert list(got.values) == expected

    def test_block_sum(self):
        for n in range(1, 9):
            assert mm_block(n).values[-1] == sum(mm_block_coefficients(n)) == 5 * 2**n - 1

    def test_scale_recurrence(self):
        assert mm_scale(MM_ONES, 1) == 1
        assert mm_scale(MM_ONES, 2) == F(1, 6)
        assert mm_scale(MM_ONES, 3) == F(1, 36)

    def test_boundary_tail_closed_form(self):
        st = MM_ONES.stream()
        for k in range(1, 6):
            q_k = mm_scale(MM_ONES, k)
            assert st.group_tail(k) == F(9, 5) * q_k

    def test_stream_terms(self):
        st = MM_ONES.stream()
        assert st.terms(3) == (4, 3, 2)
        assert st.terms(6)[3:] == (F(4, 6), F(3, 6), F(2, 6))

    def test_json_round_trip(self):
        assert spec_from_json(MM_ONES.to_json()) == MM_ONES


class TestKyiv:
    def test_closed_forms_const_spec(self):
        v = kyiv_values(KYIV_48, 1)
        assert v.a == F(2, 25)
        assert v.boundary_tail == F(1, 25)
        assert v.group_sum == F(24, 25)
        assert v.group_sum + v.boundary_tail == 1
        assert kyiv_values(KYIV_48, 2).a / v.a == F(1, 25)

    def test_chain_margin(self):
        assert kyiv_chain_margin(KYIV_48, 1) == 24

    @pytest.mark.parametrize("spec", [KYIV_48, KYIV_MIXED])
    def test_recurrence_consistency_deep(self, spec):
        # kyiv_values internally asserts closed form == recurrence at each step
        for n in range(1, 21):
            kyiv_values(spec, n)

    @pytest.mark.parametrize("spec", [KYIV_48, KYIV_MIXED])
    def test_group_sums_telescope_to_one(self, spec):
        total = F(0)
        for k in range(1, 9):
            v = kyiv_values(spec, k)
            total += v.group_sum
            assert total + v.boundary_tail == 1
        st = spec.stream()
        assert st.tail(0) == 1

    def test_stream_group_structure(self):
        st = KYIV_48.stream()
        a1 = F(2, 25)
        assert st.terms(13) == (a1,) * 9 + (F(3, 4) * a1,) * 4
        assert st.tail(13) == F(1, 25)
        assert sum(st.terms(13), F(0)) == F(24, 25)

    def test_progression_bounds(self):
        prog = kyiv_progression(KYIV_48, 1)
        a1 = F(2, 25)
        assert prog.values[0] == F(3, 2) * a1  # (m - 3 + 2/m) a = 6 * a/4
        assert prog.values[-1] == F(21, 2) * a1 / 1  # (s + 3 - 2/m) a = 42 * a/4
        assert prog.values == tuple(i * a1 / 4 for i in range(6, 43))

    @pytest.mark.parametrize("spec,k", [(KYIV_48, 1), (KYIV_MIXED, 1), (KYIV_MIXED, 2)])
    def test_progression_inside_group_subsums(self, spec, k):
        group = kyiv_group_set(spec, k)
        prog = kyiv_progression(spec, k)
        assert set(prog.values) <= set(group.values)

    @pytest.mark.parametrize("spec,k", [(KYIV_48, 1), (KYIV_MIXED, 1)])
    def test_group_tight_diameter_bound(self, spec, k):
        v = kyiv_values(spec, k)
        m, s = spec.m[k], spec.s[k]
        group = kyiv_group_set(spec, k)
        bound = (s - m + 6) * v.a - 4 * v.a / m
        assert max_tight_diameter(group, v.a / m) >= bound

    @pytest.mark.parametrize("pre,period", [((), (1,)), ((4,), (1, 4)), ((1,), (4,))])
    def test_m_one_has_no_stream(self, pre, period):
        # (m_k - 1)/m_k * a_k is zero when m_k = 1
        spec = KyivSpec(PeriodicSeq(pre, period), PeriodicSeq((), (6,)))
        with pytest.raises(StreamError, match="contains a nonpositive term"):
            spec.stream()

    def test_group_set_matches_brute_force(self):
        got = kyiv_group_set(KYIV_48, 1)
        a1 = F(2, 25)
        expected = sorted(brute_subsums((a1,) * 9 + (F(3, 4) * a1,) * 4))
        assert list(got.values) == expected

    def test_group_set_capacity_guard(self):
        from cantorval.series import CapacityError

        big = KyivSpec(PeriodicSeq((), (5,)), PeriodicSeq((), (20,)))  # 26 terms
        with pytest.raises(CapacityError):
            kyiv_group_set(big, 1)

    def test_validation_failures(self):
        report = kyiv_validate(KyivSpec(PeriodicSeq((), (3,)), PeriodicSeq((), (5,))))
        names = {name: ok for name, ok, _ in report.conditions}
        assert names["s_n >= 3*m_n - 4"]  # 5 >= 5
        assert not names["limsup m_n >= 4"]
        assert not report.passed

        report2 = kyiv_validate(KyivSpec(PeriodicSeq((), (4,)), PeriodicSeq((), (7,))))
        names2 = {name: ok for name, ok, _ in report2.conditions}
        assert not names2["s_n >= 3*m_n - 4"]  # 7 < 8

    def test_json_round_trip(self):
        doc = KYIV_48.to_json()
        assert doc == {
            "type": "kyiv",
            "m": {"pre": [], "period": [4]},
            "s": {"pre": [], "period": [8]},
        }
        assert spec_from_json(doc) == KYIV_48


class TestStandardness:
    def test_gf_decimal(self):
        res = standardness_ratio(GF_DECIMAL, 1)
        assert res.at_index == F(5, 7)
        assert res.limit == F(5, 7)
        assert res.limit >= F(7, 11)

    def test_mm_ones(self):
        res = standardness_ratio(MM_ONES, 1)
        assert res.at_index == F(5, 9)
        assert res.limit == F(5, 9)

    def test_kyiv_48(self):
        res = standardness_ratio(KYIV_48, 1)
        assert res.at_index == F(3, 4)
        assert res.limit == F(3, 4)
        assert res.limit >= F(1, 2)

    def test_rejects_multigeometric(self):
        with pytest.raises(ValueError):
            standardness_ratio(GN, 1)

    def test_periodic_limit_is_max_over_cycle(self):
        res = standardness_ratio(KYIV_MIXED, 1)
        assert res.limit >= res.at_index or res.at_index >= res.limit  # exact rationals
        assert res.limit >= F(1, 2)


def _periodic_seqs(draw, values):
    """PeriodicSeq with a preperiod of 0-2 and a period of 1-2 entries."""
    return PeriodicSeq(
        tuple(draw(st.lists(values, max_size=2))),
        tuple(draw(st.lists(values, min_size=1, max_size=2))),
    )


@st.composite
def gf_specs(draw):
    """Preperiod 0-2 and period 1-2 in m, k and q, with m_n < k_n; q falls
    at least 5-fold per group, so the stream is nonincreasing."""
    m = _periodic_seqs(draw, st.integers(2, 4))
    k = _periodic_seqs(draw, st.integers(5, 7))
    steps = draw(st.lists(st.integers(5, 40), min_size=4, max_size=4))
    pre_len = draw(st.integers(0, 2))
    block_len = draw(st.integers(1, 2))
    values = [F(1, draw(st.integers(2, 10)))]
    for step in steps[: pre_len + block_len - 1]:
        values.append(values[-1] / step)
    ratio = F(1, steps[-1])
    for step in steps[pre_len : pre_len + block_len - 1]:
        ratio /= step
    q = BlockGeometric(tuple(values[:pre_len]), tuple(values[pre_len:]), ratio)
    return GFSpec(m, k, q)


@st.composite
def mm_specs(draw):
    return MMSpec(_periodic_seqs(draw, st.integers(1, 3)))


@st.composite
def kyiv_specs(draw):
    return KyivSpec(
        _periodic_seqs(draw, st.integers(2, 6)), _periodic_seqs(draw, st.integers(1, 12))
    )


@st.composite
def mg_specs(draw):
    """1-4 coefficients in 1..6 and q = a/b with b <= 10; the sorted stream
    has a preperiod whenever k_m < k_1 q."""
    coefficients = sorted(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)))
    b = draw(st.integers(2, 10))
    return multigeometric(coefficients[::-1], F(draw(st.integers(1, b - 1)), b))


class TestStreamsMatchClosedForms:
    """Each family stream, built from its first P + 2p groups, against the
    family's closed form for every group through P + 4p."""

    @given(st.one_of(mg_specs(), gf_specs(), mm_specs(), kyiv_specs(), repeated_specs()))
    @example(multigeometric([5, 1], "2/3"))  # k_m < k_1 q: preperiod 2
    @settings(max_examples=150, deadline=None)
    def test_groups_and_tails(self, spec):
        stream = resolve_stream(spec)
        last = stream.preperiod + 4 * stream.period
        got = [
            tuple(stream.term(n) for n in range(stream.boundary(k - 1) + 1, stream.boundary(k) + 1))
            for k in range(1, last + 1)
        ]
        assert got == ReferenceGroups(spec).groups(last)
        for n in range(0, stream.boundary(last)):
            assert stream.tail(n) == stream.term(n + 1) + stream.tail(n + 1)

    @given(st.one_of(mg_specs(), gf_specs(), mm_specs(), kyiv_specs(), repeated_specs()))
    @example(multigeometric([5, 1], "2/3"))
    @settings(max_examples=60, deadline=None)
    def test_memoized_tails_match_fresh_streams(self, spec):
        # tail(n) is kept per index: any reading order, and a second reading,
        # must give what a stream that has computed nothing yet gives
        stream = resolve_stream(spec)
        indices = range(stream.boundary(stream.preperiod + 3 * stream.period) + 1)
        fresh = [resolve_stream(spec).tail(n) for n in indices]
        ascending = resolve_stream(spec)
        assert [ascending.tail(n) for n in indices] == fresh
        assert [ascending.tail(n) for n in indices] == fresh
        descending = resolve_stream(spec)
        assert [descending.tail(n) for n in reversed(indices)] == fresh[::-1]
        assert [descending.tail(n) for n in indices] == fresh
        # the Kakeya pattern is kept as well, whether read before or after
        assert descending.kakeya_pattern() == resolve_stream(spec).kakeya_pattern()
        assert descending.kakeya_pattern() is descending.kakeya_pattern()

    @given(kyiv_specs())
    @settings(max_examples=40, deadline=None)
    def test_kyiv_values_match_the_recursive_reference(self, spec):
        for k in range(1, 41):
            assert kyiv_values(spec, k) == reference_kyiv_values(spec, k)


class TestTailsMatchReference:
    """periodic_tail against each family's own earlier tail sums."""

    @given(st.one_of(gf_specs(), mm_specs(), kyiv_specs()), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_standardness_ratio(self, spec, k):
        try:
            got = standardness_ratio(spec, k)
        except StreamError:
            assume(False)
        assert (got.at_index, got.limit) == reference_standardness(spec, k)

    @given(gf_specs())
    @settings(max_examples=60, deadline=None)
    def test_gf_validate(self, spec):
        assert gf_validate(spec).first_gf2_failure == reference_gf2_failure(spec)


class TestStreamDiscipline:
    # factories, so that a constructor that raises fails only its own case
    @pytest.mark.parametrize(
        "make",
        [
            lambda: GN.stream(),
            lambda: multigeometric([3, 1], "1/2").stream(),
            lambda: multigeometric([2, 1], "1/2").stream(),
            lambda: GF_DECIMAL.stream(),
            lambda: MM_ONES.stream(),
            lambda: KYIV_48.stream(),
            lambda: KYIV_MIXED.stream(),
        ],
        ids=["gn", "mg-overlap", "mg-tie", "gf", "mm", "kyiv48", "kyiv-mixed"],
    )
    def test_ten_groups_of_monotone_terms_and_exact_tails(self, make):
        stream = make()
        count = stream.boundary(10)
        terms = stream.terms(count)
        assert all(t > 0 for t in terms)
        assert all(a >= b for a, b in zip(terms, terms[1:]))
        for n in range(0, count):
            assert stream.tail(n) == stream.term(n + 1) + stream.tail(n + 1)

    @given(
        st.lists(st.integers(min_value=3, max_value=6), min_size=1, max_size=2),
        st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=2),
        st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_kyiv_specs_have_exact_streams(self, ms, bumps, data):
        n = min(len(ms), len(bumps))
        ms, bumps = ms[:n], bumps[:n]
        ss = [3 * m - 4 + b for m, b in zip(ms, bumps)]
        spec = KyivSpec(PeriodicSeq((), tuple(ms)), PeriodicSeq((), tuple(ss)))
        stream = spec.stream()
        count = stream.boundary(4)
        assert stream.tail(0) == 1  # the construction normalizes to total 1
        for k in range(0, count):
            assert stream.tail(k) == stream.term(k + 1) + stream.tail(k + 1)
        total = F(0)
        for k in range(1, 4):
            v = kyiv_values(spec, k)
            total += v.group_sum
            assert total + v.boundary_tail == 1
            assert kyiv_chain_margin(spec, k) >= 0  # implied by s >= 3m-4, m >= 3

    def test_preperiodic_specs_work(self):
        mixed_mm = MMSpec(PeriodicSeq((3,), (1, 2)))
        st = mixed_mm.stream()
        assert st.terms(5) == (16, 9, 8, 4, 2)
        for n in range(0, 30):
            assert st.tail(n) == st.term(n + 1) + st.tail(n + 1)

        spec = RepeatedTermSpec(geometric("1/4", "1/4"), PeriodicSeq((), (2,)))
        assert spec.weighted_tail(0) == F(2, 3)


SPECS = Path(__file__).resolve().parents[1] / "scripts" / "specs"
# y = 1, 1/2, 1/4, ... with counts 1, 2, 2, ...: not semi-fast
HALVING_DOC = {
    "type": "repeated",
    "y": {"pre": [], "block": ["1"], "ratio": "1/2"},
    "counts": {"pre": [1], "period": [2]},
}


def test_parsing_specs_loads_no_analysis_layer():
    """Each family's module stands alone: parsing every bundled spec and a
    repeated one, in a fresh interpreter, imports none of the layers that
    analyze a spec."""
    code = (
        "import json, sys\n"
        "from pathlib import Path\n"
        "from cantorval.families import spec_from_json\n"
        "docs = [json.loads(p.read_text()) for p in sorted(Path(sys.argv[1]).glob('*.json'))]\n"
        "docs.append(json.loads(sys.argv[2]))\n"
        "kinds = sorted({type(spec_from_json(doc)).__name__ for doc in docs})\n"
        "print(json.dumps([kinds, sorted(sys.modules)]))\n"
    )
    env = dict(os.environ)
    src = str(Path(cantorval.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SPECS), json.dumps(HALVING_DOC)],
        capture_output=True, text=True, env=env, check=True,
    )
    kinds, modules = json.loads(proc.stdout)
    assert kinds == ["GFSpec", "KyivSpec", "MMSpec", "MultigeometricSpec", "RepeatedTermSpec"]
    for layer in ("uniqueness", "classify", "engine", "cli"):
        assert f"cantorval.{layer}" not in modules
