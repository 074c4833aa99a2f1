"""Acceptance suite: one test per criterion, every check exact (no tolerances).

Each test prints a single pass line (visible with pytest -s or in failure
output); runtime limits are asserted where the criterion states one.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

from cantorval.classify import Tier, Verdict, classify
from cantorval.engine import certify_interior, hutchinson, iterate, measure_bounds
from cantorval.exact import interval, normalize
from cantorval.families import (
    GFSpec,
    KyivSpec,
    MMSpec,
    PeriodicSeq,
    RepeatedTermSpec,
    geometric,
    gf_group_set,
    kyiv_group_set,
    kyiv_chain_margin,
    kyiv_progression,
    kyiv_values,
    mm_block,
    mm_block_coefficients,
    multigeometric,
    semifast_check,
    standardness_ratio,
)
from cantorval.series import SubsumLadder, finite_subsums, kakeya_split
from cantorval.exact import PointSet
from cantorval.tightness import max_tight_diameter
from cantorval.uniqueness import (
    multirep_outer,
    repetition_report,
    representation_uniqueness_oracle,
    tail_sum_unique,
)

from oracles import brute_max_tight_diameter, brute_subsums, is_subset_of, point_in_set

DYADIC = multigeometric([1], "1/2")
THIRDS = multigeometric([2], "1/3")
GN = multigeometric([3, 2], "1/4")
FERENS = multigeometric([5, 4, 3, 2], "1/10")
FULL = multigeometric([3, 2, 1], "1/4")
KYIV_48 = KyivSpec(PeriodicSeq((), (4,)), PeriodicSeq((), (8,)))
GF_DECIMAL = GFSpec(PeriodicSeq((), (2,)), PeriodicSeq((), (4,)), geometric("1/10", "1/10"))
MM_ONES = MMSpec(PeriodicSeq((), (1,)))
SEMIFAST = RepeatedTermSpec(geometric("1/4", "1/4"), PeriodicSeq((), (2,)))


def mg_ladder(spec):
    return SubsumLadder(spec.stream())


def report(number: int, text: str) -> None:
    print(f"[criterion {number:02d}] PASS: {text}")


def timed(limit_seconds):
    class _Timer:
        def __enter__(self):
            self.start = time.monotonic()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.monotonic() - self.start
            if exc == (None, None, None):
                assert self.elapsed < limit_seconds, (
                    f"runtime {self.elapsed:.2f}s exceeds {limit_seconds}s"
                )
            return False

    return _Timer()


def test_criterion_1_kyiv_closed_forms():
    with timed(1.0):
        v1 = kyiv_values(KYIV_48, 1)
        assert v1.a == F(2, 25)
        assert v1.boundary_tail == F(1, 25)
        assert v1.group_sum + v1.boundary_tail == 1
        for k in range(1, 8):
            assert kyiv_values(KYIV_48, k + 1).a / kyiv_values(KYIV_48, k).a == F(1, 25)
        margin = kyiv_chain_margin(KYIV_48, 1)
        assert margin == 24 and margin >= 0
        stream = KYIV_48.stream()
        assert stream.tail(13) == F(1, 25)
    report(1, "kyiv (4,8): a_1=2/25, r_N1=1/25, G_1+r_N1=1, a-ratio 1/25, margin 24")


def test_criterion_2_standardness_bounds():
    with timed(1.0):
        gf = standardness_ratio(GF_DECIMAL, 1)
        assert gf.at_index == F(5, 7) and gf.at_index >= F(7, 11)
        mm = standardness_ratio(MM_ONES, 1)
        assert mm.at_index == F(5, 9) and mm.at_index >= F(5, 9)
        ky = standardness_ratio(KYIV_48, 1)
        assert ky.at_index == F(3, 4) and ky.at_index >= F(1, 2)
    report(2, "standardness ratios 5/7 >= 7/11 (gf), 5/9 >= 5/9 (mm), 3/4 >= 1/2 (kyiv)")


def test_criterion_3_self_similarity_identity():
    with timed(10.0):
        ladder = SubsumLadder(GN.stream())
        hull = normalize([interval(0, "5/3")])
        first = hutchinson(GN, hull)
        expected = normalize(
            [interval(0, "5/12"), interval("1/2", "7/6"), interval("5/4", "5/3")]
        )
        assert first == expected
        i2 = iterate(ladder, 2)
        assert i2.iteration == expected and i2.measure == F(3, 2)
        for n in range(0, 6):
            assert hutchinson(GN, iterate(ladder, 2 * n).iteration) == iterate(
                ladder, 2 * n + 2
            ).iteration
    report(3, "phi(I_{2n}) = I_{2n+2} for n=0..5; phi([0,5/3]) = I_2; lambda(I_2)=3/2")


def test_criterion_4_classification_suite():
    with timed(60.0):
        got_dyadic = classify(DYADIC, mg_ladder(DYADIC), horizon=10)
        assert got_dyadic.verdict is Verdict.MULTI_INTERVAL
        assert got_dyadic.tier is Tier.PROVED
        got_thirds = classify(THIRDS, mg_ladder(THIRDS), horizon=10)
        assert got_thirds.verdict is Verdict.CANTOR
        assert got_thirds.tier is Tier.PROVED
        got_gn = classify(GN, mg_ladder(GN), horizon=10)
        assert got_gn.verdict is Verdict.CANTORVAL
        assert got_gn.verdict is not Verdict.UNKNOWN
        # An exact interior certificate for (3,2;1/4) cannot exist (the four
        # quarter-scale images cannot re-cover any finite interval union), so
        # the honest tier for it is heuristic with exact witnesses attached;
        # the certified tier is demonstrated where such witnesses do exist:
        got_ferens = classify(FERENS, mg_ladder(FERENS), horizon=10)
        assert got_ferens.verdict is Verdict.CANTORVAL
        assert got_ferens.tier is Tier.CERTIFIED
    report(
        4,
        "dyadic MultiInterval/Proved, thirds Cantor/Proved, gn Cantorval "
        f"({got_gn.tier.value}), ferens Cantorval/Certified",
    )


@pytest.mark.parametrize(
    "name,stream_maker",
    [("gn", lambda: GN.stream()), ("kyiv", lambda: KYIV_48.stream())],
)
def test_criterion_5_kakeya_iteration_coupling(name, stream_maker):
    stream = stream_maker()
    split = kakeya_split(stream, 13)
    ladder = SubsumLadder(stream)
    reports = [iterate(ladder, n) for n in range(0, 14)]
    for n in range(1, 13):
        assert (reports[n - 1].iteration == reports[n].iteration) == (
            n in split.reversed_kakeya
        )
        strictly_shrinks = reports[n + 1].iteration != reports[n].iteration
        assert is_subset_of(reports[n + 1].iteration, reports[n].iteration)
        assert strictly_shrinks == ((n + 1) in split.kakeya)
    report(5, f"{name}: I_(n-1)=I_n iff n reversed; I_(n+1) strict iff n+1 Kakeya, n<=12")


def test_criterion_6_oracle_equivalence():
    # closed-form group sets vs brute force, group size <= 16
    got = gf_group_set(GF_DECIMAL, 1)
    terms = GF_DECIMAL.stream().terms(4)
    assert list(got.values) == sorted(brute_subsums(terms))
    for n in range(1, 9):
        assert list(mm_block(n).values) == sorted(
            brute_subsums(mm_block_coefficients(n))
        )
    group = kyiv_group_set(KYIV_48, 1)
    assert set(kyiv_progression(KYIV_48, 1).values) <= set(group.values)
    a1 = kyiv_values(KYIV_48, 1).a
    assert list(group.values) == sorted(
        brute_subsums((a1,) * 9 + (F(3, 4) * a1,) * 4)
    )
    # tightness vs exhaustive subset search, sets of size <= 12
    ps = PointSet.from_values([0, 1, 2, 5, 6, 9, F(19, 2), 11, 12, F(25, 2), 14, 20])
    for eps in (F(1), F(3, 2), F(5, 2), F(5)):
        assert max_tight_diameter(ps, eps) == brute_max_tight_diameter(ps.values, eps)
    # incremental subsums vs direct enumeration, k <= 12
    stream = GN.stream()
    for k in range(0, 13):
        got_k = finite_subsums(stream, k)
        assert dict(zip(got_k.values, got_k.counts)) == brute_subsums(stream.terms(k))
    report(6, "closed-form group sets, tight blocks, and subsums match brute force")


def test_criterion_7_certification_soundness():
    verified = []
    for spec in (DYADIC, FULL, FERENS):
        ladder = mg_ladder(spec)
        cert = certify_interior(spec, ladder, seed_depth=2, budget=8)
        assert cert.verified
        verified.append((ladder, cert))
    for ladder, cert in verified:
        for j in range(0, 8):
            assert is_subset_of(cert.s, iterate(ladder, 2 * j).iteration)
    for budget in (0, 4, 12, 20):
        cert = certify_interior(THIRDS, mg_ladder(THIRDS), seed_depth=2, budget=budget)
        assert not cert.verified and cert.interior_measure == 0 and not cert.s
    report(7, "verified certificates sit inside I_(2j), j<=7; middle thirds never verifies")


def test_criterion_8_boundary_gap_monotone():
    ladder = mg_ladder(GN)
    bounds = {d: measure_bounds(ladder, d, spec=GN) for d in (2, 4, 6, 8)}
    expected_upper = {2: F(3, 2), 4: F(11, 8), 6: F(41, 32), 8: F(155, 128)}
    for d, b in bounds.items():
        assert b.upper_lambda_e == expected_upper[d]
        assert b.lower_interior == 0  # no finite certificate exists for gn
        assert b.boundary_gap == b.upper_lambda_e
    gaps = [bounds[d].boundary_gap for d in (2, 4, 6, 8)]
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < gaps[0]
    report(
        8,
        "gn boundary gap contracts: "
        + " -> ".join(str(bounds[d].boundary_gap) for d in (2, 4, 6, 8)),
    )


def test_criterion_9_uniqueness_suite():
    from oracles import geometric_tail_stream

    planted = geometric_tail_stream([1, F(1, 2), F(1, 4), F(1, 4)], F(1, 8), F(1, 2))
    ladder = SubsumLadder(planted)
    rep = repetition_report(ladder, 4)
    assert len(rep.collisions) > 0
    for j in range(4, 8):
        outer = multirep_outer(ladder, j)
        for value in rep.collisions.values:
            assert point_in_set(value, outer)
    assert semifast_check(SEMIFAST).semifast
    ks = [SEMIFAST.counts[i] for i in range(1, 5)]
    assert (ks[0] + 1) * (ks[1] + 1) * (ks[2] + 1) * (ks[3] + 1) == 81
    assert representation_uniqueness_oracle(SEMIFAST, 4)
    gn_stream = GN.stream()
    split = kakeya_split(gn_stream, 6)
    for k in range(1, 7):
        assert tail_sum_unique(gn_stream, k) == (k in split.kakeya)
    report(9, "planted collisions inside outer bricks; semifast + 81-sum oracle; gn tails")


def test_criterion_10_determinism_and_serialization(tmp_path):
    args = [
        sys.executable,
        "-m",
        "cantorval",
        "analyze",
        "--inline",
        '{"type":"multigeometric","k":[3,2],"q":"1/4"}',
        "--depth",
        "6",
    ]
    first = subprocess.run(args, capture_output=True, text=True)
    second = subprocess.run(args, capture_output=True, text=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout  # byte-identical
    from cantorval.cli import validate_report_document

    doc = json.loads(first.stdout)
    validate_report_document(doc)
    assert json.loads(json.dumps(doc)) == doc
    report(10, "identical invocations byte-identical; report round-trips and validates")
