"""Independent brute-force oracles for the test suite.

These deliberately avoid the library's own algorithms: subset enumeration
instead of incremental convolution, endpoint-event merging instead of the
sweep in normalize, exhaustive subset search for tight decompositions.
Expected values frozen in the tests were computed with these.

Hand-made streams are the exception: ``geometric_tail_stream`` builds
explicit terms followed by a geometric tail as the library's own
GroupedStream, so every test on such a stream runs the production class;
``lattice_stream`` puts any explicit groups on the lattice it takes.

The reference section at the end keeps the library's earlier Fraction
implementations of the separated-block test, the certificate search and the
representation oracle, which the integer-lattice versions must match result
for result, its earlier classify and measure-bounds seed loop, which
searched at every chance where the library now skips the searches that
cannot verify, its earlier per-family tail sums, which ``periodic_tail``
replaced, its earlier per-family group closed forms, which every family
stream must reproduce now that it derives each later group from its first
ones, its earlier enumeration of every multiplicity profile in
``repetition_report``, which the one-pass tally, and its skip when F_k
has no collision, must match report for report, its earlier per-rank
witness decoding, which the two halves must match rank for rank, its
earlier dict-building ``RepetitionReport.to_json``, which the report's text
must parse back to, its earlier single-row writer, which formatted every
endpoint of a row anew where ``engine.IterationRows`` now hands one row's
strings to the next, and its earlier stream class, ``FractionGroupedStream``,
which validated, summed tails and compared terms with tails in Fractions
where ``GroupedStream`` now does all three on one integer lattice, with the
Fraction merge of the multigeometric runs that fed it, and a Fraction merge
of head terms with geometric runs, which ``grouped.sorted_stream`` must
match term for term.
"""

from __future__ import annotations

import itertools
import json
import operator
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Optional, Sequence

from cantorval import classify as classify_module, engine
from cantorval.engine import DEFAULT_PART_LIMIT, InteriorCertificate, MeasureBounds, iterate
from cantorval.exact import (
    EMPTY_SET,
    Interval,
    IntervalSet,
    PointSet,
    RationalLike,
    lattice_strs,
    normalize,
    rat,
    rat_str,
)
from cantorval.families.ferens import GFSpec
from cantorval.families.grouped import GroupedStream, periodic_tail
from cantorval.families.kyiv import KyivSpec, KyivValues
from cantorval.families.marchwicki import MMSpec, mm_block_coefficients
from cantorval.families.multigeometric import MultigeometricSpec
from cantorval.families.periodic import BlockGeometric
from cantorval.series import (
    EQUAL,
    GREATER,
    CapacityError,
    KakeyaPattern,
    StreamError,
    SubsumLadder,
    TermStream,
    compare_sign,
    kakeya_split,
)
from cantorval.tightness import tight_trend
from cantorval.uniqueness import RepetitionReport, _multirep_sweep, _value_groups


def brute_subsums(values) -> dict[Fraction, int]:
    """value -> number of subsets achieving it, by full enumeration."""
    acc: dict[Fraction, int] = {}
    vals = [Fraction(v) for v in values]
    for size in range(len(vals) + 1):
        for combo in itertools.combinations(range(len(vals)), size):
            total = sum((vals[i] for i in combo), Fraction(0))
            acc[total] = acc.get(total, 0) + 1
    return acc


@lru_cache(maxsize=None)
def fraction_block(spec) -> PointSet:
    """A multigeometric spec's block subsums, as a set of Fractions that
    takes each coefficient in or out in turn, kept per spec."""
    sums = {Fraction(0)}
    for c in spec.coefficients:
        sums |= {s + c for s in sums}
    return PointSet.from_values(sums)


def brute_subsum_levels(values) -> list[dict[Fraction, int]]:
    """brute_subsums of every prefix values[:k], k = 0..len(values)."""
    vals = list(values)
    return [brute_subsums(vals[:k]) for k in range(len(vals) + 1)]


def brute_merge(intervals) -> list[tuple[Fraction, Fraction]]:
    """Merge closed intervals by scanning endpoint events."""
    events = []
    for lo, hi in intervals:
        events.append((Fraction(lo), 0, Fraction(hi)))
    events.sort()
    merged: list[list[Fraction]] = []
    for lo, _, hi in events:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(a, b) for a, b in merged]


def brute_bricks(subsum_values, tail) -> list[tuple[Fraction, Fraction]]:
    """Iteration I_n as merged bricks [f, f + tail]."""
    return brute_merge((Fraction(f), Fraction(f) + Fraction(tail)) for f in subsum_values)


def is_tight(points: list[Fraction], eps: Fraction) -> bool:
    return all(b - a <= eps for a, b in zip(points, points[1:]))


def brute_maximal_tight_subsets(points, eps) -> list[tuple[Fraction, ...]]:
    """All maximal eps-tight subsets by O(2^n) enumeration (n <= ~14)."""
    pts = sorted(Fraction(p) for p in points)
    eps = Fraction(eps)
    tight = []
    for size in range(1, len(pts) + 1):
        for combo in itertools.combinations(pts, size):
            if is_tight(list(combo), eps):
                tight.append(combo)
    maximal = [
        c
        for c in tight
        if not any(set(c) < set(d) for d in tight)
    ]
    return sorted(set(maximal))


def brute_max_tight_diameter(points, eps) -> Fraction:
    blocks = brute_maximal_tight_subsets(points, eps)
    return max(b[-1] - b[0] for b in blocks)


def point_in_intervals(x, intervals) -> bool:
    x = Fraction(x)
    return any(Fraction(lo) <= x <= Fraction(hi) for lo, hi in intervals)


def point_in_set(x, s) -> bool:
    """Membership of x in an IntervalSet, by scanning its parts."""
    return point_in_intervals(x, [(p.lo, p.hi) for p in s.parts])


def brute_intersect(a, b) -> list[tuple[Fraction, Fraction]]:
    """Pairwise intersections of two IntervalSets' parts, event-merged."""
    pieces = []
    for p in a.parts:
        for r in b.parts:
            lo, hi = max(p.lo, r.lo), min(p.hi, r.hi)
            if lo <= hi:
                pieces.append((lo, hi))
    return brute_merge(pieces)


# --- Interval-set queries the tests need and the library does not ----------


def is_degenerate(p) -> bool:
    """The interval is a single point."""
    return p.lo == p.hi


def interior_measure(s) -> Fraction:
    """Measure of the topological interior of an IntervalSet.

    For a finite union of closed intervals this equals the measure of the
    nondegenerate parts, so it is the same exact sum with points dropped.
    """
    return sum((p.hi - p.lo for p in s.parts if not is_degenerate(p)), Fraction(0))


def is_subset_of(s, other) -> bool:
    """True iff every point of IntervalSet s lies in other (linear sweep).

    Parts of a canonical set are separated by open gaps, so a connected
    part of s fits in other iff it fits inside a single part of other.
    """
    j = 0
    b = other.parts
    for p in s.parts:
        while j < len(b) and b[j].hi < p.lo:
            j += 1
        if j == len(b) or not (b[j].lo <= p.lo and p.hi <= b[j].hi):
            return False
    return True


def interval_set_from_pairs(pairs) -> IntervalSet:
    """Canonical IntervalSet from ["p/q", "p/q"] pairs, as a report prints them."""
    return normalize(Interval(lo, hi) for lo, hi in pairs)


def longest_component(report) -> Interval:
    """The first longest part of an IterationReport's I_n."""
    parts = report.iteration.parts
    lengths = [p.hi - p.lo for p in parts]
    return parts[lengths.index(max(lengths))]


class FiniteStream(TermStream):
    """Finitely many explicit terms and nothing after them.

    Lets a SubsumLadder enumerate the subsums of a finite multiset, such as
    a family block or group; indices past the last term are out of range.
    The Kakeya pattern is built up front, so a ladder reads it without
    touching ``term`` or ``tail``: past the last term x_n = r_n = 0.
    """

    def __init__(self, values: Iterable[RationalLike]) -> None:
        self._values = tuple(rat(v) for v in values)
        prefix = tuple(compare_sign(x, self.tail(n)) for n, x in enumerate(self._values, 1))
        self._pattern = KakeyaPattern(prefix, (EQUAL,))

    def term(self, n: int) -> Fraction:
        if not 1 <= n <= len(self._values):
            raise ValueError(f"term index {n} outside 1..{len(self._values)}")
        return self._values[n - 1]

    def tail(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("tail indices start at 0")
        return sum(self._values[n:], Fraction(0))

    def kakeya_pattern(self) -> KakeyaPattern:
        return self._pattern


def lattice_stream(
    groups: Iterable[Iterable[RationalLike]], preperiod: int, period: int
) -> GroupedStream:
    """GroupedStream of explicit rational groups, on the lcm of their
    denominators, as a family hands its groups over."""
    groups = [tuple(rat(t) for t in group) for group in groups]
    d = lcm(*(t.denominator for group in groups for t in group))
    numerators = [tuple(t.numerator * (d // t.denominator) for t in group) for group in groups]
    return GroupedStream(numerators, d, preperiod, period)


def geometric_tail_stream(
    prefix: Iterable[RationalLike], start: RationalLike, ratio: RationalLike
) -> GroupedStream:
    """Explicit terms, then start, start * ratio, start * ratio^2, ...

    Built as the production stream class: one group per explicit term as
    the preperiod, then two one-term groups that fix the ratio, so every
    hand-built stream in the suite runs GroupedStream's validation, tails
    and Kakeya pattern.
    """
    start, ratio = rat(start), rat(ratio)
    groups = [(rat(t),) for t in prefix] + [(start,), (start * ratio,)]
    return lattice_stream(groups, len(groups) - 2, 1)


# --- Reference: the Fraction separated-block test ---------------------------


def fraction_separated_blocks(spec):
    """classify._separated_blocks as it compared Fraction gaps with r_0."""
    block = fraction_block(spec)
    gaps = [b - a for a, b in zip(block.values, block.values[1:])]
    if gaps and min(gaps) > spec.total:
        return {
            "block": [rat_str(v) for v in block.values],
            "min_gap": rat_str(min(gaps)),
            "r0": rat_str(spec.total),
        }
    return None


# --- Reference: the Fraction certificate search ----------------------------
#
# The interval-union search as it ran on IntervalSets of Fractions, with the
# IntervalSet methods it used turned into functions.  Its results are the
# reference for the integer-lattice search in cantorval.engine.


def set_nondegenerate(s):
    return IntervalSet(tuple(p for p in s.parts if not is_degenerate(p)))


def set_union(s, other):
    return normalize(s.parts + other.parts)


def set_intersect(s, other):
    """Pointwise intersection; degenerate touching points are kept."""
    out = []
    i = j = 0
    a, b = s.parts, other.parts
    while i < len(a) and j < len(b):
        lo = max(a[i].lo, b[j].lo)
        hi = min(a[i].hi, b[j].hi)
        if lo <= hi:
            out.append(Interval(lo, hi))
        if a[i].hi < b[j].hi:
            i += 1
        else:
            j += 1
    return IntervalSet(tuple(out))


def fraction_hutchinson(spec, s):
    """Self-similar operator: union over block subsums sigma of q*s + q*sigma."""
    ambient = IntervalSet((Interval(Fraction(0), spec.total),))
    if not is_subset_of(s, ambient):
        raise ValueError("operand must be contained in [0, r_0]")
    q = spec.ratio
    pieces = []
    for sigma in fraction_block(spec).values:
        shift = q * sigma
        pieces.extend(Interval(q * p.lo + shift, q * p.hi + shift) for p in s.parts)
    return normalize(pieces)


def _self_covered(spec, s) -> bool:
    return bool(s) and is_subset_of(s, fraction_hutchinson(spec, s))


def _prune_to_covered(spec, s):
    current = set_nondegenerate(s)
    while current:
        image = fraction_hutchinson(spec, current)
        kept = tuple(
            p for p in current.parts if is_subset_of(IntervalSet((p,)), image)
        )
        if len(kept) == len(current.parts):
            break
        current = IntervalSet(kept)
    return current


def _run_window_candidates(spec):
    sigmas = fraction_block(spec).values
    q = spec.ratio
    factor = q / (1 - q)
    candidates = []
    for a in range(len(sigmas)):
        max_gap = Fraction(0)
        for b in range(a + 1, len(sigmas)):
            max_gap = max(max_gap, sigmas[b] - sigmas[b - 1])
            if max_gap <= factor * (sigmas[b] - sigmas[a]):
                lo = factor * sigmas[a]
                hi = factor * sigmas[b]
                candidates.append(IntervalSet((Interval(lo, hi),)))
    return candidates


def fraction_certify_interior(spec, ladder, seed_depth=2, budget=16):
    """The certificate search on Fraction IntervalSets."""
    if seed_depth < 1 or budget < 0:
        raise ValueError("need seed_depth >= 1 and budget >= 0")
    s = set_nondegenerate(iterate(ladder, spec.m * seed_depth).iteration)
    diagnostics = []
    rounds = 0
    stabilized = False
    for _ in range(budget):
        image = fraction_hutchinson(spec, s)
        refined = set_nondegenerate(set_intersect(s, image))
        rounds += 1
        if refined == s:
            stabilized = True
            break
        s = refined
        if not s:
            diagnostics.append("refinement emptied the candidate")
            break
        if len(s) > DEFAULT_PART_LIMIT:
            diagnostics.append(
                f"refinement stopped at round {rounds}: {len(s)} parts exceed limit"
                f" {DEFAULT_PART_LIMIT}"
            )
            break

    verified_pieces = []
    if stabilized and _self_covered(spec, s):
        verified_pieces.append(s)
    else:
        for candidate in _run_window_candidates(spec):
            pruned = _prune_to_covered(spec, candidate)
            if _self_covered(spec, pruned):
                verified_pieces.append(pruned)

    if verified_pieces:
        union = verified_pieces[0]
        for piece in verified_pieces[1:]:
            union = set_union(union, piece)
        union = set_nondegenerate(union)
        if _self_covered(spec, union):  # final exact recheck
            return InteriorCertificate(
                spec=spec,
                s=union,
                verified=True,
                interior_measure=interior_measure(union),
                rounds=rounds,
                diagnostics=tuple(diagnostics),
            )
    return InteriorCertificate(
        spec=spec,
        s=EMPTY_SET,
        verified=False,
        interior_measure=Fraction(0),
        rounds=rounds,
        diagnostics=tuple(diagnostics),
    )


# --- Reference: every certificate search run ------------------------------


def every_seed_measure_bounds(ladder, depth, budget=12, spec=None):
    """measure_bounds searching every seed depth 1 .. min(4, depth // m).

    The library skips the searches that cannot verify; this is its seed loop
    from before, which ran them all and kept the first certificate of
    largest measure.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    upper = iterate(ladder, depth).measure
    lower = Fraction(0)
    best = None
    if spec is not None:
        max_seed = max(1, min(depth // spec.m, 4))
        for seed in range(1, max_seed + 1):
            try:
                cert = engine.certify_interior(spec, ladder, seed, budget)
            except CapacityError:
                continue
            if cert.verified and cert.interior_measure > lower:
                lower = cert.interior_measure
                best = cert
    return MeasureBounds(
        depth=depth,
        upper_lambda_e=upper,
        lower_interior=lower,
        boundary_gap=upper - lower,
        certificate=best,
    )


def always_searching_classify(subject, ladder, horizon=12, budget=16):
    """classify as it was when it ran its seed-2 search at every chance."""
    c = classify_module
    stream = ladder.stream
    spec = None if isinstance(subject, TermStream) else subject
    evidence = c.Evidence(subject, ladder, horizon, budget)

    for prover in (c._from_family, c._from_pattern, c._from_separated_blocks):
        found = prover(evidence)
        if found is not None:
            return found

    pattern = stream.kakeya_pattern()
    certificate = None
    if isinstance(spec, MultigeometricSpec):
        try:
            certificate = engine.certify_interior(spec, ladder, seed_depth=2, budget=budget)
        except CapacityError:
            certificate = None
        if (
            certificate is not None
            and certificate.verified
            and certificate.interior_measure > 0
            and pattern is not None
            and GREATER in pattern.cycle
        ):
            first_strict = next(
                n for n in range(1, len(pattern.prefix) + len(pattern.cycle) + 1)
                if pattern.comparison_at(n) == GREATER
            )
            parts = iterate(ladder, first_strict).iteration.parts
            gap_witness = IntervalSet(
                tuple(Interval(a.hi, b.lo) for a, b in zip(parts, parts[1:]))
            )
            return c.Classification(
                c.Verdict.CANTORVAL,
                c.Tier.CERTIFIED,
                horizon,
                {
                    "certificate": certificate.to_json(),
                    "kakeya_pattern": c._pattern_witness(pattern),
                    "gaps": gap_witness.to_pairs(),
                },
            )

    trend = tight_trend(ladder, horizon)
    report = iterate(ladder, horizon)
    split = kakeya_split(stream, horizon)
    witness = {
        "tight_trend": trend.to_json(),
        "gap_count": report.gap_count,
        "kakeya": split.to_json(),
    }
    if pattern is not None:
        witness["kakeya_pattern"] = c._pattern_witness(pattern)
    kakeya_infinite = (
        GREATER in pattern.cycle if pattern is not None else bool(split.kakeya)
    )
    if trend.interval_evidence and report.gap_count > 0 and kakeya_infinite:
        verdict = c.Verdict.CANTORVAL
    elif trend.interval_evidence and report.gap_count == 0:
        verdict = c.Verdict.MULTI_INTERVAL
    elif trend.final == 0:
        verdict = c.Verdict.CANTOR
    else:
        verdict = c.Verdict.UNKNOWN
    return c.Classification(verdict, c.Tier.HEURISTIC, horizon, witness)


def reference_report_sections(spec, depth, horizon, cap, budget) -> dict:
    """build_report's classification and measure_bounds, every search run."""
    ladder = SubsumLadder(classify_module.resolve_stream(spec), cap)
    classification = always_searching_classify(spec, ladder, horizon, budget)
    searchable = isinstance(spec, MultigeometricSpec) and not classification.interior_empty
    bounds = every_seed_measure_bounds(ladder, depth, budget, spec if searchable else None)
    return {
        "classification": classification.to_json(),
        "measure_bounds": bounds.to_json(),
    }


# --- Reference: the Fraction representation oracle -------------------------


def fraction_representation_uniqueness_oracle(spec, depth, cap) -> bool:
    """Partial sums of all coefficient tuples, pairwise more than the tail apart."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth == 0:
        return True
    total = 1
    ks = [spec.counts[i] for i in range(1, depth + 1)]
    for c in ks:
        total *= c + 1
        if total > cap:
            raise CapacityError("representation_uniqueness_oracle", total, cap)
    ys = [spec.y.value(i) for i in range(1, depth + 1)]
    sums = sorted(
        sum((n * y for n, y in zip(tup, ys)), Fraction(0))
        for tup in itertools.product(*(range(c + 1) for c in ks))
    )
    tail = spec.weighted_tail(depth)
    return all(b - a > tail for a, b in zip(sums, sums[1:]))


# --- Reference: the per-family tail sums -----------------------------------


class ReferenceBlockGeometric(BlockGeometric):
    """BlockGeometric with the closed-form tail it carried itself."""

    def tail(self, k: int) -> Fraction:
        """Exact sum of value(i) over i > k."""
        if k < 0:
            raise ValueError("tail indices start at 0")
        p = len(self.pre)
        if k < p:
            return sum(self.pre[k:], Fraction(0)) + self.tail(p)
        block_sum = sum(self.block, Fraction(0))
        c, j = divmod(k - p, len(self.block))
        rest = sum(self.block[j:], Fraction(0)) * self.ratio**c
        return rest + block_sum * self.ratio ** (c + 1) / (1 - self.ratio)


def weighted_block_geometric(coefficient, scale, preperiod, period, block_ratio):
    """BlockGeometric for w_i = coefficient(i) * scale(i).

    Valid whenever coefficient has period dividing ``period`` beyond
    ``preperiod`` and scale satisfies scale(i + period) = block_ratio *
    scale(i) there; then w inherits exactly the same block structure, and
    w.tail gives exact weighted tail sums.
    """
    pre = tuple(rat(coefficient(i)) * scale(i) for i in range(1, preperiod + 1))
    block = tuple(
        rat(coefficient(i)) * scale(i)
        for i in range(preperiod + 1, preperiod + period + 1)
    )
    return ReferenceBlockGeometric(pre, block, block_ratio)


def gf_weighted_tail(spec, coefficient, n):
    """Exact sum over i > n of coefficient(i) * q_i."""
    weighted = weighted_block_geometric(
        coefficient,
        spec.q.value,
        spec.group_preperiod,
        spec.group_period,
        spec.block_ratio,
    )
    return weighted.tail(n)


def reference_gf2_failure(spec):
    """First (n, lhs, rhs) with m_n q_n <= tail of (s_i + m_i) q_i, or None."""
    for n in range(1, spec.group_preperiod + spec.group_period + 1):
        lhs2 = spec.m[n] * spec.q[n]
        rhs2 = gf_weighted_tail(spec, lambda i: spec.s(i) + spec.m[i], n)
        if not lhs2 > rhs2:
            return (n, lhs2, rhs2)
    return None


def reference_weighted_tail(spec, k):
    """Exact sum over i > k of counts[i] * y_i (base-value indexing)."""
    weighted = weighted_block_geometric(
        spec.counts.value,
        spec.y.value,
        spec.group_preperiod,
        spec.group_period,
        spec.block_ratio,
    )
    return weighted.tail(k)


def reference_semifast_violation(spec):
    """First k with y_k <= tail of K_i y_i, or None."""
    for k in range(1, spec.group_preperiod + spec.group_period + 1):
        if not spec.y.value(k) > reference_weighted_tail(spec, k):
            return k
    return None


def _gf_ratio(spec, k):
    num = gf_weighted_tail(spec, lambda i: spec.s(i) - spec.m[i], k)
    den = gf_weighted_tail(spec, lambda i: spec.s(i) + spec.m[i], k)
    return num / den


def mm_scale(spec: MMSpec, k: int) -> Fraction:
    """q_k: q_1 = 1, thereafter divided by 3 * 2^(gaps[k]) at each step."""
    if k < 1:
        raise ValueError("block indices start at 1")
    q = Fraction(1)
    for s in range(2, k + 1):
        q /= 3 * 2 ** spec.gaps[s]
    return q


def mm_block_ratio(spec):
    """Scale factor of q over one full period of blocks, as MMSpec computed it."""
    ratio = Fraction(1)
    start = spec.group_preperiod + 1
    for s in range(start, start + spec.group_period):
        ratio /= 3 * 2 ** spec.gaps[s]
    return ratio


def _mm_ratio(spec, k):
    pre = spec.group_preperiod + 1
    period = spec.group_period
    num = weighted_block_geometric(
        lambda i: 3 * 2 ** spec.gaps[i] - 1,
        lambda i: mm_scale(spec, i),
        pre,
        period,
        mm_block_ratio(spec),
    )
    den = weighted_block_geometric(
        lambda i: 5 * 2 ** spec.gaps[i] - 1,
        lambda i: mm_scale(spec, i),
        pre,
        period,
        mm_block_ratio(spec),
    )
    return num.tail(k) / den.tail(k)


def _kyiv_ratio(spec, k):
    vals = reference_kyiv_values(spec, k)
    pre = spec.group_preperiod + 1
    period = spec.group_period
    probe = pre + 1
    block_ratio = (
        reference_kyiv_values(spec, probe + period).a / reference_kyiv_values(spec, probe).a
    )
    weighted = weighted_block_geometric(
        lambda i: spec.s[i] - spec.m[i] + 6 - Fraction(4, spec.m[i]),
        lambda i: reference_kyiv_values(spec, i).a,
        pre,
        period,
        block_ratio,
    )
    interval_length = weighted.tail(k)
    return spec.m[k] * interval_length / (2 * vals.a)


def reference_standardness(spec, k):
    """(ratio at k, limsup over one period), each family with its own tails."""
    if isinstance(spec, GFSpec):
        ratio_at = _gf_ratio
        pre, period = spec.group_preperiod, spec.group_period
    elif isinstance(spec, MMSpec):
        ratio_at = _mm_ratio
        pre, period = spec.group_preperiod + 1, spec.group_period
    elif isinstance(spec, KyivSpec):
        ratio_at = _kyiv_ratio
        pre, period = spec.group_preperiod + 1, spec.group_period
    else:
        raise ValueError("no reference standardness ratio for this spec")
    limit = max(ratio_at(spec, j) for j in range(pre + 1, pre + period + 1))
    return ratio_at(spec, k), limit


# --- Reference: the per-family group closed forms ----------------------------


def reference_kyiv_values(spec, k):
    """Exact a_k, r_{N_k}, G_k; cross-checks the one-step recurrence.

    The recurrence a_{k+1}/a_k = 2 m_{k+1} / (m_k d_{k+1}) must reproduce the
    closed form; a mismatch would be an implementation bug, so it is asserted.
    """
    if k < 1:
        raise ValueError("group indices start at 1")
    prod = 1
    for i in range(1, k + 1):
        prod *= spec.divisor(i)
    a = Fraction(2 ** (k - 1) * spec.m[k], prod)
    r = Fraction(2**k, prod)
    if k > 1:
        prev = reference_kyiv_values(spec, k - 1).a
        step = Fraction(2 * spec.m[k], spec.m[k - 1] * spec.divisor(k))
        assert a == prev * step, "closed form disagrees with the recurrence"
    assert r == 2 * a / spec.m[k], "boundary tail disagrees with 2 a_k / m_k"
    return KyivValues(k=k, a=a, boundary_tail=r, group_sum=(spec.s[k] + spec.m[k]) * a)


class ReferenceGroups:
    """group_terms(k) of each family stream, from that family's closed form.

    Each branch is the body of the family's own stream class before the
    streams were built from their first groups.  Groups are memoized in k
    order, so the multigeometric run scaling never nests deeply.
    """

    def __init__(self, spec):
        self.spec = spec
        self._groups = {}
        if isinstance(spec, MultigeometricSpec):
            self._head = fraction_sorted_head(spec)

    def _group(self, k):
        got = self._groups.get(k)
        if got is None:
            got = self._groups[k] = tuple(self.group_terms(k))
        return got

    def boundary(self, k):
        """Builds groups 1..k in order."""
        for j in range(1, k + 1):
            self._group(j)

    def groups(self, k):
        """Groups 1..k."""
        return [self._group(j) for j in range(1, k + 1)]

    def group_terms(self, k):
        spec = self.spec
        if isinstance(spec, MultigeometricSpec):
            if k <= len(self._head):
                return self._head[k - 1]
            self.boundary(k - 1)  # builds groups 1..k-1 in order, no deep recursion
            return tuple(t * self.spec.ratio for t in self._group(k - 1))
        if isinstance(spec, GFSpec):
            m, r, q = self.spec.m[k], self.spec.k[k], self.spec.q[k]
            return tuple((m + t) * q for t in range(r - 1, -1, -1))
        if isinstance(spec, MMSpec):
            q = mm_scale(self.spec, k)
            return tuple(b * q for b in mm_block_coefficients(self.spec.gaps[k]))
        if isinstance(spec, KyivSpec):
            a = reference_kyiv_values(self.spec, k).a
            m, s = self.spec.m[k], self.spec.s[k]
            return (a,) * (s + 1) + (Fraction(m - 1, m) * a,) * m
        return (self.spec.y.value(k),) * self.spec.counts[k]


# --- Reference: the Fraction stream ------------------------------------------


class FractionGroupedStream(TermStream):
    """A stream built from its first P + 2p groups, P the preperiod, p the period.

    ``groups[k - 1]`` holds the terms of group k, in order, for k = 1 ..
    P + 2p.  The block ratio is the first term of group P + p + 1 over the
    first term of group P + 1, and the second given period must equal that
    ratio times the first, term by term.  Group k > P + 2p is the ratio
    times group k - p.  Construction checks positivity, monotonicity and
    the period exactly, which proves them for every index.

    Terms and tails are kept in two flat lists, ``_terms`` by index n - 1
    and ``_tails`` by index n: ``boundary`` extends the terms one group at
    a time, and each tail is the one before it minus a term, from r_0.

    A stream is for one thread.  Its lists hold only values that are
    deterministic functions of the index, but ``_groups``, ``_boundaries``,
    ``_terms`` and ``_tails`` grow in place, so two threads reading at once
    could append the same group twice and shift every later term.
    """

    def __init__(
        self, groups: Sequence[Sequence[Fraction]], preperiod: int, period: int
    ) -> None:
        if period < 1:
            raise ValueError("period must be positive")
        if preperiod < 0 or len(groups) != preperiod + 2 * period:
            raise ValueError("need exactly the groups 1 .. preperiod + 2 * period")
        self._preperiod = preperiod
        self._period = period
        self._block_ratio: Optional[Fraction] = None
        self._groups: list[tuple[Fraction, ...]] = [tuple(g) for g in groups]
        self._boundaries: list[int] = [0]  # N_0, N_1, ... cumulative term counts
        self._terms: list[Fraction] = []  # x_1 .. x_{N_k}, group by group
        self._pattern: Optional[KakeyaPattern] = None
        self._validate()
        self._tails: list[Fraction] = [  # r_0, r_1, ...
            periodic_tail(self.group_sum, 0, preperiod, period, self._block_ratio)
        ]

    # -- derived structure ------------------------------------------------

    @property
    def preperiod(self) -> int:
        return self._preperiod

    @property
    def period(self) -> int:
        return self._period

    @property
    def block_ratio(self) -> Fraction:
        return self._block_ratio

    def group_terms(self, k: int) -> tuple[Fraction, ...]:
        """Terms of group k >= 1, in order, exact."""
        if k < 1:
            raise ValueError("group indices start at 1")
        groups = self._groups
        while len(groups) < k:
            groups.append(tuple(self._block_ratio * t for t in groups[-self._period]))
        return groups[k - 1]

    def boundary(self, k: int) -> int:
        """N_k, the index of the last term of group k (N_0 = 0)."""
        boundaries = self._boundaries
        while len(boundaries) <= k:
            terms = self.group_terms(len(boundaries))
            self._terms.extend(terms)
            boundaries.append(boundaries[-1] + len(terms))
        return boundaries[k]

    def group_sum(self, k: int) -> Fraction:
        return sum(self.group_terms(k), Fraction(0))

    def group_tail(self, k: int) -> Fraction:
        """r at the group boundary: sum of all terms in groups > k."""
        if k < 0:
            raise ValueError("group index must be nonnegative")
        return self.tail(self.boundary(k))

    # -- TermStream interface ---------------------------------------------

    def term(self, n: int) -> Fraction:
        if n < 1:
            raise ValueError("term indices start at 1")
        while len(self._terms) < n:
            self.boundary(len(self._boundaries))
        return self._terms[n - 1]

    def tail(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("tail indices start at 0")
        tails = self._tails
        while len(tails) <= n:
            tails.append(tails[-1] - self.term(len(tails)))
        return tails[n]

    def kakeya_pattern(self) -> KakeyaPattern:
        # Terms and tails both scale by the block ratio from one period of
        # groups to the next (beyond the preperiod), so the comparison signs
        # over a single period of groups repeat exactly.  Computed once and
        # kept; every other x_n vs r_n decision reads it.
        if self._pattern is not None:
            return self._pattern
        head = self.boundary(self._preperiod)
        cycle_end = self.boundary(self._preperiod + self._period)
        prefix = tuple(
            compare_sign(self.term(n), self.tail(n)) for n in range(1, head + 1)
        )
        cycle = tuple(
            compare_sign(self.term(n), self.tail(n)) for n in range(head + 1, cycle_end + 1)
        )
        self._pattern = KakeyaPattern(prefix, cycle)
        return self._pattern

    # -- construction-time validation ---------------------------------------

    def _validate(self) -> None:
        """Exact positivity, monotonicity, and periodic-scaling checks.

        Checking groups up to preperiod + 2*period + 1 proves the properties
        for every index because later groups are exact scaled copies.
        """
        pre, period = self._preperiod, self._period
        given = pre + 2 * period
        previous_last: Optional[Fraction] = None
        for k in range(1, given + 2):
            if k > given:
                # The given groups are positive, so the division is defined.
                self._block_ratio = self._groups[pre + period][0] / self._groups[pre][0]
                if not self._block_ratio < 1:
                    raise ValueError("block ratio must lie in (0, 1)")
            terms = self.group_terms(k)
            if not terms:
                raise ValueError(f"group {k} is empty")
            if any(t <= 0 for t in terms):
                raise StreamError(f"group {k} contains a nonpositive term")
            for a, b in zip(terms, terms[1:]):
                if b > a:
                    raise StreamError(f"group {k} is not nonincreasing")
            if previous_last is not None and terms[0] > previous_last:
                raise StreamError(f"terms increase across the boundary into group {k}")
            previous_last = terms[-1]
        for k in range(pre + 1, pre + period + 1):
            scaled = tuple(t * self._block_ratio for t in self.group_terms(k))
            if self.group_terms(k + period) != scaled:
                raise ValueError(
                    "the second given period is not the block ratio times the first"
                )


def fraction_sorted_head(spec: MultigeometricSpec) -> tuple[tuple[Fraction, ...], ...]:
    """Runs 1..P+1 of the sorted terms, P the least preperiod.

    For x <= k_m q the terms >= q x are the terms >= x scaled by q plus
    k_1 q, ..., k_m q, so a run lying wholly at or below k_m q is followed
    by q times itself.  The first N = sum_i #{e >= 0 : k_i q^e > k_m} terms
    exceed k_m q, which bounds P by ceil(N / m).
    """
    q, m, low = spec.ratio, spec.m, spec.coefficients[-1]
    above = 0
    for c in spec.coefficients:
        while c > low:
            above += 1
            c *= q
    # Merge the m geometric sequences k_i q^j, j >= 1, by running products.
    current = [c * q for c in spec.coefficients]
    terms = []
    for _ in range((-(-above // m) + 1) * m):
        i = max(range(m), key=current.__getitem__)
        terms.append(current[i])
        current[i] *= q
    runs = [tuple(terms[s : s + m]) for s in range(0, len(terms), m)]
    while len(runs) > 1 and runs[-1] == tuple(q * t for t in runs[-2]):
        runs.pop()
    return tuple(runs)


def fraction_sorted_terms(head, period, q, count) -> list[Fraction]:
    """The ``count`` largest of the terms h in ``head`` and c q^j, c in
    ``period``, j >= 1, in nonincreasing order: each step takes the larger
    of the largest head term left and the largest running product."""
    rest = sorted(head, reverse=True)
    current = [c * q for c in period]
    terms = []
    for _ in range(count):
        i = max(range(len(current)), key=current.__getitem__)
        if rest and rest[0] >= current[i]:
            terms.append(rest.pop(0))
        else:
            terms.append(current[i])
            current[i] *= q
    return terms


def reference_stream(spec) -> FractionGroupedStream:
    """The family stream of ``spec`` as FractionGroupedStream, from the
    family's group closed forms (ReferenceGroups) and its own preperiod and
    period; raises what that class raises for them."""
    if isinstance(spec, MultigeometricSpec):
        pre, period = len(fraction_sorted_head(spec)) - 1, 1
    elif isinstance(spec, (MMSpec, KyivSpec)):
        pre, period = spec.group_preperiod + 1, spec.group_period
    else:
        pre, period = spec.group_preperiod, spec.group_period
    return FractionGroupedStream(ReferenceGroups(spec).groups(pre + 2 * period), pre, period)


# --- Reference: repetition_report by enumerating every profile --------------


def enumerated_repetition_report(ladder: SubsumLadder, k: int) -> RepetitionReport:
    """Collisions (distinct value multisets, same sum) with witness ranks.

    Enumerates multiplicity profiles over the distinct term values of the
    ladder's stream; the profile count is guarded by the ladder's cap.  The
    reported count for each collision value is the number of distinct
    multisets achieving it, and its witness ranks are the positions in
    ``itertools.product`` over the groups of the first two profiles that
    reach it.
    """
    if k < 0:
        raise ValueError("depth must be nonnegative")
    terms = ladder.stream.terms(k)
    groups = _value_groups(terms)
    total = 1
    for _, indices in groups:
        total *= len(indices) + 1
        if total > ladder.cap:
            raise CapacityError("repetition_report", total, ladder.cap)
    # Profile sums on the lattice of D_k, the lcm of the term denominators.
    d = lcm(*(t.denominator for t in terms))
    weights = [v.numerator * (d // v.denominator) for v, _ in groups]
    seen: dict[int, list[int]] = {}
    tallies: dict[int, int] = {}
    profiles = itertools.product(*(range(len(ix) + 1) for _, ix in groups))
    for rank, profile in enumerate(profiles):
        value = sum(map(operator.mul, profile, weights))
        tallies[value] = tallies.get(value, 0) + 1
        bucket = seen.setdefault(value, [])
        if len(bucket) < 2:
            bucket.append(rank)
    collided = tuple(sorted(v for v, c in tallies.items() if c >= 2))
    outer_d, starts, ends = _multirep_sweep(ladder, k) if k >= 1 else (1, [], [])
    return RepetitionReport(
        k=k,
        denominator=d,
        collided=collided,
        counts=tuple(tallies[v] for v in collided),
        ranks=tuple(tuple(seen[v]) for v in collided),
        sizes=tuple(len(indices) for _, indices in groups),
        outer_denominator=outer_d,
        outer_starts=starts,
        outer_ends=ends,
    )


def value_groups(sizes: Sequence[int]) -> list[tuple[Fraction, list[int]]]:
    """Value groups of the given sizes over consecutive indices 1, 2, ...,
    in the shape ``uniqueness._value_groups`` returns."""
    groups, start = [], 1
    for i, size in enumerate(sizes, start=1):
        groups.append((Fraction(1, i), list(range(start, start + size))))
        start += size
    return groups


def rank_subset(
    sizes: Sequence[int], groups: list[tuple[Fraction, list[int]]], rank: int
) -> tuple[int, ...]:
    """Witness index subset of one profile rank, one group at a time.

    The rank is mixed-radix over the value groups, group 1 most significant
    and radix sizes[i] + 1; digit n picks the first n indices of its group.
    This is the per-rank decoding ``repetition_report`` used before it split
    the groups into two halves.
    """
    picks: list[int] = []
    for size, (_, indices) in zip(reversed(sizes), reversed(groups)):
        rank, n = divmod(rank, size + 1)
        picks.extend(indices[:n])
    return tuple(sorted(picks))


def repetition_dict(report: RepetitionReport) -> dict:
    """The plain-JSON repetition report, built as a dict, with each witness
    subset decoded one rank at a time by ``rank_subset``.

    This is ``RepetitionReport.to_json`` from before the report wrote its
    own text, which the text must parse back to.
    """
    values = lattice_strs(report.collided, report.denominator)
    d = report.outer_denominator
    outer = zip(lattice_strs(report.outer_starts, d), lattice_strs(report.outer_ends, d))
    groups = value_groups(report.sizes)

    def subset(rank: int) -> list[int]:
        return list(rank_subset(report.sizes, groups, rank))

    return {
        "k": report.k,
        "collisions": {"values": values, "counts": list(report.counts)},
        "witnesses": [
            {"value": v, "first": subset(a), "second": subset(b)}
            for v, (a, b) in zip(values, report.ranks)
        ],
        "outer": list(map(list, outer)),
    }


def iteration_row_text(report, newline: str) -> str:
    """An iteration row's indent-2 text with every endpoint formatted anew,
    and its ``parts`` and ``gaps`` written by ``json.dumps``.

    This is ``IterationReport.json_text`` from before endpoint strings were
    handed from one row to the next.
    """
    b = report.bricks
    starts = lattice_strs(b.starts, b.denominator)
    ends = lattice_strs(b.ends, b.denominator)
    lengths = b.lengths()
    longest = lengths.index(max(lengths))
    i1 = newline + "  "
    i2 = i1 + "  "
    return (
        f'{{{i1}"n": {report.n},{i1}"measure": "{rat_str(report.measure)}",'
        f'{i1}"tail": "{rat_str(report.tail)}",{i1}"brick_count": {report.brick_count},'
        f'{i1}"gap_count": {report.gap_count},{i1}"parts": {pairs_json(starts, ends, i1)},'
        f'{i1}"gaps": {pairs_json(ends, starts[1:], i1)},{i1}"longest_component": '
        f'[{i2}"{starts[longest]}",{i2}"{ends[longest]}"{i1}]{newline}}}'
    )


def pairs_json(los, his, newline: str) -> str:
    """The list of pairs [los[i], his[i]] as ``json.dumps(..., indent=2)``
    writes it at the nesting whose line break and indent are ``newline``."""
    return json.dumps([list(p) for p in zip(los, his)], indent=2).replace("\n", newline)
