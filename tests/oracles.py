"""Independent brute-force oracles for the test suite.

These deliberately avoid the library's own algorithms: subset enumeration
instead of incremental convolution, endpoint-event merging instead of the
sweep in normalize, exhaustive subset search for tight decompositions.
Expected values frozen in the tests were computed with these.

The reference section at the end keeps the library's earlier Fraction
implementations of the certificate search and the representation oracle,
which the integer-lattice versions must match result for result, its
earlier per-family tail sums, which ``periodic_tail`` replaced, its
earlier per-family group closed forms, which every family stream must
reproduce now that it derives each later group from its first ones, and
its earlier enumeration of every multiplicity profile in
``repetition_report``, which the one-pass tally must match report for
report.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from math import lcm

from cantorval.engine import DEFAULT_PART_LIMIT, InteriorCertificate, iterate
from cantorval.exact import EMPTY_SET, Interval, IntervalSet, PointSet, normalize, rat
from cantorval.families.ferens import GFSpec
from cantorval.families.kyiv import KyivSpec, KyivValues
from cantorval.families.marchwicki import MMSpec, mm_block_coefficients
from cantorval.families.multigeometric import MultigeometricSpec, _sorted_head, mg_block
from cantorval.families.periodic import BlockGeometric
from cantorval.series import CapacityError, SubsumLadder
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


def brute_measure(intervals) -> Fraction:
    return sum((b - a for a, b in brute_merge(intervals)), Fraction(0))


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
    return sum((p.length for p in s.parts if not is_degenerate(p)), Fraction(0))


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
    lengths = [p.length for p in parts]
    return parts[lengths.index(max(lengths))]


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


def set_difference(s, other):
    """Closures of the components of s minus other (merged sweep)."""
    out = []
    b = other.parts
    j = 0
    for p in s.parts:
        while j < len(b) and b[j].hi < p.lo:
            j += 1
        cursor = p.lo
        covered_end = False
        i = j
        while i < len(b) and b[i].lo <= p.hi:
            if b[i].lo > cursor:
                out.append(Interval(cursor, b[i].lo))
            if b[i].hi >= cursor:
                cursor = b[i].hi
            if cursor >= p.hi:
                covered_end = True
                break
            i += 1
        if not covered_end and cursor <= p.hi:
            out.append(Interval(cursor, p.hi))
    return normalize(out)


def fraction_hutchinson(spec, s):
    """Self-similar operator: union over block subsums sigma of q*s + q*sigma."""
    ambient = IntervalSet((Interval(Fraction(0), spec.total),))
    if not is_subset_of(s, ambient):
        raise ValueError("operand must be contained in [0, r_0]")
    q = spec.ratio
    pieces = []
    for sigma in mg_block(spec).values:
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
    sigmas = mg_block(spec).values
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


def fraction_certify_interior(
    spec, ladder, seed_depth=2, budget=16, *, part_limit=DEFAULT_PART_LIMIT
):
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
        if len(s) > part_limit:
            diagnostics.append(
                f"refinement stopped at round {rounds}: {len(s)} parts exceed limit {part_limit}"
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
        diagnostics.append("union of verified pieces failed the exact recheck")

    if s and not stabilized:
        head = IntervalSet(s.parts[:32])
        reach = head.parts[-1].hi / spec.ratio
        near = IntervalSet(tuple(p for p in s.parts if p.lo <= reach))
        uncovered = set_difference(head, fraction_hutchinson(spec, near))
        preview = ", ".join(str(p) for p in uncovered.parts[:4])
        diagnostics.append(f"uncovered remainder after {rounds} rounds: {preview}")
    return InteriorCertificate(
        spec=spec,
        s=EMPTY_SET,
        verified=False,
        interior_measure=Fraction(0),
        rounds=rounds,
        diagnostics=tuple(diagnostics),
    )


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
            self._head = _sorted_head(spec)

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


# --- Reference: repetition_report by enumerating every profile --------------


def enumerated_repetition_report(ladder: SubsumLadder, k: int) -> RepetitionReport:
    """Collisions (distinct value multisets, same sum) with witness subsets.

    Enumerates multiplicity profiles over the distinct term values of the
    ladder's stream; the profile count is guarded by the ladder's cap.  The
    reported count for each collision value is the number of distinct
    multisets achieving it.
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
    seen: dict[int, list[tuple[int, ...]]] = {}
    tallies: dict[int, int] = {}
    for profile in itertools.product(*(range(len(ix) + 1) for _, ix in groups)):
        value = sum(map(operator.mul, profile, weights))
        tallies[value] = tallies.get(value, 0) + 1
        bucket = seen.setdefault(value, [])
        if len(bucket) < 2:
            bucket.append(profile)
    lattice = sorted(v for v, c in tallies.items() if c >= 2)
    collided = [Fraction(v, d) for v in lattice]

    def subset(profile: tuple[int, ...]) -> tuple[int, ...]:
        picks: list[int] = []
        for n, (_, indices) in zip(profile, groups):
            picks.extend(indices[:n])
        return tuple(sorted(picks))

    witnesses = tuple(
        (f, subset(seen[v][0]), subset(seen[v][1])) for f, v in zip(collided, lattice)
    )
    collision_set = (
        PointSet(tuple(collided), tuple(tallies[v] for v in lattice))
        if collided
        else PointSet((), ())
    )
    outer_d, starts, ends = _multirep_sweep(ladder, k) if k >= 1 else (1, [], [])
    return RepetitionReport(
        k=k,
        collisions=collision_set,
        witnesses=witnesses,
        outer_denominator=outer_d,
        outer_starts=starts,
        outer_ends=ends,
    )
