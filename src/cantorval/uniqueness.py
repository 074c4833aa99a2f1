"""Finite-depth analysis of subsums with multiple representations.

A subsum value achieved by two distinct finite index sets is certified
non-unique (both extend by the empty tail).  The converse direction is not
finitely decidable, so the module reports certified collisions, an outer
brick approximation of the depth-k multiple-representation set, and the
semi-fast criterion that forces global uniqueness for repeated-term series.

Collisions are tallied over multiplicity profiles (how many terms of each
distinct value a subsum takes) in one pass over the value groups, which
keeps per sum only its profile count and the ranks of its first two
profiles; witnesses are decoded from those ranks for collided sums alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .exact import IntervalSet, PointSet, lattice_str, rat_str
from .families.grouped import GroupedStream
from .families.periodic import BlockGeometric, PeriodicSeq, is_int, periodic_tail
from .series import DEFAULT_CAP, CapacityError, SubsumLadder, TermStream


@dataclass(frozen=True)
class RepeatedTermSpec:
    """Strictly decreasing base values y_i, each repeated counts[i] times.

    y is block-geometric (exact tails) and the counts are eventually
    periodic, so the expanded stream has exact group structure.
    """

    y: BlockGeometric
    counts: PeriodicSeq

    def __post_init__(self) -> None:
        if not self.y.is_strictly_decreasing():
            raise ValueError("base values must be strictly decreasing")
        probe = self.counts.preperiod_length + self.counts.period_length
        for i in range(1, probe + 1):
            c = self.counts[i]
            if not is_int(c) or c < 1:
                raise ValueError(f"repetition count K_{i} must be a positive integer")

    @property
    def group_preperiod(self) -> int:
        blocks_needed = -(-self.y.preperiod_length // self.y.block_length)
        return max(self.counts.preperiod_length, self.y.preperiod_length, blocks_needed)

    @property
    def group_period(self) -> int:
        return lcm(self.counts.period_length, self.y.block_length)

    @property
    def block_ratio(self) -> Fraction:
        return self.y.ratio ** (self.group_period // self.y.block_length)

    def weighted_tail(self, k: int) -> Fraction:
        """Exact sum over i > k of counts[i] * y_i (base-value indexing)."""
        return periodic_tail(
            lambda i: self.counts[i] * self.y.value(i),
            k,
            self.group_preperiod,
            self.group_period,
            self.block_ratio,
        )

    def to_json(self) -> dict:
        return {
            "type": "repeated",
            "y": self.y.to_json(),
            "counts": self.counts.to_json(),
        }

    @staticmethod
    def from_json(doc: dict) -> "RepeatedTermSpec":
        return RepeatedTermSpec(
            BlockGeometric.from_json(doc["y"]), PeriodicSeq.from_json(doc["counts"])
        )


def repeated_stream(spec: RepeatedTermSpec) -> GroupedStream:
    """Expanded stream: group i is counts[i] copies of y_i."""
    pre, period = spec.group_preperiod, spec.group_period
    groups = [
        (spec.y.value(i),) * spec.counts[i] for i in range(1, pre + 2 * period + 1)
    ]
    return GroupedStream(groups, pre, period)


@dataclass(frozen=True)
class RepetitionReport:
    """Certified multiple-representation values at depth k, with witnesses.

    Collisions are counted per distinct multiset of term values: permuting
    equal terms never yields a genuinely different decomposition, so only
    representations that differ as value multisets are reported.  Each
    collision value carries two witness index subsets realizing distinct
    multisets; such a pair also produces distinct prefix values f != g whose
    bricks both contain the value, which is what the outer approximation
    captures.

    The outer approximation stays on the integer lattice of its sweep, the
    parts [outer_starts[i], outer_ends[i]] / outer_denominator; ``outer``
    builds them as an IntervalSet when read.
    """

    k: int
    collisions: PointSet
    witnesses: tuple[tuple[Fraction, tuple[int, ...], tuple[int, ...]], ...]
    outer_denominator: int
    outer_starts: list[int]
    outer_ends: list[int]

    @property
    def outer(self) -> IntervalSet:
        return IntervalSet.from_lattice(
            self.outer_starts, self.outer_ends, self.outer_denominator
        )

    def to_json(self) -> dict:
        d = self.outer_denominator
        return {
            "k": self.k,
            "collisions": self.collisions.to_json(),
            "witnesses": [
                {"value": rat_str(v), "first": list(a), "second": list(b)}
                for v, a, b in self.witnesses
            ],
            "outer": [
                [lattice_str(lo, d), lattice_str(hi, d)]
                for lo, hi in zip(self.outer_starts, self.outer_ends)
            ],
        }


def _value_groups(terms: tuple[Fraction, ...]) -> list[tuple[Fraction, list[int]]]:
    """Distinct term values with their 1-based indices (terms nonincreasing,
    so equal values are consecutive)."""
    groups: list[tuple[Fraction, list[int]]] = []
    for i, t in enumerate(terms, start=1):
        if groups and groups[-1][0] == t:
            groups[-1][1].append(i)
        else:
            groups.append((t, [i]))
    return groups


def _profile_pass(
    weights: list[int], sizes: list[int]
) -> tuple[dict[int, int], dict[int, int], dict[int, int]]:
    """Every multiplicity-profile sum, in one pass from the last group to the first.

    A profile takes 0..sizes[i] terms of weight weights[i] from group i.
    Its rank is the mixed-radix number whose digits are those counts, group
    1 most significant and radix sizes[i] + 1, so rank order is the order of
    ``itertools.product`` over the groups.  Returns, for each reachable sum,
    the number of profiles reaching it, the rank of the first, and the rank
    of the second when there is one.  Prepending a group puts its digit in
    front: digit n adds n * weight to the sum and n * radix to the rank, and
    every rank with digit n precedes every rank with digit n + 1, so taking
    the digits in increasing order keeps the first two ranks of each sum.
    """
    tally, first, second = {0: 1}, {0: 0}, {}
    radix = 1
    for weight, size in zip(reversed(weights), reversed(sizes)):
        new_tally, new_first, new_second = dict(tally), dict(first), dict(second)
        for n in range(1, size + 1):
            shift, offset = n * weight, n * radix
            for v, count in tally.items():
                u = v + shift
                seen = new_tally.get(u)
                if seen is None:
                    new_tally[u] = count
                    new_first[u] = first[v] + offset
                    if v in second:
                        new_second[u] = second[v] + offset
                else:
                    new_tally[u] = seen + count
                    if u not in new_second:
                        new_second[u] = first[v] + offset
        tally, first, second = new_tally, new_first, new_second
        radix *= size + 1
    return tally, first, second


def repetition_report(ladder: SubsumLadder, k: int) -> RepetitionReport:
    """Collisions (distinct value multisets, same sum) with witness subsets.

    Tallies the sums of the multiplicity profiles over the distinct term
    values of the ladder's stream in one pass over the value groups (see
    ``_profile_pass``), and decodes witness profiles only for collided
    values: the first two profiles reaching the value, in the order of
    ``itertools.product`` over the groups.  The profile count is guarded by
    the ladder's cap.  The reported count for each collision value is the
    number of distinct multisets achieving it; when the first k terms are
    distinct, the tallies are the subset counts of the ladder's F_k.
    """
    if k < 0:
        raise ValueError("depth must be nonnegative")
    terms = ladder.stream.terms(k)
    groups = _value_groups(terms)
    sizes = [len(indices) for _, indices in groups]
    total = 1
    for size in sizes:
        total *= size + 1
        if total > ladder.cap:
            raise CapacityError("repetition_report", total, ladder.cap)
    # Profile sums on the lattice of D_k, the lcm of the term denominators.
    d = lcm(*(t.denominator for t in terms))
    weights = [v.numerator * (d // v.denominator) for v, _ in groups]
    tallies, first, second = _profile_pass(weights, sizes)
    lattice = sorted(v for v, c in tallies.items() if c >= 2)
    collided = [Fraction(v, d) for v in lattice]

    def subset(rank: int) -> tuple[int, ...]:
        picks: list[int] = []
        for size, (_, indices) in zip(reversed(sizes), reversed(groups)):
            rank, n = divmod(rank, size + 1)
            picks.extend(indices[:n])
        return tuple(sorted(picks))

    witnesses = tuple(
        (f, subset(first[v]), subset(second[v])) for f, v in zip(collided, lattice)
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


def multirep_outer(ladder: SubsumLadder, k: int) -> IntervalSet:
    """Outer approximation of the depth-k multiple-representation set.

    Union over distinct subsum values f < g of [f, f+r_k] intersect
    [g, g+r_k]; replacing the tail achievement set by [0, r_k] makes this a
    superset of the true set.  Only consecutive overlapping values
    contribute: for g beyond the successor the intersection is contained in
    the successor's.
    """
    if k < 1:
        raise ValueError("depth must be at least 1")
    d, starts, ends = _multirep_sweep(ladder, k)
    return IntervalSet.from_lattice(starts, ends, d)


def _multirep_sweep(ladder: SubsumLadder, k: int) -> tuple[int, list[int], list[int]]:
    """``multirep_outer(ladder, k)`` as (d, starts, ends): parts [start, end] / d."""
    d, values, reach = ladder.on_tail_lattice(k)
    # Pieces [b, a + r_k] rise in both endpoints, so one sweep merges them.
    starts: list[int] = []
    ends: list[int] = []
    for a, b in zip(values, values[1:]):
        if b - a <= reach:
            if ends and b <= ends[-1]:
                ends[-1] = a + reach
            else:
                starts.append(b)
                ends.append(a + reach)
    return d, starts, ends


@dataclass(frozen=True)
class SemifastResult:
    """Exact verdict of the semi-fast inequality y_k > sum_{i>k} K_i y_i."""

    semifast: bool
    first_violation: Optional[int]
    checked_through: int

    def to_json(self) -> dict:
        return {
            "semifast": self.semifast,
            "first_violation": self.first_violation,
            "checked_through": self.checked_through,
        }


def semifast_check(spec: RepeatedTermSpec) -> SemifastResult:
    """Decide the semi-fast inequality for every k.

    Both sides scale by the same factor across a period of base indices, so
    checking through preperiod + period decides all k.  When the
    inequality holds, every achieved point has exactly one representation
    over the repetition alphabet, forcing a Cantor-type achievement set.
    """
    limit = spec.group_preperiod + spec.group_period
    violation = None
    for k in range(1, limit + 1):
        if not spec.y.value(k) > spec.weighted_tail(k):
            violation = k
            break
    return SemifastResult(
        semifast=violation is None,
        first_violation=violation,
        checked_through=limit,
    )


def representation_uniqueness_oracle(
    spec: RepeatedTermSpec, depth: int, cap: int = DEFAULT_CAP
) -> bool:
    """Finite-depth injectivity certificate for the representation map.

    Enumerates all coefficient tuples (n_1..n_depth) with 0 <= n_i <= K_i
    and checks that the partial sums are pairwise separated by more than the
    remaining tail; then no two full representations can collide at this
    resolution.  Depth 0 is vacuously unique.
    """
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
    # Partial sums and tail on the lattice of d, the lcm of their denominators.
    ys = [spec.y.value(i) for i in range(1, depth + 1)]
    tail = spec.weighted_tail(depth)
    d = lcm(tail.denominator, *(y.denominator for y in ys))
    sums = [0]
    for c, y in zip(ks, ys):
        step = y.numerator * (d // y.denominator)
        sums = [v + n * step for v in sums for n in range(c + 1)]
    sums.sort()
    reach = tail.numerator * (d // tail.denominator)
    return all(b - a > reach for a, b in zip(sums, sums[1:]))


def tail_sum_unique(stream: TermStream, k: int) -> bool:
    """True iff r_k < x_k exactly, which certifies that the tail sum r_k
    has only one representing subset (the full tail)."""
    if k < 1:
        raise ValueError("indices start at 1")
    return stream.tail(k) < stream.term(k)
