"""Finite-depth analysis of subsums with multiple representations.

A subsum value achieved by two distinct finite index sets is certified
non-unique (both extend by the empty tail).  The converse direction is not
finitely decidable, so the module reports certified collisions, an outer
brick approximation of the depth-k multiple-representation set, and a
finite-depth injectivity certificate for repeated-term series.  The
semi-fast criterion, which forces global uniqueness for those series, lives
with their spec in ``families.repeated``.

Collisions are tallied over multiplicity profiles (how many terms of each
distinct value a subsum takes) in one pass over the value groups, which
keeps per sum only its profile count and the ranks of its first two
profiles.  The pass is skipped when F_k has as many values as there are
profiles: F_k is the set of profile sums, so then no two profiles share a
sum.  The collided sums stay integers on the lattice of D_k, the lcm of
the term denominators, and Fractions are built only when a caller reads
them.  A witness stays its two profile ranks until written: a rank splits
into a lead and a trailing half of the value groups.  The report's one
form is the indent-2 JSON text it writes from those integers, as chunks
that the CLI adds to a report as they stand (``RepetitionReport.chunks``):
each list body is one join and a chunk of its own.  That text formats each
half once per half rank, memoized, and writes a witness subset as its two
half texts joined.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property, partial
from math import lcm, prod
from typing import TYPE_CHECKING, Iterator

from .exact import IntervalSet, PointSet, lattice_strs, pairs_chunks
from .frozen import frozen
from .series import DEFAULT_CAP, GREATER, CapacityError, SubsumLadder, TermStream

if TYPE_CHECKING:
    from .families.repeated import RepeatedTermSpec


@frozen
class RepetitionReport:
    """Certified multiple-representation values at depth k, with witnesses.

    Collisions are counted per distinct multiset of term values: permuting
    equal terms never yields a genuinely different decomposition, so only
    representations that differ as value multisets are reported.  Each
    collision value carries two witness index subsets realizing distinct
    multisets; such a pair also produces distinct prefix values f != g whose
    bricks both contain the value, which is what the outer approximation
    captures.

    The collided values stay on the lattice of D_k: value i is
    collided[i] / denominator, reached by counts[i] multisets, whose first
    two profiles in ``itertools.product`` order have the ranks ranks[i].
    The value groups hold sizes[0], sizes[1], ... consecutive term indices
    from 1, which is all a rank needs to be decoded; ``chunks`` decodes
    the witness index pairs as it writes them, and ``collisions`` builds a
    PointSet on first read.  The outer approximation stays on the integer
    lattice of its sweep, the parts [outer_starts[i], outer_ends[i]] /
    outer_denominator.
    """

    k: int
    denominator: int
    collided: tuple[int, ...]
    counts: tuple[int, ...]
    ranks: tuple[tuple[int, int], ...]
    sizes: tuple[int, ...]
    outer_denominator: int
    outer_starts: list[int]
    outer_ends: list[int]

    @cached_property
    def collisions(self) -> PointSet:
        d = self.denominator
        return PointSet(tuple(Fraction(v, d) for v in self.collided), self.counts)

    def value_strs(self) -> list[str]:
        """The collided values as canonical "p/q" strings, in order."""
        return lattice_strs(self.collided, self.denominator)

    def chunks(self, newline: str) -> Iterator[str]:
        """The chunks of the report's indent-2 JSON text at the nesting
        whose line break and indent are ``newline``; joined, they are that
        text.

        The value strings are built once for ``collisions`` and the
        witnesses.  ``values``, ``counts`` and ``witnesses`` are one join
        each, whose body is a chunk of its own (the separators of
        ``values`` carry its quote marks), and ``outer`` is
        ``pairs_chunks``, whose ends reuse the starts' strings when every
        part is a single point.  Each witness is one format whose subsets
        are their lead and trailing half texts joined, and each half text is
        formatted once per call, from the decoder's picks, and then looked
        up; a report with no collisions builds neither the decoder nor a
        half text.  Values hold only digits, "-" and "/", so nothing is
        escaped.  A collided sum is positive, so neither of its witness
        subsets is empty, though either half of one may be.
        """
        values = self.value_strs()
        d = self.outer_denominator
        i1 = newline + "  "
        i2, i3, i4 = i1 + "  ", i1 + "    ", i1 + "      "

        def listed(items, inner: str, close: str, quote: str = "") -> tuple[str, ...]:
            body = (quote + "," + inner + quote).join(items)
            return (f"[{inner}{quote}", body, f"{quote}{close}]") if body else ("[]",)

        witnesses = self._witness_texts(values, i2, i3, i4) if self.ranks else ()
        los = lattice_strs(self.outer_starts, d)
        his = los if self.outer_ends == self.outer_starts else lattice_strs(self.outer_ends, d)
        yield f'{{{i1}"k": {self.k},{i1}"collisions": {{{i2}"values": '
        yield from listed(values, i3, i2, '"')
        yield f',{i2}"counts": '
        yield from listed(map(str, self.counts), i3, i2)
        yield f'{i1}}},{i1}"witnesses": '
        yield from listed(witnesses, i2, i1)
        yield f',{i1}"outer": '
        yield from pairs_chunks(los, his, i1)
        yield newline + "}"

    def _witness_texts(self, values: list[str], i2: str, i3: str, i4: str):
        """The witness objects' texts, for ``chunks``, in order."""
        decoder = _RankDecoder(self.sizes)
        radix = decoder.radix
        at4 = "," + i4
        lead = cache(lambda high: _half_text(decoder.lead(high), at4))
        trail = cache(lambda low: _half_text(decoder.trail(low), at4))

        def items(rank: int) -> str:
            high, low = divmod(rank, radix)
            a, b = lead(high), trail(low)
            return a + at4 + b if a and b else a or b

        return (
            f'{{{i3}"value": "{v}",{i3}"first": [{i4}{items(a)}{i3}],'
            f'{i3}"second": [{i4}{items(b)}{i3}]{i2}}}'
            for v, (a, b) in zip(values, self.ranks)
        )


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


class _RankDecoder:
    """Profile rank -> witness index subset, from two halves.

    Value group i holds sizes[i] consecutive term indices, from 1 on, and
    a rank is mixed-radix over the groups as in ``_profile_pass``: group 1
    most significant, radix size + 1, digit n picking the group's first n
    indices.  The groups split where the radix of the trailing ones first
    reaches the square root of the profile count, so a rank is
    high * radix + low with high a rank over the lead groups and low one
    over the trailing groups.  ``lead`` and ``trail`` decode each half,
    which has about that square root of ranks; lead groups hold the smaller
    indices, so a subset is the two halves concatenated.
    """

    def __init__(self, sizes: tuple[int, ...]) -> None:
        groups: list[range] = []
        start = 1
        for size in sizes:
            groups.append(range(start, start + size))
            start += size
        total = prod(size + 1 for size in sizes)
        split, radix = len(sizes), 1
        while split and radix * radix < total:
            split -= 1
            radix *= sizes[split] + 1
        self.radix = radix
        self.lead = partial(_picks, groups[:split])
        self.trail = partial(_picks, groups[split:])


def _picks(groups: list[range], rank: int) -> tuple[int, ...]:
    """The sorted picks of ``rank`` over ``groups`` alone, in the mixed radix
    of ``_profile_pass`` (first group most significant, radix size + 1)."""
    out: list[int] = []
    for indices in reversed(groups):
        rank, n = divmod(rank, len(indices) + 1)
        out.extend(indices[:n])
    return tuple(sorted(out))


def _half_text(picks: tuple[int, ...], separator: str) -> str:
    """One half of a witness subset as the items of a JSON list."""
    return separator.join(map(str, picks))


def repetition_report(ladder: SubsumLadder, k: int) -> RepetitionReport:
    """Collisions (distinct value multisets, same sum) with witness subsets.

    Tallies the sums of the multiplicity profiles over the distinct term
    values of the ladder's stream in one pass over the value groups (see
    ``_profile_pass``), and keeps witnesses only for collided values: the
    ranks of the first two profiles reaching the value, in the order of
    ``itertools.product`` over the groups, which the report decodes from two
    halves when written (see ``_RankDecoder``).  The pass is skipped
    when |F_k| is the profile count, since then no two profiles share a
    sum.  The profile count is guarded by the ladder's cap before anything
    is allocated.  The sums stay integers over D_k, the lcm of the term
    denominators, which the report keeps as its ``denominator``.  The reported count for each collision value is the
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
    # F_k is the set of profile sums, and |F_k| <= total <= cap here; its
    # lattice is D_k, the lcm of the term denominators.
    level = ladder.level(k)
    d = level.denominator
    if len(level) == total:
        collided, counts, ranks = (), (), ()
    else:
        weights = [v.numerator * (d // v.denominator) for v, _ in groups]
        tallies, first, second = _profile_pass(weights, sizes)
        collided = tuple(sorted(v for v, c in tallies.items() if c >= 2))
        counts = tuple(tallies[v] for v in collided)
        ranks = tuple((first[v], second[v]) for v in collided)
    outer_d, starts, ends = _multirep_sweep(ladder, k) if k >= 1 else (1, [], [])
    return RepetitionReport(
        k=k,
        denominator=d,
        collided=collided,
        counts=counts,
        ranks=ranks,
        sizes=tuple(sizes),
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
    """``multirep_outer(ladder, k)`` as (d, starts, ends): parts [start, end] / d.

    A separated level has no gap of at most r_k, so its set is empty, on
    the lattice that swept I_k, which is the tail lattice of level k."""
    if ladder.separated(k):
        return ladder.bricks(k).denominator, [], []
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
    """True iff r_k < x_k, which certifies that the tail sum r_k has only
    one representing subset (the full tail).  The exact comparison is read
    from the stream's Kakeya pattern: k is a Kakeya index."""
    if k < 1:
        raise ValueError("indices start at 1")
    return stream.kakeya_pattern().comparison_at(k) == GREATER
