"""Term streams for convergent positive nonincreasing series.

A stream exposes exact terms x_n and exact tail sums r_n = sum of x_i for
i > n.  A SubsumLadder builds the finite subsum sets F_n of one stream
once, for every analysis layer to read.  A level holds values only, not
the number of subsets achieving each one: the uniqueness report tallies its
own multiplicity profiles, and finite_subsums counts subsets by a separate
fold of group_convolve.  subsum_level builds the subsum set of a finite
multiset, such as a family block, the same way but keeps only the last
level.

The ladder stores F_n on an integer lattice: D_n, the lcm of the
denominators of x_1..x_n, and the sorted integers f * D_n.  Each step
merges those integers with the same integers shifted by x_n * D_n, after
rescaling when x_n's denominator does not divide D_{n-1}: one sort of the
two increasing runs, which timsort merges in C, then, only when two
neighbours are equal, one compress pass that keeps each value once.  The brick
union I_n (the union of [f, f + r_n] over F_n) is one sweep over the same
integers; Fractions are built only where a caller reads them.

Only level 0 and Kakeya levels (x_n > r_n) are swept; the stream's Kakeya
pattern, the one source of that comparison, names them.  If x_n <= r_n, the
bricks [f, f + r_n] and [f + x_n, f + r_{n-1}] overlap and join to
[f, f + r_{n-1}], so I_n = I_{n-1}, and level n keeps the same Bricks, on
the lattice of the level that swept it.  The ladder builds each level
together with its I_n, and holds numbers only; the report writer formats
them.

Level n is *separated* when every gap of F_n exceeds r_n.  Three facts follow.

(A) A separated I_n has starts F_n and ends F_n + r_n: each brick is a part
of its own, of length r_n, since a gap wider than r_n cuts between every two
neighbours.  Conversely a gap g <= r_n joins two bricks into one part, so
level n is separated exactly when I_n has |F_n| parts.

(B) If level n - 1 is separated and x_n > r_n, then F_n is F_{n-1}
interleaved with F_{n-1} + x_n, and level n is separated.  For f < f' in
F_{n-1}, f' - f > r_{n-1} = x_n + r_n, so f < f + x_n < f' and the two runs
alternate with no value in both.  The gaps of F_n are x_n > r_n and
f' - (f + x_n) > r_{n-1} - x_n = r_n.  So each part [f, f + r_{n-1}] of
I_{n-1} splits into [f, f + r_n] and [f + x_n, f + r_{n-1}]: I_n's starts
alternate old, new and its ends new, old.

(C) In (B), let d' | d be the denominators of I_{n-1} and I_n.  If every
prime p of d' has v_p(d) > v_p(d') and x_n d is coprime to d, each new start
f + x_n is in lowest terms over d: v_p(f) >= -v_p(d') > -v_p(d) = v_p(x_n)
if p | d', and v_p(f) >= 0 otherwise, so v_p(f + x_n) = -v_p(d) for p | d.
Likewise each new end f + r_n, when r_n d is coprime to d.

(B) is applied wherever it holds.  I_{n-1} is built before level n, so
(A) tells whether level n - 1 is separated by one comparison,
|I_{n-1}| = |F_{n-1}|; at a Kakeya index n after a separated level, the
ladder builds F_n by interleaving, with no sort and no duplicate scan, and
sweeps I_n by (A) with no gap scan.  F_0 = {0} has no gap, so every level of
the pattern's leading run of Kakeya indices is built this way, and so are
others: level 3 of (9, 9, 6; 1/10) follows the separated level 2, though
x_1 = 9/10 < r_1.  ``SubsumLadder.separated`` is the same exact test.

A SelfSimilar value holds the block K of a set E = q * (K + E) and is its
Hutchinson operator on integer part lists: the image, the self-cover test
and the run-window union that ``engine``'s certificate search reads.
"""

from __future__ import annotations

import abc
import operator
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain, compress, islice
from math import lcm
from typing import Iterable, Optional

from .exact import Parts, PointSet, covered_parts, merge_parts, nondegenerate_parts
from .frozen import frozen

DEFAULT_CAP = 2_000_000

LESS, EQUAL, GREATER = "<", "=", ">"


class CapacityError(RuntimeError):
    """A deduplicated set or a stream's head would exceed its capacity;
    nothing was truncated."""

    def __init__(self, stage: str, size: int, cap: int, unit: str = "values") -> None:
        super().__init__(f"{stage}: would produce {size} {unit}, cap is {cap}")
        self.stage = stage
        self.size = size
        self.cap = cap


class StreamError(ValueError):
    """A spec's terms do not form a positive nonincreasing series."""


def compare_sign(x: Fraction, r: Fraction) -> str:
    if x > r:
        return GREATER
    if x == r:
        return EQUAL
    return LESS


@frozen
class KakeyaPattern:
    """Proof-carrying description of the comparisons x_n vs r_n.

    ``prefix`` gives the comparison sign for n = 1..len(prefix); afterwards
    the signs repeat ``cycle`` forever.  Every stream returns one, from the
    exact periodicity of its terms and tails (scale-invariance), so a pattern
    is an analytic statement about all n, not finite-horizon evidence.
    """

    prefix: tuple[str, ...]
    cycle: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.cycle:
            raise ValueError("pattern cycle must be nonempty")
        for sym in self.prefix + self.cycle:
            if sym not in (LESS, EQUAL, GREATER):
                raise ValueError(f"bad comparison symbol {sym!r}")

    def comparison_at(self, n: int) -> str:
        if n < 1:
            raise ValueError("indices start at 1")
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        return self.cycle[(n - len(self.prefix) - 1) % len(self.cycle)]

    @property
    def kakeya_is_finite(self) -> bool:
        """True iff {n : x_n > r_n} is finite."""
        return GREATER not in self.cycle

    @property
    def strict_reversed_is_finite(self) -> bool:
        """True iff {n : x_n < r_n} is finite."""
        return LESS not in self.cycle


class TermStream(abc.ABC):
    """Exact generator of a convergent positive nonincreasing series."""

    @abc.abstractmethod
    def term(self, n: int) -> Fraction:
        """x_n for n >= 1."""

    @abc.abstractmethod
    def tail(self, n: int) -> Fraction:
        """r_n = sum of x_i over i > n, for n >= 0; r_0 is the full sum."""

    def terms(self, k: int) -> tuple[Fraction, ...]:
        return tuple(self.term(n) for n in range(1, k + 1))

    @abc.abstractmethod
    def kakeya_pattern(self) -> KakeyaPattern:
        """The exact comparison pattern of x_n against r_n for all n."""


@frozen
class KakeyaSplit:
    """Indices up to a horizon split by the exact comparison x_n vs r_n."""

    horizon: int
    kakeya: tuple[int, ...]
    reversed_kakeya: tuple[int, ...]

    def __post_init__(self) -> None:
        merged = sorted(self.kakeya + self.reversed_kakeya)
        if merged != list(range(1, self.horizon + 1)):
            raise ValueError("split must partition 1..horizon")

    def to_json(self) -> dict:
        return {
            "horizon": self.horizon,
            "kakeya": list(self.kakeya),
            "reversed": list(self.reversed_kakeya),
        }


def kakeya_split(stream: TermStream, horizon: int) -> KakeyaSplit:
    """Classify each n <= horizon by the exact comparison x_n vs r_n."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    comparison_at = stream.kakeya_pattern().comparison_at
    strict: list[int] = []
    weak: list[int] = []
    for n in range(1, horizon + 1):
        (strict if comparison_at(n) == GREATER else weak).append(n)
    return KakeyaSplit(horizon, tuple(strict), tuple(weak))


def group_convolve(a: PointSet, b: PointSet, cap: int = DEFAULT_CAP) -> PointSet:
    """Minkowski sumset {u + v} with multiplicities multiplied and summed.

    Commutative and associative; fails with CapacityError if the deduplicated
    result would exceed ``cap`` (never truncates silently).
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    ca = a.counts if a.counts is not None else (1,) * len(a)
    cb = b.counts if b.counts is not None else (1,) * len(b)
    if len(a) * len(b) > max(64 * cap, 50_000_000):
        raise CapacityError("group_convolve", len(a) * len(b), cap)
    acc: dict[Fraction, int] = {}
    for u, cu in zip(a.values, ca):
        for v, cv in zip(b.values, cb):
            key = u + v
            acc[key] = acc.get(key, 0) + cu * cv
    if len(acc) > cap:
        raise CapacityError("group_convolve", len(acc), cap)
    values = tuple(sorted(acc))
    return PointSet(values, tuple(acc[v] for v in values))


@frozen
class LatticeLevel:
    """A subsum set F_n as integers over one common denominator.

    ``values`` are the distinct subsums times ``denominator``, strictly
    increasing.  A level does not count the subsets achieving each value.
    """

    denominator: int
    values: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.values)

    def extend(self, term: Fraction, cap: int) -> "LatticeLevel":
        """The next level: these subsums merged with the same plus ``term``.

        Both runs are strictly increasing, so ``sorted`` merges them, and a
        value in both sits next to its copy; only then does one ``compress``
        pass keep each value once.  Raises CapacityError, naming the full
        deduplicated size, when the merge would hold more than ``cap``
        values.  When it might (2n > cap), the size is counted first by a
        merge that stores nothing, so the error comes before the oversized
        level is allocated.
        """
        d = lcm(self.denominator, term.denominator)
        values = self.values
        if d != self.denominator:
            values = tuple(map(partial(operator.mul, d // self.denominator), values))
        shift = term.numerator * (d // term.denominator)
        if 2 * len(values) > cap:
            size = _merged_size(values, shift)
            if size > cap:
                raise CapacityError("subsum_ladder", size, cap)
        merged = sorted(chain(values, map(partial(operator.add, shift), values)))
        if any(map(operator.eq, merged, islice(merged, 1, None))):
            distinct = map(operator.ne, merged, islice(merged, 1, None))
            merged = [*compress(merged, distinct), merged[-1]]
        return LatticeLevel(d, tuple(merged))

    def interleave(self, term: Fraction, cap: int) -> "LatticeLevel":
        """The next level when consecutive values are more than ``term``
        apart: each value followed by itself plus ``term``, by fact (B) of
        the module docstring, with no sort and no duplicate scan.  Raises
        CapacityError, as ``extend`` would, before the level is allocated
        when its 2n values would pass ``cap``.
        """
        n = len(self.values)
        if 2 * n > cap:
            raise CapacityError("subsum_ladder", 2 * n, cap)
        d = lcm(self.denominator, term.denominator)
        values = self.values
        if d != self.denominator:
            values = tuple(map(partial(operator.mul, d // self.denominator), values))
        merged = [0] * (2 * n)
        merged[::2] = values
        merged[1::2] = map(partial(operator.add, term.numerator * (d // term.denominator)), values)
        return LatticeLevel(d, tuple(merged))

    def points(self) -> PointSet:
        d = self.denominator
        return PointSet(tuple(Fraction(v, d) for v in self.values))


def _merged_size(values, shift: int) -> int:
    """|values u (values + shift)| for strictly increasing ``values``."""
    n = len(values)
    common = i = j = 0
    while i < n and j < n:
        a, b = values[i], values[j] + shift
        if a < b:
            i += 1
        elif b < a:
            j += 1
        else:
            common += 1
            i += 1
            j += 1
    return 2 * n - common


ZERO_LEVEL = LatticeLevel(1, (0,))


def subsum_level(terms: Iterable[Fraction], cap: int = DEFAULT_CAP) -> LatticeLevel:
    """Every distinct subsum of a finite multiset of terms, on its lattice.

    One fold of LatticeLevel.extend from the empty sum; only the current
    level is kept, so a family block or group costs one level of memory.
    """
    level = ZERO_LEVEL
    for term in terms:
        level = level.extend(term, cap)
    return level


@frozen
class SelfSimilar:
    """E = q * (block + E), with the block's subsums on their lattice, r_0 =
    max E and m terms per group, as ``families.self_similar`` gives it; and
    Phi(S) = union over block subsums sigma of q * (sigma + S) on integer
    parts, for S over d, a multiple of the block's denominator D."""

    block: LatticeLevel
    ratio: Fraction
    total: Fraction
    m: int

    def image(self, d: int, parts: Parts) -> Parts:
        """Phi(S) over b * d for a canonical part list S over d in [0, r_0]:
        with q = a / b, [lo, hi] / d maps to [a (sigma d + lo), a (sigma d +
        hi)] / (b d) for each sigma."""
        if not parts:
            return []
        total = self.total
        if parts[0][0] < 0 or parts[-1][1] * total.denominator > total.numerator * d:
            raise ValueError("operand must be contained in [0, r_0]")
        step = d // self.block.denominator
        shifts = [sigma * step for sigma in self.block.values]
        image = merge_parts([(lo + t, hi + t) for t in shifts for lo, hi in parts])
        a = self.ratio.numerator
        return [(a * lo, a * hi) for lo, hi in image]

    def covers(self, d: int, parts: Parts) -> bool:
        """S is nonempty and lies in Phi(S), compared on the lattice of b * d."""
        b = self.ratio.denominator
        scaled = [(lo * b, hi * b) for lo, hi in parts]
        return bool(parts) and len(covered_parts(scaled, self.image(d, parts))) == len(parts)

    @cached_property
    def windows(self) -> Optional[tuple[int, tuple[tuple[int, int], ...]]]:
        """The union of the self-covered run windows over its denominator,
        kept for every reader, or None when it fails the exact recheck.

        For block subsums sigma_i < ... < sigma_j whose gaps never exceed
        q (sigma_j - sigma_i) / (1 - q), the images of the window
        J = [q sigma_i, q sigma_j] / (1 - q) chain across J, so J covers
        itself; q / (1 - q) = a / (b - a) puts J over (b - a) * D.  Each
        window is still checked exactly, and so is their union."""
        sigmas = self.block.values
        a, b = self.ratio.numerator, self.ratio.denominator
        d = (b - a) * self.block.denominator
        covered: Parts = []
        for i in range(len(sigmas)):
            max_gap = 0
            for j in range(i + 1, len(sigmas)):
                max_gap = max(max_gap, sigmas[j] - sigmas[j - 1])
                if (b - a) * max_gap <= a * (sigmas[j] - sigmas[i]):
                    window = (a * sigmas[i], a * sigmas[j])
                    if self.covers(d, [window]):
                        covered.append(window)
        union = nondegenerate_parts(merge_parts(covered))
        return (d, tuple(union)) if self.covers(d, union) else None


@frozen
class Bricks:
    """The iteration I_n = union of [f, f + r_n] over f in F_n, on a lattice.

    Part i is [starts[i], ends[i]] / denominator, where the denominator is
    lcm(D_m, den r_m) for the level m <= n that swept these parts: n if it
    is 0 or a Kakeya index, else the last such index before it.  Parts are
    in order and separated by gaps; each one is the brick union of an
    r_n-tight block of F_n, so it spans that block's diameter plus r_n.
    """

    denominator: int
    starts: tuple[int, ...]
    ends: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.starts)

    def lengths(self) -> list[int]:
        return list(map(operator.sub, self.ends, self.starts))

    @cached_property
    def longest(self) -> int:
        """The index of the first longest part, kept for every reader."""
        lengths = self.lengths()
        return lengths.index(max(lengths))

    @property
    def measure(self) -> Fraction:
        return Fraction(sum(self.ends) - sum(self.starts), self.denominator)


class SubsumLadder:
    """The subsum sets F_0, F_1, ... of one stream, built once and shared.

    ``ladder.level(n)`` is F_n on its integer lattice, values only;
    ``ladder.level(n).points()`` builds it as a PointSet, and finite_subsums
    counts the subsets of {1..n} that achieve each value.  ``ladder.bricks(n)``
    is the iteration I_n.  Levels are built on request, one term at a time,
    each together with its I_n, and kept in two parallel lists; a level that
    would exceed ``cap`` raises CapacityError, nothing is stored, and asking
    for it again raises the same error.  I_n is swept from F_n's integers at
    level 0 and at the Kakeya levels that the stream's pattern names; every
    other level n keeps the Bricks object of level n - 1, since x_n <= r_n
    joins [f, f + r_n] to [f + x_n, f + r_{n-1}].  A Kakeya level after a
    separated level is separated by fact (B) of the module docstring, so it
    is interleaved instead of merged and swept with no gap scan.
    """

    def __init__(self, stream: TermStream, cap: int = DEFAULT_CAP) -> None:
        if cap < 1:
            raise ValueError("cap must be positive")
        self.stream = stream
        self.cap = cap
        self._levels = [ZERO_LEVEL]
        self._bricks = [self._sweep(0, ZERO_LEVEL, True)]

    def level(self, n: int) -> LatticeLevel:
        if n < 0:
            raise ValueError("depth must be nonnegative")
        levels, bricks = self._levels, self._bricks
        while len(levels) <= n:
            k = len(levels)
            last, term = levels[-1], self.stream.term(k)
            # by (A), level k - 1 is separated exactly when |I_{k-1}| = |F_{k-1}|
            kakeya = self.stream.kakeya_pattern().comparison_at(k) == GREATER
            separated = kakeya and len(bricks[-1]) == len(last)
            level = last.interleave(term, self.cap) if separated else last.extend(term, self.cap)
            got = self._sweep(k, level, separated) if kakeya else bricks[-1]
            levels.append(level)
            bricks.append(got)
        return levels[n]

    def on_tail_lattice(self, n: int) -> tuple[int, tuple[int, ...], int]:
        """(D, F_n * D, r_n * D) with D = lcm(D_n, den r_n), all integers."""
        return _on_tail_lattice(self.level(n), self.stream.tail(n))

    def bricks(self, n: int) -> Bricks:
        """I_n: F_n's bricks merged across gaps <= r_n."""
        self.level(n)
        return self._bricks[n]

    def separated(self, n: int) -> bool:
        """Whether every gap of F_n exceeds r_n: exactly when I_n has a
        part for each value of F_n."""
        return len(self.bricks(n)) == len(self.level(n))

    def _sweep(self, n: int, level: LatticeLevel, separated: bool) -> Bricks:
        """I_n swept from ``level``, F_n, on the tail lattice: each gap
        wider than r_n cuts it, and a separated level is cut at every gap,
        by fact (A)."""
        d, values, reach = _on_tail_lattice(level, self.stream.tail(n))
        if separated:
            starts, ends = values, tuple(map(partial(operator.add, reach), values))
        else:
            wide = list(map(partial(operator.lt, reach), map(operator.sub, values[1:], values)))
            starts = (values[0], *compress(values[1:], wide))
            ends = (*map(partial(operator.add, reach), compress(values, wide)), values[-1] + reach)
        return Bricks(d, starts, ends)


def _on_tail_lattice(level: LatticeLevel, tail: Fraction) -> tuple[int, tuple[int, ...], int]:
    """(D, level * D, tail * D) with D = lcm(level's denominator, den tail)."""
    d = lcm(level.denominator, tail.denominator)
    scale = d // level.denominator
    values = level.values
    if scale != 1:
        values = tuple(map(partial(operator.mul, scale), values))
    return d, values, tail.numerator * (d // tail.denominator)


def finite_subsums(stream: TermStream, k: int, cap: int = DEFAULT_CAP) -> PointSet:
    """F_k with multiplicities: all subsums of the first k terms, each counted
    by the subsets of {1..k} achieving it (the counts sum to 2^k).

    A fold of group_convolve over the two-point sets {0, x_n}, apart from
    the ladder, whose levels keep values only.  When a step might exceed
    ``cap`` (2n > cap), its size is counted first, as LatticeLevel.extend
    does, so CapacityError comes before the oversized set is built.
    """
    got = PointSet((Fraction(0),), (1,))
    for term in stream.terms(k):
        if 2 * len(got) > cap:
            size = _merged_size(got.values, term)
            if size > cap:
                raise CapacityError("group_convolve", size, cap)
        got = group_convolve(got, PointSet((Fraction(0), term), (1, 1)), cap)
    return got
