"""Term streams for convergent positive nonincreasing series.

A stream exposes exact terms x_n and exact tail sums r_n = sum of x_i for
i > n.  A SubsumLadder builds the finite subsum sets F_n of one stream
once, for every analysis layer to read; they carry multiplicities so that
downstream uniqueness analysis can see collisions.

The ladder stores F_n on an integer lattice: D_n, the lcm of the
denominators of x_1..x_n, and the sorted integers f * D_n.  Each step is one
linear merge of those integers with the same integers shifted by x_n * D_n,
after rescaling when x_n's denominator does not divide D_{n-1}.  The brick
union I_n (the union of [f, f + r_n] over F_n) is one sweep over the same
integers; Fractions are built only where a caller reads them.
"""

from __future__ import annotations

import abc
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import compress
from math import lcm
from typing import Iterable, Optional

from .exact import PointSet, rat, RationalLike

DEFAULT_CAP = 2_000_000

LESS, EQUAL, GREATER = "<", "=", ">"


class CapacityError(RuntimeError):
    """A deduplicated set would exceed its capacity; nothing was truncated."""

    def __init__(self, stage: str, size: int, cap: int) -> None:
        super().__init__(f"{stage}: would produce {size} values, cap is {cap}")
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


@dataclass(frozen=True)
class KakeyaPattern:
    """Proof-carrying description of the comparisons x_n vs r_n.

    ``prefix`` gives the comparison sign for n = 1..len(prefix); afterwards
    the signs repeat ``cycle`` forever.  A stream returns a pattern only when
    the periodicity is exact (scale-invariance of both terms and tails), so a
    pattern is an analytic statement about all n, not finite-horizon evidence.
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

    def kakeya_pattern(self) -> Optional[KakeyaPattern]:
        """Exact comparison pattern when one is analytically available."""
        return None


class GeometricTailStream(TermStream):
    """Finitely many explicit terms followed by an exact geometric tail.

    The workhorse for hand-built streams in tests and for planted examples:
    positivity and monotonicity are validated on construction, and every tail
    sum is a closed-form geometric sum.
    """

    def __init__(
        self,
        prefix: Iterable[RationalLike],
        start: RationalLike,
        ratio: RationalLike,
    ) -> None:
        self._prefix = tuple(rat(v) for v in prefix)
        self._start = rat(start)
        self._ratio = rat(ratio)
        if self._start <= 0:
            raise ValueError("geometric tail must have a positive first term")
        if not (0 < self._ratio < 1):
            raise ValueError("geometric ratio must lie in (0, 1)")
        for v in self._prefix:
            if v <= 0:
                raise ValueError("terms must be positive")
        for a, b in zip(self._prefix, self._prefix[1:]):
            if b > a:
                raise ValueError("terms must be nonincreasing")
        if self._prefix and self._start > self._prefix[-1]:
            raise ValueError("geometric tail must not exceed the last explicit term")
        self._geo_sum = self._start / (1 - self._ratio)

    def term(self, n: int) -> Fraction:
        if n < 1:
            raise ValueError("term indices start at 1")
        p = len(self._prefix)
        if n <= p:
            return self._prefix[n - 1]
        return self._start * self._ratio ** (n - p - 1)

    def tail(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("tail indices start at 0")
        p = len(self._prefix)
        if n >= p:
            return self._geo_sum * self._ratio ** (n - p)
        return sum(self._prefix[n:], Fraction(0)) + self._geo_sum

    def kakeya_pattern(self) -> KakeyaPattern:
        # In the geometric regime x_n / r_n = (1 - ratio) / ratio exactly,
        # so one comparison settles every index past the prefix.
        prefix = tuple(
            compare_sign(self.term(n), self.tail(n)) for n in range(1, len(self._prefix) + 1)
        )
        cycle = (compare_sign(1 - self._ratio, self._ratio),)
        return KakeyaPattern(prefix, cycle)


@dataclass(frozen=True)
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
    strict: list[int] = []
    weak: list[int] = []
    for n in range(1, horizon + 1):
        if stream.term(n) > stream.tail(n):
            strict.append(n)
        else:
            weak.append(n)
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


class FiniteStream(TermStream):
    """Finitely many explicit terms and nothing after them.

    Lets a SubsumLadder enumerate the subsums of a finite multiset, such as
    a family block or group; indices past the last term are out of range.
    """

    def __init__(self, values: Iterable[RationalLike]) -> None:
        self._values = tuple(rat(v) for v in values)

    def term(self, n: int) -> Fraction:
        if not 1 <= n <= len(self._values):
            raise ValueError(f"term index {n} outside 1..{len(self._values)}")
        return self._values[n - 1]

    def tail(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("tail indices start at 0")
        return sum(self._values[n:], Fraction(0))


@dataclass(frozen=True)
class LatticeLevel:
    """A subsum set F_n as integers over one common denominator.

    ``values`` are the distinct subsums times ``denominator``, strictly
    increasing, and ``counts`` parallels them with the number of subsets
    achieving each value.
    """

    denominator: int
    values: tuple[int, ...]
    counts: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.values)

    def extend(self, term: Fraction, cap: int) -> "LatticeLevel":
        """The next level: these subsums merged with the same plus ``term``.

        Raises CapacityError, naming the full deduplicated size, when the
        merge would hold more than ``cap`` values.  When it might (2n > cap),
        the size is counted first by a merge that stores nothing, so the
        error comes before the oversized level is allocated.
        """
        d = lcm(self.denominator, term.denominator)
        values = self.values
        if d != self.denominator:
            scale = d // self.denominator
            values = [v * scale for v in values]
        shift = term.numerator * (d // term.denominator)
        counts = self.counts
        n = len(values)
        if 2 * n > cap:
            size = _merged_size(values, shift)
            if size > cap:
                raise CapacityError("subsum_ladder", size, cap)
        out_values: list[int] = []
        out_counts: list[int] = []
        i = j = 0
        while i < n and j < n:
            a, b = values[i], values[j] + shift
            if a < b:
                out_values.append(a)
                out_counts.append(counts[i])
                i += 1
            elif b < a:
                out_values.append(b)
                out_counts.append(counts[j])
                j += 1
            else:
                out_values.append(a)
                out_counts.append(counts[i] + counts[j])
                i += 1
                j += 1
        out_values.extend(values[i:])
        out_counts.extend(counts[i:])
        out_values.extend(v + shift for v in values[j:])
        out_counts.extend(counts[j:])
        return LatticeLevel(d, tuple(out_values), tuple(out_counts))

    def points(self) -> PointSet:
        d = self.denominator
        return PointSet(tuple(Fraction(v, d) for v in self.values), self.counts)


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


@dataclass(frozen=True)
class Bricks:
    """The iteration I_n = union of [f, f + r_n] over f in F_n, on a lattice.

    Part i is [starts[i], ends[i]] / denominator, where the denominator is
    lcm(D_n, den r_n) and ``reach`` is r_n on that lattice.  Parts are in
    order and separated by gaps; each one is the brick union of an
    r_n-tight block of F_n, so it spans that block's diameter plus r_n.
    """

    denominator: int
    starts: tuple[int, ...]
    ends: tuple[int, ...]
    reach: int

    def __len__(self) -> int:
        return len(self.starts)

    def lengths(self) -> list[int]:
        return list(map(operator.sub, self.ends, self.starts))

    @property
    def measure(self) -> Fraction:
        return Fraction(sum(self.ends) - sum(self.starts), self.denominator)


class SubsumLadder:
    """The subsum sets F_0, F_1, ... of one stream, built once and shared.

    ``ladder.level(n)`` is F_n on its integer lattice; ``ladder[n]`` is the
    same set as a PointSet, with multiplicities counting the subsets of
    {1..n} that achieve each value (they sum to 2^n), built on first read
    and kept.  Levels are built on request, one term at a time, and kept; a
    level that would exceed ``cap`` raises CapacityError, nothing is stored,
    and asking for it again raises the same error.  ``ladder.bricks(n)``
    keeps the iteration I_n, swept from the same integers.
    """

    def __init__(self, stream: TermStream, cap: int = DEFAULT_CAP) -> None:
        if cap < 1:
            raise ValueError("cap must be positive")
        self.stream = stream
        self.cap = cap
        self._levels = [LatticeLevel(1, (0,), (1,))]
        self._points: dict[int, PointSet] = {}
        self._bricks: dict[int, Bricks] = {}

    def level(self, n: int) -> LatticeLevel:
        if n < 0:
            raise ValueError("depth must be nonnegative")
        levels = self._levels
        while len(levels) <= n:
            term = self.stream.term(len(levels))
            levels.append(levels[-1].extend(term, self.cap))
        return levels[n]

    def __getitem__(self, n: int) -> PointSet:
        points = self._points.get(n)
        if points is None:
            points = self._points[n] = self.level(n).points()
        return points

    def on_tail_lattice(self, n: int) -> tuple[int, tuple[int, ...], int]:
        """(D, F_n * D, r_n * D) with D = lcm(D_n, den r_n), all integers."""
        level = self.level(n)
        tail = self.stream.tail(n)
        d = lcm(level.denominator, tail.denominator)
        scale = d // level.denominator
        values = level.values if scale == 1 else tuple(v * scale for v in level.values)
        return d, values, tail.numerator * (d // tail.denominator)

    def bricks(self, n: int) -> Bricks:
        """I_n: bricks merge across every gap of F_n that is at most r_n."""
        got = self._bricks.get(n)
        if got is None:
            d, values, reach = self.on_tail_lattice(n)
            gaps = map(operator.sub, values[1:], values)
            cuts = list(compress(range(1, len(values)), map(partial(operator.lt, reach), gaps)))
            starts = [values[0]] + [values[i] for i in cuts]
            ends = [values[i - 1] + reach for i in cuts] + [values[-1] + reach]
            got = self._bricks[n] = Bricks(d, tuple(starts), tuple(ends), reach)
        return got


def finite_subsums(stream: TermStream, k: int, cap: int = DEFAULT_CAP) -> PointSet:
    """F_k of a fresh ladder: all subsums of the first k terms, with multiplicities."""
    return SubsumLadder(stream, cap)[k]
