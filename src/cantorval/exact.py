"""Exact rational scalars, closed intervals, normalized interval unions, point sets.

Everything in this package is exact: values are ``fractions.Fraction``s, or
integers over a common denominator that the caller keeps, and no operation
ever rounds.  Whether two closed intervals touch or leave a gap is decided by
exact endpoint comparison, which is the entire point: a single rounding
error could flip "touching" into "disjoint" and change the topology of
every derived set.  The subsum ladder and the certificate search keep their
sets in the integer form and build Fractions only for what a report
prints.  The search needs only four part-list functions below: merge,
drop single points, intersect, and keep the parts a cover holds.

Denominators are unbounded.  Worst-case bit growth: interval algebra is
linear in the operand bit sizes; affine maps add the bit sizes of scale and
shift.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction
from itertools import repeat
from math import gcd
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence, Union

from .frozen import frozen

RationalLike = Union[Fraction, int, str]

_RATIONAL_TEXT = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def rat(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" or "p" string to a Fraction.

    Floats are rejected: accepting them silently would smuggle rounding
    error into an exact pipeline.  A string is [-]digits[/digits]: with no
    exponent, a short string cannot name a huge number ("1e-20000").
    """
    if isinstance(value, bool):
        raise TypeError("booleans are not rational scalars")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if _RATIONAL_TEXT.fullmatch(value) is None:
            raise ValueError(f"expected a rational as 'p/q' or 'p' in digits, got {value!r}")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def rat_str(value: RationalLike) -> str:
    """Canonical "p/q" form, denominator always explicit (e.g. "-3/1")."""
    x = rat(value)
    return f"{x.numerator}/{x.denominator}"


def lattice_str(k: int, d: int) -> str:
    """Canonical "p/q" form of k / d for integers k and d > 0."""
    g = gcd(k, d)
    return f"{k // g}/{d // g}"


def lattice_strs(ks: Sequence[int], d: int) -> list[str]:
    """``[lattice_str(k, d) for k in ks]``, with ``str(d)`` written once for
    every k coprime to d and every gcd taken in one ``map``."""
    den = "/" + str(d)
    return [
        f"{k}{den}" if g == 1 else f"{k // g}/{d // g}"
        for k, g in zip(ks, map(gcd, ks, repeat(d)))
    ]


def coprime_strs(ks: Sequence[int], d: int) -> list[str]:
    """``lattice_strs(ks, d)`` for ks known to be coprime to d: no gcd."""
    den = "/" + str(d)
    return [f"{k}{den}" for k in ks]


def coprime(k: int, d: int) -> bool:
    return gcd(k, d) == 1


def grows_every_prime(old: int, d: int) -> bool:
    """Whether old divides d and every prime of old divides d // old."""
    rest, r = divmod(d, old)
    while (g := gcd(old, rest)) > 1:
        old //= g
    return not r and old == 1


def pairs_chunks(los: Sequence[str], his: Sequence[str], newline: str) -> tuple[str, ...]:
    """The list of pairs [los[i], his[i]], as far as both go, as
    ``json.dumps(..., indent=2)`` writes it at the nesting whose line break
    and indent are ``newline``: three chunks, the opening text, the body and
    the closing text, or the one chunk "[]" for no pairs.

    The body is one join over a flat list of the strings and the separators
    between them, which carry the quote marks and brackets, so no per-pair
    string is made and the body is never copied into a wrapper.  The strings
    must need no escaping, as endpoint strings do not (only digits, "-" and
    "/").
    """
    n = min(len(los), len(his))
    if not n:
        return ("[]",)
    i1 = newline + "  "
    i2 = i1 + "  "
    flat = ['",' + i2 + '"'] * (4 * n - 1)
    flat[::4] = los if len(los) == n else los[:n]
    flat[2::4] = his if len(his) == n else his[:n]
    flat[3::4] = ['"' + i1 + "]," + i1 + "[" + i2 + '"'] * (n - 1)
    return f'[{i1}[{i2}"', "".join(flat), f'"{i1}]{newline}]'


@frozen
class Interval:
    """Closed interval [lo, hi] with rational endpoints; lo == hi is allowed."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", rat(self.lo))
        object.__setattr__(self, "hi", rat(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    def as_pair(self) -> list[str]:
        return [rat_str(self.lo), rat_str(self.hi)]

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def interval(lo: RationalLike, hi: RationalLike) -> Interval:
    return Interval(rat(lo), rat(hi))


@frozen
class IntervalSet:
    """Finite union of disjoint closed intervals, kept in canonical form.

    Canonical means strictly increasing with a positive gap between
    consecutive parts: parts[i].hi < parts[i+1].lo.  Intervals that touch at
    an endpoint are merged on construction, so the union of points determines
    the representation uniquely.  Degenerate parts [x, x] are retained.
    """

    parts: tuple[Interval, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        for a, b in zip(self.parts, self.parts[1:]):
            if not a.hi < b.lo:
                raise ValueError(
                    f"parts not canonical: {a} and {b} overlap or touch; use normalize()"
                )

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __bool__(self) -> bool:
        return bool(self.parts)

    def to_pairs(self) -> list[list[str]]:
        return [p.as_pair() for p in self.parts]

    @staticmethod
    def from_lattice(
        starts: Sequence[int], ends: Sequence[int], denominator: int
    ) -> "IntervalSet":
        """Parts [starts[i], ends[i]] / denominator, already in canonical order."""
        return IntervalSet(
            tuple(
                Interval(Fraction(a, denominator), Fraction(b, denominator))
                for a, b in zip(starts, ends)
            )
        )

    def __repr__(self) -> str:
        return "{" + ", ".join(repr(p) for p in self.parts) + "}"


EMPTY_SET = IntervalSet(())


def normalize(intervals: Iterable[Interval]) -> IntervalSet:
    """Canonical IntervalSet with the same union of points.

    Sorts by left endpoint and merges overlapping or touching intervals;
    intervals sharing only an endpoint are merged because the union of two
    touching closed intervals is a single closed interval.
    """
    items = sorted(intervals, key=lambda p: (p.lo, p.hi))
    out: list[Interval] = []
    for p in items:
        if out and p.lo <= out[-1].hi:
            if p.hi > out[-1].hi:
                out[-1] = Interval(out[-1].lo, p.hi)
        else:
            out.append(p)
    return IntervalSet(tuple(out))


# Interval unions on an integer lattice.  A part list holds (lo, hi) integer
# pairs, each standing for [lo, hi] / d over a denominator d that the caller
# keeps.  A canonical part list is sorted with a positive gap between
# consecutive parts, the form IntervalSet keeps.  The operands of each
# function below share one denominator.

Parts = list[tuple[int, int]]


def merge_parts(parts: Iterable[tuple[int, int]]) -> Parts:
    """Canonical part list with the same union of points.

    Sorts and merges overlapping or touching parts, as ``normalize`` does.
    Parts sharing a left end merge whatever their order, so the sort needs
    only that key.
    """
    los: list[int] = []
    his: list[int] = []
    for lo, hi in sorted(parts, key=itemgetter(0)):
        if his and lo <= his[-1]:
            if hi > his[-1]:
                his[-1] = hi
        else:
            los.append(lo)
            his.append(hi)
    return list(zip(los, his))


def nondegenerate_parts(parts: Parts) -> Parts:
    """The parts that are not single points."""
    return [p for p in parts if p[0] < p[1]]


def intersect_parts(a: Parts, b: Parts) -> Parts:
    """Pointwise intersection of canonical lists; touching points are kept."""
    out: Parts = []
    i = j = 0
    while i < len(a) and j < len(b):
        alo, ahi = a[i]
        blo, bhi = b[j]
        lo = alo if alo > blo else blo
        hi = ahi if ahi < bhi else bhi
        if lo <= hi:
            out.append((lo, hi))
        if ahi < bhi:
            i += 1
        else:
            j += 1
    return out


def covered_parts(parts: Parts, cover: Parts) -> Parts:
    """The parts of a canonical list that lie wholly inside ``cover``.

    Parts of a canonical cover are separated by open gaps, so a connected
    part lies inside the cover iff it lies inside a single cover part.
    """
    out: Parts = []
    j = 0
    for lo, hi in parts:
        while j < len(cover) and cover[j][1] < lo:
            j += 1
        if j < len(cover) and cover[j][0] <= lo and hi <= cover[j][1]:
            out.append((lo, hi))
    return out


@frozen
class PointSet:
    """Sorted distinct rationals, optionally with positive multiplicities."""

    values: tuple[Fraction, ...]
    counts: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(rat(v) for v in self.values))
        for a, b in zip(self.values, self.values[1:]):
            if not a < b:
                raise ValueError("point set values must be strictly increasing")
        if self.counts is not None:
            object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
            if len(self.counts) != len(self.values):
                raise ValueError("counts must parallel values")
            if any(c <= 0 for c in self.counts):
                raise ValueError("multiplicities must be positive")

    @staticmethod
    def from_values(values: Iterable[RationalLike]) -> "PointSet":
        """Deduplicated point set without multiplicity information."""
        return PointSet(tuple(sorted(set(rat(v) for v in values))))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.values)

    def _index(self, v: Fraction) -> Optional[int]:
        """Position of ``v`` among the sorted values, or None when absent."""
        i = bisect_left(self.values, v)
        return i if i < len(self.values) and self.values[i] == v else None

    def __contains__(self, x: object) -> bool:
        try:
            v = rat(x)  # type: ignore[arg-type]
        except TypeError:
            return False
        return self._index(v) is not None

    def __repr__(self) -> str:
        return f"PointSet({list(self.values)!r})"
