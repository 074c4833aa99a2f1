"""Eventually-periodic integer sequences and block-geometric rational scales.

Family parameters are restricted to these two shapes so that every weight
the package sums to infinity, w(i + period) = ratio * w(i) past a
preperiod, has an exact tail: ``periodic_tail`` adds the finite head and
one period block over 1 - ratio.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable

from ..exact import rat, rat_str, RationalLike
from ..frozen import frozen


@frozen
class PeriodicSeq:
    """Sequence with an explicit prefix followed by a repeating period.

    Indexing is 1-based to match series indexing throughout the package.
    """

    pre: tuple = ()
    period: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "pre", tuple(self.pre))
        object.__setattr__(self, "period", tuple(self.period))
        if not self.period:
            raise ValueError("period must be nonempty")

    def value(self, n: int):
        if n < 1:
            raise ValueError("indices start at 1")
        if n <= len(self.pre):
            return self.pre[n - 1]
        return self.period[(n - len(self.pre) - 1) % len(self.period)]

    def __getitem__(self, n: int):
        return self.value(n)

    @property
    def preperiod_length(self) -> int:
        return len(self.pre)

    @property
    def period_length(self) -> int:
        return len(self.period)

    def to_json(self) -> dict:
        return {"pre": list(self.pre), "period": list(self.period)}

    @staticmethod
    def from_json(doc: dict, name: str) -> "PeriodicSeq":
        """Parse the spec field ``name``, an object of "pre" and "period"."""
        return PeriodicSeq(
            tuple(json_array(doc.get("pre", []), f"{name}.pre")),
            tuple(json_array(doc["period"], f"{name}.period")),
        )


@frozen
class BlockGeometric:
    """Positive rationals: prefix, then one block scaled geometrically.

    value(i) = pre[i-1] for i <= P, and block[j] * ratio^c for
    i = P + c*L + j + 1 (0 <= j < L), so value(i + L) = ratio * value(i)
    for every i > P and ``periodic_tail`` sums it exactly.
    """

    pre: tuple[Fraction, ...]
    block: tuple[Fraction, ...]
    ratio: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "pre", tuple(rat(v) for v in self.pre))
        object.__setattr__(self, "block", tuple(rat(v) for v in self.block))
        object.__setattr__(self, "ratio", rat(self.ratio))
        if not self.block:
            raise ValueError("block must be nonempty")
        if not (0 < self.ratio < 1):
            raise ValueError("ratio must lie in (0, 1)")
        if any(v <= 0 for v in self.pre + self.block):
            raise ValueError("values must be positive")

    @property
    def preperiod_length(self) -> int:
        return len(self.pre)

    @property
    def block_length(self) -> int:
        return len(self.block)

    def value(self, i: int) -> Fraction:
        if i < 1:
            raise ValueError("indices start at 1")
        p = len(self.pre)
        if i <= p:
            return self.pre[i - 1]
        t = i - p - 1
        c, j = divmod(t, len(self.block))
        return self.block[j] * self.ratio**c

    def __getitem__(self, i: int) -> Fraction:
        return self.value(i)

    def lattice(self, count: int) -> tuple[int, list[int]]:
        """(L, [value(i) * L for i = 1 .. count]), all integers.

        L is K b^t: K the lcm of the prefix's and the block's denominators,
        ratio = a/b, and t the highest power of the ratio among those
        values.  Value i = P + c*len(block) + j + 1 times L is block[j] K
        times a^c b^(t-c), read off two power tables built by repeated
        multiplication.
        """
        pre, block = self.pre[:count], self.block
        k, top = self._lattice_base(count)
        scaled = [v.numerator * (k // v.denominator) for v in block]
        a, b = self.ratio.numerator, self.ratio.denominator
        ups, downs = [1], [1]
        for _ in range(top):
            ups.append(ups[-1] * a)
            downs.append(downs[-1] * b)
        base = downs[-1]
        values = [v.numerator * (k // v.denominator) * base for v in pre]
        for i in range(len(pre), count):
            c, j = divmod(i - len(self.pre), len(block))
            values.append(scaled[j] * ups[c] * downs[top - c])
        return k * base, values

    def _lattice_base(self, count: int) -> tuple[int, int]:
        """K and t of ``lattice(count)``'s L = K b^t."""
        top = max(0, (count - len(self.pre) - 1) // len(self.block))
        return lcm(*(v.denominator for v in self.pre + self.block)), top

    def lattice_bits(self, count: int) -> int:
        """A bound on the bit length of ``lattice(count)``'s L = K b^t, K's
        plus t times b's, found without building L."""
        k, top = self._lattice_base(count)
        return k.bit_length() + top * self.ratio.denominator.bit_length()

    def is_strictly_decreasing(self) -> bool:
        """Exact check over one period boundary proves it for all indices."""
        probe = len(self.pre) + 2 * len(self.block) + 1
        seq = [self.value(i) for i in range(1, probe + 1)]
        return all(a > b for a, b in zip(seq, seq[1:]))

    def to_json(self) -> dict:
        return {
            "pre": [rat_str(v) for v in self.pre],
            "block": [rat_str(v) for v in self.block],
            "ratio": rat_str(self.ratio),
        }

    @staticmethod
    def from_json(doc: dict, name: str) -> "BlockGeometric":
        """Parse the spec field ``name``, an object of "pre", "block" and "ratio"."""
        return BlockGeometric(
            tuple(rat(v) for v in json_array(doc.get("pre", []), f"{name}.pre")),
            tuple(rat(v) for v in json_array(doc["block"], f"{name}.block")),
            rat(doc["ratio"]),
        )


def geometric(start: RationalLike, ratio: RationalLike) -> BlockGeometric:
    """Plain geometric scale start, start*ratio, start*ratio^2, ..."""
    return BlockGeometric((), (rat(start),), rat(ratio))


_JSON_TYPES = {
    str: "a string",
    dict: "an object",
    bool: "a boolean",
    int: "a number",
    float: "a number",
    type(None): "null",
}


def json_array(value, field: str) -> list:
    """``value``, the list-valued spec field ``field``, when it is a JSON array.

    Anything else is refused, since a string or an object would otherwise be
    iterated silently: "21" as [2, 1], and {"3": 1, "2": 2} as its keys.
    """
    if not isinstance(value, list):
        kind = _JSON_TYPES.get(type(value), type(value).__name__)
        raise ValueError(f"spec field {field!r} must be a JSON array, not {kind}")
    return value


def is_int(value) -> bool:
    """An int that is not a bool: JSON ``true`` must not pass for 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def periodic_tail(
    weight: Callable[[int], Fraction],
    k: int,
    preperiod: int,
    period: int,
    ratio: Fraction,
) -> Fraction:
    """Exact sum of weight(i) over i > k.

    Valid when weight(i + period) == ratio * weight(i) for every i >
    preperiod, with 0 < ratio < 1: past max(k, preperiod) the weights are
    one period block repeated at ratio, ratio^2, ..., so the tail is the
    head up to there plus that block over 1 - ratio.
    """
    if k < 0:
        raise ValueError("tail indices start at 0")
    start = max(k, preperiod)
    head = sum((weight(i) for i in range(k + 1, start + 1)), Fraction(0))
    block = sum((weight(i) for i in range(start + 1, start + period + 1)), Fraction(0))
    return head + block / (1 - ratio)
