"""Eventually-periodic integer sequences and block-geometric rational scales.

Family parameters are restricted to these two shapes so that every weight
the package sums to infinity, w(i + period) = ratio * w(i) past a
preperiod, has an exact tail: ``grouped.periodic_tail`` adds the finite
head and one period block over 1 - ratio.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from ..exact import rat, rat_str, RationalLike
from ..frozen import frozen
from .grouped import power_bits
from .io import json_array


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
        """A bound on the bit length of ``lattice(count)``'s L = K b^t, found
        without building L (``grouped.power_bits``)."""
        k, top = self._lattice_base(count)
        return power_bits(k, self.ratio.denominator, top)

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
