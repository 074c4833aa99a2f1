"""Multigeometric series: m geometric series with a common ratio, interleaved.

The series sum(k_1, ..., k_m; q) is the multiset of terms k_i * q^j, j >= 1,
listed in nonincreasing order and grouped in runs of m consecutive terms.
When k_m >= k_1 q the runs are the groups (k_1 q^j, ..., k_m q^j) and
x_{(j-1)m+i} = k_i * q^j; otherwise the coefficients' geometric sequences
overlap, and only after a finite preperiod is every run q times the one
before it.  Its achievement set does not depend on the order of the terms
and is self-similar: the unscaled coefficients contribute the block subsum
set K, and the rest is a scaled copy, E = q * (K + E).  That identity drives
the interval engine; the Kakeya term-vs-tail analysis reads the sorted
stream.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Optional

from ..exact import rat, rat_str, RationalLike
from ..frozen import frozen
from ..series import CapacityError, SelfSimilar, subsum_level
from .grouped import GroupedStream, sorted_stream
from .io import json_array


@frozen
class MultigeometricSpec:
    """Coefficients k_1 >= ... >= k_m > 0 (rationals allowed) and ratio q in (0,1)."""

    coefficients: tuple[Fraction, ...]
    ratio: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "coefficients", tuple(rat(c) for c in self.coefficients)
        )
        object.__setattr__(self, "ratio", rat(self.ratio))
        if not self.coefficients:
            raise ValueError("need at least one coefficient")
        if any(c <= 0 for c in self.coefficients):
            raise ValueError("coefficients must be positive")
        for a, b in zip(self.coefficients, self.coefficients[1:]):
            if b > a:
                raise ValueError("coefficients must be nonincreasing")
        if not (0 < self.ratio < 1):
            raise ValueError("ratio must lie in (0, 1)")

    @property
    def m(self) -> int:
        return len(self.coefficients)

    @property
    def coefficient_sum(self) -> Fraction:
        return sum(self.coefficients, Fraction(0))

    @property
    def total(self) -> Fraction:
        """r_0 = (sum of coefficients) * q / (1 - q)."""
        return self.coefficient_sum * self.ratio / (1 - self.ratio)

    def to_json(self) -> dict:
        return {
            "type": "multigeometric",
            "k": [
                c.numerator if c.denominator == 1 else rat_str(c)
                for c in self.coefficients
            ],
            "q": rat_str(self.ratio),
        }

    @staticmethod
    def from_json(doc: dict) -> "MultigeometricSpec":
        return MultigeometricSpec(
            tuple(rat(c) for c in json_array(doc["k"], "k")), rat(doc["q"])
        )

    def stream(self) -> GroupedStream:
        """The terms k_i q^j (j >= 1) in nonincreasing order, in runs of m.

        Group j is the j-th run of m consecutive sorted terms, with period 1
        and block ratio q.  The preperiod is the least P with group(j+1) ==
        q * group(j) for every j > P.  It is 0 exactly when k_m >= k_1 q,
        and then group j is (k_1 q^j, ..., k_m q^j).  The lattice is K b^J,
        with K the lcm of the coefficients' denominators, q = a/b and J
        high enough for every power of q in the runs and the run after them.
        """
        lattice = lcm(*(c.denominator for c in self.coefficients))
        period = [c.numerator * (lattice // c.denominator) for c in self.coefficients]
        return sorted_stream((), period, lattice, self.ratio.numerator, self.ratio.denominator)

    def conditions(self) -> list[dict]:
        """``validate``'s rows: the constructor already enforced them all."""
        return [
            {
                "name": "coefficients nonincreasing positive, ratio in (0,1)",
                "passed": True,
                "witness": str(self.to_json()),
            }
        ]

    def family_verdict(self) -> None:
        """No closed form decides the type; classify reads the stream instead."""
        return None


def multigeometric(coefficients, ratio: RationalLike) -> MultigeometricSpec:
    return MultigeometricSpec(tuple(rat(c) for c in coefficients), rat(ratio))


@lru_cache(maxsize=64)
def self_similar(subject) -> Optional[SelfSimilar]:
    """E = q * (K + E) for a multigeometric spec, K the subsum set of the
    coefficients on the lattice of their denominators' lcm; None for any
    other subject, a TermStream too, and for a block over DEFAULT_CAP.

    The value is the operator and keeps its run-window union, and the
    separated-block test reads it too, so it is kept per spec, a refusal
    too: an over-capacity block is folded once per spec.
    """
    if not isinstance(subject, MultigeometricSpec):
        return None
    try:
        block = subsum_level(subject.coefficients)
    except CapacityError:
        return None
    return SelfSimilar(block, subject.ratio, subject.total, subject.m)
