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

from ..exact import rat, rat_str, RationalLike
from ..frozen import frozen
from ..series import LatticeLevel, subsum_level
from .grouped import GroupedStream
from .periodic import json_array


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
        and then group j is (k_1 q^j, ..., k_m q^j).
        """
        head = _sorted_head(self)
        tail_run = tuple(self.ratio * t for t in head[-1])
        return GroupedStream(head + (tail_run,), preperiod=len(head) - 1, period=1)

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


def _sorted_head(spec: MultigeometricSpec) -> tuple[tuple[Fraction, ...], ...]:
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


@lru_cache(maxsize=64)
def mg_block(spec: MultigeometricSpec) -> LatticeLevel:
    """Subsum set of the unscaled coefficients {k_1, ..., k_m}, on its lattice.

    This is the translation set of the self-similar operator: the achievement
    set satisfies E = q * (block + E).  Its denominator is the lcm of the
    coefficients' denominators, which every block subsum's denominator
    divides.  It is built once per spec and kept, since the operator, its
    certificate candidates and the separated-block test all read it; a block
    over DEFAULT_CAP raises CapacityError.
    """
    return subsum_level(spec.coefficients)
