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

import operator
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Optional

from ..exact import rat, rat_str, RationalLike
from ..frozen import frozen
from ..series import DEFAULT_CAP, CapacityError, SelfSimilar, subsum_level
from .grouped import GroupedStream, check_head, power_bits
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
        high enough for every power of q in the runs and the run after them
        (see _sorted_head).
        """
        runs, denominator = _sorted_head(self)
        a, b = self.ratio.numerator, self.ratio.denominator
        tail_run = tuple(x * a // b for x in runs[-1])
        return GroupedStream(runs + [tail_run], denominator, len(runs) - 1, 1)

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


def _sorted_head(spec: MultigeometricSpec) -> tuple[list[tuple[int, ...]], int]:
    """Runs 1..P+1 of the sorted terms, P the least preperiod, as numerators
    over their lattice, and that lattice.

    For x <= k_m q the terms >= q x are the terms >= x scaled by q plus
    k_1 q, ..., k_m q, so a run lying wholly at or below k_m q is followed
    by q times itself.  The first N = sum_i e_i terms exceed k_m q, with
    e_i = #{e >= 0 : k_i q^e > k_m}, which bounds P by ceil(N / m).  Each
    window (k_m q^(t+1), k_m q^t] holds one term of every coefficient, so
    the first (ceil(N / m) + 1) m terms are the largest of the k_i q^j with
    j <= e_i + 2.  With K the lcm of the coefficients' denominators and
    q = a/b, those lie on the lattice K b^J, J = e_1 + 3, which leaves room
    for q times the last run; each coefficient's run is one power of b and
    then a multiplication by a and an exact division by b per term, and one
    sort of the m decreasing runs merges them.  Before any term is built,
    ``check_head`` weighs the count against ``power_bits``' bound on the
    bit length of K b^J.
    """
    a, b, m = spec.ratio.numerator, spec.ratio.denominator, spec.m
    lattice = lcm(*(c.denominator for c in spec.coefficients))
    coefficients = [c.numerator * (lattice // c.denominator) for c in spec.coefficients]
    exponents = _exponents_above(coefficients, a, b, m)
    count = (-(-sum(exponents) // m) + 1) * m
    top = exponents[0] + 3
    check_head(count + m, power_bits(lattice, b, top))
    scale = a * b ** (top - 1)
    terms = []
    for c, e in zip(coefficients, exponents):
        x = c * scale
        terms.append(x)
        for _ in range(e + 1):
            x = x * a // b
            terms.append(x)
    terms.sort(reverse=True)
    runs = [tuple(terms[s : s + m]) for s in range(0, count, m)]
    # drop each last run that is q times the run before it
    while len(runs) > 1 and not any(
        map(operator.ne, map(b.__mul__, runs[-1]), map(a.__mul__, runs[-2]))
    ):
        runs.pop()
    return runs, lattice * b**top


_BITS, _LEAP = 64, 64


def _exponents_above(coefficients: list[int], a: int, b: int, m: int) -> list[int]:
    """e_i = #{e >= 0 : k_i q^e > k_m} for each k_i on one lattice, q = a/b.

    Counted on integer bounds lo <= k_i q^e / k_m * 2^64 <= hi, rounded
    down and up at each step, so a step costs the same at every e.  The
    count leaps 64 steps at a time while lo stays above 1 after the leap,
    then goes one step at a time; only a near-tie that the bounds leave
    open is decided on k_i a^e and k_m b^e.  Raises CapacityError for stage
    ``stream_head`` as soon as the groups these counts imply,
    (ceil(N / m) + 2) m terms, would pass DEFAULT_CAP; it names the size
    where the count stopped.
    """
    low, one = coefficients[-1], 1 << _BITS
    limit = (DEFAULT_CAP // m - 2) * m
    a_leap, b_leap = a**_LEAP, b**_LEAP
    total = 0
    exponents = []
    for c in coefficients:
        lo = (c << _BITS) // low
        hi = -(-(c << _BITS) // low)
        e = 0
        leaping = True
        while lo > one or (hi > one and c * a**e > low * b**e):
            if leaping and (far := lo * a_leap // b_leap) > one:
                step, lo, hi = _LEAP, far, -(-hi * a_leap // b_leap)
            else:
                leaping = False
                step, lo, hi = 1, lo * a // b, -(-hi * a // b)
            e += step
            total += step
            if total > limit:
                check_head((-(-total // m) + 2) * m, 0)
        exponents.append(e)
    return exponents


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
