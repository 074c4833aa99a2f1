"""Marchwicki-Miska series.

Block s uses the coefficients b^n with n = gaps[s]:
b_1 = 2^(n+1), b_2 = 2^n + 1, b_i = 2^(n+3-i) for 3 <= i <= n+2, scaled by
q_s where q_1 = 1 and q_{s+1} = q_s / (3 * 2^(gaps[s+1])).  The subsums of one
block form two sparse progressions around a solid run of integers, so long
runs survive scaling and the achievement sets are Cantorvals even though the
reversed Kakeya indices are sparse.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..exact import PointSet
from .grouped import GroupedStream
from .periodic import PeriodicSeq, is_int


def mm_block_coefficients(n: int) -> tuple[int, ...]:
    """Unscaled coefficients of a block with gap parameter n >= 1."""
    if n < 1:
        raise ValueError("gap parameter must be at least 1")
    return (2 ** (n + 1), 2**n + 1) + tuple(2 ** (n + 3 - i) for i in range(3, n + 3))


def mm_block(n: int) -> PointSet:
    """Closed-form subsum set of one unscaled block.

    {2i-2 : 1 <= i <= 2^(n-1)} u {i : 2^n <= i <= 4*2^n - 1}
    u {4*2^n - 1 + 2i : 1 <= i <= 2^(n-1)}.
    """
    if n < 1:
        raise ValueError("gap parameter must be at least 1")
    low = [2 * i - 2 for i in range(1, 2 ** (n - 1) + 1)]
    run = list(range(2**n, 4 * 2**n))
    high = [4 * 2**n - 1 + 2 * i for i in range(1, 2 ** (n - 1) + 1)]
    return PointSet.from_values(low + run + high)


def mm_block_sum(n: int) -> int:
    """Total of one unscaled block: 5 * 2^n - 1."""
    return 5 * 2**n - 1


@dataclass(frozen=True)
class MMSpec:
    """Eventually periodic gap parameters n_s >= 1 (one per block)."""

    gaps: PeriodicSeq

    def __post_init__(self) -> None:
        for s in range(1, self.gaps.preperiod_length + self.gaps.period_length + 1):
            v = self.gaps[s]
            if not is_int(v) or v < 1:
                raise ValueError(f"gap parameter n_{s} must be an integer >= 1, got {v!r}")

    @property
    def group_preperiod(self) -> int:
        return self.gaps.preperiod_length

    @property
    def group_period(self) -> int:
        return self.gaps.period_length

    def to_json(self) -> dict:
        return {"type": "mm", "gaps": self.gaps.to_json()}

    @staticmethod
    def from_json(doc: dict) -> "MMSpec":
        return MMSpec(PeriodicSeq.from_json(doc["gaps"]))


def mm_stream(spec: MMSpec) -> GroupedStream:
    """Block k carries mm_block_coefficients(gaps[k]) scaled by q_k."""
    # group k + L = ratio * group k needs gaps[k] and the q-recurrence
    # steps between k and k + L all periodic, hence the + 1.
    pre, period = spec.group_preperiod + 1, spec.group_period
    groups, q = [], Fraction(1)
    for k in range(1, pre + 2 * period + 1):
        if k > 1:
            q /= 3 * 2 ** spec.gaps[k]
        groups.append(tuple(b * q for b in mm_block_coefficients(spec.gaps[k])))
    return GroupedStream(groups, pre, period)
