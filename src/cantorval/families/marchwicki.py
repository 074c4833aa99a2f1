"""Marchwicki-Miska series.

Block s uses the coefficients b^n with n = gaps[s]:
b_1 = 2^(n+1), b_2 = 2^n + 1, b_i = 2^(n+3-i) for 3 <= i <= n+2, scaled by
q_s where q_1 = 1 and q_{s+1} = q_s / (3 * 2^(gaps[s+1])).  The subsums of one
block form two sparse progressions around a solid run of integers, so long
runs survive scaling and the achievement sets are Cantorvals even though the
reversed Kakeya indices are sparse.
"""

from __future__ import annotations

from fractions import Fraction

from ..exact import PointSet
from ..frozen import frozen
from .grouped import GroupedStream, check_head
from .io import is_int
from .periodic import PeriodicSeq


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


@frozen
class MMSpec:
    """Eventually periodic gap parameters n_s >= 1 (one per block)."""

    gaps: PeriodicSeq

    standardness_family = "mm"

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

    def interval_length(self, stream: GroupedStream, i: int) -> Fraction:
        """(3 * 2^(n_i) - 1) q_i, group i's weight in ``standardness_ratio``,
        with q_i read off the stream: every block ends with the coefficient 2."""
        q = stream.term(stream.boundary(i)) / 2
        return (3 * 2 ** self.gaps[i] - 1) * q

    def to_json(self) -> dict:
        return {"type": "mm", "gaps": self.gaps.to_json()}

    @staticmethod
    def from_json(doc: dict) -> "MMSpec":
        return MMSpec(PeriodicSeq.from_json(doc["gaps"], "gaps"))

    def stream(self) -> GroupedStream:
        """Block k carries mm_block_coefficients(gaps[k]) scaled by q_k.

        The lattice is the prefix product of 3 * 2^(n_s) over the blocks
        s = 2 .. P + 2p, which q_k = 1 / (3 * 2^(n_2) ... 3 * 2^(n_k))
        divides: q_k times it is the product over s = k + 1 .. P + 2p.  Its
        bit length is at most the sum of the factors', n_s + 2 each.
        """
        # group k + L = ratio * group k needs gaps[k] and the q-recurrence
        # steps between k and k + L all periodic, hence the + 1.
        pre, period = self.group_preperiod + 1, self.group_period
        count = pre + 2 * period
        sizes = [self.gaps[k] + 2 for k in range(1, count + 1)]
        check_head(sum(sizes), sum(sizes[1:]))
        groups, scale = [], 1
        for k in range(count, 0, -1):
            groups.append(tuple(c * scale for c in mm_block_coefficients(self.gaps[k])))
            if k > 1:
                scale *= 3 * 2 ** self.gaps[k]
        groups.reverse()
        return GroupedStream(groups, scale, pre, period)

    def conditions(self) -> list[dict]:
        """``validate``'s one row: the constructor already enforced it."""
        return [
            {
                "name": "gap parameters n_s >= 1, eventually periodic",
                "passed": True,
                "witness": str(self.gaps.to_json()),
            }
        ]

    def family_verdict(self) -> tuple[str, dict]:
        """Every Marchwicki-Miska series achieves a Cantorval."""
        return "Cantorval", {"family": "mm", "gaps": self.gaps.to_json()}
