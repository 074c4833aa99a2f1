"""Repeated-term series: strictly decreasing base values, each repeated.

Base value y_i appears K_i times, so group i of the stream is K_i copies of
y_i.  The semi-fast inequality y_k > sum_{i>k} K_i y_i forces global
uniqueness of representations over the repetition alphabet, and with it a
Cantor-type achievement set.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional

from ..frozen import frozen
from .grouped import GroupedStream, check_head, periodic_tail
from .io import is_int
from .periodic import BlockGeometric, PeriodicSeq


@frozen
class RepeatedTermSpec:
    """Strictly decreasing base values y_i, each repeated counts[i] times.

    y is block-geometric (exact tails) and the counts are eventually
    periodic, so the expanded stream has exact group structure.
    """

    y: BlockGeometric
    counts: PeriodicSeq

    def __post_init__(self) -> None:
        if not self.y.is_strictly_decreasing():
            raise ValueError("base values must be strictly decreasing")
        probe = self.counts.preperiod_length + self.counts.period_length
        for i in range(1, probe + 1):
            c = self.counts[i]
            if not is_int(c) or c < 1:
                raise ValueError(f"repetition count K_{i} must be a positive integer")

    @property
    def group_preperiod(self) -> int:
        blocks_needed = -(-self.y.preperiod_length // self.y.block_length)
        return max(self.counts.preperiod_length, self.y.preperiod_length, blocks_needed)

    @property
    def group_period(self) -> int:
        return lcm(self.counts.period_length, self.y.block_length)

    @property
    def block_ratio(self) -> Fraction:
        return self.y.ratio ** (self.group_period // self.y.block_length)

    def weighted_tail(self, k: int) -> Fraction:
        """Exact sum over i > k of counts[i] * y_i (base-value indexing)."""
        return periodic_tail(
            lambda i: self.counts[i] * self.y.value(i),
            k,
            self.group_preperiod,
            self.group_period,
            self.block_ratio,
        )

    def to_json(self) -> dict:
        return {
            "type": "repeated",
            "y": self.y.to_json(),
            "counts": self.counts.to_json(),
        }

    @staticmethod
    def from_json(doc: dict) -> "RepeatedTermSpec":
        return RepeatedTermSpec(
            BlockGeometric.from_json(doc["y"], "y"),
            PeriodicSeq.from_json(doc["counts"], "counts"),
        )

    def stream(self) -> GroupedStream:
        """Expanded stream: group i is counts[i] copies of y_i.

        The lattice is that of y_1 .. y_(P+2p): the lcm of their prefix's
        and block's denominators times a power of the ratio's denominator
        (``BlockGeometric.lattice``).
        """
        pre, period = self.group_preperiod, self.group_period
        count = pre + 2 * period
        check_head(sum(self.counts[i] for i in range(1, count + 1)), self.y.lattice_bits(count))
        denominator, values = self.y.lattice(count)
        groups = [(y,) * self.counts[i] for i, y in enumerate(values, 1)]
        return GroupedStream(groups, denominator, pre, period)

    def conditions(self) -> list[dict]:
        """``validate``'s one row: the semi-fast inequality."""
        report = semifast_check(self)
        return [
            {
                "name": "semi-fast: y_k > tail of K_i y_i",
                "passed": report.semifast,
                "witness": (
                    "all indices"
                    if report.semifast
                    else f"fails at k={report.first_violation}"
                ),
            }
        ]

    def family_verdict(self) -> Optional[tuple[str, dict]]:
        """A Cantor set when the series is semi-fast, with the check as witness."""
        report = semifast_check(self)
        if not report.semifast:
            return None
        return "Cantor", {"family": "repeated", "semifast": report.to_json()}

    def semifast(self) -> SemifastResult:
        """``semifast_check`` of this spec.  A spec with this method gets the
        report's ``semifast`` and ``representation_oracle`` fields."""
        return semifast_check(self)


@frozen
class SemifastResult:
    """Exact verdict of the semi-fast inequality y_k > sum_{i>k} K_i y_i."""

    semifast: bool
    first_violation: Optional[int]
    checked_through: int

    def to_json(self) -> dict:
        return {
            "semifast": self.semifast,
            "first_violation": self.first_violation,
            "checked_through": self.checked_through,
        }


def semifast_check(spec: RepeatedTermSpec) -> SemifastResult:
    """Decide the semi-fast inequality for every k.

    Both sides scale by the same factor across a period of base indices, so
    checking through preperiod + period decides all k.  When the
    inequality holds, every achieved point has exactly one representation
    over the repetition alphabet, forcing a Cantor-type achievement set.
    """
    limit = spec.group_preperiod + spec.group_period
    violation = None
    for k in range(1, limit + 1):
        if not spec.y.value(k) > spec.weighted_tail(k):
            violation = k
            break
    return SemifastResult(
        semifast=violation is None,
        first_violation=violation,
        checked_through=limit,
    )
