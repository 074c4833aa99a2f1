"""Tight decompositions of finite point sets.

A finite set splits uniquely into maximal blocks whose consecutive gaps do
not exceed a threshold eps; the largest block diameter, evaluated at
eps = r_n over the subsum sets F_n, is the quantity whose positive limit
characterizes achievement sets containing an interval.  All comparisons are
exact: a gap equal to eps stays inside a block, anything larger splits.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import PointSet, rat, rat_str, RationalLike
from .frozen import frozen
from .series import SubsumLadder


@frozen
class TightDecomposition:
    """Maximal eps-tight blocks of a point set, as index ranges.

    blocks[i] = (start, end) are inclusive indices into the underlying
    values; diameters[i] is the exact diameter of that block.
    """

    epsilon: Fraction
    blocks: tuple[tuple[int, int], ...]
    diameters: tuple[Fraction, ...]

    @property
    def max_diameter(self) -> Fraction:
        return max(self.diameters)


def tight_decompose(points: PointSet, eps: RationalLike) -> TightDecomposition:
    """Split at every gap strictly exceeding eps (single left-to-right sweep)."""
    e = rat(eps)
    if e < 0:
        raise ValueError("eps must be nonnegative")
    if len(points) == 0:
        raise ValueError("cannot decompose an empty point set")
    blocks: list[tuple[int, int]] = []
    start = 0
    values = points.values
    for i in range(1, len(values)):
        if values[i] - values[i - 1] > e:
            blocks.append((start, i - 1))
            start = i
    blocks.append((start, len(values) - 1))
    diameters = tuple(values[b] - values[a] for a, b in blocks)
    return TightDecomposition(epsilon=e, blocks=tuple(blocks), diameters=diameters)


def max_tight_diameter(points: PointSet, eps: RationalLike) -> Fraction:
    """Largest diameter among the maximal eps-tight blocks."""
    return tight_decompose(points, eps).max_diameter


@frozen
class TightTrend:
    """Exact values of the largest r_n-tight block diameter of F_n.

    ``interval_evidence`` is finite-horizon evidence only (the true criterion
    is a limit): the final value is positive and the values over the last
    third of the horizon are bounded away from zero.
    """

    rows: tuple[tuple[int, Fraction], ...]
    interval_evidence: bool

    @property
    def final(self) -> Fraction:
        return self.rows[-1][1]

    def to_json(self) -> dict:
        return {
            "rows": [[n, rat_str(v)] for n, v in self.rows],
            "interval_evidence": self.interval_evidence,
        }


def _max_block_diameter(ladder: SubsumLadder, n: int) -> Fraction:
    # The r_n-tight blocks of F_n are the parts of I_n, each r_n longer
    # than its block; on the lattice a gap splits when gap > r_n D exactly.
    # A separated level's blocks are single points.
    if ladder.separated(n):
        return Fraction(0)
    bricks = ladder.bricks(n)
    i = bricks.longest
    return Fraction(bricks.ends[i] - bricks.starts[i], bricks.denominator) - ladder.stream.tail(n)


def tight_trend(ladder: SubsumLadder, depth: int) -> TightTrend:
    """Largest r_n-tight block diameter of F_n for n = 1..depth."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    rows = tuple((n, _max_block_diameter(ladder, n)) for n in range(1, depth + 1))
    window_start = max(1, (2 * depth) // 3 + 1)
    window = [v for n, v in rows if n >= window_start]
    evidence = rows[-1][1] > 0 and all(v > 0 for v in window)
    return TightTrend(rows=rows, interval_evidence=evidence)
