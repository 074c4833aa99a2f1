"""Independent brute-force oracles for the test suite.

These deliberately avoid the library's own algorithms: subset enumeration
instead of incremental convolution, endpoint-event merging instead of the
sweep in normalize, exhaustive subset search for tight decompositions.
Expected values frozen in the tests were computed with these.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def brute_subsums(values) -> dict[Fraction, int]:
    """value -> number of subsets achieving it, by full enumeration."""
    acc: dict[Fraction, int] = {}
    vals = [Fraction(v) for v in values]
    for size in range(len(vals) + 1):
        for combo in itertools.combinations(range(len(vals)), size):
            total = sum((vals[i] for i in combo), Fraction(0))
            acc[total] = acc.get(total, 0) + 1
    return acc


def brute_subsum_levels(values) -> list[dict[Fraction, int]]:
    """brute_subsums of every prefix values[:k], k = 0..len(values)."""
    vals = list(values)
    return [brute_subsums(vals[:k]) for k in range(len(vals) + 1)]


def brute_merge(intervals) -> list[tuple[Fraction, Fraction]]:
    """Merge closed intervals by scanning endpoint events."""
    events = []
    for lo, hi in intervals:
        events.append((Fraction(lo), 0, Fraction(hi)))
    events.sort()
    merged: list[list[Fraction]] = []
    for lo, _, hi in events:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(a, b) for a, b in merged]


def brute_measure(intervals) -> Fraction:
    return sum((b - a for a, b in brute_merge(intervals)), Fraction(0))


def brute_bricks(subsum_values, tail) -> list[tuple[Fraction, Fraction]]:
    """Iteration I_n as merged bricks [f, f + tail]."""
    return brute_merge((Fraction(f), Fraction(f) + Fraction(tail)) for f in subsum_values)


def is_tight(points: list[Fraction], eps: Fraction) -> bool:
    return all(b - a <= eps for a, b in zip(points, points[1:]))


def brute_maximal_tight_subsets(points, eps) -> list[tuple[Fraction, ...]]:
    """All maximal eps-tight subsets by O(2^n) enumeration (n <= ~14)."""
    pts = sorted(Fraction(p) for p in points)
    eps = Fraction(eps)
    tight = []
    for size in range(1, len(pts) + 1):
        for combo in itertools.combinations(pts, size):
            if is_tight(list(combo), eps):
                tight.append(combo)
    maximal = [
        c
        for c in tight
        if not any(set(c) < set(d) for d in tight)
    ]
    return sorted(set(maximal))


def brute_max_tight_diameter(points, eps) -> Fraction:
    blocks = brute_maximal_tight_subsets(points, eps)
    return max(b[-1] - b[0] for b in blocks)


def point_in_intervals(x, intervals) -> bool:
    x = Fraction(x)
    return any(Fraction(lo) <= x <= Fraction(hi) for lo, hi in intervals)
