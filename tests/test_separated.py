"""Separated levels: the shortcuts that facts (A) and (B) allow, against the
generic paths they skip.

Level n is separated when every gap of F_n exceeds r_n.  Every level in a
pattern's leading run of Kakeya indices is one (see the ``series``
docstring), and there the ladder interleaves instead of merging, sweeps
with no gap scan, the tight trend reads 0, the row writer slices the
previous row's strings into place and the outer multiple-representation
set is empty.  Over random specs of every family, each shortcut must give
what the generic path gives, at every level up to depth 12.
"""

from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from cantorval.classify import resolve_stream
from cantorval.engine import IterationRows
from cantorval.families import multigeometric, spec_from_json
from cantorval.series import (
    GREATER,
    ZERO_LEVEL,
    Bricks,
    CapacityError,
    SubsumLadder,
    subsum_level,
)
from cantorval.tightness import tight_trend
from cantorval.uniqueness import _multirep_sweep

from oracles import iteration_row_text
from test_cli import gf_json, kyiv_json, multigeometric_json
from test_families import mg_specs, mm_specs
from test_uniqueness import repeated_specs

DEPTH = 12


def leading_run(stream) -> int:
    """The last level, up to DEPTH, of the pattern's leading run of Kakeya indices."""
    comparison_at = stream.kakeya_pattern().comparison_at
    n = 0
    while n < DEPTH and comparison_at(n + 1) == GREATER:
        n += 1
    return n


def gap_scan(ladder: SubsumLadder, n: int) -> Bricks:
    """I_n cut at every gap of F_n wider than r_n, one pair at a time."""
    d, values, reach = ladder.on_tail_lattice(n)
    starts, ends = [values[0]], []
    for a, b in zip(values, values[1:]):
        if b - a > reach:
            ends.append(a + reach)
            starts.append(b)
    ends.append(values[-1] + reach)
    return Bricks(d, tuple(starts), tuple(ends))


def consecutive_overlaps(ladder: SubsumLadder, k: int) -> tuple[int, list[int], list[int]]:
    """The outer multiple-representation set, walked over every pair of
    neighbours of F_k: [g, f + r_k] for each f < g with g - f <= r_k, merged."""
    d, values, reach = ladder.on_tail_lattice(k)
    starts: list[int] = []
    ends: list[int] = []
    for a, b in zip(values, values[1:]):
        if b - a <= reach:
            if ends and b <= ends[-1]:
                ends[-1] = a + reach
            else:
                starts.append(b)
                ends.append(a + reach)
    return d, starts, ends


@st.composite
def kakeya_led_specs(draw):
    """Coefficients that each exceed the sum of the smaller ones, or nearly
    do, and q = 1/b: the pattern often starts with a run of Kakeya indices,
    of any length, and the stream often has a preperiod."""
    coefficients = [draw(st.integers(1, 3))]
    for _ in range(draw(st.integers(0, 4))):
        coefficients.append(sum(coefficients) + draw(st.integers(0, 6)))
    return multigeometric(coefficients[::-1], F(1, draw(st.integers(2, 30))))


def _spec(drawn):
    return spec_from_json(drawn) if isinstance(drawn, dict) else drawn


@given(
    st.one_of(
        kakeya_led_specs(),
        mg_specs(),
        multigeometric_json(),
        gf_json(),
        mm_specs(),
        kyiv_json(),
        repeated_specs(),
    )
)
# every index a Kakeya index: all twelve levels are separated
@example(multigeometric([2], "1/3"))
# a preperiod (k_m < k_1 q) whose first index is a Kakeya one
@example(multigeometric([6, 1], "1/4"))
# level 3 is separated outside the leading run, which is empty
@example(multigeometric([5, 5, 5], "1/5"))
# I_7 has twice the parts of I_6, which is not separated, and they do not
# alternate: the row writer must not slice row 6's strings into place
@example(multigeometric([9, 9, 8, 2], "1/6"))
@settings(max_examples=120, deadline=None)
def test_shortcuts_match_the_generic_paths(drawn):
    try:
        stream = resolve_stream(_spec(drawn))
    except (ValueError, CapacityError):
        return  # a spec the family refuses has no levels
    ladder = SubsumLadder(stream)
    run = leading_run(stream)
    level = ZERO_LEVEL
    for n in range(DEPTH + 1):
        if n:
            level = level.extend(stream.term(n), ladder.cap)
        # the interleaved levels are the merge's fold
        assert ladder.level(n) == level
        separated = ladder.separated(n)
        if n <= run:
            # fact (A): starts F_n, ends F_n + r_n, every gap wider than r_n
            assert separated
            d, values, reach = ladder.on_tail_lattice(n)
            bricks = ladder.bricks(n)
            assert bricks == Bricks(d, values, tuple(v + reach for v in values))
            assert all(b - a > reach for a, b in zip(values, values[1:]))
        if separated:
            assert ladder.bricks(n) == gap_scan(ladder, n)
            if n:
                assert _multirep_sweep(ladder, n) == consecutive_overlaps(ladder, n)
    bricks = [ladder.bricks(n) for n in range(1, DEPTH + 1)]
    lengths_based = [
        (n, F(max(b.lengths()), b.denominator) - stream.tail(n))
        for n, b in enumerate(bricks, start=1)
    ]
    assert tight_trend(ladder, DEPTH).rows == tuple(lengths_based)
    rows = IterationRows(ladder, DEPTH)
    inner = "\n    "
    expected = "[" + inner + ("," + inner).join(iteration_row_text(row, inner) for row in rows)
    assert "".join(rows.chunks("\n  ")) == expected + "\n  ]"


def test_leading_run_is_sufficient_not_necessary():
    # (5, 5, 5; 1/5): x_n = 1 for n = 1, 2, 3, against r_1 = 11/4,
    # r_2 = 7/4 and r_3 = 3/4, so the leading run is empty, yet
    # F_3 = {0, 1, 2, 3} has gaps 1 > r_3
    stream = resolve_stream(multigeometric([5, 5, 5], "1/5"))
    ladder = SubsumLadder(stream)
    assert [stream.tail(n) for n in (1, 2, 3)] == [F(11, 4), F(7, 4), F(3, 4)]
    assert leading_run(stream) == 0
    assert [ladder.separated(n) for n in range(4)] == [True, False, False, True]
    assert ladder.level(3).values == (0, 1, 2, 3)
    assert len(ladder.bricks(3)) == 4


@pytest.mark.parametrize("cap", [1, 15, 16])
def test_interleaved_level_is_refused_before_it_is_built(cap):
    # middle thirds: every level is interleaved, and F_4 has 16 values; the
    # cap fires with the merge's size, 2 |F_3|, before anything is stored,
    # and asking again fails the same way
    ladder = SubsumLadder(resolve_stream(multigeometric([2], "1/3")), cap)
    if cap == 16:
        assert len(ladder.level(4)) == 16
        return
    for _ in range(2):
        with pytest.raises(CapacityError) as info:
            ladder.level(4)
        error = info.value
        assert (error.stage, error.cap) == ("subsum_ladder", cap)
        assert error.size == 2 * len(ladder._levels[-1])
    assert len(ladder._levels) == (1 if cap == 1 else 4)


def test_interleaving_rescales_to_the_term_lattice():
    level = subsum_level([F(1, 2)])  # {0, 1/2} over 2
    got = level.interleave(F(1, 3), 10)
    assert (got.denominator, got.values) == (6, (0, 2, 3, 5))
    assert got == level.extend(F(1, 3), 10)
