"""Separated levels: the shortcuts that facts (A) and (B) allow, against the
generic paths they skip.

Level n is separated when every gap of F_n exceeds r_n.  A Kakeya level
after a separated level is one (fact (B) of the ``series`` docstring), and
there the ladder interleaves instead of merging and sweeps with no gap
scan; at any separated level the tight trend reads 0, the row writer
slices the previous row's strings into place and the outer
multiple-representation set is empty.  Over random specs of every family,
each shortcut must give what the generic path gives, at every level up to
depth 12.  Where fact (C) proves a new half of a row in lowest terms, the
row writer formats it with no gcd; every numerator it so writes must be
coprime to its denominator.
"""

from __future__ import annotations

from fractions import Fraction as F
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from cantorval import engine
from cantorval.classify import resolve_stream
from cantorval.engine import IterationRows
from cantorval.families import multigeometric, spec_from_json
from cantorval import series
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
# level 3 is separated, though level 2 is not: it is merged and gap-swept
@example(multigeometric([5, 5, 5], "1/5"))
# the pattern starts <, >, >: level 2 is separated, so levels 3 and 6
# follow a separated level
@example(multigeometric([9, 9, 6], "1/10"))
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
    comparison_at = stream.kakeya_pattern().comparison_at
    level = ZERO_LEVEL
    for n in range(DEPTH + 1):
        after_separated = n > 0 and comparison_at(n) == GREATER and ladder.separated(n - 1)
        if n:
            term = stream.term(n)
            if after_separated:
                # fact (B): F_n interleaves F_{n-1} with F_{n-1} + x_n
                assert ladder.level(n) == level.interleave(term, ladder.cap)
            level = level.extend(term, ladder.cap)
        # the interleaved levels are the merge's fold
        assert ladder.level(n) == level
        separated = ladder.separated(n)
        if after_separated:
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


def test_levels_after_a_separated_level_are_built_without_sorting(monkeypatch):
    # (9, 9, 6; 1/10): the pattern repeats <, >, >.  F_1 = {0, 9/10} has a
    # gap below r_1 = 53/30, so level 1 is not separated and level 2 is
    # merged, but its gaps 9/10 exceed r_2 = 13/15: levels 3 and 6 each
    # follow a separated level, and are interleaved instead of sorted
    stream = resolve_stream(multigeometric([9, 9, 6], "1/10"))
    ladder = SubsumLadder(stream)
    assert [stream.kakeya_pattern().comparison_at(n) for n in range(1, 7)] == list("<>><>>")
    assert (stream.tail(1), stream.tail(2)) == (F(53, 30), F(13, 15))
    built = []
    monkeypatch.setattr(
        series, "sorted", lambda runs: built.append(len(ladder._levels)) or sorted(runs),
        raising=False,
    )
    ladder.level(6)
    assert built == [1, 2, 4, 5]
    assert [ladder.separated(n) for n in range(7)] == [True, False, True, True, False, True, True]


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


def all_kakeya(spec) -> bool:
    pattern = resolve_stream(spec).kakeya_pattern()
    return set(pattern.prefix + pattern.cycle) == {GREATER}


# (k; 1/b) and (k1, k2; 1/b) with every index a Kakeya index, so every row
# after row 0 follows a separated row; (m (b - 1); 1/b) has r_n = m / b^n,
# so its lattice often grows every prime
all_kakeya_specs = st.one_of(
    st.builds(lambda k, b: multigeometric([k], F(1, b)), st.integers(1, 40), st.integers(3, 40)),
    st.builds(
        lambda m, b: multigeometric([m * (b - 1)], F(1, b)), st.integers(1, 12), st.integers(3, 40)
    ),
    st.builds(
        lambda k1, k2, b: multigeometric([max(k1, k2), min(k1, k2)], F(1, b)),
        st.integers(1, 40),
        st.integers(1, 40),
        st.integers(2, 40),
    ),
).filter(all_kakeya)


def gcd_free_rows(spec, depth: int) -> tuple[list[tuple[list[int], int]], bool]:
    """The (numerators, denominator) of each call of the gcd-free formatter
    while the rows to ``depth`` are written, and whether that text equals
    the rows with every endpoint formatted anew."""
    rows = IterationRows(SubsumLadder(resolve_stream(spec)), depth)
    calls = []
    coprime_strs = engine.coprime_strs

    def recording(ks, d):
        calls.append((list(ks), d))
        return coprime_strs(ks, d)

    with mock.patch.object(engine, "coprime_strs", recording):
        text = "".join(rows.chunks("\n  "))
    inner = "\n    "
    expected = "[" + inner + ("," + inner).join(iteration_row_text(row, inner) for row in rows)
    return calls, text == expected + "\n  ]"


@given(all_kakeya_specs)
# the lattice grows by 3, 5 or 10 per row and both steps are coprime to it
@example(multigeometric([2], "1/3"))
@example(multigeometric([4], "1/5"))
@example(multigeometric([9], "1/10"))
# r_n = 3 / (4 * 5^n): the prime 2 of d = 4 * 5^n does not grow
@example(multigeometric([3], "1/5"))
@settings(max_examples=150, deadline=None)
def test_gcd_free_halves_are_in_lowest_terms(spec):
    calls, same_text = gcd_free_rows(spec, DEPTH)
    for ks, d in calls:
        assert all(gcd(k, d) == 1 for k in ks)
    assert same_text


@pytest.mark.parametrize(
    "coefficients, ratio, gcd_free",
    [
        ([2], "1/3", 2**13 - 2),
        ([4], "1/5", 2**13 - 2),
        ([9], "1/10", 2**13 - 2),
        ([3], "1/5", 0),
    ],
)
def test_gcd_free_path_fires_where_every_prime_grows(coefficients, ratio, gcd_free):
    # rows 1..12 each format 2^n new strings, all with no gcd when fact (C)
    # holds at every row; for (3; 1/5) it holds at none
    calls, same_text = gcd_free_rows(multigeometric(coefficients, ratio), DEPTH)
    assert same_text
    assert sum(len(ks) for ks, _ in calls) == gcd_free
