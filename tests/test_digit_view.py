"""The digit view: every family stream on one integer lattice.

Each family hands ``GroupedStream`` its groups as integer numerators over a
lattice that the spec fixes, and the stream validates, sums its tails and
builds its Kakeya pattern on those integers.  These tests hold it to the
earlier Fraction class, ``oracles.FractionGroupedStream``, fed from each
family's group closed forms: the same terms, tails, boundaries, block ratio
and pattern, and for a spec that the reference refuses, the same exception
with the same message.  A guard counts the Fractions made while a long
stream and its pattern are built, so a slide back to per-term Fraction
arithmetic fails here without a wall-clock bound.  A family counts its head
and bounds its lattice's bit length from the spec's integers, and refuses a
head past DEFAULT_CAP terms or HEAD_BITS bits before it builds any group.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from cantorval.cli import main
from cantorval.families import spec_from_json
from cantorval.families.grouped import HEAD_BITS, GroupedStream, power_bits
from cantorval.families.multigeometric import _exponents_above, multigeometric
from cantorval.families.periodic import BlockGeometric
from cantorval.series import DEFAULT_CAP, CapacityError

from oracles import FractionGroupedStream, lattice_stream, reference_stream
from test_cli import gf_json, kyiv_json, multigeometric_json
from test_families import mm_specs
from test_uniqueness import repeated_specs


def _outcome(build):
    try:
        return build(), None
    except (ValueError, CapacityError) as exc:
        return None, (type(exc), str(exc))


def _spec(drawn):
    return spec_from_json(drawn) if isinstance(drawn, dict) else drawn


@given(st.one_of(multigeometric_json(), gf_json(), mm_specs(), kyiv_json(), repeated_specs()))
# q = a/b with a >= 2, and preperiods of 2 and of many runs (k_m < k_1 q)
@example({"type": "multigeometric", "k": [5, 1], "q": "2/3"})
@example({"type": "multigeometric", "k": [3, 3, 1], "q": "7/10"})
@example({"type": "multigeometric", "k": [3, 2, 2, 1, 1], "q": "9/10"})
# rational coefficients put the lattice on their lcm
@example({"type": "multigeometric", "k": ["7/2", "5/3", "1/6"], "q": "3/4"})
# a gf group that starts above the last term of the group before it
@example(
    {
        "type": "gf",
        "m": {"pre": [], "period": [2]},
        "k": {"pre": [], "period": [5]},
        "q": {"pre": [], "block": ["1"], "ratio": "1/2"},
    }
)
# a Kyiv group with a zero term
@example({"type": "kyiv", "m": {"pre": [1], "period": [4]}, "s": {"pre": [2], "period": [8]}})
@settings(max_examples=150, deadline=None)
def test_streams_match_the_fraction_reference(drawn):
    spec = _spec(drawn)
    reference, refused = _outcome(lambda: reference_stream(spec))
    stream, raised = _outcome(spec.stream)
    assert raised == refused
    if reference is None:
        return
    assert (stream.preperiod, stream.period) == (reference.preperiod, reference.period)
    assert stream.block_ratio == reference.block_ratio
    last = stream.preperiod + 2 * stream.period
    for k in range(0, last + 1):
        assert stream.boundary(k) == reference.boundary(k)
    for k in range(1, last + 1):
        assert stream.group_terms(k) == reference.group_terms(k)
        assert stream.group_sum(k) == reference.group_sum(k)
    count = reference.boundary(last)
    assert stream.terms(count) == reference.terms(count)
    assert [stream.tail(n) for n in range(0, count + 1)] == [
        reference.tail(n) for n in range(0, count + 1)
    ]
    assert stream.kakeya_pattern() == reference.kakeya_pattern()


# Hand-built groups that fail one check each, in the reference's order: the
# boundary into group P + 2p + 1 is checked before the second period.
MALFORMED = [
    ([(4,), (3, 1)], 0, 1),  # group 3 = (9/4, 3/4) starts above 1
    ([(4, 2), (2, 2)], 0, 1),  # group 2 is not (1/2) group 1
    ([(4,), (2,), (2,)], 1, 1),  # block ratio 1
    ([(1,), (2,)], 0, 1),
    ([(3,), (2, 0)], 0, 1),
    ([(1, 2), (1,)], 0, 1),
    ([(1,), ()], 0, 1),
    ([(1,), (F(1, 2),)], 0, 0),
    ([(1,), (F(1, 2),)], 1, 1),
]


@pytest.mark.parametrize("groups,preperiod,period", MALFORMED)
def test_malformed_groups_fail_as_the_reference(groups, preperiod, period):
    _, raised = _outcome(lambda: lattice_stream(groups, preperiod, period))
    _, refused = _outcome(lambda: FractionGroupedStream(groups, preperiod, period))
    assert raised == refused is not None


def test_a_long_head_is_built_without_per_term_fractions(monkeypatch):
    # every Fraction goes through Fraction.__new__ (arithmetic results
    # included on this interpreter), so counting its calls counts them all
    spec = multigeometric([10**9, 1], "199/200")
    made = []
    new = F.__new__

    def counting(cls, *args, **kwargs):
        made.append(None)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting)
    assert F(1, 3) + F(1, 5) == new(F, 8, 15)
    instrumented = len(made)
    assert instrumented >= 2  # the counter sees arithmetic too
    stream = spec.stream()
    pattern = stream.kakeya_pattern()
    built = len(made) - instrumented
    monkeypatch.undo()
    assert stream.boundary(stream.preperiod) == 4_134
    assert len(pattern.prefix) == 4_134
    assert built <= 4


@pytest.mark.parametrize(
    "coefficients,ratio",
    [
        ((10**9, 1), "199/200"),
        ((5, 1), "2/3"),
        (("7/2", "5/3", "1/6"), "3/4"),
        ((3, 3, 3), "1/2"),
        ((8, 4, 2, 1), "1/2"),  # exact ties: 8 (1/2)^3 = 1 is not above 1
        ((10**4, 3, 1), "99/100"),  # e_1 = 917, past many leaps of 64
        ((2**70 + 1, 2**70), "1/2"),  # k_1 / k_m is 1 + 2^-70: the bounds tie
    ],
)
def test_exponents_above_count_every_power(coefficients, ratio):
    # against the plain count: k_i a^e > k_m b^e, one power at a time
    spec = multigeometric(coefficients, ratio)
    a, b = spec.ratio.numerator, spec.ratio.denominator
    lattice = lcm(*(c.denominator for c in spec.coefficients))
    scaled = [int(c * lattice) for c in spec.coefficients]
    expected = []
    for c in scaled:
        x, y, e = c, scaled[-1], 0
        while x > y:
            x, y, e = x * a, y * b, e + 1
        expected.append(e)
    assert _exponents_above(scaled, a, b, spec.m) == expected


@given(
    st.lists(st.fractions(F(1, 50), F(5)), max_size=3),
    st.lists(st.fractions(F(1, 50), F(5)), min_size=1, max_size=3),
    st.fractions(F(1, 20), F(19, 20)),
    st.integers(0, 9),
)
def test_block_geometric_lattice_holds_every_value(pre, block, ratio, count):
    scale = BlockGeometric(tuple(pre), tuple(block), ratio)
    d, values = scale.lattice(count)
    assert [F(v, d) for v in values] == [scale.value(i) for i in range(1, count + 1)]
    assert d.bit_length() <= scale.lattice_bits(count) <= d.bit_length() + 2


@given(st.integers(1, 10**30), st.integers(2, 10**6), st.integers(0, 2000))
@example(1, 2, 64 * 30)  # b = 2 is 1 bit a factor, not b.bit_length() = 2
@example(3, 4, 1000)
@example(1, 2**64, 129)
def test_power_bits_bounds_the_lattice_within_a_bit_per_64_factors(k, b, n):
    exact = (k * b**n).bit_length()
    assert exact <= power_bits(k, b, n) <= exact + n // 64 + 2


# One spec per family whose given groups hold more than DEFAULT_CAP terms:
# about 2 * 10^7 multigeometric terms above k_m q, a Kyiv group of 10^7
# terms, and groups of 3 * 10^6 coefficients, blocks or repetitions.
OVERSIZED = {
    "multigeometric": {"type": "multigeometric", "k": [10**9, 1], "q": "999999/1000000"},
    "kyiv": {
        "type": "kyiv",
        "m": {"pre": [10**7], "period": [4]},
        "s": {"pre": [8], "period": [8]},
    },
    "gf": {
        "type": "gf",
        "m": {"pre": [], "period": [2]},
        "k": {"pre": [3 * 10**6], "period": [3]},
        "q": {"pre": [], "block": ["1/10"], "ratio": "1/10"},
    },
    "mm": {"type": "mm", "gaps": {"pre": [3 * 10**6], "period": [1]}},
    "repeated": {
        "type": "repeated",
        "y": {"pre": [], "block": ["1/4"], "ratio": "1/4"},
        "counts": {"pre": [3 * 10**6], "period": [1]},
    },
}


@pytest.mark.parametrize("family", sorted(OVERSIZED))
def test_an_oversized_head_is_refused_before_a_group_is_built(family, monkeypatch):
    built = []
    monkeypatch.setattr(GroupedStream, "__init__", lambda *args: built.append(None))
    spec = spec_from_json(OVERSIZED[family])
    with pytest.raises(CapacityError) as caught:
        spec.stream()
    assert caught.value.stage == "stream_head"
    assert caught.value.size > DEFAULT_CAP == caught.value.cap
    assert built == []


@pytest.mark.parametrize("family", ["kyiv", "multigeometric"])
def test_analyze_exits_3_with_one_line_for_an_oversized_head(family, capsys):
    assert main(["analyze", "--inline", json.dumps(OVERSIZED[family])]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("capacity exhausted in stream_head: ")
    assert captured.err.count("\n") == 1


# One spec per family whose given groups hold at most DEFAULT_CAP terms but
# more than HEAD_BITS bits: 1,151,292 multigeometric terms on a lattice of
# about 19.6 Mbit, 1,951,755 Kyiv terms on one of about 0.85 Mbit, a block of
# 10^6 + 2 mm coefficients over 2^(10^6), and 1.8 * 10^6 gf coefficients or
# repetitions over 10^4000.
_HUGE = f"1/{10**2000}"
HEAVY = {
    "multigeometric": {"type": "multigeometric", "k": [10**5, 1], "q": "99999/100000"},
    "kyiv": {
        "type": "kyiv",
        "m": {"pre": [], "period": [4] * 277},
        "s": {"pre": [], "period": [8] * 271},
    },
    "gf": {
        "type": "gf",
        "m": {"pre": [], "period": [2]},
        "k": {"pre": [], "period": [900_000]},
        "q": {"pre": [], "block": [_HUGE], "ratio": _HUGE},
    },
    "mm": {"type": "mm", "gaps": {"pre": [1, 10**6], "period": [1]}},
    "repeated": {
        "type": "repeated",
        "y": {"pre": [], "block": [_HUGE], "ratio": _HUGE},
        "counts": {"pre": [], "period": [900_000]},
    },
}


@pytest.mark.parametrize("family", sorted(HEAVY))
def test_a_head_too_large_in_bits_is_refused_before_a_group_is_built(family, monkeypatch):
    built = []
    monkeypatch.setattr(GroupedStream, "__init__", lambda *args: built.append(None))
    spec = spec_from_json(HEAVY[family])
    with pytest.raises(CapacityError) as caught:
        spec.stream()
    assert caught.value.stage == "stream_head"
    assert caught.value.size > HEAD_BITS == caught.value.cap
    assert str(caught.value).endswith(f" bits, cap is {HEAD_BITS}")
    assert built == []


@pytest.mark.parametrize("family", ["kyiv", "multigeometric"])
def test_analyze_exits_3_at_once_for_a_head_too_large_in_bits(family, capsys):
    start = time.perf_counter()
    assert main(["analyze", "--inline", json.dumps(HEAVY[family])]) == 3
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("capacity exhausted in stream_head: ")
    assert captured.err.count("\n") == 1


def test_capacity_line_names_its_stage_once(capsys):
    assert main(["analyze", "--inline", json.dumps(HEAVY["multigeometric"])]) == 3
    assert capsys.readouterr().err == (
        "capacity exhausted in stream_head: would produce 22035955684524 bits,"
        f" cap is {HEAD_BITS}\n"
    )
