"""Standardness ratios: certified interval length over tail length.

For each non-multigeometric family the achievement set of every suffix
contains an interval of exact closed-form length; dividing by the boundary
tail gives the ratio whose positive limit makes the Cantorval "standard"
(and hence gives boundary measure zero).  With eventually periodic
parameters the ratio sequence is itself eventually periodic, so its limsup
is an exact maximum over one period.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional

from ..exact import rat_str
from .ferens import GFSpec, gf_stream
from .grouped import GroupedStream
from .kyiv import KyivSpec, kyiv_stream
from .marchwicki import MMSpec, mm_stream
from .periodic import periodic_tail


@dataclass(frozen=True)
class StandardnessResult:
    """Ratio at one index plus its exact limsup over the repeating part."""

    family: str
    index: int
    at_index: Fraction
    limit: Fraction

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "index": self.index,
            "at_index": rat_str(self.at_index),
            "limit": rat_str(self.limit),
        }


def _gf_length(spec: GFSpec, stream: GroupedStream, i: int) -> Fraction:
    return (spec.s(i) - spec.m[i]) * spec.q[i]


def _mm_length(spec: MMSpec, stream: GroupedStream, i: int) -> Fraction:
    q = stream.group_terms(i)[-1] / 2  # every block ends with the coefficient 2
    return (3 * 2 ** spec.gaps[i] - 1) * q


def _kyiv_length(spec: KyivSpec, stream: GroupedStream, i: int) -> Fraction:
    m = spec.m[i]
    return (spec.s[i] - m + 6 - Fraction(4, m)) * stream.group_terms(i)[0]  # a_i


# spec type -> (family name, stream constructor, interval-length weight)
_FAMILIES = {
    GFSpec: ("gf", gf_stream, _gf_length),
    MMSpec: ("mm", mm_stream, _mm_length),
    KyivSpec: ("kyiv", kyiv_stream, _kyiv_length),
}


def standardness_ratio(
    spec, k: int, stream: Optional[GroupedStream] = None
) -> StandardnessResult:
    """Exact interval-over-tail ratio at group index k, with its periodic limsup.

    Defined for the generalized Ferens, Marchwicki-Miska, and Kyiv families.
    The interval in the suffix past group j has length the sum over i > j
    of a closed-form weight: (s_i - m_i) q_i for gf, (3 * 2^(n_i) - 1) q_i
    for mm, and (s_i - m_i + 6 - 4/m_i) a_i for kyiv.  Past the family
    stream's preperiod that weight scales like the groups, so
    ``periodic_tail`` sums it with the stream's period and block ratio, and
    the ratio is that sum over the stream's ``group_tail(j)``.  The mm and
    kyiv weights read q_i and a_i off the stream's groups.  Other inputs
    are rejected.

    ``stream`` is the spec's family stream when the caller has already
    built it (``analyze`` passes the one its report reads); without it the
    stream is built, and validated, here.
    """
    if k < 1:
        raise ValueError("indices start at 1")
    family = _FAMILIES.get(type(spec))
    if family is None:
        raise ValueError(
            "standardness ratio has a closed form only for gf, mm, and kyiv specs"
        )
    name, make_stream, weight = family
    if stream is None:
        stream = make_stream(spec)
    pre, period = stream.preperiod, stream.period

    def ratio(j: int) -> Fraction:
        length = periodic_tail(
            partial(weight, spec, stream), j, pre, period, stream.block_ratio
        )
        return length / stream.group_tail(j)

    limit = max(ratio(j) for j in range(pre + 1, pre + period + 1))
    return StandardnessResult(family=name, index=k, at_index=ratio(k), limit=limit)
