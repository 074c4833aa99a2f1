"""Standardness ratios: certified interval length over tail length.

For each non-multigeometric family the achievement set of every suffix
contains an interval of exact closed-form length; dividing by the boundary
tail gives the ratio whose positive limit makes the Cantorval "standard"
(and hence gives boundary measure zero).  With eventually periodic
parameters the ratio sequence is itself eventually periodic, so its limsup
is an exact maximum over one period.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Optional

from ..exact import rat_str
from ..frozen import frozen
from .grouped import GroupedStream, periodic_tail


@frozen
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


def standardness_ratio(
    spec, k: int, stream: Optional[GroupedStream] = None
) -> StandardnessResult:
    """Exact interval-over-tail ratio at group index k, with its periodic limsup.

    Defined for the generalized Ferens, Marchwicki-Miska, and Kyiv families,
    whose spec classes name their family in ``standardness_family`` and give
    the closed-form weight ``interval_length(stream, i)``: the interval in
    the suffix past group j has length the sum over i > j of that weight,
    (s_i - m_i) q_i for gf, (3 * 2^(n_i) - 1) q_i for mm, and
    (s_i - m_i + 6 - 4/m_i) a_i for kyiv.  Past the family stream's
    preperiod that weight scales like the groups, so ``periodic_tail`` sums
    it with the stream's period and block ratio, and the ratio is that sum
    over the stream's ``group_tail(j)``.  The mm and kyiv weights read q_i
    and a_i off the stream's groups.  Other inputs are rejected.

    ``stream`` is the spec's family stream when the caller has already
    built it (``analyze`` passes the one its report reads); without it the
    stream is built, and validated, here.
    """
    if k < 1:
        raise ValueError("indices start at 1")
    name = getattr(spec, "standardness_family", None)
    if name is None:
        raise ValueError(
            "standardness ratio has a closed form only for gf, mm, and kyiv specs"
        )
    if stream is None:
        stream = spec.stream()
    pre, period = stream.preperiod, stream.period

    def ratio(j: int) -> Fraction:
        length = periodic_tail(
            partial(spec.interval_length, stream), j, pre, period, stream.block_ratio
        )
        return length / stream.group_tail(j)

    limit = max(ratio(j) for j in range(pre + 1, pre + period + 1))
    return StandardnessResult(family=name, index=k, at_index=ratio(k), limit=limit)
