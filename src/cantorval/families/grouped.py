"""Streams given by their first groups of terms, repeating at one ratio.

Every explicit family here (multigeometric, generalized Ferens,
Marchwicki-Miska, Kyiv, repeated-term) produces its terms in groups, and
beyond a preperiod P the whole pattern of p groups repeats scaled by one
exact rational factor.  So a family stream is its groups 1 .. P + 2p: the
block ratio is read off the two given periods, and every later group is
that ratio times the group one period earlier.  That single fact gives
exact tails and an analytic Kakeya comparison pattern.

The digit view: a family hands its groups over as integer numerators on one
lattice L that its own structure fixes (each family's ``stream`` names its
lattice), so ``GroupedStream`` checks the terms, sums the tails and
compares every term with its tail on integers.  With block ratio a/b in
lowest terms, the tails lie on L (b - a).  Fractions are built only when a
caller reads a term, a tail or a group.  A family counts the terms of its
groups, and bounds the bit length of its lattice, from the spec's integers
before it builds any, and ``check_head`` refuses more than DEFAULT_CAP
terms or more than HEAD_BITS bits.

An achievement set does not depend on the order of its terms, and
``sorted_stream`` sorts a head and geometric runs at one ratio once, on one
lattice, into runs with the least preperiod (the multigeometric stream).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import accumulate, chain, islice
from typing import Callable, Optional, Sequence

from ..series import (
    DEFAULT_CAP,
    CapacityError,
    KakeyaPattern,
    StreamError,
    TermStream,
    compare_sign,
)


# The most bits a stream's given groups may take, about 244 MiB: their term
# count times the bit length of their lattice, which sizes each numerator.
HEAD_BITS = DEFAULT_CAP * 1024


def check_head(terms: int, bits: int) -> None:
    """Refuse a stream whose given groups hold more than DEFAULT_CAP terms,
    or ``terms`` numerators of ``bits`` bits, its lattice's bit length or a
    bound on it, that pass HEAD_BITS together."""
    if terms > DEFAULT_CAP:
        raise CapacityError("stream_head", terms, DEFAULT_CAP)
    if terms * bits > HEAD_BITS:
        raise CapacityError("stream_head", terms * bits, HEAD_BITS, "bits")


def power_bits(k: int, b: int, n: int) -> int:
    """A bound on the bit length of k b^n, for ``check_head``, found without
    building b^n.

    A product has at most the summed bit lengths of its factors, so b^n is
    counted as n // 64 factors b^64 and one b^(n % 64).  Each b^64 has at
    most 64 log2 b + 1 bits, so the bound passes the true bit length by at
    most n // 64 + 1 bits, where counting b's bit length per factor would
    pass it by up to n bits.
    """
    steps, rest = divmod(n, 64)
    return k.bit_length() + steps * (b**64).bit_length() + (b**rest).bit_length()


def periodic_tail(
    weight: Callable[[int], Fraction],
    k: int,
    preperiod: int,
    period: int,
    ratio: Fraction,
) -> Fraction:
    """Exact sum of weight(i) over i > k.

    Valid when weight(i + period) == ratio * weight(i) for every i >
    preperiod, with 0 < ratio < 1: past max(k, preperiod) the weights are
    one period block repeated at ratio, ratio^2, ..., so the tail is the
    head up to there plus that block over 1 - ratio.
    """
    if k < 0:
        raise ValueError("tail indices start at 0")
    start = max(k, preperiod)
    head = sum((weight(i) for i in range(k + 1, start + 1)), Fraction(0))
    block = sum((weight(i) for i in range(start + 1, start + period + 1)), Fraction(0))
    return head + block / (1 - ratio)


class GroupedStream(TermStream):
    """A stream built from its first P + 2p groups, P the preperiod, p the period.

    ``numerators[k - 1]`` holds the terms of group k times ``denominator``,
    the family's lattice L, in order, for k = 1 .. P + 2p.  The block ratio
    a/b is the first term of group P + p + 1 over the first term of group
    P + 1, and the second given period must equal that ratio times the
    first, term by term.  Group k > P + 2p is the ratio times group k - p.
    Construction checks positivity, monotonicity and the period exactly, on
    the integers, which proves them for every index.

    The stream then keeps the integers of its first P + p groups: the head
    x_1 .. x_H, H = N_P, and one cycle of C = N_{P+p} - H terms, times L,
    with the tails r_0 .. r_{H+C} times L (b - a), each the one before it
    minus a term.  Past the head x_{n+C} = (a/b) x_n and r_{n+C} = (a/b) r_n,
    so every later term and tail is (a/b)^c times a kept one.  ``term``
    and ``tail`` build their Fractions on first read and keep them.

    A stream is for one thread.  Its integers are fixed when it is built,
    but the Fractions and the Kakeya pattern are kept on first read, without
    a lock; each is a deterministic function of its index, so two threads
    would at worst build one twice.
    """

    def __init__(
        self,
        numerators: Sequence[Sequence[int]],
        denominator: int,
        preperiod: int,
        period: int,
    ) -> None:
        if period < 1:
            raise ValueError("period must be positive")
        if preperiod < 0 or len(numerators) != preperiod + 2 * period:
            raise ValueError("need exactly the groups 1 .. preperiod + 2 * period")
        self._preperiod = preperiod
        self._period = period
        self._denominator = denominator
        self._a, self._b = a, b = _validated_ratio(numerators, preperiod, period)
        kept = numerators[: preperiod + period]
        self._boundaries = list(accumulate(map(len, kept), initial=0))  # N_0 .. N_{P+p}
        self._head = head = self._boundaries[preperiod]
        self._cycle = self._boundaries[-1] - head
        self._terms = terms = list(chain.from_iterable(kept))
        span = b - a
        total = sum(islice(terms, head)) * span + sum(islice(terms, head, None)) * b
        self._tails = list(accumulate(map(span.__mul__, terms), operator.sub, initial=total))
        self._term_fractions: dict[int, Fraction] = {}
        self._tail_fractions: dict[int, Fraction] = {}
        self._block_ratio: Optional[Fraction] = None
        self._pattern: Optional[KakeyaPattern] = None

    # -- derived structure ------------------------------------------------

    @property
    def preperiod(self) -> int:
        return self._preperiod

    @property
    def period(self) -> int:
        return self._period

    @property
    def block_ratio(self) -> Fraction:
        if self._block_ratio is None:
            self._block_ratio = Fraction(self._a, self._b)
        return self._block_ratio

    def _fraction(self, numerator: int, denominator: int, c: int) -> Fraction:
        """(a/b)^c numerator / denominator."""
        if c:
            numerator *= self._a**c
            denominator *= self._b**c
        return Fraction(numerator, denominator)

    def _kept(self, i: int) -> tuple[int, int]:
        """(c, j): the term x_{i+1} and the tail r_i are (a/b)^c times the
        kept ones at list index j < H + C."""
        head = self._head
        if i < head:
            return 0, i
        c, j = divmod(i - head, self._cycle)
        return c, head + j

    def _kept_group(self, k: int) -> tuple[int, int]:
        """(c, j): group k is (a/b)^c times the kept group j <= P + p."""
        pre = self._preperiod
        if k <= pre:
            return 0, k
        c, j = divmod(k - pre - 1, self._period)
        return c, pre + 1 + j

    def boundary(self, k: int) -> int:
        """N_k, the index of the last term of group k (N_0 = 0)."""
        if k < 0:
            raise ValueError("group index must be nonnegative")
        c, j = self._kept_group(k)
        return self._boundaries[j] + c * self._cycle

    def group_tail(self, k: int) -> Fraction:
        """r at the group boundary: sum of all terms in groups > k."""
        if k < 0:
            raise ValueError("group index must be nonnegative")
        return self.tail(self.boundary(k))

    # -- TermStream interface ---------------------------------------------

    def term(self, n: int) -> Fraction:
        if n < 1:
            raise ValueError("term indices start at 1")
        got = self._term_fractions.get(n)
        if got is None:
            c, j = self._kept(n - 1)
            got = self._term_fractions[n] = self._fraction(
                self._terms[j], self._denominator, c
            )
        return got

    def tail(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("tail indices start at 0")
        got = self._tail_fractions.get(n)
        if got is None:
            c, j = self._kept(n)
            got = self._tail_fractions[n] = self._fraction(
                self._tails[j], self._denominator * (self._b - self._a), c
            )
        return got

    def kakeya_pattern(self) -> KakeyaPattern:
        # Terms and tails both scale by the block ratio from one period of
        # groups to the next (beyond the preperiod), so the comparison signs
        # over a single period of groups repeat exactly.  Each sign compares
        # x_n L (b - a) with r_n L (b - a).  Computed once and kept; every
        # other x_n vs r_n decision reads it.
        if self._pattern is None:
            scaled = map((self._b - self._a).__mul__, self._terms)
            signs = tuple(map(compare_sign, scaled, islice(self._tails, 1, None)))
            self._pattern = KakeyaPattern(signs[: self._head], signs[self._head :])
        return self._pattern


def sorted_stream(
    head: Sequence[int], period: Sequence[int], lattice: int, a: int, b: int
) -> GroupedStream:
    """The terms h / L for h in ``head`` and c q^j / L for c in ``period``
    and j >= 1, L the ``lattice`` and q = a/b in lowest terms, in
    nonincreasing order and cut into runs of m = len(period): run j is
    group j, with period 1, block ratio q and the least preperiod P.

    Let x* be the smaller of min(c) q and min(head).  For x <= x* the terms
    >= q x are every head term, c q for every c and q times the geometric
    terms >= x, so past the first N = #head + sum_c e_c terms, e_c =
    #{j >= 1 : c q^j > x*}, each term is q times the one m before it, and
    P <= ceil(N / m).  Each window (q x*, x*] holds one geometric term of
    every c, so the first (ceil(N / m) + 1) m terms are the largest of the
    head and the c q^j with j <= e_c + 2.  Those lie on the lattice L b^J,
    J = max(e_c) + 3, which leaves room for q times the last run; each c's
    run is one power of b and then a multiplication by a and an exact
    division by b per term, and one sort merges them with the head.  Before
    any term is built, ``check_head`` weighs the count against
    ``power_bits``' bound on the bit length of L b^J.
    """
    m = len(period)
    if head and min(head) * b < min(period) * a:  # x* = min(head)
        exponents = _exponents_above([c * a for c in period], min(head) * b, a, b, m)
    else:  # x* = min(c) q
        exponents = _exponents_above(period, min(period), a, b, m)
    count = (-(-(len(head) + sum(exponents)) // m) + 1) * m
    top = max(exponents) + 3
    check_head(count + m, power_bits(lattice, b, top))
    power = b ** (top - 1)
    terms = [h * b * power for h in head]
    scale = a * power
    for c, e in zip(period, exponents):
        x = c * scale
        terms.append(x)
        for _ in range(e + 1):
            x = x * a // b
            terms.append(x)
    terms.sort(reverse=True)
    runs = [tuple(terms[s : s + m]) for s in range(0, count, m)]
    # drop each last run that is q times the run before it
    while len(runs) > 1 and not any(
        map(operator.ne, map(b.__mul__, runs[-1]), map(a.__mul__, runs[-2]))
    ):
        runs.pop()
    runs.append(tuple(x * a // b for x in runs[-1]))
    return GroupedStream(runs, lattice * b**top, len(runs) - 2, 1)


_BITS, _LEAP = 64, 64


def _exponents_above(terms: Sequence[int], low: int, a: int, b: int, m: int) -> list[int]:
    """e_i = #{e >= 0 : t_i q^e > low} for each t_i of ``terms``, on one
    lattice with ``low``, q = a/b.

    Counted on integer bounds lo <= t_i q^e / low * 2^64 <= hi, rounded
    down and up at each step, so a step costs the same at every e.  The
    count leaps 64 steps at a time while lo stays above 1 after the leap,
    then goes one step at a time; only a near-tie that the bounds leave
    open is decided on t_i a^e and low b^e.  Raises CapacityError for stage
    ``stream_head`` as soon as the groups these counts imply,
    (ceil(N / m) + 2) m terms for N their sum, would pass DEFAULT_CAP; it
    names the size where the count stopped.
    """
    one = 1 << _BITS
    limit = (DEFAULT_CAP // m - 2) * m
    a_leap, b_leap = a**_LEAP, b**_LEAP
    total = 0
    exponents = []
    for c in terms:
        lo = (c << _BITS) // low
        hi = -(-(c << _BITS) // low)
        e = 0
        leaping = True
        while lo > one or (hi > one and c * a**e > low * b**e):
            if leaping and (far := lo * a_leap // b_leap) > one:
                step, lo, hi = _LEAP, far, -(-hi * a_leap // b_leap)
            else:
                leaping = False
                step, lo, hi = 1, lo * a // b, -(-hi * a // b)
            e += step
            total += step
            if total > limit:
                check_head((-(-total // m) + 2) * m, 0)
        exponents.append(e)
    return exponents


def _validated_ratio(
    groups: Sequence[Sequence[int]], preperiod: int, period: int
) -> tuple[int, int]:
    """Exact positivity, monotonicity and periodic-scaling checks, on the
    lattice; returns the block ratio as a coprime pair (a, b).

    Checking groups up to preperiod + 2*period + 1 proves the properties
    for every index because later groups are exact scaled copies.  Group
    P + 2p + 1 is a/b times group P + p + 1, so it is positive and
    nonincreasing when that group is, and only its first term, against the
    last term of group P + 2p, needs a check.
    """
    previous_last: Optional[int] = None
    for k, terms in enumerate(groups, 1):
        if not terms:
            raise ValueError(f"group {k} is empty")
        if min(terms) <= 0:
            raise StreamError(f"group {k} contains a nonpositive term")
        if any(map(operator.lt, terms, islice(terms, 1, None))):
            raise StreamError(f"group {k} is not nonincreasing")
        if previous_last is not None and terms[0] > previous_last:
            raise StreamError(f"terms increase across the boundary into group {k}")
        previous_last = terms[-1]
    top, bottom = groups[preperiod + period][0], groups[preperiod][0]
    if not top < bottom:
        raise ValueError("block ratio must lie in (0, 1)")
    a, b = Fraction(top, bottom).as_integer_ratio()
    if a * top > b * previous_last:
        raise StreamError(f"terms increase across the boundary into group {len(groups) + 1}")
    for first, second in zip(groups[preperiod:], groups[preperiod + period :]):
        if len(first) != len(second) or any(
            map(operator.ne, map(b.__mul__, second), map(a.__mul__, first))
        ):
            raise ValueError(
                "the second given period is not the block ratio times the first"
            )
    return a, b
