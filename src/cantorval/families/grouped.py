"""Streams given by their first groups of terms, repeating at one ratio.

Every explicit family here (multigeometric, generalized Ferens,
Marchwicki-Miska, Kyiv, repeated-term) produces its terms in groups, and
beyond a preperiod P the whole pattern of p groups repeats scaled by one
exact rational factor.  So a family stream is its groups 1 .. P + 2p: the
block ratio is read off the two given periods, and every later group is
that ratio times the group one period earlier.  That single fact gives
exact tails and an analytic Kakeya comparison pattern.  ``GroupedStream``
holds a family's head, period and block ratio as data: its tails, and the
family's standardness ratios, are summed with them.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from typing import Optional, Sequence

from ..series import KakeyaPattern, StreamError, TermStream, compare_sign
from .periodic import periodic_tail


class GroupedStream(TermStream):
    """A stream built from its first P + 2p groups, P the preperiod, p the period.

    ``groups[k - 1]`` holds the terms of group k, in order, for k = 1 ..
    P + 2p.  The block ratio is the first term of group P + p + 1 over the
    first term of group P + 1, and the second given period must equal that
    ratio times the first, term by term.  Group k > P + 2p is the ratio
    times group k - p.  Construction checks positivity, monotonicity and
    the period exactly, which proves them for every index.

    Streams are observationally pure: the interior caches only memoize
    values that are deterministic functions of the index, so concurrent
    readers can at worst duplicate a computation, never observe a wrong one.
    """

    def __init__(
        self, groups: Sequence[Sequence[Fraction]], preperiod: int, period: int
    ) -> None:
        if period < 1:
            raise ValueError("period must be positive")
        if preperiod < 0 or len(groups) != preperiod + 2 * period:
            raise ValueError("need exactly the groups 1 .. preperiod + 2 * period")
        self._preperiod = preperiod
        self._period = period
        self._block_ratio: Optional[Fraction] = None
        self._groups: list[tuple[Fraction, ...]] = [tuple(g) for g in groups]
        self._boundaries: list[int] = [0]  # N_0, N_1, ... cumulative term counts
        self._tail_cache: dict[int, Fraction] = {}  # group tails, by group k
        self._term_tails: dict[int, Fraction] = {}  # r_n, by term index n
        self._validate()

    # -- derived structure ------------------------------------------------

    @property
    def preperiod(self) -> int:
        return self._preperiod

    @property
    def period(self) -> int:
        return self._period

    @property
    def block_ratio(self) -> Fraction:
        return self._block_ratio

    def group_terms(self, k: int) -> tuple[Fraction, ...]:
        """Terms of group k >= 1, in order, exact."""
        if k < 1:
            raise ValueError("group indices start at 1")
        groups = self._groups
        while len(groups) < k:
            groups.append(tuple(self._block_ratio * t for t in groups[-self._period]))
        return groups[k - 1]

    def boundary(self, k: int) -> int:
        """N_k, the index of the last term of group k (N_0 = 0)."""
        while len(self._boundaries) <= k:
            j = len(self._boundaries)
            self._boundaries.append(self._boundaries[-1] + len(self.group_terms(j)))
        return self._boundaries[k]

    def group_sum(self, k: int) -> Fraction:
        return sum(self.group_terms(k), Fraction(0))

    def group_tail(self, k: int) -> Fraction:
        """r at the group boundary: sum of all terms in groups > k."""
        if k < 0:
            raise ValueError("group index must be nonnegative")
        cached = self._tail_cache.get(k)
        if cached is not None:
            return cached
        if k < self._preperiod:
            # Sum down from the nearest known tail above k, caching each
            # step, so a long preperiod never nests calls.
            j = k + 1
            while j < self._preperiod and j not in self._tail_cache:
                j += 1
            value = self.group_tail(j)
            for i in range(j - 1, k - 1, -1):
                value += self.group_sum(i + 1)
                self._tail_cache[i] = value
        else:
            value = periodic_tail(
                self.group_sum, k, self._preperiod, self._period, self._block_ratio
            )
        self._tail_cache[k] = value
        return value

    def locate(self, n: int) -> tuple[int, int]:
        """(group k, offset within group) for term index n >= 1; offset >= 1."""
        if n < 1:
            raise ValueError("term indices start at 1")
        while self._boundaries[-1] < n:
            self.boundary(len(self._boundaries))
        k = bisect.bisect_left(self._boundaries, n)
        return k, n - self._boundaries[k - 1]

    # -- TermStream interface ---------------------------------------------

    def term(self, n: int) -> Fraction:
        k, offset = self.locate(n)
        return self.group_terms(k)[offset - 1]

    def tail(self, n: int) -> Fraction:
        cached = self._term_tails.get(n)
        if cached is not None:
            return cached
        if n < 0:
            raise ValueError("tail indices start at 0")
        if n == 0:
            value = self.group_sum(1) + self.group_tail(1)
        else:
            k, offset = self.locate(n)
            value = sum(self.group_terms(k)[offset:], Fraction(0)) + self.group_tail(k)
        self._term_tails[n] = value
        return value

    def kakeya_pattern(self) -> Optional[KakeyaPattern]:
        # Terms and tails both scale by the block ratio from one period of
        # groups to the next (beyond the preperiod), so the comparison signs
        # over a single period of groups repeat exactly.
        head = self.boundary(self._preperiod)
        cycle_end = self.boundary(self._preperiod + self._period)
        prefix = tuple(
            compare_sign(self.term(n), self.tail(n)) for n in range(1, head + 1)
        )
        cycle = tuple(
            compare_sign(self.term(n), self.tail(n)) for n in range(head + 1, cycle_end + 1)
        )
        return KakeyaPattern(prefix, cycle)

    # -- construction-time validation ---------------------------------------

    def _validate(self) -> None:
        """Exact positivity, monotonicity, and periodic-scaling checks.

        Checking groups up to preperiod + 2*period + 1 proves the properties
        for every index because later groups are exact scaled copies.
        """
        pre, period = self._preperiod, self._period
        given = pre + 2 * period
        previous_last: Optional[Fraction] = None
        for k in range(1, given + 2):
            if k > given:
                # The given groups are positive, so the division is defined.
                self._block_ratio = self._groups[pre + period][0] / self._groups[pre][0]
                if not self._block_ratio < 1:
                    raise ValueError("block ratio must lie in (0, 1)")
            terms = self.group_terms(k)
            if not terms:
                raise ValueError(f"group {k} is empty")
            if any(t <= 0 for t in terms):
                raise StreamError(f"group {k} contains a nonpositive term")
            for a, b in zip(terms, terms[1:]):
                if b > a:
                    raise StreamError(f"group {k} is not nonincreasing")
            if previous_last is not None and terms[0] > previous_last:
                raise StreamError(f"terms increase across the boundary into group {k}")
            previous_last = terms[-1]
        for k in range(pre + 1, pre + period + 1):
            scaled = tuple(t * self._block_ratio for t in self.group_terms(k))
            if self.group_terms(k + period) != scaled:
                raise ValueError(
                    "the second given period is not the block ratio times the first"
                )
