"""Kyiv series.

Group k has s_k + 1 terms equal to the principal value a_k followed by m_k
terms equal to (m_k - 1)/m_k * a_k, with the principal values chosen so that
the whole series sums to 1 and every group-boundary tail is 2 a_k / m_k.
Closed forms: with d_k = m_k^2 + s_k m_k + 2,

    a_n   = 2^(n-1) m_n / (d_1 ... d_n)
    r_Nk  = 2^k / (d_1 ... d_k)
    G_k   = (s_k + m_k) a_k

The group subsums contain the arithmetic progression
{ i a_k / m_k : (m_k-3) m_k + 2 <= i <= (s_k+3) m_k - 2 }, whose density is
what forces an interval in the achievement set.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterator, Optional

from ..exact import PointSet
from ..frozen import frozen
from ..series import DEFAULT_CAP, CapacityError, subsum_level
from .grouped import GroupedStream, check_head
from .io import is_int
from .periodic import PeriodicSeq

MAX_GROUP_ENUMERATION = 24


@frozen
class KyivSpec:
    """Eventually periodic positive integer sequences (m_k) and (s_k).

    Structural validity only; the construction's admissibility conditions
    are reported by kyiv_validate, not enforced here, so that failing
    parameter choices can still be inspected.
    """

    m: PeriodicSeq
    s: PeriodicSeq

    standardness_family = "kyiv"

    def __post_init__(self) -> None:
        probe = self.group_preperiod + self.group_period
        for n in range(1, probe + 1):
            mv, sv = self.m[n], self.s[n]
            if not is_int(mv) or mv < 1:
                raise ValueError(f"m_{n} must be a positive integer, got {mv!r}")
            if not is_int(sv) or sv < 1:
                raise ValueError(f"s_{n} must be a positive integer, got {sv!r}")

    @property
    def group_preperiod(self) -> int:
        return max(self.m.preperiod_length, self.s.preperiod_length)

    @property
    def group_period(self) -> int:
        return lcm(self.m.period_length, self.s.period_length)

    def divisor(self, k: int) -> int:
        """d_k = m_k^2 + s_k m_k + 2."""
        m, s = self.m[k], self.s[k]
        return m * m + s * m + 2

    def interval_length(self, stream: GroupedStream, i: int) -> Fraction:
        """(s_i - m_i + 6 - 4/m_i) a_i, group i's weight in
        ``standardness_ratio``, with a_i the first term of group i."""
        m = self.m[i]
        a = stream.term(stream.boundary(i - 1) + 1)
        return (self.s[i] - m + 6 - Fraction(4, m)) * a

    def to_json(self) -> dict:
        return {"type": "kyiv", "m": self.m.to_json(), "s": self.s.to_json()}

    @staticmethod
    def from_json(doc: dict) -> "KyivSpec":
        return KyivSpec(
            PeriodicSeq.from_json(doc["m"], "m"), PeriodicSeq.from_json(doc["s"], "s")
        )

    def stream(self) -> GroupedStream:
        """Group k: (s_k + 1) copies of a_k then m_k copies of (m_k-1)/m_k * a_k.

        The lattice is the prefix product d_1 ... d_N over the groups
        N = P + 2p it builds, since a_k = 2^(k-1) m_k / (d_1 ... d_k): a_k
        times it is 2^(k-1) m_k d_(k+1) ... d_N.  Its bit length is at most
        the sum of the d_k's bit lengths.
        """
        pre = self.group_preperiod + 1  # a-ratio needs m_{k} and m_{k+1} periodic
        period = self.group_period
        count = pre + 2 * period
        check_head(
            sum(self.s[k] + self.m[k] + 1 for k in range(1, count + 1)),
            sum(self.divisor(k).bit_length() for k in range(1, count + 1)),
        )
        groups, suffix = [], 1
        for k in range(count, 0, -1):
            m, s = self.m[k], self.s[k]
            unit = 2 ** (k - 1) * suffix
            groups.append((unit * m,) * (s + 1) + (unit * (m - 1),) * m)
            suffix *= self.divisor(k)
        groups.reverse()
        return GroupedStream(groups, suffix, pre, period)

    def conditions(self) -> list[dict]:
        """``validate``'s rows: the admissibility conditions of kyiv_validate."""
        return kyiv_validate(self).to_json()["conditions"]

    def family_verdict(self) -> Optional[tuple[str, dict]]:
        """A Cantorval when the spec is admissible, with the validation as witness."""
        report = kyiv_validate(self)
        if not report.passed:
            return None
        return "Cantorval", {"family": "kyiv", "validation": report.to_json()}


@frozen
class KyivValidation:
    """Admissibility report: each condition with an exact witness string."""

    conditions: tuple[tuple[str, bool, str], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.conditions)

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "conditions": [
                {"name": name, "passed": ok, "witness": witness}
                for name, ok, witness in self.conditions
            ],
        }


def kyiv_validate(spec: KyivSpec) -> KyivValidation:
    """Check the construction's three admissibility conditions exactly.

    (1) s_n >= 3 m_n - 4 for all n, (2) m_n >= 3 for all n, and (3) some m in
    the repeating part is at least 4; eventual periodicity makes each a
    finite check.  The chain margin m_k (s_k - 3 m_k + 12) - 8, which the
    tight-chain argument needs to be nonnegative, is implied by (1) and (2)
    but reported with its minimum as a witness.
    """
    horizon = spec.group_preperiod + spec.group_period
    checks: list[tuple[str, bool, str]] = []

    bad1 = [(n, spec.s[n], 3 * spec.m[n] - 4) for n in range(1, horizon + 1)
            if spec.s[n] < 3 * spec.m[n] - 4]
    if bad1:
        n, sv, bound = bad1[0]
        checks.append(("s_n >= 3*m_n - 4", False, f"fails at n={n}: {sv} < {bound}"))
    else:
        margins = [(spec.s[n] - (3 * spec.m[n] - 4), n) for n in range(1, horizon + 1)]
        mmin, mat = min(margins)
        checks.append(("s_n >= 3*m_n - 4", True, f"min margin {mmin} at n={mat}"))

    bad2 = [n for n in range(1, horizon + 1) if spec.m[n] < 3]
    checks.append(
        ("m_n >= 3", not bad2,
         f"fails at n={bad2[0]}: m={spec.m[bad2[0]]}" if bad2 else "all indices")
    )

    period_max = max(
        spec.m[n] for n in range(spec.group_preperiod + 1, horizon + 1)
    )
    checks.append(
        ("limsup m_n >= 4", period_max >= 4, f"max m over the repeating part = {period_max}")
    )

    margin_values = [kyiv_chain_margin(spec, k) for k in range(1, horizon + 1)]
    worst = min(margin_values)
    checks.append(
        ("chain margin m_k*(s_k - 3*m_k + 12) - 8 >= 0", worst >= 0, f"min margin {worst}")
    )
    return KyivValidation(tuple(checks))


@frozen
class KyivValues:
    """Closed-form principal value, boundary tail, and group sum at one index."""

    k: int
    a: Fraction
    boundary_tail: Fraction  # r at N_k
    group_sum: Fraction      # G_k


def _kyiv_run(spec: KyivSpec, k: int) -> Iterator[KyivValues]:
    """KyivValues at 1, ..., k in one pass, cross-checking at every step.

    Each closed form must satisfy the one-step recurrence a_{i+1}/a_i =
    2 m_{i+1} / (m_i d_{i+1}) and r_{N_i} = 2 a_i / m_i; a mismatch would be
    an implementation bug, so both are asserted.
    """
    prod, previous = 1, None
    for i in range(1, k + 1):
        m = spec.m[i]
        prod *= spec.divisor(i)
        a = Fraction(2 ** (i - 1) * m, prod)
        r = Fraction(2**i, prod)
        if previous is not None:
            step = Fraction(2 * m, spec.m[i - 1] * spec.divisor(i))
            assert a == previous * step, "closed form disagrees with the recurrence"
        assert r == 2 * a / m, "boundary tail disagrees with 2 a_k / m_k"
        previous = a
        yield KyivValues(k=i, a=a, boundary_tail=r, group_sum=(spec.s[i] + m) * a)


def kyiv_values(spec: KyivSpec, k: int) -> KyivValues:
    """Exact a_k, r_{N_k}, G_k; cross-checks the one-step recurrence."""
    if k < 1:
        raise ValueError("group indices start at 1")
    *_, values = _kyiv_run(spec, k)
    return values


def _kyiv_group(spec: KyivSpec, k: int, a: Fraction) -> tuple[Fraction, ...]:
    m, s = spec.m[k], spec.s[k]
    return (a,) * (s + 1) + (Fraction(m - 1, m) * a,) * m


def kyiv_progression(spec: KyivSpec, k: int) -> PointSet:
    """The arithmetic progression contained in the subsums of group k.

    { i * a_k / m_k : (m_k - 3) m_k + 2 <= i <= (s_k + 3) m_k - 2 }.
    """
    if k < 1:
        raise ValueError("group indices start at 1")
    vals = kyiv_values(spec, k)
    m, s = spec.m[k], spec.s[k]
    unit = vals.a / m
    lo = (m - 3) * m + 2
    hi = (s + 3) * m - 2
    return PointSet(tuple(i * unit for i in range(lo, hi + 1)))


def kyiv_group_set(spec: KyivSpec, k: int, cap: int = DEFAULT_CAP) -> PointSet:
    """Brute-force subsum set of group k (2^(group size) subsets)."""
    m, s = spec.m[k], spec.s[k]
    size = s + m + 1
    if size > MAX_GROUP_ENUMERATION:
        raise CapacityError("kyiv_group_set", 2**size, 2**MAX_GROUP_ENUMERATION)
    terms = _kyiv_group(spec, k, kyiv_values(spec, k).a)
    return subsum_level(terms, cap).points()


def kyiv_chain_margin(spec: KyivSpec, k: int) -> Fraction:
    """m_k (s_k - 3 m_k + 12) - 8; nonnegativity keeps the tight chains growing."""
    m, s = spec.m[k], spec.s[k]
    return Fraction(m * (s - 3 * m + 12) - 8)
