"""Generalized Ferens series.

Group n consists of the k_n consecutive-integer coefficients
m_n + k_n - 1, ..., m_n + 1, m_n, scaled by q_n.  The subsums of one group
form {0} u {m_n, ..., s_n} u {s_n + m_n} (times q_n) where
s_n = (m_n+1) + (m_n+2) + ... + (m_n+k_n-1): a long run of consecutive
multiples of q_n, which is what lets these series achieve Cantorvals.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional

from ..exact import PointSet, rat_str
from ..frozen import frozen
from .grouped import GroupedStream, check_head, periodic_tail
from .io import is_int
from .periodic import BlockGeometric, PeriodicSeq


def subsum_run_total(p: int, r: int) -> int:
    """s(p, r) = sum of (p + i) for i = 1..r-1; the top of the consecutive run."""
    if r <= p or p < 2:
        raise ValueError("need r > p >= 2")
    return (r - 1) * p + r * (r - 1) // 2


@frozen
class GFSpec:
    """Sequences m_n >= 2, k_n > m_n (integers), and a positive scale q_n."""

    m: PeriodicSeq
    k: PeriodicSeq
    q: BlockGeometric

    standardness_family = "gf"

    def __post_init__(self) -> None:
        probe = self.alignment_horizon
        for n in range(1, probe + 1):
            mv, kv = self.m[n], self.k[n]
            if not is_int(mv) or mv < 2:
                raise ValueError(f"m_{n} must be an integer >= 2, got {mv!r}")
            if not is_int(kv) or kv <= mv:
                raise ValueError(f"k_{n} must be an integer > m_{n}, got {kv!r}")

    @property
    def group_preperiod(self) -> int:
        return max(
            self.m.preperiod_length, self.k.preperiod_length, self.q.preperiod_length
        )

    @property
    def group_period(self) -> int:
        return lcm(self.m.period_length, self.k.period_length, self.q.block_length)

    @property
    def alignment_horizon(self) -> int:
        return self.group_preperiod + 2 * self.group_period + 1

    @property
    def block_ratio(self) -> Fraction:
        return self.q.ratio ** (self.group_period // self.q.block_length)

    def s(self, n: int) -> int:
        return subsum_run_total(self.m[n], self.k[n])

    def interval_length(self, stream: GroupedStream, i: int) -> Fraction:
        """(s_i - m_i) q_i, group i's weight in ``standardness_ratio``."""
        return (self.s(i) - self.m[i]) * self.q[i]

    def to_json(self) -> dict:
        return {
            "type": "gf",
            "m": self.m.to_json(),
            "k": self.k.to_json(),
            "q": self.q.to_json(),
        }

    @staticmethod
    def from_json(doc: dict) -> "GFSpec":
        return GFSpec(
            PeriodicSeq.from_json(doc["m"], "m"),
            PeriodicSeq.from_json(doc["k"], "k"),
            BlockGeometric.from_json(doc["q"], "q"),
        )

    def stream(self) -> GroupedStream:
        """Group n: coefficients m_n + k_n - 1 down to m_n, scaled by q_n.

        The lattice is that of the scales q_1 .. q_(P+2p): the lcm of their
        prefix's and block's denominators times a power of the ratio's
        denominator (``BlockGeometric.lattice``).
        """
        pre, period = self.group_preperiod, self.group_period
        count = pre + 2 * period
        check_head(sum(self.k[n] for n in range(1, count + 1)), self.q.lattice_bits(count))
        denominator, scales = self.q.lattice(count)
        groups = [
            tuple((self.m[n] + t) * q for t in range(self.k[n] - 1, -1, -1))
            for n, q in enumerate(scales, 1)
        ]
        return GroupedStream(groups, denominator, pre, period)

    def conditions(self) -> list[dict]:
        """``validate``'s rows: GF1, GF2 and the run totals, with witnesses."""
        report = gf_validate(self)
        doc = report.to_json()
        return [
            {
                "name": "GF1: q_n <= (s_{n+1} - m_{n+1} + 1) q_{n+1}",
                "passed": report.gf1_holds,
                "witness": "all indices" if report.gf1_holds else str(doc["gf1_failure"]),
            },
            {
                "name": "GF2: m_n q_n > tail of (s_i + m_i) q_i",
                "passed": report.gf2_holds,
                "witness": "all indices" if report.gf2_holds else str(doc["gf2_failure"]),
            },
            {"name": "run totals s_n", "passed": True, "witness": str(doc["s"])},
        ]

    def family_verdict(self) -> Optional[tuple[str, dict]]:
        """A Cantorval when GF1 and GF2 hold, with the validation as witness."""
        report = gf_validate(self)
        if not report.passed:
            return None
        return "Cantorval", {"family": "gf", "validation": report.to_json()}


@frozen
class GFValidation:
    """Exact pass/fail of the two Ferens growth conditions, with witnesses."""

    gf1_holds: bool
    gf2_holds: bool
    s_values: tuple[int, ...]
    checked_through: int
    first_gf1_failure: Optional[tuple[int, Fraction, Fraction]] = None
    first_gf2_failure: Optional[tuple[int, Fraction, Fraction]] = None

    @property
    def passed(self) -> bool:
        return self.gf1_holds and self.gf2_holds

    def to_json(self) -> dict:
        def fail(entry):
            if entry is None:
                return None
            n, lhs, rhs = entry
            return {"index": n, "lhs": rat_str(lhs), "rhs": rat_str(rhs)}

        return {
            "gf1": self.gf1_holds,
            "gf2": self.gf2_holds,
            "s": list(self.s_values),
            "checked_through": self.checked_through,
            "gf1_failure": fail(self.first_gf1_failure),
            "gf2_failure": fail(self.first_gf2_failure),
        }


def gf_validate(spec: GFSpec) -> GFValidation:
    """Check the two growth conditions for every n.

    Both sides of each condition scale by the same exact factor from one
    period of groups to the next, so checking indices up to preperiod +
    period decides all n.
    """
    decisive = spec.group_preperiod + spec.group_period
    gf1_fail = gf2_fail = None
    for n in range(1, decisive + 1):
        lhs1 = spec.q[n]
        rhs1 = (spec.s(n + 1) - spec.m[n + 1] + 1) * spec.q[n + 1]
        if gf1_fail is None and not lhs1 <= rhs1:
            gf1_fail = (n, lhs1, rhs1)
        lhs2 = spec.m[n] * spec.q[n]
        rhs2 = periodic_tail(
            lambda i: (spec.s(i) + spec.m[i]) * spec.q[i],
            n,
            spec.group_preperiod,
            spec.group_period,
            spec.block_ratio,
        )
        if gf2_fail is None and not lhs2 > rhs2:
            gf2_fail = (n, lhs2, rhs2)
    return GFValidation(
        gf1_holds=gf1_fail is None,
        gf2_holds=gf2_fail is None,
        s_values=tuple(spec.s(n) for n in range(1, decisive + 1)),
        checked_through=decisive,
        first_gf1_failure=gf1_fail,
        first_gf2_failure=gf2_fail,
    )


def gf_group_set(spec: GFSpec, n: int) -> PointSet:
    """Closed-form subsum set of group n: ({0} u {m_n..s_n} u {s_n+m_n}) * q_n."""
    if n < 1:
        raise ValueError("group indices start at 1")
    m, s, q = spec.m[n], spec.s(n), spec.q[n]
    values = [0] + list(range(m, s + 1)) + [s + m]
    return PointSet(tuple(v * q for v in values))
