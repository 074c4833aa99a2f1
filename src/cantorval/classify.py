"""Topological classification of achievement sets with explicit proof tiers.

Every achievement set of a convergent positive series is a finite set, a
multi-interval set, a Cantor set, or a Cantorval.  The classifier reports
the verdict together with how it knows:

* Proved: a family-analytic argument (validated family construction, or an
  exact eventually-periodic Kakeya comparison pattern feeding the classical
  term-vs-tail theorems).
* Certified: an exact finite witness (a verified interior certificate plus
  an infinite Kakeya pattern, or separated block bricks).  With infinitely
  many Kakeya indices a certificate search verifies only on the spec's
  run-window union (engine.run_windows), so it runs only when that union
  passes its exact recheck.
* Heuristic: finite-horizon evidence only; always carries the horizon.

Unknown is an honest first-class verdict, not an error.
"""

from __future__ import annotations

import enum
import operator
from typing import TYPE_CHECKING, Optional, Union

from .engine import certify_interior, iterate, run_windows
from .exact import lattice_str, lattice_strs, rat_str
from .families.multigeometric import MultigeometricSpec, mg_block
from .frozen import frozen
from .series import (
    GREATER,
    Bricks,
    CapacityError,
    KakeyaPattern,
    KakeyaSplit,
    SubsumLadder,
    TermStream,
    kakeya_split,
)
from .tightness import TightTrend, tight_trend

if TYPE_CHECKING:
    from .families.io import FamilySpec

    Subject = Union[TermStream, FamilySpec]


class Verdict(enum.Enum):
    FINITE = "Finite"
    MULTI_INTERVAL = "MultiInterval"
    CANTOR = "Cantor"
    CANTORVAL = "Cantorval"
    UNKNOWN = "Unknown"


class Tier(enum.Enum):
    PROVED = "Proved"
    CERTIFIED = "Certified"
    HEURISTIC = "Heuristic"


@frozen
class Classification:
    """A verdict at its tier, with the witnesses that place it there."""

    verdict: Verdict
    tier: Tier
    horizon: int
    witnesses: dict

    @property
    def interior_empty(self) -> bool:
        """True when the verdict proves the set has empty interior.

        A Finite or Cantor verdict above the heuristic tier; a heuristic
        Cantor verdict is finite-horizon evidence, not a proof.
        """
        return (
            self.verdict in (Verdict.FINITE, Verdict.CANTOR)
            and self.tier is not Tier.HEURISTIC
        )

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "tier": self.tier.value,
            "horizon": self.horizon,
            "witnesses": self.witnesses,
        }


def resolve_stream(subject: Subject) -> TermStream:
    """The term stream of any classifiable subject."""
    return subject if isinstance(subject, TermStream) else subject.stream()


def _pattern_witness(pattern: KakeyaPattern) -> dict:
    return {"prefix": list(pattern.prefix), "cycle": list(pattern.cycle)}


def _pattern_classification(
    pattern: KakeyaPattern, horizon: int
) -> Optional[Classification]:
    """Verdicts provable from the exact comparison pattern alone.

    Finitely many Kakeya indices force a multi-interval set (and conversely);
    finitely many reversed indices force a Cantor set; and when x_n < r_n
    happens only finitely often, the set is multi-interval if the comparisons
    are eventually all equalities and Cantor otherwise.
    """
    witness = {"kakeya_pattern": _pattern_witness(pattern)}
    if pattern.kakeya_is_finite:
        return Classification(Verdict.MULTI_INTERVAL, Tier.PROVED, horizon, witness)
    if pattern.strict_reversed_is_finite:
        # Cycle has '>' (otherwise the previous branch fired) and no '<'.
        return Classification(Verdict.CANTOR, Tier.PROVED, horizon, witness)
    return None


def _separated_blocks(spec: MultigeometricSpec) -> Optional[dict]:
    """Witness that consecutive block subsums are separated by more than r_0.

    Then the group-level bricks are pairwise disjoint and the separation
    recurs inside every brick by self-similarity, so the attractor is
    totally disconnected: a Cantor set.  The gaps are compared on the
    block's lattice; a block of positive coefficients has at least two
    subsums, so there is always a gap.
    """
    block = mg_block(spec)
    d, values = block.denominator, block.values
    min_gap = min(map(operator.sub, values[1:], values))
    r0 = spec.total
    if min_gap * r0.denominator > r0.numerator * d:
        return {
            "block": [lattice_str(v, d) for v in values],
            "min_gap": lattice_str(min_gap, d),
            "r0": rat_str(r0),
        }
    return None


def _gaps(bricks: Bricks) -> list[list[str]]:
    """The gaps between consecutive parts of an iteration, as "p/q" pairs."""
    d = bricks.denominator
    ends = lattice_strs(bricks.ends[:-1], d)
    starts = lattice_strs(bricks.starts[1:], d)
    return [[lo, hi] for lo, hi in zip(ends, starts)]


def classify(
    subject: Subject,
    ladder: SubsumLadder,
    horizon: int = 12,
    budget: int = 16,
    *,
    trend: Optional[TightTrend] = None,
    split: Optional[KakeyaSplit] = None,
) -> Classification:
    """Decide the topological type at the strongest honest tier.

    ``ladder`` is the subsum ladder of the subject's stream (see
    resolve_stream).  Family-analytic proofs (the spec's family_verdict)
    are tried first, then exact pattern proofs, then exact finite
    certificates (multigeometric only), then finite-horizon heuristics.
    Certified verdicts do not depend on the horizon, so they are stable
    under horizon increase.

    The certificate and heuristic tiers are reached only with infinitely
    many Kakeya indices (every stream has an exact pattern), where a search
    verifies exactly when run_windows(spec) is not None (see the engine
    module docstring), so only then does it search.  An unverified search
    changes no verdict: the heuristic tier never reads it.  A verified
    certificate has positive measure, since its parts are nonempty and not
    single points.

    The heuristic tier reads ``trend``, which is tight_trend(ladder,
    horizon), and ``split``, which is kakeya_split(stream, horizon); a
    caller that writes them too passes them in, and the tier computes any
    it is not given.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    stream = ladder.stream
    spec = None if isinstance(subject, TermStream) else subject

    from_family = spec.family_verdict() if spec is not None else None
    if from_family is not None:
        verdict, witness = from_family
        return Classification(Verdict(verdict), Tier.PROVED, horizon, witness)

    pattern = stream.kakeya_pattern()
    from_pattern = _pattern_classification(pattern, horizon)
    if from_pattern is not None:
        return from_pattern

    if isinstance(spec, MultigeometricSpec):
        separated = _separated_blocks(spec)
        if separated is not None:
            return Classification(
                Verdict.CANTOR, Tier.CERTIFIED, horizon, {"separated_blocks": separated}
            )
        certificate = None
        if run_windows(spec) is not None:
            try:
                certificate = certify_interior(spec, ladder, seed_depth=2, budget=budget)
            except CapacityError:
                certificate = None
        if certificate is not None and certificate.verified:
            # Interval inside the attractor plus infinitely many Kakeya
            # indices (each strict index splits bricks at its level, and the
            # pattern repeats forever) rules out every type but Cantorval.
            first_strict = next(
                n for n in range(1, len(pattern.prefix) + len(pattern.cycle) + 1)
                if pattern.comparison_at(n) == GREATER
            )
            return Classification(
                Verdict.CANTORVAL,
                Tier.CERTIFIED,
                horizon,
                {
                    "certificate": certificate.to_json(),
                    "kakeya_pattern": _pattern_witness(pattern),
                    "gaps": _gaps(ladder.bricks(first_strict)),
                },
            )

    # Heuristic tier: exact finite-horizon measurements, honest about reach.
    if trend is None:
        trend = tight_trend(ladder, horizon)
    if split is None:
        split = kakeya_split(stream, horizon)
    report = iterate(ladder, horizon)
    witness = {
        "tight_trend": trend.to_json(),
        "gap_count": report.gap_count,
        "kakeya": split.to_json(),
        "kakeya_pattern": _pattern_witness(pattern),
    }
    # The pattern tier has returned unless the Kakeya indices are infinite.
    if trend.interval_evidence and report.gap_count > 0:
        verdict = Verdict.CANTORVAL
    elif trend.interval_evidence and report.gap_count == 0:
        verdict = Verdict.MULTI_INTERVAL
    elif trend.final == 0:
        verdict = Verdict.CANTOR
    else:
        verdict = Verdict.UNKNOWN
    return Classification(verdict, Tier.HEURISTIC, horizon, witness)
