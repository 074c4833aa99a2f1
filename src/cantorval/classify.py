"""Topological classification of achievement sets with explicit proof tiers.

Every achievement set of a convergent positive series is a finite set, a
multi-interval set, a Cantor set, or a Cantorval.  A term stream has
infinitely many positive terms, so its set is never finite and no verdict
says Finite.  ``classify`` tries PROVERS in this order and returns the
first verdict, with its tier:

* _from_family and _from_pattern: Proved;
* _from_separated_blocks and _from_certificate: Certified;
* _from_horizon: Heuristic, finite-horizon evidence carrying its horizon.

Unknown is an honest first-class verdict, not an error.
"""

from __future__ import annotations

import enum
import operator
from functools import cached_property
from typing import TYPE_CHECKING, Optional, Union

from .engine import DEFAULT_BUDGET, certify_interior, iterate
from .exact import lattice_str, lattice_strs, rat_str
from .families import self_similar
from .frozen import frozen
from .series import (
    GREATER,
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
        """True when the verdict proves the set has empty interior: a Cantor
        verdict above the heuristic tier, where it is finite-horizon
        evidence, not a proof."""
        return self.verdict is Verdict.CANTOR and self.tier is not Tier.HEURISTIC

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


@frozen
class Evidence:
    """What the provers read about one subject, with ``ladder`` the subsum
    ladder of its stream.  ``pattern``, ``trend`` (tight_trend(ladder,
    horizon)) and ``split`` (kakeya_split(stream, horizon)) are computed on
    first read and kept, so each is computed once per report."""

    subject: Subject
    ladder: SubsumLadder
    horizon: int = 12
    budget: int = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")

    @cached_property
    def pattern(self) -> KakeyaPattern:
        return self.ladder.stream.kakeya_pattern()

    @cached_property
    def trend(self) -> TightTrend:
        return tight_trend(self.ladder, self.horizon)

    @cached_property
    def split(self) -> KakeyaSplit:
        return kakeya_split(self.ladder.stream, self.horizon)


def _pattern_witness(pattern: KakeyaPattern) -> dict:
    return {"prefix": list(pattern.prefix), "cycle": list(pattern.cycle)}


def _from_family(evidence: Evidence) -> Optional[Classification]:
    """Proved: the verdict of the spec's family closed form (family_verdict)."""
    subject = evidence.subject
    found = None if isinstance(subject, TermStream) else subject.family_verdict()
    if found is None:
        return None
    verdict, witness = found
    return Classification(Verdict(verdict), Tier.PROVED, evidence.horizon, witness)


def _from_pattern(evidence: Evidence) -> Optional[Classification]:
    """Proved from the exact comparison pattern alone.  Finitely many Kakeya
    indices force a multi-interval set (and conversely).  When x_n < r_n
    only finitely often, the set is multi-interval if the comparisons are
    eventually all equalities and Cantor otherwise."""
    pattern = evidence.pattern
    if pattern.kakeya_is_finite:
        verdict = Verdict.MULTI_INTERVAL
    elif pattern.strict_reversed_is_finite:
        # Cycle has '>' (otherwise the previous branch fired) and no '<'.
        verdict = Verdict.CANTOR
    else:
        return None
    witness = {"kakeya_pattern": _pattern_witness(pattern)}
    return Classification(verdict, Tier.PROVED, evidence.horizon, witness)


def _from_separated_blocks(evidence: Evidence) -> Optional[Classification]:
    """Certified Cantor: subsums of the block K of E = q * (K + E) more
    than r_0 apart make the group bricks pairwise disjoint, and by
    self-similarity the separation recurs in every brick.  The gaps are
    compared on K's lattice; K has at least two subsums.  A subject that
    ``self_similar`` gives no block certifies nothing."""
    similar = self_similar(evidence.subject)
    if similar is None:
        return None
    d, values = similar.block.denominator, similar.block.values
    min_gap = min(map(operator.sub, values[1:], values))
    r0 = similar.total
    if min_gap * r0.denominator <= r0.numerator * d:
        return None
    witness = {
        "block": [lattice_str(v, d) for v in values],
        "min_gap": lattice_str(min_gap, d),
        "r0": rat_str(r0),
    }
    return Classification(
        Verdict.CANTOR, Tier.CERTIFIED, evidence.horizon, {"separated_blocks": witness}
    )


def _from_certificate(evidence: Evidence) -> Optional[Classification]:
    """Certified Cantorval: a verified interior certificate has positive
    measure (its parts are nonempty and not single points), and infinitely
    many Kakeya indices split bricks forever.  A search needs a value from
    ``self_similar`` and verifies exactly when its run-window union,
    ``windows``, is not None (see the engine module docstring), so only
    then does it search; an unverified one, or a seed I_{2m} over the cap,
    changes no verdict."""
    spec = evidence.subject
    similar = self_similar(spec)
    if similar is None or similar.windows is None:
        return None
    try:
        certificate = certify_interior(spec, evidence.ladder, seed_depth=2, budget=evidence.budget)
    except CapacityError:
        return None
    if not certificate.verified:
        return None
    pattern = evidence.pattern
    first_strict = (pattern.prefix + pattern.cycle).index(GREATER) + 1
    bricks = evidence.ladder.bricks(first_strict)
    d = bricks.denominator
    gaps = zip(lattice_strs(bricks.ends[:-1], d), lattice_strs(bricks.starts[1:], d))
    witness = {
        "certificate": certificate.to_json(),
        "kakeya_pattern": _pattern_witness(pattern),
        "gaps": [[lo, hi] for lo, hi in gaps],
    }
    return Classification(Verdict.CANTORVAL, Tier.CERTIFIED, evidence.horizon, witness)


def _from_horizon(evidence: Evidence) -> Classification:
    """Heuristic, reached only with infinitely many Kakeya indices: interval
    evidence in the tight trend says Cantorval with gaps in I_horizon and
    MultiInterval without; a trend ending at 0 says Cantor, and anything
    else Unknown.  It always decides, so it comes last."""
    trend, split = evidence.trend, evidence.split
    report = iterate(evidence.ladder, evidence.horizon)
    witness = {
        "tight_trend": trend.to_json(),
        "gap_count": report.gap_count,
        "kakeya": split.to_json(),
        "kakeya_pattern": _pattern_witness(evidence.pattern),
    }
    if trend.interval_evidence and report.gap_count > 0:
        verdict = Verdict.CANTORVAL
    elif trend.interval_evidence and report.gap_count == 0:
        verdict = Verdict.MULTI_INTERVAL
    elif trend.final == 0:
        verdict = Verdict.CANTOR
    else:
        verdict = Verdict.UNKNOWN
    return Classification(verdict, Tier.HEURISTIC, evidence.horizon, witness)


PROVERS = (_from_family, _from_pattern, _from_separated_blocks, _from_certificate, _from_horizon)


def classify(
    subject: Subject,
    ladder: SubsumLadder,
    horizon: int = 12,
    budget: int = DEFAULT_BUDGET,
    *,
    evidence: Optional[Evidence] = None,
) -> Classification:
    """Decide the topological type at the strongest honest tier: the first
    verdict of PROVERS over Evidence(subject, ladder, horizon, budget), or
    over ``evidence``, which a caller that reads its trend or split too
    (cli._analysis) passes in place of the horizon and budget."""
    if evidence is None:
        evidence = Evidence(subject, ladder, horizon, budget)
    for prover in PROVERS:
        found = prover(evidence)
        if found is not None:
            return found
