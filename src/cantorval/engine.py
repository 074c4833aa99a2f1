"""Iterations, the self-similar operator, interior certificates, measure bounds.

The n-th iteration I_n is the union of bricks [f, f + r_n] over the subsums
f of the first n terms; the achievement set is the intersection of all I_n,
so lambda(I_n) is an upper bound for its measure.  For multigeometric specs
the Hutchinson operator Phi(S) = union over block subsums sigma of
q*(sigma + S) satisfies Phi(I_{mn}) = I_{m(n+1)}, and any finite interval
union S with S contained in Phi(S) is contained in the achievement set
(coinduction: S in Phi^j(I_0) for every j).  Verified such sets give exact
lower bounds on the interior measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .exact import (
    EMPTY_SET,
    Interval,
    IntervalSet,
    lattice_str,
    normalize,
    rat_str,
)
from .series import Bricks, CapacityError, SubsumLadder
from .families.multigeometric import MultigeometricSpec, mg_block

# Refinement that has not stabilized by this many parts will not stabilize:
# successful certificates have few parts, while Cantorval refinements split
# forever.  The cap keeps failure cheap.
DEFAULT_PART_LIMIT = 512


@dataclass(frozen=True)
class IterationReport:
    """I_n with its brick count, exact measure, and component geometry.

    The parts stay on the ladder's integer lattice; ``iteration`` builds
    them as an IntervalSet on first read.
    """

    n: int
    bricks: Bricks
    brick_count: int
    tail: Fraction

    @cached_property
    def iteration(self) -> IntervalSet:
        b = self.bricks
        return IntervalSet.from_lattice(b.starts, b.ends, b.denominator)

    @property
    def measure(self) -> Fraction:
        return self.bricks.measure

    @property
    def gap_count(self) -> int:
        return len(self.bricks) - 1

    def _longest_index(self) -> int:
        lengths = self.bricks.lengths()
        return lengths.index(max(lengths))

    @property
    def longest_component(self) -> Interval:
        return self.iteration.parts[self._longest_index()]

    def gaps(self) -> IntervalSet:
        """Closures of the bounded gaps between consecutive components."""
        parts = self.iteration.parts
        return IntervalSet(
            tuple(Interval(a.hi, b.lo) for a, b in zip(parts, parts[1:]))
        )

    def to_json(self) -> dict:
        b = self.bricks
        starts = [lattice_str(v, b.denominator) for v in b.starts]
        ends = [lattice_str(v, b.denominator) for v in b.ends]
        longest = self._longest_index()
        return {
            "n": self.n,
            "measure": rat_str(self.measure),
            "tail": rat_str(self.tail),
            "brick_count": self.brick_count,
            "gap_count": self.gap_count,
            "parts": [[lo, hi] for lo, hi in zip(starts, ends)],
            "gaps": [[hi, lo] for hi, lo in zip(ends, starts[1:])],
            "longest_component": [starts[longest], ends[longest]],
        }


def iterate(ladder: SubsumLadder, n: int) -> IterationReport:
    """Union of bricks [f, f + r_n] over the deduplicated subsum set F_n."""
    if n < 0:
        raise ValueError("iteration depth must be nonnegative")
    return IterationReport(
        n=n,
        bricks=ladder.bricks(n),
        brick_count=len(ladder.level(n)),
        tail=ladder.stream.tail(n),
    )


def hutchinson(spec: MultigeometricSpec, s: IntervalSet) -> IntervalSet:
    """Self-similar operator: union over block subsums sigma of q*s + q*sigma.

    Requires s inside [0, r_0].  Applying it to I_{mn} yields I_{m(n+1)}
    exactly; its unique compact fixed point is the achievement set.
    """
    ambient = IntervalSet((Interval(Fraction(0), spec.total),))
    if not s.is_subset_of(ambient):
        raise ValueError("operand must be contained in [0, r_0]")
    q = spec.ratio
    pieces: list[Interval] = []
    for sigma in mg_block(spec).values:
        shift = q * sigma
        pieces.extend(Interval(q * p.lo + shift, q * p.hi + shift) for p in s.parts)
    return normalize(pieces)


@dataclass(frozen=True)
class InteriorCertificate:
    """A finite interval union with an exactly rechecked self-cover.

    verified means S is contained in Phi(S) held under the final exact check,
    which by coinduction places S inside the achievement set; the certified
    interior measure is then exact.  Certification is sound but deliberately
    not complete: failure only means no certificate was found within budget.
    """

    spec: MultigeometricSpec
    s: IntervalSet
    verified: bool
    interior_measure: Fraction
    rounds: int
    diagnostics: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "verified": self.verified,
            "interior_measure": rat_str(self.interior_measure),
            "rounds": self.rounds,
            "parts": self.s.to_pairs(),
            "diagnostics": list(self.diagnostics),
        }


def _self_covered(spec: MultigeometricSpec, s: IntervalSet) -> bool:
    return bool(s) and s.is_subset_of(hutchinson(spec, s))


def _prune_to_covered(spec: MultigeometricSpec, s: IntervalSet) -> IntervalSet:
    """Drop parts not fully covered by the image until the family stabilizes.

    Monotone: removing parts can only shrink the image, so the loop ends in
    at most len(parts) rounds.  The survivor is a candidate, not a proof; the
    caller rechecks it exactly.
    """
    current = s.nondegenerate()
    while current:
        image = hutchinson(spec, current)
        kept = tuple(
            p for p in current.parts if IntervalSet((p,)).is_subset_of(image)
        )
        if len(kept) == len(current.parts):
            break
        current = IntervalSet(kept)
    return current


def _run_window_candidates(spec: MultigeometricSpec) -> list[IntervalSet]:
    """Single-interval candidates anchored at chain fixed points.

    For a window of block subsums sigma_a < ... < sigma_b whose internal gaps
    never exceed q (sigma_b - sigma_a) / (1 - q), the translated images of
    J = [q sigma_a / (1-q), q sigma_b / (1-q)] chain across J, so J covers
    itself.  Each candidate is still rechecked exactly by the caller.
    """
    sigmas = mg_block(spec).values
    q = spec.ratio
    factor = q / (1 - q)
    candidates: list[IntervalSet] = []
    for a in range(len(sigmas)):
        max_gap = Fraction(0)
        for b in range(a + 1, len(sigmas)):
            max_gap = max(max_gap, sigmas[b] - sigmas[b - 1])
            if max_gap <= factor * (sigmas[b] - sigmas[a]):
                lo = factor * sigmas[a]
                hi = factor * sigmas[b]
                candidates.append(IntervalSet((Interval(lo, hi),)))
    return candidates


def certify_interior(
    spec: MultigeometricSpec,
    ladder: SubsumLadder,
    seed_depth: int = 2,
    budget: int = 16,
    *,
    part_limit: int = DEFAULT_PART_LIMIT,
) -> InteriorCertificate:
    """Search for a finite self-covered interval union inside the attractor.

    ``ladder`` is the subsum ladder of mg_stream(spec).  Seeds with
    I_{m * seed_depth} and refines S to S intersect Phi(S); a refinement
    fixed point is exactly the wanted property.  When refinement does not
    stabilize (for many Cantorvals it cannot: the parts multiply
    forever), analytic run-window candidates are pruned and tried.
    Whatever survives is rechecked exactly; only that recheck sets
    ``verified``.
    """
    if seed_depth < 1 or budget < 0:
        raise ValueError("need seed_depth >= 1 and budget >= 0")
    s = iterate(ladder, spec.m * seed_depth).iteration.nondegenerate()
    diagnostics: list[str] = []
    rounds = 0
    stabilized = False
    for _ in range(budget):
        image = hutchinson(spec, s)
        refined = s.intersect(image).nondegenerate()
        rounds += 1
        if refined == s:
            stabilized = True
            break
        s = refined
        if not s:
            diagnostics.append("refinement emptied the candidate")
            break
        if len(s) > part_limit:
            diagnostics.append(
                f"refinement stopped at round {rounds}: {len(s)} parts exceed limit {part_limit}"
            )
            break

    verified_pieces: list[IntervalSet] = []
    if stabilized and _self_covered(spec, s):
        verified_pieces.append(s)
    else:
        for candidate in _run_window_candidates(spec):
            pruned = _prune_to_covered(spec, candidate)
            if _self_covered(spec, pruned):
                verified_pieces.append(pruned)

    if verified_pieces:
        union = verified_pieces[0]
        for piece in verified_pieces[1:]:
            union = union.union(piece)
        union = union.nondegenerate()
        if _self_covered(spec, union):  # final exact recheck
            return InteriorCertificate(
                spec=spec,
                s=union,
                verified=True,
                interior_measure=union.interior_measure,
                rounds=rounds,
                diagnostics=tuple(diagnostics),
            )
        diagnostics.append("union of verified pieces failed the exact recheck")

    if s and not stabilized:
        head = IntervalSet(s.parts[:32])
        # Block subsums are >= 0, so a part starting beyond head.hi / q maps
        # wholly above the head; leaving it out keeps the difference exact.
        reach = head.parts[-1].hi / spec.ratio
        near = IntervalSet(tuple(p for p in s.parts if p.lo <= reach))
        uncovered = head.difference(hutchinson(spec, near))
        preview = ", ".join(str(p) for p in uncovered.parts[:4])
        diagnostics.append(f"uncovered remainder after {rounds} rounds: {preview}")
    return InteriorCertificate(
        spec=spec,
        s=EMPTY_SET,
        verified=False,
        interior_measure=Fraction(0),
        rounds=rounds,
        diagnostics=tuple(diagnostics),
    )


@dataclass(frozen=True)
class MeasureBounds:
    """Two-sided bounds: lambda(I_depth) above, certified interior below.

    boundary_gap = upper - lower bounds the boundary measure of the
    achievement set from above.
    """

    depth: int
    upper_lambda_e: Fraction
    lower_interior: Fraction
    boundary_gap: Fraction
    certificate: Optional[InteriorCertificate] = None

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "upper_lambda_e": rat_str(self.upper_lambda_e),
            "lower_interior": rat_str(self.lower_interior),
            "boundary_gap": rat_str(self.boundary_gap),
            "certificate": self.certificate.to_json() if self.certificate else None,
        }


def measure_bounds(
    ladder: SubsumLadder,
    depth: int,
    budget: int = 12,
    spec: Optional[MultigeometricSpec] = None,
    *,
    seed2: Optional[InteriorCertificate] = None,
) -> MeasureBounds:
    """Upper bound lambda(I_depth); certified interior lower bound when possible.

    Only multigeometric specs have the exact self-similar operator, so a
    lower bound is certified only when ``spec`` is given (``ladder`` is then
    the ladder of mg_stream(spec)); other streams get a lower bound of zero
    here (their interior content is covered by the family closed forms
    instead).  The best certificate over seed depths up to depth is used,
    which keeps the boundary gap nonincreasing as depth and budget grow.

    ``seed2``, when given, is the result of
    ``certify_interior(spec, ladder, 2, budget)`` already in hand (classify
    runs exactly that search); it stands in for the seed-2 search here.
    build_report passes no ``spec`` when the classification proves the
    interior empty: a verified certificate lies inside the set, so no search
    could raise the lower bound above zero.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    upper = iterate(ladder, depth).measure
    lower = Fraction(0)
    best: Optional[InteriorCertificate] = None
    if spec is not None:
        max_seed = max(1, min(depth // spec.m, 4))
        for seed in range(1, max_seed + 1):
            if seed == 2 and seed2 is not None:
                cert = seed2
            else:
                try:
                    cert = certify_interior(spec, ladder, seed, budget)
                except CapacityError:
                    continue
            if cert.verified and cert.interior_measure > lower:
                lower = cert.interior_measure
                best = cert
    return MeasureBounds(
        depth=depth,
        upper_lambda_e=upper,
        lower_interior=lower,
        boundary_gap=upper - lower,
        certificate=best,
    )
