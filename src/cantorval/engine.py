"""Iterations, the self-similar operator, interior certificates, measure bounds.

The n-th iteration I_n is the union of bricks [f, f + r_n] over the subsums
f of the first n terms; the achievement set is the intersection of all I_n,
so lambda(I_n) is an upper bound for its measure.  For a set E = q(K + E),
K the block of the value ``families.self_similar(spec)``, the Hutchinson
operator Phi(S) = union over block subsums sigma of q*(sigma + S), which
that value applies, satisfies Phi(I_{mn}) = I_{m(n+1)}, and any finite
interval union S with S contained in Phi(S) is contained in the achievement
set (coinduction: S in Phi^j(I_0) for every j).  Verified such sets give
exact lower bounds on the interior measure.

A search can verify only in two ways.  When its refinement S -> S cap Phi(S)
stabilizes, S lies in Phi(S), so S lies in the achievement set E; and E lies
in every refined S, because E lies in the seed I_n and E = Phi(E) lies in
Phi(S), and a perfect set loses no point when degenerate parts are dropped.
So S = E, a finite union of intervals, which by Guthrie-Nymann happens only
with finitely many Kakeya indices.  Otherwise the search falls back on the
run-window union, which depends only on the spec and is kept on its value,
as ``windows``.  So with infinitely many Kakeya indices every search
verifies exactly when ``self_similar(spec).windows`` is not None, on that
union, whatever its seed and budget.  Unverified certificates never reach a
report, so searches that cannot verify are skipped without changing a byte,
and a failed search reports only its rounds and whether it hit the part
limit.

The certificate search runs on integer endpoints: every set it handles is a
sorted list of (lo, hi) integer pairs over one common denominator, and Phi
maps a list over d to one over b * d for q = a / b.  Fractions are built
only for the values a report prints: the certificate.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import TYPE_CHECKING, Iterator, Optional

from .exact import (
    EMPTY_SET,
    Interval,
    IntervalSet,
    intersect_parts,
    lattice_strs,
    nondegenerate_parts,
    normalize,
    pairs_chunks,
    rat_str,
)
from .frozen import frozen
from .series import Bricks, CapacityError, SelfSimilar, SubsumLadder
from .families import self_similar

if TYPE_CHECKING:
    from .families.io import FamilySpec

# Refinement rounds per certificate search when the caller names no budget;
# ``analyze --budget`` defaults to it too.
DEFAULT_BUDGET = 12

# Refinement that has not stabilized by this many parts will not stabilize:
# successful certificates have few parts, while Cantorval refinements split
# forever.  The cap keeps failure cheap.
DEFAULT_PART_LIMIT = 512


@frozen
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

    @property
    def separated(self) -> bool:
        """Every part is one brick, of length r_n (see ``series``)."""
        return len(self.bricks) == self.brick_count

    def head_text(self, newline: str, measure: str) -> str:
        """The row's text before ``"gap_count"``, with ``measure`` the
        measure string that ``bricks_text`` gives."""
        i1 = newline + "  "
        return (
            f'{{{i1}"n": {self.n},{i1}"measure": "{measure}",{i1}"tail": "{rat_str(self.tail)}",'
            f'{i1}"brick_count": {self.brick_count},'
        )

    def bricks_text(
        self, newline: str, starts: list[str], ends: list[str]
    ) -> tuple[str, tuple[str, ...]]:
        """The row's text that its Bricks alone decides: the measure, and
        the chunks of the row from ``"gap_count"`` to its closing brace.

        ``starts`` and ``ends`` are the "p/q" strings of the parts'
        endpoints, which IterationRows hands from row to row.  ``parts``
        and ``gaps`` are each written by ``pairs_chunks``, whose body is a
        chunk of its own, so nothing is escaped or copied into the row.
        """
        longest = 0 if self.separated else self.bricks.longest  # separated: all r_n long
        i1 = newline + "  "
        i2 = i1 + "  "
        return rat_str(self.measure), (
            f'{i1}"gap_count": {self.gap_count},{i1}"parts": ',
            *pairs_chunks(starts, ends, i1),
            f',{i1}"gaps": ',
            *pairs_chunks(ends, starts[1:], i1),
            f',{i1}"longest_component": '
            f'[{i2}"{starts[longest]}",{i2}"{ends[longest]}"{i1}]{newline}}}',
        )


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


class IterationRows:
    """The rows I_0, ..., I_depth of one ladder, written as one JSON list.

    ``chunks`` writes the rows in order and gets each row's endpoint
    strings in one of three ways.  A row whose Bricks is the previous
    row's object, a level the ladder carried, reuses the previous row's
    ``bricks_text`` as it is: its measure, parts, gaps and longest
    component.  After a separated row n - 1, one whose every part is a
    brick, a swept row n is a Kakeya level, so it has split each part of
    I_{n-1} in two, by fact (B) of the ``series`` docstring: its starts
    alternate old, new and its ends new, old.  So the previous row's
    strings, which name rationals whatever lattice they were read from,
    are sliced into place and only the new half is formatted.  Any other
    row formats its endpoints whole.
    """

    def __init__(self, ladder: SubsumLadder, depth: int) -> None:
        self.rows = tuple(iterate(ladder, n) for n in range(depth + 1))

    def __iter__(self) -> Iterator[IterationReport]:
        return iter(self.rows)

    def __getitem__(self, i: int) -> IterationReport:
        return self.rows[i]

    def chunks(self, newline: str) -> Iterator[str]:
        """The chunks of the rows' list at the nesting of ``newline``: per
        row a separator, the head and the ``bricks_text`` chunks, among them
        the ``parts`` and ``gaps`` bodies; joined, they are its indent-2 JSON
        text.  The rows that hold one Bricks yield the same ``bricks_text``
        chunks, so each body is joined once per distinct Bricks."""
        inner = newline + "  "
        separator = "[" + inner
        last: Optional[Bricks] = None
        was_separated = False
        for row in self.rows:
            got = row.bricks
            if got is not last:
                d = got.denominator
                if was_separated:
                    starts = _interleaved(starts, lattice_strs(got.starts[1::2], d))
                    ends = _interleaved(lattice_strs(got.ends[::2], d), ends)
                else:
                    starts = lattice_strs(got.starts, d)
                    ends = lattice_strs(got.ends, d)
                measure, rest = row.bricks_text(inner, starts, ends)
                last = got
            was_separated = row.separated
            yield separator
            yield row.head_text(inner, measure)
            yield from rest
            separator = "," + inner
        yield newline + "]" if self.rows else "[]"


def _interleaved(evens: list[str], odds: list[str]) -> list[str]:
    """evens[0], odds[0], evens[1], odds[1], ... for lists of one length."""
    out = [""] * (2 * len(evens))
    out[::2] = evens
    out[1::2] = odds
    return out


def _similar(spec: FamilySpec) -> SelfSimilar:
    """``self_similar(spec)``; ValueError for a spec that it gives no block."""
    similar = self_similar(spec)
    if similar is None:
        raise ValueError(f"{type(spec).__name__}: no self-similar block within the cap")
    return similar


def hutchinson(spec: FamilySpec, s: IntervalSet) -> IntervalSet:
    """Self-similar operator: union over block subsums sigma of q*s + q*sigma.

    Requires s inside [0, r_0] and a spec with a self-similar block, else
    ValueError.  Applying it to I_{mn} yields I_{m(n+1)}
    exactly; its unique compact fixed point is the achievement set.  The
    endpoints of s go onto their common denominator and through the same
    integer operator that the certificate search runs.
    """
    similar = _similar(spec)
    d = lcm(similar.block.denominator, *(x.denominator for p in s for x in (p.lo, p.hi)))
    parts = [
        (p.lo.numerator * (d // p.lo.denominator), p.hi.numerator * (d // p.hi.denominator))
        for p in s
    ]
    bd = similar.ratio.denominator * d
    image = similar.image(d, parts)
    return normalize(Interval(Fraction(lo, bd), Fraction(hi, bd)) for lo, hi in image)


@frozen
class InteriorCertificate:
    """A finite interval union with an exactly rechecked self-cover.

    verified means S is contained in Phi(S) held under the final exact check,
    which by coinduction places S inside the achievement set; the certified
    interior measure is then exact.  Certification is sound but deliberately
    not complete: failure only means no certificate was found within budget.
    """

    spec: FamilySpec
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


def certify_interior(
    spec: FamilySpec,
    ladder: SubsumLadder,
    seed_depth: int = 2,
    budget: int = DEFAULT_BUDGET,
) -> InteriorCertificate:
    """Search for a finite self-covered interval union inside the attractor.

    ``ladder`` is the subsum ladder of spec.stream().  Seeds with
    I_{m * seed_depth} and refines S to S intersect Phi(S); a refinement
    fixed point is exactly the wanted property.  When refinement does not
    stabilize within ``budget`` rounds and DEFAULT_PART_LIMIT parts (for
    many Cantorvals it cannot: the parts multiply forever), the certificate
    is the run-window union kept on ``self_similar(spec)``, its ``windows``.
    Either set has passed the exact self-cover recheck, ``covers``, before
    ``verified`` is set.  A spec with no self-similar block raises
    ValueError.

    Every set is a part list of integers over one common denominator d,
    which starts as the lcm of the seed's and the block subsums'
    denominators and grows by b (q = a / b) with each refinement round.
    Fractions are built only for the certificate.
    """
    if seed_depth < 1 or budget < 0:
        raise ValueError("need seed_depth >= 1 and budget >= 0")
    similar = _similar(spec)
    b = similar.ratio.denominator
    seed = ladder.bricks(similar.m * seed_depth)
    d = lcm(seed.denominator, similar.block.denominator)
    scale = d // seed.denominator
    s = nondegenerate_parts(
        [(lo * scale, hi * scale) for lo, hi in zip(seed.starts, seed.ends)]
    )
    diagnostics: tuple[str, ...] = ()
    rounds = 0
    stabilized = False
    for _ in range(budget):
        scaled = [(lo * b, hi * b) for lo, hi in s]
        refined = nondegenerate_parts(intersect_parts(scaled, similar.image(d, s)))
        rounds += 1
        if refined == scaled:
            stabilized = True
            break
        # s never empties: E lies in the seed I_n and E = Phi(E) lies in
        # Phi(S), so every round keeps the achievement set E, a perfect set
        # that no dropped single point can hold.
        s, d = refined, b * d
        if len(s) > DEFAULT_PART_LIMIT:
            diagnostics = (
                f"refinement stopped at round {rounds}: {len(s)} parts exceed limit"
                f" {DEFAULT_PART_LIMIT}",
            )
            break

    if stabilized:
        # nondeg(S b cap Phi(S)) == S b puts each part of S inside one part
        # of Phi(S): the self-cover the final recheck confirms.
        found = (d, s) if similar.covers(d, s) else None
    else:
        found = similar.windows
    if found is None:
        return InteriorCertificate(
            spec=spec,
            s=EMPTY_SET,
            verified=False,
            interior_measure=Fraction(0),
            rounds=rounds,
            diagnostics=diagnostics,
        )
    d, union = found
    los = [lo for lo, _ in union]
    his = [hi for _, hi in union]
    return InteriorCertificate(
        spec=spec,
        s=IntervalSet.from_lattice(los, his, d),
        verified=True,
        interior_measure=Fraction(sum(his) - sum(los), d),
        rounds=rounds,
        diagnostics=diagnostics,
    )


@frozen
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
    budget: int = DEFAULT_BUDGET,
    spec: Optional[FamilySpec] = None,
) -> MeasureBounds:
    """Upper bound lambda(I_depth); certified interior lower bound when possible.

    ``spec`` is the family spec whose stream ``ladder`` is built from, or
    None.  A lower bound is certified only when ``self_similar(spec)``
    gives the block of the exact self-similar operator; any other spec, or
    none, gets a lower bound of zero here (their interior content is
    covered by the family closed forms instead).  The first certificate of
    largest measure over seed depths up to depth is used, which keeps the
    boundary gap nonincreasing as depth and budget grow.

    Only verified certificates count, so a search that cannot verify is
    skipped.  With infinitely many Kakeya indices no refinement stabilizes
    (see the module docstring): if the value's ``windows`` is None no seed
    is searched, and otherwise every seed's certificate is that run-window
    union, so the first verified one is kept.  No certificate
    exceeds lambda(I_depth) either, so the seeds stop once lower == upper,
    and they stop at the first seed whose I_{m * seed} passes the cap.

    cli._analysis passes no ``spec`` when the classification proves the
    interior empty: a verified certificate lies inside the set, so no search
    could raise the lower bound above zero.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    upper = iterate(ladder, depth).measure
    lower = Fraction(0)
    best: Optional[InteriorCertificate] = None
    similar = self_similar(spec)
    if similar is not None:
        kakeya_infinite = not ladder.stream.kakeya_pattern().kakeya_is_finite
        searchable = not kakeya_infinite or similar.windows is not None
        max_seed = max(1, min(depth // similar.m, 4)) if searchable else 0
        for seed in range(1, max_seed + 1):
            try:
                cert = certify_interior(spec, ladder, seed, budget)
            except CapacityError:
                break  # I_{m * seed} passes the cap, and so does every deeper seed
            if cert.verified and cert.interior_measure > lower:
                lower = cert.interior_measure
                best = cert
                if kakeya_infinite or lower == upper:
                    break
    return MeasureBounds(
        depth=depth,
        upper_lambda_e=upper,
        lower_interior=lower,
        boundary_gap=upper - lower,
        certificate=best,
    )
