"""Multigeometric series: m geometric series with a common ratio, interleaved.

The series sum(k_1, ..., k_m; q) has terms x_{(j-1)m+i} = k_i * q^j.  Its
achievement set is self-similar: one group of terms contributes the block
subsum set K, and the rest is a scaled copy, E = q * (K + E).  That identity
drives the interval engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..exact import PointSet, rat, rat_str, RationalLike
from ..series import DEFAULT_CAP, FiniteStream, SubsumLadder
from .grouped import GroupedStream

MAX_BLOCK_COEFFICIENTS = 30


@dataclass(frozen=True)
class MultigeometricSpec:
    """Coefficients k_1 >= ... >= k_m > 0 (rationals allowed) and ratio q in (0,1)."""

    coefficients: tuple[Fraction, ...]
    ratio: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "coefficients", tuple(rat(c) for c in self.coefficients)
        )
        object.__setattr__(self, "ratio", rat(self.ratio))
        if not self.coefficients:
            raise ValueError("need at least one coefficient")
        if any(c <= 0 for c in self.coefficients):
            raise ValueError("coefficients must be positive")
        for a, b in zip(self.coefficients, self.coefficients[1:]):
            if b > a:
                raise ValueError("coefficients must be nonincreasing")
        if not (0 < self.ratio < 1):
            raise ValueError("ratio must lie in (0, 1)")

    @property
    def m(self) -> int:
        return len(self.coefficients)

    @property
    def coefficient_sum(self) -> Fraction:
        return sum(self.coefficients, Fraction(0))

    @property
    def total(self) -> Fraction:
        """r_0 = (sum of coefficients) * q / (1 - q)."""
        return self.coefficient_sum * self.ratio / (1 - self.ratio)

    def to_json(self) -> dict:
        return {
            "type": "multigeometric",
            "k": [
                c.numerator if c.denominator == 1 else rat_str(c)
                for c in self.coefficients
            ],
            "q": rat_str(self.ratio),
        }

    @staticmethod
    def from_json(doc: dict) -> "MultigeometricSpec":
        return MultigeometricSpec(tuple(rat(c) for c in doc["k"]), rat(doc["q"]))


def multigeometric(coefficients, ratio: RationalLike) -> MultigeometricSpec:
    return MultigeometricSpec(tuple(rat(c) for c in coefficients), rat(ratio))


class MultigeometricStream(GroupedStream):
    """Group j carries the coefficients scaled by q^j."""

    def __init__(self, spec: MultigeometricSpec) -> None:
        self.spec = spec
        super().__init__(preperiod=0, period=1, block_ratio=spec.ratio)

    def group_terms(self, k: int) -> tuple[Fraction, ...]:
        scale = self.spec.ratio**k
        return tuple(c * scale for c in self.spec.coefficients)

    @property
    def descriptor(self) -> str:
        ks = ",".join(str(c) for c in self.spec.coefficients)
        return f"multigeometric({ks}; {self.spec.ratio})"


def mg_stream(spec: MultigeometricSpec) -> MultigeometricStream:
    return MultigeometricStream(spec)


def mg_block(spec: MultigeometricSpec, cap: int = DEFAULT_CAP) -> PointSet:
    """Subsum set of the unscaled coefficients {k_1, ..., k_m}.

    This is the translation set of the self-similar operator: the achievement
    set satisfies E = q * (block + E).
    """
    if spec.m > MAX_BLOCK_COEFFICIENTS:
        raise ValueError(f"block enumeration limited to {MAX_BLOCK_COEFFICIENTS} coefficients")
    return SubsumLadder(FiniteStream(spec.coefficients), cap)[spec.m]
