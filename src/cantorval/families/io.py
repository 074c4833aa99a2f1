"""JSON descriptions of family specs.

{"type": "multigeometric", "k": [3, 2], "q": "1/4"}
{"type": "kyiv", "m": {"pre": [], "period": [4]}, "s": {"pre": [], "period": [8]}}
{"type": "gf", "m": {...}, "k": {...}, "q": {"pre": [], "block": ["1/10"], "ratio": "1/10"}}
{"type": "mm", "gaps": {"pre": [], "period": [1]}}
{"type": "repeated", "y": {"pre": [], "block": ["1/4"], "ratio": "1/4"}, "counts": {...}}

All rationals are canonical "p/q" strings (plain integers accepted on input).
"""

from __future__ import annotations

from typing import Union

from .ferens import GFSpec
from .kyiv import KyivSpec
from .marchwicki import MMSpec
from .multigeometric import MultigeometricSpec
from .repeated import RepeatedTermSpec

FamilySpec = Union[MultigeometricSpec, GFSpec, MMSpec, KyivSpec, RepeatedTermSpec]

_PARSERS = {
    "multigeometric": MultigeometricSpec.from_json,
    "gf": GFSpec.from_json,
    "mm": MMSpec.from_json,
    "kyiv": KyivSpec.from_json,
    "repeated": RepeatedTermSpec.from_json,
}


def spec_from_json(doc: dict) -> FamilySpec:
    """Parse a family spec document; raises ValueError on malformed input."""
    if not isinstance(doc, dict):
        raise ValueError("spec document must be a JSON object")
    kind = doc.get("type")
    parser = _PARSERS.get(kind) if isinstance(kind, str) else None
    if parser is None:
        known = sorted(_PARSERS)
        raise ValueError(f"unknown spec type {kind!r}; expected one of {known}")
    try:
        return parser(doc)
    # A field of the wrong JSON type fails in the parsers as one of these.
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed {kind} spec: {exc}") from exc

