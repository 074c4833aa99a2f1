"""JSON descriptions of family specs.

{"type": "multigeometric", "k": [3, 2], "q": "1/4"}
{"type": "kyiv", "m": {"pre": [], "period": [4]}, "s": {"pre": [], "period": [8]}}
{"type": "gf", "m": {...}, "k": {...}, "q": {"pre": [], "block": ["1/10"], "ratio": "1/10"}}
{"type": "mm", "gaps": {"pre": [], "period": [1]}}
{"type": "repeated", "y": {"pre": [], "block": ["1/4"], "ratio": "1/4"}, "counts": {...}}

All rationals are canonical "p/q" strings (plain integers accepted on input).

A family's module is imported when the first spec of its type is read, so
a process that reads specs of one family never compiles the others.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Callable, Union

if TYPE_CHECKING:
    from .ferens import GFSpec
    from .kyiv import KyivSpec
    from .marchwicki import MMSpec
    from .multigeometric import MultigeometricSpec
    from .repeated import RepeatedTermSpec

    FamilySpec = Union[MultigeometricSpec, GFSpec, MMSpec, KyivSpec, RepeatedTermSpec]

# spec type -> (module in this package, spec class)
_PARSERS = {
    "multigeometric": ("multigeometric", "MultigeometricSpec"),
    "gf": ("ferens", "GFSpec"),
    "mm": ("marchwicki", "MMSpec"),
    "kyiv": ("kyiv", "KyivSpec"),
    "repeated": ("repeated", "RepeatedTermSpec"),
}

# spec type -> its class's from_json, once a spec of that type has been read
_resolved: dict[str, Callable[[dict], FamilySpec]] = {}


def spec_from_json(doc: dict) -> FamilySpec:
    """Parse a family spec document; raises ValueError on malformed input."""
    if not isinstance(doc, dict):
        raise ValueError("spec document must be a JSON object")
    kind = doc.get("type")
    parser = _resolved.get(kind) if isinstance(kind, str) else None
    if parser is None:
        if not isinstance(kind, str) or kind not in _PARSERS:
            known = sorted(_PARSERS)
            if "type" not in doc:
                raise ValueError(f'spec has no "type" key; expected one of {known}')
            raise ValueError(f"unknown spec type {kind!r}; expected one of {known}")
        module, name = _PARSERS[kind]
        spec_class = getattr(import_module(f".{module}", __package__), name)
        parser = _resolved[kind] = spec_class.from_json
    try:
        return parser(doc)
    # A field of the wrong JSON type fails in the parsers as one of these.
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed {kind} spec: {exc}") from exc


_JSON_TYPES = {
    str: "a string",
    dict: "an object",
    bool: "a boolean",
    int: "a number",
    float: "a number",
    type(None): "null",
}


def json_array(value, field: str) -> list:
    """``value``, the list-valued spec field ``field``, when it is a JSON array.

    Anything else is refused, since a string or an object would otherwise be
    iterated silently: "21" as [2, 1], and {"3": 1, "2": 2} as its keys.
    """
    if not isinstance(value, list):
        kind = _JSON_TYPES.get(type(value), type(value).__name__)
        raise ValueError(f"spec field {field!r} must be a JSON array, not {kind}")
    return value


def is_int(value) -> bool:
    """An int that is not a bool: JSON ``true`` must not pass for 1."""
    return isinstance(value, int) and not isinstance(value, bool)
