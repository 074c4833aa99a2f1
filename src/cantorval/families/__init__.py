"""Constructors, validators, and closed forms for the explicit families.

Each family's spec class lives in its own module and answers for itself:
``stream()`` builds its term stream, ``conditions()`` gives ``validate``'s
rows, and ``family_verdict()`` gives the type its closed form proves, as
``(verdict value, witness)``, or None.

A family's module is imported the first time a spec of its type is read
(``spec_from_json``), or one of its names is read from this package.  Every
run needs the parser, the standardness ratio and ``self_similar``, which
lives with the multigeometric family, so these are bound when the package
is imported; the rest are resolved on first access and then kept here.
"""

from importlib import import_module

# The function is bound after its submodule has been imported, so the name
# ``multigeometric`` is the function, not the module.
from .multigeometric import MultigeometricSpec, multigeometric, self_similar
from .standardness import standardness_ratio
from .io import spec_from_json

# name -> the module of this package that defines it
_LAZY = {
    "BlockGeometric": "periodic",
    "PeriodicSeq": "periodic",
    "geometric": "periodic",
    "GFSpec": "ferens",
    "gf_group_set": "ferens",
    "gf_validate": "ferens",
    "subsum_run_total": "ferens",
    "MMSpec": "marchwicki",
    "mm_block": "marchwicki",
    "mm_block_coefficients": "marchwicki",
    "KyivSpec": "kyiv",
    "kyiv_chain_margin": "kyiv",
    "kyiv_group_set": "kyiv",
    "kyiv_progression": "kyiv",
    "kyiv_validate": "kyiv",
    "kyiv_values": "kyiv",
    "RepeatedTermSpec": "repeated",
    "semifast_check": "repeated",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
