"""Constructors, validators, and closed forms for the explicit families.

Each family's spec class lives in its own module and answers for itself:
``stream()`` builds its term stream, ``conditions()`` gives ``validate``'s
rows, and ``family_verdict()`` gives the type its closed form proves, as
``(verdict value, witness)``, or None.
"""

from .periodic import BlockGeometric, PeriodicSeq, geometric
from .multigeometric import MultigeometricSpec, mg_block, multigeometric
from .ferens import GFSpec, gf_group_set, gf_validate, subsum_run_total
from .marchwicki import MMSpec, mm_block, mm_block_coefficients
from .kyiv import (
    KyivSpec,
    kyiv_chain_margin,
    kyiv_group_set,
    kyiv_progression,
    kyiv_validate,
    kyiv_values,
)
from .repeated import RepeatedTermSpec, semifast_check
from .standardness import standardness_ratio
from .io import spec_from_json
