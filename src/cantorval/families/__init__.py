"""Constructors, validators, and closed forms for the explicit families."""

from .periodic import BlockGeometric, PeriodicSeq, geometric
from .multigeometric import MultigeometricSpec, mg_block, mg_stream, multigeometric
from .ferens import GFSpec, gf_group_set, gf_stream, gf_validate, subsum_run_total
from .marchwicki import (
    MMSpec,
    mm_block,
    mm_block_coefficients,
    mm_block_sum,
    mm_scale,
    mm_stream,
)
from .kyiv import (
    KyivSpec,
    kyiv_chain_margin,
    kyiv_group_set,
    kyiv_progression,
    kyiv_stream,
    kyiv_validate,
    kyiv_values,
)
from .standardness import standardness_ratio
from .io import spec_from_json
