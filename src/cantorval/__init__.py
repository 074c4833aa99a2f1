"""Exact-arithmetic toolkit for achievement sets of convergent series."""

from .exact import (
    EMPTY_SET,
    Interval,
    IntervalSet,
    PointSet,
    Rational,
    interval,
    normalize,
    rat,
    rat_str,
    tail_ratio_bounds,
)
from .series import (
    DEFAULT_CAP,
    CapacityError,
    FiniteStream,
    GeometricTailStream,
    KakeyaPattern,
    KakeyaSplit,
    SubsumLadder,
    SuffixStream,
    TermStream,
    finite_subsums,
    group_convolve,
    kakeya_split,
)
from .families import (
    BlockGeometric,
    GFSpec,
    KyivSpec,
    MMSpec,
    MultigeometricSpec,
    PeriodicSeq,
    geometric,
    gf_group_set,
    gf_stream,
    gf_validate,
    kyiv_chain_margin,
    kyiv_group_set,
    kyiv_progression,
    kyiv_stream,
    kyiv_validate,
    kyiv_values,
    mg_block,
    mg_stream,
    mm_block,
    mm_stream,
    multigeometric,
    spec_from_json,
    spec_to_json,
    standardness_ratio,
)
from .tightness import (
    TightDecomposition,
    TightTrend,
    max_tight_diameter,
    tight_decompose,
    tight_trend,
)
from .engine import (
    InteriorCertificate,
    IterationReport,
    MeasureBounds,
    certify_interior,
    hutchinson,
    iterate,
    measure_bounds,
)
from .classify import (
    Classification,
    Tier,
    Verdict,
    classify,
    resolve_stream,
    reversed_kakeya_dichotomy,
)
from .uniqueness import (
    RepeatedTermSpec,
    RepetitionReport,
    SemifastResult,
    collisions,
    multirep_outer,
    repeated_stream,
    repetition_report,
    representation_uniqueness_oracle,
    semifast_check,
    tail_sum_unique,
)

__version__ = "0.1.0"
