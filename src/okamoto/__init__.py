"""Okamoto's one-parameter family F_a of continuous, (almost) nowhere

differentiable functions: exact construction, certified evaluation,
differentiability classification, and fractal-dimension measurement."""

__version__ = "0.1.0"

from .errors import (
    DomainError,
    OkamotoError,
    PrecisionError,
    ResourceError,
    UnsupportedRegionError,
)
from .ternary import (
    DigitStats,
    TernaryExpansion,
    digit_stats,
    ternary_rational,
    to_ternary,
)
from .function import (
    AffineMap2D,
    EvalResult,
    IterationGraph,
    Parameter,
    construct_iteration,
    eval_digit_series,
    ifs_maps,
    refine,
    sample_graph,
)
from .differentiability import (
    DerivativeTrace,
    FrequencySummary,
    LimitClass,
    RegionClass,
    RegionLabel,
    classify_limit,
    critical_a0,
    derivative_trace,
    digit_frequency_experiment,
    find_a0,
    nondiff_points,
    region_classify,
)

from .geometry import (
    CoverProfile,
    DimensionEstimate,
    LengthProfile,
    MassBoundReport,
    MassSample,
    arc_length_profile,
    chaos_game,
    chaos_weights,
    cover_profile,
    dimension_estimate,
    mass_bound_check,
    square_grid_counts,
)

__all__ = sorted(name for name in dir() if not name.startswith("_"))
