"""Okamoto's one-parameter family F_a of continuous, (almost) nowhere

differentiable functions: exact construction, certified evaluation,
differentiability classification, and fractal-dimension measurement.

`import okamoto` loads no library module: a public name imports the module
that defines it on first access (PEP 562), and is kept here from then on."""

__version__ = "0.1.0"

# the public names of each module; a module's own name is public too
_NAMES = {
    "errors": "DomainError OkamotoError PrecisionError ResourceError UnsupportedRegionError",
    "ternary": "DigitStats TernaryExpansion digit_stats ternary_rational to_ternary",
    "function": "AffineMap2D EvalResult IterationGraph Parameter construct_iteration "
                "eval_digit_series ifs_maps refine sample_graph",
    "differentiability": "DerivativeTrace FrequencySummary LimitClass RegionClass RegionLabel "
                         "classify_limit critical_a0 derivative_trace digit_frequency_experiment "
                         "find_a0 nondiff_points region_classify",
    "geometry": "CoverProfile DimensionEstimate LengthProfile MassBoundReport MassSample "
                "arc_length_profile chaos_game chaos_weights cover_profile dimension_estimate "
                "mass_bound_check square_grid_counts",
}
_MODULE = {name: module for module, names in _NAMES.items() for name in [module, *names.split()]}

__all__ = sorted(_MODULE)


def __getattr__(name: str):
    module = _MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    mod = import_module(f"{__name__}.{module}")
    value = globals()[name] = mod if name == module else getattr(mod, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
