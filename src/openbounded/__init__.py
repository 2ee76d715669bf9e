"""Open vs. bounded data-inclusion analysis for online controlled experiments."""

__version__ = "0.1.0"

from .analytic import (
    DEFAULT_CALENDAR,
    WEEKEND_SHARE,
    Model1Params,
    Model2Params,
    OracleExpectation,
    enumeration_oracle,
    model1_bias,
    model1_variance_coeffs,
    model2_bias,
    model2_variance_coeffs,
    toy_even_day_ratio,
)
from .core import (
    OPEN,
    ConfigurationError,
    DataFormatError,
    ExperimentCalendar,
    ExperimentError,
    InclusionPolicy,
    InsufficientDataError,
    TraceTable,
    Weekday,
    bounded,
)

# The layers a command may not run are imported on first use of one of
# their names (PEP 562), so ``analytic`` and ``--version`` never load them.
_LAZY = {
    **dict.fromkeys(("IngestReport", "read_event_log", "write_event_log"), "eventlog"),
    **dict.fromkeys(("AnalysisResult", "GroupSummary", "TestKind", "delta_estimate",
                     "group_summary", "weekend_ratio_gamma"), "metrics"),
    **dict.fromkeys(("PowerCurve", "PowerCurvePoint", "compare_policies", "power_curve"), "power"),
    **dict.fromkeys(("EffectKind", "EffectSpec", "Seed", "inject_effect", "simulate_model1",
                     "simulate_model2", "strip_variants"), "simulate"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_LAZY[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__all__ = [
    "AnalysisResult",
    "ConfigurationError",
    "DataFormatError",
    "DEFAULT_CALENDAR",
    "EffectKind",
    "EffectSpec",
    "ExperimentCalendar",
    "ExperimentError",
    "GroupSummary",
    "InclusionPolicy",
    "IngestReport",
    "InsufficientDataError",
    "Model1Params",
    "Model2Params",
    "OPEN",
    "OracleExpectation",
    "PowerCurve",
    "PowerCurvePoint",
    "Seed",
    "TestKind",
    "TraceTable",
    "Weekday",
    "WEEKEND_SHARE",
    "bounded",
    "compare_policies",
    "delta_estimate",
    "enumeration_oracle",
    "group_summary",
    "inject_effect",
    "model1_bias",
    "model1_variance_coeffs",
    "model2_bias",
    "model2_variance_coeffs",
    "power_curve",
    "read_event_log",
    "simulate_model1",
    "simulate_model2",
    "strip_variants",
    "toy_even_day_ratio",
    "weekend_ratio_gamma",
    "write_event_log",
]
