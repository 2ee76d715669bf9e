"""Open vs. bounded data-inclusion analysis for online controlled experiments."""

__version__ = "0.1.0"

# Each public name and the layer that defines it. A layer is imported on the
# first use of one of its names (PEP 562), so a bare ``import openbounded``
# loads none of them, nor numpy.
_LAYER_OF = {
    **dict.fromkeys(("DEFAULT_CALENDAR", "WEEKEND_SHARE", "Model1Params", "Model2Params",
                     "OracleExpectation", "enumeration_oracle", "model1_bias",
                     "model1_variance_coeffs", "model2_bias", "model2_variance_coeffs",
                     "toy_even_day_ratio"), "analytic"),
    **dict.fromkeys(("OPEN", "ConfigurationError", "DataFormatError", "ExperimentCalendar",
                     "ExperimentError", "InclusionPolicy", "InsufficientDataError", "TraceTable",
                     "Weekday", "bounded"), "core"),
    **dict.fromkeys(("IngestReport", "read_event_log", "write_event_log"), "eventlog"),
    **dict.fromkeys(("AnalysisResult", "GroupSummary", "TestKind", "delta_estimate",
                     "group_summary", "weekend_ratio_gamma"), "metrics"),
    **dict.fromkeys(("PowerCurve", "PowerCurvePoint", "compare_policies", "power_curve"), "power"),
    **dict.fromkeys(("EffectKind", "EffectSpec", "Seed", "inject_effect", "simulate_model1",
                     "simulate_model2", "strip_variants"), "simulate"),
}
__all__ = sorted(_LAYER_OF)


def __getattr__(name: str):
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_LAYER_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
