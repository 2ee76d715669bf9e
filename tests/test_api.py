"""The public surface: the exported names, and every name the benchmark tracer wraps."""

import dataclasses
import importlib
from pathlib import Path

import openbounded

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Change only on purpose, like the golden digests: a name added or removed
# here is an API change that CHANGES.md records.
PUBLIC_NAMES = [
    "AnalysisResult",
    "ConfigurationError",
    "DEFAULT_CALENDAR",
    "DataFormatError",
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
    "WEEKEND_SHARE",
    "Weekday",
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

# The fields of the public dataclasses, in declaration order; pinned like the names.
PUBLIC_FIELDS = {
    "InclusionPolicy": ["d"],
    "AnalysisResult": ["delta", "variance", "n_treatment", "n_control", "statistic", "p_value"],
    "GroupSummary": ["n", "mean", "sample_variance"],
    "PowerCurve": ["policy", "points", "repetitions", "alpha"],
    "PowerCurvePoint": [
        "fraction", "power", "power_se", "est_p05", "est_p50", "est_p95",
        "n_effective_treatment", "n_effective_control", "degenerate_repetitions",
    ],
    "IngestReport": ["total_rows", "accepted_rows", "rejected"],
    "OracleExpectation": [
        "ratio", "ratio_over_active", "inverse_days", "ratio_sq",
        "admission_probability", "activity_probability",
    ],
}


def test_exported_names_pinned():
    assert sorted(openbounded.__all__) == PUBLIC_NAMES
    assert len(set(openbounded.__all__)) == len(openbounded.__all__)
    for name in PUBLIC_NAMES:
        assert hasattr(openbounded, name), name


def test_public_fields_pinned():
    for name, expected in PUBLIC_FIELDS.items():
        assert [f.name for f in dataclasses.fields(getattr(openbounded, name))] == expected, name


def test_traced_names_resolve(monkeypatch):
    # The benchmark's tracer wraps these by name; one that is gone zeroes its metrics.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("tracing").LAYERS
    missing = []
    for module_name, names in layers.values():
        module = importlib.import_module(module_name)
        missing += [f"{module_name}.{name}" for name in names
                    if not callable(getattr(module, name, None))]
    assert missing == []
