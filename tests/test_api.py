"""The public surface: the exported names, and every name the benchmark tracer wraps."""

import contextlib
import dataclasses
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import openbounded
from openbounded import eventlog
from openbounded.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src"

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


# Layers, and the standard modules only they import, that a command which does
# not run them must leave unloaded: they cost a child process its start-up time.
UNRUN_LAYERS = {
    "openbounded.eventlog", "openbounded.metrics", "openbounded.power", "openbounded.simulate",
    "openbounded.parallel", "hashlib", "multiprocessing",
}


def _fresh_run(body: str):
    """Run ``body`` in a fresh interpreter with ``src`` on its path; return the
    JSON value it prints last."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", body], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


SIMULATE_LOG = ["simulate", "--model", "model1", "--n-per-arm", "200", "-o", "{log}"]


@pytest.mark.parametrize("argv, unrun", [
    # A bare import loads no layer at all, and so no numpy.
    (None, UNRUN_LAYERS | {"openbounded.core", "openbounded.analytic", "numpy"}),
    (["--version"], UNRUN_LAYERS),
    (["analytic", "--model", "model1"], UNRUN_LAYERS),
    # The writer forks nothing, and a log below eventlog.PARALLEL_MIN_BYTES
    # is read in the one process.
    (SIMULATE_LOG, {"openbounded.parallel", "openbounded.metrics", "openbounded.power",
                    "multiprocessing"}),
    (["analyze", "-i", "{log}"], {"multiprocessing", "openbounded.power",
                                  "openbounded.simulate", "scipy"}),
], ids=["import", "version", "analytic-model1", "simulate", "analyze-small-log"])
def test_commands_load_only_their_layers(tmp_path, argv, unrun):
    log = str(tmp_path / "log.jsonl")
    if argv is not None and argv[0] == "analyze":
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([arg.format(log=log) for arg in SIMULATE_LOG]) == 0
        assert os.path.getsize(log) < eventlog.PARALLEL_MIN_BYTES
    body = "import contextlib, io, json, sys\nimport openbounded\n"
    if argv is not None:
        argv = [arg.format(log=log) for arg in argv]
        body += ("from openbounded.cli import main\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 f"    assert main({argv!r}) == 0\n")
    body += "print(json.dumps(sorted(sys.modules)))"
    assert set(_fresh_run(body)) & unrun == set()


@pytest.mark.parametrize("test", ["z", "welch"])
def test_only_welch_loads_scipy_and_never_its_stats(tmp_path, test):
    # Importing scipy.special costs a child about a third of a second, and
    # scipy.stats three times that; the z test needs neither.
    rows = [{"user_id": f"u{u}", "day": 1 + u % 3, "variant": "TC"[u % 2], "value": u % 5 / 2}
            for u in range(12)]
    log = tmp_path / "log.jsonl"
    log.write_text("".join(json.dumps(row) + "\n" for row in rows))
    body = ("import contextlib, io, json, sys\n"
            "from openbounded.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main(['analyze', '-i', {str(log)!r}, '--test', {test!r}]) == 0\n"
            "print(json.dumps(sorted(sys.modules)))")
    scipy = {name for name in _fresh_run(body) if name.split(".")[0] == "scipy"}
    if test == "z":
        assert scipy == set()
    else:
        assert "scipy.special" in scipy
        assert not any(name.startswith("scipy.stats") for name in scipy)


def test_lazy_names_listed_and_star_imported():
    body = ("import json, openbounded\n"
            "listed = dir(openbounded)\n"
            "namespace = {}\n"
            "exec('from openbounded import *', namespace)\n"
            "print(json.dumps([listed, sorted(namespace)]))")
    listed, star = _fresh_run(body)
    assert set(PUBLIC_NAMES) <= set(listed)
    assert sorted(set(star) - {"__builtins__"}) == PUBLIC_NAMES
