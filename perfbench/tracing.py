"""In-process run of one iteration's operations, optionally traced.

    python3 perfbench/tracing.py --plan plan.json --trace 1 --result result.json

The plan is the JSON form of ``workloads.Plan.ops``. Each CLI operation
runs as ``openbounded.cli.main(argv)`` and the Monte-Carlo script as
``montecarlo.main(argv)``, with stdout and stderr sent to the operation's
files, so the parent checks them exactly as it checks child processes.

With ``--trace 1`` timing wrappers go on the public functions of each layer
(``LAYERS``), in the defining module and in every module that imported the
name. A span records name, parent, start and end; counts are taken from
arguments and return values at the same boundary. Spans stay in memory and
are written into the result file when the run ends. A name that no longer
exists is listed as missing and the run goes on; the metrics built on it
read 0.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import inspect
import json
import math
import os
import sys
import time
import traceback
from collections import Counter, defaultdict
from typing import Callable, Iterable, Iterator

# layer -> (module, public functions wrapped). ``core`` gets no spans: its
# per-user helpers run ~1e5 times per call, so their time lands in the
# self time of the calling layer.
LAYERS = {
    "cli": ("openbounded.cli", ("main",)),
    "simulate": ("openbounded.simulate",
                 ("simulate_model1", "simulate_model2", "inject_effect", "strip_variants")),
    "eventlog": ("openbounded.eventlog",
                 ("write_event_log", "write_metadata", "read_event_log", "build_traces")),
    "metrics": ("openbounded.metrics",
                ("metric_table", "weekend_ratio_gamma", "group_summary", "delta_estimate",
                 "delta_from_samples")),
    "power": ("openbounded.power", ("compare_policies", "power_curve")),
    "analytic": ("openbounded.analytic",
                 ("enumeration_oracle", "model1_bias", "model1_variance_coeffs", "model2_bias",
                  "model2_variance_coeffs")),
    "montecarlo": ("montecarlo", ("main", "run_seed")),
}
# A span of one of these is one operation: a CLI command or one Monte-Carlo seed.
OPERATION_SPANS = ("cli.main", "montecarlo.run_seed")
SCANS = ("metrics.metric_table", "metrics.weekend_ratio_gamma")
CLOSED_FORM = ("analytic.model1_bias", "analytic.model1_variance_coeffs",
               "analytic.model2_bias", "analytic.model2_variance_coeffs")
BIAS = ("analytic.model1_bias", "analytic.model2_bias")
ROOT = "bench.run"
_END = object()

# Every per-layer metric a traced run reports, with its unit. ``proc.cpu_s``
# and ``trace.overhead_share`` come from the untraced run beside it.
UNITS = {
    "cli.self_s": "s", "cli.output_bytes": "B",
    "simulate.self_s": "s",
    "simulate.model1_s": "s", "simulate.model1_users": "count",
    "simulate.model2_s": "s", "simulate.model2_users": "count",
    "simulate.inject_s": "s", "simulate.inject_users": "count",
    "eventlog.self_s": "s",
    "eventlog.write_s": "s", "eventlog.rows_written": "count", "eventlog.bytes_written": "B",
    "eventlog.write_rows_per_s": "1/s",
    "eventlog.read_s": "s", "eventlog.build_s": "s", "eventlog.parse_s": "s",
    "eventlog.rows_read": "count", "eventlog.rows_rejected": "count", "eventlog.read_rows_per_s": "1/s",
    "metrics.self_s": "s",
    "metrics.metric_table_s": "s", "metrics.metric_table_calls": "count",
    "metrics.users_scanned": "count", "metrics.gamma_s": "s", "metrics.gamma_calls": "count",
    "metrics.passes_per_policy": "ratio",
    "metrics.delta_s": "s", "metrics.delta_calls": "count", "metrics.us_per_delta": "us",
    "power.sweep_self_s": "s", "power.subsamples": "count", "power.analyses": "count",
    "power.subsample_rows": "count", "power.degenerate_share": "share", "power.analyses_per_s": "1/s",
    "analytic.self_s": "s",
    "analytic.oracle_s": "s", "analytic.oracle_calls": "count",
    "analytic.closed_form_s": "s", "analytic.closed_form_calls": "count",
    "analytic.closed_form_share": "share",
    "montecarlo.self_s": "s",
    "proc.cpu_s": "s",
    "trace.wall_s": "s", "trace.attributed_share": "share", "trace.overhead_share": "share",
    "trace.missing_wrappers": "count",
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s")

    def __init__(self, name: str, parent: int, start: float) -> None:
        self.name, self.parent, self.start = name, parent, start
        self.end = start
        self.child_s = 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._evaluations: set = set()

    # -- spans --------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.end - span.start
        if span.name in OPERATION_SPANS:
            self.counts["metrics.policy_evaluations"] += len(self._evaluations)
            self._evaluations.clear()

    def add_span(self, name: str, parent: int, start: float, busy_s: float) -> None:
        """A span standing for ``busy_s`` seconds of work spread over many calls."""
        span = Span(name, parent, start)
        span.end = start + busy_s
        self.spans.append(span)
        self.spans[parent].child_s += busy_s

    # -- wrappers -----------------------------------------------------------
    def install(self, layers: dict = LAYERS) -> None:
        for layer, (module_name, names) in layers.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing += [f"{module_name}.{name}" for name in names]
                continue
            for name in names:
                original = getattr(module, name, None)
                if not callable(original):
                    self.missing.append(f"{module_name}.{name}")
                    continue
                self._patch_everywhere(original, self._wrap(f"{layer}.{name}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch_everywhere(self, original: object, wrapper: object) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name.startswith("openbounded") or name == "montecarlo"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        before, after = BEFORE.get(name), AFTER.get(name)
        signature = inspect.signature(fn) if before or after else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            arguments = None
            try:
                bound = _bind(signature, args, kwargs) if signature else None
                if bound is not None:
                    arguments = bound.arguments
                    if before is not None and before(self, arguments, index):
                        args, kwargs = bound.args, bound.kwargs
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None and arguments is not None:
                try:
                    after(self, arguments, result)
                except (AttributeError, TypeError, ValueError, IndexError, KeyError, OSError):
                    self.counts["trace.hook_errors"] += 1
            return result

        return wrapper

    def timed_records(self, records: Iterable, parent: int) -> Iterator:
        """Pass ``records`` through, timing each pull: with a lazy reader this
        is the JSON parse and row validation done on behalf of build_traces."""
        clock = time.perf_counter
        it = iter(records)
        start = clock()
        spent = 0.0
        try:
            while True:
                t0 = clock()
                item = next(it, _END)
                spent += clock() - t0
                if item is _END:
                    return
                yield item
        finally:
            self.add_span("eventlog.parse", parent, start, spent)

    def note_evaluation(self, traces: object, policy: object) -> None:
        self._evaluations.add((id(traces), policy))


def _bind(signature: inspect.Signature, args: tuple, kwargs: dict):
    try:
        bound = signature.bind(*args, **kwargs)
    except TypeError:
        return None
    bound.apply_defaults()
    return bound


# -- counts taken at the wrapped boundaries ------------------------------------
def _len(obj: object) -> int:
    return len(obj) if hasattr(obj, "__len__") else 0


def _count_users(key: str):
    def hook(t: Tracer, a: dict, result) -> None:
        t.counts[key] += _len(result)
    return hook


def _scan(t: Tracer, a: dict, result) -> None:
    t.counts["metrics.users_scanned"] += _len(a["traces"])
    t.note_evaluation(a["traces"], a["policy"])


def _write(t: Tracer, a: dict, result) -> None:
    t.counts["eventlog.rows_written"] += int(result)
    t.counts["eventlog.bytes_written"] += os.path.getsize(a["path"])


def _read(t: Tracer, a: dict, result) -> None:
    _, report = result
    t.counts["eventlog.rows_read"] += report.total_rows
    t.counts["eventlog.rows_rejected"] += report.n_rejected


def _sweep(t: Tracer, a: dict, result) -> None:
    n = _len(a["traces"])
    reps = int(a.get("repetitions", 500))
    fractions = [float(f) for f in a["fractions"]]
    # Fraction 1.0 admits a single subset and is analysed once.
    subsamples = sum(1 if f == 1.0 else reps for f in fractions)
    t.counts["power.subsamples"] += subsamples
    t.counts["power.analyses"] += subsamples * len(result)
    t.counts["power.subsample_rows"] += sum(n if f == 1.0 else math.ceil(f * n) * reps for f in fractions)
    t.counts["power.degenerate"] += sum(pt.degenerate_repetitions for c in result for pt in c.points)


def _closed_form_ok(t: Tracer, a: dict, result) -> None:
    t.counts["analytic.closed_form_rows"] += 1


def _time_parse(t: Tracer, a: dict, index: int) -> bool:
    if "records" not in a:
        return False
    a["records"] = t.timed_records(a["records"], index)
    return True


# Run before the call with its bound arguments; True when an argument was replaced.
BEFORE = {"eventlog.build_traces": _time_parse}
AFTER = {
    "simulate.simulate_model1": _count_users("simulate.model1_users"),
    "simulate.simulate_model2": _count_users("simulate.model2_users"),
    "simulate.inject_effect": _count_users("simulate.inject_users"),
    "eventlog.write_event_log": _write,
    "eventlog.read_event_log": _read,
    "metrics.metric_table": _scan,
    "metrics.weekend_ratio_gamma": _scan,
    "power.compare_policies": _sweep,
    "analytic.model1_bias": _closed_form_ok,
    "analytic.model2_bias": _closed_form_ok,
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans and counts of one traced run."""
    dur: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    for span in tracer.spans:
        busy = span.end - span.start
        dur[span.name] += busy
        calls[span.name] += 1
        self_s[span.name.split(".")[0]] += busy - span.child_s
    c = tracer.counts

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    wall = dur[ROOT]
    build_self = dur["eventlog.build_traces"] - dur["eventlog.parse"]
    scans = sum(calls[name] for name in SCANS)
    delta_s = dur["metrics.delta_from_samples"]
    sweep = dur["power.compare_policies"] + dur["power.power_curve"]
    return {
        "cli.self_s": self_s["cli"],
        "cli.output_bytes": c["cli.output_bytes"],
        "simulate.self_s": self_s["simulate"],
        "simulate.model1_s": dur["simulate.simulate_model1"],
        "simulate.model1_users": c["simulate.model1_users"],
        "simulate.model2_s": dur["simulate.simulate_model2"],
        "simulate.model2_users": c["simulate.model2_users"],
        "simulate.inject_s": dur["simulate.inject_effect"],
        "simulate.inject_users": c["simulate.inject_users"],
        "eventlog.self_s": self_s["eventlog"],
        "eventlog.write_s": dur["eventlog.write_event_log"],
        "eventlog.rows_written": c["eventlog.rows_written"],
        "eventlog.bytes_written": c["eventlog.bytes_written"],
        "eventlog.write_rows_per_s": per(c["eventlog.rows_written"], dur["eventlog.write_event_log"]),
        "eventlog.read_s": dur["eventlog.read_event_log"],
        "eventlog.build_s": build_self,
        "eventlog.parse_s": dur["eventlog.read_event_log"] - build_self if calls["eventlog.read_event_log"] else 0.0,
        "eventlog.rows_read": c["eventlog.rows_read"],
        "eventlog.rows_rejected": c["eventlog.rows_rejected"],
        "eventlog.read_rows_per_s": per(c["eventlog.rows_read"], dur["eventlog.read_event_log"]),
        "metrics.self_s": self_s["metrics"],
        "metrics.metric_table_s": dur["metrics.metric_table"],
        "metrics.metric_table_calls": calls["metrics.metric_table"],
        "metrics.users_scanned": c["metrics.users_scanned"],
        "metrics.gamma_s": dur["metrics.weekend_ratio_gamma"],
        "metrics.gamma_calls": calls["metrics.weekend_ratio_gamma"],
        "metrics.passes_per_policy": per(scans, c["metrics.policy_evaluations"]),
        "metrics.delta_s": delta_s,
        "metrics.delta_calls": calls["metrics.delta_from_samples"],
        "metrics.us_per_delta": per(delta_s * 1e6, calls["metrics.delta_from_samples"]),
        "power.sweep_self_s": self_s["power"],
        "power.subsamples": c["power.subsamples"],
        "power.analyses": c["power.analyses"],
        "power.subsample_rows": c["power.subsample_rows"],
        "power.degenerate_share": per(c["power.degenerate"], c["power.analyses"]),
        "power.analyses_per_s": per(c["power.analyses"], sweep),
        "analytic.self_s": self_s["analytic"],
        "analytic.oracle_s": dur["analytic.enumeration_oracle"],
        "analytic.oracle_calls": calls["analytic.enumeration_oracle"],
        "analytic.closed_form_s": sum(dur[name] for name in CLOSED_FORM),
        "analytic.closed_form_calls": sum(calls[name] for name in CLOSED_FORM),
        "analytic.closed_form_share": per(c["analytic.closed_form_rows"], sum(calls[n] for n in BIAS)),
        "montecarlo.self_s": self_s["montecarlo"],
        "trace.wall_s": wall,
        "trace.attributed_share": per(wall - self_s["bench"], wall),
        "trace.missing_wrappers": len(tracer.missing),
    }


def run_ops(ops: list[dict], modules: dict, tracer: Tracer | None) -> list[dict]:
    """Run each operation in this process as ``modules[kind].main(argv)``;
    return its exit code and wall time."""
    results = []
    for op in ops:
        start = time.perf_counter()
        with open(op["stdout"], "w", encoding="utf-8") as out, \
                open(op["stderr"], "w", encoding="utf-8") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = modules[op["kind"]].main(list(op["argv"]))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # reported as a failed operation, as a child's crash would be
                traceback.print_exc()
                code = 1
        results.append({"exit_code": code or 0, "wall_s": time.perf_counter() - start})
        if tracer is not None and op["kind"] == "cli" and op["stem"] != "simulate" \
                and os.path.exists(op["output"]):
            tracer.counts["cli.output_bytes"] += os.path.getsize(op["output"])
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run a plan's operations in-process.")
    parser.add_argument("--plan", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    with open(args.plan, "r", encoding="utf-8") as fh:
        ops = json.load(fh)
    # Imported before the clock starts: import time belongs to setup_s.
    modules = {"cli": importlib.import_module("openbounded.cli"),
               "script": importlib.import_module("montecarlo")}
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        root = tracer.open(ROOT)
    start = time.perf_counter()
    results = run_ops(ops, modules, tracer)
    wall = time.perf_counter() - start
    out: dict = {"wall_s": wall, "ops": results}
    if tracer is not None:
        tracer.close(root)
        tracer.uninstall()
        out["metrics"] = layer_metrics(tracer)
        out["missing"] = tracer.missing
        out["hook_errors"] = tracer.counts["trace.hook_errors"]
        out["spans"] = [[s.name, s.parent, s.start, s.end] for s in tracer.spans]
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
