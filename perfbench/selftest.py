"""Self-test of the benchmark: every workload at a tiny size, traced and
untraced, and every output check fed a corrupted report.

    python3 perfbench/selftest.py

Takes about 15 s on a 2-core box; needs the checkout's ``src/``.
"""

from __future__ import annotations

import contextlib
import copy
import json
import math
import shutil
import sys
import tempfile
import time
import unittest
from pathlib import Path

import checks
import run
import tracing
from inputs import count_log
from workloads import SIZES, WORKLOADS

TINY = SIZES["tiny"]
SEED = 3


def run_tiny(work: Path, name: str, trace: int | None) -> tuple[list[str], dict]:
    """Run one tiny iteration as child processes (``trace`` None) or in one
    in-process child. Returns the failed checks and the parsed outputs."""
    workload = WORKLOADS[name]
    deadline = time.monotonic() + 300.0
    plan = workload.plan(run.fresh_dir(work, f"{name}-{trace}"), SEED, TINY)
    extra: dict = {}
    if trace is None:
        results = [run.run_child(run.op_command(op), op.stdout, op.stderr, deadline) for op in plan.ops]
    else:
        results, extra, _ = run.in_process(plan, trace, deadline)
    pool: dict = {}
    outcomes = workload.check(plan, results, pool)
    if workload.finish is not None:
        outcomes += workload.finish(pool)
    problems = [p for o in outcomes for p in o.problems]
    problems += [f"{o.stem}: failed without a reason" for o in outcomes if o.failed and not o.problems]
    outputs = {op.output.name: json.loads(op.output.read_text(encoding="utf-8"))
               for op in plan.ops if op.output.suffix == ".json"}
    outputs["counts"] = count_log(plan.ops[0].output) if name == "log-roundtrip" else plan.counts
    outputs["trace"] = extra
    return problems, outputs


class Scratch(unittest.TestCase):
    """A fresh working directory under the benchmark's work root per test class."""

    @classmethod
    def setUpClass(cls) -> None:
        run.WORK.mkdir(exist_ok=True)
        cls.work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
        # Class cleanups run even when a subclass's setUpClass fails.
        cls.addClassCleanup(cls.remove_work)

    @classmethod
    def remove_work(cls) -> None:
        shutil.rmtree(cls.work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            run.WORK.rmdir()


class TinyWorkloads(Scratch):
    """Each workload runs at a tiny size and passes its own checks."""

    def test_children(self) -> None:
        for name in WORKLOADS:
            with self.subTest(workload=name):
                problems, _ = run_tiny(self.work, name, None)
                self.assertEqual(problems, [])

    def test_traced(self) -> None:
        for name in WORKLOADS:
            with self.subTest(workload=name):
                problems, outputs = run_tiny(self.work, name, 1)
                self.assertEqual(problems, [])
                out = outputs["trace"]
                metrics = out["metrics"]
                self.assertEqual(out["missing"], [])
                self.assertEqual(out["hook_errors"], 0)
                self.assertEqual(set(metrics) | {"proc.cpu_s", "trace.overhead_share"}, set(tracing.UNITS))
                self.assertTrue(all(math.isfinite(v) for v in metrics.values()))
                self.assertGreater(metrics["trace.attributed_share"], 0.95)

    def test_untraced_in_process(self) -> None:
        problems, outputs = run_tiny(self.work, "paper-validate", 0)
        self.assertEqual(problems, [])
        self.assertNotIn("metrics", outputs["trace"])


class CorruptedReports(Scratch):
    """Each check fails on a report corrupted in the way it is there to catch."""

    @classmethod
    def setUpClass(cls) -> None:
        super().setUpClass()
        cls.roundtrip = run_tiny(cls.work, "log-roundtrip", None)[1]
        cls.power = run_tiny(cls.work, "power-replay", None)[1]
        cls.paper = run_tiny(cls.work, "paper-validate", None)[1]

    def analyze_problems(self, mutate) -> list[str]:
        report = copy.deepcopy(self.roundtrip["analyze.json"])
        mutate(report)
        return checks.check_analyze(report, self.roundtrip["counts"])

    def test_clean_reports_pass(self) -> None:
        self.assertEqual(self.analyze_problems(lambda r: None), [])
        self.assertEqual(checks.check_power(self.power["power.json"], self.power["counts"]), [])

    def test_non_finite_delta(self) -> None:
        for bad in (math.nan, math.inf, None):
            def mutate(r, bad=bad):
                r["results"][0]["delta"] = bad
            self.assertTrue(self.analyze_problems(mutate), bad)

    def test_wrong_n_included(self) -> None:
        for i in (0, 1):
            def mutate(r, i=i):
                r["results"][i]["n_included"] += 1
            self.assertTrue(self.analyze_problems(mutate))

    def test_rejected_rows(self) -> None:
        def mutate(r):
            r["ingest"]["rejected"] = {"invalid-json": 1}
        self.assertTrue(self.analyze_problems(mutate))

    def test_power_above_one(self) -> None:
        report = copy.deepcopy(self.power["power.json"])
        report["curves"][0]["points"][3]["power"] = 1.5
        self.assertTrue(checks.check_power(report, self.power["counts"]))

    def test_power_wrong_full_sample(self) -> None:
        report = copy.deepcopy(self.power["power.json"])
        report["curves"][1]["points"][-1]["n_effective_control"] += 1
        self.assertTrue(checks.check_power(report, self.power["counts"]))

    def test_open_band_wider(self) -> None:
        report = copy.deepcopy(self.power["power.json"])
        open_curve = next(c for c in report["curves"] if c["policy"] == "open")
        for pt in open_curve["points"][:2]:
            pt["est_p95"] += 100.0
        self.assertTrue(checks.check_power(report, self.power["counts"]))

    def test_analytic_mismatch(self) -> None:
        report = copy.deepcopy(self.paper["analytic14.json"])
        report["rows"][0]["bias_per_tau_prime"] += 1e-9
        self.assertTrue(checks.check_analytic(report, 14, len(report["rows"])))

    def test_montecarlo_shifted(self) -> None:
        mc = copy.deepcopy(self.paper["mc.json"])
        self.assertEqual(checks.check_montecarlo(mc), [])
        mc["bounded"] = [v + 1.0 for v in mc["bounded"]]
        self.assertTrue(checks.check_montecarlo(mc))
        mc["open"][0] = None
        self.assertIn(str(mc["seeds"][0]), checks.seed_failures(mc))


class TolerantWrappers(unittest.TestCase):
    """A wrapped name that is gone is reported as missing; the rest still trace."""

    def test_missing_names(self) -> None:
        sys.path.insert(0, str(run.SRC))
        layers = {
            **tracing.LAYERS,
            "metrics": ("openbounded.metrics", ("metric_table", "folded_into_kernel")),
            "gone": ("openbounded.no_such_layer", ("anything",)),
        }
        tracer = tracing.Tracer()
        tracer.install(layers)
        try:
            from openbounded import metrics
            self.assertTrue(hasattr(metrics.metric_table, "__wrapped__"))
        finally:
            tracer.uninstall()
        self.assertFalse(hasattr(metrics.metric_table, "__wrapped__"))
        self.assertEqual(sorted(tracer.missing),
                         ["openbounded.metrics.folded_into_kernel", "openbounded.no_such_layer.anything"])
        self.assertEqual(tracing.layer_metrics(tracer)["trace.missing_wrappers"], 2)


class BenchmarkFile(unittest.TestCase):
    """BENCHMARK.json names exactly the workloads and metrics the runner reports."""

    def test_matches_runner(self) -> None:
        path = run.ROOT / "BENCHMARK.json"
        if not path.exists():
            self.skipTest("no BENCHMARK.json beside the benchmark")
        spec = json.loads(path.read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, tracing.UNITS)


if __name__ == "__main__":
    unittest.main()
