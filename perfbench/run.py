"""Benchmark of the ``openbounded`` CLI pipeline.

    python3 perfbench/run.py --workload log-roundtrip --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout: the library is imported from
``src/`` and nothing needs to be installed. Each workload iteration gets a
fresh directory under ``.perfbench_work/`` with inputs generated from the
seed, runs its operations one at a time, checks their outputs and is
deleted. Iterations repeat until ``--seconds`` have passed.

``--trace 0`` runs every operation as its own child process and reports the
end-to-end metrics. ``--trace 1`` runs each iteration twice in-process
(``tracing.py``), once plain and once with layer wrappers, and reports the
per-layer metrics. Human-readable lines come first; the last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. NOTES.md explains the workloads and every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict
from pathlib import Path

from tracing import UNITS as PER_LAYER_UNITS
from workloads import SIZES, WORKLOADS, Op, OpResult, Outcome, Plan

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CLI_ENTRY = "import sys; from openbounded.cli import main; sys.exit(main())"
SETUP_STARTS = 7
# Every child is killed once the run has lasted this long, so the run ends
# well inside the 180 s a benchmark run may take.
RUN_DEADLINE_S = 160.0
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
COMMAND_STEMS = ("simulate", "analyze", "power", "analytic", "montecarlo")


def child_env() -> dict[str, str]:
    """The caller's environment with the checkout's ``src`` as the only import
    path, and without the CLI's seed variable: children get flags only."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "OPENBOUNDED_SEED")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd: list[str], stdout: Path, stderr: Path, deadline: float) -> OpResult:
    """Run one child to completion; wall time from spawn to reap, peak RSS and
    CPU time of that child alone from ``wait4``."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=child_env(), cwd=ROOT)
        killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return OpResult(
        exit_code=proc.returncode,
        wall_s=wall,
        stderr=stderr.read_text(encoding="utf-8", errors="replace"),
        rss_mb=usage.ru_maxrss / 1024.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
    )


def op_command(op: Op) -> list[str]:
    if op.kind == "cli":
        return [sys.executable, "-c", CLI_ENTRY, *op.argv]
    return [sys.executable, str(BENCH / "montecarlo.py"), *op.argv]


class Tally:
    """Operations attempted and failed over a run, with the first problems seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, outcomes: list[Outcome]) -> None:
        for o in outcomes:
            self.attempted += o.attempted
            self.failed += o.failed
            self.problems += o.problems[: max(0, 20 - len(self.problems))]


def measure_setup(workdir: Path, deadline: float, tally: Tally) -> list[float]:
    """Cold ``openbounded --version`` starts: interpreter start plus package import.
    The first start is a warm-up (it may write bytecode caches) and is not timed."""
    walls = []
    for i in range(SETUP_STARTS + 1):
        res = run_child([sys.executable, "-c", CLI_ENTRY, "--version"],
                        workdir / "version.stdout", workdir / "version.stderr", deadline)
        text = (workdir / "version.stdout").read_text(encoding="utf-8", errors="replace")
        ok = res.exit_code == 0 and text.startswith("openbounded ")
        tally.add([Outcome("setup", 1, int(not ok), [] if ok else [f"--version: {res.exit_code} {text!r}"])])
        if i:
            walls.append(res.wall_s)
    return walls


def iteration_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


def fresh_dir(work: Path, name: str) -> Path:
    path = work / name
    path.mkdir()
    return path


def end_to_end(name: str, seed: int, seconds: float, work: Path, deadline: float):
    workload = WORKLOADS[name]
    tally = Tally()
    setup = measure_setup(fresh_dir(work, "setup"), deadline, tally)
    walls, rss, per_stem = [], [], {stem: [] for stem in COMMAND_STEMS}
    pool: dict = {}
    start = time.monotonic()
    i = 0
    while i == 0 or time.monotonic() - start < seconds:
        plan = workload.plan(fresh_dir(work, f"it{i}"), iteration_seed(seed, i), SIZES["full"])
        results = [run_child(op_command(op), op.stdout, op.stderr, deadline) for op in plan.ops]
        tally.add(workload.check(plan, results, pool))
        shutil.rmtree(plan.workdir)
        walls.append(sum(r.wall_s for r in results))
        rss.append(max(r.rss_mb for r in results))
        for stem in {op.stem for op in plan.ops}:
            per_stem[stem].append(sum(r.wall_s for op, r in zip(plan.ops, results) if op.stem == stem))
        i += 1
    if workload.finish is not None:
        tally.add(workload.finish(pool))
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
    }
    lines = [f"{name}: seed {seed}, {i} iterations, {len(setup)} cold starts"]
    lines += [f"  {k:<18} {v:12.4f} {END_TO_END_UNITS[k]}" for k, v in metrics.items()]
    lines += [f"  {stem + '_s':<18} {statistics.median(v):12.4f} s" for stem, v in per_stem.items() if v]
    lines.append("  wall_s by iteration: " + " ".join(f"{w:.3f}" for w in walls))
    return metrics, END_TO_END_UNITS, tally, lines


def in_process(plan: Plan, trace: int, deadline: float) -> tuple[list[OpResult], dict, OpResult]:
    """Run the plan's operations in one child through ``tracing.py``, plainly
    or traced. Returns per-operation results, the child's result document and
    the child itself; if the child died, every operation counts as failed."""
    plan_path, result_path = plan.workdir / "plan.json", plan.workdir / f"result{trace}.json"
    plan_path.write_text(json.dumps([asdict(op) for op in plan.ops], default=str), encoding="utf-8")
    child = run_child(
        [sys.executable, str(BENCH / "tracing.py"), "--plan", str(plan_path),
         "--trace", str(trace), "--result", str(result_path)],
        plan.workdir / "tracing.stdout", plan.workdir / "tracing.stderr", deadline,
    )
    try:
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        result = {}
    if child.exit_code != 0 or "ops" not in result:
        return [OpResult(child.exit_code or 1, child.wall_s, child.stderr) for _ in plan.ops], {}, child
    results = [OpResult(r["exit_code"], r["wall_s"], op.stderr.read_text(encoding="utf-8", errors="replace"))
               for op, r in zip(plan.ops, result["ops"])]
    return results, result, child


def traced(name: str, seed: int, seconds: float, work: Path, deadline: float):
    workload = WORKLOADS[name]
    tally = Tally()
    samples: list[dict] = []
    missing: set[str] = set()
    pool: dict = {}
    start = time.monotonic()
    i = 0
    # A pair runs the workload twice; start another only if it should end within --seconds.
    while i == 0 or (time.monotonic() - start) * (i + 1) / i <= seconds:
        runs = []
        for trace in (0, 1):
            plan = workload.plan(fresh_dir(work, f"it{i}-{trace}"), iteration_seed(seed, i), SIZES["full"])
            results, result, child = in_process(plan, trace, deadline)
            # Both passes run the same seeds; pool them once for the agreement check.
            tally.add(workload.check(plan, results, pool if trace == 0 else {}))
            runs.append((result, child))
            shutil.rmtree(plan.workdir)
        (plain, plain_child), (tr, _) = runs
        if "metrics" in tr and "wall_s" in plain:
            samples.append({
                **tr["metrics"],
                "proc.cpu_s": plain_child.cpu_s,
                "trace.overhead_share": tr["wall_s"] / plain["wall_s"] - 1.0,
            })
            missing.update(tr["missing"])
        i += 1
    if workload.finish is not None:
        tally.add(workload.finish(pool))
    metrics = {k: statistics.median(s[k] for s in samples) for k in PER_LAYER_UNITS if samples}
    lines = [f"{name}: seed {seed}, {i} untraced/traced pairs, per-layer medians"]
    lines += [f"  {k:<28} {v:16.6g} {PER_LAYER_UNITS[k]}" for k, v in metrics.items()]
    lines += [f"  missing: {m} (metrics built on it read 0)" for m in sorted(missing)]
    return metrics, PER_LAYER_UNITS, tally, lines


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK))
    try:
        measure = traced if trace else end_to_end
        metrics, units, tally, lines = measure(name, seed, seconds, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK.rmdir()
    share = tally.failed / tally.attempted if tally.attempted else 1.0
    lines.append(f"  {'failed_ops_share':<18} {share:12.4f} share ({tally.failed}/{tally.attempted})")
    lines += [f"  problem: {p}" for p in tally.problems]
    print("\n".join(lines), flush=True)
    return {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the openbounded CLI pipeline.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "openbounded" / "__init__.py").is_file():
        print(f"error: no openbounded sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        print(json.dumps(run_workload(name, args.seed, args.seconds, args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
