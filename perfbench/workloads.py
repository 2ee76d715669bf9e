"""The three workloads: what each runs, at which size, and how its outputs are checked.

A workload iteration is a ``Plan``: input files generated from a seed into a
fresh directory, then a list of operations, each one ``openbounded`` CLI
command or one run of the Monte-Carlo script. ``run.py`` runs the
operations as child processes (or in-process, traced, through
``tracing.py``) and hands the results back to the workload's ``check``.
See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
from inputs import LogCounts, count_log, write_raw_log

SIZES = {
    "full": {
        "n_per_arm": 50_000, "raw_users": 100_000, "reps": 300,
        "p_grid": None, "mc_seeds": 30, "mc_ns": 500,
    },
    "tiny": {
        "n_per_arm": 400, "raw_users": 3_000, "reps": 200,
        "p_grid": "0.2,0.5", "mc_seeds": 12, "mc_ns": 20,
    },
}
DEFAULT_P_GRID_POINTS = 19  # the CLI's default --p-grid 0.05:0.95:0.05


@dataclass(frozen=True)
class Op:
    """One timed operation. ``stem`` names the command it times (simulate_s, ...)."""

    stem: str
    kind: str  # "cli" or "script" (montecarlo.py)
    argv: tuple[str, ...]
    output: Path
    stdout: Path
    stderr: Path


@dataclass
class OpResult:
    exit_code: int
    wall_s: float
    stderr: str
    rss_mb: float = 0.0
    cpu_s: float = 0.0


@dataclass
class Outcome:
    """Operations attempted and failed for one op, with the reasons."""

    stem: str
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)


@dataclass
class Plan:
    workdir: Path
    size: dict
    ops: list[Op]
    counts: LogCounts | None = None


def _op(workdir: Path, name: str, stem: str, kind: str, argv: list[str], output: Path) -> Op:
    return Op(stem, kind, tuple(str(a) for a in argv), output,
              workdir / f"{name}.stdout", workdir / f"{name}.stderr")


def plan_log_roundtrip(workdir: Path, seed: int, size: dict) -> Plan:
    log, report = workdir / "log.jsonl", workdir / "analyze.json"
    ops = [
        _op(workdir, "simulate", "simulate", "cli", [
            "simulate", "--model", "model1", "--p", "0.2", "--c", "100", "--sigma", "65",
            "--tau", "1", "--n-per-arm", size["n_per_arm"], "--seed", seed, "-o", log], log),
        _op(workdir, "analyze", "analyze", "cli", ["analyze", "-i", log, "-o", report], report),
    ]
    return Plan(workdir, size, ops)


def plan_power_replay(workdir: Path, seed: int, size: dict) -> Plan:
    raw, report = workdir / "raw.jsonl", workdir / "power.json"
    counts = write_raw_log(raw, seed, size["raw_users"], p=0.2, c=100.0, sigma=65.0)
    ops = [
        _op(workdir, "power", "power", "cli", [
            "power", "-i", raw, "--inject-lift", "0.01", "--fractions", "0.1:1.0:0.1",
            "--reps", size["reps"], "--seed", seed, "-o", report], report),
    ]
    return Plan(workdir, size, ops, counts)


def plan_paper_validate(workdir: Path, seed: int, size: dict) -> Plan:
    grid = ["--p-grid", size["p_grid"]] if size["p_grid"] else []
    a14, a20, mc = workdir / "analytic14.json", workdir / "analytic20.json", workdir / "mc.json"
    ops = [
        _op(workdir, "analytic14", "analytic", "cli",
            ["analytic", "--model", "model1", "--format", "json", *grid, "-o", a14], a14),
        _op(workdir, "analytic20", "analytic", "cli",
            ["analytic", "--model", "model1", "--k", "20", "--format", "json", *grid, "-o", a20], a20),
        _op(workdir, "montecarlo", "montecarlo", "script",
            ["--seed-base", seed * 1000, "--seeds", size["mc_seeds"], "--ns", size["mc_ns"], "-o", mc], mc),
    ]
    return Plan(workdir, size, ops)


def _exit_problems(op: Op, result: OpResult) -> list[str]:
    problems = []
    if result.exit_code != 0:
        problems.append(f"{op.stem}: exit code {result.exit_code}: {result.stderr.strip()[-300:]}")
    if "Traceback" in result.stderr:
        problems.append(f"{op.stem}: traceback on stderr")
    return problems


def _load(op: Op, result: OpResult, problems: list[str]):
    """The op's JSON output, or None after noting why the op failed."""
    problems += _exit_problems(op, result)
    if problems:
        return None
    try:
        with open(op.output, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        problems.append(f"{op.stem}: unreadable output {op.output.name}: {exc}")
        return None


def check_log_roundtrip(plan: Plan, results: list[OpResult], pool: dict) -> list[Outcome]:
    (sim_op, ana_op), (sim_res, ana_res) = plan.ops, results
    sim_problems = _exit_problems(sim_op, sim_res)
    counts = None
    if not sim_problems:
        try:
            counts = count_log(sim_op.output)
        except (OSError, ValueError, KeyError) as exc:
            sim_problems.append(f"simulate: unreadable log: {exc}")
        else:
            sim_problems += checks.check_simulate(sim_res.stderr, counts)
    ana_problems: list[str] = []
    report = _load(ana_op, ana_res, ana_problems)
    if report is not None and counts is not None:
        ana_problems += checks.check_analyze(report, counts)
    elif report is not None:
        ana_problems.append("analyze: no log counts to check against")
    return [
        Outcome("simulate", 1, int(bool(sim_problems)), sim_problems),
        Outcome("analyze", 1, int(bool(ana_problems)), ana_problems),
    ]


def check_power_replay(plan: Plan, results: list[OpResult], pool: dict) -> list[Outcome]:
    problems: list[str] = []
    report = _load(plan.ops[0], results[0], problems)
    if report is not None:
        problems += checks.check_power(report, plan.counts)
    return [Outcome("power", 1, int(bool(problems)), problems)]


def check_paper_validate(plan: Plan, results: list[OpResult], pool: dict) -> list[Outcome]:
    outcomes = []
    n_rows = 2 * (len(plan.size["p_grid"].split(",")) if plan.size["p_grid"] else DEFAULT_P_GRID_POINTS)
    for op, res, k in zip(plan.ops[:2], results[:2], (14, 20)):
        problems: list[str] = []
        report = _load(op, res, problems)
        if report is not None:
            problems += checks.check_analytic(report, k, n_rows)
        outcomes.append(Outcome("analytic", 1, int(bool(problems)), problems))
    problems = []
    n_seeds = plan.size["mc_seeds"]
    mc = _load(plan.ops[2], results[2], problems)
    if mc is None:
        outcomes.append(Outcome("montecarlo", 1 + n_seeds, 1 + n_seeds, problems))
        return outcomes
    failed_seeds = checks.seed_failures(mc)
    if len(mc.get("seeds", [])) != n_seeds:
        problems.append(f"montecarlo: {len(mc.get('seeds', []))} seeds run, {n_seeds} asked")
    problems += [f"montecarlo seed {s}: {why}" for s, why in failed_seeds.items()]
    for policy in checks.POLICIES:
        pool.setdefault(policy, []).extend(mc.get(policy, []))
    failed = int(len(mc.get("seeds", [])) != n_seeds) + min(len(failed_seeds), n_seeds)
    outcomes.append(Outcome("montecarlo", 1 + n_seeds, failed, problems))
    return outcomes


def finish_paper_validate(pool: dict) -> list[Outcome]:
    """Criterion 5's agreement check over every seed the run simulated. It is
    made once per run, on the pooled deltas, and fails the script once."""
    problems = checks.check_montecarlo(pool)
    return [Outcome("montecarlo", 0, int(bool(problems)), problems)]


@dataclass(frozen=True)
class Workload:
    plan: Callable[[Path, int, dict], Plan]
    check: Callable[[Plan, list[OpResult], dict], list[Outcome]]
    finish: Callable[[dict], list[Outcome]] | None = None


WORKLOADS = {
    "log-roundtrip": Workload(plan_log_roundtrip, check_log_roundtrip),
    "power-replay": Workload(plan_power_replay, check_power_replay),
    "paper-validate": Workload(plan_paper_validate, check_paper_validate, finish_paper_validate),
}
