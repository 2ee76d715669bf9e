"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Monte-Carlo criteria use
pinned seeds, so every run is deterministic. The whole module finishes in
about 8 s on a shared 2-core box.
"""

import hashlib
import math

import numpy as np
import pytest

from openbounded import (
    OPEN,
    EffectKind,
    EffectSpec,
    ExperimentCalendar,
    Model1Params,
    Model2Params,
    Seed,
    bounded,
    compare_policies,
    delta_estimate,
    enumeration_oracle,
    inject_effect,
    model1_bias,
    model2_bias,
    model2_variance_coeffs,
    simulate_model1,
    simulate_model2,
    strip_variants,
    toy_even_day_ratio,
)
from openbounded.analytic import (
    TOY_CALENDAR,
    TOY_EFFECT_DAYS,
    TOY_POLICY_BOUNDED,
    WEEKEND_SHARE,
)
from openbounded.cli import main as cli_main

MONDAY14 = ExperimentCalendar(14)
BOUNDED7 = bounded(7)
P_GRID = [round(0.05 * i, 2) for i in range(1, 20)]


def report(criterion, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_model1_open_unbiased():
    worst = max(abs(model1_bias(OPEN, p)) for p in P_GRID)
    report(
        "criterion 1 (model 1 open bias)",
        worst <= 1e-9,
        f"max |bias| over p grid = {worst:.2e} (tolerance 1e-9)",
    )


def test_criterion_2_model1_bounded_bias_magnitude():
    biases = [model1_bias(BOUNDED7, p) for p in P_GRID]
    worst = max(abs(b) for b in biases)
    all_negative = all(b < 0 for b in biases)
    ok = abs(worst - 0.064) <= 0.005 and all_negative
    report(
        "criterion 2 (model 1 bounded bias)",
        ok,
        f"max |bias|/tau' = {worst:.4f} (target 0.064 +/- 0.005), "
        f"all grid biases negative: {all_negative}",
    )


def test_criterion_3_oracle_equivalence():
    worst_closed = 0.0
    for p in P_GRID:
        for policy in (OPEN, BOUNDED7):
            oracle = enumeration_oracle(MONDAY14, policy, p)
            closed = model1_bias(policy, p) + WEEKEND_SHARE
            worst_closed = max(worst_closed, abs(oracle.ratio - closed))
    worst_toy = 0.0
    for p in P_GRID:
        oracle = enumeration_oracle(
            TOY_CALENDAR, TOY_POLICY_BOUNDED, p, TOY_EFFECT_DAYS, admission_deadline=3
        )
        worst_toy = max(
            worst_toy, abs(oracle.ratio_over_active - toy_even_day_ratio(TOY_POLICY_BOUNDED, p))
        )
        open_oracle = enumeration_oracle(TOY_CALENDAR, OPEN, p, TOY_EFFECT_DAYS)
        worst_toy = max(worst_toy, abs(open_oracle.ratio - toy_even_day_ratio(OPEN, p)))
    ok = worst_closed <= 1e-9 and worst_toy <= 1e-9
    report(
        "criterion 3 (enumeration oracle equivalence)",
        ok,
        f"max closed-form gap {worst_closed:.2e}, max 4-day desk gap {worst_toy:.2e} "
        "(tolerance 1e-9)",
    )


def test_criterion_4_model2_constants():
    checks = []
    bias14 = model2_bias(OPEN, MONDAY14)
    checks.append(("open bias k=14", abs(bias14 - 0.19) <= 0.005, f"{bias14:.4f}"))
    bias28 = model2_bias(OPEN, ExperimentCalendar(28))
    checks.append(("open bias k=28", abs(bias28 - 0.11) <= 0.01, f"{bias28:.4f}"))
    checks.append(("bounded bias", model2_bias(BOUNDED7) == 0.0, "0 exactly"))
    eta_b, zeta_b = model2_variance_coeffs(BOUNDED7, ns=1)
    eta_o, zeta_o = model2_variance_coeffs(OPEN, ns=1)
    checks.append(("bounded sigma^2 coeff", abs(eta_b - 0.041) <= 0.0005, f"{eta_b:.4f}"))
    checks.append(("open sigma^2 coeff", abs(eta_o - 0.033) <= 0.0005, f"{eta_o:.4f}"))
    checks.append(("open tau'^2 coeff", abs(zeta_o - 0.004) <= 0.0005, f"{zeta_o:.4f}"))
    checks.append(("bounded tau'^2 coeff", zeta_b == 0.0, "0 exactly"))
    ok = all(c[1] for c in checks)
    report(
        "criterion 4 (model 2 constants)",
        ok,
        "; ".join(f"{name}={detail}" for name, passed, detail in checks),
    )


def test_criterion_5_model2_monte_carlo_agreement():
    open_deltas, bounded_deltas = [], []
    params = Model2Params(ns=500, tau=0.0, tau_prime=1.0, sigma=1.0)
    for r in range(200):
        traces = simulate_model2(params, Seed(1000 + r))
        open_deltas.append(delta_estimate(traces, OPEN, MONDAY14).delta)
        bounded_deltas.append(delta_estimate(traces, BOUNDED7, MONDAY14).delta)
    od, bd = np.array(open_deltas), np.array(bounded_deltas)
    target_open = WEEKEND_SHARE + model2_bias(OPEN, MONDAY14)
    se_open = od.std(ddof=1) / math.sqrt(len(od))
    se_bounded = bd.std(ddof=1) / math.sqrt(len(bd))
    open_ok = abs(od.mean() - target_open) <= 3 * se_open
    rounded_ok = round(od.mean() - WEEKEND_SHARE, 2) == 0.19
    bounded_ok = abs(bd.mean() - WEEKEND_SHARE) <= 3 * se_bounded
    var_ok = od.var(ddof=1) < bd.var(ddof=1)
    ok = open_ok and rounded_ok and bounded_ok and var_ok
    report(
        "criterion 5 (model 2 Monte-Carlo agreement)",
        ok,
        f"open mean {od.mean():.5f} vs 2/7+0.19 (exact {target_open:.5f}, 3se {3*se_open:.5f}); "
        f"bounded mean {bd.mean():.5f} vs {WEEKEND_SHARE:.5f} (3se {3*se_bounded:.5f}); "
        f"var open {od.var(ddof=1):.3e} < var bounded {bd.var(ddof=1):.3e}: {var_ok}",
    )


def test_criterion_6_constant_effect_unbiased():
    open_deltas, bounded_deltas = [], []
    params = Model1Params(p=0.3, tau=1.0, tau_prime=0.0, sigma=2.0, c=10.0)
    for r in range(200):
        traces = simulate_model1(params, 500, Seed(2000 + r))
        open_deltas.append(delta_estimate(traces, OPEN, MONDAY14).delta)
        bounded_deltas.append(delta_estimate(traces, BOUNDED7, MONDAY14).delta)
    details = []
    ok = True
    for name, deltas in (("open", open_deltas), ("bounded", bounded_deltas)):
        arr = np.array(deltas)
        se = arr.std(ddof=1) / math.sqrt(len(arr))
        passed = abs(arr.mean() - 1.0) <= 3 * se
        ok = ok and passed
        details.append(f"{name} mean {arr.mean():.5f} (3se {3*se:.5f})")
    report("criterion 6 (constant effect unbiased)", ok, "; ".join(details))


def test_criterion_7_power_ordering():
    params = Model1Params(p=0.2, tau=0.0, tau_prime=0.0, sigma=65.0, c=100.0)
    raw = strip_variants(simulate_model1(params, 50_000, Seed(705)))
    traces = inject_effect(
        raw, EffectSpec(EffectKind.RELATIVE_LIFT, 0.01), MONDAY14, Seed(706)
    )
    fractions = [round(0.1 * i, 1) for i in range(1, 11)]
    open_curve, bounded_curve = compare_policies(
        traces, MONDAY14, fractions, repetitions=500, alpha=0.05, seed=Seed(707)
    )
    power_inversions = band_inversions = 0
    for op, bp in zip(open_curve.points, bounded_curve.points):
        if op.power < bp.power:
            power_inversions += 1
        if (op.est_p95 - op.est_p05) > (bp.est_p95 - bp.est_p05):
            band_inversions += 1
    ok = power_inversions <= 1 and band_inversions <= 1
    report(
        "criterion 7 (power ordering at 1e5 users)",
        ok,
        f"power inversions {power_inversions}/10, band inversions {band_inversions}/10 "
        f"(each <= 1 allowed); full-sample power open "
        f"{open_curve.points[-1].power:.2f}, bounded {bounded_curve.points[-1].power:.2f}",
    )


def test_criterion_8_null_calibration():
    params = Model1Params(p=0.5, tau=0.0, tau_prime=0.0, sigma=1.0, c=0.0)
    rejections = {"open": 0, "bounded": 0}
    n_runs = 1000
    for r in range(n_runs):
        traces = simulate_model1(params, 250, Seed(3000 + r))
        if delta_estimate(traces, OPEN, MONDAY14).p_value < 0.05:
            rejections["open"] += 1
        if delta_estimate(traces, BOUNDED7, MONDAY14).p_value < 0.05:
            rejections["bounded"] += 1
    rates = {k: v / n_runs for k, v in rejections.items()}
    ok = all(0.035 <= rate <= 0.065 for rate in rates.values())
    report(
        "criterion 8 (null calibration)",
        ok,
        f"rejection rates at alpha=0.05: open {rates['open']:.4f}, "
        f"bounded {rates['bounded']:.4f} (window [0.035, 0.065])",
    )


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_criterion_9_byte_determinism(tmp_path, capsys):
    log = tmp_path / "events.jsonl"
    sim_args = [
        "simulate", "--model", "model1", "--p", "0.4", "--tau", "1.0", "--sigma", "1.0",
        "--n-per-arm", "200", "--seed", "42", "-o", str(log),
    ]
    analyze_args = ["analyze", "-i", str(log), "-o", str(tmp_path / "report.json")]
    power_args = [
        "power", "-i", str(log), "--fractions", "0.5,1.0", "--reps", "40",
        "--seed", "42", "--format", "csv", "-o", str(tmp_path / "power.csv"),
    ]
    analytic_args = [
        "analytic", "--model", "model1", "--p-grid", "0.2,0.5", "-o", str(tmp_path / "table.csv"),
    ]
    outputs = [log, tmp_path / "events.meta.json", tmp_path / "report.json",
               tmp_path / "power.csv", tmp_path / "table.csv"]

    hashes = []
    for _ in range(2):
        for args in (sim_args, analyze_args, power_args, analytic_args):
            assert cli_main(args) == 0
        hashes.append([_sha(path) for path in outputs])
    capsys.readouterr()
    ok = hashes[0] == hashes[1]
    report(
        "criterion 9 (byte-identical reruns)",
        ok,
        f"{len(outputs)} output files identical across reruns of all four commands: {ok}",
    )
