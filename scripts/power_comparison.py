#!/usr/bin/env python3
"""End-to-end power comparison on synthetic fixed-population data.

Simulates a user pool with random daily engagement as one trace table,
drops its variants, injects a relative lift through random 50/50
assignment, and sweeps sample fractions under both inclusion policies on
shared subsamples. Writes the curve data as CSV (one row per policy and
fraction) for external plotting.

Usage:
  python3 scripts/power_comparison.py --lift 0.01 --sigma 65 --n-per-arm 50000
"""

import argparse
import csv
from pathlib import Path
from typing import Sequence

from openbounded import (
    EffectKind,
    EffectSpec,
    ExperimentCalendar,
    Model1Params,
    Seed,
    compare_policies,
    inject_effect,
    simulate_model1,
    strip_variants,
)


def main(argv: Sequence[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-per-arm", type=int, default=50_000)
    parser.add_argument("--p", type=float, default=0.2, help="daily activity probability")
    parser.add_argument("--c", type=float, default=100.0, help="control outcome level")
    parser.add_argument("--sigma", type=float, default=65.0, help="day-level noise std dev")
    parser.add_argument("--lift", type=float, default=0.01, help="relative treatment lift")
    parser.add_argument("--weekend-lift", type=float, default=0.0)
    parser.add_argument("--reps", type=int, default=500)
    parser.add_argument("--seed", type=int, default=705)
    parser.add_argument("--out", type=Path, default=Path("results/power_comparison.csv"))
    args = parser.parse_args(argv)

    calendar = ExperimentCalendar(14)
    params = Model1Params(p=args.p, sigma=args.sigma, c=args.c)
    pool = strip_variants(simulate_model1(params, args.n_per_arm, Seed(args.seed)))
    spec = EffectSpec(EffectKind.RELATIVE_LIFT, args.lift, args.weekend_lift)
    traces = inject_effect(pool, spec, calendar, Seed(args.seed + 1))
    print(f"{len(traces)} users, {int(traces.present.sum())} active user-days")

    fractions = [round(0.1 * i, 1) for i in range(1, 11)]
    curves = compare_policies(
        traces, calendar, fractions, repetitions=args.reps, seed=Seed(args.seed + 2)
    )

    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["policy", "fraction", "power", "est_p05", "est_p50", "est_p95",
             "n_effective_treatment", "n_effective_control"]
        )
        for curve in curves:
            for pt in curve.points:
                writer.writerow(
                    [curve.policy.label, pt.fraction, pt.power, pt.est_p05, pt.est_p50,
                     pt.est_p95, pt.n_effective_treatment, pt.n_effective_control]
                )
    print(f"wrote {args.out}")

    open_curve, bounded_curve = curves
    print(f"{'f':>4} {'power(open)':>12} {'power(bounded)':>15} {'band(open)':>11} {'band(bounded)':>14}")
    for op, bp in zip(open_curve.points, bounded_curve.points):
        print(
            f"{op.fraction:>4.1f} {op.power:>12.3f} {bp.power:>15.3f} "
            f"{op.est_p95 - op.est_p05:>11.3f} {bp.est_p95 - bp.est_p05:>14.3f}"
        )


if __name__ == "__main__":
    main()
