"""Criterion 5's Monte-Carlo loop, run as its own process.

For each seed: simulate Model 2 (ns arrivals per day per arm, tau=0,
tau_prime=1, sigma=1, 14 days from a Monday) and estimate delta under open
and under bounded(7). Writes one JSON document with every seed's deltas and
the error text of any seed that raised; it exits 0 unless its arguments or
output file are bad. Needs ``openbounded`` on the import path.

    python3 perfbench/montecarlo.py --seed-base 1000 --seeds 30 --ns 500 -o mc.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from openbounded import OPEN, Model2Params, Seed, bounded, delta_estimate, simulate_model2

POLICIES = {"open": OPEN, "bounded": bounded(7)}


def run_seed(seed: int, ns: int) -> dict[str, float]:
    """Delta under each policy for one simulated Model 2 experiment."""
    params = Model2Params(ns=ns, tau=0.0, tau_prime=1.0, sigma=1.0)
    traces = simulate_model2(params, Seed(seed))
    return {
        name: delta_estimate(traces, policy, params.calendar).delta
        for name, policy in POLICIES.items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--seeds", type=int, required=True)
    parser.add_argument("--ns", type=int, required=True)
    parser.add_argument("--output", "-o", required=True)
    args = parser.parse_args(argv)
    result: dict = {"seeds": [], "errors": {}, **{name: [] for name in POLICIES}}
    for seed in range(args.seed_base, args.seed_base + args.seeds):
        result["seeds"].append(seed)
        try:
            deltas = run_seed(seed, args.ns)
        except Exception as exc:  # one bad seed is reported, the loop goes on
            result["errors"][str(seed)] = f"{type(exc).__name__}: {exc}"
            deltas = {}
        for name in POLICIES:
            value = deltas.get(name)
            result[name].append(value if value is not None and math.isfinite(value) else None)
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
