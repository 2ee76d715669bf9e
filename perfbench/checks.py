"""Output checks. Each returns a list of problems; an empty list passes.

The checks read the JSON documents the commands wrote and compare them with
figures the benchmark worked out itself (``inputs.LogCounts``, the paper's
closed forms below), never with figures from library code.
"""

from __future__ import annotations

import math
import re

from inputs import K_DAYS, LogCounts

WEEKEND_SHARE = 2.0 / 7.0
POLICIES = ("open", "bounded")
ANALYTIC_TOL = 1e-12
MC_STANDARD_ERRORS = 4.0


def _is_weekend(t: int) -> bool:
    # Day 1 is a Monday.
    return (t - 1) % 7 >= 5


def model2_bias(policy: str) -> float:
    """Model 2 bias per unit weekend effect. Bounded(7) sees exactly two weekend
    days per admitted user; open averages the weekend share of [i, k] over the
    k equal-sized arrival cohorts."""
    if policy == "bounded":
        return 0.0
    shares = [
        sum(_is_weekend(t) for t in range(i, K_DAYS + 1)) / (K_DAYS + 1 - i)
        for i in range(1, K_DAYS + 1)
    ]
    return math.fsum(shares) / K_DAYS - WEEKEND_SHARE


def _nonfinite_paths(obj, path: str = "") -> list[str]:
    if isinstance(obj, float):
        return [] if math.isfinite(obj) else [path]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _nonfinite_paths(v, f"{path}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _nonfinite_paths(v, f"{path}[{i}]")]
    return []


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _by_policy(items: list, what: str, problems: list[str]) -> dict:
    found = {item.get("policy"): item for item in items}
    for policy in POLICIES:
        if policy not in found:
            problems.append(f"{what}: no entry for policy {policy}")
    return found


def check_simulate(stderr: str, counts: LogCounts) -> list[str]:
    match = re.search(r"wrote (\d+) rows", stderr)
    if match is None:
        return ["simulate: no row count on stderr"]
    if int(match.group(1)) != counts.rows:
        return [f"simulate: reported {match.group(1)} rows, file holds {counts.rows}"]
    return []


def check_analyze(report: dict, counts: LogCounts) -> list[str]:
    problems = [f"analyze: non-finite number at {p}" for p in _nonfinite_paths(report)]
    ingest = report.get("ingest", {})
    if ingest.get("rejected") != {}:
        problems.append(f"analyze: rejected rows {ingest.get('rejected')!r}")
    if ingest.get("accepted_rows") != counts.rows:
        problems.append(f"analyze: accepted {ingest.get('accepted_rows')} of {counts.rows} rows")
    for policy, res in _by_policy(report.get("results", []), "analyze", problems).items():
        fields = ("delta", "variance", "statistic", "p_value", "gamma")
        missing = [f for f in fields if not _number(res.get(f))]
        if missing:
            problems.append(f"analyze {policy}: missing or non-finite {', '.join(missing)}")
            continue
        if res.get("n_included") != counts.included(policy):
            problems.append(
                f"analyze {policy}: n_included {res.get('n_included')}, log has {counts.included(policy)}"
            )
        if abs(res["delta"] - 1.0) > 5.0 * math.sqrt(res["variance"]):
            problems.append(f"analyze {policy}: delta {res['delta']} more than 5 sd from 1")
        if policy == "open" and abs(res["gamma"] - WEEKEND_SHARE) > 0.01:
            problems.append(f"analyze open: gamma {res['gamma']} not within 0.01 of 2/7")
    return problems


def check_power(report: dict, counts: LogCounts) -> list[str]:
    problems: list[str] = []
    curves = _by_policy(report.get("curves", []), "power", problems)
    widths: dict[str, dict[float, float]] = {}
    for policy, curve in curves.items():
        points = curve.get("points", [])
        if not points:
            problems.append(f"power {policy}: no points")
        for pt in points:
            where = f"power {policy} @ {pt.get('fraction')}"
            band = [pt.get(f) for f in ("est_p05", "est_p50", "est_p95")]
            if not _number(pt.get("power")) or not 0.0 <= pt["power"] <= 1.0:
                problems.append(f"{where}: power {pt.get('power')} outside [0, 1]")
                continue
            if not all(_number(v) for v in band) or not band[0] <= band[1] <= band[2]:
                problems.append(f"{where}: estimate band {band} not ordered")
                continue
            widths.setdefault(policy, {})[pt.get("fraction")] = band[2] - band[0]
            if pt.get("degenerate_repetitions") != 0:
                problems.append(f"{where}: {pt.get('degenerate_repetitions')} degenerate repetitions")
            if pt.get("fraction") == 1.0:
                n = pt.get("n_effective_treatment", 0) + pt.get("n_effective_control", 0)
                if n != counts.included(policy):
                    problems.append(f"{where}: {n} users included, log has {counts.included(policy)}")
    # Criterion 7's ordering, on the spread of the estimate: open admits more
    # users and more days per user, so its 5-95% band is the narrower one at
    # all fractions but at most one. Power itself is not compared: on one
    # replayed population it follows that population's realized effect, and
    # open's full-sample z falls below bounded's on about 1 seed in 10.
    if {"open", "bounded"} <= widths.keys():
        shared = widths["open"].keys() & widths["bounded"].keys()
        inversions = [f for f in shared if widths["open"][f] > widths["bounded"][f]]
        if len(inversions) > 1:
            problems.append(f"power: open band wider than bounded at fractions {sorted(inversions)}")
    return problems


def check_analytic(report: dict, k: int, n_rows: int) -> list[str]:
    rows = report.get("rows", [])
    problems = [f"analytic k={k}: non-finite number at {p}" for p in _nonfinite_paths(report)]
    if len(rows) != n_rows:
        problems.append(f"analytic k={k}: {len(rows)} rows, expected {n_rows}")
    for row in rows:
        bias, oracle = row.get("bias_per_tau_prime"), row.get("oracle_bias")
        if not _number(oracle):
            problems.append(f"analytic k={k} {row.get('policy')} p={row.get('p')}: no oracle value")
        elif bias is not None and not abs(bias - oracle) <= ANALYTIC_TOL:
            problems.append(
                f"analytic k={k} {row.get('policy')} p={row.get('p')}: closed form {bias} vs oracle {oracle}"
            )
    if k == 20:
        open_oracle = [r.get("oracle_bias") for r in rows if r.get("policy") == "open"]
        if open_oracle and all(_number(v) for v in open_oracle):
            if max(open_oracle) - min(open_oracle) > ANALYTIC_TOL:
                problems.append(f"analytic k=20: open oracle bias varies with p ({min(open_oracle)}..{max(open_oracle)})")
    return problems


def seed_failures(result: dict) -> dict[str, str]:
    """Seeds that raised or gave a non-finite delta under either policy, with why."""
    failed = {str(s): msg for s, msg in result.get("errors", {}).items()}
    for policy in POLICIES:
        for seed, delta in zip(result.get("seeds", []), result.get(policy, [])):
            if not _number(delta):
                failed.setdefault(str(seed), f"{policy} delta {delta}")
    return failed


def check_montecarlo(deltas: dict[str, list[float]]) -> list[str]:
    """Each policy's mean delta lies within 4 standard errors of 2/7 + bias."""
    problems = []
    for policy in POLICIES:
        values = [v for v in deltas.get(policy, []) if _number(v)]
        if len(values) < 2:
            problems.append(f"montecarlo {policy}: {len(values)} finite deltas")
            continue
        n = len(values)
        mean = math.fsum(values) / n
        se = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1) / n)
        target = WEEKEND_SHARE + model2_bias(policy)
        if not abs(mean - target) <= MC_STANDARD_ERRORS * se:
            problems.append(
                f"montecarlo {policy}: mean {mean:.6f} vs {target:.6f}, "
                f"beyond {MC_STANDARD_ERRORS:g} standard errors ({se:.2e})"
            )
    return problems
