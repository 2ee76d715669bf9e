"""Detection-power and point-estimate curves over user subsample sweeps.

For each sample fraction, users are drawn uniformly without replacement from
the full pool, the delta estimate and its p-value are recorded, and the
process repeats; power is the share of repetitions reaching significance.
Per-repetition subsample seeds are pure functions of (seed, fraction,
repetition), so curves are reproducible and policies can be compared on
identical subsamples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    OPEN,
    ConfigurationError,
    ExperimentCalendar,
    InclusionPolicy,
    InsufficientDataError,
    TraceTable,
    bounded,
)
from .metrics import MetricTable, TestKind, delta_from_samples, metric_table
from .simulate import Seed


@dataclass(frozen=True)
class PowerCurvePoint:
    """One sample fraction: rejection rate, delta percentile band, mean group sizes."""

    fraction: float
    power: float
    est_p05: float
    est_p50: float
    est_p95: float
    n_effective_treatment: float
    n_effective_control: float
    degenerate_repetitions: int = 0


@dataclass(frozen=True)
class PowerCurve:
    policy: InclusionPolicy
    points: tuple[PowerCurvePoint, ...]
    repetitions: int
    alpha: float


def _validate_fractions(fractions: Sequence[float]) -> list[float]:
    out = [float(f) for f in fractions]
    if not out:
        raise ConfigurationError("at least one sample fraction is required")
    for f in out:
        if not 0.0 < f <= 1.0:
            raise ConfigurationError(f"sample fractions must lie in (0, 1], got {f}")
    if any(a >= b for a, b in zip(out, out[1:])):
        raise ConfigurationError("sample fractions must be strictly increasing")
    return out


def _fraction_key(fraction: float) -> int:
    return int(round(fraction * 10**9))


@dataclass
class _PointAccumulator:
    significant: int = 0
    degenerate: int = 0

    def __post_init__(self) -> None:
        self.deltas: list[float] = []
        self.n_treatment: list[int] = []
        self.n_control: list[int] = []

    def finish(self, fraction: float, repetitions: int) -> PowerCurvePoint:
        if self.deltas:
            p05, p50, p95 = np.percentile(self.deltas, [5.0, 50.0, 95.0])
        else:
            p05 = p50 = p95 = math.nan
        return PowerCurvePoint(
            fraction=fraction,
            power=self.significant / repetitions,
            est_p05=float(p05),
            est_p50=float(p50),
            est_p95=float(p95),
            n_effective_treatment=float(np.mean(self.n_treatment)) if self.n_treatment else 0.0,
            n_effective_control=float(np.mean(self.n_control)) if self.n_control else 0.0,
            degenerate_repetitions=self.degenerate,
        )


def _analyze_subset(
    table: MetricTable,
    idx: np.ndarray,
    policy: InclusionPolicy,
    alpha: float,
    test: TestKind,
    acc: _PointAccumulator,
) -> None:
    variants = table.variants[idx]
    included = table.included[idx]
    values = table.values[idx]
    treatment = values[(variants == 1) & included]
    control = values[(variants == 0) & included]
    acc.n_treatment.append(int(treatment.size))
    acc.n_control.append(int(control.size))
    try:
        result = delta_from_samples(treatment, control, policy, test)
    except InsufficientDataError:
        acc.degenerate += 1
        return
    acc.deltas.append(result.delta)
    if result.p_value < alpha:
        acc.significant += 1


def _sweep(
    tables: Sequence[MetricTable],
    policies: Sequence[InclusionPolicy],
    n_users: int,
    fractions: Sequence[float],
    repetitions: int,
    alpha: float,
    seed: Seed,
    test: TestKind,
) -> list[PowerCurve]:
    all_points: list[list[PowerCurvePoint]] = [[] for _ in policies]
    full_index = np.arange(n_users)
    for fraction in fractions:
        accs = [_PointAccumulator() for _ in policies]
        if fraction == 1.0:
            # The full sample admits exactly one subset; a single
            # deterministic repetition is the whole distribution.
            reps = 1
            for table, policy, acc in zip(tables, policies, accs):
                _analyze_subset(table, full_index, policy, alpha, test, acc)
        else:
            reps = repetitions
            size = math.ceil(fraction * n_users)
            fkey = _fraction_key(fraction)
            for r in range(repetitions):
                rng = seed.generator(fkey, r)
                idx = rng.choice(n_users, size=size, replace=False)
                for table, policy, acc in zip(tables, policies, accs):
                    _analyze_subset(table, idx, policy, alpha, test, acc)
        for points, acc in zip(all_points, accs):
            points.append(acc.finish(fraction, reps))
    return [
        PowerCurve(policy=policy, points=tuple(points), repetitions=repetitions, alpha=alpha)
        for policy, points in zip(policies, all_points)
    ]


def power_curve(
    traces: TraceTable,
    policy: InclusionPolicy,
    calendar: ExperimentCalendar,
    fractions: Sequence[float],
    repetitions: int = 500,
    alpha: float = 0.05,
    seed: Seed = Seed(0),
    test: TestKind = TestKind.Z,
) -> PowerCurve:
    """Power and delta percentile band at each sample fraction for one policy.

    Each repetition subsamples ceil(fraction * len(traces)) users without
    replacement, runs the delta estimate, and records (p-value, delta).
    A repetition whose subsample leaves an arm below two included users is
    counted as non-significant with no delta. Fraction 1.0 is computed once.
    """
    fracs = _validate_fractions(fractions)
    if repetitions < 2:
        raise ConfigurationError(f"repetitions must be >= 2, got {repetitions}")
    table = metric_table(traces, policy, calendar)
    return _sweep([table], [policy], len(traces), fracs, repetitions, alpha, seed, test)[0]


def compare_policies(
    traces: TraceTable,
    calendar: ExperimentCalendar,
    fractions: Sequence[float],
    repetitions: int = 500,
    alpha: float = 0.05,
    seed: Seed = Seed(0),
    test: TestKind = TestKind.Z,
    policies: Sequence[InclusionPolicy] = (OPEN, bounded(7)),
) -> tuple[PowerCurve, ...]:
    """Power curves for several policies on identical per-repetition subsamples.

    Sharing subsamples removes subsampling noise from the comparison; the
    included-user counts still differ per policy because each applies its
    own admission rule to the common subset.
    """
    fracs = _validate_fractions(fractions)
    if repetitions < 2:
        raise ConfigurationError(f"repetitions must be >= 2, got {repetitions}")
    if not policies:
        raise ConfigurationError("at least one policy is required")
    tables = [metric_table(traces, policy, calendar) for policy in policies]
    return tuple(
        _sweep(tables, list(policies), len(traces), fracs, repetitions, alpha, seed, test)
    )
