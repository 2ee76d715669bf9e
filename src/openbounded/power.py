"""Detection-power and point-estimate curves over user subsample sweeps.

Each repetition draws one uniform rank permutation of the user pool; the
subsample at fraction f is the ceil(f * n) users ranked lowest, so it is
uniform without replacement, and within one repetition every fraction's
subsample lies inside the next one. Points of one repetition are therefore
nested and correlated; repetitions are independent. For each repetition the
delta estimate and its p-value are recorded at every fraction, and power is
the share of repetitions reaching significance. The permutation of
repetition r is a pure function of (seed, r), so curves are reproducible and
policies are compared on identical subsamples. Fraction 1.0 admits a single
subset and is analysed once.

A large sweep splits its repetitions into one contiguous block per core the
process may use, each filled by a forked worker (the caller fills the
first). Since every repetition depends on (seed, r) alone, the output bytes
do not depend on that count: ``taskset -c 0`` gives the same output.
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
from .metrics import (
    MetricTable,
    TestKind,
    _require_finite,
    _two_sided_test,
    delta_from_samples,
    metric_table,
)
from .simulate import Seed

# First index of every subsample stream. ``Seed.generator()`` (the
# simulators' stream) and ``Seed.generator(0)`` are the same stream, so
# repetition r draws from ``generator(_SUBSAMPLE_STREAM, r)`` instead.
_SUBSAMPLE_STREAM = 1
# Most (repetition, fraction, policy) cells a sweep may hold. Each holds six
# floats of subsample moments, so this caps them at 480 MB; a larger request
# is refused before anything is allocated.
MAX_SWEEP_CELLS = 10_000_000
# Fewest users x repetitions for which the sweep forks one worker per usable
# core. The serial sweep costs 53-65 ns per user-repetition and a forked
# worker's round trip 10-30 ms, so below 1e6 (about 0.06 s of serial work)
# the fork would eat most of what it saves.
PARALLEL_MIN_USER_REPS = 1_000_000


@dataclass(frozen=True)
class PowerCurvePoint:
    """One sample fraction: rejection rate, delta percentile band, mean group sizes.

    ``power_se`` is the Monte-Carlo standard error of ``power`` over the
    point's repetitions, ``sqrt(power * (1 - power) / R)``.
    """

    fraction: float
    power: float
    power_se: float
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


def _point(
    fraction: float,
    deltas: np.ndarray,
    p_values: np.ndarray,
    n_treatment: np.ndarray,
    n_control: np.ndarray,
    alpha: float,
) -> PowerCurvePoint:
    """Summarize one fraction's repetitions; a NaN delta marks a degenerate one."""
    repetitions = deltas.size
    valid = ~np.isnan(deltas)
    if valid.any():
        p05, p50, p95 = np.percentile(deltas[valid], [5.0, 50.0, 95.0])
    else:
        p05 = p50 = p95 = math.nan
    power = int((p_values[valid] < alpha).sum()) / repetitions
    return PowerCurvePoint(
        fraction=fraction,
        power=power,
        power_se=math.sqrt(power * (1.0 - power) / repetitions),
        est_p05=float(p05),
        est_p50=float(p50),
        est_p95=float(p95),
        n_effective_treatment=float(np.mean(n_treatment)),
        n_effective_control=float(np.mean(n_control)),
        degenerate_repetitions=int(repetitions - valid.sum()),
    )


def _full_sample_point(table: MetricTable, alpha: float, test: TestKind) -> PowerCurvePoint:
    treatment, control = table.arm_values(1), table.arm_values(0)
    try:
        result = delta_from_samples(treatment, control, test)
        delta, p_value = result.delta, result.p_value
    except InsufficientDataError:
        delta = p_value = math.nan
    return _point(
        1.0, np.array([delta]), np.array([p_value]),
        np.array([treatment.size]), np.array([control.size]), alpha,
    )


def _rank_buckets(n_users: int, fractions: Sequence[float]) -> np.ndarray:
    """Bucket of each rank: the index of the smallest fraction whose subsample holds it.

    Ranks beyond the largest subsample get ``len(fractions)``.
    """
    sizes = [math.ceil(f * n_users) for f in fractions]
    return np.searchsorted(sizes, np.arange(n_users), side="right")


def _repetition_buckets(seed: Seed, repetition: int, rank_buckets: np.ndarray) -> np.ndarray:
    """Each user's bucket in one repetition.

    Shuffling the rank->bucket map gives each user the bucket of a uniform
    random rank, so the users in buckets ``0..j`` are fraction j's subsample.
    """
    return seed.generator(_SUBSAMPLE_STREAM, repetition).permutation(rank_buckets)


def _arm_members(table: MetricTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row index, arm (0 control, 1 treatment) and metric of every included assigned user."""
    users = np.flatnonzero(table.included & (table.variants >= 0))
    return users, table.variants[users].astype(np.intp), table.values[users]


def _repetition_moments(
    members: tuple[np.ndarray, np.ndarray, np.ndarray], buckets: np.ndarray, n_fractions: int
) -> np.ndarray:
    """Count, mean and centred M2 per (bucket, arm), stacked to ``(3, n_fractions, 2)``.

    M2 is the sum of squared deviations from the bucket's own mean. Users
    beyond the largest subsample fall in bucket ``n_fractions`` and are dropped.
    """
    users, arms, values = members
    keys = 2 * buckets[users] + arms
    n_keys = 2 * (n_fractions + 1)
    count = np.bincount(keys, minlength=n_keys)
    mean = np.divide(
        np.bincount(keys, weights=values, minlength=n_keys), count,
        out=np.zeros(n_keys), where=count > 0,
    )
    deviation = values - mean[keys]
    m2 = np.bincount(keys, weights=deviation * deviation, minlength=n_keys)
    return np.stack((count, mean, m2)).reshape(3, -1, 2)[:, :n_fractions]


def _merge_cumulative(
    count: np.ndarray, mean: np.ndarray, m2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pool buckets ``0..j`` along axis 1, for every j.

    Uses the pairwise update of Chan, Golub and LeVeque (1983) on centred
    moments, so no raw sum of squares is formed. The last product is ordered
    so that an empty side contributes exactly zero.
    """
    n_acc, mean_acc, m2_acc = count.astype(float), mean.copy(), m2.copy()
    for j in range(1, count.shape[1]):
        n_a, n_b = n_acc[:, j - 1], n_acc[:, j]
        n = n_a + n_b
        d = mean[:, j] - mean_acc[:, j - 1]
        share = np.divide(n_b, n, out=np.zeros_like(n), where=n > 0)
        n_acc[:, j] = n
        mean_acc[:, j] = mean_acc[:, j - 1] + d * share
        m2_acc[:, j] = m2_acc[:, j - 1] + m2[:, j] + d * share * n_a * d
    return n_acc, mean_acc, m2_acc


def _subsample_tests(
    moments: np.ndarray, test: TestKind
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group sizes, delta, variance and p-value at every (repetition, fraction).

    ``moments`` stacks each repetition's ``_repetition_moments`` to shape
    ``(repetitions, 3, fractions, 2)``; its last axis, like that of the
    returned group sizes, is (control, treatment). The rules are those of
    ``delta_from_samples``: a subsample leaving an arm below two users is
    degenerate (NaN delta, variance and p-value), and a delta or variance
    that overflows is a data error.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        n, mu, m2 = _merge_cumulative(*np.moveaxis(moments, 1, 0))
        n_c, n_t = n[..., 0], n[..., 1]
        ok = (n_t >= 2) & (n_c >= 2)
        vt = np.where(ok, m2[..., 1] / (n_t - 1), np.nan)
        vc = np.where(ok, m2[..., 0] / (n_c - 1), np.nan)
        deltas = np.where(ok, mu[..., 1] - mu[..., 0], np.nan)
        variances = vt / n_t + vc / n_c
    _require_finite(deltas[ok], variances[ok])
    p_values = np.full(ok.shape, np.nan)
    columns = [a.tolist() for a in (deltas, variances, vt, n_t, vc, n_c)]
    for r, j in np.argwhere(ok).tolist():
        delta, variance, v_t, size_t, v_c, size_c = (c[r][j] for c in columns)
        p_values[r, j] = _two_sided_test(
            delta, variance, v_t, int(size_t), v_c, int(size_c), test
        )[1]
    return n, deltas, variances, p_values


def _sweep_moments(
    moments: np.ndarray,
    seed: Seed,
    rank_buckets: np.ndarray,
    members: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
    start: int,
    stop: int,
) -> np.ndarray:
    """Fill and return ``moments[:, start:stop]``, every policy's moments at
    repetitions ``start..stop-1``."""
    n_fractions = moments.shape[3]
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(start, stop):
            buckets = _repetition_buckets(seed, r, rank_buckets)
            for i, member in enumerate(members):
                moments[i, r] = _repetition_moments(member, buckets, n_fractions)
    return moments[:, start:stop]


def _parallel_sweep(moments: np.ndarray, workers: int, *inputs) -> None:
    """``_sweep_moments`` over every repetition, one contiguous block per forked worker.

    The blocks are joined in repetition order; ``parallel.run_blocks`` says
    who fills which block and what happens when a worker fails.
    """
    from .parallel import run_blocks

    repetitions = moments.shape[1]
    bounds = [repetitions * w // workers for w in range(workers + 1)]
    blocks = [(moments, *inputs, start, stop) for start, stop in zip(bounds, bounds[1:])]
    for (*_, start, stop), block in zip(blocks, run_blocks(_sweep_moments, blocks)):
        moments[:, start:stop] = block


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
    return compare_policies(
        traces, calendar, fractions, repetitions, alpha, seed, test, policies=(policy,)
    )[0]


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
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"significance level must lie in (0, 1), got {alpha}")
    if not policies:
        raise ConfigurationError("at least one policy is required")
    cells = repetitions * len(fracs) * len(policies)
    if cells > MAX_SWEEP_CELLS:
        raise ConfigurationError(
            f"{repetitions} repetitions x {len(fracs)} fractions x {len(policies)} policies "
            f"make {cells} sweep cells, more than the {MAX_SWEEP_CELLS} a sweep may hold"
        )
    tables = [metric_table(traces, policy, calendar) for policy in policies]
    subsampled = [f for f in fracs if f < 1.0]
    members = [_arm_members(table) for table in tables]
    moments = np.empty((len(tables), repetitions, 3, len(subsampled), 2))
    if subsampled:
        inputs = (seed, _rank_buckets(len(traces), subsampled), members)
        workers = 1
        if len(traces) * repetitions >= PARALLEL_MIN_USER_REPS:
            from . import parallel  # only a sweep worth splitting loads the fork machinery

            workers = min(parallel.usable_cores(), repetitions)
        if workers > 1:
            _parallel_sweep(moments, workers, *inputs)
        else:
            _sweep_moments(moments, *inputs, 0, repetitions)
    curves = []
    for table, policy, policy_moments in zip(tables, policies, moments):
        n, deltas, _, p_values = _subsample_tests(policy_moments, test)
        points = [
            _point(f, deltas[:, j], p_values[:, j], n[:, j, 1], n[:, j, 0], alpha)
            for j, f in enumerate(subsampled)
        ]
        if fracs[-1] == 1.0:
            points.append(_full_sample_point(table, alpha, test))
        curves.append(
            PowerCurve(policy=policy, points=tuple(points), repetitions=repetitions, alpha=alpha)
        )
    return tuple(curves)
