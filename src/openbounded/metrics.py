"""Double-average metric, delta estimation, and the two-sample significance test.

The metric is a mean of means: each included user's outcomes are averaged
over their active days inside the inclusion interval, and the group value is
the average of those per-user means. A user first active on day t0 is
analysed over ``[t0, k]`` under open; under bounded(d) the user is admitted
only if ``t0 <= k - d`` and is analysed over ``[t0, t0 + d - 1]``.
``metric_table`` applies that rule to every user of a ``TraceTable`` at once;
everything is deterministic for a fixed user order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ExperimentCalendar,
    InclusionPolicy,
    InsufficientDataError,
    PolicyKind,
    TraceTable,
    Variant,
)


class TestKind(enum.Enum):
    __test__ = False

    Z = "z"
    WELCH = "welch"


@dataclass(frozen=True)
class GroupSummary:
    """Per-arm summary: user count, mean metric, unbiased sample variance.

    ``mean`` is NaN when the group is empty and ``sample_variance`` is NaN
    below two users.
    """

    n: int
    mean: float
    sample_variance: float

    @property
    def is_empty(self) -> bool:
        return self.n == 0


@dataclass(frozen=True)
class AnalysisResult:
    policy: InclusionPolicy
    delta: float
    variance: float
    n_treatment: int
    n_control: int
    statistic: float
    p_value: float


@dataclass(frozen=True)
class MetricTable:
    """Per-user analysis inputs aligned with the trace table's row order.

    ``variants`` codes treatment as 1, control as 0, unassigned as -1.
    ``first_day`` is the first active day (0 for a user never active).
    ``included`` marks users admitted by the policy; ``values`` holds their
    per-user metric and ``weekend_share`` the share of their analysed active
    days that fall on a weekend (both NaN where not included).
    """

    variants: np.ndarray
    first_day: np.ndarray
    included: np.ndarray
    values: np.ndarray
    weekend_share: np.ndarray


def metric_table(
    traces: TraceTable, policy: InclusionPolicy, calendar: ExperimentCalendar
) -> MetricTable:
    """Apply the inclusion rule to every user and compute per-user metrics."""
    policy.validate_for(calendar)
    traces.require_calendar(calendar)
    present = traces.present
    active = present.any(axis=1)
    first_day = np.where(active, present.argmax(axis=1) + 1, 0)
    included = active & (first_day <= policy.admission_deadline(calendar))
    window = present & included[:, None]
    if policy.kind is PolicyKind.BOUNDED:
        window &= np.arange(1, calendar.k + 1) <= (first_day + policy.d - 1)[:, None]
    # Summed day by day from the left, so each user's total carries the
    # same bits as a plain running sum over their active days.
    total = np.zeros(len(traces))
    for day in range(calendar.k):
        total += np.where(window[:, day], traces.values[:, day], 0.0)
    active_days = window.sum(axis=1)
    weekend_days = (window & calendar.weekend_mask()).sum(axis=1)
    values = np.full(len(traces), np.nan)
    weekend_share = np.full(len(traces), np.nan)
    values[included] = total[included] / active_days[included]
    weekend_share[included] = weekend_days[included] / active_days[included]
    return MetricTable(
        variants=traces.variants,
        first_day=first_day,
        included=included,
        values=values,
        weekend_share=weekend_share,
    )


def group_summary(
    traces: TraceTable,
    variant: Variant,
    policy: InclusionPolicy,
    calendar: ExperimentCalendar,
) -> GroupSummary:
    """Summarize the per-user metric for one arm under one inclusion policy."""
    table = metric_table(traces, policy, calendar)
    code = 1 if variant is Variant.TREATMENT else 0
    vals = table.values[(table.variants == code) & table.included]
    return summarize_values(vals)


def summarize_values(values: np.ndarray) -> GroupSummary:
    n = int(values.size)
    if n == 0:
        return GroupSummary(n=0, mean=math.nan, sample_variance=math.nan)
    mean = float(values.mean())
    var = float(values.var(ddof=1)) if n >= 2 else math.nan
    return GroupSummary(n=n, mean=mean, sample_variance=var)


def delta_from_samples(
    treatment: np.ndarray,
    control: np.ndarray,
    policy: InclusionPolicy,
    test: TestKind = TestKind.Z,
) -> AnalysisResult:
    """Difference in means with the unpooled (per-arm) variance estimate."""
    n_t, n_c = int(treatment.size), int(control.size)
    if n_t < 2:
        raise InsufficientDataError(f"treatment group has {n_t} included users; need >= 2")
    if n_c < 2:
        raise InsufficientDataError(f"control group has {n_c} included users; need >= 2")
    delta = float(treatment.mean() - control.mean())
    vt = float(treatment.var(ddof=1))
    vc = float(control.var(ddof=1))
    variance = vt / n_t + vc / n_c
    statistic, p_value = _two_sided_test(delta, variance, vt, n_t, vc, n_c, test)
    return AnalysisResult(
        policy=policy,
        delta=delta,
        variance=variance,
        n_treatment=n_t,
        n_control=n_c,
        statistic=statistic,
        p_value=p_value,
    )


def _two_sided_test(
    delta: float, variance: float, vt: float, n_t: int, vc: float, n_c: int, test: TestKind
) -> tuple[float, float]:
    if variance <= 0.0:
        # Deterministic outcomes: any nonzero difference is certain.
        if delta == 0.0:
            return 0.0, 1.0
        return math.copysign(math.inf, delta), 0.0
    statistic = delta / math.sqrt(variance)
    if test is TestKind.Z:
        p_value = math.erfc(abs(statistic) / math.sqrt(2.0))
    else:
        from scipy import stats

        df = variance**2 / ((vt / n_t) ** 2 / (n_t - 1) + (vc / n_c) ** 2 / (n_c - 1))
        p_value = 2.0 * float(stats.t.sf(abs(statistic), df))
    return statistic, min(max(p_value, 0.0), 1.0)


def delta_estimate(
    traces: TraceTable,
    policy: InclusionPolicy,
    calendar: ExperimentCalendar,
    test: TestKind = TestKind.Z,
) -> AnalysisResult:
    """Estimate the treatment effect under one inclusion policy.

    Returns the treatment-minus-control difference of the per-user metric
    means, its estimated variance ``S_T^2/N_T + S_C^2/N_C``, and a two-sided
    p-value (normal approximation by default, Welch t on request).
    """
    table = metric_table(traces, policy, calendar)
    treatment = table.values[(table.variants == 1) & table.included]
    control = table.values[(table.variants == 0) & table.included]
    return delta_from_samples(treatment, control, policy, test)


def weekend_ratio_gamma(
    traces: TraceTable, policy: InclusionPolicy, calendar: ExperimentCalendar
) -> float:
    """Mean over included users of weekend active days / all active days.

    A weekend-only additive effect of size x shifts the expected estimate by
    gamma * x, so this is the scale factor that converts a weekend effect
    into an average effect over the analyzed sample.
    """
    table = metric_table(traces, policy, calendar)
    shares = table.weekend_share[table.included]
    if shares.size == 0:
        raise InsufficientDataError("no users admitted under the policy")
    # A running sum in user order, not numpy's pairwise sum.
    return float(np.cumsum(shares)[-1]) / shares.size
