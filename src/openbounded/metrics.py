"""Double-average metric, delta estimation, and the two-sample significance test.

The metric is a mean of means: each included user's outcomes are averaged
over their active days inside the inclusion interval, and the group value is
the average of those per-user means. A user first active on day t0 is
admitted when ``t0 <= policy.admission_deadline(calendar)`` and analysed
over ``[t0, policy.last_day(t0, calendar)]``: ``[t0, k]`` under open,
``[t0, t0 + d - 1]`` under bounded(d) with deadline ``k - d``.
``metric_table`` applies that rule to every user of a ``TraceTable`` at once;
everything is deterministic for a fixed user order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigurationError,
    DataFormatError,
    ExperimentCalendar,
    InclusionPolicy,
    InsufficientDataError,
    TraceTable,
    block_rows,
    user_blocks,
)

# Rows per block of ``metric_table``: few enough that a block's temporaries
# stay small and in cache, enough that the loop's Python overhead stays small.
BLOCK_ROWS = 8192


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


@dataclass(frozen=True)
class AnalysisResult:
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

    def arm_values(self, code: int) -> np.ndarray:
        """Metric values of the included users of one arm (1 treatment, 0 control)."""
        return self.values[(self.variants == code) & self.included]

    def gamma(self) -> float:
        """Mean weekend share over included users; see ``weekend_ratio_gamma``."""
        shares = self.weekend_share[self.included]
        if shares.size == 0:
            raise InsufficientDataError("no users admitted under the policy")
        # A running sum in user order, not numpy's pairwise sum.
        return float(np.cumsum(shares)[-1]) / shares.size


def metric_table(
    traces: TraceTable, policy: InclusionPolicy, calendar: ExperimentCalendar
) -> MetricTable:
    """Apply the inclusion rule to every user and compute per-user metrics.

    The rows are walked in blocks of about ``BLOCK_ROWS``, cut at user
    boundaries. A user's first row gives their first active day; each sum is
    one ``np.bincount`` a block, which adds a user's rows in day order, so
    each total carries the same bits as a running sum over the user's active
    days. The temporaries are one block long.
    """
    traces.require_calendar(calendar)
    deadline = policy.admission_deadline(calendar)
    n = len(traces)
    starts, days, daily = traces.starts, traces.days, traces.values
    weekend = np.concatenate(([False], calendar.weekend_mask()))  # indexed by day
    # A user's first row gives their first active day; 0 for a user never active.
    first_day = np.zeros(n, dtype=np.intp)
    active = starts[1:] > starts[:-1]
    first_day[active] = days[starts[:-1][active]]
    del active
    included = first_day <= deadline
    included &= first_day > 0
    # An excluded user's window ends before day 1, so no day of theirs is analysed.
    last_day = np.where(included, policy.last_day(first_day, calendar), 0)
    total = np.zeros(n)
    active_days = np.zeros(n, dtype=np.int32)  # k <= MAX_TRACE_CELLS < 2**31
    weekend_days = np.zeros(n, dtype=np.int32)
    for users in user_blocks(starts, BLOCK_ROWS):
        offsets, row_user = block_rows(starts, users)
        lo, hi, size = offsets[0], offsets[-1], offsets.size - 1
        block_days = days[lo:hi]
        analysed = block_days <= last_day[users].take(row_user)
        total[users] = np.bincount(row_user, np.where(analysed, daily[lo:hi], 0.0), size)
        active_days[users] = np.bincount(row_user, analysed, size)
        analysed &= weekend.take(block_days)
        weekend_days[users] = np.bincount(row_user, analysed, size)
    del last_day
    overflowed = np.flatnonzero(~np.isfinite(total))
    if overflowed.size:
        raise DataFormatError(
            f"user {traces.user_ids[overflowed[0]]}: analysed values sum to a non-finite value"
        )
    # An included user has at least their first day analysed; others are NaN.
    values = total  # divided in place
    np.divide(total, active_days, out=values, where=included)
    np.copyto(values, np.nan, where=~included)
    weekend_share = np.full(n, np.nan)
    np.divide(weekend_days, active_days, out=weekend_share, where=included)
    return MetricTable(
        variants=traces.variants,
        first_day=first_day,
        included=included,
        values=values,
        weekend_share=weekend_share,
    )


def group_summary(
    traces: TraceTable,
    arm: int,
    policy: InclusionPolicy,
    calendar: ExperimentCalendar,
) -> GroupSummary:
    """Summarize the per-user metric of one arm (1 treatment, 0 control) under one policy.

    The arm code is the one ``TraceTable.variants`` and ``MetricTable.arm_values`` use.
    """
    if arm not in (0, 1):
        raise ConfigurationError(f"arm must be 1 (treatment) or 0 (control), got {arm!r}")
    values = metric_table(traces, policy, calendar).arm_values(arm)
    n = int(values.size)
    mean = float(values.mean()) if n else math.nan
    var = float(values.var(ddof=1)) if n >= 2 else math.nan
    return GroupSummary(n=n, mean=mean, sample_variance=var)


def delta_from_samples(
    treatment: np.ndarray,
    control: np.ndarray,
    test: TestKind = TestKind.Z,
) -> AnalysisResult:
    """Difference in means with the unpooled (per-arm) variance estimate."""
    n_t, n_c = int(treatment.size), int(control.size)
    if n_t < 2:
        raise InsufficientDataError(f"treatment group has {n_t} included users; need >= 2")
    if n_c < 2:
        raise InsufficientDataError(f"control group has {n_c} included users; need >= 2")
    exponent = _scale_exponent(treatment, control)
    if exponent:  # scaled copies only where the data are far from unit scale
        treatment, control = np.ldexp(treatment, -exponent), np.ldexp(control, -exponent)
    with np.errstate(over="ignore", invalid="ignore"):
        arms = [(x.size, x.mean(), x.var(ddof=1)) for x in (treatment, control)]
    delta, variance, statistic, p_value = map(
        float, _two_sample_tests(*arms[0], *arms[1], test, exponent)
    )
    return AnalysisResult(
        delta=delta,
        variance=variance,
        n_treatment=n_t,
        n_control=n_c,
        statistic=statistic,
        p_value=p_value,
    )


def _scale_exponent(*samples: np.ndarray) -> int:
    """The e by which ``samples`` are divided, as ``2**e``, before any moment is formed.

    0 where the largest |value| lies in [2^-100, 2^100]. Otherwise the binary
    exponent of that value, which brings it below 1, so that no square of a
    scaled value overflows or turns subnormal and the moments keep every
    digit. Dividing by a power of two is exact, so a statistic and p-value
    are those of the raw values.
    """
    largest = max(max(-x.min(initial=0.0), x.max(initial=0.0)) for x in samples)
    if largest == 0.0 or 2.0**-100 <= largest <= 2.0**100:
        return 0
    return math.frexp(largest)[1]


def _two_sample_tests(n_t, mean_t, var_t, n_c, mean_c, var_c, test: TestKind,
                      exponent: int = 0) -> tuple:
    """Delta, variance, statistic and two-sided p-value of every cell, from per-arm moments.

    Takes each arm's user count, mean and unbiased variance as arrays that
    broadcast together, of values divided by ``2**exponent``. The delta is
    scaled back by ``2**exponent`` and the variance by ``4**exponent``. A cell
    with an arm below two users is NaN throughout, and a zero variance gives
    statistic 0 or +-inf and p-value 1 or 0.
    """
    with np.errstate(all="ignore"):
        ok = (n_t >= 2) & (n_c >= 2)
        a, b = var_t / n_t, var_c / n_c
        delta = np.where(ok, mean_t - mean_c, np.nan)
        variance = np.where(ok, a + b, np.nan)
        flat = variance == 0.0
        statistic = np.where(flat & (delta == 0.0), 0.0, delta / np.sqrt(variance))
        if test is TestKind.Z:  # math.erfc keeps scipy's import cost off the default test
            p_value = np.vectorize(math.erfc, otypes=[float])(np.abs(statistic) / math.sqrt(2.0))
        else:
            from scipy.special import stdtr

            p_value = 2.0 * stdtr(_welch_df(a, b, variance, n_t, n_c), -np.abs(statistic))
        p_value = np.clip(np.where(flat, delta == 0.0, p_value), 0.0, 1.0)
        delta, variance = np.ldexp(delta, exponent), np.ldexp(variance, 2 * exponent)
    if not np.isfinite((delta[ok], variance[ok])).all():
        raise DataFormatError("per-user metrics too large: the delta or its variance overflows")
    return delta, variance, statistic, p_value


def _welch_df(a, b, variance, n_t, n_c):
    """Welch-Satterthwaite df of ``variance = a + b``, squared by libm ``pow`` as ``**`` is.

    Where the squares overflow or underflow, the same df comes from
    ``a / variance`` and ``b / variance``, which lie in [0, 1].
    """

    def terms(scale):
        return (np.float_power(a / scale, 2.0) / (n_t - 1)
                + np.float_power(b / scale, 2.0) / (n_c - 1))

    df = np.float_power(variance, 2.0) / terms(1.0)
    return np.where(np.isfinite(df), df, 1.0 / terms(variance))


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
    return delta_from_samples(table.arm_values(1), table.arm_values(0), test)


def weekend_ratio_gamma(
    traces: TraceTable, policy: InclusionPolicy, calendar: ExperimentCalendar
) -> float:
    """Mean over included users of weekend active days / all active days.

    A weekend-only additive effect of size x shifts the expected estimate by
    gamma * x, so this is the scale factor that converts a weekend effect
    into an average effect over the analyzed sample.
    """
    return metric_table(traces, policy, calendar).gamma()
