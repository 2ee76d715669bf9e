"""Python references for code in ``analytic`` that numpy or a shared sum replaced.

``pattern_census`` walks all 2^k presence masks one at a time with
``int.bit_count`` and a dict of counts. ``analytic._pattern_census`` must
return exactly the same tuple for every calendar, effect-day set, policy and
admission deadline.

``model2_bias`` and ``model2_variance_coeffs`` are the per-cohort Model 2
formulas from before Model 2 became the shared cohort sum with weight 1 and
p = 1: each admitted arrival cohort's weekend share and window length,
summed with ``math.fsum``.

``dense_cohort_moments`` is ``analytic._cohort_moments`` as it was before each
cohort added only the nonzero span of its pmf rows: every cohort adds the
outer product of its two whole rows. The trimmed sum must return exactly the
same tuple.
"""

import math

import numpy as np

from openbounded.analytic import WEEKEND_SHARE
from openbounded.core import ExperimentCalendar, InclusionPolicy


def pattern_census(
    k: int, effect_mask: int, d: int | None, deadline: int
) -> tuple[tuple[tuple[int, int, int, int], ...], tuple[int, ...]]:
    """Group the 2^k presence patterns by (total active, analyzed, effect) counts.

    Returns admitted groups as (total_active, analyzed_days, effect_days,
    pattern_count) plus, indexed by total_active, the count of patterns that
    are active somewhere but not admitted. Day t maps to bit t-1.
    """
    census: dict[tuple[int, int, int], int] = {}
    excluded = [0] * (k + 1)
    full_mask = (1 << k) - 1
    for mask in range(1, full_mask + 1):
        total_active = mask.bit_count()
        t0 = (mask & -mask).bit_length()
        if t0 > deadline:
            excluded[total_active] += 1
            continue
        if d is None:
            window = full_mask
        else:
            window = ((1 << d) - 1) << (t0 - 1)
        analyzed = mask & window
        key = (total_active, analyzed.bit_count(), (analyzed & effect_mask).bit_count())
        census[key] = census.get(key, 0) + 1
    return tuple((*key, count) for key, count in sorted(census.items())), tuple(excluded)


def _model2_cohorts(
    policy: InclusionPolicy, calendar: ExperimentCalendar
) -> tuple[list[float], list[int]]:
    """Weekend share and length of each admitted arrival cohort's window."""
    windows = [
        range(i, policy.last_day(i, calendar) + 1)
        for i in range(1, policy.admission_deadline(calendar) + 1)
    ]
    shares = [sum(1 for t in window if calendar.is_weekend(t)) / len(window) for window in windows]
    return shares, [len(window) for window in windows]


def model2_bias(policy: InclusionPolicy, calendar: ExperimentCalendar) -> float:
    shares, _ = _model2_cohorts(policy, calendar)
    return math.fsum(shares) / len(shares) - WEEKEND_SHARE


def model2_variance_coeffs(
    policy: InclusionPolicy, calendar: ExperimentCalendar, ns: int
) -> tuple[float, float]:
    shares, lengths = _model2_cohorts(policy, calendar)
    n = len(shares)
    mean_share = math.fsum(shares) / n
    eta = 2.0 * math.fsum(1.0 / length for length in lengths) / (n * n * ns)
    zeta = math.fsum((r - mean_share) ** 2 for r in shares) / (n * n * ns)
    return eta, zeta


def dense_cohort_moments(
    policy: InclusionPolicy, calendar: ExperimentCalendar, cohort_weights: tuple[float, ...],
    p: float,
) -> tuple[float, float, float, float]:
    """E[1/n], E[w/n] and Var(w/n) over admitted users, and the admitted mass."""
    k = calendar.k
    pmf = [np.ones(1)]
    for _ in range(1, k):
        pmf.append(np.convolve(pmf[-1], (1.0 - p, p)))
    weekend = calendar.weekend_mask()
    weekends_through = np.concatenate(([0], np.cumsum(weekend)))
    first = np.arange(1, policy.admission_deadline(calendar) + 1)
    last = policy.last_day(first, calendar)
    we_first = weekend[first - 1].astype(int)
    free_we = weekends_through[last] - weekends_through[first]
    free_wd = last - first - free_we
    mass = np.zeros((k + 1, k + 1))
    cohorts = zip(cohort_weights, we_first.tolist(), free_wd.tolist(), free_we.tolist())
    for weight, we0, wd, we in cohorts:
        mass[1 - we0 : 1 - we0 + wd + 1, we0 : we0 + we + 1] += weight * np.outer(pmf[wd], pmf[we])
    weekdays, weekend_days = np.nonzero(mass)
    weights = mass[weekdays, weekend_days]
    n_active = weekdays + weekend_days
    ratio = weekend_days / n_active
    admitted = math.fsum(cohort_weights[: first.size])
    e_inv_n = math.fsum(weights / n_active) / admitted
    e_ratio = math.fsum(weights * ratio) / admitted
    var_ratio = math.fsum(weights * (ratio - e_ratio) ** 2) / admitted
    return e_inv_n, e_ratio, var_ratio, admitted
