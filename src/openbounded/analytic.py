"""Closed-form bias and variance of the two inclusion policies, plus an
exhaustive enumeration oracle that validates every formula in this module.

Two population models are covered. Model 1 is a fixed population with random
daily engagement: every user is exposable from day 1 and is active on each
day independently with probability p. Model 2 is an evolving population with
fixed engagement: a constant number of new users arrives per day per arm and
each is active every day from arrival on. In both, the treatment effect is a
constant tau plus an extra tau_prime on weekend days, and daily outcomes
carry independent Normal(0, sigma^2) noise around a common level c.

The target quantity throughout is the average treatment effect under the
weekly weekend share, tau + (2/7) tau_prime; "bias" means deviation of the
estimator's expectation from that target. 2/7 is the paper's weekly estimand,
so on a window that is not a whole number of weeks even the open policy
shows a Model 1 bias: the window's own calendar offset, (weekend days among
1..k) / k - 2/7, for every p.

Every closed form is an exact sum over first-active-day cohorts and holds
for any window length k, start weekday and bounded observation length d < k.
The policy's ``admission_deadline`` and ``last_day`` give each cohort's
analysed days, so one cohort sum serves both policies in both models. The
models differ only in the data they pass it: Model 1 weighs cohort i by
(1-p)^(i-1) p and activates each later day with probability p; Model 2 weighs
every arrival cohort 1 and activates every day (p = 1). The Model 1 closed
forms hold for any p in (0, 1] whose coefficients are finite.
``enumeration_oracle`` sums over all 2^k presence patterns instead, with its
own bit-mask inclusion rule, and is the independent check for
k <= ``ORACLE_MAX_DAYS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    ConfigurationError,
    ExperimentCalendar,
    InclusionPolicy,
    Weekday,
    require_cells,
)

WEEKEND_SHARE = 2.0 / 7.0
ORACLE_MAX_DAYS = 24
# Masks per numpy step of the pattern census. Each temporary costs 8 bytes a
# mask: 65,536-mask steps raise an `analytic --k 20` run's peak RSS by about
# 6 MB over 8192-mask steps and save little time.
_CENSUS_CHUNK = 8192
# Set bits of every 10-bit number; _popcount adds it up over 10-bit slices.
_POPCOUNT_10 = np.array([i.bit_count() for i in range(1024)], dtype=np.int64)

DEFAULT_CALENDAR = ExperimentCalendar(k=14, start_dow=Weekday.MONDAY)


@dataclass(frozen=True)
class Model1Params:
    """Fixed population, Bernoulli(p) daily activity."""

    p: float
    tau: float = 0.0
    tau_prime: float = 0.0
    sigma: float = 1.0
    c: float = 0.0
    calendar: ExperimentCalendar = DEFAULT_CALENDAR

    def __post_init__(self) -> None:
        if not 0.0 < self.p <= 1.0:
            raise ConfigurationError(f"activity probability must lie in (0, 1], got {self.p}")
        _require_finite_outcome_terms(self)


@dataclass(frozen=True)
class Model2Params:
    """Evolving population: ns arrivals per day per arm, active every day after."""

    ns: int
    tau: float = 0.0
    tau_prime: float = 0.0
    sigma: float = 1.0
    c: float = 0.0
    calendar: ExperimentCalendar = DEFAULT_CALENDAR

    def __post_init__(self) -> None:
        if not (isinstance(self.ns, int) and self.ns >= 1):
            raise ConfigurationError(f"arrival count per day must be an integer >= 1, got {self.ns}")
        _require_finite_outcome_terms(self)


def _require_finite_outcome_terms(params: Model1Params | Model2Params) -> None:
    if not 0.0 <= params.sigma < math.inf:
        raise ConfigurationError(f"sigma must be a finite number >= 0, got {params.sigma}")
    for name in ("tau", "tau_prime", "c"):
        value = getattr(params, name)
        if not math.isfinite(value):
            raise ConfigurationError(f"{name} must be a finite number, got {value}")


@lru_cache(maxsize=256)
def _cohort_moments(
    policy: InclusionPolicy, calendar: ExperimentCalendar, cohort_weights: tuple[float, ...],
    p: float,
) -> tuple[float, float, float, float]:
    """E[1/n], E[w/n] and Var(w/n) over admitted users, and the admitted mass.

    n counts a user's analysed active days and w the weekend days among them.
    Cohort i, first active on day i, weighs ``cohort_weights[i - 1]``; each
    later analysed day is active with probability p, so the cohort adds its
    weight times the outer product of two binomial pmfs over the rest of its
    window to the mass of each (weekdays, weekend days) outcome. Summing the
    cohort weights keeps the admitted mass precise for any p in (0, 1];
    centred terms keep the variance from rounding below zero.
    """
    k = calendar.k
    # Row n is the Binomial(n, p) pmf, built by convolution. spans[n] keeps its
    # terms from the first nonzero one to the last, and where they start: the
    # rest are exact zeros, so leaving them out keeps the sum's bits.
    pmf = [np.ones(1)]
    for _ in range(1, k):
        pmf.append(np.convolve(pmf[-1], (1.0 - p, p)))
    spans = []
    for row in pmf:
        nonzero = np.flatnonzero(row)
        spans.append((nonzero[0], row[nonzero[0] : nonzero[-1] + 1]))
    weekend = calendar.weekend_mask()
    weekends_through = np.concatenate(([0], np.cumsum(weekend)))  # [t]: weekend days in 1..t
    first = np.arange(1, policy.admission_deadline(calendar) + 1)
    last = policy.last_day(first, calendar)
    we_first = weekend[first - 1].astype(int)
    free_we = weekends_through[last] - weekends_through[first]
    free_wd = last - first - free_we
    mass = np.zeros((k + 1, k + 1))  # [active weekdays, active weekend days]
    cohorts = zip(cohort_weights, we_first.tolist(), free_wd.tolist(), free_we.tolist())
    for weight, we0, wd, we in cohorts:
        (i, wd_row), (j, we_row) = spans[wd], spans[we]
        i, j = i + 1 - we0, j + we0
        mass[i : i + wd_row.size, j : j + we_row.size] += weight * np.outer(wd_row, we_row)
    weekdays, weekend_days = np.nonzero(mass)
    weights = mass[weekdays, weekend_days]
    n_active = weekdays + weekend_days
    ratio = weekend_days / n_active
    admitted = math.fsum(cohort_weights[: first.size])
    e_inv_n = math.fsum(weights / n_active) / admitted
    e_ratio = math.fsum(weights * ratio) / admitted
    var_ratio = math.fsum(weights * (ratio - e_ratio) ** 2) / admitted
    return e_inv_n, e_ratio, var_ratio, admitted


def _variance_coeffs(
    moments: tuple[float, float, float, float], scale: int, p: float
) -> tuple[float, float]:
    """(eta, zeta) over ``scale`` users per unit of admitted cohort weight."""
    e_inv_n, _, var_ratio, admitted = moments
    eta = 2.0 * e_inv_n / (scale * admitted)
    zeta = var_ratio / (scale * admitted)
    if not (math.isfinite(eta) and math.isfinite(zeta)):
        raise ConfigurationError(
            f"activity probability p={p} admits so few users that eta or zeta overflows"
        )
    return eta, zeta


def _first_active_weights(p: float, calendar: ExperimentCalendar) -> tuple[float, ...]:
    """Model 1's share of users first active on day i = 1..k: (1-p)^(i-1) p."""
    if not 0.0 < p <= 1.0:
        raise ConfigurationError(f"activity probability must lie in (0, 1], got {p}")
    require_cells(calendar.k + 1, calendar.k + 1, "the outcome mass")
    return tuple((1.0 - p) ** i * p for i in range(calendar.k))


def _arrival_weights(calendar: ExperimentCalendar) -> tuple[float, ...]:
    """Model 2's weight of the cohort arriving on day i = 1..k: 1."""
    require_cells(calendar.k + 1, calendar.k + 1, "the outcome mass")
    return (1.0,) * calendar.k


def model1_bias(
    policy: InclusionPolicy,
    p: float,
    tau_prime: float = 1.0,
    calendar: ExperimentCalendar = DEFAULT_CALENDAR,
) -> float:
    """Expected deviation of the delta estimate from tau + (2/7) tau_prime.

    Open evaluates to the window's calendar offset for every p (given its
    number of active days, an active user's days are a uniform draw from
    the window), which is zero when k is a whole number of weeks. Bounded
    is biased because cohorts admitted late see a window whose weekend days
    compete with fewer remaining weekdays; on a 14-day Monday-start window
    with d=7 the worst case over p underestimates by about 0.068 tau_prime.
    """
    _, e_ratio, _, _ = _cohort_moments(policy, calendar, _first_active_weights(p, calendar), p)
    return (e_ratio - WEEKEND_SHARE) * tau_prime


def model1_variance_coeffs(
    policy: InclusionPolicy,
    p: float,
    calendar: ExperimentCalendar = DEFAULT_CALENDAR,
    *,
    n_per_arm: int = 1,
) -> tuple[float, float]:
    """Coefficients (eta, zeta) with E[Var(delta)] = eta sigma^2 + zeta tau_prime^2.

    In Model 1 users are independent, so this is both the spread of delta
    over repeated experiments and the mean estimated variance, up to the
    gap between E[1/N] and 1/E[N] over the random admitted count N.
    Covers the two-arm design with ``n_per_arm`` users assigned to each arm;
    both coefficients carry the 1 / E[admitted users] scaling, so they halve
    when ``n_per_arm`` doubles. The noise term appears in both arms (hence
    the factor two in eta); the weekend-interaction term only varies in the
    treatment arm. A p so small that a coefficient overflows is refused.
    """
    if n_per_arm < 1:
        raise ConfigurationError(f"n_per_arm must be >= 1, got {n_per_arm}")
    moments = _cohort_moments(policy, calendar, _first_active_weights(p, calendar), p)
    return _variance_coeffs(moments, n_per_arm, p)


def model2_bias(
    policy: InclusionPolicy, calendar: ExperimentCalendar = DEFAULT_CALENDAR
) -> float:
    """Bias of the delta estimate under Model 2, as a coefficient of tau_prime.

    Equal-sized arrival cohorts each contribute their window's weekend
    share. Bounded with a whole-week window is exactly unbiased: every
    admitted user contributes d consecutive fully-active days, 2d/7 of them
    on weekends. Open overweights late arrivals' calendar position; for a
    14-day Monday start the coefficient is about +0.19 and it shrinks as the
    window grows.
    """
    _, e_ratio, _, _ = _cohort_moments(policy, calendar, _arrival_weights(calendar), 1.0)
    return e_ratio - WEEKEND_SHARE


def model2_variance_coeffs(
    policy: InclusionPolicy,
    calendar: ExperimentCalendar = DEFAULT_CALENDAR,
    *,
    ns: int = 1,
) -> tuple[float, float]:
    """(eta, zeta): eta sigma^2 + zeta tau_prime^2 is the expected estimated variance.

    Over n admitted arrival cohorts of ``ns`` users each, eta is twice the
    mean inverse window length over n ns (noise enters both arms) and zeta
    is the spread of the cohorts' weekend shares over n^2 ns: bounded(d) has
    eta = 2 / (d (k - d) ns), and zeta = 0 when d is a whole number of weeks.
    With exactly ``ns`` arrivals a day, as simulated, delta spreads by eta
    sigma^2 alone; zeta is a spread of delta only when arrivals are random.
    """
    if ns < 1:
        raise ConfigurationError(f"arrival count per day must be >= 1, got {ns}")
    moments = _cohort_moments(policy, calendar, _arrival_weights(calendar), 1.0)
    return _variance_coeffs(moments, ns, 1.0)


def toy_even_day_ratio(policy: InclusionPolicy, p: float) -> float:
    """Expected even-day share in a fixed 4-day desk example.

    The configuration: a 4-day experiment where days 2 and 4 carry the extra
    effect, analyzed either open or bounded with a 2-day window, counting a
    user excluded by the bounded rule as contributing zero and averaging
    over everyone with any activity. Open recovers the population share 0.5
    for every p; bounded ranges from 0.25 (p -> 0) up to 0.5 (p = 1).
    """
    if not 0.0 < p <= 1.0:
        raise ConfigurationError(f"activity probability must lie in (0, 1], got {p}")
    if policy.d is None:
        return 0.5
    numerator = (
        0.5 * p**2
        + p * (1.0 - p) ** 2
        + 0.5 * p**2 * (1.0 - p)
        + 0.5 * p**2 * (1.0 - p) ** 2
    )
    return numerator / (1.0 - (1.0 - p) ** 4)


TOY_CALENDAR = ExperimentCalendar(k=4, start_dow=Weekday.MONDAY)
TOY_EFFECT_DAYS = (2, 4)
TOY_POLICY_BOUNDED = InclusionPolicy(d=2)


@dataclass(frozen=True)
class OracleExpectation:
    """Exact expectations from full presence-pattern enumeration.

    ``ratio`` conditions on admission; ``ratio_over_active`` averages over
    every user with any activity, counting the non-admitted as zero (the
    convention of the 4-day desk example). ``inverse_days`` and ``ratio_sq`` are E[1 / analysed days] and
    E[ratio^2] over admitted users, the moments behind the variance terms.
    """

    ratio: float
    ratio_over_active: float
    inverse_days: float
    ratio_sq: float
    admission_probability: float
    activity_probability: float


@lru_cache(maxsize=64)
def _pattern_census(
    k: int, effect_mask: int, d: int | None, deadline: int
) -> tuple[tuple[tuple[int, int, int, int], ...], tuple[int, ...]]:
    """Group the 2^k presence patterns by (total active, analyzed, effect) counts.

    Returns admitted groups as (total_active, analyzed_days, effect_days,
    pattern_count) plus, indexed by total_active, the count of patterns that
    are active somewhere but not admitted. Day t maps to bit t-1. The masks
    are walked in numpy chunks; each (total, analyzed, effect) triple is one
    mixed-radix key, so a chunk's groups are counted with one bincount.
    """
    radix = k + 1
    counts = np.zeros(radix**3, dtype=np.int64)
    excluded = np.zeros(radix, dtype=np.int64)
    for start in range(1, 1 << k, _CENSUS_CHUNK):
        masks = np.arange(start, min(start + _CENSUS_CHUNK, 1 << k), dtype=np.int64)
        total_active = _popcount(masks, k)
        # (m & -m) - 1 sets exactly the bits below the first active day.
        t0 = _popcount((masks & -masks) - 1, k) + 1
        admitted = t0 <= deadline
        excluded += np.bincount(total_active[~admitted], minlength=radix)
        masks, total_active, t0 = masks[admitted], total_active[admitted], t0[admitted]
        if d is not None:
            masks &= ((1 << d) - 1) << (t0 - 1)
        analyzed = _popcount(masks, k)
        key = (total_active * radix + analyzed) * radix + _popcount(masks & effect_mask, k)
        counts += np.bincount(key, minlength=radix**3)
    keys = np.flatnonzero(counts)
    total_and_analyzed, effect = np.divmod(keys, radix)
    total_active, analyzed = np.divmod(total_and_analyzed, radix)
    groups = zip(total_active.tolist(), analyzed.tolist(), effect.tolist(), counts[keys].tolist())
    return tuple(groups), tuple(excluded.tolist())


def _popcount(masks: np.ndarray, k: int) -> np.ndarray:
    """Set bits of each non-negative mask below 2^k."""
    count = _POPCOUNT_10[masks & 1023]
    for shift in range(10, k, 10):
        count += _POPCOUNT_10[(masks >> shift) & 1023]
    return count


def enumeration_oracle(
    calendar: ExperimentCalendar,
    policy: InclusionPolicy,
    p: float,
    effect_days: tuple[int, ...] | None = None,
    *,
    admission_deadline: int | None = None,
) -> OracleExpectation:
    """Brute-force expectations over all 2^k Bernoulli(p) presence patterns.

    Independent of every closed form above: each pattern is weighted by
    p^(active) (1-p)^(inactive), run through the policy's inclusion rule,
    and its effect-day share and its moments accumulated exactly.
    ``effect_days`` defaults to the calendar's weekend days.
    ``admission_deadline`` overrides the policy's last admitted first-active
    day (the desk example admits one cohort later than the default rule).
    """
    k = calendar.k
    if k > ORACLE_MAX_DAYS:
        raise ConfigurationError(
            f"enumeration over 2^{k} patterns refused (k > {ORACLE_MAX_DAYS}); use Monte Carlo"
        )
    if not 0.0 < p <= 1.0:
        raise ConfigurationError(f"activity probability must lie in (0, 1], got {p}")
    policy.validate_for(calendar)
    if effect_days is None:
        effect_days = calendar.weekend_days()
    effect_mask = 0
    for t in effect_days:
        calendar.require_day(t)
        effect_mask |= 1 << (t - 1)
    deadline = policy.admission_deadline(calendar) if admission_deadline is None else admission_deadline
    if policy.d is not None and deadline > k - policy.d + 1:
        raise ConfigurationError(
            f"admission deadline {deadline} would push a {policy.d}-day window past day {k}"
        )
    groups, excluded = _pattern_census(k, effect_mask, policy.d, deadline)

    pow_p = [p**a for a in range(k + 1)]
    pow_q = [(1.0 - p) ** a for a in range(k + 1)]
    admitted_prob = 0.0
    ratio_acc = 0.0
    inverse_acc = 0.0
    ratio_sq_acc = 0.0
    for total_active, analyzed, effect, count in groups:
        weight = count * pow_p[total_active] * pow_q[k - total_active]
        share = effect / analyzed
        admitted_prob += weight
        ratio_acc += weight * share
        inverse_acc += weight / analyzed
        ratio_sq_acc += weight * share * share
    activity_prob = admitted_prob + sum(
        n * pow_p[a] * pow_q[k - a] for a, n in enumerate(excluded) if n
    )
    if admitted_prob <= 0.0:
        raise ConfigurationError("no admissible presence pattern under this configuration")
    return OracleExpectation(
        ratio=ratio_acc / admitted_prob,
        ratio_over_active=ratio_acc / activity_prob,
        inverse_days=inverse_acc / admitted_prob,
        ratio_sq=ratio_sq_acc / admitted_prob,
        admission_probability=admitted_prob,
        activity_probability=activity_prob,
    )
