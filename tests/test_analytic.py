from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openbounded import (
    OPEN,
    ConfigurationError,
    ExperimentCalendar,
    Model2Params,
    Seed,
    Weekday,
    bounded,
    delta_estimate,
    enumeration_oracle,
    model1_bias,
    model1_variance_coeffs,
    model2_bias,
    model2_variance_coeffs,
    simulate_model1,
    simulate_model2,
    toy_even_day_ratio,
)
from openbounded.analytic import (
    ORACLE_MAX_DAYS,
    TOY_CALENDAR,
    TOY_EFFECT_DAYS,
    TOY_POLICY_BOUNDED,
    Model1Params,
    WEEKEND_SHARE,
    _cohort_moments,
    _first_active_weights,
    _pattern_census,
)
from openbounded.metrics import delta_from_samples, metric_table
import analytic_reference
from analytic_reference import pattern_census
from conftest import P_GRID

BOUNDED7 = bounded(7)


class TestCohortSize:
    """First-active-day cohorts hold N (1-p)^(i-1) p users, the weight of every
    Model 1 closed form; the oracle's mass first active by day i counts them."""

    @staticmethod
    def first_active_by(day, p, n_total=1000):
        oracle = enumeration_oracle(ExperimentCalendar(14), OPEN, p, admission_deadline=day)
        return n_total * oracle.admission_probability

    def test_first_day(self):
        assert self.first_active_by(1, 0.5) == pytest.approx(500.0, rel=1e-12)

    def test_geometric_decay(self):
        second = self.first_active_by(2, 0.5) - self.first_active_by(1, 0.5)
        assert second == pytest.approx(250.0, rel=1e-12)

    @pytest.mark.parametrize("p", [0.1, 0.35, 0.8])
    def test_admitted_total_over_one_week(self, p):
        total = self.first_active_by(7, p)
        assert total == pytest.approx(1000 * (1 - (1 - p) ** 7), rel=1e-12)


class TestModel1Bias:
    def test_open_unbiased_on_grid(self):
        for p in P_GRID:
            assert abs(model1_bias(OPEN, p)) <= 1e-9

    def test_bounded_underestimates_everywhere(self):
        for p in P_GRID:
            assert model1_bias(BOUNDED7, p) < 0.0

    def test_worst_case_magnitude(self):
        worst = max(abs(model1_bias(BOUNDED7, p)) for p in P_GRID)
        assert worst == pytest.approx(0.064, abs=0.005)

    def test_bias_vanishes_with_certain_activity(self):
        assert model1_bias(BOUNDED7, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert abs(model1_bias(BOUNDED7, 0.99)) < 0.001

    def test_linear_in_weekend_effect(self):
        for p in (0.2, 0.6):
            one = model1_bias(BOUNDED7, p, tau_prime=1.0)
            two = model1_bias(BOUNDED7, p, tau_prime=2.0)
            assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_any_calendar_matches_oracle(self):
        cases = [
            (OPEN, ExperimentCalendar(10)),
            (bounded(6), ExperimentCalendar(14)),
            (BOUNDED7, ExperimentCalendar(14, Weekday.TUESDAY)),
        ]
        for policy, cal in cases:
            oracle = enumeration_oracle(cal, policy, 0.5)
            assert model1_bias(policy, 0.5, calendar=cal) == pytest.approx(
                oracle.ratio - WEEKEND_SHARE, abs=1e-12
            )

    def test_open_bias_is_calendar_offset(self):
        # Days 1..10 from a Monday hold one weekend: share 2/10, not 2/7.
        for p in (0.1, 0.5, 1.0):
            bias = model1_bias(OPEN, p, calendar=ExperimentCalendar(10))
            assert bias == pytest.approx(0.2 - WEEKEND_SHARE, abs=1e-12)

    def test_window_must_admit_a_cohort(self):
        for d in (14, 20):
            with pytest.raises(ConfigurationError):
                model1_bias(bounded(d), 0.5)
            with pytest.raises(ConfigurationError):
                model1_variance_coeffs(bounded(d), 0.5)

    def test_p_out_of_range(self):
        with pytest.raises(ConfigurationError):
            model1_bias(OPEN, 0.0)
        with pytest.raises(ConfigurationError):
            model1_bias(OPEN, 1.5)


class TestModel1VarianceCoeffs:
    def test_noise_coefficient_ordering(self):
        for p in P_GRID:
            eta_o, _ = model1_variance_coeffs(OPEN, p)
            eta_b, _ = model1_variance_coeffs(BOUNDED7, p)
            assert eta_o < eta_b

    def test_weekend_coefficient_ordering(self):
        for p in P_GRID:
            _, zeta_o = model1_variance_coeffs(OPEN, p)
            _, zeta_b = model1_variance_coeffs(BOUNDED7, p)
            assert zeta_b >= zeta_o

    def test_total_variance_open_smaller(self):
        for p in P_GRID:
            eta_o, zeta_o = model1_variance_coeffs(OPEN, p)
            eta_b, zeta_b = model1_variance_coeffs(BOUNDED7, p)
            for ratio in (0.0, 0.1, 0.5, 1.0):
                assert eta_b + zeta_b * ratio**2 > eta_o + zeta_o * ratio**2

    def test_weekend_coefficient_never_negative(self):
        for k in range(2, 15):
            for start in Weekday:
                cal = ExperimentCalendar(k, start)
                for policy in [OPEN] + [bounded(d) for d in range(1, k)]:
                    for p in (1.0, 0.999, 0.9, 0.5, 0.2, 0.1, 0.001, 1e-6, 1e-15):
                        _, zeta = model1_variance_coeffs(policy, p, cal)
                        assert zeta >= 0.0, (k, start, policy, p)

    def test_scales_inversely_with_arm_size(self):
        eta1, zeta1 = model1_variance_coeffs(BOUNDED7, 0.4, n_per_arm=1)
        eta2, zeta2 = model1_variance_coeffs(BOUNDED7, 0.4, n_per_arm=2)
        assert eta2 == pytest.approx(eta1 / 2, rel=1e-12)
        assert zeta2 == pytest.approx(zeta1 / 2, rel=1e-12)

    def test_report_decomposition(self):
        # eta sigma^2 + zeta tau'^2 against the oracle's moments over 100 users per arm.
        params = Model1Params(p=0.3, tau_prime=0.5, sigma=2.0)
        eta, zeta = model1_variance_coeffs(BOUNDED7, params.p, n_per_arm=100)
        oracle = enumeration_oracle(params.calendar, BOUNDED7, params.p)
        users = 100 * oracle.admission_probability
        variance = (
            2.0 * oracle.inverse_days * params.sigma**2
            + (oracle.ratio_sq - oracle.ratio**2) * params.tau_prime**2
        ) / users
        assert variance == pytest.approx(
            eta * params.sigma**2 + zeta * params.tau_prime**2, rel=1e-12
        )

    def test_monte_carlo_spread_and_estimated_variance(self, monday14):
        # Fixed before the first run: 600 seeds 3000..3599, 200 users per arm,
        # and a tolerance of 3 standard errors. The SE of the sample variance
        # of delta comes from the sample's own fourth central moment.
        reps, n_per_arm, tolerance = 600, 200, 3.0
        params = Model1Params(p=0.3, tau_prime=2.0, sigma=1.0)
        policies = (OPEN, BOUNDED7)
        deltas, variances = np.empty((2, reps)), np.empty((2, reps))
        for r in range(reps):
            traces = simulate_model1(params, n_per_arm, Seed(3000 + r))
            for i, policy in enumerate(policies):
                table = metric_table(traces, policy, monday14)
                result = delta_from_samples(table.arm_values(1), table.arm_values(0))
                deltas[i, r], variances[i, r] = result.delta, result.variance
        for policy, delta, variance in zip(policies, deltas, variances):
            eta, zeta = model1_variance_coeffs(policy, params.p, monday14, n_per_arm=n_per_arm)
            expected = eta * params.sigma**2 + zeta * params.tau_prime**2
            spread = delta.var(ddof=1)
            m4 = np.mean((delta - delta.mean()) ** 4)
            spread_se = np.sqrt((m4 - spread**2 * (reps - 3) / (reps - 1)) / reps)
            estimated, estimated_se = variance.mean(), variance.std(ddof=1) / np.sqrt(reps)
            print(
                f"\n{policy.label} seeds 3000..{3000 + reps - 1}: eta s^2 + zeta t'^2 = "
                f"{expected:.5f}; Var(delta) {spread:.5f} (SE {spread_se:.5f}); "
                f"mean estimated variance {estimated:.5f} (SE {estimated_se:.5f})"
            )
            assert abs(spread - expected) <= tolerance * spread_se
            assert abs(estimated - expected) <= tolerance * estimated_se


class TestModel2:
    def test_bounded_week_window_unbiased(self):
        assert model2_bias(BOUNDED7) == 0.0

    def test_open_overestimate_14_days(self):
        assert model2_bias(OPEN) == pytest.approx(0.19, abs=0.005)

    def test_open_bias_shrinks_with_longer_window(self):
        b14 = model2_bias(OPEN, ExperimentCalendar(14))
        b28 = model2_bias(OPEN, ExperimentCalendar(28))
        b56 = model2_bias(OPEN, ExperimentCalendar(56))
        assert b28 == pytest.approx(0.11, abs=0.01)
        assert b14 > b28 > b56 > 0.0

    def test_cohort_share_sum(self, monday14):
        # The 14 arrival cohorts' weekend shares sum to about 6.7.
        total = (model2_bias(OPEN, monday14) + WEEKEND_SHARE) * 14
        assert round(total, 1) == 6.7

    def test_any_window_matches_noiseless_simulation(self):
        # With sigma=0 and tau'=1 each treatment user's metric is its window's
        # weekend share and every control metric is 0, so the estimate's bias
        # and sample variance are exact.
        cases = [
            (14, Weekday.THURSDAY, bounded(5)),
            (28, Weekday.MONDAY, bounded(10)),
            (17, Weekday.SATURDAY, bounded(3)),
            (20, Weekday.SUNDAY, bounded(7)),
            (14, Weekday.THURSDAY, OPEN),
        ]
        for k, start, policy in cases:
            cal = ExperimentCalendar(k, start)
            params = Model2Params(ns=1, tau_prime=1.0, sigma=0.0, calendar=cal)
            res = delta_estimate(simulate_model2(params, Seed(0)), policy, cal)
            n = res.n_treatment
            assert model2_bias(policy, cal) == pytest.approx(res.delta - WEEKEND_SHARE, abs=1e-12)
            _, zeta = model2_variance_coeffs(policy, cal)
            assert zeta == pytest.approx(res.variance * (n - 1) / n, abs=1e-12)

    @pytest.mark.parametrize("policy", [OPEN, bounded(5)], ids=["open", "bounded5"])
    def test_zeta_is_the_estimated_variance_not_a_spread(self, monday14, policy):
        # Each arm gets exactly ns arrivals a day, so without noise the cohort
        # mix, and so delta, is the same for every seed. Zeta is the weekend
        # term of the variance the test estimates, not a spread of delta.
        ns, tau_prime = 50, 2.0
        _, zeta = model2_variance_coeffs(policy, monday14, ns=ns)
        params = Model2Params(ns=ns, tau_prime=tau_prime, sigma=0.0, calendar=monday14)
        results = [
            delta_estimate(simulate_model2(params, Seed(seed)), policy, monday14)
            for seed in range(4)
        ]
        assert zeta > 0.0 and len({res.delta for res in results}) == 1
        for res in results:
            n = res.n_treatment
            assert res.variance == pytest.approx(zeta * tau_prime**2 * n / (n - 1), rel=1e-12)

    def test_bounded_window_must_admit_a_cohort(self, monday14):
        for d in (14, 20):
            with pytest.raises(ConfigurationError):
                model2_bias(bounded(d), monday14)
            with pytest.raises(ConfigurationError):
                model2_variance_coeffs(bounded(d), monday14)

    def test_variance_constants_match_tabulated(self):
        eta_b, zeta_b = model2_variance_coeffs(BOUNDED7, ns=1)
        assert eta_b == pytest.approx(0.041, abs=0.0005)
        assert zeta_b == 0.0
        eta_o, zeta_o = model2_variance_coeffs(OPEN, ns=1)
        assert eta_o == pytest.approx(0.033, abs=0.0005)
        assert zeta_o == pytest.approx(0.004, abs=0.0005)

    def test_variance_scales_with_arrival_rate(self):
        eta1, zeta1 = model2_variance_coeffs(OPEN, ns=1)
        eta5, zeta5 = model2_variance_coeffs(OPEN, ns=5)
        assert eta5 == pytest.approx(eta1 / 5) and zeta5 == pytest.approx(zeta1 / 5)

    def test_deterministic_outcomes_have_zero_variance(self):
        for policy in (OPEN, BOUNDED7):
            params = Model2Params(ns=10, sigma=0.0, tau_prime=0.0)
            eta, zeta = model2_variance_coeffs(policy, params.calendar, ns=params.ns)
            assert eta * params.sigma**2 + zeta * params.tau_prime**2 == 0.0

    def test_report_decomposition(self):
        # Against one noiseless run: its sample variance is the weekend term,
        # and each user's analysed days give the noise term, sigma^2 / days per
        # user mean in both arms.
        params = Model2Params(ns=50, tau_prime=2.0, sigma=1.5)
        traces = simulate_model2(replace(params, sigma=0.0), Seed(0))
        res = delta_estimate(traces, OPEN, params.calendar)
        n = res.n_treatment
        days = traces.dense()[0][traces.variants == 1].sum(axis=1)
        noise = 2.0 * np.mean(1.0 / days) / n * params.sigma**2
        eta, zeta = model2_variance_coeffs(OPEN, params.calendar, ns=params.ns)
        assert noise + res.variance * (n - 1) / n == pytest.approx(
            eta * params.sigma**2 + zeta * params.tau_prime**2, rel=1e-12
        )
        assert res.delta - WEEKEND_SHARE * 2.0 == pytest.approx(
            model2_bias(OPEN) * 2.0, rel=1e-12
        )


@st.composite
def model2_cases(draw):
    """(calendar, policy, ns): any window up to 60 days, open or any d < k."""
    k = draw(st.integers(min_value=1, max_value=60))
    calendar = ExperimentCalendar(k, draw(st.sampled_from(list(Weekday))))
    d = draw(st.none() | st.integers(min_value=1, max_value=k - 1)) if k > 1 else None
    return calendar, OPEN if d is None else bounded(d), draw(st.integers(1, 100))


class TestModel2Reference:
    """Model 2 as the shared cohort sum (weight 1 per arrival cohort, p = 1)
    agrees with the per-cohort share formulas in ``analytic_reference``."""

    @given(model2_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_cohort_formulas(self, case):
        calendar, policy, ns = case
        assert model2_bias(policy, calendar) == pytest.approx(
            analytic_reference.model2_bias(policy, calendar), rel=0, abs=1e-15
        )
        coeffs = model2_variance_coeffs(policy, calendar, ns=ns)
        expected = analytic_reference.model2_variance_coeffs(policy, calendar, ns)
        assert coeffs == pytest.approx(expected, rel=1e-15, abs=0)


class TestCohortMomentsReference:
    """Adding only each pmf row's nonzero span keeps the bits of the dense sum."""

    @given(
        model2_cases(),
        st.one_of(st.sampled_from([None, 1.0, 1e-200, 1e-300]), st.floats(1e-6, 1.0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_sum(self, case, p):
        calendar, policy, _ = case
        if p is None:  # Model 2
            weights, p = (1.0,) * calendar.k, 1.0
        else:
            weights = _first_active_weights(p, calendar)
        assert _cohort_moments(policy, calendar, weights, p) == \
            analytic_reference.dense_cohort_moments(policy, calendar, weights, p)


class TestToyEvenDayRatio:
    def test_open_always_half(self):
        for p in (0.01, 0.3, 0.77, 1.0):
            assert toy_even_day_ratio(OPEN, p) == 0.5

    def test_bounded_limits(self):
        assert toy_even_day_ratio(TOY_POLICY_BOUNDED, 1e-9) == pytest.approx(0.25, abs=1e-6)
        assert toy_even_day_ratio(TOY_POLICY_BOUNDED, 1.0) == 0.5

    def test_bounded_matches_enumeration(self):
        for p in (0.05, 0.25, 0.5, 0.8, 0.95):
            oracle = enumeration_oracle(
                TOY_CALENDAR,
                TOY_POLICY_BOUNDED,
                p,
                TOY_EFFECT_DAYS,
                admission_deadline=3,
            )
            assert oracle.ratio_over_active == pytest.approx(
                toy_even_day_ratio(TOY_POLICY_BOUNDED, p), abs=1e-12
            )

    def test_open_matches_enumeration(self):
        for p in (0.1, 0.5, 0.9):
            oracle = enumeration_oracle(TOY_CALENDAR, OPEN, p, TOY_EFFECT_DAYS)
            assert oracle.ratio == pytest.approx(0.5, abs=1e-12)


class TestEnumerationOracle:
    def test_refuses_large_windows(self):
        with pytest.raises(ConfigurationError):
            enumeration_oracle(ExperimentCalendar(ORACLE_MAX_DAYS + 1), OPEN, 0.5)

    def test_open_weekend_share_exact(self, monday14):
        for p in (0.05, 0.4, 0.95):
            oracle = enumeration_oracle(monday14, OPEN, p)
            assert oracle.ratio == pytest.approx(WEEKEND_SHARE, abs=1e-12)

    def test_matches_bounded_closed_form_on_grid(self, monday14):
        for p in P_GRID:
            oracle = enumeration_oracle(monday14, BOUNDED7, p)
            closed = model1_bias(BOUNDED7, p) + WEEKEND_SHARE
            assert oracle.ratio == pytest.approx(closed, abs=1e-9)

    def test_admission_probability(self, monday14):
        oracle = enumeration_oracle(monday14, BOUNDED7, 0.3)
        assert oracle.admission_probability == pytest.approx(1 - 0.7**7, abs=1e-12)
        assert oracle.activity_probability == pytest.approx(1 - 0.7**14, abs=1e-12)

    def test_deadline_cannot_overflow_window(self, monday14):
        with pytest.raises(ConfigurationError):
            enumeration_oracle(monday14, BOUNDED7, 0.5, admission_deadline=9)

    @given(st.floats(min_value=0.02, max_value=0.98))
    @settings(max_examples=20, deadline=None)
    def test_closed_form_agrees_for_random_p(self, p):
        cal = ExperimentCalendar(14)
        oracle = enumeration_oracle(cal, BOUNDED7, p)
        assert oracle.ratio - WEEKEND_SHARE == pytest.approx(
            model1_bias(BOUNDED7, p, calendar=cal), abs=1e-9
        )

    @given(
        st.integers(min_value=2, max_value=12).flatmap(
            lambda k: st.tuples(
                st.just(k),
                st.sampled_from(list(Weekday)),
                st.integers(min_value=1, max_value=k - 1),
                st.booleans(),
                # Log-uniform over [1e-12, 1]: a small p admits a small mass.
                st.floats(min_value=-12.0, max_value=0.0).map(lambda e: 10.0**e),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_closed_forms_match_oracle_on_random_calendars(self, case):
        k, start, d, is_open, p = case
        cal = ExperimentCalendar(k, start)
        policy = OPEN if is_open else bounded(d)
        oracle = enumeration_oracle(cal, policy, p)
        assert model1_bias(policy, p, calendar=cal) == pytest.approx(
            oracle.ratio - WEEKEND_SHARE, abs=1e-12
        )
        eta, zeta = model1_variance_coeffs(policy, p, calendar=cal)
        admitted = oracle.admission_probability
        # Both coefficients grow like 1 / admitted: eta is compared relatively
        # and zeta on its 1 / admitted scale.
        assert eta == pytest.approx(2.0 * oracle.inverse_days / admitted, rel=1e-12)
        assert zeta * admitted == pytest.approx(oracle.ratio_sq - oracle.ratio**2, abs=1e-12)

    @given(st.floats(min_value=0.02, max_value=0.98))
    @settings(max_examples=20, deadline=None)
    def test_toy_formula_agrees_for_random_p(self, p):
        oracle = enumeration_oracle(
            TOY_CALENDAR, TOY_POLICY_BOUNDED, p, TOY_EFFECT_DAYS, admission_deadline=3
        )
        assert oracle.ratio_over_active == pytest.approx(
            toy_even_day_ratio(TOY_POLICY_BOUNDED, p), abs=1e-12
        )


@st.composite
def census_cases(draw):
    """(k, effect_mask, d, deadline) for any legal census: open, or
    bounded(d) with d < k, and every deadline up to the last one whose
    window still fits, so the admission_deadline override is covered too."""
    k = draw(st.integers(min_value=1, max_value=12))
    effect_mask = draw(st.integers(min_value=0, max_value=(1 << k) - 1))
    d = draw(st.none() | st.integers(min_value=1, max_value=k - 1)) if k > 1 else None
    if d is None:
        return k, effect_mask, None, draw(st.integers(0, k))
    return k, effect_mask, d, draw(st.integers(0, k - d + 1))


class TestPatternCensus:
    """The chunked numpy census returns exactly the tuple of the per-mask
    Python census in ``analytic_reference``, so every oracle value keeps its bits."""

    @given(census_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, case):
        assert _pattern_census(*case) == pattern_census(*case)

    @pytest.mark.parametrize("d, deadline", [(None, 20), (7, 13)], ids=["open", "bounded7"])
    def test_matches_reference_over_twenty_days(self, d, deadline):
        effect_mask = sum(1 << (t - 1) for t in ExperimentCalendar(20).weekend_days())
        case = (20, effect_mask, d, deadline)
        assert _pattern_census(*case) == pattern_census(*case)

    def test_chunk_boundaries(self, monkeypatch):
        # 1023 masks in chunks of 7 leave a one-mask last chunk.
        monkeypatch.setattr("openbounded.analytic._CENSUS_CHUNK", 7)
        _pattern_census.cache_clear()
        try:
            for case in [(10, 0b1100000110, None, 10), (10, 0b1100000110, 3, 8)]:
                assert _pattern_census(*case) == pattern_census(*case)
        finally:
            _pattern_census.cache_clear()
