import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openbounded import (
    OPEN,
    ExperimentCalendar,
    InsufficientDataError,
    Model1Params,
    Seed,
    TestKind,
    Variant,
    bounded,
    delta_estimate,
    group_summary,
    simulate_model1,
    weekend_ratio_gamma,
)
from openbounded.metrics import metric_table
from conftest import make_table, user_rows


def _user_metric(day_values, policy=bounded(7)):
    metrics = metric_table(make_table([("u", None, day_values)]), policy, ExperimentCalendar(14))
    return metrics.values[0]


def _reference_loop(table, policy, calendar):
    """The inclusion rule and double average written out user by user."""
    deadline = policy.admission_deadline(calendar)
    metrics, shares = [], []
    for _, _, day_values in user_rows(table):
        days = sorted(day_values)
        if not days or days[0] > deadline:
            metrics.append(math.nan)
            shares.append(math.nan)
            continue
        end = days[0] + policy.d - 1 if policy.d else calendar.k
        window = [t for t in days if t <= end]
        metrics.append(sum(day_values[t] for t in window) / len(window))
        shares.append(sum(1 for t in window if calendar.is_weekend(t)) / len(window))
    return np.array(metrics), np.array(shares)


class TestUserMetric:
    def test_mean_of_two_values(self):
        assert _user_metric({1: 2.0, 3: 4.0}) == 3.0

    def test_single_active_day(self):
        assert _user_metric({4: 5.0}) == 5.0

    def test_hand_sum(self):
        assert _user_metric({1: 2.0, 6: 4.0, 7: 6.0}) == 4.0

    def test_interval_restricts_days(self):
        assert _user_metric({1: 2.0, 6: 4.0, 10: 100.0}) == 3.0

    def test_user_past_deadline_has_no_metric(self):
        assert math.isnan(_user_metric({10: 1.0}))
        assert _user_metric({10: 1.0}, OPEN) == 1.0

    @pytest.mark.parametrize("policy", [OPEN, bounded(7), bounded(3)])
    def test_matches_reference_loop_bit_for_bit(self, monday14, policy):
        params = Model1Params(p=0.2, tau=1.0, tau_prime=0.5, sigma=65.0, c=100.0)
        table = simulate_model1(params, 500, Seed(8))
        metrics = metric_table(table, policy, monday14)
        values, shares = _reference_loop(table, policy, monday14)
        np.testing.assert_array_equal(metrics.values, values)
        np.testing.assert_array_equal(metrics.weekend_share, shares)
        included = shares[~np.isnan(shares)]
        running = 0.0
        for share in included:
            running += share
        assert weekend_ratio_gamma(table, policy, monday14) == running / included.size


class TestGroupSummary:
    def test_constant_metrics(self, monday14):
        traces = make_table([(f"u{i}", "T", {1: 1.0}) for i in range(3)])
        summary = group_summary(traces, Variant.TREATMENT, OPEN, monday14)
        assert (summary.n, summary.mean, summary.sample_variance) == (3, 1.0, 0.0)

    def test_two_user_variance(self, monday14):
        traces = make_table([("a", "T", {1: 1.0}), ("b", "T", {1: 3.0})])
        summary = group_summary(traces, Variant.TREATMENT, OPEN, monday14)
        assert summary.n == 2 and summary.mean == 2.0 and summary.sample_variance == 2.0

    def test_empty_group_flagged(self, monday14):
        traces = make_table([("a", "T", {1: 1.0})])
        summary = group_summary(traces, Variant.CONTROL, OPEN, monday14)
        assert summary.is_empty and math.isnan(summary.mean)

    def test_single_user_variance_undefined(self, monday14):
        traces = make_table([("a", "T", {1: 1.0})])
        summary = group_summary(traces, Variant.TREATMENT, OPEN, monday14)
        assert summary.n == 1 and math.isnan(summary.sample_variance)

    def test_inactive_users_not_counted(self, monday14):
        traces = make_table([("a", "T", {1: 1.0}), ("ghost", "T", {})])
        assert group_summary(traces, Variant.TREATMENT, OPEN, monday14).n == 1


def _two_group_traces(t_values, c_values, day=1):
    users = [(f"t{i}", "T", {day: v}) for i, v in enumerate(t_values)]
    users += [(f"c{i}", "C", {day: v}) for i, v in enumerate(c_values)]
    return make_table(users)


class TestDeltaEstimate:
    def test_constant_shift_recovered_exactly(self, monday14):
        traces = _two_group_traces([5.5] * 4, [3.0] * 4)
        res = delta_estimate(traces, OPEN, monday14)
        assert res.delta == 2.5 and res.variance == 0.0 and res.p_value == 0.0

    def test_zero_delta_zero_variance(self, monday14):
        traces = _two_group_traces([3.0] * 4, [3.0] * 4)
        res = delta_estimate(traces, OPEN, monday14)
        assert res.delta == 0.0 and res.p_value == 1.0

    def test_label_swap_negates_delta(self, monday14):
        rng = np.random.default_rng(3)
        t_vals, c_vals = rng.normal(1.0, 1.0, 20), rng.normal(0.0, 1.5, 25)
        forward = delta_estimate(_two_group_traces(t_vals, c_vals), OPEN, monday14)
        swapped = delta_estimate(_two_group_traces(c_vals, t_vals), OPEN, monday14)
        assert swapped.delta == -forward.delta
        assert swapped.variance == forward.variance
        assert swapped.p_value == forward.p_value

    def test_insufficient_group_named(self, monday14):
        traces = _two_group_traces([1.0, 2.0], [1.0])
        with pytest.raises(InsufficientDataError, match="control"):
            delta_estimate(traces, OPEN, monday14)
        traces = _two_group_traces([1.0], [1.0, 2.0])
        with pytest.raises(InsufficientDataError, match="treatment"):
            delta_estimate(traces, OPEN, monday14)

    def test_statistic_definition(self, monday14):
        rng = np.random.default_rng(5)
        traces = _two_group_traces(rng.normal(1, 1, 30), rng.normal(0, 1, 30))
        res = delta_estimate(traces, OPEN, monday14)
        assert res.statistic == pytest.approx(res.delta / math.sqrt(res.variance))
        assert 0.0 <= res.p_value <= 1.0

    def test_welch_close_to_z_at_large_n(self, monday14):
        rng = np.random.default_rng(11)
        traces = _two_group_traces(rng.normal(1, 1, 500), rng.normal(0, 1, 500))
        res_z = delta_estimate(traces, OPEN, monday14, TestKind.Z)
        res_w = delta_estimate(traces, OPEN, monday14, TestKind.WELCH)
        assert res_w.statistic == res_z.statistic
        assert res_w.p_value == pytest.approx(res_z.p_value, rel=1e-2)

    @given(st.floats(min_value=-50, max_value=50))
    @settings(max_examples=25, deadline=None)
    def test_shift_invariance(self, shift):
        cal = ExperimentCalendar(14)
        rng = np.random.default_rng(17)
        t_vals, c_vals = rng.normal(1, 1, 12), rng.normal(0, 1, 12)
        base = delta_estimate(_two_group_traces(t_vals, c_vals), OPEN, cal)
        moved = delta_estimate(_two_group_traces(t_vals + shift, c_vals + shift), OPEN, cal)
        assert moved.delta == pytest.approx(base.delta, abs=1e-9)
        assert moved.variance == pytest.approx(base.variance, abs=1e-9)
        assert moved.p_value == pytest.approx(base.p_value, abs=1e-9)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=25, deadline=None)
    def test_scale_equivariance(self, scale):
        cal = ExperimentCalendar(14)
        rng = np.random.default_rng(19)
        t_vals, c_vals = rng.normal(1, 1, 12), rng.normal(0, 1, 12)
        base = delta_estimate(_two_group_traces(t_vals, c_vals), OPEN, cal)
        scaled = delta_estimate(_two_group_traces(t_vals * scale, c_vals * scale), OPEN, cal)
        assert scaled.delta == pytest.approx(scale * base.delta, rel=1e-9)
        assert scaled.variance == pytest.approx(scale**2 * base.variance, rel=1e-9)
        assert scaled.statistic == pytest.approx(base.statistic, rel=1e-9)
        assert scaled.p_value == pytest.approx(base.p_value, abs=1e-12)


class TestWeekendRatioGamma:
    def test_weekday_only_users(self, monday14):
        traces = make_table([(f"u{i}", "T", {1: 1.0, 3: 1.0}) for i in range(4)])
        assert weekend_ratio_gamma(traces, OPEN, monday14) == 0.0

    def test_always_active_users(self, monday14):
        traces = make_table([("u", "C", {d: 1.0 for d in range(1, 15)})])
        assert weekend_ratio_gamma(traces, OPEN, monday14) == pytest.approx(2 / 7)

    def test_bounded_window_changes_ratio(self, monday14):
        # Active every day: a 7-day window from day 1 holds 2 of 7 weekend days.
        traces = make_table([("u", "C", {d: 1.0 for d in range(1, 15)})])
        assert weekend_ratio_gamma(traces, bounded(7), monday14) == pytest.approx(2 / 7)

    def test_no_included_users(self, monday14):
        traces = make_table([("u", "T", {9: 1.0})])
        with pytest.raises(InsufficientDataError):
            weekend_ratio_gamma(traces, bounded(7), monday14)

    @given(st.lists(st.sets(st.integers(1, 14), min_size=1), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_gamma_in_unit_interval(self, day_sets):
        cal = ExperimentCalendar(14)
        traces = make_table(
            [(f"u{i}", "T", {d: 1.0 for d in days}) for i, days in enumerate(day_sets)]
        )
        gamma = weekend_ratio_gamma(traces, OPEN, cal)
        assert 0.0 <= gamma <= 1.0
