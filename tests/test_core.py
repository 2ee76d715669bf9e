import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from openbounded import (
    OPEN,
    ConfigurationError,
    ExperimentCalendar,
    InclusionPolicy,
    PolicyKind,
    TraceTable,
    Weekday,
    bounded,
)
from openbounded.metrics import metric_table
from conftest import make_table


class TestCalendar:
    def test_monday_start_weekends(self, monday14):
        assert [t for t in monday14.days() if monday14.is_weekend(t)] == [6, 7, 13, 14]
        assert (np.flatnonzero(monday14.weekend_mask()) + 1).tolist() == [6, 7, 13, 14]

    def test_day6_monday_start_is_saturday(self, monday14):
        assert monday14.is_weekend(6)
        assert monday14.weekday_of(6) is Weekday.SATURDAY

    def test_day8_monday_start_is_weekday(self, monday14):
        assert not monday14.is_weekend(8)

    def test_saturday_start_day1_is_weekend(self):
        cal = ExperimentCalendar(k=7, start_dow=Weekday.SATURDAY)
        assert cal.is_weekend(1)

    @given(st.sampled_from(list(Weekday)))
    def test_any_week_has_two_weekend_days(self, start):
        cal = ExperimentCalendar(k=7, start_dow=start)
        assert len(cal.weekend_days()) == 2

    @given(st.sampled_from(list(Weekday)), st.integers(min_value=1, max_value=8))
    def test_weekend_count_scales_with_weeks(self, start, weeks):
        cal = ExperimentCalendar(k=7 * weeks, start_dow=start)
        assert len(cal.weekend_days()) == 2 * weeks

    def test_length_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ExperimentCalendar(k=0)

    def test_day_bounds_checked(self, monday14):
        with pytest.raises(ConfigurationError):
            monday14.is_weekend(15)
        with pytest.raises(ConfigurationError):
            monday14.is_weekend(0)


def _first_day(day_values):
    table = make_table([("u1", None, day_values)])
    return int(metric_table(table, OPEN, ExperimentCalendar(14)).first_day[0])


class TestFirstActiveDay:
    def test_min_active_day(self):
        assert _first_day({3: 1.0, 5: 1.0}) == 3

    def test_no_activity(self):
        assert _first_day({}) == 0

    def test_always_active(self):
        assert _first_day({d: 1.0 for d in range(1, 15)}) == 1


def analysed_days(policy, t0, calendar):
    """Days analysed for a user active every day from ``t0``, or None if excluded.

    Each day's value is its index, so the per-user mean over ``[t0, end]``
    is ``(t0 + end) / 2`` and gives the window back exactly.
    """
    days = range(t0, calendar.k + 1)
    table = make_table([("u", None, {t: float(t) for t in days})], k=calendar.k)
    metrics = metric_table(table, policy, calendar)
    if not metrics.included[0]:
        return None
    assert metrics.first_day[0] == t0
    return range(t0, int(2 * metrics.values[0]) - t0 + 1)


class TestInclusionInterval:
    def test_open_spans_to_end(self, monday14):
        assert analysed_days(OPEN, 3, monday14) == range(3, 15)

    def test_bounded_spans_exactly_d_days(self, monday14):
        assert analysed_days(bounded(7), 3, monday14) == range(3, 10)

    def test_bounded_excludes_past_deadline(self, monday14):
        assert analysed_days(bounded(7), 8, monday14) is None
        assert analysed_days(bounded(7), 7, monday14) is not None

    def test_bounded_window_longer_than_experiment(self, monday14):
        with pytest.raises(ConfigurationError):
            analysed_days(bounded(15), 1, monday14)

    def test_open_admits_last_day(self, monday14):
        assert analysed_days(OPEN, 14, monday14) == range(14, 15)

    @given(
        st.integers(min_value=1, max_value=14),
        st.integers(min_value=1, max_value=14),
    )
    def test_bounded_admission_subset_of_open(self, t0, d):
        cal = ExperimentCalendar(k=14)
        open_days = analysed_days(OPEN, t0, cal)
        bounded_days = analysed_days(bounded(d), t0, cal)
        assert open_days is not None
        assert (bounded_days is not None) == (t0 <= cal.k - d)
        if bounded_days is not None:
            assert bounded_days.start == t0
            assert len(bounded_days) == d
            assert bounded_days[-1] <= cal.k
            assert bounded_days.start in open_days

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            InclusionPolicy(PolicyKind.BOUNDED)
        with pytest.raises(ConfigurationError):
            InclusionPolicy(PolicyKind.OPEN, d=7)
        with pytest.raises(ConfigurationError):
            bounded(0)

    def test_admission_deadline(self, monday14):
        assert bounded(7).admission_deadline(monday14) == 7
        assert OPEN.admission_deadline(monday14) == 14


class TestUserTrace:
    """A user's trace is one row of the TraceTable."""

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            TraceTable(("a", "b"), [1, 0], np.zeros((3, 14), bool), np.zeros((3, 14)))
        with pytest.raises(ConfigurationError):
            TraceTable(("a", "b"), [1], np.zeros((2, 14), bool), np.zeros((2, 14)))

    def test_malformed_columns_rejected(self):
        with pytest.raises(ConfigurationError):
            TraceTable(("a",), [1], np.zeros((1, 14), bool), np.zeros((1, 13)))
        with pytest.raises(ConfigurationError):
            TraceTable(("a",), [1], np.zeros(14, bool), np.zeros(14))
        with pytest.raises(ConfigurationError):
            TraceTable(("a",), [2], np.zeros((1, 14), bool), np.zeros((1, 14)))
        with pytest.raises(ConfigurationError):
            TraceTable(("a",), [1], np.zeros((1, 14), bool), np.ones((1, 14)))

    def test_days_start_at_one(self, monday14):
        table = make_table([("u", None, {1: 4.0})])
        assert table.present[0, 0] and table.values[0, 0] == 4.0
        assert metric_table(table, OPEN, monday14).first_day[0] == 1
        with pytest.raises(ConfigurationError):
            metric_table(make_table([("u", None, {1: 4.0})], k=13), OPEN, monday14)

    def test_presence_and_outcome(self):
        table = make_table([("u", "T", {2: 5.0, 9: 7.0})])
        assert len(table) == 1 and table.k == 14
        assert table.present[0, 1] and not table.present[0, 2]
        assert table.values[0, 8] == 7.0 and table.values[0, 2] == 0.0
        with pytest.raises(ValueError):
            table.values[0, 2] = 1.0
