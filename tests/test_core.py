import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from openbounded import (
    OPEN,
    ConfigurationError,
    ExperimentCalendar,
    InclusionPolicy,
    TraceTable,
    Weekday,
    bounded,
)
from openbounded.core import BLOCK_CELLS, MAX_DAYS
from openbounded.metrics import metric_table
from conftest import dense, make_table, traced_peak, user_rows


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

    def test_weekend_mask_matches_per_day_rule(self):
        for start in Weekday:
            for k in range(1, 31):
                cal = ExperimentCalendar(k, start)
                per_day = [cal.is_weekend(t) for t in cal.days()]
                assert cal.weekend_mask().dtype == bool
                assert cal.weekend_mask().tolist() == per_day
                assert cal.weekend_days() == tuple(t for t in cal.days() if per_day[t - 1])

    def test_length_must_be_positive(self):
        for k in (0, 14.5, 2.5, True):
            with pytest.raises(ConfigurationError):
                ExperimentCalendar(k=k)
        assert ExperimentCalendar(np.int64(14)) == ExperimentCalendar(14)
        assert type(ExperimentCalendar(np.int64(14)).k) is int

    def test_window_capped_at_max_days(self):
        """A calendar and a table share one cap on the window: 2**15 - 1 days."""
        assert MAX_DAYS == 32767 == ExperimentCalendar(MAX_DAYS).k
        table = TraceTable(("a",), [1], MAX_DAYS, [0, 2], [1, MAX_DAYS], [1.0, 2.0])
        assert table.days.dtype == np.int16 and table.days[-1] == MAX_DAYS
        for k in (MAX_DAYS + 1, 10**9):
            with pytest.raises(ConfigurationError, match=f"window of {k} days .* may hold"):
                ExperimentCalendar(k)
            with pytest.raises(ConfigurationError, match=f"window of {k} days .* may hold"):
                TraceTable(("a",), [1], k, [0, 1], [1], [1.0])

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
        st.integers(min_value=1, max_value=13),
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
        for d in (0, 14.5, 2.5, True):
            with pytest.raises(ConfigurationError):
                bounded(d)
        assert bounded(np.int64(7)) == bounded(7)
        assert type(bounded(np.int64(7)).d) is int

    def test_policy_is_its_d(self):
        assert InclusionPolicy() == OPEN and OPEN.d is None and OPEN.label == "open"
        assert InclusionPolicy(7) == bounded(7) != bounded(5)
        assert bounded(7).label == "bounded"

    def test_admission_deadline(self, monday14):
        assert bounded(7).admission_deadline(monday14) == 7
        assert OPEN.admission_deadline(monday14) == 14

    def test_last_day(self, monday14):
        first_days = np.array([1, 3, 7])
        assert bounded(7).last_day(3, monday14) == 9
        assert bounded(7).last_day(first_days, monday14).tolist() == [7, 9, 13]
        assert OPEN.last_day(3, monday14) == OPEN.last_day(first_days, monday14) == 14


class TestUserTrace:
    """A user's trace is one row of the TraceTable."""

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="variant codes"):
            TraceTable(("a", "b"), [1], 14, [0, 1, 1], [3], [1.0])

    def test_malformed_columns_rejected(self):
        with pytest.raises(ConfigurationError, match="variant codes"):
            TraceTable(("a",), [2], 14, [0, 1], [3], [1.0])
        # Codes an int8 cast would wrap, truncate or fail on.
        for codes in ([257], [-255], [1.7], ["T"], np.array([255], dtype=np.uint8),
                      np.array([257])):
            with pytest.raises(ConfigurationError, match="variant codes"):
                TraceTable(("a",), codes, 14, [0, 1], [3], [1.0])
        # Rows: offsets that are not n + 1, do not start at 0, decrease or miss
        # the last row; days outside 1..k, repeated or out of order within a user.
        for starts, days in (([0, 2], [1, 2]), ([1, 2, 3], [1, 2, 3]), ([0, 3, 2], [1, 2, 3]),
                             ([0, 1, 2], [1, 2, 3]), ([0, 1, 2], [1, 15]), ([0, 1, 2], [0, 1]),
                             ([0, 2, 2], [3, 3]), ([0, 3, 3], [1, 5, 4])):
            with pytest.raises(ConfigurationError):
                TraceTable(("a", "b"), [1, 0], 14, starts, days, np.ones(len(days)))
        with pytest.raises(ConfigurationError):
            TraceTable(("a",), [1], 14, [0, 1], [1.0], [1.0])
        # A user's first day may fall below the previous user's last.
        table = TraceTable(("a", "b"), [1, 0], 14, [0, 2, 3], [3, 9, 1], [1.0, 2.0, 3.0])
        assert table.days.dtype == np.int8 and user_rows(table) == [
            ("a", "T", {3: 1.0, 9: 2.0}), ("b", "C", {1: 3.0})]

    def test_days_start_at_one(self, monday14):
        table = make_table([("u", None, {1: 4.0})])
        present, values = dense(table)
        assert present[0, 0] and values[0, 0] == 4.0
        assert metric_table(table, OPEN, monday14).first_day[0] == 1
        with pytest.raises(ConfigurationError):
            metric_table(make_table([("u", None, {1: 4.0})], k=13), OPEN, monday14)

    def test_presence_and_outcome(self):
        table = make_table([("u", "T", {2: 5.0, 9: 7.0})])
        assert len(table) == 1 and table.k == 14
        present, values = dense(table)
        assert present[0, 1] and not present[0, 2]
        assert values[0, 8] == 7.0 and values[0, 2] == 0.0
        with pytest.raises(ValueError):
            table.values[0] = 1.0


class TestTableCheckBlocks:
    """The table checks one block of rows at a time: a bad day or code is
    found in any block, and no users x days temporary is made."""

    K = 14
    STEP = BLOCK_CELLS // K
    N = 3 * STEP + 7
    ROWS = N * K  # every user active every day

    def _columns(self):
        """``N`` users, each active on every day of ``K``, with variant code 0."""
        n = self.N
        return (tuple(f"u{i}" for i in range(n)), np.zeros(n, np.int8), self.K,
                np.arange(0, (n + 1) * self.K, self.K),
                np.tile(np.arange(1, self.K + 1, dtype=np.int8), n), np.ones(self.ROWS))

    @pytest.mark.parametrize("row", [0, BLOCK_CELLS - 1, BLOCK_CELLS, 2 * BLOCK_CELLS, ROWS - 1],
                             ids=["first", "block-end", "block-start", "third-block", "last"])
    def test_bad_day_found_in_any_block(self, row):
        ids, variants, k, starts, days, values = self._columns()
        TraceTable(ids, variants, k, starts, days, values)
        for day in (0, k + 1):
            bad = days.copy()
            bad[row] = day
            # Either check may see it first: the block before also compares its next row.
            with pytest.raises(ConfigurationError, match="days must"):
                TraceTable(ids, variants, k, starts, bad, values)
        # The row repeats its user's day before it, or after it on a user's first row.
        bad = days.copy()
        bad[row] = days[row + 1] if row % k == 0 else days[row - 1]
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            TraceTable(ids, variants, k, starts, bad, values)

    @pytest.mark.parametrize("row", [0, STEP - 1, STEP, N - 1])
    def test_bad_variant_found_in_any_block(self, row):
        ids, variants, *rows = self._columns()
        variants = variants.astype(np.int64)
        variants[row] = 2
        with pytest.raises(ConfigurationError, match="variant codes"):
            TraceTable(ids, variants, *rows)

    def test_check_makes_no_users_x_days_temporary(self):
        """1e5 users active on all 14 days: the traced peak of the checks is at
        most a few blocks, where one bool a row alone is 1.4 MB."""
        n = 100_000
        columns = (tuple(map(str, range(n))), np.zeros(n, np.int8), self.K,
                   np.arange(0, (n + 1) * self.K, self.K),
                   np.tile(np.arange(1, self.K + 1, dtype=np.int8), n), np.zeros(n * self.K))
        assert traced_peak(lambda: TraceTable(*columns)) <= 4 * BLOCK_CELLS
