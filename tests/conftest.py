import tracemalloc

import numpy as np
import pytest

from openbounded import ExperimentCalendar, TraceTable, Weekday

P_GRID = [round(0.05 * i, 2) for i in range(1, 20)]
VARIANT_CODES = {"T": 1, "C": 0, None: -1}


@pytest.fixture
def monday14():
    return ExperimentCalendar(k=14, start_dow=Weekday.MONDAY)


def from_dense(user_ids, variants, present, values):
    """The trace table of a users x days ``present`` mask and ``values`` matrix.

    ``present[i, t - 1]`` is True when user ``i`` was active on day ``t``, and
    ``values[i, t - 1]`` holds the outcome that day; ``values`` must be 0.0
    wherever ``present`` is False.
    """
    present = np.asarray(present, dtype=bool)
    values = np.asarray(values, dtype=float)
    assert present.shape == values.shape and not values[~present].any()
    starts = np.zeros(len(user_ids) + 1, dtype=np.intp)
    np.cumsum(present.sum(axis=1), out=starts[1:])
    return TraceTable(user_ids, variants, present.shape[1], starts,
                      np.nonzero(present)[1] + 1, values[present])


def dense(table):
    """The users x days presence mask and value matrix of ``table`` (0.0 where absent)."""
    users = np.arange(len(table)).repeat(np.diff(table.starts))
    present = np.zeros((len(table), table.k), dtype=bool)
    values = np.zeros(present.shape)
    present[users, table.days - 1] = True
    values[users, table.days - 1] = table.values
    return present, values


def make_table(users, k=14):
    """Build a trace table from ``(user_id, variant, {day: value})`` tuples;
    variant may be 'T', 'C', or None."""
    present = np.zeros((len(users), k), dtype=bool)
    values = np.zeros((len(users), k))
    for row, (_, _, day_values) in enumerate(users):
        for day, value in day_values.items():
            present[row, day - 1] = True
            values[row, day - 1] = value
    return from_dense(
        user_ids=[user_id for user_id, _, _ in users],
        variants=[VARIANT_CODES[variant] for _, variant, _ in users],
        present=present,
        values=values,
    )


def user_rows(table):
    """The table as ``(user_id, variant, {day: value})`` tuples, the inverse of make_table."""
    variant_of = {code: variant for variant, code in VARIANT_CODES.items()}
    return [
        (
            user_id,
            variant_of[int(code)],
            {int(day) + 1: float(values[day]) for day in np.flatnonzero(present)},
        )
        for user_id, code, present, values in zip(table.user_ids, table.variants, *dense(table))
    ]


def traced_peak(fn):
    """The peak traced memory, in bytes, while ``fn()`` runs.

    numpy reports its array buffers to ``tracemalloc``, so the peak counts
    them; what existed before the call does not count.
    """
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
