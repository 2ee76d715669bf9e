import tracemalloc

import numpy as np
import pytest

from openbounded import ExperimentCalendar, TraceTable, Weekday

P_GRID = [round(0.05 * i, 2) for i in range(1, 20)]
VARIANT_CODES = {"T": 1, "C": 0, None: -1}


@pytest.fixture
def monday14():
    return ExperimentCalendar(k=14, start_dow=Weekday.MONDAY)


def make_table(users, k=14):
    """Build a trace table from ``(user_id, variant, {day: value})`` tuples;
    variant may be 'T', 'C', or None."""
    present = np.zeros((len(users), k), dtype=bool)
    values = np.zeros((len(users), k))
    for row, (_, _, day_values) in enumerate(users):
        for day, value in day_values.items():
            present[row, day - 1] = True
            values[row, day - 1] = value
    return TraceTable.from_dense(
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
        for user_id, code, present, values in zip(table.user_ids, table.variants, *table.dense())
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
