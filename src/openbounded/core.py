"""Experiment calendar, inclusion policies, and the columnar trace table.

Day indices are 1-based integers in ``1..k``. All types are immutable after
construction and all operations are pure functions, so everything here is
safe to share across threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

DayIndex = int
# Most days of one experiment window: a day fits an int16, and a log row's
# (user, day) key stays far inside an int64.
MAX_DAYS = 2**15 - 1
# Most cells of one drawn or dense matrix: the users x days a simulator draws,
# or the analytic engine's (k+1) x (k+1) outcome mass. A larger request is
# refused before anything is allocated. A trace table has no such cap: it
# holds only its rows.
MAX_TRACE_CELLS = 100_000_000
# Cells of one block: a pass that needs a temporary as large as its input
# (the table check, the simulators, the log build's first-variant pass) makes
# it one block of rows at a time, so its extra memory does not grow with the input.
BLOCK_CELLS = 65_536


class ExperimentError(Exception):
    """Base class for errors raised by this package."""


class ConfigurationError(ExperimentError):
    """A parameter combination that can never describe a valid run."""


class DataFormatError(ExperimentError):
    """Input data that cannot be parsed or fails validation."""


class InsufficientDataError(ExperimentError):
    """Valid input that is too small for the requested computation."""


def require_cells(rows: int, columns: int, what: str) -> None:
    if rows * columns > MAX_TRACE_CELLS:
        raise ConfigurationError(
            f"{what} of {rows} x {columns} cells is larger than the "
            f"{MAX_TRACE_CELLS} cells one matrix may hold"
        )


def row_blocks(rows: int, columns: int, cells: int = BLOCK_CELLS) -> list[slice]:
    """Consecutive slices of about ``cells`` cells covering ``rows`` rows."""
    step = max(1, cells // columns)
    return [slice(start, start + step) for start in range(0, rows, step)]


def user_blocks(starts: np.ndarray, rows: int) -> list[slice]:
    """Consecutive slices of users covering every user, cut at user
    boundaries, each holding fewer than ``rows`` rows plus one user's rows.
    ``starts`` are the users' row offsets."""
    n = starts.size - 1
    cuts = [0, *starts.searchsorted(np.arange(rows, starts[-1], rows)).tolist(), n]
    return [slice(start, stop) for start, stop in zip(cuts, cuts[1:]) if start < stop]


def block_rows(starts: np.ndarray, users: slice) -> tuple[np.ndarray, np.ndarray]:
    """The row offsets of a slice of users (one more than its users), and the
    user of each of its rows, counted from the slice's first user."""
    offsets = starts[users.start:users.stop + 1]
    return offsets, np.arange(offsets.size - 1).repeat(offsets[1:] - offsets[:-1])


def day_dtype(k: int) -> type:
    """The narrowest integer type that holds the days ``1..k``."""
    return np.int8 if k < 2**7 else np.int16


def _whole(value: object, what: str) -> int:
    """``value`` as an int: a Python or numpy integer, never a bool or a float."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _window_days(value: object) -> int:
    """``value`` as the length of an experiment window: an integer in ``1..MAX_DAYS``."""
    k = _whole(value, "experiment length")
    if k < 1:
        raise ConfigurationError(f"experiment length must be >= 1 day, got {k}")
    if k > MAX_DAYS:
        raise ConfigurationError(
            f"an experiment window of {k} days is longer than the {MAX_DAYS} days "
            "one window may hold"
        )
    return k


class Weekday(enum.IntEnum):
    MONDAY = 0
    TUESDAY = 1
    WEDNESDAY = 2
    THURSDAY = 3
    FRIDAY = 4
    SATURDAY = 5
    SUNDAY = 6

    @classmethod
    def parse(cls, name: str) -> "Weekday":
        key = name.strip().upper()
        for member in cls:
            if member.name == key or member.name[:3] == key:
                return member
        raise ConfigurationError(f"unknown weekday: {name!r}")


@dataclass(frozen=True)
class ExperimentCalendar:
    """Experiment window of ``k`` days, at most ``MAX_DAYS``, whose first day
    falls on ``start_dow``."""

    k: int
    start_dow: Weekday = Weekday.MONDAY

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _window_days(self.k))

    def weekday_of(self, t: DayIndex) -> Weekday:
        self.require_day(t)
        return Weekday((self.start_dow + t - 1) % 7)

    def is_weekend(self, t: DayIndex) -> bool:
        return self.weekday_of(t) in (Weekday.SATURDAY, Weekday.SUNDAY)

    def weekend_days(self) -> tuple[DayIndex, ...]:
        return tuple((np.flatnonzero(self.weekend_mask()) + 1).tolist())

    def weekend_mask(self) -> np.ndarray:
        """Bool array over days ``1..k``: True on Saturdays and Sundays."""
        return (self.start_dow + np.arange(self.k)) % 7 >= Weekday.SATURDAY

    def days(self) -> range:
        return range(1, self.k + 1)

    def require_day(self, t: DayIndex) -> None:
        if not 1 <= t <= self.k:
            raise ConfigurationError(f"day {t} outside experiment window 1..{self.k}")


@dataclass(frozen=True)
class InclusionPolicy:
    """Which user-days enter the analysis: the observation length ``d``.

    ``d=None`` is open: every active user is included from their first
    active day through day ``k``. An int ``d >= 1`` is bounded(d): only users
    first active on or before the admission deadline ``k - d`` are included,
    each observed for exactly ``d`` days from first activity.
    ``admission_deadline`` and ``last_day`` are the one home of that rule:
    the metric kernel and every closed form read them.
    """

    d: int | None = None

    def __post_init__(self) -> None:
        if self.d is not None:
            object.__setattr__(self, "d", _whole(self.d, "observation length d"))
            if self.d < 1:
                raise ConfigurationError("bounded policy requires an observation length d >= 1")

    @property
    def label(self) -> str:
        return "open" if self.d is None else "bounded"

    def validate_for(self, calendar: ExperimentCalendar) -> None:
        """Refuse a bounded(d) that admits no first-active day: d must be below k."""
        if self.d is not None and self.d >= calendar.k:
            raise ConfigurationError(
                f"observation length d={self.d} admits no user: it must be below "
                f"the experiment length k={calendar.k}"
            )

    def admission_deadline(self, calendar: ExperimentCalendar) -> DayIndex:
        """Last first-active day admitted: ``k - d`` for bounded, ``k`` for open."""
        self.validate_for(calendar)
        if self.d is None:
            return calendar.k
        return calendar.k - self.d

    def last_day(
        self, first_day: DayIndex | np.ndarray, calendar: ExperimentCalendar
    ) -> DayIndex | np.ndarray:
        """Last analysed day of users first active on ``first_day`` (an int or int array)."""
        if self.d is None:
            return calendar.k
        return first_day + self.d - 1


OPEN = InclusionPolicy()


def bounded(d: int) -> InclusionPolicy:
    return InclusionPolicy(d)


@dataclass(frozen=True, eq=False)
class TraceTable:
    """Every user's active days, as rows in (user, day) order.

    ``variants`` codes treatment as 1, control as 0 and unassigned as -1.
    User ``i``'s rows are ``starts[i]:starts[i + 1]``: ``days`` holds each
    row's day in ``1..k``, strictly increasing within a user, and ``values``
    the outcome that day. A user with no row was never active, and ``k`` is
    at most ``MAX_DAYS``. ``days`` is int8 where it holds ``k``, else int16.
    The arrays are read-only views. The checks run one block of rows at a
    time, so constructing a table adds no temporary as large as its rows, and
    its memory grows with its rows alone, never with users x days.
    """

    user_ids: tuple[str, ...]
    variants: np.ndarray
    k: int
    starts: np.ndarray
    days: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.user_ids)
        k = _window_days(self.k)
        variants = np.asarray(self.variants)
        starts = np.asarray(self.starts)
        days = np.asarray(self.days)
        values = np.asarray(self.values, dtype=float)
        if starts.shape != (n + 1,) or starts.dtype.kind not in "iu":
            raise ConfigurationError(
                f"row offsets of shape {starts.shape} are not {n + 1} integers for {n} users"
            )
        if values.ndim != 1 or days.shape != values.shape or days.dtype.kind not in "iu":
            raise ConfigurationError(
                f"days of shape {days.shape} and values of shape {values.shape} "
                "are not one integer day and one value a row"
            )
        if starts[0] != 0 or starts[-1] != values.size:
            raise ConfigurationError(
                f"row offsets run from {starts[0]} to {starts[-1]}, not 0 to {values.size}"
            )
        for block in row_blocks(n, 1):
            stop = min(block.stop, n)
            if (starts[block.start + 1:stop + 1] < starts[block.start:stop]).any():
                raise ConfigurationError("row offsets must not decrease")
        for block in row_blocks(values.size, 1):
            if days[block].min() < 1 or days[block].max() > k:
                raise ConfigurationError(f"days must lie in 1..{k}")
            # A user's days ascend; a row that starts a user may fall below the one before.
            first = np.zeros(min(block.stop + 1, values.size) - block.start, dtype=bool)
            lo, hi = starts.searchsorted((block.start, block.start + first.size))
            first[starts[lo:hi] - block.start] = True
            if not (first[1:] | (days[block.start + 1:block.start + first.size]
                                 > days[block.start:block.start + first.size - 1])).all():
                raise ConfigurationError("a user's days must be strictly increasing")
        # Checked before the int8 cast, which would wrap 257 to 1 and cut 1.7 to 1.
        if variants.shape != (n,) or not all(
            # isin makes a few intp temporaries a code, hence the smaller blocks.
            np.isin(variants[block], (-1, 0, 1)).all() for block in row_blocks(n, 8)
        ):
            raise ConfigurationError("variant codes must be one of 1, 0, -1 per user")
        object.__setattr__(self, "user_ids", tuple(self.user_ids))
        object.__setattr__(self, "k", k)
        for name, array in (("variants", variants.astype(np.int8, copy=False)),
                            ("starts", starts.astype(np.intp, copy=False)),
                            ("days", days.astype(day_dtype(k), copy=False)),
                            ("values", values)):
            view = array.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def __len__(self) -> int:
        return len(self.user_ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceTable):
            return NotImplemented
        return (
            self.user_ids == other.user_ids
            and self.k == other.k
            and np.array_equal(self.variants, other.variants)
            and np.array_equal(self.starts, other.starts)
            and np.array_equal(self.days, other.days)
            and np.array_equal(self.values, other.values)
        )

    def require_calendar(self, calendar: ExperimentCalendar) -> None:
        if self.k != calendar.k:
            raise ConfigurationError(
                f"traces span {self.k} days but the experiment window has {calendar.k}"
            )
