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
# Most cells of one dense matrix: users x days of a trace table, or the
# analytic engine's (k+1) x (k+1) outcome mass. A trace table takes 9 bytes a
# cell (a flag and a value), so this caps one near 0.9 GB; a larger request is
# refused before anything is allocated.
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


def _whole(value: object, what: str) -> int:
    """``value`` as an int: a Python or numpy integer, never a bool or a float."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")
    return int(value)


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
    """Experiment window of ``k`` days whose first day falls on ``start_dow``."""

    k: int
    start_dow: Weekday = Weekday.MONDAY

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _whole(self.k, "experiment length"))
        if self.k < 1:
            raise ConfigurationError(f"experiment length must be >= 1 day, got {self.k}")

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
    """Every user's activity, one row per user and one column per day.

    ``variants`` codes treatment as 1, control as 0 and unassigned as -1.
    ``present[i, t - 1]`` is True when user ``i`` was active on day ``t``,
    and ``values[i, t - 1]`` holds the outcome that day; ``values`` must be
    0.0 wherever ``present`` is False. The arrays are read-only views. The
    checks run one block of rows at a time, so constructing a table adds no
    users x days temporary.
    """

    user_ids: tuple[str, ...]
    variants: np.ndarray
    present: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.user_ids)
        variants = np.asarray(self.variants)
        present = np.asarray(self.present, dtype=bool)
        values = np.asarray(self.values, dtype=float)
        if present.ndim != 2 or present.shape[0] != n or present.shape[1] < 1:
            raise ConfigurationError(
                f"presence mask of shape {present.shape} does not cover {n} users over >= 1 day"
            )
        if values.shape != present.shape:
            raise ConfigurationError(
                f"value matrix of shape {values.shape} does not match presence {present.shape}"
            )
        blocks = row_blocks(n, present.shape[1])
        for block in blocks:
            stray = values[block].astype(bool)
            if np.greater(stray, present[block], out=stray).any():
                raise ConfigurationError("values must be 0.0 on days without activity")
        # Checked before the int8 cast, which would wrap 257 to 1 and cut 1.7 to 1.
        if variants.shape != (n,) or not all(
            np.isin(variants[block], (-1, 0, 1)).all() for block in blocks
        ):
            raise ConfigurationError("variant codes must be one of 1, 0, -1 per user")
        variants = variants.astype(np.int8, copy=False)
        object.__setattr__(self, "user_ids", tuple(self.user_ids))
        for name, array in (("variants", variants), ("present", present), ("values", values)):
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
            and np.array_equal(self.variants, other.variants)
            and np.array_equal(self.present, other.present)
            and np.array_equal(self.values, other.values)
        )

    @property
    def k(self) -> int:
        return self.present.shape[1]

    def require_calendar(self, calendar: ExperimentCalendar) -> None:
        if self.k != calendar.k:
            raise ConfigurationError(
                f"traces span {self.k} days but the experiment window has {calendar.k}"
            )
