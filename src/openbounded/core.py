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


class ExperimentError(Exception):
    """Base class for errors raised by this package."""


class ConfigurationError(ExperimentError):
    """A parameter combination that can never describe a valid run."""


class DataFormatError(ExperimentError):
    """Input data that cannot be parsed or fails validation."""


class InsufficientDataError(ExperimentError):
    """Valid input that is too small for the requested computation."""


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


class Variant(enum.Enum):
    TREATMENT = "T"
    CONTROL = "C"


@dataclass(frozen=True)
class ExperimentCalendar:
    """Experiment window of ``k`` days whose first day falls on ``start_dow``."""

    k: int
    start_dow: Weekday = Weekday.MONDAY

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError(f"experiment length must be >= 1 day, got {self.k}")

    def weekday_of(self, t: DayIndex) -> Weekday:
        self.require_day(t)
        return Weekday((self.start_dow + t - 1) % 7)

    def is_weekend(self, t: DayIndex) -> bool:
        return self.weekday_of(t) in (Weekday.SATURDAY, Weekday.SUNDAY)

    def weekend_days(self) -> tuple[DayIndex, ...]:
        return tuple(t for t in self.days() if self.is_weekend(t))

    def weekend_mask(self) -> np.ndarray:
        """Bool array over days ``1..k``: True on Saturdays and Sundays."""
        return np.array([self.is_weekend(t) for t in self.days()], dtype=bool)

    def days(self) -> range:
        return range(1, self.k + 1)

    def require_day(self, t: DayIndex) -> None:
        if not 1 <= t <= self.k:
            raise ConfigurationError(f"day {t} outside experiment window 1..{self.k}")


class PolicyKind(enum.Enum):
    OPEN = "open"
    BOUNDED = "bounded"


@dataclass(frozen=True)
class InclusionPolicy:
    """Which user-days enter the analysis.

    Open includes every active user from their first active day through day
    ``k``. Bounded(d) includes only users first active on or before the
    admission deadline ``k - d``, each observed for exactly ``d`` days from
    first activity.
    """

    kind: PolicyKind
    d: int | None = None

    def __post_init__(self) -> None:
        if self.kind is PolicyKind.BOUNDED:
            if self.d is None or self.d < 1:
                raise ConfigurationError("bounded policy requires an observation length d >= 1")
        elif self.d is not None:
            raise ConfigurationError("open policy takes no observation length")

    @property
    def label(self) -> str:
        return self.kind.value

    def validate_for(self, calendar: ExperimentCalendar) -> None:
        if self.kind is PolicyKind.BOUNDED and self.d > calendar.k:
            raise ConfigurationError(
                f"observation length d={self.d} exceeds experiment length k={calendar.k}"
            )

    def admission_deadline(self, calendar: ExperimentCalendar) -> DayIndex:
        """Last first-active day admitted: ``k - d`` for bounded, ``k`` for open."""
        self.validate_for(calendar)
        if self.kind is PolicyKind.BOUNDED:
            return calendar.k - self.d
        return calendar.k


OPEN = InclusionPolicy(PolicyKind.OPEN)


def bounded(d: int) -> InclusionPolicy:
    return InclusionPolicy(PolicyKind.BOUNDED, d)


@dataclass(frozen=True, eq=False)
class TraceTable:
    """Every user's activity, one row per user and one column per day.

    ``variants`` codes treatment as 1, control as 0 and unassigned as -1.
    ``present[i, t - 1]`` is True when user ``i`` was active on day ``t``,
    and ``values[i, t - 1]`` holds the outcome that day; ``values`` must be
    0.0 wherever ``present`` is False. The arrays are read-only views.
    """

    user_ids: tuple[str, ...]
    variants: np.ndarray
    present: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.user_ids)
        variants = np.asarray(self.variants, dtype=np.int8)
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
        if np.any(values, where=~present):
            raise ConfigurationError("values must be 0.0 on days without activity")
        if variants.shape != (n,) or not np.isin(variants, (-1, 0, 1)).all():
            raise ConfigurationError("variant codes must be one of 1, 0, -1 per user")
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
