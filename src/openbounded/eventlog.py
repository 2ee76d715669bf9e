"""Event-log serialization: JSONL (canonical) and CSV (accepted on input).

One record per active user-day: ``{"user_id", "day", "variant", "value"}``
with variant ``"T"``/``"C"`` or null. Multiple raw rows for the same
(user, day) are summed into one daily value before analysis. Writers are
byte-deterministic for a fixed trace table; a JSON metadata sidecar
(``<name>.meta.json``) records how a log was produced. Logs convert to and
from a ``TraceTable`` here and nowhere else.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from .core import DataFormatError, ExperimentCalendar, TraceTable, Variant

SCHEMA_VERSION = 1

_CSV_COLUMNS = ("user_id", "day", "variant", "value")
_CODE = {Variant.TREATMENT: 1, Variant.CONTROL: 0, None: -1}
_VARIANT = {code: variant for variant, code in _CODE.items()}


@dataclass(frozen=True)
class EventLogRecord:
    user_id: str
    day: int
    value: float
    variant: Variant | None = None


@dataclass
class IngestReport:
    """Row accounting for one ingested log."""

    total_rows: int = 0
    accepted_rows: int = 0
    rejected: dict[str, int] = field(default_factory=dict)

    @property
    def n_rejected(self) -> int:
        return sum(self.rejected.values())

    @property
    def reject_fraction(self) -> float:
        return self.n_rejected / self.total_rows if self.total_rows else 0.0

    def reject(self, reason: str) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1


def record_to_json(record: EventLogRecord) -> str:
    payload = {
        "user_id": record.user_id,
        "day": record.day,
        "variant": record.variant.value if record.variant else None,
        "value": record.value,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def write_event_log(path: str | Path, traces: TraceTable) -> int:
    """Write traces as JSONL, one active user-day per line. Returns row count."""
    variants = [_VARIANT[code] for code in traces.variants.tolist()]
    users, columns = np.nonzero(traces.present)
    days = (columns + 1).tolist()
    values = traces.values[users, columns].tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for user, day, value in zip(users.tolist(), days, values):
            record = EventLogRecord(traces.user_ids[user], day, value, variants[user])
            fh.write(record_to_json(record))
            fh.write("\n")
    return len(values)


def sidecar_path(path: str | Path) -> Path:
    path = Path(path)
    return path.with_name(path.stem + ".meta.json")


def write_metadata(log_path: str | Path, metadata: dict) -> Path:
    target = sidecar_path(log_path)
    with open(target, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"schema": SCHEMA_VERSION, **metadata}, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return target


def _parse_variant(raw: object, report: IngestReport) -> tuple[Variant | None, bool]:
    if raw is None or raw == "":
        return None, True
    if isinstance(raw, str):
        if raw in ("T", "C"):
            return Variant(raw), True
    report.reject("invalid-variant")
    return None, False


def _parse_common(
    user_id: object, day: object, value: object, variant: object,
    calendar: ExperimentCalendar, report: IngestReport,
) -> EventLogRecord | None:
    if not isinstance(user_id, str) or not user_id:
        report.reject("missing-user-id")
        return None
    if isinstance(day, bool) or not isinstance(day, int):
        try:
            day = int(str(day))
        except (TypeError, ValueError):
            report.reject("invalid-day")
            return None
    if not 1 <= day <= calendar.k:
        report.reject("day-out-of-range")
        return None
    try:
        value = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        report.reject("invalid-value")
        return None
    if not math.isfinite(value):
        report.reject("invalid-value")
        return None
    parsed_variant, ok = _parse_variant(variant, report)
    if not ok:
        return None
    return EventLogRecord(user_id, day, value, parsed_variant)


def _iter_jsonl(fh: TextIO, calendar: ExperimentCalendar, report: IngestReport) -> Iterator[EventLogRecord]:
    for line in fh:
        line = line.strip()
        if not line:
            continue
        report.total_rows += 1
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            report.reject("invalid-json")
            continue
        if not isinstance(obj, dict):
            report.reject("invalid-json")
            continue
        record = _parse_common(
            obj.get("user_id"), obj.get("day"), obj.get("value"), obj.get("variant"),
            calendar, report,
        )
        if record is not None:
            yield record


def _iter_csv(fh: TextIO, calendar: ExperimentCalendar, report: IngestReport) -> Iterator[EventLogRecord]:
    reader = csv.DictReader(fh)
    header = reader.fieldnames or []
    missing = [c for c in ("user_id", "day", "value") if c not in header]
    if missing:
        raise DataFormatError(f"CSV header missing required columns: {', '.join(missing)}")
    for row in reader:
        report.total_rows += 1
        record = _parse_common(
            row.get("user_id"), row.get("day"), row.get("value"), row.get("variant"),
            calendar, report,
        )
        if record is not None:
            yield record


def build_traces(
    records: Iterable[EventLogRecord],
    report: IngestReport,
    calendar: ExperimentCalendar,
    require_variant: bool = False,
) -> TraceTable:
    """Aggregate records into a trace table: daily values summed, users sorted by id.

    A record whose variant contradicts an earlier one for the same user is
    rejected; with ``require_variant`` records without one are too. Same-day
    rows whose sum is not finite fail the whole log with DataFormatError.
    """
    variants: dict[str, Variant | None] = {}
    row_of: dict[str, int] = {}
    rows, days, values = array("q"), array("q"), array("d")
    for record in records:
        known = variants.get(record.user_id)
        if record.variant is not None and known is not None and record.variant is not known:
            report.reject("variant-conflict")
            continue
        if require_variant and record.variant is None and known is None:
            report.reject("missing-variant")
            continue
        if record.variant is not None:
            variants[record.user_id] = record.variant
        else:
            variants.setdefault(record.user_id, None)
        rows.append(row_of.setdefault(record.user_id, len(row_of)))
        days.append(record.day)
        values.append(record.value)
        report.accepted_rows += 1
    user_ids = sorted(row_of)
    rank = np.empty(len(user_ids), dtype=np.int64)
    rank[[row_of[user_id] for user_id in user_ids]] = np.arange(len(user_ids))
    index = (rank[np.frombuffer(rows, dtype=np.int64)], np.frombuffer(days, dtype=np.int64) - 1)
    present = np.zeros((len(user_ids), calendar.k), dtype=bool)
    present[index] = True
    daily = np.zeros(present.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        # Unbuffered: rows for one user-day are added in log order.
        np.add.at(daily, index, np.frombuffer(values, dtype=float))
    overflow = np.argwhere(~np.isfinite(daily))
    if overflow.size:
        user, column = overflow[0]
        raise DataFormatError(
            f"user {user_ids[user]}: rows for day {column + 1} sum to a non-finite value"
        )
    return TraceTable(
        user_ids=user_ids,
        variants=[_CODE[variants[u]] for u in user_ids],
        present=present,
        values=daily,
    )


def read_event_log(
    path: str | Path,
    calendar: ExperimentCalendar,
    require_variant: bool = False,
) -> tuple[TraceTable, IngestReport]:
    """Load a JSONL or CSV event log (dispatched on the ``.csv`` extension)."""
    path = Path(path)
    report = IngestReport()
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            if path.suffix.lower() == ".csv":
                rows = _iter_csv(fh, calendar, report)
            else:
                rows = _iter_jsonl(fh, calendar, report)
            traces = build_traces(rows, report, calendar, require_variant)
    except OSError as exc:
        raise DataFormatError(f"cannot read event log {path}: {exc}") from exc
    return traces, report
