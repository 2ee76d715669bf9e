"""Event-log serialization: JSONL (canonical) and CSV (accepted on input).

One record per active user-day: ``{"user_id", "day", "variant", "value"}``
with variant ``"T"``/``"C"`` or null. Multiple raw rows for the same
(user, day) are summed into one daily value before analysis. Writers are
byte-deterministic for a fixed trace table; a JSON metadata sidecar
(``<name>.meta.json``) records how a log was produced. Logs convert to and
from a ``TraceTable`` here and nowhere else.

The JSONL reader decodes lines spelled exactly as the writer spells them
(canonical lines) by one pattern search per chunk of lines; a chunk holding
any other spelling is decoded line by line with ``json``, with the same
result. Every row then goes through the same check.
"""

from __future__ import annotations

import csv
import json
import math
import re
from array import array
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Callable, TextIO

import numpy as np

from .core import DataFormatError, ExperimentCalendar, TraceTable, require_cells

SCHEMA_VERSION = 1

# Rows formatted per ``write`` call by ``write_event_log``.
WRITE_CHUNK_ROWS = 16_384
# Lines decoded per chunk by the JSONL reader. Larger chunks save little time
# and raise the reader's peak memory.
READ_CHUNK_LINES = 1024
_VARIANT_CODE = {"T": 1, "C": 0, "": -1}
# The end of a written line, after the value, for each variant code.
_LINE_END = {1: ',"variant":"T"}\n', 0: ',"variant":"C"}\n', -1: ',"variant":null}\n'}
# The text a day or a value given as a string may hold: ASCII digits with an
# optional sign and surrounding ASCII whitespace; a value may add a decimal
# point and an exponent. Python's own literals would also take "1_0" or
# non-ASCII digits.
_DAY_TEXT = re.compile(r"\s*[+-]?\d+\s*", re.ASCII)
_VALUE_TEXT = re.compile(r"\s*[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\s*", re.ASCII)
# One line as ``write_event_log`` spells it: a day of at most 9 digits, an id
# of printable ASCII other than '"' and '\' (which JSON escapes), a value with
# a fraction or an exponent and bounded digit counts, and a "T", "C" or null
# variant. JSON reads an integer literal as an int: "-0" becomes 0 and then
# +0.0, where float("-0") is -0.0, so integer-shaped values are not canonical.
_CANONICAL_LINE = re.compile(
    r'^\{"day":([1-9][0-9]{0,8}),"user_id":"([ !#-\[\]-~]+)",'
    r'"value":(-?(?:0|[1-9][0-9]{0,19})'
    r'(?:\.[0-9]{1,24}(?:[eE][+-]?[0-9]{1,3})?|[eE][+-]?[0-9]{1,3})),'
    r'"variant":(?:"([TC])"|null)\}$',
    re.MULTILINE,
)


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


def write_event_log(path: str | Path, traces: TraceTable) -> int:
    """Write traces as JSONL, one active user-day per line. Returns row count.

    Each line is the one ``json.dumps(row, sort_keys=True, separators=(",", ":"))``
    gives for ``{"user_id", "day", "variant", "value"}``, built by hand: each
    user's id and variant are formatted once, a finite float is spelled by
    ``float.__repr__`` as ``json`` spells it, and rows are joined and written
    ``WRITE_CHUNK_ROWS`` at a time. A non-finite value has no JSON spelling
    and fails the write with DataFormatError before the file is opened.
    """
    users, columns = np.nonzero(traces.present)
    values = traces.values[users, columns]
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        user, column = users[bad[0]], columns[bad[0]]
        raise DataFormatError(
            f"user {traces.user_ids[user]}: day {column + 1} holds {values[bad[0]]}, "
            "which JSON cannot spell"
        )
    heads = [f',"user_id":{json.dumps(user_id)},"value":' for user_id in traces.user_ids]
    tails = [_LINE_END[code] for code in traces.variants.tolist()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for start in range(0, len(values), WRITE_CHUNK_ROWS):
            chunk = slice(start, start + WRITE_CHUNK_ROWS)
            fh.write("".join([
                f'{{"day":{column + 1}{heads[user]}{value!r}{tails[user]}'
                for user, column, value in zip(
                    users[chunk].tolist(), columns[chunk].tolist(), values[chunk].tolist()
                )
            ]))
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


@dataclass
class LogColumns:
    """The accepted rows of a log as columns, in log order.

    ``row_of`` gives each user a row code in order of first acceptance and
    ``codes[row]`` holds that user's variant code (1 treatment, 0 control,
    -1 none seen yet); ``rows``, ``days`` and ``values`` hold one entry per
    accepted row.
    """

    row_of: dict[str, int] = field(default_factory=dict)
    codes: array = field(default_factory=lambda: array("b"))
    rows: array = field(default_factory=lambda: array("q"))
    days: array = field(default_factory=lambda: array("q"))
    values: array = field(default_factory=lambda: array("d"))


RowSink = Callable[[object, object, object, object], None]


def _row_sink(
    columns: LogColumns, calendar: ExperimentCalendar, require_variant: bool, report: IngestReport,
) -> RowSink:
    """The check of one raw ``(user_id, day, value, variant)`` row: it is either
    rejected under the first reason that applies or appended to ``columns``.

    A string day or value must match ``_DAY_TEXT`` or ``_VALUE_TEXT``. A
    variant that contradicts the user's earlier one is a conflict; with
    ``require_variant`` a row without one is rejected until the user has one.
    """
    k = calendar.k
    reject = report.reject
    row_of, codes = columns.row_of, columns.codes
    add_row, add_day, add_value = columns.rows.append, columns.days.append, columns.values.append
    isfinite = math.isfinite
    day_text, value_text = _DAY_TEXT.fullmatch, _VALUE_TEXT.fullmatch

    def accept(user_id: object, day: object, value: object, variant: object) -> None:
        if not isinstance(user_id, str) or not user_id:
            return reject("missing-user-id")
        if isinstance(day, bool) or not isinstance(day, int):
            if not (isinstance(day, str) and day_text(day)):
                return reject("invalid-day")
            try:
                day = int(day)
            except ValueError:  # past Python's digit limit
                return reject("invalid-day")
        if not 1 <= day <= k:
            return reject("day-out-of-range")
        if value.__class__ is not float:  # a JSON float needs no conversion
            if isinstance(value, str) and not value_text(value):
                return reject("invalid-value")
            try:
                value = float(value)  # type: ignore[arg-type]
            except (TypeError, ValueError, OverflowError):
                return reject("invalid-value")
        if not isfinite(value):
            return reject("invalid-value")
        if variant is None:
            code = -1
        else:
            code = _VARIANT_CODE.get(variant) if isinstance(variant, str) else None
            if code is None:
                return reject("invalid-variant")
        row = row_of.get(user_id)
        known = -1 if row is None else codes[row]
        if code >= 0 and known >= 0 and code != known:
            return reject("variant-conflict")
        if require_variant and code < 0 and known < 0:
            return reject("missing-variant")
        if row is None:
            row = row_of[user_id] = len(codes)
            codes.append(code)
        elif known < 0:
            codes[row] = code
        add_row(row)
        add_day(day)
        add_value(value)

    return accept


def _read_jsonl(fh: TextIO, accept: RowSink, report: IngestReport) -> int:
    """Pass the fields of each non-blank line on; returns the rows seen.

    Lines are read ``READ_CHUNK_LINES`` at a time. A chunk of canonical lines
    is decoded by one ``_CANONICAL_LINE`` search, and ``float`` gives each
    value the bits ``json`` would; any other chunk goes to ``_decode_lines``.
    Lines are never joined into one JSON document.
    """
    canonical = _CANONICAL_LINE.findall
    total = 0
    while lines := list(islice(fh, READ_CHUNK_LINES)):
        text = "".join(lines)
        rows = canonical(text)
        # A match spans one whole line up to a "\n", so one match per line
        # means that every line is canonical and ends in "\n".
        if len(rows) == len(lines) and text.endswith("\n"):
            total += len(rows)
            for day, user_id, value, variant in rows:
                accept(user_id, int(day), float(value), variant or None)
        else:
            total += _decode_lines(lines, accept, report)
    return total


def _decode_lines(lines: list[str], accept: RowSink, report: IngestReport) -> int:
    """Decode each non-blank line on its own and pass its fields on; returns the rows seen."""
    decode = json.JSONDecoder().decode
    total = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        total += 1
        try:
            obj = decode(line)
        except (ValueError, RecursionError):
            # ValueError also covers integer literals past Python's digit limit.
            report.reject("invalid-json")
            continue
        if not isinstance(obj, dict):
            report.reject("invalid-json")
            continue
        get = obj.get
        accept(get("user_id"), get("day"), get("value"), get("variant"))
    return total


def _read_csv(fh: TextIO, accept: RowSink, report: IngestReport) -> int:
    """Pass the named columns of each CSV row on; returns the rows seen."""
    reader = csv.DictReader(fh)
    header = reader.fieldnames or []
    missing = [c for c in ("user_id", "day", "value") if c not in header]
    if missing:
        raise DataFormatError(f"CSV header missing required columns: {', '.join(missing)}")
    total = 0
    for total, row in enumerate(reader, 1):
        accept(row.get("user_id"), row.get("day"), row.get("value"), row.get("variant"))
    return total


def build_traces(columns: LogColumns, calendar: ExperimentCalendar) -> TraceTable:
    """Aggregate accepted rows into a trace table: daily values summed, users sorted by id.

    Same-day rows whose sum is not finite fail the whole log with DataFormatError.
    """
    require_cells(len(columns.row_of), calendar.k, "the users x days matrix")
    ids = list(columns.row_of)
    order = sorted(range(len(ids)), key=ids.__getitem__)
    user_ids = [ids[row] for row in order]
    rank = np.empty(len(ids), dtype=np.int64)
    rank[order] = np.arange(len(ids))
    index = (
        rank[np.frombuffer(columns.rows, dtype=np.int64)],
        np.frombuffer(columns.days, dtype=np.int64) - 1,
    )
    present = np.zeros((len(user_ids), calendar.k), dtype=bool)
    present[index] = True
    daily = np.zeros(present.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        # Unbuffered: rows for one user-day are added in log order.
        np.add.at(daily, index, np.frombuffer(columns.values, dtype=float))
    overflow = np.argwhere(~np.isfinite(daily))
    if overflow.size:
        user, column = overflow[0]
        raise DataFormatError(
            f"user {user_ids[user]}: rows for day {column + 1} sum to a non-finite value"
        )
    return TraceTable(
        user_ids=user_ids,
        variants=np.frombuffer(columns.codes, dtype=np.int8)[order],
        present=present,
        values=daily,
    )


def read_event_log(
    path: str | Path,
    calendar: ExperimentCalendar,
    require_variant: bool = False,
) -> tuple[TraceTable, IngestReport]:
    """Load a JSONL or CSV event log (dispatched on the ``.csv`` extension).

    The log is streamed: each row is checked as it is read and only accepted
    rows are kept, as columns that ``build_traces`` then aggregates.
    """
    path = Path(path)
    report = IngestReport()
    columns = LogColumns()
    accept = _row_sink(columns, calendar, require_variant, report)
    read_rows = _read_csv if path.suffix.lower() == ".csv" else _read_jsonl
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            report.total_rows = read_rows(fh, accept, report)
    except OSError as exc:
        raise DataFormatError(f"cannot read event log {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"event log {path} is not UTF-8: {exc}") from exc
    except csv.Error as exc:
        raise DataFormatError(f"malformed CSV in event log {path}: {exc}") from exc
    report.accepted_rows = len(columns.rows)
    return build_traces(columns, calendar), report
