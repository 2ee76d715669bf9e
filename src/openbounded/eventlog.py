"""Event-log serialization: JSONL (canonical) and CSV (accepted on input).

One record per active user-day: ``{"user_id", "day", "variant", "value"}``
with variant ``"T"``/``"C"`` or null. Multiple raw rows for the same
(user, day) are summed into one daily value before analysis. Writers are
byte-deterministic for a fixed trace table; a JSON metadata sidecar
(``<name>.meta.json``) records how a log was produced. Logs convert to and
from a ``TraceTable`` here and nowhere else. The writer holds one block of
users at a time beside the table, so its extra memory does not grow with it.

A log is read in two stages. The row-local stage checks each row on its
own (user id, day, value, the spelling of the variant) and keeps the rows
that pass as compact columns. A chunk of JSONL lines spelled exactly as the
writer spells them (canonical lines) is decoded by one pattern search and
checked column by column; any other chunk, and every CSV row, is decoded
and checked row by row, with the same result. The log-order stage then
applies the variant rules (a conflicting variant; a missing one, where a
variant is required) once, vectorised, over the columns of the whole log.

A JSONL log is cut into contiguous byte ranges, each cut just after a "\\n":
one per usable core for a log of at least ``PARALLEL_MIN_BYTES``, else one.
``parallel.run_blocks`` decodes the later ranges in forked workers. The
blocks are joined in file order before the log-order stage, so no result
depends on the number of cores; ``taskset -c 0`` gives the same tables. CSV
is read serially.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, compress, islice
from pathlib import Path
from typing import Callable

import numpy as np

from .core import (
    DataFormatError,
    ExperimentCalendar,
    TraceTable,
    block_rows,
    row_blocks,
    user_blocks,
)

SCHEMA_VERSION = 1

# Rows per block of users that ``write_event_log`` formats and writes with
# one ``write`` call. It holds one block at a time: about 1 MB (traced) at
# 4,096 rows, near the 3.3k rows of its earlier 16,384-cell blocks at p = 0.2.
WRITE_CHUNK_ROWS = 4096
# Lines decoded per chunk by the JSONL reader. Larger chunks save little time
# and raise the reader's peak memory.
READ_CHUNK_LINES = 1024
# Smallest JSONL log, in bytes, read by one forked worker per usable core. A
# serial read costs 20-40 ns a byte; a worker costs about 20 ms to start and
# to send its rows back. On two cores a 4.6 MB log took 0.09-0.10 s forked
# against 0.12-0.14 s serially, and a 2.3 MB log 0.05-0.06 s against 0.06 s.
PARALLEL_MIN_BYTES = 4_000_000
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
    user's id and variant are formatted once, and a finite float is spelled by
    ``float.__repr__`` as ``json`` spells it. Users are formatted and written
    one block of about ``WRITE_CHUNK_ROWS`` rows at a time, so the writer's
    extra memory does not grow with the table. A non-finite value has no JSON
    spelling and fails the write with DataFormatError before the file is opened.
    """
    starts, days, values = traces.starts, traces.days, traces.values
    # min and max are finite only when every value is, and make no temporary.
    if not (math.isfinite(values.min(initial=0.0)) and math.isfinite(values.max(initial=0.0))):
        row = int(np.isfinite(values).argmin())
        user = int(starts.searchsorted(row, side="right")) - 1
        raise DataFormatError(
            f"user {traces.user_ids[user]}: day {days[row]} holds {values[row]}, "
            "which JSON cannot spell"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for block in user_blocks(starts, WRITE_CHUNK_ROWS):
            offsets, users = block_rows(starts, block)
            lo, hi = offsets[0], offsets[-1]
            heads = [f',"user_id":{json.dumps(user_id)},"value":'
                     for user_id in traces.user_ids[block]]
            tails = [_LINE_END[code] for code in traces.variants[block].tolist()]
            fh.write("".join([
                f'{{"day":{day}{heads[user]}{value!r}{tails[user]}'
                for user, day, value in zip(users.tolist(), days[lo:hi].tolist(),
                                            values[lo:hi].tolist())
            ]))
    return values.size


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
class LogRows:
    """The rows of one stretch of a log that passed the row-local checks, as columns.

    ``ids`` numbers each user in order of first appearance: a dict from id to
    number while the rows are read, a list of the ids in that order once the
    blocks are joined. A pickled copy, such as a forked reader's reply, also
    carries the list: it is smaller, and ``_join`` only iterates over it.
    ``users``, ``days``, ``values`` and ``codes`` (the variant: 1 treatment,
    0 control, -1 none) hold one entry per row, in log order; ``days`` is
    16-bit. ``report`` counts the rows seen and the row-local rejections.
    """

    days: array
    ids: dict[str, int] | list[str] = field(default_factory=dict)
    users: array = field(default_factory=lambda: array("i"))
    values: array = field(default_factory=lambda: array("d"))
    codes: array = field(default_factory=lambda: array("b"))
    report: IngestReport = field(default_factory=IngestReport)

    def __getstate__(self) -> dict:
        return {**self.__dict__, "ids": list(self.ids)}


RowCheck = Callable[[object, object, object, object], None]


def _row_check(k: int) -> tuple[LogRows, RowCheck]:
    """Empty rows, and the row-local check of one raw ``(user_id, day, value,
    variant)`` row: it is either rejected under the first reason that applies
    or appended to those rows.

    A string day or value must match ``_DAY_TEXT`` or ``_VALUE_TEXT``.
    """
    rows = LogRows(days=array("h"))
    reject = rows.report.reject
    ids = rows.ids
    add_user, add_day = rows.users.append, rows.days.append
    add_value, add_code = rows.values.append, rows.codes.append
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
        add_user(ids.setdefault(user_id, len(ids)))
        add_day(day)
        add_value(value)
        add_code(code)

    return rows, accept


def _add_canonical(found: list[tuple[str, str, str, str]], rows: LogRows, k: int,
                   accept: RowCheck) -> None:
    """Check and append ``_CANONICAL_LINE`` matches as whole columns.

    The pattern admits only a valid user id, a day of at least 1 and a
    variant, so a row can fail only by a day past ``k`` or a value that
    ``float`` takes to infinity; a chunk holding either is checked row by row.
    """
    days, user_ids, values, variants = zip(*found)
    days = list(map(int, days))
    values = list(map(float, values))
    # A sum of finite values that overflows sends the chunk to the row check too.
    if max(days) > k or not math.isfinite(sum(values)):
        for row in zip(user_ids, days, values, variants):
            accept(*row)
        return
    ids = rows.ids
    rows.users.fromlist([ids.setdefault(user_id, len(ids)) for user_id in user_ids])
    rows.days.fromlist(days)
    rows.values.fromlist(values)
    rows.codes.extend(map(_VARIANT_CODE.__getitem__, variants))


def _decode_jsonl(path: Path, start: int, stop: int, k: int) -> LogRows:
    """The rows of bytes ``start..stop`` of a JSONL log.

    ``start`` and ``stop`` fall just after a "\\n", so both are line ends under
    every line-end convention. Lines are read ``READ_CHUNK_LINES`` at a time.
    A chunk of canonical lines is decoded by one ``_CANONICAL_LINE`` search, and
    ``float`` gives each value the bits ``json`` would; any other chunk goes to
    ``_decode_lines``. Lines are never joined into one JSON document.
    """
    rows, accept = _row_check(k)
    canonical = _CANONICAL_LINE.findall
    total = 0
    with open(path, "rb") as fh:
        # A UTF-8 byte-order mark, as spreadsheet exports write one, is not a row.
        if start == 0 and fh.read(3) == b"\xef\xbb\xbf":
            start = 3
        fh.seek(start)
        left = stop - start
        while left > 0 and (lines := list(islice(fh, READ_CHUNK_LINES))):
            size = sum(map(len, lines))
            if size > left:  # the chunk runs into the next range
                lines = lines[:bisect_left(list(accumulate(map(len, lines))), left) + 1]
            left -= size
            text = b"".join(lines).decode("utf-8")
            found = canonical(text)
            # A match spans one whole line up to a "\n" and holds no "\r", so one
            # match per "\n"-ended line means that every line is canonical.
            if len(found) == len(lines) and text.endswith("\n"):
                total += len(found)
                _add_canonical(found, rows, k, accept)
            else:
                total += _decode_lines(text, accept, rows.report)
    rows.report.total_rows = total
    return rows


def _decode_lines(text: str, accept: RowCheck, report: IngestReport) -> int:
    """Decode each non-blank line of ``text`` on its own and pass its fields on;
    returns the rows seen. Lines end at "\\n", "\\r\\n" or "\\r", as in a file
    opened with ``newline=""``."""
    decode = json.JSONDecoder().decode
    total = 0
    for line in io.StringIO(text, newline=""):
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


def _decode_csv(path: Path, k: int) -> LogRows:
    """The rows of a CSV log, its columns found by name. A UTF-8 byte-order
    mark before the header is skipped."""
    rows, accept = _row_check(k)
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in ("user_id", "day", "value") if c not in header]
        if missing:
            raise DataFormatError(f"CSV header missing required columns: {', '.join(missing)}")
        total = 0
        for total, row in enumerate(reader, 1):
            accept(row.get("user_id"), row.get("day"), row.get("value"), row.get("variant"))
    rows.report.total_rows = total
    return rows


def _byte_ranges(path: Path, parts: int) -> list[tuple[int, int]]:
    """At most ``parts`` contiguous byte ranges covering the file, each cut just
    after a "\\n"; an empty file is one empty range."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        cuts = [0]
        for part in range(1, parts):
            fh.seek(max(size * part // parts, cuts[-1]))
            fh.readline()
            cuts.append(min(fh.tell(), size))
    cuts.append(size)
    return [(start, stop) for start, stop in zip(cuts, cuts[1:]) if start < stop] or [(0, 0)]


def _decode_jsonl_blocks(path: Path, k: int) -> list[LogRows]:
    """The rows of a JSONL log, one block per byte range, in file order.

    A log of at least ``PARALLEL_MIN_BYTES`` is split into one range per
    usable core, the later ones decoded by forked workers; any other is one.
    """
    from . import parallel  # here, so a command that only writes a log never loads it

    parts = parallel.usable_cores() if os.path.getsize(path) >= PARALLEL_MIN_BYTES else 1
    ranges = _byte_ranges(path, parts)
    return parallel.run_blocks(_decode_jsonl, [(path, start, stop, k) for start, stop in ranges])


def _join(blocks: list[LogRows]) -> LogRows:
    """The blocks of one log as one, in order; users are numbered by first
    appearance, and the joined rows list their ids in that order."""
    rows = blocks[0]
    numbers, rejected = rows.ids, rows.report.rejected
    new_ids: list[str] = []
    for block in blocks[1:]:
        index = np.array([numbers.get(user_id, -1) for user_id in block.ids], np.intc)
        new = index < 0
        new_ids = list(compress(block.ids, new.tolist()))
        index[new] = np.arange(len(numbers), len(numbers) + len(new_ids), dtype=np.intc)
        if block is not blocks[-1]:
            # Only a later block looks users up, so the last block's new users
            # are listed after the dict's rather than entered: the dict stays
            # at the size the earlier blocks need, not twice it, which is 3 MB
            # of analyze's peak on a 1e5-user log.
            numbers.update(zip(new_ids, range(len(numbers), len(numbers) + len(new_ids))))
        rows.users.frombytes(index[np.frombuffer(block.users, dtype=np.intc)].tobytes())
        rows.days.extend(block.days)
        rows.values.extend(block.values)
        rows.codes.extend(block.codes)
        rows.report.total_rows += block.report.total_rows
        for reason, count in block.report.rejected.items():
            rejected[reason] = rejected.get(reason, 0) + count
    rows.ids = [*numbers, *new_ids]
    return rows


def _variant_rules(rows: LogRows, require_variant: bool) -> tuple:
    """Apply the two variant rules over the whole log at once, counting their
    rejects in ``rows.report``. Returns each kept user's id and variant code,
    and for each accepted row, in log order, its user's index, day and value.

    A user's variant is the code of their first row that has one. A later
    row with a different code is a conflict. With ``require_variant``, a row
    without a variant before the user's first row with one is rejected, and a
    user who never has a variant is dropped.
    """
    users = np.frombuffer(rows.users, dtype=np.intc)
    codes = np.frombuffer(rows.codes, dtype=np.int8)
    n_rows, n_users = codes.size, len(rows.ids)
    first = np.full(n_users, n_rows)
    for block in row_blocks(n_rows, 1):
        assigned = np.flatnonzero(codes[block] >= 0)
        np.minimum.at(first, users[block][assigned], assigned + block.start)
    has_variant = first < n_rows
    variants = np.full(n_users, -1, dtype=np.int8)
    variants[has_variant] = codes[first[has_variant]]
    rejected = {"variant-conflict": (codes >= 0) & (codes != variants[users])}
    if require_variant:
        # Only a row without a variant can miss one.
        unassigned = np.flatnonzero(codes < 0)
        missing = np.zeros(n_rows, dtype=bool)
        missing[unassigned[unassigned < first[users[unassigned]]]] = True
        rejected["missing-variant"] = missing
    keep = np.ones(n_rows, dtype=bool)
    for reason, rows_rejected in rejected.items():
        if count := int(np.count_nonzero(rows_rejected)):
            rows.report.rejected[reason] = count
            keep &= ~rows_rejected
    user_ids = rows.ids
    days = np.frombuffer(rows.days, dtype=rows.days.typecode)
    values = np.frombuffer(rows.values, dtype=float)
    if not keep.all():
        users, days, values = users[keep], days[keep], values[keep]
    if require_variant and not has_variant.all():
        users = (np.cumsum(has_variant, dtype=np.intc) - 1)[users]
        user_ids = list(compress(user_ids, has_variant.tolist()))
        variants = variants[has_variant]
    rows.report.accepted_rows = users.size
    return user_ids, variants, users, days, values


def build_traces(rows: LogRows, calendar: ExperimentCalendar, require_variant: bool) -> TraceTable:
    """Apply the variant rules to a log's checked rows, then aggregate the rows
    they accept into a trace table: users sorted by id, each user's rows in day
    order, the rows of one user-day summed. ``rows`` is consumed: only its
    ``report`` is meaningful afterwards. Each row column is freed as soon as
    it is dead.

    Rows already in (user, day) order with no repeated user-day, as
    ``write_event_log`` writes them, become the table's rows as they are.
    Other rows are sorted stably, and the rows of each user-day are summed in
    log order starting from 0.0. Same-day rows whose sum is not finite fail
    the whole log with DataFormatError.
    """
    # A helper of its own, so the rules' row-length masks are freed before the sort.
    ids, variants, users, days, values = _variant_rules(rows, require_variant)
    del rows.ids, rows.codes  # each row column is deleted once dead, to free it
    n, k = len(ids), calendar.k
    if all(map(str.__lt__, ids, islice(ids, 1, None))):
        # Already in id order, as write_event_log writes a log: no sort, and
        # no n Python ints for one.
        keys = users.astype(np.int64)
    else:
        # A key sort of the list compares the str ids on list.sort's fast
        # path; an object-array argsort compares them pair by pair, twice as
        # slowly.
        order = sorted(range(n), key=ids.__getitem__)
        ids = [ids[row] for row in order]
        order = np.array(order, dtype=np.intp)
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n, dtype=np.int64)
        variants = variants[order]
        keys = rank[users]
        del order, rank
    # Each row's (user, day) key, rank * k + day - 1, in the table's order. Ranks
    # are below 2**31 and k below 2**15, so a key cannot wrap an int64.
    keys *= k
    keys += days
    keys -= 1
    del users, rows.users
    if not (keys[1:] > keys[:-1]).all():
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.empty(keys.size, dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        # bincount adds each user-day's rows in order, from 0.0, as np.add.at does.
        values = np.bincount(np.cumsum(first) - 1, values[order])
        keys = keys[first]
        del order, first
        if not (math.isfinite(values.min(initial=0.0)) and math.isfinite(values.max(initial=0.0))):
            user, column = divmod(int(keys[np.isfinite(values).argmin()]), k)
            raise DataFormatError(
                f"user {ids[user]}: rows for day {column + 1} sum to a non-finite value"
            )
        days = keys % k + 1
    del rows.days, rows.values
    starts = keys.searchsorted(np.arange(0, (n + 1) * k, k, dtype=np.int64))
    return TraceTable(
        user_ids=tuple(ids), variants=variants, k=k, starts=starts, days=days, values=values
    )


def read_event_log(
    path: str | Path,
    calendar: ExperimentCalendar,
    require_variant: bool = False,
) -> tuple[TraceTable, IngestReport]:
    """Load a JSONL or CSV event log (dispatched on the ``.csv`` extension).

    The log is streamed: each row gets its row-local check as it is read and
    only the rows that pass are kept, as columns. ``build_traces`` then runs
    the variant rules once over those columns and aggregates what they accept.
    """
    path = Path(path)
    try:
        if path.suffix.lower() == ".csv":
            blocks = [_decode_csv(path, calendar.k)]
        else:
            blocks = _decode_jsonl_blocks(path, calendar.k)
    except OSError as exc:
        raise DataFormatError(f"cannot read event log {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"event log {path} is not UTF-8: {exc}") from exc
    except csv.Error as exc:
        raise DataFormatError(f"malformed CSV in event log {path}: {exc}") from exc
    rows = _join(blocks)
    del blocks
    return build_traces(rows, calendar, require_variant), rows.report
