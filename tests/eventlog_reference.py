"""The per-row event-log reader that the streaming reader replaced, kept as a reference.

Each row becomes a plain tuple, then users are aggregated in dicts. It is the
earlier reader rule for rule, plus the two rules for hostile numbers: an
integer value past float range is an invalid value, and a line that ``json``
refuses with a plain ValueError or RecursionError is invalid JSON. A day or a
value given as a string must also be spelled in ASCII: see ``_ascii_number``.
"""

import csv
import json
import math

import numpy as np

from openbounded import DataFormatError
from openbounded.eventlog import IngestReport
from conftest import from_dense

CODES = {"T": 1, "C": 0, None: -1}
ASCII_SPACE = " \t\n\r\f\v"
DIGITS = set("0123456789")


def _digits(text):
    return bool(text) and set(text) <= DIGITS


def _ascii_number(text, fraction):
    """Whether ``text`` is ASCII digits with an optional sign and surrounding
    ASCII whitespace, plus, when ``fraction``, an optional decimal point and exponent."""
    body = text.strip(ASCII_SPACE)
    if body[:1] in ("+", "-"):
        body = body[1:]
    if not fraction:
        return _digits(body)
    mantissa, e, exponent = body.replace("E", "e").partition("e")
    if e:
        if exponent[:1] in ("+", "-"):
            exponent = exponent[1:]
        if not _digits(exponent):
            return False
    whole, _, part = mantissa.partition(".")
    return bool(whole or part) and all(_digits(x) for x in (whole, part) if x)


def _parse(user_id, day, value, variant, k, report):
    if not isinstance(user_id, str) or not user_id:
        return report.reject("missing-user-id")
    if isinstance(day, bool) or not isinstance(day, int):
        if isinstance(day, str) and not _ascii_number(day, fraction=False):
            return report.reject("invalid-day")
        try:
            day = int(str(day))
        except (TypeError, ValueError):
            return report.reject("invalid-day")
    if not 1 <= day <= k:
        return report.reject("day-out-of-range")
    if isinstance(value, str) and not _ascii_number(value, fraction=True):
        return report.reject("invalid-value")
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError):
        return report.reject("invalid-value")
    if not math.isfinite(value):
        return report.reject("invalid-value")
    if variant == "":
        variant = None
    if variant is not None and not (isinstance(variant, str) and variant in ("T", "C")):
        return report.reject("invalid-variant")
    return user_id, day, value, variant


def _records(fh, is_csv, k, report):
    if is_csv:
        reader = csv.DictReader(fh)
        missing = [c for c in ("user_id", "day", "value") if c not in (reader.fieldnames or [])]
        if missing:
            raise DataFormatError(f"CSV header missing required columns: {', '.join(missing)}")
        fields = ({name: row.get(name) for name in ("user_id", "day", "value", "variant")}
                  for row in reader)
    else:
        fields = (line.strip() for line in fh)
    for row in fields:
        if not row:
            continue
        report.total_rows += 1
        if not is_csv:
            try:
                row = json.loads(row)
            except (ValueError, RecursionError):
                row = None
            if not isinstance(row, dict):
                report.reject("invalid-json")
                continue
        yield _parse(row.get("user_id"), row.get("day"), row.get("value"), row.get("variant"),
                     k, report)


def read_reference(path, calendar, require_variant=False):
    """``read_event_log``'s ``(TraceTable, IngestReport)`` for ``path``, one row at a time."""
    k = calendar.k
    report = IngestReport()
    variants, daily = {}, {}
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        for record in _records(fh, str(path).endswith(".csv"), k, report):
            if record is None:
                continue
            user_id, day, value, variant = record
            known = variants.get(user_id)
            if variant is not None and known is not None and variant != known:
                report.reject("variant-conflict")
                continue
            if require_variant and variant is None and known is None:
                report.reject("missing-variant")
                continue
            variants[user_id] = known if variant is None else variant
            daily[user_id, day] = daily.get((user_id, day), 0.0) + value
            report.accepted_rows += 1
    users = sorted(variants)
    present = np.zeros((len(users), k), dtype=bool)
    values = np.zeros((len(users), k))
    for row, user_id in enumerate(users):
        for day in range(1, k + 1):
            if (user_id, day) in daily:
                if not math.isfinite(daily[user_id, day]):
                    raise DataFormatError(
                        f"user {user_id}: rows for day {day} sum to a non-finite value")
                present[row, day - 1] = True
                values[row, day - 1] = daily[user_id, day]
    return from_dense(users, [CODES[variants[u]] for u in users], present, values), report
