import csv
import io
import json
import math
import multiprocessing
import os
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openbounded import (
    DataFormatError,
    ExperimentCalendar,
    Model1Params,
    Seed,
    delta_estimate,
    read_event_log,
    simulate_model1,
    write_event_log,
    OPEN,
    bounded,
)
from openbounded.metrics import metric_table
from openbounded import eventlog, parallel
from openbounded.cli import main
from openbounded.eventlog import WRITE_CHUNK_ROWS, sidecar_path, write_metadata
from conftest import VARIANT_CODES, dense, from_dense, make_table, traced_peak, user_rows
from eventlog_reference import read_reference


def write_rows(path, rows):
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return path


class TestRoundTrip:
    def test_traces_survive_write_read(self, tmp_path, monday14):
        traces = simulate_model1(Model1Params(p=0.5, tau=1.0, sigma=1.0), 40, Seed(3))
        path = tmp_path / "events.jsonl"
        write_event_log(path, traces)
        loaded, report = read_event_log(path, monday14)
        active = [row for row in user_rows(traces) if row[2]]
        assert user_rows(loaded) == sorted(active)
        assert report.n_rejected == 0
        assert report.accepted_rows == dense(traces)[0].sum()

    def test_sparse_long_window_reads_in_memory_of_its_rows(self, tmp_path):
        """2,000 users with 3 active days each in a 280-day window: the read and
        one metric_table call peak below a quarter of the 5 MB that a users x
        days table of a flag and a value a cell would take."""
        calendar = ExperimentCalendar(280)
        rng = np.random.default_rng(5)
        path = write_rows(tmp_path / "log.jsonl", [
            {"user_id": f"u{user:04d}", "day": int(day), "value": float(rng.normal()),
             "variant": "TC"[user % 2]}
            for user in range(2000) for day in np.sort(rng.choice(280, 3, replace=False)) + 1
        ])

        def read_and_analyse():
            traces, _ = read_event_log(path, calendar, require_variant=True)
            metric_table(traces, bounded(7), calendar)

        read_and_analyse()  # imports and compiled patterns load on the first call
        assert traced_peak(read_and_analyse) < 2_000 * 280 * 9 // 4

    def test_analysis_identical_after_round_trip(self, tmp_path, monday14):
        traces = simulate_model1(Model1Params(p=0.5, tau=1.0, sigma=1.0), 60, Seed(4))
        path = tmp_path / "events.jsonl"
        write_event_log(path, traces)
        loaded, _ = read_event_log(path, monday14)
        before = delta_estimate(traces, OPEN, monday14)
        after = delta_estimate(loaded, OPEN, monday14)
        assert before.delta == after.delta and before.p_value == after.p_value

    def test_write_is_deterministic(self, tmp_path):
        traces = simulate_model1(Model1Params(p=0.5, sigma=1.0), 25, Seed(5))
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_event_log(a, traces)
        write_event_log(b, traces)
        assert a.read_bytes() == b.read_bytes()

    def test_sidecar_naming_and_content(self, tmp_path):
        path = tmp_path / "events.jsonl"
        assert sidecar_path(path).name == "events.meta.json"
        write_metadata(path, {"model": "model1", "seed": 9})
        meta = json.loads(sidecar_path(path).read_text())
        assert meta["schema"] == 1 and meta["seed"] == 9


class TestAggregation:
    def _read(self, tmp_path, monday14, rows, require_variant=False):
        path = write_rows(tmp_path / "log.jsonl", [
            {"user_id": user_id, "day": day, "value": value, "variant": variant}
            for user_id, day, value, variant in rows
        ])
        return read_event_log(path, monday14, require_variant=require_variant)

    def test_same_day_rows_summed(self, tmp_path, monday14):
        traces, _ = self._read(tmp_path, monday14, [
            ("u1", 2, 1.5, "T"),
            ("u1", 2, 2.5, "T"),
            ("u1", 4, 1.0, "T"),
        ])
        assert user_rows(traces) == [("u1", "T", {2: 4.0, 4: 1.0})]

    def test_split_rows_exactly_equivalent(self, tmp_path, monday14):
        whole, _ = self._read(tmp_path, monday14, [("u1", 3, 5.0, "C")])
        halves, _ = self._read(tmp_path, monday14, [("u1", 3, 2.5, "C"), ("u1", 3, 2.5, "C")])
        assert whole == halves

    def test_users_sorted_regardless_of_input_order(self, tmp_path, monday14):
        traces, _ = self._read(tmp_path, monday14, [("zz", 1, 1.0, "T"), ("aa", 1, 1.0, "C")])
        assert traces.user_ids == ("aa", "zz")
        assert traces.variants.tolist() == [0, 1]

    @pytest.mark.parametrize("require_variant", [False, True])
    def test_same_table_whatever_the_user_order(self, tmp_path, monday14, require_variant):
        """Users listed in id order skip the sort; any other order is sorted
        into the same table, also when the variant rule drops a user."""
        rows = [(f"u{i:02d}", 1 + i % 5, float(i), (None, "T", "C")[i % 3]) for i in range(12)]
        shuffled = [rows[i] for i in (7, 2, 11, 0, 5, 9, 1, 10, 4, 8, 3, 6)]
        in_order, _ = self._read(tmp_path, monday14, rows, require_variant=require_variant)
        out_of_order, _ = self._read(tmp_path, monday14, shuffled, require_variant=require_variant)
        assert out_of_order == in_order
        assert list(in_order.user_ids) == sorted(in_order.user_ids)
        assert len(in_order) == (8 if require_variant else 12)
        # Repeated user-days and -0.0 values, in (user, day) order and reversed:
        # repeats are summed in log order from 0.0, whatever the order of the log.
        repeats = [("u04", 5, 2.5, "T"), ("u04", 5, -0.0, "T"), ("u07", 3, -0.0, "T"),
                   ("u01", 9, -0.0, "T"), ("u01", 9, -0.0, "T"), ("u11", 8, -0.0, "C")]
        rows = sorted(rows + repeats, key=lambda row: row[:2])
        in_order, _ = self._read(tmp_path, monday14, rows, require_variant=require_variant)
        reversed_rows, _ = self._read(tmp_path, monday14, rows[::-1],
                                      require_variant=require_variant)
        assert reversed_rows == in_order
        days = dict((user_id, day_values) for user_id, _, day_values in user_rows(in_order))
        assert days["u04"] == {5: 6.5} and days["u07"] == {3: 7.0}
        assert days["u01"] == {2: 1.0, 9: 0.0} and math.copysign(1.0, days["u01"][9]) == 1.0

    def test_variant_conflict_rejected(self, tmp_path, monday14):
        traces, report = self._read(tmp_path, monday14, [
            ("u1", 1, 1.0, "T"),
            ("u1", 2, 1.0, "C"),
            ("u1", 3, 1.0, "T"),
        ])
        assert report.rejected == {"variant-conflict": 1}
        assert user_rows(traces) == [("u1", "T", {1: 1.0, 3: 1.0})]

    def test_variant_required_mode(self, tmp_path, monday14):
        traces, report = self._read(
            tmp_path, monday14, [("u1", 1, 1.0, None), ("u2", 1, 1.0, "C")], require_variant=True,
        )
        assert traces.user_ids == ("u2",)
        assert report.rejected == {"missing-variant": 1}


# Users per block of the writer at k = 14 when every user is active every day:
# a block ends with the first user whose rows reach WRITE_CHUNK_ROWS.
BLOCK = -(-WRITE_CHUNK_ROWS // 14)


def first_cells(n_cells):
    """A users x 14 presence mask whose first ``n_cells`` cells in log order are active."""
    n_users = -(-n_cells // 14) or 1
    return (np.arange(n_users * 14) < n_cells).reshape(n_users, 14)


def middle_block_inactive():
    present = np.ones((3 * BLOCK, 14), dtype=bool)
    present[BLOCK:2 * BLOCK] = False
    return present


class TestWriter:
    PREFIXES = ('q"', "b\\", "\u00fc", "s ", "u")
    VALUES = (-0.0, 5e-324, 1.7976931348623157e308, 0.1, -2.5, 100.0)

    @pytest.mark.parametrize("present", [
        *(pytest.param(first_cells(n), id=str(n))
          for n in (0, 1, WRITE_CHUNK_ROWS, WRITE_CHUNK_ROWS + 1,
                    4 * WRITE_CHUNK_ROWS, 4 * WRITE_CHUNK_ROWS + 1)),
        pytest.param(np.ones((BLOCK - 1, 14), dtype=bool), id="block-1-users"),
        pytest.param(np.ones((BLOCK, 14), dtype=bool), id="block-users"),
        pytest.param(np.ones((BLOCK + 1, 14), dtype=bool), id="block+1-users"),
        pytest.param(middle_block_inactive(), id="inactive-block"),
    ])
    def test_lines_match_json_dumps(self, tmp_path, present):
        n_users, k = present.shape
        values = np.resize(np.array(self.VALUES), n_users * k).reshape(n_users, k)
        traces = from_dense(
            user_ids=[f"{self.PREFIXES[i % 5]}{i}" for i in range(n_users)],
            variants=np.resize(np.array([1, 0, -1], dtype=np.int8), n_users),
            present=present,
            values=np.where(present, values, 0.0),
        )
        path = tmp_path / "log.jsonl"
        assert write_event_log(path, traces) == int(present.sum())
        variant_of = {code: variant for variant, code in VARIANT_CODES.items()}
        table_present, table_values = dense(traces)
        expected = [
            json.dumps(
                {"user_id": traces.user_ids[user], "day": int(column) + 1,
                 "variant": variant_of[int(traces.variants[user])],
                 "value": float(table_values[user, column])},
                sort_keys=True, separators=(",", ":"),
            ) + "\n"
            for user, column in zip(*np.nonzero(table_present))
        ]
        assert path.read_bytes() == "".join(expected).encode("utf-8")

    def test_plain_ascii_lines_are_canonical(self, tmp_path):
        values = (*self.VALUES, 1e16, 1e-05, 0.5e-4, 123456789.125, -1e300)
        printable = "".join(chr(c) for c in range(0x20, 0x7F) if chr(c) not in '"\\')
        ids = ["u1", printable, " ", "~"]
        traces = from_dense(
            user_ids=ids,
            variants=np.array([1, 0, -1, 1], dtype=np.int8),
            present=np.ones((len(ids), len(values)), dtype=bool),
            values=np.tile(values, (len(ids), 1)),
        )
        path = tmp_path / "log.jsonl"
        n_rows = write_event_log(path, traces)
        text = path.read_text(encoding="utf-8")
        assert "1e+16" in text and "1e-05" in text and "1.7976931348623157e+308" in text
        assert len(eventlog._CANONICAL_LINE.findall(text)) == n_rows == len(values) * len(ids)

    def test_simulated_log_takes_the_canonical_path(self, tmp_path, monkeypatch, monday14):
        path = tmp_path / "events.jsonl"
        assert main([
            "simulate", "--model", "model1", "--p", "0.2", "--c", "100", "--sigma", "65",
            "--tau", "1", "--n-per-arm", "600", "--seed", "61", "-o", str(path),
        ]) == 0

        def per_line_decode(*args):
            raise AssertionError("a line written by simulate fell back to the per-line decode")

        monkeypatch.setattr(eventlog, "_decode_lines", per_line_decode)
        traces, report = read_event_log(path, monday14, require_variant=True)
        assert report.total_rows > eventlog.READ_CHUNK_LINES
        assert report.accepted_rows == report.total_rows == int(dense(traces)[0].sum())

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_value_refused(self, tmp_path, value):
        traces = make_table([("u1", "T", {1: 1.0}), ("u2", "C", {3: value})])
        path = tmp_path / "log.jsonl"
        with pytest.raises(DataFormatError, match="u2: day 3"):
            write_event_log(path, traces)
        assert not path.exists()
        # Non-finite cells in two blocks of users: the first in log order is named,
        # though the later block's cell is on an earlier day.
        values = np.ones((2 * BLOCK, 14))
        values[BLOCK - 1, 8] = values[BLOCK, 1] = value
        traces = from_dense(
            user_ids=[f"u{i:05d}" for i in range(2 * BLOCK)],
            variants=np.zeros(2 * BLOCK, dtype=np.int8),
            present=np.ones(values.shape, dtype=bool),
            values=values,
        )
        first = re.escape(f"u{BLOCK - 1:05d}: day 9 holds {value},")
        with pytest.raises(DataFormatError, match=first):
            write_event_log(path, traces)
        assert not path.exists()

    def test_extra_memory_does_not_grow_with_the_table(self):
        """The writer holds one block of users beside the table: its traced peak
        at 80,000 users is within 25% of its peak at 5,000."""
        params = Model1Params(p=0.2, tau=1.0, sigma=65.0, c=100.0)
        peaks = []
        for n_per_arm in (2_500, 40_000):
            traces = simulate_model1(params, n_per_arm, Seed(9))
            peaks.append(traced_peak(lambda: write_event_log(os.devnull, traces)))
        assert peaks[1] <= 1.25 * peaks[0], peaks


USER_IDS = st.sampled_from(["u1", "u2", "u3", "\u00fc", "\u7528\u6237", 'q"', "s p", "", None, 7])
DAYS = st.one_of(
    st.integers(-1, 16),
    st.sampled_from([
        True, False, "3", " 4 ", "99", "x", "1.0", 2.0, 2.5, None, [1],
        "+5", "-3", "05", "1_0", "\u0663", "\u00a04", "\x1c4", "1e1", "",
    ]),
)
VALUES = st.one_of(
    st.floats(-1e3, 1e3),
    st.integers(-10**6, 10**6),
    st.sampled_from([
        True, False, "1.5", " 2 ", "nan", "inf", "wat", None, [1], -0.0, 5e-324, 1e308,
        float("nan"), float("-inf"), "+.5", "1.", "-2e3", "1E-2", ".", "1e", "1_000.5",
        "\u0661.5", "\u00a02", "1" * 400,
    ]),
)
VARIANTS = st.sampled_from(["T", "C", None, "", "X", "t", 1, True, ["T"]])
ROWS = st.fixed_dictionaries(
    {"user_id": USER_IDS, "day": DAYS, "value": VALUES}, optional={"variant": VARIANTS},
)
# Well-formed rows over few users and days, so conflicts, duplicates and same-day overflow occur.
CLEAN_ROWS = st.fixed_dictionaries({
    "user_id": st.sampled_from(["u1", "u2", "\u00fc"]),
    "day": st.integers(1, 3),
    "value": st.one_of(st.floats(-1e3, 1e3), st.just(1e308)),
    "variant": st.sampled_from(["T", "C", None]),
})
RAW_LINES = st.sampled_from([
    "", "   ", "not json", "[1, 2]", '"text"', "null", '{"a":["}', '{"],"b":1}', '{"c":1},{"d":2}',
    '{"user_id":"u1","day":1,"variant":"T","value":1' + "0" * 400 + "}",
    '{"user_id":"u1","day":1,"variant":"T","value":' + "1" * 5000 + "}",
    "[" * 100_000,
])


CANONICAL_LINES = st.fixed_dictionaries({
    "user_id": st.sampled_from(["u1", "u2", "a b"]),
    "day": st.one_of(st.integers(1, 3), st.sampled_from([15, 999_999_999])),
    "value": st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, 1e16, 1e-05, 1e308])),
    "variant": st.sampled_from(["T", "C", None]),
}).map(lambda row: json.dumps(row, sort_keys=True, separators=(",", ":")))
# Lines one spelling away from canonical, which send their chunk to the per-line
# decode, and canonical lines that no writer makes.
NEAR_CANONICAL_LINES = st.sampled_from([
    '{"day":3,"user_id":"u2","value":1e999,"variant":"C"}',
    '{"day":3,"user_id":"u2","value":-1.5e-999,"variant":"C"}',
    '{"day":1,"user_id":"u1","value":-0,"variant":"T"}',
    '{"day":2,"user_id":"u2","value":5,"variant":"C"}',
    '{"day":1,"user_id":"u1","value":' + "1" * 5000 + ',"variant":"T"}',
    '{"day":1,"user_id":"u1","value":' + "1" * 30 + '.5,"variant":"T"}',
    '{"day":0,"user_id":"u1","value":1.0,"variant":"T"}',
    '{"day":1e1,"user_id":"u1","value":1.0,"variant":"T"}',
    '{"day":01,"user_id":"u1","value":1.0,"variant":"T"}',
    '{"day":1234567890,"user_id":"u1","value":1.0,"variant":"T"}',
    '{"day":1,"user_id":"u\\u0031","value":1.0,"variant":"C"}',
    '{"day":1,"user_id":"u\\"1","value":1.0,"variant":"C"}',
    '{"day":1,"user_id":"\u00fc","value":1.0,"variant":"C"}',
    '{"day":1,"user_id":"","value":1.0,"variant":"C"}',
    '{"day": 1,"user_id":"u1","value":1.0,"variant":"T"}',
    ' {"day":1,"user_id":"u1","value":1.0,"variant":"T"}',
    '{"user_id":"u2","day":3,"value":2.5,"variant":"T"}',
    '{"day":2,"user_id":"u1","value":1.0,"variant":"X"}',
    '{"day":2,"user_id":"u1","value":1.0}',
    '\ufeff{"day":1,"user_id":"u1","value":1.0,"variant":"T"}',
    "",
])


def _jsonl_line(item):
    return item if isinstance(item, str) else json.dumps(item)


def _csv_cell(value):
    return "" if value is None else str(value)


class TestMatchesReferenceReader:
    """The streaming reader against the earlier per-row reader on hostile logs."""

    @settings(max_examples=150, deadline=None)
    @given(
        items=st.lists(st.one_of(ROWS, CLEAN_ROWS, CLEAN_ROWS, RAW_LINES), max_size=30),
        newline=st.sampled_from(["\n", "\r\n", "\r"]),
        bom=st.booleans(),
    )
    def test_jsonl(self, tmp_path_factory, items, newline, bom):
        text = ("\ufeff" if bom else "") + "".join(_jsonl_line(item) + newline for item in items)
        self._check(tmp_path_factory.mktemp("log") / "log.jsonl", text)

    @settings(max_examples=150, deadline=None)
    @given(
        lines=st.lists(
            st.tuples(
                st.one_of(CANONICAL_LINES, CANONICAL_LINES, CANONICAL_LINES, NEAR_CANONICAL_LINES),
                st.sampled_from(["\n"] * 8 + ["\r\n", "\r", ""]),
            ),
            max_size=30,
        ),
    )
    def test_jsonl_canonical_chunks(self, tmp_path_factory, lines):
        """Chunks of three lines, so canonical and per-line chunks mix and each
        user's variant is carried from one chunk to the next."""
        text = "".join(line + newline for line, newline in lines)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(eventlog, "READ_CHUNK_LINES", 3)
            self._check(tmp_path_factory.mktemp("log") / "log.jsonl", text)

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(st.one_of(ROWS, CLEAN_ROWS, CLEAN_ROWS, st.just({})), max_size=30),
        columns=st.permutations(["user_id", "day", "value", "variant"]),
        newline=st.sampled_from(["\n", "\r\n"]),
        bom=st.sampled_from([False, False, False, True]),
    )
    def test_csv(self, tmp_path_factory, rows, columns, newline, bom):
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator=newline)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell(row.get(c)) for c in columns] if row else [])
        text = ("\ufeff" if bom else "") + buffer.getvalue()
        self._check(tmp_path_factory.mktemp("log") / "log.csv", text)

    def _check(self, path, text):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        calendar = ExperimentCalendar(k=14)
        for require_variant in (False, True):
            assert self._outcome(read_event_log, path, calendar, require_variant) == \
                self._outcome(read_reference, path, calendar, require_variant)

    @staticmethod
    def _outcome(reader, path, calendar, require_variant):
        try:
            return reader(path, calendar, require_variant=require_variant)
        except DataFormatError as exc:
            return str(exc)


def _force_parallel_read(patch, workers):
    """Send every JSONL read through ``workers`` forked workers."""
    patch.setattr(eventlog, "PARALLEL_MIN_BYTES", 0)
    patch.setattr(parallel, "usable_cores", lambda: workers)


def _fail_in_workers(patch, fail):
    """Make each range decode call ``fail`` in any process but this one."""
    parent, decode = os.getpid(), eventlog._decode_jsonl

    def decode_or_fail(*args):
        if os.getpid() != parent:
            fail()
        return decode(*args)

    patch.setattr(eventlog, "_decode_jsonl", decode_or_fail)


class TestParallelRead:
    """A JSONL log read in byte ranges by forked workers, against the reference reader."""

    @settings(max_examples=80, deadline=None)
    @given(
        lines=st.lists(
            st.tuples(
                st.one_of(CANONICAL_LINES, CANONICAL_LINES, NEAR_CANONICAL_LINES,
                          st.one_of(ROWS, CLEAN_ROWS, RAW_LINES).map(_jsonl_line)),
                st.sampled_from(["\n"] * 6 + ["\r\n", "\r"]),
            ),
            max_size=40,
        ),
        last=st.one_of(st.just(""), CANONICAL_LINES, NEAR_CANONICAL_LINES),
        bom=st.booleans(),
        workers=st.sampled_from([2, 3]),
    )
    def test_matches_reference(self, tmp_path_factory, lines, last, bom, workers):
        """Small chunks, so that chunk and range cuts fall between one user's
        rows, conflicts and missing variants; the last line may lack its "\\n"."""
        text = ("\ufeff" if bom else "") + "".join(line + nl for line, nl in lines) + last
        path = tmp_path_factory.mktemp("log") / "log.jsonl"
        path.write_bytes(text.encode("utf-8"))
        calendar = ExperimentCalendar(k=14)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(eventlog, "READ_CHUNK_LINES", 2)
            _force_parallel_read(patch, workers)
            for require_variant in (False, True):
                assert TestMatchesReferenceReader._outcome(
                    read_event_log, path, calendar, require_variant
                ) == TestMatchesReferenceReader._outcome(
                    read_reference, path, calendar, require_variant
                )
                assert not multiprocessing.active_children()

    @pytest.mark.parametrize("text, parts", [
        ("", 1), ("", 3), ('{"day":1}\n', 1), ('{"day":1}\n', 4), ('{"day":1}', 2),
        ("a\nb\n", 5), ("a\r\nb\nc", 4),
    ], ids=["empty", "empty-3", "one-line", "one-line-4", "one-unended-line-2",
            "two-lines-5", "three-lines-4"])
    def test_byte_ranges_cover_the_file_once(self, tmp_path, text, parts):
        path = tmp_path / "log.jsonl"
        path.write_bytes(text.encode("utf-8"))
        ranges = eventlog._byte_ranges(path, parts)
        assert 1 <= len(ranges) <= parts
        cuts = [start for start, _ in ranges] + [ranges[-1][1]]
        assert cuts[0] == 0 and cuts[-1] == len(text)
        assert all(start < stop for start, stop in ranges) or ranges == [(0, 0)]
        assert all(stop == start for (_, stop), (start, _) in zip(ranges, ranges[1:]))
        assert all(text[cut - 1] == "\n" for cut in cuts[1:-1])

    def test_reply_carries_ids_as_a_list(self, tmp_path):
        """A worker's rows reach the parent with their ids as a list, in
        numbering order; the worker's own rows keep the dict."""
        path = self._log(tmp_path)
        rows = eventlog._decode_jsonl(path, 0, path.stat().st_size, 14)
        reply = pickle.loads(pickle.dumps(rows))
        assert isinstance(rows.ids, dict) and reply.ids == list(rows.ids)
        assert [reply.users, reply.days, reply.values, reply.codes, reply.report] == [
            rows.users, rows.days, rows.values, rows.codes, rows.report]

    @staticmethod
    def _log(tmp_path):
        path = tmp_path / "events.jsonl"
        traces = simulate_model1(Model1Params(p=0.5, tau=1.0, sigma=1.0), 60, Seed(6))
        write_event_log(path, traces)
        return path

    @pytest.mark.parametrize("error", [
        MemoryError("Unable to allocate 7.45 GiB"), DataFormatError("line 7 past float range"),
    ], ids=["memory", "data"])
    def test_worker_exception_raised_in_parent(self, tmp_path, monkeypatch, monday14, error):
        path = self._log(tmp_path)
        _force_parallel_read(monkeypatch, 3)

        def fail():
            raise error

        _fail_in_workers(monkeypatch, fail)
        with pytest.raises(type(error)) as raised:
            read_event_log(path, monday14)
        assert type(raised.value) is type(error) and str(raised.value) == str(error)
        assert not multiprocessing.active_children()

    def test_worker_ending_without_reply_is_refilled(self, tmp_path, monkeypatch, monday14):
        path = self._log(tmp_path)
        expected = read_event_log(path, monday14, require_variant=True)
        _force_parallel_read(monkeypatch, 3)
        _fail_in_workers(monkeypatch, lambda: os._exit(1))
        assert read_event_log(path, monday14, require_variant=True) == expected
        assert not multiprocessing.active_children()

    def test_later_range_not_utf8(self, tmp_path, monkeypatch, monday14):
        path = self._log(tmp_path)
        bad_line = b'{"day":1,"user_id":"\xff","value":1.0,"variant":"T"}\n'
        path.write_bytes(path.read_bytes() + bad_line)
        _force_parallel_read(monkeypatch, 2)
        with pytest.raises(DataFormatError, match="is not UTF-8"):
            read_event_log(path, monday14)
        assert not multiprocessing.active_children()


class TestJsonlParsing:
    def _load(self, tmp_path, monday14, lines):
        path = tmp_path / "log.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return read_event_log(path, monday14)

    def test_reject_reasons_tallied(self, tmp_path, monday14):
        lines = [
            '{"user_id": "u1", "day": 1, "variant": "T", "value": 2.0}',
            "not json at all",
            '{"user_id": "u1", "day": 0, "variant": "T", "value": 2.0}',
            '{"user_id": "u1", "day": 99, "variant": "T", "value": 2.0}',
            '{"user_id": "u1", "day": 2, "variant": "T", "value": "wat"}',
            '{"user_id": "u1", "day": 2, "variant": "X", "value": 2.0}',
            '{"user_id": "", "day": 2, "variant": "T", "value": 2.0}',
            '{"user_id": "u1", "day": 3, "variant": "T", "value": 1e400}',
        ]
        traces, report = self._load(tmp_path, monday14, lines)
        assert report.total_rows == 8
        assert report.accepted_rows == 1
        assert report.rejected == {
            "invalid-json": 1,
            "day-out-of-range": 2,
            "invalid-value": 2,
            "invalid-variant": 1,
            "missing-user-id": 1,
        }
        assert user_rows(traces) == [("u1", "T", {1: 2.0})]

    def test_blank_lines_skipped(self, tmp_path, monday14):
        traces, report = self._load(
            tmp_path, monday14,
            ['{"user_id": "u1", "day": 1, "value": 1.0, "variant": "C"}', ""],
        )
        assert report.total_rows == 1 and len(traces) == 1

    def test_missing_file(self, tmp_path, monday14):
        with pytest.raises(DataFormatError):
            read_event_log(tmp_path / "nope.jsonl", monday14)

    def test_byte_order_mark_skipped(self, tmp_path, monkeypatch, monday14):
        """A log that starts with a UTF-8 byte-order mark reads as the same log
        without one, and its first chunk stays on the canonical path."""
        plain, marked = tmp_path / "plain.jsonl", tmp_path / "marked.jsonl"
        write_event_log(plain, simulate_model1(Model1Params(p=0.5, tau=1.0, sigma=1.0), 20,
                                               Seed(3)))
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        monkeypatch.setattr(eventlog, "_decode_lines", None)
        assert read_event_log(marked, monday14) == read_event_log(plain, monday14)


class TestStringNumbers:
    """A day or value given as a string is read only in strict ASCII spelling."""

    @staticmethod
    def _read(tmp_path, calendar, suffix, day, value):
        path = tmp_path / f"log{suffix}"
        if suffix == ".csv":
            buffer = io.StringIO()
            csv.writer(buffer).writerows([["user_id", "day", "value"], ["u1", day, value]])
            path.write_text(buffer.getvalue(), encoding="utf-8")
        else:
            write_rows(path, [{"user_id": "u1", "day": day, "value": value}])
        return read_event_log(path, calendar)

    @pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
    @pytest.mark.parametrize("day, value, expected", [
        (" 4 ", " 2 ", (4, 2.0)),
        ("+4", "-1.5", (4, -1.5)),
        ("\t04", "+.5", (4, 0.5)),
        ("4", "1.", (4, 1.0)),
        ("4", "2.5E-1", (4, 0.25)),
        ("4", "-1e3 ", (4, -1000.0)),
    ])
    def test_ascii_spellings_accepted(self, tmp_path, monday14, suffix, day, value, expected):
        traces, report = self._read(tmp_path, monday14, suffix, day, value)
        assert report.rejected == {}
        assert user_rows(traces) == [("u1", None, {expected[0]: expected[1]})]

    @pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
    @pytest.mark.parametrize("day, value, reason", [
        ("1_0", "1.0", "invalid-day"),
        ("\u0663", "1.0", "invalid-day"),
        ("\u00a04", "1.0", "invalid-day"),
        ("4.0", "1.0", "invalid-day"),
        ("1e1", "1.0", "invalid-day"),
        ("", "1.0", "invalid-day"),
        ("-3", "1.0", "day-out-of-range"),
        ("4", "1_000.5", "invalid-value"),
        ("4", "\u0661.5", "invalid-value"),
        ("4", "\u00a02", "invalid-value"),
        ("4", ".", "invalid-value"),
        ("4", "1e", "invalid-value"),
        ("4", "nan", "invalid-value"),
        ("4", "inf", "invalid-value"),
    ])
    def test_other_spellings_rejected(self, tmp_path, monday14, suffix, day, value, reason):
        traces, report = self._read(tmp_path, monday14, suffix, day, value)
        assert report.rejected == {reason: 1}
        assert len(traces) == 0


class TestCsvParsing:
    def test_header_driven_columns(self, tmp_path, monday14):
        path = tmp_path / "log.csv"
        path.write_text(
            "value,user_id,extra,day,variant\n"
            "2.0,u1,zz,1,T\n"
            "3.0,u1,zz,2,T\n"
            "4.0,u2,zz,1,C\n"
        )
        traces, report = read_event_log(path, monday14)
        assert report.accepted_rows == 3
        assert user_rows(traces) == [("u1", "T", {1: 2.0, 2: 3.0}), ("u2", "C", {1: 4.0})]

    def test_optional_variant_column(self, tmp_path, monday14):
        path = tmp_path / "log.csv"
        path.write_text("user_id,day,value\nu1,1,2.0\n")
        traces, _ = read_event_log(path, monday14)
        assert user_rows(traces) == [("u1", None, {1: 2.0})]

    def test_missing_required_column(self, tmp_path, monday14):
        path = tmp_path / "log.csv"
        path.write_text("user_id,value\nu1,2.0\n")
        with pytest.raises(DataFormatError, match="day"):
            read_event_log(path, monday14)

    def test_byte_order_mark_skipped(self, tmp_path, monday14):
        """A spreadsheet's "CSV UTF-8" export starts with a byte-order mark."""
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text("user_id,day,variant,value\nu1,5,T,1.25\nu2,3,C,2.0\nu1,6,T,0.5\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        traces, report = read_event_log(marked, monday14)
        assert (traces, report) == read_event_log(plain, monday14)
        assert report.accepted_rows == 3

    def test_csv_equivalent_to_jsonl(self, tmp_path, monday14):
        jsonl = tmp_path / "log.jsonl"
        jsonl.write_text('{"user_id": "u1", "day": 5, "variant": "T", "value": 1.25}\n')
        csvp = tmp_path / "log.csv"
        csvp.write_text("user_id,day,variant,value\nu1,5,T,1.25\n")
        assert read_event_log(jsonl, monday14)[0] == read_event_log(csvp, monday14)[0]
