import json

import pytest

from openbounded import (
    DataFormatError,
    Model1Params,
    Seed,
    Variant,
    delta_estimate,
    read_event_log,
    simulate_model1,
    write_event_log,
    OPEN,
)
from openbounded.eventlog import (
    EventLogRecord,
    IngestReport,
    build_traces,
    sidecar_path,
    write_metadata,
)
from conftest import user_rows


class TestRoundTrip:
    def test_traces_survive_write_read(self, tmp_path, monday14):
        traces = simulate_model1(Model1Params(p=0.5, tau=1.0, sigma=1.0), 40, Seed(3))
        path = tmp_path / "events.jsonl"
        write_event_log(path, traces)
        loaded, report = read_event_log(path, monday14)
        active = [row for row in user_rows(traces) if row[2]]
        assert user_rows(loaded) == sorted(active)
        assert report.n_rejected == 0
        assert report.accepted_rows == traces.present.sum()

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
    def test_same_day_rows_summed(self, monday14):
        report = IngestReport()
        records = [
            EventLogRecord("u1", 2, 1.5, Variant.TREATMENT),
            EventLogRecord("u1", 2, 2.5, Variant.TREATMENT),
            EventLogRecord("u1", 4, 1.0, Variant.TREATMENT),
        ]
        traces = build_traces(records, report, monday14)
        assert user_rows(traces) == [("u1", "T", {2: 4.0, 4: 1.0})]

    def test_split_rows_exactly_equivalent(self, monday14):
        report_a, report_b = IngestReport(), IngestReport()
        whole = [EventLogRecord("u1", 3, 5.0, Variant.CONTROL)]
        halves = [
            EventLogRecord("u1", 3, 2.5, Variant.CONTROL),
            EventLogRecord("u1", 3, 2.5, Variant.CONTROL),
        ]
        assert build_traces(whole, report_a, monday14) == build_traces(halves, report_b, monday14)

    def test_users_sorted_regardless_of_input_order(self, monday14):
        report = IngestReport()
        records = [
            EventLogRecord("zz", 1, 1.0, Variant.TREATMENT),
            EventLogRecord("aa", 1, 1.0, Variant.CONTROL),
        ]
        traces = build_traces(records, report, monday14)
        assert traces.user_ids == ("aa", "zz")

    def test_variant_conflict_rejected(self, monday14):
        report = IngestReport()
        records = [
            EventLogRecord("u1", 1, 1.0, Variant.TREATMENT),
            EventLogRecord("u1", 2, 1.0, Variant.CONTROL),
            EventLogRecord("u1", 3, 1.0, Variant.TREATMENT),
        ]
        traces = build_traces(records, report, monday14)
        assert report.rejected == {"variant-conflict": 1}
        assert user_rows(traces) == [("u1", "T", {1: 1.0, 3: 1.0})]

    def test_variant_required_mode(self, monday14):
        report = IngestReport()
        records = [
            EventLogRecord("u1", 1, 1.0, None),
            EventLogRecord("u2", 1, 1.0, Variant.CONTROL),
        ]
        traces = build_traces(records, report, monday14, require_variant=True)
        assert traces.user_ids == ("u2",)
        assert report.rejected == {"missing-variant": 1}


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

    def test_csv_equivalent_to_jsonl(self, tmp_path, monday14):
        jsonl = tmp_path / "log.jsonl"
        jsonl.write_text('{"user_id": "u1", "day": 5, "variant": "T", "value": 1.25}\n')
        csvp = tmp_path / "log.csv"
        csvp.write_text("user_id,day,variant,value\nu1,5,T,1.25\n")
        assert read_event_log(jsonl, monday14)[0] == read_event_log(csvp, monday14)[0]
