import csv
import hashlib
import io
import json
import math
import os
import warnings

import pytest

from openbounded import analytic, cli, eventlog, metrics, power, simulate
from openbounded.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Unreachable:
    """Stands in for an allocator: any use of it fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"{name} reached before the size check")

    def __call__(self, *args, **kwargs):
        raise AssertionError("allocation reached before the size check")


class TestSimulateCommand:
    def test_model2_row_and_user_counts(self, tmp_path, capsys):
        out = tmp_path / "m2.jsonl"
        code, _, err = run_cli(
            capsys, "simulate", "--model", "model2", "--ns", "10", "--seed", "1",
            "-o", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2 * 10 * 105
        users = {json.loads(line)["user_id"] for line in lines}
        assert len(users) == 2 * 10 * 14

    def test_model1_certain_activity_rows(self, tmp_path, capsys):
        out = tmp_path / "m1.jsonl"
        code, _, _ = run_cli(
            capsys, "simulate", "--model", "model1", "--p", "1.0",
            "--n-per-arm", "25", "--seed", "2", "-o", str(out),
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 2 * 25 * 14

    def test_rerun_byte_identical(self, tmp_path, capsys):
        args = ["simulate", "--model", "model1", "--p", "0.4", "--sigma", "1.5",
                "--n-per-arm", "50", "--seed", "7"]
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run_cli(capsys, *args, "-o", str(out1))[0] == 0
        assert run_cli(capsys, *args, "-o", str(out2))[0] == 0
        assert sha(out1) == sha(out2)
        meta1 = json.loads((tmp_path / "a.meta.json").read_text())
        meta2 = json.loads((tmp_path / "b.meta.json").read_text())
        meta1["config"].pop("output"), meta2["config"].pop("output")
        assert meta1 == meta2

    def test_invalid_params_exit_usage(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--model", "model1", "--p", "1.5",
            "-o", str(tmp_path / "x.jsonl"),
        )
        assert code == 1
        assert err.startswith("error:") and "\n" not in err.strip("\n")

    @pytest.mark.parametrize("command", ["simulate", "power"])
    @pytest.mark.parametrize("flags", [
        ["--c", "1e308", "--sigma", "1e308"],
        ["--sigma", "1e308", "--noise", "lognormal"],
    ], ids=["normal", "lognormal"])
    def test_outcomes_past_float_range_exit_usage(self, tmp_path, capsys, command, flags):
        out = tmp_path / "out.jsonl"
        argv = [command, "--model", "model1", *flags, "--n-per-arm", "50", "-o", str(out)]
        if command == "power":
            argv += ["--fractions", "1.0", "--reps", "2"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, *argv)
        assert code == 1 and not out.exists()
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("output", [[], ["-o", "-"]], ids=["default", "dash"])
    def test_output_path_required(self, tmp_path, capsys, monkeypatch, output):
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run_cli(
            capsys, "simulate", "--model", "model1", "--n-per-arm", "3", *output
        )
        assert code == 1 and stdout == "" and list(tmp_path.iterdir()) == []
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("name", ["log.csv", "log.CSV", "log.jsonl.Csv"])
    def test_csv_output_refused(self, tmp_path, capsys, name):
        """simulate writes JSONL, which the reader would parse as CSV under this name."""
        code, stdout, err = run_cli(
            capsys, "simulate", "--model", "model1", "--n-per-arm", "3", "-o", str(tmp_path / name)
        )
        assert code == 1 and stdout == "" and list(tmp_path.iterdir()) == []
        assert err.startswith("error:") and err.count("\n") == 1 and ".csv" in err

    def test_metadata_sidecar_fields(self, tmp_path, capsys):
        out = tmp_path / "m1.jsonl"
        run_cli(capsys, "simulate", "--model", "model1", "--seed", "3", "-o", str(out))
        meta = json.loads((tmp_path / "m1.meta.json").read_text())
        assert meta["schema"] == 1
        assert meta["model"] == "model1"
        assert meta["seed"] == 3
        assert meta["params"]["k"] == 14
        assert "tool_version" in meta


class TestAnalyzeCommand:
    @pytest.fixture
    def small_log(self, tmp_path, capsys):
        path = tmp_path / "log.jsonl"
        run_cli(
            capsys, "simulate", "--model", "model1", "--tau", "1.0", "--sigma", "1.0",
            "--n-per-arm", "2000", "--seed", "11", "-o", str(path),
        )
        return path

    def test_recovers_injected_effect(self, small_log, capsys):
        code, out, _ = run_cli(capsys, "analyze", "-i", str(small_log))
        assert code == 0
        report = json.loads(out)
        open_result = next(r for r in report["results"] if r["policy"] == "open")
        se = open_result["variance"] ** 0.5
        assert abs(open_result["delta"] - 1.0) <= 3 * se

    def test_open_includes_at_least_bounded(self, small_log, capsys):
        _, out, _ = run_cli(capsys, "analyze", "-i", str(small_log))
        report = json.loads(out)
        by_policy = {r["policy"]: r for r in report["results"]}
        assert by_policy["open"]["n_included"] >= by_policy["bounded"]["n_included"]
        assert 0.0 <= by_policy["open"]["gamma"] <= 1.0

    def test_csv_format(self, small_log, capsys):
        code, out, _ = run_cli(capsys, "analyze", "-i", str(small_log), "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {row["policy"] for row in rows} == {"open", "bounded"}
        float(rows[0]["delta"])

    def test_csv_blanks_non_finite_cells(self, tmp_path, capsys):
        # Constant outcomes: zero variance, so the statistic is infinite.
        rows = [{"user_id": f"t{i}", "day": 1, "variant": "T", "value": 2.0} for i in (1, 2)]
        rows += [{"user_id": f"c{i}", "day": 1, "variant": "C", "value": 1.0} for i in (1, 2)]
        path = tmp_path / "flat.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        code, out, _ = run_cli(capsys, "analyze", "-i", str(path), "--format", "csv")
        assert code == 0
        for row in csv.DictReader(io.StringIO(out)):
            assert row["delta"] == "1.0" and row["statistic"] == ""

    def test_deterministic_output(self, small_log, tmp_path, capsys):
        target = tmp_path / "report.json"
        run_cli(capsys, "analyze", "-i", str(small_log), "-o", str(target))
        first = sha(target)
        assert target.read_bytes() != b""
        run_cli(capsys, "analyze", "-i", str(small_log), "-o", str(target))
        assert sha(target) == first

    def test_empty_log_exit_insufficient(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        code, _, err = run_cli(capsys, "analyze", "-i", str(path))
        assert code == 3 and err.startswith("error:")

    def test_mostly_garbage_exit_data(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("junk\njunk\njunk\n" + '{"user_id":"u","day":1,"variant":"T","value":1}\n')
        code, _, err = run_cli(capsys, "analyze", "-i", str(path))
        assert code == 2 and err.startswith("error:")

    def test_few_bad_rows_warn_but_proceed(self, small_log, capsys):
        with open(small_log, "a") as fh:
            fh.write('{"user_id":"zz","day":99,"variant":"T","value":1.0}\n')
        code, out, err = run_cli(capsys, "analyze", "-i", str(small_log))
        assert code == 0
        assert "warning:" in err and "day-out-of-range" in err
        assert json.loads(out)["ingest"]["rejected"] == {"day-out-of-range": 1}

    def test_few_bad_rows_then_failure_print_one_line(self, tmp_path, capsys):
        # One rejected row of 11 would warn on success; here the treatment arm is too small.
        rows = [{"user_id": f"u{u}", "day": 1, "variant": "C" if u else "T", "value": 1.0}
                for u in range(10)]
        path = tmp_path / "log.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows) + "not json\n")
        code, out, err = run_cli(capsys, "analyze", "-i", str(path))
        assert code == 3 and out == ""
        assert err.startswith("error: treatment group") and err.count("\n") == 1

    def test_same_day_overflow_exit_data(self, tmp_path, capsys):
        # Each row is finite; their sum for one user-day is not.
        rows = [{"user_id": "t0", "day": 1, "variant": "T", "value": 1e308}] * 2
        rows += [{"user_id": f"t{i}", "day": 1, "variant": "T", "value": 1.0} for i in (1, 2)]
        rows += [{"user_id": f"c{i}", "day": 2, "variant": "C", "value": 1.0} for i in (1, 2)]
        path = tmp_path / "huge.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "analyze", "-i", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "t0" in err

    @pytest.mark.parametrize("command", ["analyze", "power", "power-sweep"])
    @pytest.mark.parametrize("treatment", [
        [("t0", 1, 1e308), ("t0", 2, 1e308), ("t1", 1, 1.0), ("t2", 1, 1.0)],
        [("t0", 1, 1e308), ("t1", 1, -1e308), ("t2", 1, 1e308)],
    ], ids=["user-sum", "arm-variance"])
    def test_aggregate_overflow_exit_data(self, tmp_path, capsys, command, treatment):
        # Every row and every user-day is finite; a user's sum or an arm's
        # variance is not. "power-sweep" reaches the arm variance only through
        # subsamples: at 0.9 all five users are drawn.
        rows = [{"user_id": u, "day": day, "variant": "T", "value": v} for u, day, v in treatment]
        rows += [{"user_id": f"c{i}", "day": 2, "variant": "C", "value": 1.0} for i in (1, 2)]
        path = tmp_path / "huge.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        argv = ["-i", str(path)]
        if command == "power":
            argv += ["--fractions", "1.0", "--reps", "2"]
        if command == "power-sweep":
            command = "power"
            argv += ["--fractions", "0.5,0.9", "--reps", "20"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, command, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("line, reason", [
        ('{"user_id":"zz","day":1,"variant":"T","value":1' + "0" * 400 + "}", "invalid-value"),
        ('{"user_id":"zz","day":1,"variant":"T","value":' + "1" * 5000 + "}", "invalid-json"),
        ("[" * 100_000, "invalid-json"),
    ], ids=["past-float-range", "past-digit-limit", "past-recursion-limit"])
    def test_hostile_row_rejected_with_warning(self, small_log, capsys, line, reason):
        with open(small_log, "a") as fh:
            fh.write(line + "\n")
        code, out, err = run_cli(capsys, "analyze", "-i", str(small_log))
        assert code == 0
        assert err.startswith("warning:") and err.count("\n") == 1 and reason in err
        assert json.loads(out)["ingest"]["rejected"] == {reason: 1}

    @pytest.mark.parametrize("name, data", [
        ("log.jsonl", b'\xff{"user_id":"u1","day":1,"variant":"T","value":1.0}\n'),
        ("log.csv", b"user_id,day,variant,value\nu1,1,T," + b"9" * 200_000 + b"\n"),
    ], ids=["not-utf8", "csv-field-past-limit"])
    def test_unreadable_log_exit_data(self, tmp_path, capsys, name, data):
        path = tmp_path / name
        path.write_bytes(data)
        code, out, err = run_cli(capsys, "analyze", "-i", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_unknown_flag_exit_usage(self, capsys):
        code, _, _ = run_cli(capsys, "analyze", "--nonsense")
        assert code == 1

    def test_welch_flag_accepted(self, small_log, capsys):
        code, out, _ = run_cli(capsys, "analyze", "-i", str(small_log), "--test", "welch")
        assert code == 0 and json.loads(out)["config"]["test"] == "welch"

    @pytest.mark.parametrize("scale", [1e79, 1e-160])
    def test_welch_where_variance_squares_leave_float_range(self, tmp_path, capsys, scale):
        # The variance's square overflows at 1e79 and underflows to 0 at
        # 1e-160; Welch's degrees of freedom must not need it.
        rows = [{"user_id": f"{arm}{u}", "day": 1 + u % 3, "variant": arm.upper(),
                 "value": (base + u % 3) * scale}
                for arm, base in (("t", 100.0), ("c", 1.0)) for u in range(8)]
        path = tmp_path / "scaled.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        code, out, err = run_cli(capsys, "analyze", "-i", str(path), "--test", "welch")
        assert code == 0 and err == ""
        p_values = [result["p_value"] for result in json.loads(out)["results"]]
        assert len(p_values) == 2 and all(0.0 <= p < 0.05 for p in p_values)
        code, out, err = run_cli(capsys, "power", "-i", str(path), "--test", "welch",
                                 "--fractions", "0.5,1.0", "--reps", "4")
        assert code == 0 and err == ""
        for curve in json.loads(out)["curves"]:
            assert curve["points"][-1]["power"] == 1.0


class TestPowerCommand:
    def test_single_fraction_matches_analyze(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        run_cli(
            capsys, "simulate", "--model", "model1", "--tau", "0.5", "--sigma", "1.0",
            "--n-per-arm", "300", "--seed", "21", "-o", str(log),
        )
        _, out_a, _ = run_cli(capsys, "analyze", "-i", str(log))
        deltas = {r["policy"]: r["delta"] for r in json.loads(out_a)["results"]}
        code, out_p, _ = run_cli(
            capsys, "power", "-i", str(log), "--fractions", "1.0", "--reps", "10",
            "--seed", "5",
        )
        assert code == 0
        curves = json.loads(out_p)["curves"]
        for curve in curves:
            assert curve["points"][0]["est_p50"] == deltas[curve["policy"]]
            assert curve["repetitions"] == 10

    def test_default_repetitions_500(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        run_cli(
            capsys, "simulate", "--model", "model1", "--tau", "2.0", "--sigma", "0.5",
            "--n-per-arm", "40", "--seed", "22", "-o", str(log),
        )
        code, out, _ = run_cli(
            capsys, "power", "-i", str(log), "--fractions", "0.5,1.0", "--seed", "5",
        )
        assert code == 0
        curves = json.loads(out)["curves"]
        assert all(c["repetitions"] == 500 for c in curves)
        assert all(c["points"][-1]["power_se"] == 0.0 for c in curves)

    def test_injection_into_variantless_log(self, tmp_path, capsys):
        log = tmp_path / "raw.jsonl"
        lines = []
        for u in range(60):
            for day in (1, 2, 6):
                lines.append(json.dumps({"user_id": f"u{u:03d}", "day": day, "value": 100.0}))
        log.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(
            capsys, "power", "-i", str(log), "--inject-lift", "0.05",
            "--fractions", "1.0", "--reps", "5", "--seed", "9", "--policy", "open",
        )
        assert code == 0
        point = json.loads(out)["curves"][0]["points"][0]
        assert point["est_p50"] == pytest.approx(5.0)

    @pytest.mark.parametrize("flag", ["--inject-lift", "--inject-weekend-lift"])
    @pytest.mark.parametrize("lift", ["nan", "inf", "-inf"])
    def test_non_finite_injected_lift_exit_usage(self, tmp_path, capsys, flag, lift):
        log = tmp_path / "raw.jsonl"
        log.write_text("".join(
            json.dumps({"user_id": f"u{u:03d}", "day": day, "value": 1.0}) + "\n"
            for u in range(20) for day in (1, 6)
        ))
        lifts = {"--inject-lift": "0.01", flag: lift}
        code, out, err = run_cli(
            capsys, "power", "-i", str(log), *(f"{f}={v}" for f, v in lifts.items()),
            "--fractions", "1.0", "--reps", "2",
        )
        assert code == 1 and out == ""
        label = "weekend lift" if flag == "--inject-weekend-lift" else "injected lift"
        assert err.startswith("error:") and err.count("\n") == 1 and label in err

    @pytest.mark.parametrize("value, lifts, expected", [
        (100.0, ["--inject-lift", "1e307"], 1),
        (1e308, ["--inject-lift", "0.01"], 2),
        # Each lift is finite; together they take a weekend outcome past float range.
        (100.0, ["--inject-lift", "1e306", "--inject-weekend-lift", "1e306"], 1),
    ], ids=["scaled-lift", "control-sum", "lifted-outcome"])
    def test_relative_lift_past_float_range(self, tmp_path, capsys, value, lifts, expected):
        log = tmp_path / "raw.jsonl"
        log.write_text("".join(
            json.dumps({"user_id": f"u{u:03d}", "day": day, "value": value}) + "\n"
            for u in range(20) for day in (1, 6)
        ))
        code, out, err = run_cli(
            capsys, "power", "-i", str(log), *lifts, "--fractions", "1.0", "--reps", "2",
        )
        assert code == expected and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "float range" in err

    @pytest.mark.parametrize("source, flags", [
        ("variants", ["--inject-weekend-lift", "0.5"]),
        ("model", ["--inject-weekend-lift", "0.5"]),
        ("variants", ["--inject-absolute"]),
        ("model", ["--inject-absolute"]),
        ("model", ["--inject-lift", "0.01"]),
    ])
    def test_injection_flags_refused_where_nothing_is_injected(self, tmp_path, capsys, source,
                                                               flags):
        """A log that carries variants and a model run inject nothing; an
        injection flag there is refused, not dropped."""
        log = tmp_path / "log.jsonl"
        log.write_text("".join(
            json.dumps({"user_id": f"u{u:03d}", "day": 1, "value": 1.0 + u,
                        "variant": "TC"[u % 2]}) + "\n" for u in range(20)
        ))
        where = ["-i", str(log)] if source == "variants" else ["--model", "model1",
                                                               "--n-per-arm", "20"]
        code, out, err = run_cli(capsys, "power", *where, *flags, "--fractions", "1.0",
                                 "--reps", "2")
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "--inject" in err

    def test_variantless_log_without_injection_rejected(self, tmp_path, capsys):
        log = tmp_path / "raw.jsonl"
        log.write_text('{"user_id":"u1","day":1,"value":1.0}\n')
        code, _, err = run_cli(capsys, "power", "-i", str(log), "--fractions", "1.0")
        assert code == 1 and "inject" in err

    def test_csv_output(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "power", "--model", "model1", "--tau", "1.0", "--n-per-arm", "50",
            "--fractions", "0.5,1.0", "--reps", "20", "--seed", "2", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4
        assert {row["fraction"] for row in rows} == {"0.5", "1.0"}
        for row in rows:
            reps = 20 if row["fraction"] == "0.5" else 1
            power = float(row["power"])
            assert float(row["power_se"]) == math.sqrt(power * (1.0 - power) / reps)

    def test_input_and_model_conflict(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "power", "-i", "x.jsonl", "--model", "model1", "--fractions", "1.0",
        )
        assert code == 1


class TestAnalyticCommand:
    def test_model1_open_bias_zero_and_oracle_agrees(self, capsys):
        code, out, _ = run_cli(
            capsys, "analytic", "--model", "model1", "--p-grid", "0.1,0.5,0.9",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 6
        for row in rows:
            closed, oracle = float(row["bias_per_tau_prime"]), float(row["oracle_bias"])
            assert abs(closed - oracle) <= 1e-9
            if row["policy"] == "open":
                assert abs(closed) <= 1e-9

    def test_model2_tabulated_constants(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "--model", "model2", "--ns", "1")
        assert code == 0
        rows = {r["policy"]: r for r in csv.DictReader(io.StringIO(out))}
        assert float(rows["bounded"]["bias_per_tau_prime"]) == 0.0
        assert float(rows["open"]["bias_per_tau_prime"]) == pytest.approx(0.19, abs=0.005)
        assert float(rows["bounded"]["eta"]) == pytest.approx(0.041, abs=0.0005)
        assert float(rows["open"]["eta"]) == pytest.approx(0.033, abs=0.0005)
        assert float(rows["open"]["zeta"]) == pytest.approx(0.004, abs=0.0005)
        for row in rows.values():
            assert abs(float(row["oracle_bias"]) - float(row["bias_per_tau_prime"])) <= 1e-9

    def test_any_calendar_has_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "analytic", "--model", "model1", "--k", "10", "--p-grid", "0.5",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {row["policy"] for row in rows} == {"open", "bounded"}
        for row in rows:
            closed, oracle = float(row["bias_per_tau_prime"]), float(row["oracle_bias"])
            assert abs(closed - oracle) <= 1e-12
            assert float(row["eta"]) > 0.0 and float(row["zeta"]) >= 0.0

    def test_beyond_oracle_range_still_finite(self, capsys):
        code, out, _ = run_cli(
            capsys, "analytic", "--model", "model1", "--k", "28", "--p-grid", "0.2,0.8",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4
        for row in rows:
            assert row["oracle_bias"] == ""
            for column in ("bias_per_tau_prime", "eta", "zeta"):
                assert math.isfinite(float(row[column]))

    def test_tiny_activity_probability_stays_finite(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "--model", "model1", "--p-grid", "1e-17")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2
        for row in rows:
            for column in ("bias_per_tau_prime", "eta", "zeta", "oracle_bias"):
                assert math.isfinite(float(row[column]))

    def test_coefficients_past_float_range_exit_usage(self, capsys):
        code, out, err = run_cli(capsys, "analytic", "--model", "model1", "--p-grid", "1e-320")
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "p=1e-320" in err

    @pytest.mark.parametrize("model", ["model1", "model2"])
    def test_thousand_day_window_stays_finite(self, capsys, model):
        # Binomial coefficients past 1029 choose j exceed float range; the pmf
        # rows are built by convolution so no term ever does.
        code, out, err = run_cli(
            capsys, "analytic", "--model", model, "--k", "1100", "--p-grid", "0.5", "--no-oracle",
        )
        assert code == 0 and err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {row["policy"] for row in rows} == {"open", "bounded"}
        for row in rows:
            for column in ("bias_per_tau_prime", "eta", "zeta"):
                assert math.isfinite(float(row[column]))

    def test_three_week_window_has_oracle_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "analytic", "--model", "model1", "--k", "21", "--d", "7",
            "--p-grid", "0.2,0.8",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {row["policy"] for row in rows} == {"open", "bounded"}
        for row in rows:
            closed, oracle = float(row["bias_per_tau_prime"]), float(row["oracle_bias"])
            assert abs(closed - oracle) <= 1e-12

    def test_model2_bounded_any_window(self, capsys):
        code, out, _ = run_cli(
            capsys, "analytic", "--model", "model2", "--d", "5", "--start-dow", "thu",
        )
        assert code == 0
        rows = {r["policy"]: r for r in csv.DictReader(io.StringIO(out))}
        bounded_row = rows["bounded"]
        assert abs(float(bounded_row["bias_per_tau_prime"]) - float(bounded_row["oracle_bias"])) <= 1e-12
        assert float(bounded_row["zeta"]) > 0.0

    @pytest.mark.parametrize("model,d", [("model1", "14"), ("model1", "20"), ("model2", "14")])
    def test_window_admitting_no_cohort_exit_usage(self, capsys, model, d):
        code, out, err = run_cli(capsys, "analytic", "--model", model, "--d", d)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_model2_open_check_ignores_bounded_d(self, capsys):
        # Open has no observation length; a --d beyond k must not blank its check.
        code, out, _ = run_cli(
            capsys, "analytic", "--model", "model2", "--policy", "open", "--d", "20",
        )
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert float(row["oracle_bias"]) == pytest.approx(float(row["bias_per_tau_prime"]), abs=1e-12)

    def test_model2_single_cohort_window_has_no_check(self, capsys):
        # bounded(13) over 14 days admits one arrival cohort: one user per arm at ns=1.
        code, out, _ = run_cli(
            capsys, "analytic", "--model", "model2", "--policy", "bounded", "--d", "13",
            "--ns", "1",
        )
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["oracle_bias"] == "" and math.isfinite(float(row["bias_per_tau_prime"]))

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "analytic", "--model", "model1", "--p-grid", "0.5", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert {row["policy"] for row in payload["rows"]} == {"open", "bounded"}


class TestOutputPath:
    """An ``-o`` that cannot be a file exits 1 before the command does its work."""

    # argv, and the work each command does first, replaced by ``Unreachable`` in the
    # module that defines it: a command imports its layers when it runs.
    COMMANDS = {
        "simulate": (["simulate", "--model", "model1", "--n-per-arm", "3"],
                     ((simulate, "simulate_model1"),)),
        "analyze": (["analyze", "-i", "log.jsonl"],
                    ((eventlog, "read_event_log"), (metrics, "metric_table"))),
        "power": (["power", "--model", "model1", "--n-per-arm", "10", "--reps", "2"],
                  ((simulate, "simulate_model1"), (power, "compare_policies"))),
        "analytic": (["analytic", "--model", "model1"],
                     ((cli, "model1_bias"), (cli, "enumeration_oracle"))),
    }

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_unwritable_output_refused_first(self, tmp_path, capsys, monkeypatch, command,
                                             where):
        argv, work = self.COMMANDS[command]
        for module, name in work:
            monkeypatch.setattr(module, name, Unreachable())
        output = tmp_path / "missing" / "out" if where == "missing-directory" else tmp_path
        code, stdout, err = run_cli(capsys, *argv, "-o", str(output))
        assert code == 1 and stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and str(output) in err
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("command", ["simulate", "analytic"])
    def test_empty_output_refused(self, capsys, monkeypatch, command):
        argv, work = self.COMMANDS[command]
        for module, name in work:
            monkeypatch.setattr(module, name, Unreachable())
        code, _, err = run_cli(capsys, *argv, "-o", "")
        assert code == 1 and err == "error: the output path is empty\n"

    @pytest.mark.parametrize("command, message", [
        ("simulate", "cannot write event log"), ("analytic", "cannot write report"),
    ])
    def test_failed_write_exits_usage(self, tmp_path, capsys, command, message):
        """A name too long for the file system passes the checks and fails at the write."""
        argv, _ = self.COMMANDS[command]
        code, stdout, err = run_cli(capsys, *argv, "-o", str(tmp_path / ("x" * 300)))
        assert code == 1 and stdout == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


class TestInputPath:
    """An ``-i`` that cannot be read exits 1 before the log reader runs."""

    @pytest.mark.parametrize("where", ["missing", "directory", "fifo", "unreadable"])
    @pytest.mark.parametrize("command", ["analyze", "power"])
    def test_unreadable_input_refused_first(self, tmp_path, capsys, monkeypatch, command, where):
        monkeypatch.setattr(eventlog, "read_event_log", Unreachable())
        path = tmp_path if where == "directory" else tmp_path / "log.jsonl"
        if where == "fifo":
            os.mkfifo(path)
        if where == "unreadable":
            path.write_text('{"user_id":"u1","day":1,"value":1.0,"variant":"T"}\n')
            path.chmod(0)
            if os.access(path, os.R_OK):  # the superuser reads any file
                access = os.access
                monkeypatch.setattr(os, "access", lambda p, mode: p != str(path) and access(p, mode))
        out = tmp_path / "out.json"
        code, stdout, err = run_cli(capsys, command, "-i", str(path), "-o", str(out))
        assert code == 1 and stdout == "" and not out.exists()
        assert err.startswith("error: input path ") and err.count("\n") == 1
        assert str(path) in err


class TestParameterChecks:
    """``--d`` is read only where a bounded policy is built, and every other
    parameter is checked before anything is drawn or allocated."""

    def test_d_ignored_without_a_bounded_policy(self, tmp_path, capsys):
        out = tmp_path / "m.jsonl"
        code, _, _ = run_cli(
            capsys, "simulate", "--model", "model1", "--d", "20", "--n-per-arm", "5",
            "-o", str(out),
        )
        assert code == 0
        assert json.loads((tmp_path / "m.meta.json").read_text())["params"]["d"] == 20
        power = ["power", "--model", "model1", "--d", "20", "--n-per-arm", "20",
                 "--fractions", "1.0", "--reps", "2", "-o", str(tmp_path / "p.json")]
        assert run_cli(capsys, *power, "--policy", "open")[0] == 0
        code, _, err = run_cli(capsys, *power, "--policy", "bounded")
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["analyze", "power", "analytic"])
    def test_d_equal_to_k_exit_usage(self, tmp_path, capsys, command):
        # bounded(k) admits no first-active day; each command refuses it alike.
        log = tmp_path / "log.jsonl"
        simulate_log = ["simulate", "--model", "model1", "--n-per-arm", "20", "-o", str(log)]
        assert run_cli(capsys, *simulate_log)[0] == 0
        flags = {"analyze": ["-i", str(log)], "power": ["-i", str(log), "--reps", "2"],
                 "analytic": ["--model", "model1"]}[command]
        out = tmp_path / "out.txt"
        code, stdout, err = run_cli(capsys, command, *flags, "--d", "14", "-o", str(out))
        assert code == 1 and stdout == "" and not out.exists()
        assert err.startswith("error: observation length d=14 ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["simulate", "--model", "model1", "--sigma", "nan"],
        ["simulate", "--model", "model2", "--sigma", "nan"],
        ["simulate", "--model", "model1", "--sigma-user", "nan"],
        ["simulate", "--model", "model2", "--sigma-user", "-1"],
        ["power", "--model", "model1", "--alpha", "7"],
        ["power", "--model", "model1", "--alpha", "nan"],
        ["power", "--model", "model1", "--alpha", "0"],
        ["power", "--model", "model1", "--fractions", "0:1:1e-12"],
        ["power", "--model", "model1", "--fractions", "0:inf:0.1"],
        ["power", "--model", "model1", "--fractions=-1e308:1e308:1"],
        ["power", "--model", "model1", "--fractions", "a:b:c"],
        ["analytic", "--model", "model1", "--p-grid", "0.01:1:1e-12"],
        ["analytic", "--model", "model1", "--p-grid", ""],
        ["analytic", "--model", "model1", "--p-grid", ","],
        ["analytic", "--model", "model1", "--p-grid", "1:0:0.1"],
    ], ids=lambda argv: "-".join(a.removeprefix("--") for a in argv))
    def test_hostile_value_exit_usage(self, tmp_path, capsys, argv):
        out = tmp_path / "out.jsonl"
        sizes = ["--n-per-arm", "20", "--ns", "2", "-o", str(out)]
        if argv[0] == "power":
            sizes += ["--reps", "2"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run_cli(capsys, *argv, *sizes)
        assert code == 1 and stdout == "" and not out.exists()
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("model", ["model1", "model2"])
    @pytest.mark.parametrize("flag, field, value", [
        ("--tau", "tau", "nan"),
        ("--tau-prime", "tau_prime", "inf"),
        ("--c", "c", "nan"),
        ("--c", "c", "-inf"),
    ])
    def test_non_finite_outcome_term_named(self, tmp_path, capsys, model, flag, field, value):
        out = tmp_path / "out.jsonl"
        code, stdout, err = run_cli(
            capsys, "simulate", "--model", model, f"{flag}={value}", "--n-per-arm", "5", "--ns", "1",
            "-o", str(out),
        )
        assert code == 1 and stdout == "" and not out.exists()
        assert err == f"error: {field} must be a finite number, got {float(value)}\n"

    @pytest.mark.parametrize("model", ["model1", "model2"])
    @pytest.mark.parametrize("flag, field", [("--sigma", "sigma"), ("--sigma-user", "sigma_user")])
    def test_infinite_noise_level_named(self, tmp_path, capsys, model, flag, field):
        out = tmp_path / "out.jsonl"
        code, stdout, err = run_cli(
            capsys, "simulate", "--model", model, flag, "inf", "--n-per-arm", "5", "--ns", "1",
            "-o", str(out),
        )
        assert code == 1 and stdout == "" and not out.exists()
        assert err == f"error: {field} must be a finite number >= 0, got inf\n"

    FLOAT_FLAGS = ["--p", "--tau", "--tau-prime", "--sigma", "--c", "--sigma-user", "--alpha",
                   "--inject-lift", "--inject-weekend-lift"]

    @pytest.mark.parametrize("path", ["flag", "config"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
    @pytest.mark.parametrize("flag", FLOAT_FLAGS)
    def test_non_finite_float_flag_exit_usage(self, tmp_path, capsys, flag, value, path):
        """Every float flag is checked, even where the command never reads it:
        an --input power run reads no model flag."""
        log = tmp_path / "raw.jsonl"
        log.write_text("".join(
            json.dumps({"user_id": f"u{u:03d}", "day": day, "value": 1.0 + u}) + "\n"
            for u in range(20) for day in (1, 6)
        ))
        out = tmp_path / "out.json"
        argv = ["power", "-i", str(log), "--inject-lift", "0.01", "--fractions", "1.0",
                "--reps", "2", "-o", str(out)]
        assert run_cli(capsys, *argv)[0] == 0
        out.unlink()
        if path == "flag":
            argv.append(f"{flag}={value}")
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({flag.removeprefix("--"): value}))
            argv += ["--config", str(cfg)]
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 1 and stdout == "" and not out.exists()
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must be a finite number" in err

    @pytest.mark.parametrize("argv, module, allocators", [
        (["power", "--model", "model1", "--n-per-arm", "10", "--reps", str(10**15)],
         power, ("np", "metric_table")),
        (["simulate", "--model", "model1", "--n-per-arm", str(10**12)], simulate, ("np",)),
        (["simulate", "--model", "model2", "--ns", str(10**12)], simulate, ("np",)),
        (["analytic", "--model", "model1", "--k", "10000"], analytic, ("np",)),
        (["analytic", "--model", "model2", "--k", "10000"], analytic, ("np",)),
    ], ids=["power-reps", "simulate-model1", "simulate-model2", "analytic-model1",
            "analytic-model2"])
    def test_oversized_request_refused(self, tmp_path, capsys, monkeypatch, argv, module,
                                       allocators):
        """The refusal comes before the module asks numpy for anything."""
        for name in allocators:
            monkeypatch.setattr(module, name, Unreachable())
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, *argv, "-o", str(out))
        assert code == 1 and stdout == "" and not out.exists()
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "may hold" in err

    @pytest.mark.parametrize("command", ["analyze", "power"])
    def test_oversized_log_window_refused(self, tmp_path, capsys, monkeypatch, command):
        """A log read with a huge --k is refused before its users x days matrix exists."""
        log = tmp_path / "log.jsonl"
        log.write_text("".join(
            json.dumps({"user_id": f"{arm}{u}", "day": 1, "variant": arm, "value": 1.0}) + "\n"
            for arm in "TC" for u in range(3)
        ))
        monkeypatch.setattr(eventlog, "np", Unreachable())
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, command, "-i", str(log), "--k", str(10**9),
                                    "-o", str(out))
        assert code == 1 and stdout == "" and not out.exists()
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "may hold" in err

    @pytest.mark.parametrize("error", [MemoryError("Unable to allocate 767. PiB"), MemoryError()])
    def test_memory_error_exit_usage(self, capsys, monkeypatch, error):
        def exhausted(args):
            raise error

        monkeypatch.setattr(cli, "cmd_analytic", exhausted)
        code, out, err = run_cli(capsys, "analytic", "--model", "model1")
        assert code == 1 and out == ""
        assert err.startswith("error: out of memory") and err.count("\n") == 1


class TestConfigResolution:
    def test_config_file_overrides_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 0.9, "seed": 123}))
        out = tmp_path / "m.jsonl"
        code, _, _ = run_cli(
            capsys, "simulate", "--model", "model1", "--p", "0.2", "--seed", "1",
            "--config", str(cfg), "-o", str(out),
        )
        assert code == 0
        meta = json.loads((tmp_path / "m.meta.json").read_text())
        assert meta["params"]["p"] == 0.9
        assert meta["seed"] == 123

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"frobnicate": 1}))
        code, _, err = run_cli(
            capsys, "simulate", "--model", "model1", "--config", str(cfg),
            "-o", str(tmp_path / "m.jsonl"),
        )
        assert code == 1 and "frobnicate" in err

    @pytest.mark.parametrize(
        "overrides",
        [
            {"k": "abc"},
            {"k": 2.5},
            {"k": [14]},
            {"d": None},
            {"p_grid": 5},
            {"format": "xml"},
            {"no_oracle": "yes"},
            {"policy": "open"},
            {"policy": ["open", "closed"]},
            {"policy": ["x"]},
            {"model": "model3"},
            {"command": "simulate"},
        ],
    )
    def test_wrong_typed_config_value_rejected(self, tmp_path, capsys, overrides):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(overrides))
        code, out, err = run_cli(
            capsys, "analytic", "--model", "model1", "--p-grid", "0.5", "--config", str(cfg),
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("data", [
        b'{"k": ' + b"1" * 5000 + b"}",
        b"[" * 100_000,
        b"\xff\xfe{}",
    ], ids=["huge-integer", "deep-nesting", "not-utf8"])
    def test_unreadable_config_file_rejected(self, tmp_path, capsys, data):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(data)
        code, out, err = run_cli(
            capsys, "analytic", "--model", "model1", "--p-grid", "0.5", "--config", str(cfg),
        )
        assert code == 1 and out == ""
        assert err.startswith("error: config file") and err.count("\n") == 1

    @pytest.mark.parametrize("command, flags, overrides", [
        ("simulate", ["--model", "model1"], {"model": "model3"}),
        ("power", ["--model", "model1"], {"model": "model3"}),
        ("analyze", ["-i", "x.jsonl"], {"policy": ["x"]}),
        ("power", ["-i", "x.jsonl"], {"policy": ["x"]}),
    ])
    def test_config_value_outside_choices_rejected(
        self, tmp_path, capsys, command, flags, overrides
    ):
        # The config reader refuses these before any command could meet an
        # unknown model or policy name.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(overrides))
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, command, *flags, "--config", str(cfg), "-o", str(out))
        assert code == 1 and stdout == "" and not out.exists()
        assert err.startswith("error: config option") and err.count("\n") == 1

    def test_config_text_converted_like_a_flag(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": "21", "policy": ["open"], "no_oracle": True}))
        code, out, _ = run_cli(
            capsys, "analytic", "--model", "model1", "--p-grid", "0.5", "--format", "json",
            "--config", str(cfg),
        )
        assert code == 0
        config = json.loads(out)["config"]
        assert (config["k"], config["policy"], config["no_oracle"]) == (21, ["open"], True)

    def test_seed_env_var_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OPENBOUNDED_SEED", "777")
        out = tmp_path / "m.jsonl"
        run_cli(capsys, "simulate", "--model", "model1", "--n-per-arm", "5", "-o", str(out))
        meta = json.loads((tmp_path / "m.meta.json").read_text())
        assert meta["seed"] == 777

    def test_version_flag(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0 and "openbounded" in out

    @pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"], ["simulate", "-h"]])
    def test_help_flag(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and out.startswith("usage:") and err == ""

    @pytest.mark.parametrize("argv", [
        ["analyze", "-i", "log.jsonl", "--frobnicate"],
        ["analyze", "-i", "log.jsonl", "--test=é"],
        ["analytic", "--model", "model1", "--n-per-arm=abc"],
        ["analyze", "-i"],
    ], ids=["unknown-flag", "outside-choices", "not-an-int", "missing-value"])
    def test_parser_error_one_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
