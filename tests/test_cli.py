import csv
import hashlib
import io
import json
import warnings

import pytest

from openbounded.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


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

    def test_missing_file_exit_data(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "analyze", "-i", str(tmp_path / "nope.jsonl"))
        assert code == 2

    def test_unknown_flag_exit_usage(self, capsys):
        code, _, _ = run_cli(capsys, "analyze", "--nonsense")
        assert code == 1

    def test_welch_flag_accepted(self, small_log, capsys):
        code, out, _ = run_cli(capsys, "analyze", "-i", str(small_log), "--test", "welch")
        assert code == 0 and json.loads(out)["config"]["test"] == "welch"


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
        assert all(c["repetitions"] == 500 for c in json.loads(out)["curves"])

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
            assert row["source"] == "closed-form"
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

    def test_unsupported_regime_marked_oracle_only(self, capsys):
        code, out, _ = run_cli(
            capsys, "analytic", "--model", "model1", "--k", "10", "--p-grid", "0.5",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        for row in rows:
            assert row["source"] == "oracle-only"
            assert row["bias_per_tau_prime"] == ""
            assert row["oracle_bias"] != ""

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "analytic", "--model", "model1", "--p-grid", "0.5", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert {row["policy"] for row in payload["rows"]} == {"open", "bounded"}


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
