"""Pinned sha256 digests of every CLI output the paper's results depend on.

Criterion 9 only checks that a rerun matches the run before it; these
digests catch a refactor that moves any number. Update a digest only when
the change means to alter that output, and record why in CHANGES.md.

The commands run inside ``tmp_path`` with relative paths, because the
metadata sidecar and the reports embed the paths they were given.
"""

import hashlib
import json
from pathlib import Path

import pytest

from openbounded import eventlog, parallel, power
from openbounded.cli import main

GOLDEN = {
    "events.jsonl":
        "722e37bd87076c8e9d58655132a2f5b8f5a5a06ea7a1bcddec0259cb37c9cebd",
    "events.meta.json":
        "4c5179cb4f9504f24d84989409085ed47118497891845ec000a9d3a499e6cee6",
    "report.json":
        "03a58cec7ca08887aaf869198f2a844fbab67c609ace2442e2c1b5416ae73cb1",
    "power.csv":
        "f8f94df3a2261f9fcc966d06b975df89bf92a814eb19618bed000b60a8da0fc3",
    "table.csv":
        "247b1af37247583cc7d4d75486af83defda81b7e0ae5c944e41233d03c618534",
    "model2.csv":
        "a1da614e46ec486129609ccfe1c73309c8499f374c38c79f52cf99cdb0273835",
    "inject.json":
        "f31f8cbcf590a31bd71860fab51ff1457a1cd1240d8e77c430b8d950cb368d1c",
    "report.csv":
        "290dd5bf8e3958267a47000a482264fe2c1c83764a8a2bc14b83ad5d95d9211f",
    "table.json":
        "20bedcc3feb9ebf9fd602387459a705a235fb339b68e0dd5bfedae5b01cd9c92",
    "stdout.json":
        "da29fc6f88ec4cf528a087eeb9192cfa6fb95ba077a687062c610809f7869045",
}


def _strip_variants(src: Path, dst: Path) -> None:
    with open(src, encoding="utf-8") as fin, open(dst, "w", encoding="utf-8") as fout:
        for line in fin:
            row = json.loads(line)
            row["variant"] = None
            fout.write(json.dumps(row) + "\n")


def test_cli_outputs_match_pinned_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = [
        ["simulate", "--model", "model1", "--p", "0.4", "--tau", "1.0", "--sigma", "1.0",
         "--n-per-arm", "200", "--seed", "42", "-o", "events.jsonl"],
        ["analyze", "-i", "events.jsonl", "-o", "report.json"],
        ["power", "-i", "events.jsonl", "--fractions", "0.5,1.0", "--reps", "40",
         "--seed", "42", "--format", "csv", "-o", "power.csv"],
        ["analytic", "--model", "model1", "--p-grid", "0.2,0.5", "-o", "table.csv"],
        ["analytic", "--model", "model2", "-o", "model2.csv"],
        ["analyze", "-i", "events.jsonl", "--format", "csv", "-o", "report.csv"],
        ["analytic", "--model", "model1", "--p-grid", "0.2,0.5", "--format", "json",
         "-o", "table.json"],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    _strip_variants(Path("events.jsonl"), Path("raw.jsonl"))
    assert main(["power", "-i", "raw.jsonl", "--inject-lift", "0.01", "--fractions", "0.5,1.0",
                 "--reps", "40", "--seed", "42", "--format", "json", "-o", "inject.json"]) == 0
    capsys.readouterr()
    assert main(["analyze", "-i", "events.jsonl", "--test", "welch", "-o", "-"]) == 0
    Path("stdout.json").write_bytes(capsys.readouterr().out.encode("utf-8"))
    digests = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in GOLDEN}
    assert digests == GOLDEN


@pytest.mark.parametrize("workers", [2, 3])
def test_power_digests_hold_on_the_parallel_path(tmp_path, monkeypatch, workers):
    """The log read and the sweep split across forked workers write the same
    bytes as the serial ones."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(eventlog, "PARALLEL_MIN_BYTES", 0)
    monkeypatch.setattr(power, "PARALLEL_MIN_USER_REPS", 0)
    monkeypatch.setattr(parallel, "usable_cores", lambda: workers)
    assert main(["simulate", "--model", "model1", "--p", "0.4", "--tau", "1.0", "--sigma", "1.0",
                 "--n-per-arm", "200", "--seed", "42", "-o", "events.jsonl"]) == 0
    assert main(["analyze", "-i", "events.jsonl", "-o", "report.json"]) == 0
    assert main(["analyze", "-i", "events.jsonl", "--format", "csv", "-o", "report.csv"]) == 0
    assert main(["power", "-i", "events.jsonl", "--fractions", "0.5,1.0", "--reps", "40",
                 "--seed", "42", "--format", "csv", "-o", "power.csv"]) == 0
    _strip_variants(Path("events.jsonl"), Path("raw.jsonl"))
    assert main(["power", "-i", "raw.jsonl", "--inject-lift", "0.01", "--fractions", "0.5,1.0",
                 "--reps", "40", "--seed", "42", "--format", "json", "-o", "inject.json"]) == 0
    for name in ("report.json", "report.csv", "power.csv", "inject.json"):
        assert hashlib.sha256(Path(name).read_bytes()).hexdigest() == GOLDEN[name]
