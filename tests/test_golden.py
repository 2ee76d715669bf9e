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

from openbounded.cli import main

GOLDEN = {
    "events.jsonl":
        "722e37bd87076c8e9d58655132a2f5b8f5a5a06ea7a1bcddec0259cb37c9cebd",
    "events.meta.json":
        "4c5179cb4f9504f24d84989409085ed47118497891845ec000a9d3a499e6cee6",
    "report.json":
        "03a58cec7ca08887aaf869198f2a844fbab67c609ace2442e2c1b5416ae73cb1",
    "power.csv":
        "20301b761a6eb314bb5a84c6b0ec6ccdae890e1a48665b39df73e34f830475b8",
    "table.csv":
        "7f4083f6d11564bd1ef5107d50651c20d10ea8b82a274d982f182c54fd6e437b",
    "model2.csv":
        "e469528585769c570ddfe0b247c0eaf649f167247a318624865bcb95fb4a2697",
    "inject.json":
        "f4db7541f88b3d0a71740bcdf73fcfbec93643b8df4aa04952721a8c22712807",
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
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    _strip_variants(Path("events.jsonl"), Path("raw.jsonl"))
    assert main(["power", "-i", "raw.jsonl", "--inject-lift", "0.01", "--fractions", "0.5,1.0",
                 "--reps", "40", "--seed", "42", "--format", "json", "-o", "inject.json"]) == 0
    capsys.readouterr()
    digests = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in GOLDEN}
    assert digests == GOLDEN
