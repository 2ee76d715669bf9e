import csv
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_power_comparison_smoke(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    _load("power_comparison").main(
        ["--n-per-arm", "300", "--sigma", "1.0", "--lift", "0.05", "--reps", "5",
         "--out", str(out)]
    )
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["policy"] for row in rows] == ["open"] * 10 + ["bounded"] * 10
    assert all(0.0 <= float(row["power"]) <= 1.0 for row in rows)
    assert "600 users" in capsys.readouterr().out
