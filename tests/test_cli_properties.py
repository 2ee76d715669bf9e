"""Whole-CLI property: any argv and ``--config`` file drawn from the parser's
own flags ends with a documented exit code and never with a traceback, a
nonzero exit prints exactly one ``error:`` line to stderr, and a report
written on exit 0 is blank only where ``cli.REPORT_BLANKS`` allows.

Each draw starts from a small run of one command on a tiny log and adds up to
three flags, then a config file when it draws one. Numbers come from a fixed
pool of small, negative and huge values plus NaN and inf, and text from a pool
holding empty and non-ASCII strings. Every huge value meets a size check
before anything is allocated, so each example runs in milliseconds.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openbounded import cli

INTS = [-1, 0, 1, 2, 3, 7, 10**12]
NON_FINITE = [math.nan, math.inf, -math.inf]
FLOATS = [-1.0, 0.0, 0.3, 1.0, 1e308]
TEXTS = ["", "é", "日本", "nan", "-inf", "1e999", "0.5", "0.1,1.0", "0:1:0.5", "sat"]
JSON_VALUES = [*INTS, *NON_FINITE, *FLOATS, *TEXTS, True, False, None, [], ["open"],
               ["bounded", "open"], ["é"], {"k": 7}]
PATHS = {"input": ["log.jsonl", "raw.jsonl", "flat.jsonl", "huge.jsonl", "tiny.jsonl",
                   "missing.jsonl"],
         "output": ["-", "out.txt"]}


def _command_actions():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: [action for action in sub._actions if action.dest != "help"]
        for name, sub in subparsers.choices.items()
    }


ACTIONS = _command_actions()


def _log_text(variant, value):
    rows = [
        {"user_id": f"u{u}", "day": day, "value": value(u, day), "variant": variant(u)}
        for u in range(8) for day in (1, 2, 6, 7) if (u + day) % 3
    ]
    return "".join(json.dumps(row) + "\n" for row in rows)


def _arm(u):
    return "T" if u % 2 else "C"


# Two arms with outcomes, one log without variants, one whose arms are
# constant: a zero variance with a nonzero delta, so an infinite statistic,
# and two whose variances square past float range or below it.
LOGS = {
    "log.jsonl": _log_text(_arm, lambda u, day: float(u % 3 + day)),
    "raw.jsonl": _log_text(lambda u: None, lambda u, day: float(u % 3 + day)),
    "flat.jsonl": _log_text(_arm, lambda u, day: float(u % 2)),
    "huge.jsonl": _log_text(_arm, lambda u, day: float(u % 3 + day) * 1e79),
    "tiny.jsonl": _log_text(_arm, lambda u, day: float(u % 3 + day) * 1e-160),
}


def _flag_values(action):
    """Half the draws from the flag's own default and choices, half hostile."""
    own = [] if action.default is None else [action.default]
    if action.choices is not None:
        return st.one_of(st.sampled_from(list(action.choices)), st.sampled_from(["", "é"]))
    if action.type is int:
        return st.one_of(st.sampled_from(own or INTS), st.sampled_from(INTS + TEXTS))
    if action.type is not None:  # a float flag
        return st.one_of(st.sampled_from(NON_FINITE), st.sampled_from(own + FLOATS + TEXTS))
    return st.one_of(st.sampled_from(own + PATHS.get(action.dest, TEXTS)), st.sampled_from(TEXTS))


@st.composite
def invocations(draw):
    """A small run of one command, then drawn flags, which override it, and a config file."""
    log = draw(st.sampled_from(sorted(LOGS)))
    base = {
        "simulate": ["--model", "model1", "--n-per-arm", "5", "--ns", "1"],
        "analyze": ["-i", log],
        "power": ["-i", log, "--n-per-arm", "10", "--ns", "1", "--reps", "2",
                  "--fractions", draw(st.sampled_from(["1.0", "0.1,1.0"])),
                  *(["--inject-lift", "0.01"] if log == "raw.jsonl" else [])],
        "analytic": ["--model", "model1", "--p-grid", "0.5"],
    }
    command = draw(st.sampled_from(sorted(ACTIONS)))
    actions = draw(st.lists(st.sampled_from(ACTIONS[command]), max_size=3,
                            unique_by=lambda action: action.dest))
    argv = [command, *base[command], "-o", "report"]
    for action in actions:
        flag = next(s for s in action.option_strings if s.startswith("--"))
        argv.append(flag if action.nargs == 0 else f"{flag}={draw(_flag_values(action))}")
    keys = [action.dest for action in ACTIONS[command]] + ["command", "frobnicate"]
    config = draw(st.one_of(st.just({}), st.dictionaries(
        st.sampled_from(keys), st.sampled_from(JSON_VALUES), min_size=1, max_size=2)))
    if config:
        argv.append("--config=cfg.json")
    return argv, config


def _leaves(obj, key=None):
    if isinstance(obj, dict):
        for name, value in obj.items():
            yield from _leaves(value, name)
    elif isinstance(obj, list):
        for value in obj:
            yield from _leaves(value, key)
    else:
        yield key, obj


def _check_report(command, text):
    if text.startswith("{"):
        document = json.loads(text)
        defaults = {action.dest: action.default for action in ACTIONS[command]}
        for key, value in document.pop("config").items():
            assert value is not None or defaults[key] is None, key
        for key, value in _leaves(document):
            assert value is not None or key in cli.REPORT_BLANKS, key
            assert not isinstance(value, float) or math.isfinite(value), key
    else:
        for row in csv.DictReader(io.StringIO(text)):
            for key, cell in row.items():
                assert cell != "" or key in cli.REPORT_BLANKS, key


@contextlib.contextmanager
def _inside(directory):
    previous = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(invocations())
def test_any_invocation_ends_cleanly(invocation):
    argv, config = invocation
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, _inside(tmp):
        for name, text in LOGS.items():
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(text)
        with open("cfg.json", "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        before = set(os.listdir())
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        written = sorted(set(os.listdir()) - before)
        reports = [stdout.getvalue()] if stdout.getvalue() else []
        for name in written:
            with open(name, encoding="utf-8") as fh:
                reports.append(fh.read())
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in stderr.getvalue()
    if code != 0:
        assert stderr.getvalue().startswith("error:") and stderr.getvalue().count("\n") == 1
    if code == 0 and argv[0] != "simulate":
        assert len(reports) == 1, written
        _check_report(argv[0], reports[0])


def _run_report(argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(argv) == 0
    document = json.loads(stdout.getvalue())
    del document["config"]
    return document


@pytest.mark.parametrize("exponent", [-531, 262], ids=["1e-160", "1e79"])
@pytest.mark.parametrize("test", ["z", "welch"])
def test_power_of_two_scale_keeps_statistic_and_p_value(tmp_path, exponent, test):
    """``log.jsonl`` scaled by 2**exponent: every delta and delta percentile
    scales by 2**exponent exactly, and every statistic, p-value and power is
    unchanged, although the raw variances at 1e-160 are subnormal."""
    reports = []
    for scale in (0, exponent):
        log = tmp_path / f"log{scale}.jsonl"
        log.write_text(_log_text(_arm, lambda u, day: math.ldexp(float(u % 3 + day), scale)))
        reports.append([
            _run_report(["analyze", "-i", str(log), "--test", test]),
            _run_report(["power", "-i", str(log), "--test", test, "--reps", "20",
                         "--fractions", "0.75,1.0"]),
        ])
    (analysis, curves), (scaled_analysis, scaled_curves) = reports
    scaled_keys = {"delta", "est_p05", "est_p50", "est_p95"}
    for expected, scaled in ((analysis, scaled_analysis), (curves, scaled_curves)):
        pairs = list(zip(_leaves(expected), _leaves(scaled), strict=True))
        assert [key for (key, _), _ in pairs if key in scaled_keys]
        for (key, value), (scaled_key, scaled_value) in pairs:
            assert key == scaled_key
            if key in scaled_keys:
                assert scaled_value == math.ldexp(value, exponent), key
            elif key != "variance":
                assert scaled_value == value, key
