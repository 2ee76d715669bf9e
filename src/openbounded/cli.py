"""Command-line interface: simulate, analyze, power, analytic.

Exit codes: 0 success, 1 usage or configuration problem (an ``-i`` that
cannot be read and an ``-o`` that cannot be written among them), 2 malformed
data, 3 structurally valid but insufficient data. Errors print a single
``error: ...`` line to stderr, also for the parser's own errors.
``simulate`` writes an event log and its sidecar to the path ``-o`` names;
every other command returns a ``Report`` that ``_write_report`` alone writes,
as CSV or as JSON embedding the resolved configuration and the tool version.
Rerunning a command with the same configuration produces byte-identical files.

Each command loads only the layers it runs: the ``simulate``, ``eventlog``,
``metrics`` and ``power`` modules are imported inside the functions that
call them, so ``analytic --model model1`` and ``--version`` load none of them.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict, astuple, fields
from typing import TYPE_CHECKING, Callable, Sequence

from . import __version__
from .analytic import (
    ORACLE_MAX_DAYS,
    WEEKEND_SHARE,
    Model1Params,
    Model2Params,
    enumeration_oracle,
    model1_bias,
    model1_variance_coeffs,
    model2_bias,
    model2_variance_coeffs,
)
from .core import (
    OPEN,
    ConfigurationError,
    DataFormatError,
    ExperimentCalendar,
    InclusionPolicy,
    InsufficientDataError,
    Weekday,
    bounded,
)

if TYPE_CHECKING:
    from .simulate import Seed

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INSUFFICIENT = 3

SEED_ENV_VAR = "OPENBOUNDED_SEED"
REJECT_ERROR_FRACTION = 0.10
# Most values a start:stop:step range may expand to.
MAX_RANGE_VALUES = 10_000

# A report command's value: the CSV header, its rows, and the command's own
# JSON sections (JSON adds "config" and "tool_version").
Report = tuple[list[str], list[list[object]], dict]


def _parse_float_list(text: str) -> list[float]:
    """Parse '0.1,0.2,0.5' or 'start:stop:step' (stop inclusive) into at least one value."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigurationError(f"range syntax is start:stop:step, got {text!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError as exc:
            raise ConfigurationError(f"cannot parse range {text!r}") from exc
        if not all(map(math.isfinite, (start, stop, step))):
            raise ConfigurationError(f"range bounds and step must be finite, got {text!r}")
        if step <= 0:
            raise ConfigurationError("range step must be positive")
        if not (stop + 1e-9 - start) / step < MAX_RANGE_VALUES:
            raise ConfigurationError(
                f"range {text!r} expands to more than {MAX_RANGE_VALUES} values"
            )
        values = []
        x = start
        while x <= stop + 1e-9:
            values.append(round(x, 10))
            x += step
    else:
        try:
            values = [float(p) for p in text.split(",") if p.strip()]
        except ValueError as exc:
            raise ConfigurationError(f"cannot parse number list {text!r}") from exc
    if not values:
        raise ConfigurationError(f"number list {text!r} holds no values")
    return values


def _finite(label: str, minimum: float = -math.inf) -> Callable[[str], float]:
    """The ``type=`` of every float flag, and so of its ``--config`` value: refuses
    text that is not a finite number >= ``minimum`` whether or not a command reads it."""

    def convert(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise ConfigurationError(f"{label} must be a number, got {text!r}") from None
        if not (math.isfinite(value) and value >= minimum):
            bound = "" if minimum == -math.inf else f" >= {minimum:g}"
            raise ConfigurationError(f"{label} must be a finite number{bound}, got {value}")
        return value

    return convert


def _resolve_seed(args: argparse.Namespace) -> Seed:
    from .simulate import Seed

    if args.seed is not None:
        return Seed(args.seed)
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return Seed(int(env))
        except ValueError as exc:
            raise ConfigurationError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    return Seed(0)


def _calendar(args: argparse.Namespace) -> ExperimentCalendar:
    return ExperimentCalendar(k=args.k, start_dow=Weekday.parse(args.start_dow))


def _policies(args: argparse.Namespace) -> list[InclusionPolicy]:
    names = args.policy or ["open", "bounded"]
    out = []
    for name in names:
        policy = OPEN if name == "open" else bounded(args.d)
        if policy not in out:
            out.append(policy)
    return out


def _config_dict(args: argparse.Namespace) -> dict:
    skip = {"func", "config", "warning"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        out[key] = value
    return out


def _config_scalar(action: argparse.Action, key: str, value: object) -> object:
    accepted = str if action.type is None else (str, int, float)
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigurationError(f"config option {key!r} has the wrong type: {value!r}")
    try:
        converted = action.type(str(value)) if action.type is not None else value
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"config option {key!r} cannot take {value!r}") from exc
    if action.choices is not None and converted not in action.choices:
        choices = ", ".join(map(str, action.choices))
        raise ConfigurationError(f"config option {key!r} must be one of {choices}, got {value!r}")
    return converted


def _config_value(action: argparse.Action, key: str, value: object) -> object:
    """Convert one --config value as the parser converts the flag's text."""
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise ConfigurationError(f"config option {key!r} must be true or false")
        return value
    if value is None and action.default is None and not action.required:
        return None
    if isinstance(action, argparse._AppendAction):
        if not isinstance(value, list):
            raise ConfigurationError(f"config option {key!r} must be a list")
        return [_config_scalar(action, key, item) for item in value]
    return _config_scalar(action, key, value)


def _apply_config_file(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Values from --config override parsed flags (documented precedence)."""
    if not getattr(args, "config", None):
        return
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {action.dest: action for action in subparsers.choices[args.command]._actions}
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {args.config}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also a digit-limit int, deep nesting, non-UTF-8
        raise ConfigurationError(f"config file {args.config} is not valid JSON: {exc}") from exc
    if not isinstance(overrides, dict):
        raise ConfigurationError("config file must hold a JSON object")
    for key, value in overrides.items():
        dest = key.replace("-", "_")
        if dest not in actions or dest not in vars(args) or dest == "config":
            raise ConfigurationError(f"config file sets unknown option {key!r}")
        setattr(args, dest, _config_value(actions[dest], key, value))


# The report fields that may be blank (null in JSON, an empty CSV cell) on a
# run that exits 0, and why. ``_sanitize`` blanks NaN and inf without a word,
# so a blank anywhere else in a report is a fault. Config values are null only
# for options left unset.
REPORT_BLANKS = {
    "d": "the open policy takes no observation length",
    "oracle_bias": f"k above ORACLE_MAX_DAYS ({ORACLE_MAX_DAYS}), --no-oracle, "
                   "or a Model 2 check refused for a window admitting one cohort",
    "statistic": "+-inf: the estimated variance is 0 and the delta is not",
    **dict.fromkeys(("est_p05", "est_p50", "est_p95"),
                    "every repetition at the fraction is degenerate"),
}


def _sanitize(obj):
    """Make a payload strictly JSON-serializable (finite floats or null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _csv_document(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else v for v in _sanitize(row)])
    return buf.getvalue()


def _check_output(path: str) -> None:
    """Refuse an ``-o`` that cannot be a file before any work is done."""
    if not path:
        raise ConfigurationError("the output path is empty")
    if os.path.isdir(path):
        raise ConfigurationError(f"output path {path} is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigurationError(f"the directory of output path {path} does not exist")


def _check_input(path: str) -> None:
    """Refuse an ``-i`` that cannot be read before any work is done."""
    if not os.path.exists(path):
        raise ConfigurationError(f"input path {path} does not exist")
    if not os.path.isfile(path):  # the reader cuts a log by its size, which a pipe lacks
        raise ConfigurationError(f"input path {path} is not a regular file")
    if not os.access(path, os.R_OK):
        raise ConfigurationError(f"input path {path} is not readable")


def _write_report(args: argparse.Namespace, report: Report) -> None:
    """Write a report to stdout or ``--output`` as CSV or as JSON."""
    header, rows, sections = report
    if args.format == "csv":
        text = _csv_document(header, rows)
    else:
        payload = {"config": _config_dict(args), "tool_version": __version__, **sections}
        text = json.dumps(_sanitize(payload), sort_keys=True, indent=2) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write report {args.output}: {exc}") from exc


def _simulate_traces(args: argparse.Namespace, calendar: ExperimentCalendar, seed: Seed):
    from .simulate import simulate_model1, simulate_model2

    terms = dict(tau=args.tau, tau_prime=args.tau_prime, sigma=args.sigma, c=args.c,
                 calendar=calendar)
    draws = dict(sigma_user=args.sigma_user, noise_kind=args.noise)
    if args.model == "model1":
        params = Model1Params(p=args.p, **terms)
        return params, simulate_model1(params, args.n_per_arm, seed, **draws)
    params = Model2Params(ns=args.ns, **terms)
    return params, simulate_model2(params, seed, **draws)


def cmd_simulate(args: argparse.Namespace) -> None:
    if args.output == "-":
        raise ConfigurationError("simulate writes a log and its sidecar: give a path with -o")
    if os.path.splitext(args.output)[1].lower() == ".csv":  # read_event_log's suffix test
        raise ConfigurationError(
            f"simulate writes JSONL, and a log named {args.output} would be read as CSV: "
            "give -o a path that does not end in .csv"
        )
    from .eventlog import write_event_log, write_metadata

    calendar = _calendar(args)
    seed = _resolve_seed(args)
    params, traces = _simulate_traces(args, calendar, seed)
    try:
        rows = write_event_log(args.output, traces)
        write_metadata(
            args.output,
            {
                "model": args.model,
                "params": {
                    "p": getattr(params, "p", None),
                    "ns": getattr(params, "ns", None),
                    "tau": params.tau,
                    "tau_prime": params.tau_prime,
                    "sigma": params.sigma,
                    "c": params.c,
                    "k": calendar.k,
                    "start_dow": calendar.start_dow.name,
                    "d": args.d,
                },
                "seed": seed.base,
                "tool_version": __version__,
                "config": _sanitize(_config_dict(args)),
            },
        )
    except OSError as exc:
        raise ConfigurationError(f"cannot write event log {args.output}: {exc}") from exc
    print(f"wrote {rows} rows for {len(traces)} users to {args.output}", file=sys.stderr)


def _load_traces(args: argparse.Namespace, calendar: ExperimentCalendar, require_variant: bool):
    from .eventlog import read_event_log

    traces, report = read_event_log(args.input, calendar, require_variant=require_variant)
    if report.total_rows == 0:
        raise InsufficientDataError(f"event log {args.input} holds no rows")
    if report.n_rejected:
        detail = ", ".join(f"{k}={v}" for k, v in sorted(report.rejected.items()))
        summary = f"rejected {report.n_rejected}/{report.total_rows} rows ({detail})"
        if report.reject_fraction > REJECT_ERROR_FRACTION:
            raise DataFormatError(summary)
        # Printed by ``main`` once the command succeeds: a failed run prints its error alone.
        args.warning = summary
    return traces, report


def cmd_analyze(args: argparse.Namespace) -> Report:
    from .metrics import TestKind, delta_from_samples, metric_table

    calendar = _calendar(args)
    policies = _policies(args)
    test = TestKind(args.test)
    traces, report = _load_traces(args, calendar, require_variant=True)
    header = ["policy", "d", "delta", "variance", "n_treatment", "n_control",
              "n_included", "statistic", "p_value", "gamma"]
    rows = []
    for policy in policies:
        table = metric_table(traces, policy, calendar)
        res = delta_from_samples(table.arm_values(1), table.arm_values(0), test)
        rows.append([
            policy.label, policy.d, res.delta, res.variance, res.n_treatment, res.n_control,
            res.n_treatment + res.n_control, res.statistic, res.p_value, table.gamma(),
        ])
        del table  # so the next policy's table is built with no other alive
    results = [dict(zip(header, row)) for row in rows]
    return header, rows, {"ingest": asdict(report), "results": results}


def cmd_power(args: argparse.Namespace) -> Report:
    from .metrics import TestKind
    from .power import PowerCurvePoint, compare_policies
    from .simulate import EffectKind, EffectSpec, inject_effect

    calendar = _calendar(args)
    policies = _policies(args)
    seed = _resolve_seed(args)
    test = TestKind(args.test)
    fractions = _parse_float_list(args.fractions)

    if args.input and args.model:
        raise ConfigurationError("give either --input or --model, not both")
    if args.model and args.inject_lift is not None:
        raise ConfigurationError("--inject-lift applies to --input logs; model runs carry "
                                 "their effect in --tau/--tau-prime")
    if args.inject_lift is None and (args.inject_weekend_lift or args.inject_absolute):
        raise ConfigurationError("--inject-weekend-lift and --inject-absolute shape the effect "
                                 "--inject-lift injects; give --inject-lift with them")
    if args.input:
        traces, _ = _load_traces(args, calendar, require_variant=False)
        has_variants = bool((traces.variants >= 0).any())
        wants_injection = args.inject_lift is not None
        if has_variants and wants_injection:
            raise ConfigurationError("input already carries variants; drop the --inject flags")
        if not has_variants:
            if not wants_injection:
                raise ConfigurationError(
                    "input carries no variants; provide --inject-lift (and optionally "
                    "--inject-weekend-lift) to assign and inject an effect"
                )
            spec = EffectSpec(
                kind=EffectKind.ABSOLUTE if args.inject_absolute else EffectKind.RELATIVE_LIFT,
                tau=args.inject_lift,
                tau_prime=args.inject_weekend_lift,
            )
            traces = inject_effect(traces, spec, calendar, seed)
    elif args.model:
        _, traces = _simulate_traces(args, calendar, seed)
    else:
        raise ConfigurationError("either --input or --model is required")

    curves = compare_policies(
        traces, calendar, fractions,
        repetitions=args.reps, alpha=args.alpha, seed=seed, test=test, policies=policies,
    )
    header = ["policy", *(column.name for column in fields(PowerCurvePoint))]
    rows = [[curve.policy.label, *astuple(pt)] for curve in curves for pt in curve.points]
    summaries = [
        {
            "policy": curve.policy.label,
            "d": curve.policy.d,
            "alpha": curve.alpha,
            "repetitions": curve.repetitions,
            "points": [asdict(pt) for pt in curve.points],
        }
        for curve in curves
    ]
    return header, rows, {"seed": seed.base, "curves": summaries}


def _analytic_model1_rows(args: argparse.Namespace, calendar: ExperimentCalendar, policies):
    grid = _parse_float_list(args.p_grid)
    use_oracle = calendar.k <= ORACLE_MAX_DAYS and not args.no_oracle
    rows = []
    for policy in policies:
        for p in grid:
            bias = model1_bias(policy, p, 1.0, calendar)
            eta, zeta = model1_variance_coeffs(policy, p, calendar, n_per_arm=args.n_per_arm)
            oracle_bias = None
            if use_oracle:
                oracle_bias = enumeration_oracle(calendar, policy, p).ratio - WEEKEND_SHARE
            rows.append(["model1", policy.label, p, bias, eta, zeta, oracle_bias])
    return ["model", "policy", "p", "bias_per_tau_prime", "eta", "zeta", "oracle_bias"], rows


def _model2_pipeline_bias(policy: InclusionPolicy, calendar: ExperimentCalendar) -> float:
    """Independent check: run the noiseless simulator through the estimator."""
    from .metrics import TestKind, delta_estimate
    from .simulate import Seed, simulate_model2

    params = Model2Params(ns=1, tau=0.0, tau_prime=1.0, sigma=0.0, calendar=calendar)
    traces = simulate_model2(params, Seed(0))
    res = delta_estimate(traces, policy, calendar, TestKind.Z)
    return res.delta - WEEKEND_SHARE


def _analytic_model2_rows(args: argparse.Namespace, calendar: ExperimentCalendar, policies):
    rows = []
    for policy in policies:
        bias = model2_bias(policy, calendar)
        eta, zeta = model2_variance_coeffs(policy, calendar, ns=args.ns)
        try:
            pipeline_bias = _model2_pipeline_bias(policy, calendar)
        except InsufficientDataError:
            # The check runs at ns=1: a window admitting one cohort leaves one user per arm.
            pipeline_bias = None
        rows.append(["model2", policy.label, calendar.k, bias, eta, zeta, pipeline_bias])
    return ["model", "policy", "k", "bias_per_tau_prime", "eta", "zeta", "oracle_bias"], rows


def cmd_analytic(args: argparse.Namespace) -> Report:
    calendar = _calendar(args)
    policies = _policies(args)
    if args.model == "model1":
        header, rows = _analytic_model1_rows(args, calendar, policies)
    else:
        header, rows = _analytic_model2_rows(args, calendar, policies)
    return header, rows, {"rows": [dict(zip(header, row)) for row in rows]}


def _add_calendar_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--k", type=int, default=14, help="experiment length in days")
    sub.add_argument("--start-dow", default="monday", help="weekday of day 1 (default monday)")
    sub.add_argument("--d", type=int, default=7,
                     help="bounded observation length in days (read only by the bounded policy)")


def _add_common_flags(
    sub: argparse.ArgumentParser, output_help: str = "report path ('-' = stdout)"
) -> None:
    sub.add_argument("--seed", type=int, default=None,
                     help=f"base seed (default: ${SEED_ENV_VAR} or 0)")
    sub.add_argument("--config", default=None,
                     help="JSON file whose values override the flags")
    sub.add_argument("--output", "-o", default="-", help=output_help)


def _add_model_flags(sub: argparse.ArgumentParser, require_model: bool) -> None:
    sub.add_argument("--model", choices=["model1", "model2"], required=require_model, default=None)
    sub.add_argument("--n-per-arm", type=int, default=1000, help="model1 users per arm")
    sub.add_argument("--ns", type=int, default=100, help="model2 arrivals per day per arm")
    sub.add_argument("--p", type=_finite("p"), default=0.5,
                     help="model1 daily activity probability")
    sub.add_argument("--tau", type=_finite("tau"), default=0.0, help="base treatment effect")
    sub.add_argument("--tau-prime", type=_finite("tau_prime"), default=0.0,
                     help="extra weekend effect")
    sub.add_argument("--sigma", type=_finite("sigma", 0.0), default=1.0,
                     help="day-level noise std dev")
    sub.add_argument("--c", type=_finite("c"), default=0.0, help="common control outcome level")
    sub.add_argument("--sigma-user", type=_finite("sigma_user", 0.0), default=0.0,
                     help="spread of per-user outcome levels (default 0: homogeneous)")
    sub.add_argument("--noise", choices=["normal", "lognormal"], default="normal",
                     help="day-level noise family (lognormal for heavy-tail stress tests)")


class _Parser(argparse.ArgumentParser):
    """A parser whose errors, and so its subparsers' errors, are one ``error:`` line."""

    def error(self, message: str):
        raise ConfigurationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="openbounded",
        description="Compare open and bounded data-inclusion policies for experiment analysis.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="generate a synthetic event log")
    _add_model_flags(sim, require_model=True)
    _add_calendar_flags(sim)
    _add_common_flags(sim, "event log path, required; the sidecar <path>.meta.json goes beside it")
    sim.set_defaults(func=cmd_simulate)

    ana = subs.add_parser("analyze", help="estimate the treatment effect from an event log")
    ana.add_argument("--input", "-i", required=True, help="event log (JSONL, or CSV by extension)")
    ana.add_argument("--policy", action="append", choices=["open", "bounded"],
                     help="repeatable; default: both")
    ana.add_argument("--test", choices=["z", "welch"], default="z")
    ana.add_argument("--format", choices=["json", "csv"], default="json")
    _add_calendar_flags(ana)
    _add_common_flags(ana)
    ana.set_defaults(func=cmd_analyze)

    pwr = subs.add_parser("power", help="estimate detection power over sample-fraction sweeps")
    pwr.add_argument("--input", "-i", default=None, help="event log to subsample")
    _add_model_flags(pwr, require_model=False)
    pwr.add_argument("--policy", action="append", choices=["open", "bounded"],
                     help="repeatable; default: both")
    pwr.add_argument("--fractions", default="0.1:1.0:0.1",
                     help="comma list or start:stop:step (default 0.1:1.0:0.1)")
    pwr.add_argument("--reps", type=int, default=500, help="repetitions per fraction")
    pwr.add_argument("--alpha", type=_finite("alpha"), default=0.05, help="significance level")
    pwr.add_argument("--test", choices=["z", "welch"], default="z")
    pwr.add_argument("--format", choices=["json", "csv"], default="json")
    pwr.add_argument("--inject-lift", type=_finite("injected lift"), default=None,
                     help="treatment lift to inject into a variant-less log")
    pwr.add_argument("--inject-weekend-lift", type=_finite("injected weekend lift"), default=0.0,
                     help="extra weekend lift to inject")
    pwr.add_argument("--inject-absolute", action="store_true",
                     help="treat injected lifts as absolute instead of relative")
    _add_calendar_flags(pwr)
    _add_common_flags(pwr)
    pwr.set_defaults(func=cmd_power)

    aly = subs.add_parser("analytic", help="tabulate closed-form bias and variance")
    aly.add_argument("--model", choices=["model1", "model2"], required=True)
    aly.add_argument("--policy", action="append", choices=["open", "bounded"],
                     help="repeatable; default: both")
    aly.add_argument("--p-grid", default="0.05:0.95:0.05",
                     help="model1 activity-probability grid (comma list or start:stop:step)")
    aly.add_argument("--n-per-arm", type=int, default=1, help="per-arm scale for eta/zeta")
    aly.add_argument("--ns", type=int, default=1, help="model2 arrivals per day per arm")
    aly.add_argument("--no-oracle", action="store_true",
                     help="skip the enumeration-oracle verification column")
    aly.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_calendar_flags(aly)
    _add_common_flags(aly)
    aly.set_defaults(func=cmd_analytic)

    return parser


def _fail(message: str, code: int) -> int:
    print(f"error: {' '.join(message.split())}", file=sys.stderr)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config_file(args, parser)
        if args.output != "-":
            _check_output(args.output)
        if getattr(args, "input", None):
            _check_input(args.input)
        report = args.func(args)
        if report is not None:
            _write_report(args, report)
        if getattr(args, "warning", None):
            print(f"warning: {args.warning}", file=sys.stderr)
        return EXIT_OK
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except ConfigurationError as exc:
        return _fail(str(exc), EXIT_USAGE)
    except MemoryError as exc:
        return _fail(f"out of memory: {exc}" if str(exc) else "out of memory", EXIT_USAGE)
    except (DataFormatError, OSError) as exc:
        return _fail(str(exc), EXIT_DATA)
    except InsufficientDataError as exc:
        return _fail(str(exc), EXIT_INSUFFICIENT)


if __name__ == "__main__":
    sys.exit(main())
