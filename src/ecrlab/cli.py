"""Command-line front end.

Subcommands: describe, fit, sample, moments, gof, ttt, simulate. Every
command is a pure function of its arguments and input files. Exit codes:
0 on success, else the ``exit_code`` of the :mod:`ecrlab.errors` class
raised: 2 for bad input, 3 for a numerical failure. ECR_LAB_THREADS caps the
simulation engine's process parallelism. ``simulate`` runs one study, so
it forks the engine's process pool once either way; the pool outlives
the study only for library callers that run more studies in the same
process (see :mod:`ecrlab.sim`).

:func:`main` builds its parser on the first call and reuses it for every
later call in the process. If stdout closes early, as in
``ecrlab ttt big.txt | head -1``, the command exits 1 with nothing on
stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import __version__
from .data import EMBEDDED_NAME, Dataset, describe, load_dataset, parse_values
from .ecr import (
    MomentExistenceError,
    Params,
    _incomplete_path,
    incomplete_moment,
    log_moment,
    order_stat_moment,
    pwm,
    raw_moment,
    sample,
)
from .errors import EcrlabError, InputError
from .gof import MODELS, fit_comparison_models, ttt_transform
from .inference import fit_cr, fit_cs_ml, fit_ml, fit_pb
from .sim import ESTIMATORS, StudyConfig, run_convergence_study, run_grid_study, summaries_to_csv

SCHEMA = "ecr-lab/1"

# rows formatted and written at a time by _write_rows
_BLOCK_ROWS = 4096


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_rows(template: str, *columns) -> None:
    """Write ``template % row`` for the rows of the float columns, one
    block of _BLOCK_ROWS rows per write."""
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        rows = zip(*(c[start : start + _BLOCK_ROWS].tolist() for c in columns))
        sys.stdout.write("".join(map(template.__mod__, rows)))


def _json_ready(x):
    if isinstance(x, float) and not math.isfinite(x):
        return None if math.isnan(x) else ("Infinity" if x > 0 else "-Infinity")
    return x


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def _read_dataset(source: str) -> Dataset:
    if source != "-":
        return load_dataset(source)
    try:
        return parse_values(sys.stdin.read(), source="<stdin>")
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read <stdin>: {exc}") from None


def _add_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "input",
        help=f"data file (one number per line, or comma/whitespace separated; "
        f"'#' comments), '-' for stdin, or '{EMBEDDED_NAME}'",
    )


def cmd_describe(args) -> int:
    stats = describe(_read_dataset(args.input))
    if args.json:
        _emit_json(
            {
                "schema": SCHEMA,
                "n": stats.n,
                "mean": stats.mean,
                "median": stats.median,
                "variance": stats.variance,
                "skewness": {"moment": stats.skewness_moment, "adjusted": stats.skewness_adjusted},
                "kurtosis": {"moment": stats.kurtosis_moment, "adjusted": stats.kurtosis_adjusted},
                "min": stats.minimum,
                "max": stats.maximum,
            }
        )
        return 0
    rows = (
        ("n", stats.n),
        ("mean", stats.mean),
        ("median", stats.median),
        ("variance", stats.variance),
        ("skewness (moment)", stats.skewness_moment),
        ("skewness (adjusted)", stats.skewness_adjusted),
        ("kurtosis (moment)", stats.kurtosis_moment),
        ("kurtosis (adjusted)", stats.kurtosis_adjusted),
        ("min", stats.minimum),
        ("max", stats.maximum),
    )

    def render(value) -> str:
        if value is None:
            return "undefined"
        if isinstance(value, int):
            return str(value)
        return _fmt(value)

    if args.csv:
        print("statistic,value")
        for label, value in rows:
            name = label.replace(" (", "_").replace(")", "")
            print(f"{name},{render(value)}")
    else:
        for label, value in rows:
            print(f"{label:22s}{render(value)}")
    return 0


def cmd_fit(args) -> int:
    data = _read_dataset(args.input)
    if args.model == "ecr":
        # looked up per call, so a patched or traced fitter is the one run
        fitter = {"ml": fit_ml, "csml": fit_cs_ml, "pb": fit_pb}[args.method]
        fit = fitter(data)
        payload = {
            "schema": SCHEMA,
            "model": "ecr",
            "method": fit.method,
            "params": {"beta": fit.params.beta, "lambda": fit.params.lam},
            "std_errors": None
            if fit.std_errors is None
            else {"beta": fit.std_errors[0], "lambda": fit.std_errors[1]},
            "loglik": fit.loglik,
            "iterations": fit.iterations,
            "converged": fit.converged,
            "correctable": fit.correctable,
            "bias_applied": None
            if fit.bias_applied is None
            else {"beta": fit.bias_applied[0], "lambda": fit.bias_applied[1]},
            "n": data.n,
        }
    else:
        if args.method != "ml":
            raise InputError(f"method {args.method!r} applies only to the ecr model")
        std_errors = None
        if args.model == "cr":
            fit = fit_cr(data)
            params = {"lambda": fit.params.lam}
            std_errors = {"lambda": fit.std_errors[1]}
            loglik = fit.loglik
        else:
            entry = MODELS[args.model]
            theta = entry.fit(data)
            params = dict(zip(entry.param_names, theta))
            loglik = entry.loglik(data, theta)
        payload = {
            "schema": SCHEMA,
            "model": args.model,
            "method": "ml",
            "params": params,
            "std_errors": std_errors,
            "loglik": loglik,
            "n": data.n,
        }
    _emit_json(payload)
    return 0


def cmd_sample(args) -> int:
    if args.seed < 0:  # numpy's own check raises a bare ValueError
        raise InputError(f"seed must be >= 0, got {args.seed}")
    draws = sample(args.n, Params(args.beta, args.lam), args.seed)
    print(f"# ecrlab sample beta={args.beta:g} lambda={args.lam:g} n={args.n} seed={args.seed}")
    _write_rows("%.17g\n", draws)
    return 0


def cmd_moments(args) -> int:
    p = Params(args.beta, args.lam)
    results: dict[str, dict] = {}
    missing = []

    def attempt(name: str, fn, order) -> None:
        order = _json_ready(order)
        try:
            value = fn()
        except MomentExistenceError as exc:
            window = [_json_ready(bound) for bound in exc.window]
            results[name] = {"order": order, "exists": False, "error": str(exc), "window": window}
            missing.append((name, str(exc)))
        else:
            results[name] = {"order": order, "exists": True, "value": value}

    attempt("raw", lambda: raw_moment(args.r, p), args.r)
    results["log"] = {"exists": True, "value": log_moment(p)}
    if args.x0 is not None:
        attempt("incomplete", lambda: incomplete_moment(args.r, args.x0, p, full_output=True), args.r)
        entry = results["incomplete"]
        if entry["exists"]:
            # series_rows: the terms of the path's series, 0 on the quadrature path
            entry["value"], entry["series_rows"] = entry["value"]
            entry["path"] = _incomplete_path(args.r, args.x0, p, entry["series_rows"])
        entry["x0"] = args.x0
    if args.order_stat is not None:
        i, n = args.order_stat
        attempt("order_statistic", lambda: order_stat_moment(i, n, args.r, p), args.r)
        results["order_statistic"]["rank"] = [i, n]
    if args.pwm is not None:
        s, t = args.pwm
        attempt("pwm", lambda: pwm(s, args.r, t, p), args.r)
        results["pwm"]["indexes"] = [s, t]

    _emit_json({"schema": SCHEMA, "beta": args.beta, "lambda": args.lam, "results": results})
    if missing:
        for name, message in missing:
            print(f"{name}: {message}", file=sys.stderr)
        return 3
    return 0


def cmd_gof(args) -> int:
    data = _read_dataset(args.input)
    payload = []
    for fit in fit_comparison_models(data):
        if fit.report is None:
            payload.append({"model": fit.model.name, "error": fit.error})
            continue
        report = fit.report
        payload.append(
            {
                "model": report.model,
                "params": dict(zip(fit.model.param_names, fit.params)),
                "wstar": _json_ready(report.wstar),
                "astar": _json_ready(report.astar),
                "ks": report.ks,
                "aic": report.aic,
                "caic": _json_ready(report.caic),
                "bic": report.bic,
                "hqic": report.hqic,
                "loglik": report.loglik,
                "k": report.k,
                "n": report.n,
            }
        )
    _emit_json({"schema": SCHEMA, "reports": payload})
    return 0


def cmd_ttt(args) -> int:
    points = ttt_transform(_read_dataset(args.input))
    print("r_over_n,ttt")
    _write_rows("%.17g,%.17g\n", points[:, 0], points[:, 1])
    return 0


def cmd_simulate(args) -> int:
    try:
        with open(args.config) as f:
            raw = json.load(f)
    except OSError as exc:
        raise InputError(f"cannot read {args.config}: {exc.strerror or exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"invalid config JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise InputError(f"invalid config: expected a JSON object, got {type(raw).__name__}")
    try:
        truth = raw.get("truth", {})
        cfg = StudyConfig(
            truth=Params(float(truth["beta"]), float(truth["lambda"])),
            sample_sizes=tuple(int(n) for n in raw["sample_sizes"]),
            replications=int(raw["replications"]),
            estimators=raw.get("estimators", ESTIMATORS),
            master_seed=int(raw.get("master_seed", 0)),
            grid=(
                (tuple(float(b) for b in raw["grid"]["beta"]),
                 tuple(float(l) for l in raw["grid"]["lambda"]))
                if "grid" in raw
                else None
            ),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"invalid config: {exc}") from None
    threads = os.environ.get("ECR_LAB_THREADS", "1")
    try:
        workers = max(1, int(threads))
    except ValueError:
        raise InputError(f"ECR_LAB_THREADS must be an integer, got {threads!r}") from None
    runner = run_grid_study if cfg.grid is not None else run_convergence_study
    print(summaries_to_csv(runner(cfg, workers=workers)), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecrlab",
        description="Extended Cauchy-Rayleigh lifetime-model toolkit",
    )
    parser.add_argument("--version", action="version", version=f"ecrlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="descriptive statistics of a dataset")
    _add_input(p)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    fmt.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("fit", help="fit a model by maximum likelihood or variants")
    _add_input(p)
    p.add_argument("--method", choices=ESTIMATORS, default="ml")
    p.add_argument("--model", choices=tuple(MODELS), default="ecr")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sample", help="draw from the ECR law by inverse transform")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("moments", help="closed-form moment values")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--r", type=float, required=True, help="moment order")
    p.add_argument("--x0", type=float, help="upper limit for the incomplete moment")
    p.add_argument("--order-stat", nargs=2, type=int, metavar=("I", "N"),
                   help="rank and sample size for an order-statistic moment")
    p.add_argument("--pwm", nargs=2, type=int, metavar=("S", "T"),
                   help="probability-weighted moment indexes")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("gof", help="goodness-of-fit comparison across all models")
    _add_input(p)
    p.set_defaults(func=cmd_gof)

    p = sub.add_parser("ttt", help="scaled total-time-on-test transform as CSV")
    _add_input(p)
    p.set_defaults(func=cmd_ttt)

    p = sub.add_parser("simulate", help="run a Monte Carlo study from a JSON config")
    p.add_argument("--config", required=True, help="path to the study config")
    p.set_defaults(func=cmd_simulate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args starts each call from a fresh namespace, so one parser
    # serves every call in the process
    return build_parser()


def _run(argv: list[str] | None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except EcrlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            return _run(argv)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # stdout closed early: send what is left to devnull, so that the
        # interpreter's final flush does not fail again
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return 1
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 1
