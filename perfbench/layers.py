"""Per-layer tracing of ecrlab from outside the package.

``install`` rebinds the functions of each module (sim, inference, gof,
ecr, specfun, data, cli) to span-recording wrappers wherever ecrlab
resolves them at call time, so a call from inside the package (say
``fit_ml`` evaluating ``profile_score``) is recorded like a call from the
benchmark. ``layer_metrics`` turns the spans into the per-layer figures.
``reference_points`` times the fixed paths of the ROADMAP item-1 table.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os
import platform
import statistics
import time
from collections import Counter, defaultdict

import numpy as np
import scipy

from spans import Patches, Tracer, self_times

SPANNED = {
    "sim": ("run_grid_study", "run_convergence_study", "_replicate"),
    "inference": ("fit_ml", "fit_cs_ml", "fit_pb", "fit_cr", "lr_test_cr", "log_likelihood",
                  "profile_log_likelihood", "profile_score", "profile_beta", "pb_objective"),
    "gof": ("fit_comparison_models", "cvm_wstar", "ad_astar", "ks_statistic"),
    "ecr": ("sample_from", "raw_moment", "pwm", "log_moment", "incomplete_moment", "order_stat_moment"),
    "specfun": ("lerch_phi_half",),
    "data": ("load_dataset", "parse_values", "describe"),
}
FITTERS = ("inference.fit_ml", "inference.fit_cs_ml", "inference.fit_pb", "inference.fit_cr")
KERNEL_PASSES = ("inference.profile_log_likelihood", "inference.profile_score",
                 "inference.profile_beta", "inference.log_likelihood")
MOMENTS = ("raw_moment", "pwm", "log_moment", "incomplete_moment", "order_stat_moment")
SERIES_MOMENTS = ("ecr.raw_moment", "ecr.pwm", "ecr.order_stat_moment")
GOF_MODELS = ("ecr", "cr", "weibull", "gamma", "lognormal", "ee")
GOF_STATS = ("gof.cvm_wstar", "gof.ad_astar", "gof.ks_statistic")
CLI_COMMANDS = ("describe", "fit", "gof", "ttt", "sample", "moments")
FIT_ERROR_CLASSES = (("no interior", "boundary"), ("bracket", "no_bracket"),
                     ("did not converge", "not_converged"))
TYPED_MOMENT_ERRORS = ("MomentExistenceError", "LossOfPrecisionError")


def install(ecrlab, tracer: Tracer, replicate: bool = True) -> Patches:
    """Wrap every traced entry point; ``Patches.restore`` undoes it.

    ``replicate=False`` leaves the engine's replication function alone: a
    process pool pickles it by name, which a wrapper cannot survive.
    """
    patches = Patches()
    for module_name, names in SPANNED.items():
        module = getattr(ecrlab, module_name)
        for name in names:
            if name == "_replicate" and not replicate:
                continue
            span = f"{module_name}.{name.lstrip('_')}"
            after = _AFTER.get(span)
            fn = getattr(module, name)
            patches.everywhere(fn, tracer.wrap(span, fn, after and (lambda r, a=after: a(tracer, r))))

    specfun = ecrlab.specfun
    for name in ("gauss_2f1", "appell_f1"):
        patches.everywhere(getattr(specfun, name), _with_terms(tracer, f"specfun.{name}", getattr(specfun, name)))
    for name in ("log_gamma", "beta_fn"):
        patches.everywhere(getattr(specfun, name), tracer.counted(f"specfun.{name}.calls", getattr(specfun, name)))

    dataset = ecrlab.data.Dataset
    patches.set(dataset, "__post_init__", tracer.wrap("data.Dataset", dataset.__post_init__))
    models = ecrlab.gof.MODELS  # one dict, shared with cli
    for name, entry in list(models.items()):
        patches.set_item(models, name, dataclasses.replace(entry, fit=tracer.wrap(f"gof.fit.{name}", entry.fit)))
    cli = ecrlab.cli
    patches.set(cli, "main", tracer.wrap(lambda argv=None: f"cli.main.{argv[0]}", cli.main,
                                         lambda code: tracer.counts.update([f"cli.exit.{code}"])))
    return patches


def _with_terms(tracer: Tracer, span: str, fn):
    """Span plus the term count the series report through ``full_output``."""

    def traced(*args, full_output=False, **kwargs):
        index = tracer.begin(span)
        try:
            value, terms = fn(*args, full_output=True, **kwargs)
        except BaseException as exc:
            tracer.end(index, exc)
            raise
        tracer.end(index)
        tracer.counts[f"{span}.terms"] += terms
        if span == "specfun.appell_f1" and terms == 0:
            tracer.counts["specfun.appell_f1.quad"] += 1
        return (value, terms) if full_output else value

    traced.__wrapped__ = fn
    return traced


def _after_study(tracer: Tracer, summaries) -> None:
    for row in summaries:
        if row.parameter == "beta":
            tracer.counts[f"sim.successes.{row.estimator}"] += row.successes
            tracer.counts[f"sim.attempts.{row.estimator}"] += row.failures + row.uncorrectable + row.successes


def _after_comparison(tracer: Tracer, fits) -> None:
    tracer.counts["gof.model_errors"] += sum(1 for f in fits if f.report is None)


_AFTER = {"sim.run_grid_study": _after_study, "sim.run_convergence_study": _after_study,
          "gof.fit_comparison_models": _after_comparison}


# ---------------------------------------------------------------------------
# Metrics from spans


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer figures over ``rounds`` identical rounds of work. A figure
    is left out when the spans hold nothing to compute it from; counts
    are per round."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[0]].append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def parent_name(i):
        return spans[spans[i][3]][0] if spans[i][3] >= 0 else None

    def mean_ms(name, scale=1e3):
        idx = by_name.get(name)
        return scale * sum(dur(i) for i in idx) / len(idx) if idx else None

    def within(i, name):
        while spans[i][3] >= 0:
            i = spans[i][3]
            if spans[i][0] == name:
                return True
        return False

    m: dict[str, float | None] = {}
    counts = tracer.counts

    reps = by_name.get("sim.replicate", [])
    m["sim.rep_ms"] = mean_ms("sim.replicate")
    if reps:
        engine = reps + by_name.get("sim.run_grid_study", []) + by_name.get("sim.run_convergence_study", [])
        m["sim.self_ms_per_rep"] = 1e3 * sum(selfs[i] for i in engine) / len(reps)
        ml_in_reps = sum(1 for i in by_name.get("inference.fit_ml", []) if within(i, "sim.replicate"))
        m["sim.fit_ml_calls_per_rep"] = ml_in_reps / len(reps)
    for est in ("ml", "csml", "pb"):
        if counts[f"sim.attempts.{est}"]:
            m[f"sim.success_ratio.{est}"] = counts[f"sim.successes.{est}"] / counts[f"sim.attempts.{est}"]

    fits = by_name.get("inference.fit_ml", [])
    if fits:
        passes = sum(1 for name in KERNEL_PASSES for i in by_name.get(name, [])
                     if parent_name(i) == "inference.fit_ml")
        m["inference.fit_ml.kernel_passes"] = passes / len(fits)
    pieces = [i for name in KERNEL_PASSES for i in by_name.get(name, [])]
    if pieces:
        m["inference.profile_eval_us"] = 1e6 * sum(dur(i) for i in pieces) / len(pieces)
    for name in ("fit_ml", "fit_cs_ml", "fit_pb", "fit_cr", "lr_test_cr"):
        m[f"inference.{name}.ms"] = mean_ms(f"inference.{name}")
    pb = by_name.get("inference.fit_pb", [])
    if pb:
        calls = sum(1 for i in by_name.get("inference.pb_objective", []) if parent_name(i) == "inference.fit_pb")
        m["inference.fit_pb.objective_calls"] = calls / len(pb)
    top_fits = [i for name in FITTERS for i in by_name.get(name, []) if parent_name(i) not in FITTERS]
    if top_fits:
        errors = Counter()
        for i in top_fits:
            if spans[i][5]:
                kind = next((k for key, k in FIT_ERROR_CLASSES if key in spans[i][5]), "other")
                errors[kind] += 1
        for kind in ("boundary", "no_bracket", "not_converged", "other"):
            m[f"inference.fit_error.{kind}"] = errors[kind] / rounds

    comparisons = by_name.get("gof.fit_comparison_models", [])
    if comparisons:
        m["gof.fit_comparison_models.ms"] = mean_ms("gof.fit_comparison_models")
        m["gof.model_errors"] = counts["gof.model_errors"] / rounds
        fitted = sum(1 for name in GOF_MODELS for i in by_name.get(f"gof.fit.{name}", []) if not spans[i][5])
        stats = sum(dur(i) for name in GOF_STATS for i in by_name.get(name, []))
        if fitted:
            m["gof.stats.ms"] = 1e3 * stats / fitted
    for name in GOF_MODELS:
        m[f"gof.fit.{name}.ms"] = mean_ms(f"gof.fit.{name}")

    m["ecr.sample_from.ms"] = mean_ms("ecr.sample_from")
    moment_spans = [i for name in MOMENTS for i in by_name.get(f"ecr.{name}", [])]
    for name in MOMENTS:
        m[f"ecr.{name}.us"] = mean_ms(f"ecr.{name}", 1e6)
    if moment_spans:
        typed = sum(1 for i in moment_spans if spans[i][5] and spans[i][5].split(":")[0] in TYPED_MOMENT_ERRORS)
        m["ecr.typed_errors"] = typed / rounds

    for name in ("gauss_2f1", "appell_f1", "lerch_phi_half"):
        m[f"specfun.{name}.us"] = mean_ms(f"specfun.{name}", 1e6)
    f21 = by_name.get("specfun.gauss_2f1", [])
    if f21:
        m["specfun.gauss_2f1.terms"] = counts["specfun.gauss_2f1.terms"] / len(f21)
        series_parents = {spans[i][3] for i in f21 if parent_name(i) in SERIES_MOMENTS}
        if series_parents:
            m["specfun.gauss_2f1.calls_per_moment"] = len(f21) / len(series_parents)
    f1 = by_name.get("specfun.appell_f1", [])
    if f1:
        quad = counts["specfun.appell_f1.quad"]
        m["specfun.appell_f1.quad_share"] = quad / len(f1)
        if len(f1) > quad:
            m["specfun.appell_f1.rows"] = counts["specfun.appell_f1.terms"] / (len(f1) - quad)
    if moment_spans or f21:
        for name in ("log_gamma", "beta_fn"):
            m[f"specfun.{name}.calls"] = counts[f"specfun.{name}.calls"] / rounds

    m["data.load.ms"] = mean_ms("data.load_dataset")
    m["data.describe.ms"] = mean_ms("data.describe")
    m["data.Dataset.us"] = mean_ms("data.Dataset", 1e6)

    mains = [i for name, idx in by_name.items() if name.startswith("cli.main.") for i in idx]
    if mains:
        m["cli.main.ms"] = 1e3 * sum(dur(i) for i in mains) / len(mains)
        m["cli.self_ms"] = 1e3 * sum(selfs[i] for i in mains) / len(mains)
        for code in (0, 2, 3):
            m[f"cli.exit.{code}"] = counts[f"cli.exit.{code}"] / rounds
    for command in CLI_COMMANDS:
        m[f"cli.main.ms.{command}"] = mean_ms(f"cli.main.{command}")
    return {k: v for k, v in m.items() if v is not None}


# ---------------------------------------------------------------------------
# Import breakdown and reference points


IMPORT_MODULES = ("ecrlab.cli", "ecrlab.specfun", "ecrlab.gof", "ecrlab.inference", "ecrlab.sim",
                  "numpy", "scipy.special", "scipy.optimize", "scipy.integrate")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative milliseconds of each module's first import, from the
    ``python -X importtime`` report."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = (part.strip() for part in line.split(":", 1)[1].split("|"))
        if cumulative.isdigit() and name in IMPORT_MODULES:
            out[name] = int(cumulative) / 1e3
    return out


# The ROADMAP item-1 table: earlier measurements of the same paths on a 2-core VM.
ROADMAP_TABLE = {
    "ref.fit_ml.n50.ms": 5.1, "ref.fit_ml.n1000.ms": 10.6, "ref.fit_pb.n20.ms": 21.0,
    "ref.fit_pb.n50.ms": 11.0, "ref.fit_comparison_models.crowley_hu.ms": 6.0,
    "ref.raw_moment.us": 17.0, "ref.incomplete_moment.series.us": 370.0, "ref.sim.rep_n50.ms": 20.6,
}
REF_TRUTH = (0.5, 1.0)  # ECR(beta, lambda) behind the reference samples
REF_SEED = 1706
REF_MOMENT = (0.8, 1.0)  # (beta, lambda) of the README's moments example


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def reference_points(ecrlab, workdir: str) -> tuple[dict[str, float], Tracer]:
    """Time the ROADMAP item-1 paths untraced (medians), then run the same
    calls, one CLI call per command and ``lr_test_cr`` once under a tracer
    so that every layer has spans even when a workload skips it."""
    inference, gof, ecr, sim, data, cli = (ecrlab.inference, ecrlab.gof, ecrlab.ecr, ecrlab.sim,
                                           ecrlab.data, ecrlab.cli)
    truth = ecr.Params(*REF_TRUTH)
    samples = {n: data.Dataset(ecr.sample(n, truth, REF_SEED + n)) for n in (20, 50, 1000)}
    heart = data.crowley_hu()
    moment = ecr.Params(*REF_MOMENT)
    study = sim.StudyConfig(truth=truth, sample_sizes=(50,), replications=8, master_seed=REF_SEED)

    def fit_or_fail(fn, d):
        with contextlib.suppress(inference.FitError):
            fn(d)

    calls = {
        "ref.fit_ml.n50.ms": (lambda: fit_or_fail(inference.fit_ml, samples[50]), 15, 1e3),
        "ref.fit_ml.n1000.ms": (lambda: fit_or_fail(inference.fit_ml, samples[1000]), 7, 1e3),
        "ref.fit_pb.n20.ms": (lambda: fit_or_fail(inference.fit_pb, samples[20]), 7, 1e3),
        "ref.fit_pb.n50.ms": (lambda: fit_or_fail(inference.fit_pb, samples[50]), 7, 1e3),
        "ref.fit_comparison_models.crowley_hu.ms": (lambda: gof.fit_comparison_models(heart), 7, 1e3),
        "ref.raw_moment.us": (lambda: ecr.raw_moment(0.5, moment), 301, 1e6),
        "ref.incomplete_moment.series.us": (lambda: ecr.incomplete_moment(0.5, 2.0, moment), 51, 1e6),
    }
    out = {name: scale * _median_time(fn, repeats) for name, (fn, repeats, scale) in calls.items()}
    serial = _median_time(lambda: sim.run_convergence_study(study), 3)
    out["ref.sim.rep_n50.ms"] = 1e3 * serial / study.replications
    out["sim.parallel_eff"] = serial / (2.0 * _median_time(lambda: sim.run_convergence_study(study, workers=2), 2))

    path = os.path.join(workdir, "ref_sample.txt")
    with open(path, "w") as fh:
        fh.write("\n".join(repr(float(v)) for v in samples[50].values) + "\n")
    argvs = (["describe", path], ["fit", data.EMBEDDED_NAME], ["gof", data.EMBEDDED_NAME],
             ["ttt", path], ["sample", "--beta", "0.5", "--lambda", "1", "--n", "100", "--seed", "1"],
             ["moments", "--beta", "0.8", "--lambda", "1", "--r", "0.5", "--x0", "2",
              "--pwm", "1", "2", "--order-stat", "1", "3"])
    tracer = Tracer()
    patches = install(ecrlab, tracer)
    try:
        tracer.op = "ref"
        for fn, _, _ in calls.values():
            fn()
        sim.run_convergence_study(study)
        ecrlab.inference.lr_test_cr(heart)
        ecr.pwm(1, 0.3, 2, moment)
        ecr.log_moment(moment)
        ecr.order_stat_moment(2, 4, 0.4, moment)
        ecr.incomplete_moment(0.5, 100.0, moment)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in argvs:
                ecrlab.cli.main(argv)
    finally:
        patches.restore()
    return out, tracer


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def summarize_env() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
            "cores": str(os.cpu_count())}
