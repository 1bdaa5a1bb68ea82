"""The four workloads. Each is a closed loop driven by one caller: a round
is a fixed piece of work made from the seed, repeated back to back until
the measuring time is up, so every count the benchmark reports repeats
exactly for a given seed.

A workload provides ``prepare()`` (untimed set-up and warm-up),
``run_round()`` (the timed work, returning a ``Round``) and
``check(rounds)`` (the oracle, untimed, returning a ``Verdict``).
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import oracles as O


@dataclass
class Round:
    ops: int
    wall: float
    output: object
    latencies: list[float] | None = None  # per op, seconds; None: wall / ops
    slowness: float = 1.0  # the machine's, measured right after the round (see run.calibrate_after)


@dataclass
class Verdict:
    """``failed`` counts ops that broke the documented contract in a way
    not already on record; ``known`` counts, by defect, ops that break it
    in a recorded way (see ``KNOWN_DEFECTS``)."""

    failed: int = 0
    known: Counter = field(default_factory=Counter)
    known_inputs: Counter = field(default_factory=Counter)  # distinct inputs behind ``known``
    checked_untimed: int = 0  # ops the oracle ran and checked outside the timed rounds
    fit_attempts: int = 0  # per round
    fit_failures: int = 0  # per round: FitError plus uncorrectable Cox-Snell
    notes: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def note(self, text: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(text)


KNOWN_DEFECTS = {
    "fit_ml.missed_interior_max": "fit_ml's factor-4 scale grid steps over a sharp profile peak and "
                                  "returns a lower stationary point",
    "fit_pb.nonstationary_edge": "fit_pb returns a non-stationary estimate near the 1e-3 end of its "
                                 "shape grid instead of raising FitError",
    "cli.roadmap_4b": "extreme-range data exits 2 (Params ValueError) instead of 3",
    "cli.roadmap_4c": "gof on a single observation exits 0 with untyped per-model errors instead of 2",
    "gof.untyped_model_error": "gof's Weibull fit on the seeded ECR(1.5, 5) n = 200 file fails with an "
                               "untyped 'function value is NaN', which fit_comparison_models' bare "
                               "'except Exception' turns into an error string (ROADMAP 4(c))",
}
PB_EDGE_BETA = 1e-2  # ten times the lower end of fit_pb's shape grid


# ---------------------------------------------------------------------------
# Monte Carlo study: mc-study (serial) and mc-study-pool (workers=2)

MC_GRID = ((0.5, 2.0), (1.0,))  # (betas, lambdas)
MC_SIZES = (20, 100, 500)
MC_ESTIMATORS = ("ml", "csml", "pb")
MC_REPS = 5  # replications per cell in one round
ORACLE_REPS = 40  # replications per cell the oracle checks; the first MC_REPS are the timed ones
# The mc defects on record: the cells (beta, n) each was seen in, and the
# most replications per seed (of the oracle's ORACLE_REPS per cell) that
# still count as that defect. Over seeds 0-34 they occurred 2.2 and 2.6
# times per seed on average, at most 7 times; a negative binomial fitted
# to those counts gives a seed at ecrlab's current rates a chance below
# 3e-5 of exceeding a cap of 15. An occurrence in another cell, or above
# the cap, fails.
MC_KNOWN = {
    "fit_ml.missed_interior_max": ({(0.5, 20), (2.0, 20), (2.0, 100), (2.0, 500)}, 15),
    "fit_pb.nonstationary_edge": ({(0.5, 20), (2.0, 20)}, 15),
}


class MonteCarlo:
    modules = ("ecrlab.cli", "ecrlab.sim")
    # One latency sample per round (~20 in a 15 s run): no percentile above
    # the median has ten samples beyond it.
    tail_percentile = 50.0

    def __init__(self, ecrlab, seed: int, workdir: str, workers: int):
        self.ecrlab = ecrlab
        self.workers = workers
        sim, ecr = ecrlab.sim, ecrlab.ecr
        self.cfg = sim.StudyConfig(truth=ecr.Params(1.0, 1.0), sample_sizes=MC_SIZES, replications=MC_REPS,
                                   estimators=MC_ESTIMATORS, master_seed=seed, grid=MC_GRID)
        self.cells = [(b, lam, n) for b in MC_GRID[0] for lam in MC_GRID[1] for n in MC_SIZES]
        self.outcomes: dict[tuple[int, int], list] = {}
        self.serial_wall = math.nan

    def prepare(self) -> None:
        """Runs the timed study once serially for the reference CSV. Then
        runs the oracle's study, the same one with ORACLE_REPS replications
        per cell, with the engine's replication function wrapped to keep
        every outcome; its first MC_REPS replications of a cell are the
        timed ones, drawn from the same streams. The pool workload also
        warms up its pool."""
        sim = self.ecrlab.sim
        t0 = time.perf_counter()
        self.reference_csv = sim.summaries_to_csv(sim.run_grid_study(self.cfg))
        self.serial_wall = time.perf_counter() - t0
        replicate = sim._replicate

        def keep(args):
            out = replicate(args)
            self.outcomes[(args[5], args[6])] = out
            return out

        sim._replicate = keep
        try:
            sim.run_grid_study(dataclasses.replace(self.cfg, replications=ORACLE_REPS))
        finally:
            sim._replicate = replicate
        if self.workers > 1:
            self.run_round()

    def run_round(self, mark=None) -> Round:
        sim = self.ecrlab.sim
        t0 = time.perf_counter()
        out = sim.summaries_to_csv(sim.run_grid_study(self.cfg, workers=self.workers))
        return Round(len(self.cells) * MC_REPS, time.perf_counter() - t0, out)

    def check(self, rounds: list[Round]) -> Verdict:
        """A replication the oracle finds at fault counts once per timed
        round that repeats it, or once if only the oracle ran it."""
        v = Verdict()
        for r in rounds:
            if r.output != self.reference_csv:
                v.failed += r.ops
                v.note("study CSV differs from the serial reference run")
        self._check_summaries(v)
        per_rep = self._check_replications(v)
        for defect, (_, cap) in MC_KNOWN.items():
            hits = [key for key, status in per_rep.items() if status == defect]
            if len(hits) > cap:
                v.note(f"{defect}: {len(hits)} replications, more than the {cap} on record")
                per_rep.update((key, "failed") for key in hits)
        for (_, rep), status in per_rep.items():
            weight = len(rounds) if rep < MC_REPS else 1
            if status == "failed":
                v.failed += weight
            elif status:
                v.known[status] += weight
                v.known_inputs[status] += 1
        v.checked_untimed = len(self.cells) * (ORACLE_REPS - MC_REPS)
        timed = [out for (_, rep), out in self.outcomes.items() if rep < MC_REPS]
        v.fit_attempts = len(timed) * len(MC_ESTIMATORS)
        v.fit_failures = sum(1 for out in timed for _, b, _ in out if b is None or math.isnan(b))
        return v

    def _check_summaries(self, v: Verdict) -> None:
        """Re-derive every CSV figure from the kept per-replication outcomes."""
        rows = list(csv.DictReader(io.StringIO(self.reference_csv)))
        for row in rows:
            cell = int(row["cell"])
            b_true, lam_true, _ = self.cells[cell]
            truth = b_true if row["parameter"] == "beta" else lam_true
            j = 1 if row["parameter"] == "beta" else 2
            draws = [dict((e, o) for e, *o in self.outcomes[(cell, rep)])[row["estimator"]]
                     for rep in range(MC_REPS)]
            good = [d[j - 1] for d in draws if d[0] is not None and not math.isnan(d[0])]
            expect = {
                "failures": float(MC_REPS - len(good)),
                "mean_bias": float(np.mean(good)) - truth if good else math.nan,
                "ssd": float(np.std(good, ddof=1)) if len(good) > 1 else math.nan,
            }
            for name, value in expect.items():
                got = float(row[name])
                if not (got == value or (math.isnan(got) and math.isnan(value))
                        or abs(got - value) <= 1e-12 * max(abs(value), 1.0)):
                    v.failed += 1
                    v.note(f"cell {cell} {row['estimator']} {row['parameter']} {name}: CSV {got!r}, outcomes give {value!r}")

    def _check_replications(self, v: Verdict) -> dict:
        """Check every kept replication's ml, csml and pb outcome against data
        regenerated from the documented stream; return per replication
        None (passes), "failed", or the name of a known defect."""
        inference, data = self.ecrlab.inference, self.ecrlab.data
        boundary = Counter()
        status = {}
        for (cell, rep), out in sorted(self.outcomes.items()):
            beta, lam, n = self.cells[cell]
            x = O.study_draws(self.cfg.master_seed, cell, rep, n, beta, lam)
            fits = {e: (b, l) for e, b, l in out}
            problems = []
            ml = fits["ml"]
            if ml[0] is None:
                try:
                    inference.fit_ml(data.Dataset(x.copy()))
                    problems.append(("failed", "engine reported an ml failure that a direct fit does not reproduce"))
                except inference.FitError as exc:
                    if str(exc).startswith("no interior likelihood maximum"):
                        boundary[O.classify_boundary(x)[0]] += 1
                except ValueError:
                    pass
            else:
                reason = O.check_ml(x, ml, (beta, lam))
                if reason and "misses an interior maximum" in reason:
                    problems.append(("fit_ml.missed_interior_max", reason))
                elif reason:
                    problems.append(("failed", reason))
                if fits["csml"][0] is None:
                    problems.append(("failed", "csml failed although ml succeeded"))
                else:
                    csml = None if math.isnan(fits["csml"][0]) else fits["csml"]
                    bias = inference.cox_snell_bias_generic(self.ecrlab.ecr.Params(*ml), n)
                    reason = O.check_csml(ml, csml, bias)
                    if reason:
                        problems.append(("failed", reason))
            pb = fits["pb"]
            if pb[0] is not None:
                reason = O.check_pb(x, pb)
                if reason and pb[0] < PB_EDGE_BETA:
                    problems.append(("fit_pb.nonstationary_edge", reason))
                elif reason:
                    problems.append(("failed", reason))
            kinds = [k if k == "failed" or (beta, n) in MC_KNOWN[k][0] else "failed" for k, _ in problems]
            for kind, (_, reason) in zip(kinds, problems):
                v.note(f"cell {cell} rep {rep}: {kind}: {reason}")
            status[(cell, rep)] = "failed" if "failed" in kinds else (kinds[0] if kinds else None)
        v.extra["boundary_genuine"] = boundary["genuine"]
        v.extra["boundary_spurious"] = boundary["spurious"]
        return status


# ---------------------------------------------------------------------------
# analysis-session: in-process ``ecrlab.cli.main`` calls, back to back

EMBEDDED = "embedded:crowley-hu"


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    exits: frozenset[int]
    check: str | None = None  # name of the output check for exit 0
    known: str | None = None  # KNOWN_DEFECTS entry whose outcome on this input is its exit code
    truth: tuple[float, float] | None = None
    # (model, message fragment, KNOWN_DEFECTS entry): the one gof per-model
    # error on record for this input; any other per-model error fails
    known_model_error: tuple[str, str, str] | None = None


def _session(files: dict[str, str], seed: int) -> list[Command]:
    ok, fit_ok = frozenset({0}), frozenset({0, 3})
    f = files
    cmds = [
        Command(("describe", EMBEDDED, "--json"), ok, "ch_describe"),
        Command(("fit", EMBEDDED), ok, "ch_ml"),
        Command(("fit", EMBEDDED, "--method", "csml"), ok, "ch_csml"),
        Command(("fit", EMBEDDED, "--method", "pb"), ok, "pb"),
    ]
    cmds += [Command(("fit", EMBEDDED, "--model", m), ok, "ch_model") for m in ("cr", "weibull", "gamma", "lognormal", "ee")]
    cmds += [
        Command(("gof", EMBEDDED), ok, "ch_gof"),
        Command(("ttt", EMBEDDED), ok, "ttt"),
        Command(("describe", f["ecr_200"]), ok, "describe"),
        Command(("fit", f["ecr_30"]), fit_ok, "ml", truth=FILE_LAWS["ecr_30"][1]),
        Command(("fit", f["ecr_5000"]), fit_ok, "ml", truth=FILE_LAWS["ecr_5000"][1]),
        Command(("fit", f["ecr_200"], "--method", "pb"), fit_ok, "pb"),
        Command(("fit", f["weibull_500"], "--model", "weibull"), ok, "weibull"),
        Command(("fit", f["lognormal_1000"], "--model", "lognormal"), ok, "lognormal"),
        Command(("gof", f["ecr_200"]), ok, "gof",
                known_model_error=("weibull", "is NaN; solver cannot continue", "gof.untyped_model_error")),
        Command(("gof", f["lognormal_1000"]), ok, "gof"),
        Command(("ttt", f["ecr_5000"]), ok, "ttt"),
        Command(("sample", "--beta", "0.5", "--lambda", "1", "--n", "500", "--seed", str(seed)), ok, "sample"),
        Command(("moments", "--beta", "0.8", "--lambda", "1", "--r", "0.5", "--x0", "2", "--pwm", "1", "2",
                 "--order-stat", "1", "3"), ok, "moments"),
        Command(("moments", "--beta", "0.8", "--lambda", "1", "--r", "1.5"), frozenset({3})),
        Command(("fit", f["bad_token"]), frozenset({2})),
        Command(("fit", f["extreme"]), frozenset({3}), known="cli.roadmap_4b"),
        Command(("gof", f["single"]), frozenset({2}), known="cli.roadmap_4c"),
    ]
    return cmds


def _digest(outputs: list[tuple]) -> list[tuple]:
    return [(code, hashlib.sha256(text.encode()).hexdigest()) for code, text in outputs]


# name: (law, parameters, n); ECR parameters are (beta, lambda)
FILE_LAWS = {
    "ecr_30": ("ecr", (0.7, 2.0), 30),
    "ecr_200": ("ecr", (1.5, 5.0), 200),
    "ecr_5000": ("ecr", (0.5, 1.0), 5000),
    "weibull_500": ("weibull", (1.4, 10.0), 500),
    "lognormal_1000": ("lognormal", (1.0, 0.8), 1000),
}
FIXED_FILES = {"bad_token": "1.5\n2.0\nabc\n", "extreme": "1e-300\n1e300\n", "single": "4.2\n"}


class AnalysisSession:
    modules = ("ecrlab.cli",)
    tail_percentile = 99.0  # ~2000 calls in a 15 s run, ~20 beyond

    def __init__(self, ecrlab, seed: int, workdir: str):
        self.ecrlab = ecrlab
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.files, self.values = {}, {}
        for name, (law, (a, b), n) in FILE_LAWS.items():
            if law == "ecr":
                x = O.ecr_draws(rng, n, a, b)
            elif law == "weibull":
                x = b * rng.weibull(a, n)
            else:
                x = rng.lognormal(a, b, n)
            self.values[name] = x
            self.files[name] = self._write(workdir, name, "\n".join(repr(float(v)) for v in x) + "\n")
        for name, text in FIXED_FILES.items():
            self.files[name] = self._write(workdir, name, text)
        self.commands = _session(self.files, seed)
        self.by_path = {path: self.values[name] for name, path in self.files.items() if name in self.values}
        self.by_path[EMBEDDED] = np.asarray(O.CROWLEY_HU, dtype=float)

    @staticmethod
    def _write(workdir: str, name: str, text: str) -> str:
        path = os.path.join(workdir, f"{name}.txt")
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def prepare(self) -> None:
        """The warm-up round's full outputs are what the oracle reads;
        timed rounds keep digests, so memory does not grow with the
        number of rounds a run fits in."""
        self.reference = None
        self.run_round()

    def run_round(self, mark=None) -> Round:
        main_module = self.ecrlab.cli
        outputs, latencies = [], []
        t_round = time.perf_counter()
        for index, cmd in enumerate(self.commands):
            if mark:
                mark(index)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    code = main_module.main(list(cmd.argv))
                except Exception as exc:  # an untyped escape is an outcome to score
                    code = f"raised {type(exc).__name__}"
                latencies.append(time.perf_counter() - t0)
            outputs.append((code, out.getvalue()))
        wall = time.perf_counter() - t_round
        if self.reference is None:
            self.reference = outputs
        return Round(len(self.commands), wall, _digest(outputs), latencies)

    def check(self, rounds: list[Round]) -> Verdict:
        v = Verdict()
        first = self.reference
        first_digest = _digest(first)
        verdicts = []
        ml_ch = None
        for cmd, (code, text) in zip(self.commands, first):
            reason = O.check_exit(cmd.exits, code)
            status = cmd.known or "failed"
            if reason is None and code == 0 and cmd.check:
                try:
                    reason = self._check_output(cmd, text, ml_ch)
                except (ValueError, KeyError, TypeError) as exc:
                    reason = f"unreadable output: {exc!r}"
                if isinstance(reason, tuple):
                    status, reason = reason
                if cmd.check == "ch_ml" and reason is None:
                    ml_ch = json.loads(text)["params"]
            if reason:
                v.note(f"{' '.join(cmd.argv)}: {reason}")
            verdicts.append(None if reason is None else status)
        for r in rounds:
            for status, first_out, out in zip(verdicts, first_digest, r.output):
                if out != first_out:
                    v.failed += 1
                    v.note("a repeated command gave a different result")
                elif status == "failed":
                    v.failed += 1
                elif status:
                    v.known[status] += 1
        v.known_inputs.update(status for status in verdicts if status and status != "failed")
        fit_cmds = [(c, o) for c, o in zip(self.commands, first) if c.argv[0] == "fit" and c.check]
        v.fit_attempts = len(fit_cmds)
        v.fit_failures = sum(1 for _, (code, _) in fit_cmds if code == 3)
        for cmd, (code, text) in zip(self.commands, first):
            if cmd.argv[0] == "gof" and code == 0:
                reports = json.loads(text)["reports"]
                v.fit_attempts += len(reports)
                v.fit_failures += sum(1 for rep in reports if "error" in rep)
        return v

    def _check_output(self, cmd: Command, text: str, ml_ch):
        """None when the output passes, else a reason, or a (known defect,
        reason) pair."""
        kind = cmd.check
        x = self.by_path.get(cmd.argv[1])
        if kind == "ch_describe":
            stats = json.loads(text)
            for name, (value, tol) in O.CH_DESCRIBE.items():
                if not abs(stats[name] - value) <= tol:
                    return f"{name} {stats[name]} != reference {value}"
            got = (stats["skewness"]["moment"], stats["kurtosis"]["moment"])
            if not max(abs(g - r) for g, r in zip(got, O.CH_SKEW_KURT)) <= 1e-4:
                return f"skewness/kurtosis {got} != reference {O.CH_SKEW_KURT}"
            return None
        if kind == "describe":
            table = dict(line.rsplit(None, 1) for line in text.splitlines())
            expect = {"mean": np.mean(x), "median": np.median(x), "variance": np.var(x, ddof=1),
                      "min": np.min(x), "max": np.max(x)}
            for name, value in expect.items():
                if not O.rel_err(float(table[name]), float(value)) <= 1e-12:
                    return f"{name} {table[name]} != {value!r}"
            return None
        fit = json.loads(text) if cmd.argv[0] == "fit" else None
        if kind == "ch_ml":
            est = (fit["params"]["beta"], fit["params"]["lambda"])
            if not max(O.rel_err(e, r) for e, r in zip(est, O.CH_ECR_ML)) <= 1e-3:
                return f"estimate {est} != reference {O.CH_ECR_ML}"
            return O.check_ml(x, est, O.CH_ECR_ML)
        if kind == "ml":
            return O.check_ml(x, (fit["params"]["beta"], fit["params"]["lambda"]), cmd.truth)
        if kind == "ch_csml":
            if ml_ch is None:
                return "no ML fit to compare the correction with"
            ml = (ml_ch["beta"], ml_ch["lambda"])
            bias = self.ecrlab.inference.cox_snell_bias_generic(self.ecrlab.ecr.Params(*ml), x.size)
            return O.check_csml(ml, (fit["params"]["beta"], fit["params"]["lambda"]), bias)
        if kind == "pb":
            return O.check_pb(x, (fit["params"]["beta"], fit["params"]["lambda"]))
        if kind == "ch_model":
            model = fit["model"]
            k = len(fit["params"])
            expect = (2 * k - O.CH_GOF[model][3]) / 2.0  # loglik from the reference AIC
            if not abs(fit["loglik"] - expect) <= 0.01:
                return f"{model} loglik {fit['loglik']} != reference {expect}"
            if model == "cr" and not O.rel_err(fit["params"]["lambda"], O.cr_scale(x)) <= 1e-9:
                return f"cr scale {fit['params']['lambda']} != {O.cr_scale(x)}"
            return None
        if kind == "weibull":
            a, scale = fit["params"]["shape"], fit["params"]["scale"]
            z = x / math.exp(float(np.mean(np.log(x))))
            za = z ** a
            resid = 1.0 / a - float(np.sum(za * np.log(z)) / np.sum(za))
            if not abs(resid * a) <= 1e-9 or not O.rel_err(scale, float(np.mean(x ** a)) ** (1 / a)) <= 1e-9:
                return f"weibull ({a}, {scale}) does not solve the likelihood equations"
            return None
        if kind == "lognormal":
            mu = float(np.mean(np.log(x)))
            sigma = float(np.sqrt(np.mean((np.log(x) - mu) ** 2)))
            if not max(O.rel_err(fit["params"]["mu"], mu), O.rel_err(fit["params"]["sigma"], sigma)) <= 1e-12:
                return f"lognormal {fit['params']} != ({mu}, {sigma})"
            return None
        if kind in ("gof", "ch_gof"):
            reports = json.loads(text)["reports"]
            if sorted(r["model"] for r in reports) != sorted(O.CH_GOF):
                return "gof does not report all six models"
            for rep in reports:
                if "error" in rep:
                    if rep["model"] == "ecr" and rep["error"].startswith("no interior likelihood maximum"):
                        continue  # a FitError: the typed outcome of a boundary fit
                    reason = f"{rep['model']}: {rep['error']}"
                    model, fragment, defect = cmd.known_model_error or (None, None, None)
                    if rep["model"] == model and fragment in rep["error"]:
                        return defect, reason
                    return reason
                reason = O.check_gof_report(x, rep)
                if reason:
                    return reason
                if kind == "ch_gof":
                    for name, ref, tol in zip(O.GOF_FIELDS, O.CH_GOF[rep["model"]], O.GOF_TOL):
                        if not abs(rep[name] - ref) <= tol:
                            return f"{rep['model']} {name} {rep[name]} != reference {ref}"
            return None
        if kind == "ttt":
            rows = np.array([[float(c) for c in line.split(",")] for line in text.splitlines()[1:]])
            y = np.sort(x)
            n = y.size
            r = np.arange(1, n + 1)
            g = (np.cumsum(y) + (n - r) * y) / np.sum(y)
            if rows.shape != (n, 2) or not np.allclose(rows, np.column_stack([r / n, g]), rtol=1e-12, atol=0):
                return "TTT points differ from the scaled total-time-on-test formula"
            return None
        if kind == "sample":
            drawn = np.array([float(line) for line in text.splitlines() if not line.startswith("#")])
            expect = O.ecr_draws(np.random.default_rng(self.seed), 500, 0.5, 1.0)
            if not np.allclose(drawn, expect, rtol=1e-15, atol=0):
                return "sample differs from inverse-transform draws of the same generator"
            return None
        if kind == "moments":
            res = json.loads(text)["results"]
            refs = {"raw": O.moment_reference("raw", 0.8, 1.0, r=0.5),
                    "log": O.moment_reference("log", 0.8, 1.0),
                    "incomplete": O.moment_reference("incomplete", 0.8, 1.0, r=0.5, x0=2.0),
                    "order_statistic": O.moment_reference("order", 0.8, 1.0, i=1, n=3, r=0.5),
                    "pwm": O.moment_reference("pwm", 0.8, 1.0, s=1, r=0.5, t=2)}
            for name, ref in refs.items():
                reason = O.check_moment(res[name]["value"], ref)
                if reason:
                    return f"{name}: {reason}"
            return None
        raise ValueError(f"no output check named {kind!r}")


# ---------------------------------------------------------------------------
# moments-sweep: closed-form moments over a seeded parameter grid

SWEEP_BETAS = (0.3, 0.6, 1.0, 1.7, 3.0)
SWEEP_LAMBDAS = (0.5, 20.0)
X0_SERIES = (1.0, 4.0, 12.0)  # x0 / lambda: u0 = 0.29, 0.76, 0.92, below the 0.95 switch
X0_QUAD = (40.0, 300.0)  # u0 = 0.9994, 0.99999
SWEEP_PLACES = (0.15, 0.35, 0.55, 0.75, 0.95)  # fractions of the way through an order window


@dataclass(frozen=True)
class Eval:
    kind: str  # raw, pwm, log, incomplete, order
    beta: float
    lam: float
    args: dict
    expect: str  # "value", "window" (MomentExistenceError) or "value_or_precision"


class MomentsSweep:
    modules = ("ecrlab.cli", "ecrlab.ecr")
    # ~40000 evaluations in a 15 s run. p99.9 would still have ten samples
    # beyond it, but it falls inside the samples of the single slowest
    # evaluation and moves with machine noise; p99 is the slowest
    # evaluations' typical time.
    tail_percentile = 99.0

    def __init__(self, ecrlab, seed: int, workdir: str):
        # The structure of the sweep (kinds, integer indexes, where each
        # order sits in its window, which side of the series/quadrature
        # switch) is fixed; the seed jitters the continuous inputs by a
        # few percent, so every seed costs about the same.
        self.ecrlab = ecrlab
        rng = np.random.default_rng(seed)

        def jitter(x, rel=0.02):
            return float(x * rng.uniform(1.0 - rel, 1.0 + rel))

        def r_at(k, lower, upper=0.8):  # an order at a fixed place inside (lower, upper)
            g = SWEEP_PLACES[k % len(SWEEP_PLACES)] + rng.uniform(-0.02, 0.02)
            return float(lower + g * (upper - lower))

        evals = []
        for k, (b0, lam0) in enumerate((b, lam) for b in SWEEP_BETAS for lam in SWEEP_LAMBDAS):
            b, lam = jitter(b0), jitter(lam0)
            s, t = k % 3, k % 4
            i_n = 2 + k % 5
            i = 1 + k % i_n
            wide_i = 1 + k % 5
            x0_series = jitter(X0_SERIES[k % len(X0_SERIES)] * lam)
            x0_quad = jitter(X0_QUAD[k % len(X0_QUAD)] * lam)
            evals += [
                Eval("raw", b, lam, {"r": r_at(k, -2 * b)}, "value"),
                Eval("pwm", b, lam, {"s": s, "r": r_at(k + 1, -2 * (s + 1) * b), "t": t}, "value"),
                Eval("log", b, lam, {}, "value"),
                Eval("incomplete", b, lam, {"r": r_at(k + 2, -2 * b, 2.0), "x0": x0_series}, "value"),
                Eval("incomplete", b, lam, {"r": r_at(k + 3, -2 * b), "x0": x0_quad}, "value"),
                Eval("order", b, lam, {"i": i, "n": i_n, "r": r_at(k + 4, -2 * i * b)}, "value"),
                Eval("order", b, lam, {"i": wide_i, "n": 60, "r": r_at(k, -0.5)}, "value_or_precision"),
                Eval("raw", b, lam, {"r": jitter(1.5, 0.2)}, "window"),
                Eval("order", b, lam, {"i": i, "n": i_n, "r": -2 * i * b - jitter(0.5, 0.5)}, "window"),
                Eval("incomplete", b, lam, {"r": -2 * b - jitter(0.5, 0.5), "x0": x0_series}, "window"),
            ]
        self.evals = evals

    def _calls(self):
        ecr = self.ecrlab.ecr
        calls = []
        for e in self.evals:
            p = ecr.Params(e.beta, e.lam)
            a = e.args
            if e.kind == "raw":
                calls.append((ecr.raw_moment, (a["r"], p)))
            elif e.kind == "pwm":
                calls.append((ecr.pwm, (a["s"], a["r"], a["t"], p)))
            elif e.kind == "log":
                calls.append((ecr.log_moment, (p,)))
            elif e.kind == "incomplete":
                calls.append((ecr.incomplete_moment, (a["r"], a["x0"], p)))
            else:
                calls.append((ecr.order_stat_moment, (a["i"], a["n"], a["r"], p)))
        return calls

    def prepare(self) -> None:
        self.run_round()

    def run_round(self, mark=None) -> Round:
        ecr = self.ecrlab.ecr
        typed = (ecr.MomentExistenceError, ecr.LossOfPrecisionError)
        outputs, latencies = [], []
        t_round = time.perf_counter()
        for index, (fn, args) in enumerate(self._calls()):  # resolved per round, so tracing wrappers apply
            if mark:
                mark(index)
            t0 = time.perf_counter()
            try:
                out = ("value", fn(*args))
            except typed as exc:
                out = (type(exc).__name__, getattr(exc, "window", None))
            except Exception as exc:  # an untyped escape is an outcome to score
                out = ("raised", f"{type(exc).__name__}: {exc}")
            latencies.append(time.perf_counter() - t0)
            outputs.append(out)
        return Round(len(self.evals), time.perf_counter() - t_round, outputs, latencies)

    def check(self, rounds: list[Round]) -> Verdict:
        v = Verdict()
        verdicts = []
        for e, out in zip(self.evals, rounds[0].output):
            reason = self._check_one(e, out)
            if reason:
                v.note(f"{e.kind} beta={e.beta:.4g} lambda={e.lam:.4g} {e.args}: {reason}")
            verdicts.append(reason)
        for r in rounds:
            for reason, first, out in zip(verdicts, rounds[0].output, r.output):
                if reason or out != first:
                    v.failed += 1
        v.extra["precision_refusals"] = sum(1 for out in rounds[0].output if out[0] == "LossOfPrecisionError")
        return v

    @staticmethod
    def _check_one(e: Eval, out) -> str | None:
        if e.expect == "window":
            lower = {"raw": -2 * e.beta, "incomplete": -2 * e.beta,
                     "order": -2 * e.args.get("i", 1) * e.beta}[e.kind]
            upper = math.inf if e.kind == "incomplete" else 1.0
            if out[0] != "MomentExistenceError":
                return f"expected MomentExistenceError, got {out}"
            if not (abs(out[1][0] - lower) <= 1e-12 * abs(lower) and out[1][1] == upper):
                return f"window {out[1]} != ({lower}, {upper})"
            return None
        if e.expect == "value_or_precision" and out[0] == "LossOfPrecisionError":
            return None
        if out[0] != "value":
            return f"expected a value, got {out}"
        return O.check_moment(out[1], O.moment_reference(e.kind, e.beta, e.lam, **e.args))


def make(name: str, ecrlab, seed: int, workdir: str):
    if name == "mc-study":
        return MonteCarlo(ecrlab, seed, workdir, workers=1)
    if name == "mc-study-pool":
        return MonteCarlo(ecrlab, seed, workdir, workers=2)
    if name == "analysis-session":
        return AnalysisSession(ecrlab, seed, workdir)
    if name == "moments-sweep":
        return MomentsSweep(ecrlab, seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("mc-study", "mc-study-pool", "analysis-session", "moments-sweep")
