"""ecrlab benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of an ecrlab checkout: it imports the package from
``src/`` there and exits 1 without a result when there is none.
Workloads: mc-study, mc-study-pool, analysis-session, moments-sweep (see
``workloads.py``).

With ``--trace 0`` the run measures the end-to-end metrics with nothing
wrapped. With ``--trace 1`` every other round runs with every layer
wrapped; the run reports the per-layer metrics and the tracing overhead
(median traced round against median untraced round), then times the fixed
reference points of the ROADMAP item-1 table. A layer the workload does
not call is measured by the reference points, and the report marks it
"(ref)". Either way the oracle checks every output after the timed region.

Times are reported at reference machine speed. The benchmark shares its
host with other tenants, and on the 2-core VM it was built on the same
work ran up to 2x slower for spells of seconds to a minute. After each
round the loop runs a fixed calibration chunk for about 5 % of the
round's time; the ratio of the mean chunk time to CAL_REF_S is the
round's slowness, and the round's times are divided by it. The report
prints the as-run figures next to them; over ten seeds those spread by
more than the bounds in BENCHMARK.json. Set-up time is reported as run:
a fresh interpreter's imports are not the work the chunk samples, and
dividing by it made the set-up figures less steady, not more.

The report goes to standard output; its last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Spans are
written to ``.perfbench/trace-<workload>.json`` after a traced run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import layers
import workloads
from spans import Tracer

SETUP_REPEATS = 5
IMPORT_REPEATS = 3
MIN_BEYOND = 10  # samples a tail percentile should have beyond it
CAL_REF_S = 3.0e-3  # one calibration chunk on the reference box, a 2-core VM, at a typical moment
CAL_SHARE = 0.05  # calibration time run after each piece of measured work, as a share of it

_CAL_X = np.linspace(0.1, 10.0, 200)


def calibration_chunk() -> float:
    """Seconds taken by a fixed mix of interpreter work and small numpy
    calls, shaped like ecrlab's inner loops but sharing no code with it."""
    t0 = time.perf_counter()
    total = 0.0
    for k in range(300):
        lam = 0.5 + 0.01 * k
        s = np.hypot(lam, _CAL_X)
        total += float(np.sum(np.log(s))) + math.log(lam) * math.sqrt(k + 1.0)
    return time.perf_counter() - t0


def calibrate_after(busy: float) -> float:
    """How much slower than the reference the machine runs just after
    ``busy`` seconds of measured work: the mean of calibration chunks worth
    CAL_SHARE of it (at least one) over CAL_REF_S. Work sharing a host
    with other tenants speeds up and slows down by up to 2x within
    seconds, and the chunks sample that next to the measured work."""
    chunks = []
    while not chunks or sum(chunks) < CAL_SHARE * busy:
        chunks.append(calibration_chunk())
    return statistics.fmean(chunks) / CAL_REF_S


END_TO_END = (("setup_s", "s"), ("ops_per_s", "op/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
              ("peak_rss_mb", "MB"))
PER_LAYER = (
    [("sim.rep_ms", "ms"), ("sim.self_ms_per_rep", "ms"), ("sim.fit_ml_calls_per_rep", "count")]
    + [(f"sim.success_ratio.{e}", "ratio") for e in ("ml", "csml", "pb")]
    + [("sim.parallel_eff", "ratio"),
       ("inference.fit_ml.kernel_passes", "count"), ("inference.profile_eval_us", "us")]
    + [(f"inference.{f}.ms", "ms") for f in ("fit_ml", "fit_cs_ml", "fit_pb", "fit_cr", "lr_test_cr")]
    + [("inference.fit_pb.objective_calls", "count")]
    + [(f"inference.fit_error.{k}", "count") for k in ("boundary", "no_bracket", "not_converged", "other")]
    + [("gof.fit_comparison_models.ms", "ms")]
    + [(f"gof.fit.{m}.ms", "ms") for m in layers.GOF_MODELS]
    + [("gof.stats.ms", "ms"), ("gof.model_errors", "count"), ("ecr.sample_from.ms", "ms")]
    + [(f"ecr.{m}.us", "us") for m in layers.MOMENTS]
    + [("ecr.typed_errors", "count"),
       ("specfun.gauss_2f1.us", "us"), ("specfun.gauss_2f1.terms", "count"),
       ("specfun.gauss_2f1.calls_per_moment", "count"), ("specfun.appell_f1.us", "us"),
       ("specfun.appell_f1.rows", "count"), ("specfun.appell_f1.quad_share", "ratio"),
       ("specfun.lerch_phi_half.us", "us"), ("specfun.log_gamma.calls", "count"),
       ("specfun.beta_fn.calls", "count"),
       ("data.load.ms", "ms"), ("data.describe.ms", "ms"), ("data.Dataset.us", "us"),
       ("cli.main.ms", "ms")]
    + [(f"cli.main.ms.{c}", "ms") for c in layers.CLI_COMMANDS]
    + [("cli.self_ms", "ms")] + [(f"cli.exit.{c}", "count") for c in (0, 2, 3)]
    + [(f"cli.import_ms.{m}", "ms") for m in layers.IMPORT_MODULES]
    + [(name, "us" if name.endswith(".us") else "ms") for name in layers.ROADMAP_TABLE]
    + [("env.cores", "count"), ("trace.overhead_pct", "%"), ("fail_ratio", "ratio"),
       ("oracle.known_breaks", "count"), ("oracle.boundary_genuine", "count"),
       ("oracle.boundary_spurious", "count")]
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_ecrlab(root: Path):
    src = root / "src"
    if not (src / "ecrlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no ecrlab sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import ecrlab
    import ecrlab.cli  # noqa: F401  (imports every module of the package)

    if Path(ecrlab.__file__).resolve().parent != (src / "ecrlab").resolve():
        raise SystemExit(f"error: imported ecrlab from {ecrlab.__file__}, not from {src}")
    return ecrlab


def _python(args: list[str], src: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120, check=True)


def measure_setup(modules: tuple[str, ...], src: Path) -> list[float]:
    """Wall times of fresh interpreters importing the workload's modules;
    one unmeasured start first writes the bytecode caches."""
    code = f"import {', '.join(modules)}"
    _python(["-c", code], src)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _python(["-c", code], src)
        times.append(time.perf_counter() - t0)
    return times


def measure_imports(src: Path) -> dict[str, float]:
    runs = [layers.parse_importtime(_python(["-X", "importtime", "-c", "import ecrlab.cli"], src).stderr)
            for _ in range(IMPORT_REPEATS)]
    return {name: statistics.median(r.get(name, 0.0) for r in runs) for name in layers.IMPORT_MODULES}


def loop(wl, seconds: float, install=None) -> tuple[list, list, Tracer | None]:
    """Closed loop: whole rounds back to back until ``seconds`` have
    passed, each followed by its calibration. With ``install`` (a
    function wrapping the layers around a tracer), every other round runs
    traced, so traced and untraced rounds share the machine's slow and
    fast spells. Returns (untraced rounds, traced rounds, tracer).
    """
    plain, traced = [], []
    tracer = Tracer() if install else None
    deadline = time.perf_counter() + seconds
    while True:
        mark = patches = None
        if install and len(plain) > len(traced):
            index = len(traced)
            tracer.op = f"{index}"

            def mark(op, index=index):
                tracer.op = f"{index}.{op}"

            patches = install(tracer)
        try:
            r = wl.run_round(mark)
        finally:
            if patches:
                patches.restore()
        (traced if patches else plain).append(r)
        r.slowness = calibrate_after(r.wall)
        if time.perf_counter() >= deadline:
            return plain, traced, tracer


def latencies_of(rounds, adjust: bool) -> list[float]:
    """Per-op seconds, divided by their round's slowness when ``adjust``."""
    out = []
    for r in rounds:
        k = r.slowness if adjust else 1.0
        out.extend(t / k for t in (r.latencies if r.latencies is not None else [r.wall / r.ops]))
    return out


def adjusted_wall(r) -> float:
    return r.wall / r.slowness


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run(args, root: Path, ecrlab, workdir: str) -> tuple[dict, list[str]]:
    src = root / "src"
    wl = workloads.make(args.workload, ecrlab, args.seed, workdir)
    env = layers.summarize_env()
    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}",
             "environment: " + ", ".join(f"{k} {v}" for k, v in env.items())]

    if args.trace:
        imports = measure_imports(src)
    wl.prepare()

    if args.trace:
        replicate = getattr(wl, "workers", 1) == 1
        untraced, traced, tracer = loop(
            wl, args.seconds, lambda t: layers.install(ecrlab, t, replicate=replicate))
        rounds = untraced + traced
    else:
        rounds, _, _ = loop(wl, args.seconds)
        # On the pool workload the workers' largest peak counts once per
        # worker; it is read before any set-up interpreter has run.
        own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        worker_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        workers = getattr(wl, "workers", 1)
        workers = workers if workers > 1 else 0
        peak_rss_mb = own_mb + workers * worker_mb
        setup = measure_setup(wl.modules, src)

    verdict = wl.check(rounds)
    timed_ops = sum(r.ops for r in rounds)
    attempted = timed_ops + verdict.checked_untimed
    wall = sum(r.wall for r in rounds)
    known = sum(verdict.known.values())
    fail_ratio = (verdict.failed + known) / attempted
    lat = latencies_of(rounds, adjust=True)
    q = wl.tail_percentile
    beyond = int(len(lat) * (1.0 - q / 100.0))

    walls = sorted(r.wall for r in rounds)
    slow = sorted(r.slowness for r in rounds)
    lines.append(f"timed: {len(rounds)} rounds, {timed_ops} ops, {wall:.3f} s wall; round wall "
                 f"min {walls[0]:.4g} s, median {statistics.median(walls):.4g} s, max {walls[-1]:.4g} s")
    lines.append(f"slowness after each round (mean calibration chunk over {CAL_REF_S * 1e3:g} ms): min {slow[0]:.4f}, "
                 f"median {statistics.median(slow):.4f}, max {slow[-1]:.4f}; a round's times below are as run "
                 f"divided by it")
    lines.append("end-to-end:")
    e2e_lines = []
    if not args.trace:
        lat_as_run = latencies_of(rounds, adjust=False)
        as_run = {
            "setup_s": statistics.median(setup),
            "ops_per_s": statistics.median(r.ops / r.wall for r in rounds),
            "op_p50_ms": 1e3 * statistics.median(lat_as_run),
            "op_tail_ms": 1e3 * layers.percentile(lat_as_run, q),
        }
        metrics = {
            "setup_s": as_run["setup_s"],
            # Rounds are identical work: the median round's rate, like the
            # latencies, is steadier under spells than the mean.
            "ops_per_s": statistics.median(r.ops / adjusted_wall(r) for r in rounds),
            "op_p50_ms": 1e3 * statistics.median(lat),
            "op_tail_ms": 1e3 * layers.percentile(lat, q),
            "peak_rss_mb": peak_rss_mb,
        }
        notes = {
            "setup_s": f"median of {len(setup)} fresh interpreters importing {', '.join(wl.modules)}",
            "ops_per_s": f"median over rounds; {timed_ops} ops in {wall:.3f} s as run",
            "peak_rss_mb": f"this process {own_mb:.1f} MB" + (f" + {workers} pool workers x their largest "
                                                              f"peak {worker_mb:.1f} MB" if workers else ""),
            "op_p50_ms": f"{len(lat)} samples" + ("" if rounds[0].latencies else
                                                 "; one per round: round wall / replications"),
            "op_tail_ms": f"p{q:g} of {len(lat)} samples, {beyond} beyond"
                          + ("" if beyond >= MIN_BEYOND else f"; fewer than {MIN_BEYOND} beyond, so not a tail"),
        }
        for name in ("ops_per_s", "op_p50_ms", "op_tail_ms"):
            notes[name] = "; ".join([f"as run {as_run[name]:.6g}"] + ([notes[name]] if name in notes else []))
        for name, unit in END_TO_END:
            e2e_lines.append(f"  {name:16s} {fmt(metrics[name])} {unit}" + (f"  ({notes[name]})" if name in notes else ""))
    lines += e2e_lines
    untimed = f", {verdict.checked_untimed} of them run by the oracle only" if verdict.checked_untimed else ""
    lines.append(f"  {'fail_ratio':16s} {fmt(fail_ratio)} ratio  ({verdict.failed} unexpected + {known} known "
                 f"contract breaks of {attempted} ops{untimed})")
    if verdict.fit_attempts:
        lines.append(f"  {'fit_fail_ratio':16s} {fmt(verdict.fit_failures / verdict.fit_attempts)} ratio  "
                     f"({verdict.fit_failures} of {verdict.fit_attempts} fits per round)")
    else:
        lines.append(f"  {'fit_fail_ratio':16s} not measured: this workload attempts no fits")
    lines.append("oracle:")
    for name, count in sorted(verdict.known.items()):
        lines.append(f"  known defect {name}: {verdict.known_inputs[name]} inputs, {count} ops  "
                     f"({workloads.KNOWN_DEFECTS[name]})")
    if "boundary_genuine" in verdict.extra:
        lines.append(f"  'no interior likelihood maximum' ml failures in the {workloads.ORACLE_REPS} "
                     f"replications per cell the oracle checks: "
                     f"{verdict.extra['boundary_genuine']} genuine (boundary dominates), "
                     f"{verdict.extra['boundary_spurious']} spurious (an interior maximum was missed)")
    for key, value in verdict.extra.items():
        if not key.startswith("boundary_"):
            lines.append(f"  {key}: {value}")
    lines += [f"  {note}" for note in verdict.notes]

    if args.trace:
        rounds_traced = len(traced)
        overhead = 100.0 * (statistics.median(map(adjusted_wall, traced))
                            / statistics.median(map(adjusted_wall, untraced)) - 1.0)
        own = layers.layer_metrics(tracer, rounds_traced)
        ref_values, ref_tracer = layers.reference_points(ecrlab, workdir)
        ref = layers.layer_metrics(ref_tracer, 1)
        os.makedirs(root / ".perfbench", exist_ok=True)
        trace_path = root / ".perfbench" / f"trace-{args.workload}.json"
        tracer.dump(trace_path)
        pool = getattr(wl, "workers", 1) > 1
        from_ref = set(ref) - set(own) | (set() if pool else {"sim.parallel_eff"})
        metrics = {**ref, **own, **{k: v for k, v in ref_values.items() if k.startswith("ref.")}}
        metrics["sim.parallel_eff"] = (wl.serial_wall / (2.0 * statistics.median(r.wall for r in untraced))
                                       if pool else ref_values["sim.parallel_eff"])
        metrics.update({f"cli.import_ms.{name}": value for name, value in imports.items()})
        metrics.update({
            "env.cores": os.cpu_count(),
            "trace.overhead_pct": overhead,
            "fail_ratio": fail_ratio,
            "oracle.known_breaks": sum(verdict.known_inputs.values()),
            "oracle.boundary_genuine": verdict.extra.get("boundary_genuine", 0),
            "oracle.boundary_spurious": verdict.extra.get("boundary_spurious", 0),
        })
        missing = [name for name, _ in PER_LAYER if name not in metrics]
        if missing:
            raise RuntimeError(f"per-layer metrics with no measurement: {missing}")
        lines.append(f"per-layer ({rounds_traced} traced rounds; tracing overhead {overhead:.1f} %; "
                     f"spans in {trace_path.relative_to(root)}):")
        for name, unit in PER_LAYER:
            extra = ""
            if name in layers.ROADMAP_TABLE:
                extra = f"  (ROADMAP table: {layers.ROADMAP_TABLE[name]:g} {unit})"
            elif name in from_ref:
                extra = "  (ref: the workload does not call this layer)"
            lines.append(f"  {name:40s} {fmt(float(metrics[name]))} {unit}{extra}")
        names = PER_LAYER
    else:
        names = END_TO_END
    result = {
        "correct": verdict.failed == 0,
        "attempted": attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in names},
    }
    return result, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    ecrlab = load_ecrlab(root)
    os.makedirs(root / ".perfbench", exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=root / ".perfbench")
    try:
        result, lines = run(args, root, ecrlab, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
