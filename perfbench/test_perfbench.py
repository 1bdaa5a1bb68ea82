"""Tests of the benchmark itself: span arithmetic, and that every oracle
rejects a deliberately perturbed result.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import oracles as O  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Patches, Tracer, self_times  # noqa: E402

import ecrlab.cli  # noqa: E402
from ecrlab import ecr, inference  # noqa: E402
from ecrlab.data import Dataset  # noqa: E402


def span(name, start, end, parent=-1):
    return [name, start, end, parent, None, None]


def test_self_time_subtracts_children_once():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 3.0, 0),
        span("b", 2.0, 5.0, 0),  # overlaps a: [1, 5] is covered once
        span("c", 6.0, 7.0, 0),
        span("a.leaf", 1.5, 2.0, 1),
        span("late", 9.5, 12.0, 0),  # runs past its parent: only [9.5, 10] counts
    ]
    assert self_times(spans) == pytest.approx([10.0 - 4.0 - 1.0 - 0.5, 1.5, 3.0, 1.0, 0.5, 2.5])


def test_tracer_nests_spans_and_records_errors():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    traced_inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", lambda x: traced_inner(x) + traced_inner(x))
    assert outer(2) == 4
    with pytest.raises(ValueError):
        outer(-1)
    names = [(s[0], s[3], s[5]) for s in tracer.spans]
    assert names == [("outer", -1, None), ("inner", 0, None), ("inner", 0, None),
                     ("outer", -1, "ValueError: negative"), ("inner", 3, "ValueError: negative")]


def test_layer_metrics_counts_kernel_passes_per_fit():
    spans = [span("inference.fit_ml", 0.0, 1.0)]
    spans += [span("inference.profile_score", 0.1 * k, 0.1 * k + 0.05, 0) for k in range(1, 4)]
    spans += [span("inference.fit_ml", 2.0, 3.0), span("inference.profile_beta", 2.1, 2.2, 4)]
    tracer = Tracer()
    tracer.spans = spans
    m = layers.layer_metrics(tracer, rounds=1)
    assert m["inference.fit_ml.kernel_passes"] == 2.0
    assert m["inference.fit_ml.ms"] == pytest.approx(1000.0)
    assert m["inference.profile_eval_us"] == pytest.approx((3 * 0.05 + 0.1) / 4 * 1e6)


def test_patches_reach_imported_names_and_restore():
    original = ecr.raw_moment
    patches = Patches()
    assert patches.everywhere(original, "patched") >= 2  # ecrlab.ecr and ecrlab.cli
    assert ecrlab.cli.raw_moment == "patched" and ecr.raw_moment == "patched"
    patches.restore()
    assert ecrlab.cli.raw_moment is original and ecr.raw_moment is original


@pytest.fixture(scope="module")
def sample():
    x = O.study_draws(3, 2, 1, 100, 0.5, 1.0)
    return x, Dataset(x.copy())


def test_study_draws_match_the_engine_stream():
    rng = np.random.default_rng(np.random.SeedSequence(3, spawn_key=(2, 1)))
    assert np.array_equal(O.study_draws(3, 2, 1, 100, 0.5, 1.0),
                          ecr.sample_from(rng, 100, ecr.Params(0.5, 1.0)))


def test_ml_oracle_rejects_a_fit_off_by_1e_3(sample):
    x, data = sample
    fit = inference.fit_ml(data)
    est = (fit.params.beta, fit.params.lam)
    assert O.check_ml(x, est, (0.5, 1.0)) is None
    assert O.check_ml(x, (est[0] * (1 + 1e-3), est[1]), (0.5, 1.0)) is not None
    assert O.check_ml(x, (est[0], est[1] * (1 - 1e-3)), (0.5, 1.0)) is not None


def test_csml_oracle_rejects_a_shifted_correction(sample):
    _, data = sample
    ml = inference.fit_ml(data).params
    cs = inference.fit_cs_ml(data).params
    bias = inference.cox_snell_bias_generic(ml, data.n)
    assert O.check_csml((ml.beta, ml.lam), (cs.beta, cs.lam), bias) is None
    assert O.check_csml((ml.beta, ml.lam), (cs.beta * (1 + 1e-3), cs.lam), bias) is not None
    assert O.check_csml((ml.beta, ml.lam), None, bias) is not None  # admissible, so not uncorrectable


def test_pb_oracle_rejects_a_fit_off_by_1e_3(sample):
    x, data = sample
    p = inference.fit_pb(data).params
    assert O.check_pb(x, (p.beta, p.lam)) is None
    assert O.check_pb(x, (p.beta * (1 + 1e-3), p.lam)) is not None
    assert O.check_pb(x, (p.beta, p.lam * (1 + 1e-3))) is not None


@pytest.mark.parametrize("seed, cell, rep, n, beta, kind", [
    (5, 4, 0, 100, 2.0, "spurious"),  # an interior maximum sits above both grid ends
    (5, 0, 4, 20, 0.5, "genuine"),  # the profile rises all the way to the small-scale end
])
def test_boundary_oracle_tells_a_missed_maximum_from_a_real_boundary(seed, cell, rep, n, beta, kind):
    x = O.study_draws(seed, cell, rep, n, beta, 1.0)
    got, interior, boundary = O.classify_boundary(x)
    assert got == kind
    if kind == "spurious":
        assert interior > boundary + 0.05


@pytest.mark.parametrize("kind, args, value", [
    ("raw", {"r": 0.5}, lambda p: ecr.raw_moment(0.5, p)),
    ("raw", {"r": -1.5}, lambda p: ecr.raw_moment(-1.5, p)),  # near the lower window edge -1.6
    ("pwm", {"s": 1, "r": 0.3, "t": 2}, lambda p: ecr.pwm(1, 0.3, 2, p)),
    ("log", {}, lambda p: ecr.log_moment(p)),
    ("incomplete", {"r": 0.5, "x0": 2.0}, lambda p: ecr.incomplete_moment(0.5, 2.0, p)),
    ("incomplete", {"r": 0.5, "x0": 100.0}, lambda p: ecr.incomplete_moment(0.5, 100.0, p)),
    ("order", {"i": 2, "n": 6, "r": 0.4}, lambda p: ecr.order_stat_moment(2, 6, 0.4, p)),
])
def test_moment_oracle_rejects_a_value_off_by_1e_6(kind, args, value):
    got = value(ecr.Params(0.8, 1.0))
    ref = O.moment_reference(kind, 0.8, 1.0, **args)
    assert O.check_moment(got, ref) is None
    assert O.check_moment(got * (1 + 1e-6), ref) is not None


def test_exit_code_oracle_rejects_a_wrong_code():
    assert O.check_exit(frozenset({0, 3}), 3) is None
    assert O.check_exit(frozenset({3}), 2) is not None
    assert O.check_exit(frozenset({2}), 0) is not None
    assert O.check_exit(frozenset({0}), "raised ValueError") is not None
    assert O.check_exit(frozenset({0}), False) is not None


def test_gof_oracle_rejects_a_wrong_ks():
    x = np.asarray(O.CROWLEY_HU, dtype=float)
    report = {"model": "lognormal", "k": 2, "loglik": -380.0, "ks": 0.0,
              "params": {"mu": float(np.mean(np.log(x))), "sigma": 1.0}}
    report.update(aic=764.0, bic=764.0 + 2 * (np.log(66) - 2), hqic=760.0 + 4 * np.log(np.log(66)))
    report["ks"] = O.ks_distance(x, O.model_cdf("lognormal", report["params"], np.sort(x)))
    assert O.check_gof_report(x, report) is None
    report["ks"] += 1e-6
    assert O.check_gof_report(x, report) is not None


def test_gof_model_error_is_known_only_on_the_input_it_was_recorded_on(tmp_path):
    session = workloads.AnalysisSession(ecrlab, 3, str(tmp_path))
    recorded = next(c for c in session.commands if c.known_model_error)
    crowley_hu = next(c for c in session.commands if c.check == "ch_gof")
    nan = "The function value at x=100.0 is NaN; solver cannot continue."

    def check(cmd, model, error):
        reports = [{"model": model, "error": error}] + [{"model": m, "error": "later"}
                                                        for m in O.CH_GOF if m != model]
        return session._check_output(cmd, json.dumps({"reports": reports}), None)

    assert check(recorded, "weibull", nan)[0] == "gof.untyped_model_error"
    assert isinstance(check(recorded, "lognormal", nan), str)  # another model: a failure
    assert isinstance(check(recorded, "weibull", "math domain error"), str)  # another error: a failure
    assert isinstance(check(crowley_hu, "weibull", nan), str)  # another input: a failure


@pytest.mark.parametrize("defect", sorted(workloads.MC_KNOWN))
def test_mc_known_defect_above_its_cap_fails(defect):
    study = workloads.MonteCarlo(ecrlab, 1, "", workers=1)
    study.reference_csv = "csv"
    study._check_summaries = lambda v: None
    cap = workloads.MC_KNOWN[defect][1]
    rounds = [workloads.Round(30, 1.0, "csv")] * 3

    def score(hits):
        study._check_replications = lambda v: {(0, rep): defect for rep in range(hits)}
        return study.check(rounds)

    at_cap = score(cap)
    assert at_cap.failed == 0 and at_cap.known_inputs[defect] == cap
    assert at_cap.known[defect] == 3 * workloads.MC_REPS + cap - workloads.MC_REPS
    above = score(cap + 1)
    assert not above.known and above.failed == 3 * workloads.MC_REPS + cap + 1 - workloads.MC_REPS


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)
