"""The places where the benchmark under ``perfbench/`` reaches into the
package: the names it wraps, counts or calls, and the call forms it
relies on. A source change that breaks one of them fails here, in the
package's own suite, instead of in a traced benchmark run. Nothing here
imports the benchmark, so a change to it never needs a change here.
"""

import dataclasses

import numpy as np
import pytest

import ecrlab
from ecrlab import cli, data, ecr, gof, inference, sim, specfun
from ecrlab.data import Dataset
from ecrlab.ecr import Params

# The functions the traced benchmark wraps in a span, by module.
SPANNED = {
    "sim": ("run_grid_study", "run_convergence_study", "_replicate"),
    "inference": ("fit_ml", "fit_cs_ml", "fit_pb", "fit_cr", "lr_test_cr", "log_likelihood",
                  "profile_log_likelihood", "profile_score", "profile_beta", "pb_objective"),
    "gof": ("fit_comparison_models", "cvm_wstar", "ad_astar", "ks_statistic"),
    "ecr": ("sample_from", "raw_moment", "pwm", "log_moment", "incomplete_moment", "order_stat_moment"),
    "specfun": ("lerch_phi_half",),
    "data": ("load_dataset", "parse_values", "describe"),
}
# The other names it wraps, counts, calls or constructs.
CALLED = {
    "specfun": ("gauss_2f1", "appell_f1", "log_gamma", "beta_fn"),
    "inference": ("pb_gradient", "cox_snell_bias_generic", "FitError"),
    "sim": ("StudyConfig", "summaries_to_csv"),
    "ecr": ("Params", "sample", "MomentExistenceError", "LossOfPrecisionError"),
    "data": ("Dataset", "crowley_hu"),
    "cli": ("main",),
}


@pytest.mark.parametrize("module, name", [(m, name) for table in (SPANNED, CALLED)
                                          for m, names in table.items() for name in names])
def test_every_reached_name_is_callable(module, name):
    assert callable(getattr(getattr(ecrlab, module), name))


def test_reached_constants_and_hooks():
    assert data.EMBEDDED_NAME == "embedded:crowley-hu"
    assert callable(Dataset.__post_init__)
    assert isinstance(gof.MODELS, dict) and gof.MODELS is cli.MODELS


def test_series_report_their_terms(monkeypatch):
    value, terms = specfun.gauss_2f1(0.5, 1.0, 2.0, 0.5, full_output=True)
    assert value == specfun.gauss_2f1(0.5, 1.0, 2.0, 0.5) and terms > 0
    value, rows = specfun.appell_f1(0.5, 1.0, 0.5, 2.0, 0.5, 0.25, full_output=True)
    assert value == specfun.appell_f1(0.5, 1.0, 0.5, 2.0, 0.5, 0.25) and rows > 0
    # above the quadrature switch the row count is 0, which the benchmark
    # counts as a quadrature call (the quadrature itself is stubbed: its
    # first call would import scipy.integrate)
    monkeypatch.setattr(specfun, "_appell_f1_quad", lambda *args: 1.5)
    assert specfun.appell_f1(0.5, 1.0, 0.5, 2.0, 0.97, 0.25, full_output=True) == (1.5, 0)


def test_reference_incomplete_moment_reaches_appell_f1(monkeypatch):
    # a traced run measures specfun.appell_f1 only where an incomplete
    # moment reaches it, and exits 1 when a metric has no measurement; in
    # the reference section that is the README example at x0 = 2, which
    # the series in v leave to the Appell series (v0 = 0.45)
    calls = []
    appell_f1 = specfun.appell_f1
    monkeypatch.setattr(ecr, "appell_f1", lambda *a, **k: calls.append(a) or appell_f1(*a, **k))
    moment = Params(0.8, 1.0)
    ecr.incomplete_moment(0.5, 100.0, moment)
    assert calls == []
    assert ecr.incomplete_moment(0.5, 2.0, moment, full_output=True)[1:] == (47, "appell_series")
    assert len(calls) == 1


@pytest.mark.parametrize("name", tuple(gof.MODELS))
def test_model_entries_take_a_replaced_fitter(name):
    entry = gof.MODELS[name]
    fit = lambda d: entry.fit(d)  # noqa: E731
    replaced = dataclasses.replace(entry, fit=fit)
    assert replaced.fit is fit
    assert dataclasses.replace(replaced, fit=entry.fit) == entry


def test_replicate_takes_cell_and_rep_at_five_and_six(monkeypatch):
    # the benchmark keys each outcome by (args[5], args[6]) of the engine's
    # module-level _replicate, which it rebinds
    seen, replicate = {}, sim._replicate

    def keep(args):
        assert len(args) == 7
        seen[args[5], args[6]] = out = replicate(args)
        return out

    monkeypatch.setattr(sim, "_replicate", keep)
    cfg = sim.StudyConfig(truth=Params(1.0, 1.0), sample_sizes=(5, 8), replications=2,
                          estimators=("ml", "csml", "pb"), master_seed=3, grid=((0.5, 2.0), (1.0,)))
    sim.run_grid_study(cfg)
    assert sorted(seen) == [(cell, rep) for cell in range(4) for rep in range(2)]
    for outcomes in seen.values():
        assert [row[0] for row in outcomes] == ["ml", "csml", "pb"]
        assert all(len(row) == 3 for row in outcomes)
    # the draw is SeedSequence(master_seed, spawn_key=(cell, rep))
    beta, lam, n = 2.0, 1.0, 8
    x = ecr.sample_from(np.random.default_rng(np.random.SeedSequence(3, spawn_key=(3, 1))), n, Params(beta, lam))
    fit = inference.fit_pb(Dataset(x))
    assert seen[3, 1][2] == ("pb", fit.params.beta, fit.params.lam)


def test_fit_error_messages_carry_the_benchmark_classes(monkeypatch):
    with pytest.raises(inference.FitError, match="bracket"):
        inference._falling_root(lambda v: -1.0, 1.0, 2.0, "score")
    with pytest.raises(inference.FitError, match="no interior"):
        inference.fit_ml(Dataset(ecr.sample(20, Params(1.0, 1.0), seed=5)))
    monkeypatch.setattr(inference, "_brent_root", lambda f, lo, hi, log_scale=False: (lo, 1, False))
    with pytest.raises(inference.FitError, match="did not converge"):
        inference._falling_root(lambda v: 1.5 - v, 1.0, 2.0, "score")


def test_oracle_calls():
    heart = data.crowley_hu()
    p = Params(0.4, 80.0)
    assert np.isfinite(inference.pb_objective(heart, p))
    assert all(map(np.isfinite, inference.pb_gradient(heart, p)))
    assert inference.cox_snell_bias_generic(p, heart.n) == pytest.approx(inference.cox_snell_bias(p, heart.n))


def test_traced_reference_calls_exit_zero(tmp_path, capsys):
    # the calls the traced benchmark makes under its tracer after the
    # workload, on the README's moments example ECR(0.8, 1) and a 50-draw
    # ECR(0.5, 1) sample; a traced run that raises here exits 1
    moment = Params(0.8, 1.0)
    assert ecr.incomplete_moment(0.5, 100.0, moment) > 0.0
    assert ecr.order_stat_moment(2, 4, 0.4, moment) > 0.0
    assert ecr.pwm(1, 0.3, 2, moment) > 0.0
    assert np.isfinite(ecr.log_moment(moment))
    inference.lr_test_cr(data.crowley_hu())
    path = tmp_path / "ref_sample.txt"
    path.write_text("\n".join(repr(float(v)) for v in ecr.sample(50, Params(0.5, 1.0), 1756)) + "\n")
    argvs = (["describe", str(path)], ["fit", data.EMBEDDED_NAME], ["gof", data.EMBEDDED_NAME],
             ["ttt", str(path)], ["sample", "--beta", "0.5", "--lambda", "1", "--n", "100", "--seed", "1"],
             ["moments", "--beta", "0.8", "--lambda", "1", "--r", "0.5", "--x0", "2",
              "--pwm", "1", "2", "--order-stat", "1", "3"])
    for argv in argvs:
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
