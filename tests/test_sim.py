import math
import multiprocessing
import os
import warnings
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest

from ecrlab.data import Dataset, InputError
from ecrlab.ecr import Params, sample_from
from ecrlab.inference import FitError, fit_cs_ml, fit_ml, fit_pb
from ecrlab import inference, sim
from ecrlab.sim import (
    ESTIMATORS,
    CellSummary,
    StudyConfig,
    run_convergence_study,
    run_grid_study,
    summaries_to_csv,
)

SMALL = StudyConfig(
    truth=Params(0.5, 0.6),
    sample_sizes=(20, 40),
    replications=30,
    estimators=("ml", "pb"),
    master_seed=99,
)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StudyConfig(Params(1, 1), (20,), 0)
        with pytest.raises(ValueError):
            StudyConfig(Params(1, 1), (4,), 10)
        with pytest.raises(ValueError):
            StudyConfig(Params(1, 1), (20,), 10, estimators=("ml", "bogus"))

    # each of these ran before: a negative seed failed inside the first
    # replication, and the others ran a study of the wrong shape (a
    # repeated estimator printed its rows twice)
    @pytest.mark.parametrize("field, change", [
        ("master_seed", {"master_seed": -1}),
        ("estimators", {"estimators": ()}),
        ("estimators", {"estimators": "ml"}),
        ("grid", {"grid": ((), (1.0,))}),
        ("grid", {"grid": ((1.0,), ())}),
        ("estimators", {"estimators": ("ml", "pb", "ml")}),
    ])
    def test_rejected_fields_are_named(self, field, change):
        with pytest.raises(ValueError, match=field):
            StudyConfig(Params(1, 1), (20,), 10, **change)

    def test_estimators_stored_as_a_tuple(self):
        assert StudyConfig(Params(1, 1), (20,), 10, estimators=["pb", "ml"]).estimators == ("pb", "ml")


class TestDeterminism:
    def test_repeat_runs_identical(self):
        a = run_convergence_study(SMALL)
        b = run_convergence_study(SMALL)
        assert summaries_to_csv(a) == summaries_to_csv(b)

    def test_serial_and_parallel_identical(self):
        serial = summaries_to_csv(run_convergence_study(SMALL, workers=1))
        parallel = summaries_to_csv(run_convergence_study(SMALL, workers=2))
        assert serial == parallel

    def test_single_replication_reproducible(self):
        # ssd is nan with one replication, so compare rendered output
        cfg = StudyConfig(Params(0.5, 0.6), (25,), 1, ("ml",), master_seed=5)
        assert summaries_to_csv(run_convergence_study(cfg)) == summaries_to_csv(
            run_convergence_study(cfg)
        )

    def test_master_seed_changes_output(self):
        a = run_convergence_study(SMALL)
        b = run_convergence_study(
            StudyConfig(SMALL.truth, SMALL.sample_sizes, SMALL.replications,
                        SMALL.estimators, master_seed=100)
        )
        assert summaries_to_csv(a) != summaries_to_csv(b)


class TestEngineAgainstDirectCalls:
    def test_estimates_match_inference_module(self):
        # regenerate the replication streams and fit them directly; the
        # cell means must match to the bit for every estimator
        cfg = StudyConfig(Params(0.5, 0.6), (30,), 8, ESTIMATORS, master_seed=7)
        summaries = run_convergence_study(cfg)
        direct = {"ml": fit_ml, "csml": fit_cs_ml, "pb": fit_pb}
        for est, fit in direct.items():
            estimates = []
            for rep in range(cfg.replications):
                seed = np.random.SeedSequence(7, spawn_key=(0, rep))
                rng = np.random.default_rng(seed)
                data = Dataset(sample_from(rng, 30, cfg.truth))
                try:
                    result = fit(data)
                except FitError:
                    continue
                if result.correctable:
                    estimates.append(result.params.beta)
            beta_row = next(
                s for s in summaries if s.parameter == "beta" and s.estimator == est
            )
            assert estimates, est
            assert beta_row.mean_bias == float(np.mean(estimates)) - cfg.truth.beta, est
            assert beta_row.successes == len(estimates), est

    def test_summary_statistics_definitions(self):
        cfg = StudyConfig(Params(0.5, 0.6), (30,), 8, ("ml",), master_seed=7)
        summaries = run_convergence_study(cfg)
        row = next(s for s in summaries if s.parameter == "lambda")
        draws = []
        for rep in range(cfg.replications):
            rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(0, rep)))
            data = Dataset(sample_from(rng, 30, cfg.truth))
            try:
                draws.append(fit_ml(data).params.lam)
            except FitError:
                pass
        assert row.ssd == pytest.approx(float(np.std(draws, ddof=1)), rel=1e-12)
        assert row.relative_bias == pytest.approx(row.mean_bias / cfg.truth.lam, rel=1e-12)
        assert row.relative_ssd == pytest.approx(row.ssd / cfg.truth.lam, rel=1e-12)

    @pytest.mark.parametrize("scale", [2.0**996, 2.0**-1000], ids=["2^996", "2^-1000"])
    def test_summaries_at_the_ends_of_the_float_range(self, scale):
        # the squares of pb scale estimates near 1e301 overflowed, with a
        # RuntimeWarning; sampling and pb are scale equivariant to the bit
        # under a power of two, and so must the summaries be
        unit = StudyConfig(Params(1.0, 1.0), (20,), 3, ("pb",), master_seed=5)
        far = replace(unit, truth=Params(1.0, scale))
        for a, b in zip(run_convergence_study(unit), run_convergence_study(far), strict=True):
            assert (b.relative_bias, b.relative_ssd) == (a.relative_bias, a.relative_ssd)


class TestAccounting:
    def test_buckets_sum_to_replications(self):
        cfg = StudyConfig(Params(0.5, 0.6), (20, 50), 40, ("ml", "csml", "pb"), master_seed=3)
        for row in run_convergence_study(cfg):
            assert row.successes + row.failures + row.uncorrectable == cfg.replications

    def test_uncorrectable_counted_for_csml(self):
        # large shape at small n makes most corrections leave the space
        cfg = StudyConfig(Params(6.0, 1.0), (8,), 25, ("csml",), master_seed=11)
        rows = run_convergence_study(cfg)
        assert any(r.uncorrectable > 0 for r in rows)


class TestGridStudy:
    def test_requires_grid(self):
        with pytest.raises(ValueError):
            run_grid_study(SMALL)

    def test_cell_layout(self):
        cfg = StudyConfig(
            Params(1.0, 1.0), (20,), 5, ("ml",), master_seed=2,
            grid=((0.5, 1.0), (1.0, 2.0, 3.0)),
        )
        rows = run_grid_study(cfg)
        # 2 betas x 3 lambdas x 1 n x 1 estimator x 2 parameters
        assert len(rows) == 12
        assert {(r.beta_true, r.lambda_true) for r in rows} == {
            (b, l) for b in (0.5, 1.0) for l in (1.0, 2.0, 3.0)
        }
        assert sorted({r.cell for r in rows}) == list(range(6))


class TestEstimatorOrder:
    def test_summaries_independent_of_estimator_order(self):
        # beta = 0.5 at n = 8 has ML failures, beta = 6 uncorrectable csml
        # outcomes, so both counts go through the regrouping
        cfg = StudyConfig(Params(1.0, 1.0), (8,), 25, ("ml", "csml", "pb"), master_seed=11,
                          grid=((0.5, 6.0), (1.0,)))
        key = lambda r: (r.cell, r.estimator, r.parameter)
        default = sorted(run_grid_study(cfg), key=key)
        reordered = sorted(run_grid_study(replace(cfg, estimators=("pb", "csml", "ml"))), key=key)
        assert any(r.failures > 0 for r in default)
        assert any(r.uncorrectable > 0 for r in default)
        assert len(reordered) == len(default)
        for a, b in zip(default, reordered):
            # NaN fields make the records unequal to themselves; compare their CSV rows
            assert summaries_to_csv([a]) == summaries_to_csv([b])
            assert (a.failures, a.uncorrectable, a.successes) == (b.failures, b.uncorrectable, b.successes)


class TestCsv:
    def test_header_and_shape(self):
        rows = run_convergence_study(SMALL)
        text = summaries_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == (
            "cell,beta_true,lambda_true,n,estimator,parameter,"
            "mean_bias,relative_bias,ssd,relative_ssd,failures"
        )
        assert len(lines) == 1 + len(rows)

    def test_excluded_count_in_failures_column(self):
        row = CellSummary(0, 1.0, 1.0, 10, "csml", "beta", 0.1, 0.1, 0.2, 0.2,
                          failures=2, uncorrectable=3, successes=5)
        text = summaries_to_csv([row])
        assert text.strip().split("\n")[1].endswith(",5")


class TestQualitativeBehavior:
    def test_ml_bias_shrinks_with_n(self):
        cfg = StudyConfig(Params(0.5, 0.6), (20, 200), 300, ("ml",), master_seed=42)
        rows = run_convergence_study(cfg)
        by_n = {
            (r.n, r.parameter): abs(r.mean_bias)
            for r in rows
        }
        assert by_n[(200, "beta")] < by_n[(20, "beta")]
        assert by_n[(200, "lambda")] < by_n[(20, "lambda")]

    def test_ml_nearly_unbiased_at_largest_n(self):
        cfg = StudyConfig(Params(0.5, 0.6), (250,), 1000, ("ml",), master_seed=314)
        rows = run_convergence_study(cfg)
        beta_row = next(r for r in rows if r.parameter == "beta")
        assert abs(beta_row.mean_bias) < 0.02

    def test_pb_scale_noisier_and_more_biased_than_ml(self):
        # the percentile objective is dominated by the largest order
        # statistic, so its scale estimate blows up on heavy-tail samples
        cfg = StudyConfig(Params(0.5, 0.6), (100,), 300, ("ml", "pb"), master_seed=17)
        rows = run_convergence_study(cfg)
        ssd = {(r.estimator, r.parameter): r.ssd for r in rows}
        bias = {(r.estimator, r.parameter): abs(r.mean_bias) for r in rows}
        assert ssd[("pb", "lambda")] > ssd[("ml", "lambda")]
        assert bias[("pb", "lambda")] > bias[("ml", "lambda")]

    def test_correction_helps_small_shape_on_grid(self):
        cfg = StudyConfig(
            Params(1.0, 1.0), (100,), 400, ("ml", "csml"), master_seed=41,
            grid=((0.2,), (1.0,)),
        )
        rows = run_grid_study(cfg)
        rel = {r.estimator: abs(r.relative_bias) for r in rows if r.parameter == "beta"}
        assert rel["csml"] < rel["ml"]


class TestPercentileStudy:
    def test_small_samples_complete(self):
        # at n = 15 the shape grid's tiny-beta end has t9 = 0 exactly, where
        # the scale lam2 = t8/t9 is undefined; the study must still finish
        cfg = StudyConfig(Params(1, 1), (15,), 3, ("pb",))
        rows = run_convergence_study(cfg)
        assert all(r.successes + r.failures + r.uncorrectable == 3 for r in rows)

    def test_no_runtime_warning(self):
        cfg = StudyConfig(Params(1, 1), (15, 20), 10, ("pb",), master_seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            run_convergence_study(cfg)


class TestOneMlFitPerReplication:
    ARGS = (0.5, 0.6, 30, ("ml", "csml", "pb"), 7, 0, 1)

    def counting_fit_ml(self, monkeypatch, fail=False):
        calls = []
        fit_ml_direct = inference.fit_ml

        def counted(data):
            calls.append(data)
            if fail:
                raise FitError("forced")
            return fit_ml_direct(data)

        monkeypatch.setattr(inference, "fit_ml", counted)
        return calls

    def test_csml_reuses_the_ml_fit(self, monkeypatch):
        expected = sim._replicate(self.ARGS)
        calls = self.counting_fit_ml(monkeypatch)
        assert sim._replicate(self.ARGS) == expected
        assert len(calls) == 1

    def test_ml_failure_is_csml_failure(self, monkeypatch):
        calls = self.counting_fit_ml(monkeypatch, fail=True)
        out = sim._replicate(self.ARGS)
        assert len(calls) == 1
        assert out[:2] == [("ml", None, None), ("csml", None, None)]
        assert out[2][0] == "pb" and out[2][1] is not None

    @pytest.mark.parametrize("error", [ValueError("a defect"), InputError("a defect")],
                             ids=lambda error: type(error).__name__)
    @pytest.mark.parametrize("fitter", ["fit_ml", "fit_pb"])
    def test_only_a_fit_error_is_a_failed_fit(self, monkeypatch, fitter, error):
        # any other exception is a defect, and ends the study
        def broken(data):
            raise error

        monkeypatch.setattr(inference, fitter, broken)
        with pytest.raises(type(error)) as info:
            sim._replicate(self.ARGS)
        assert info.value is error


class TestPoolSize:
    """The fork start method launches every worker at once, so the pool
    never outnumbers the tasks or the cores. A fake executor records the
    pool size and each map's tasks and chunk size, and maps serially; no
    real pool is started."""

    CFG = StudyConfig(truth=Params(0.5, 0.6), sample_sizes=(20,), replications=3,
                      estimators=("ml",), master_seed=5)
    # cells differ in n, out of size order, and in beta
    GRID = StudyConfig(truth=Params(1.0, 1.0), sample_sizes=(8, 40, 20), replications=5,
                       estimators=("ml", "pb"), master_seed=5, grid=((0.5, 2.0), (1.0,)))

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        sizes = []
        self.maps = maps = []  # (tasks, chunksize) per map call

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def map(self, fn, tasks, chunksize=1):
                tasks = list(tasks)
                maps.append((tasks, chunksize))
                return map(fn, tasks)

            def shutdown(self, wait=True):
                pass

        # the process keeps its pool, so neither a real pool from an
        # earlier test nor this fake may stay cached across the test
        sim._close_pool()
        monkeypatch.setattr(sim, "ProcessPoolExecutor", SerialPool)
        yield sizes
        sim._close_pool()

    @pytest.mark.parametrize("cores, sizes", [(8, [3]), (2, [2]), (1, []), (None, [])])
    def test_clamped_to_tasks_and_cores(self, pool_sizes, monkeypatch, cores, sizes):
        serial = summaries_to_csv(run_convergence_study(self.CFG))
        monkeypatch.setattr(sim.os, "cpu_count", lambda: cores)
        assert summaries_to_csv(run_convergence_study(self.CFG, workers=1000)) == serial
        assert pool_sizes == sizes

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_largest_samples_first_in_few_chunks(self, pool_sizes, monkeypatch, workers):
        serial = summaries_to_csv(run_grid_study(self.GRID))
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 4)
        assert summaries_to_csv(run_grid_study(self.GRID, workers=workers)) == serial
        [(tasks, chunksize)] = self.maps
        # every (cell, replication) once, sizes never increasing, and
        # within a size the (cell, replication) order
        assert sorted((t[5], t[6]) for t in tasks) == [(c, r) for c in range(6) for r in range(5)]
        assert tasks == sorted(tasks, key=lambda t: (-t[2], t[5], t[6]))
        assert math.ceil(len(tasks) / chunksize) <= 4 * workers


class TestSharedPool:
    """Parallel studies share one pool per process: the same worker count
    reuses its workers, another count or a broken pool forks fresh ones,
    and every study's CSV equals the serial one."""

    CFG = StudyConfig(truth=Params(0.5, 0.6), sample_sizes=(20,), replications=6,
                      estimators=("ml", "pb"), master_seed=8)

    @pytest.fixture(autouse=True, scope="class")
    def close_the_pool(self):
        # the process keeps its pool; join its workers rather than leave
        # them alive for the rest of the test run
        yield
        sim._close_pool()

    @pytest.fixture
    def serial(self, monkeypatch):
        # enough cores for a pool of three, whatever the machine has
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 4)
        return summaries_to_csv(run_convergence_study(self.CFG))

    def study(self, workers):
        """The study's CSV and the pids of the workers alive after it."""
        csv = summaries_to_csv(run_convergence_study(self.CFG, workers=workers))
        return csv, {p.pid for p in multiprocessing.active_children()}

    def test_same_count_reuses_the_workers(self, serial):
        first, pids = self.study(2)
        second, again = self.study(2)
        assert first == second == serial
        assert len(pids) == 2 and again == pids

    def test_other_count_replaces_the_workers(self, serial):
        csv, two = self.study(2)
        assert csv == serial and len(two) == 2
        # held here, the old pool would keep its workers if it were only
        # dropped from the cache rather than shut down
        held = sim._pool(2)
        # a one-worker study runs serially and leaves the pool as it is
        assert self.study(1) == (serial, two)
        csv, three = self.study(3)
        assert csv == serial and len(three) == 3
        csv, two_again = self.study(2)
        assert csv == serial and len(two_again) == 2
        gone = two | three
        assert not gone & two_again
        assert not any(alive(pid) for pid in gone)
        assert held is not sim._pool(2)

    def test_broken_pool_is_not_reused(self, serial):
        _, before = self.study(2)
        with pytest.raises(BrokenProcessPool):
            sim._pool(2).submit(os._exit, 1).result(timeout=60)
        with pytest.raises(BrokenProcessPool):
            run_convergence_study(self.CFG, workers=2)
        csv, after = self.study(2)
        assert csv == serial
        assert len(after) == 2 and not after & before

    @pytest.mark.parametrize("workers", [2, 3])
    def test_grid_study_across_sizes(self, monkeypatch, workers):
        # the pool runs the n = 40 cells first; each result must go back
        # to its own cell and replication
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 4)
        grid = StudyConfig(truth=Params(1.0, 1.0), sample_sizes=(8, 40), replications=3,
                           estimators=ESTIMATORS, master_seed=8, grid=((0.5, 2.0), (1.0,)))
        reference = summaries_to_csv(run_grid_study(grid))
        assert summaries_to_csv(run_grid_study(grid, workers=workers)) == reference


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True
