import math

import numpy as np
import pytest

from ecrlab.data import Dataset, InputError
from ecrlab.ecr import Params, cdf, quantile, sample
from ecrlab.gof import (
    MODEL_ORDER,
    MODELS,
    ad_astar,
    cvm_wstar,
    fit_comparison_models,
    gof_report,
    info_criteria,
    ks_statistic,
    ttt_transform,
)
from ecrlab.inference import fit_ml

# Reference application values this suite pins (heart-transplant data):
# model -> (params, W*, A*, KS, AIC, CAIC, BIC, HQIC)
REFERENCE_ROWS = {
    "ecr": ((0.38669, 80.68399), 0.039, 0.286, 0.057, 764.612, 764.803, 768.992, 766.343),
    "cr": ((24.49100,), 0.213, 1.254, 0.132, 785.023, 785.085, 787.212, 785.888),
    "weibull": ((0.66923, 104.10812), 0.114, 0.689, 0.118, 767.444, 767.635, 771.824, 769.175),
    "gamma": ((0.55830, 257.40580), 0.195, 1.172, 0.159, 772.658, 772.849, 777.037, 774.389),
    "lognormal": ((3.84913, 1.64286), 0.102, 0.579, 0.089, 764.915, 765.105, 769.294, 766.645),
    "ee": ((0.55028, 0.00449), 0.210, 1.261, 0.168, 773.709, 773.900, 778.088, 775.440),
}


class TestKs:
    def test_exact_on_constructed_quantile_data(self):
        p = Params(0.7, 2.0)
        n = 24
        data = Dataset(quantile(np.arange(1, n + 1) / (n + 1.0), p))
        assert ks_statistic(data, lambda x: cdf(x, p)) == pytest.approx(1.0 / (n + 1.0), rel=1e-10)

    def test_application_values(self, heart_data):
        ecr_hat = Params(0.38669, 80.68399)
        assert ks_statistic(heart_data, lambda x: cdf(x, ecr_hat)) == pytest.approx(0.057, abs=1e-3)
        cr_hat = Params(1.0, 24.491)
        assert ks_statistic(heart_data, lambda x: cdf(x, cr_hat)) == pytest.approx(0.132, abs=1e-3)


class TestCorrectedStatistics:
    def test_ecr_application_values(self, heart_data):
        p = Params(0.38669, 80.68399)
        assert cvm_wstar(heart_data, lambda x: cdf(x, p)) == pytest.approx(0.039, abs=2e-3)
        assert ad_astar(heart_data, lambda x: cdf(x, p)) == pytest.approx(0.286, abs=5e-3)

    def test_lognormal_application_values(self, heart_data):
        entry = MODELS["lognormal"]
        theta = entry.fit(heart_data)
        assert cvm_wstar(heart_data, lambda x: entry.cdf(x, theta)) == pytest.approx(0.102, abs=2e-3)
        assert ad_astar(heart_data, lambda x: entry.cdf(x, theta)) == pytest.approx(0.579, abs=5e-3)

    def test_degenerate_probability_flags_infinite(self):
        data = Dataset(np.array([1.0, 2.0, 3.0]))
        assert cvm_wstar(data, lambda x: np.where(np.asarray(x) > 2.5, 1.0, 0.5)) == math.inf
        assert ad_astar(data, lambda x: np.where(np.asarray(x) > 2.5, 1.0, 0.5)) == math.inf

    def test_calibration_under_the_true_model(self):
        # refit simulated samples; W* should usually fall below the 10%
        # critical value 0.347
        truth = Params(0.5, 0.6)
        below = 0
        total = 200
        for rep in range(total):
            data = Dataset(sample(66, truth, seed=700_000 + rep))
            try:
                fit = fit_ml(data)
            except Exception:
                total -= 1
                continue
            if cvm_wstar(data, lambda x: cdf(x, fit.params)) < 0.347:
                below += 1
        assert below >= 0.85 * total


class TestInfoCriteria:
    def test_ecr_row(self):
        crit = info_criteria(-380.306, 2, 66)
        assert crit.aic == pytest.approx(764.612, abs=0.01)
        assert crit.caic == pytest.approx(764.803, abs=0.01)
        assert crit.bic == pytest.approx(768.992, abs=0.01)
        assert crit.hqic == pytest.approx(766.343, abs=0.01)

    def test_cr_row(self):
        crit = info_criteria(-391.5112, 1, 66)
        assert crit.aic == pytest.approx(785.023, abs=0.01)
        assert crit.caic == pytest.approx(785.085, abs=0.01)
        assert crit.bic == pytest.approx(787.212, abs=0.01)
        assert crit.hqic == pytest.approx(785.888, abs=0.01)

    def test_zero_parameters(self):
        crit = info_criteria(-10.0, 0, 50)
        assert crit.aic == crit.caic == crit.bic == crit.hqic == 20.0

    def test_caic_gap_identity(self):
        for k, n in ((1, 30), (2, 66), (3, 10)):
            crit = info_criteria(-5.0, k, n)
            assert crit.caic - crit.aic == pytest.approx(2.0 * k * (k + 1.0) / (n - k - 1.0), rel=1e-12)

    def test_caic_undefined_flag(self):
        assert math.isnan(info_criteria(-5.0, 3, 4).caic)


class TestTtt:
    def test_final_point_is_one(self, heart_data):
        points = ttt_transform(heart_data)
        assert points[-1, 0] == 1.0
        assert points[-1, 1] == pytest.approx(1.0, rel=1e-14)

    def test_constant_sample(self):
        points = ttt_transform(Dataset(np.full(7, 3.5)))
        assert np.allclose(points[:, 1], 1.0)

    def test_nondecreasing(self, heart_data):
        points = ttt_transform(heart_data)
        assert np.all(np.diff(points[:, 1]) >= 0.0)

    def test_matches_direct_recomputation(self, heart_data):
        y = np.sort(heart_data.values)
        n = heart_data.n
        expected = [
            (np.sum(y[:r]) + (n - r) * y[r - 1]) / np.sum(y) for r in range(1, n + 1)
        ]
        assert np.allclose(ttt_transform(heart_data)[:, 1], expected, rtol=1e-13)

    def test_below_diagonal_early(self, heart_data):
        # right-skewed data with decreasing hazard dips below the diagonal
        points = ttt_transform(heart_data)
        early = points[: heart_data.n // 3]
        assert np.any(early[:, 1] < early[:, 0])


@pytest.fixture(scope="module")
def fits(heart_data):
    return {f.model.name: f for f in fit_comparison_models(heart_data)}


class TestComparisonModels:
    def test_every_model_fits(self, fits):
        assert set(fits) == set(MODEL_ORDER)
        assert all(f.report is not None for f in fits.values())

    @pytest.mark.parametrize("name", MODEL_ORDER)
    def test_estimates_match_reference(self, fits, name):
        expected = REFERENCE_ROWS[name][0]
        assert fits[name].params == pytest.approx(expected, rel=1e-3)

    @pytest.mark.parametrize("name", MODEL_ORDER)
    def test_gof_row_matches_reference(self, fits, name):
        _, wstar, astar, ks, aic, caic, bic, hqic = REFERENCE_ROWS[name]
        report = fits[name].report
        assert report.wstar == pytest.approx(wstar, abs=5e-3)
        assert report.astar == pytest.approx(astar, abs=5e-3)
        assert report.ks == pytest.approx(ks, abs=5e-3)
        assert report.aic == pytest.approx(aic, abs=0.02)
        assert report.caic == pytest.approx(caic, abs=0.02)
        assert report.bic == pytest.approx(bic, abs=0.02)
        assert report.hqic == pytest.approx(hqic, abs=0.02)

    def test_best_fit_ranks_first_everywhere(self, fits):
        ecr = fits["ecr"].report
        for name, fit in fits.items():
            if name == "ecr":
                continue
            other = fit.report
            assert ecr.wstar < other.wstar
            assert ecr.astar < other.astar
            assert ecr.ks < other.ks
            assert ecr.aic < other.aic
            assert ecr.caic < other.caic
            assert ecr.bic < other.bic
            assert ecr.hqic < other.hqic

    def test_sorted_by_wstar(self, heart_data):
        reports = [f.report for f in fit_comparison_models(heart_data)]
        ws = [r.wstar for r in reports]
        assert ws == sorted(ws)
        assert reports[0].model == "ecr"

    def test_statistics_permutation_invariant(self, heart_data, rng):
        shuffled = Dataset(rng.permutation(heart_data.values))
        p = Params(0.38669, 80.68399)
        for stat in (ks_statistic, cvm_wstar, ad_astar):
            assert stat(heart_data, lambda x: cdf(x, p)) == pytest.approx(
                stat(shuffled, lambda x: cdf(x, p)), rel=1e-12
            )

    def test_report_fields(self, fits, heart_data):
        report = fits["ecr"].report
        assert report.k == 2
        assert report.n == heart_data.n
        assert 0.0 <= report.ks <= 1.0
        assert report.caic >= report.aic

    @pytest.mark.parametrize("values", [[4.2], [3.0, 3.0, 3.0]])
    def test_fewer_than_two_distinct_values_rejected(self, values):
        with pytest.raises(InputError):
            fit_comparison_models(Dataset(np.array(values)))

    def test_gof_report_uses_supplied_parameters(self, heart_data):
        entry = MODELS["cr"]
        report = gof_report(heart_data, entry, (24.491,))
        assert report.model == "cr"
        assert report.ks == pytest.approx(0.132, abs=1e-3)
