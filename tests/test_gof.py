import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecrlab import gof
from ecrlab.data import Dataset, InputError
from ecrlab.ecr import Params, cdf, quantile, sample
from ecrlab.gof import (
    MODELS,
    ad_astar,
    cvm_wstar,
    fit_comparison_models,
    gof_report,
    info_criteria,
    ks_statistic,
    ttt_transform,
)
from ecrlab.inference import FitError, fit_ml

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

    def test_near_the_top_of_the_float_range(self):
        # the raw sum overflowed here: a RuntimeWarning and G = nan for every r;
        # in units the power of two cancels, so the 2^-1000 copy, inside the
        # range where nothing is scaled, gives the same bits
        values = np.array([1.7e308, 1.6e308, 1e308, 3e307, 1.2e300])
        top = ttt_transform(Dataset(values))
        assert np.array_equal(top, ttt_transform(Dataset(np.ldexp(values, -1000))))
        assert top[-1, 1] == 1.0 and np.all(np.diff(top[:, 1]) >= 0.0)


@pytest.fixture(scope="module")
def fits(heart_data):
    return {f.model.name: f for f in fit_comparison_models(heart_data)}


class TestComparisonModels:
    def test_every_model_fits(self, fits):
        assert set(fits) == set(MODELS)
        assert all(f.report is not None for f in fits.values())

    @pytest.mark.parametrize("name", tuple(MODELS))
    def test_estimates_match_reference(self, fits, name):
        expected = REFERENCE_ROWS[name][0]
        assert fits[name].params == pytest.approx(expected, rel=1e-3)

    @pytest.mark.parametrize("name", tuple(MODELS))
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

    # the failures that once escaped a fit as a bare RuntimeError, ValueError
    # and OverflowError now arrive as fit errors, and are recorded as such
    @pytest.mark.parametrize("error", [FitError("no bracket"), FitError("EE profile score did not converge"),
                                       FitError("EE profile score has no bracketed root"),
                                       FitError("the scale grid leaves the floating-point range: the data span "
                                                "too many orders of magnitude")])
    def test_fit_error_is_recorded(self, heart_data, monkeypatch, error):
        def failing(data):
            raise error

        monkeypatch.setitem(MODELS, "gamma", dataclasses.replace(MODELS["gamma"], fit=failing))
        fits = fit_comparison_models(heart_data)
        assert [f.model.name for f in fits][-1] == "gamma"
        assert (fits[-1].report, fits[-1].error) == (None, str(error))
        assert all(f.report is not None for f in fits[:-1])

    def test_other_exceptions_propagate(self, heart_data, monkeypatch):
        # anything but a fit error is a defect, not a model that failed to
        # fit: a built-in error, and a package error of another branch
        for error in (TypeError("unsupported operand"), RuntimeError("solver did not converge"),
                      ValueError("f(a) and f(b) must have different signs"), OverflowError("math range error"),
                      InputError("dataset contains non-positive values")):
            def broken(data):
                raise error

            monkeypatch.setitem(MODELS, "gamma", dataclasses.replace(MODELS["gamma"], fit=broken))
            with pytest.raises(type(error)) as info:
                fit_comparison_models(heart_data)
            assert info.value is error

    def test_weibull_scale_matches_raw_data_formula(self, heart_data):
        # the scale comes from the geometric-mean-normalized data; on data
        # of ordinary scale it must agree with mean(x^a)^(1/a) on the raw x
        for data in (Dataset(np.array([1.0, 2.0, 5.0])), heart_data,
                     Dataset(7.0 * np.random.default_rng(3).weibull(1.3, 200))):
            shape, scale = MODELS["weibull"].fit(data)
            expected = float(np.mean(data.values**shape)) ** (1.0 / shape)
            assert scale == pytest.approx(expected, rel=1e-12, abs=0)

    def test_weibull_heavy_tail_keeps_weights_in_range(self):
        # max/geo is far above 1.2e3 here, so x^a on the geometric-mean
        # normalized data overflowed at the bracket end a = 100; the shape
        # must still solve the likelihood equation (RuntimeWarnings are
        # errors under this suite's settings)
        data = Dataset(sample(200, Params(1.5, 5.0), seed=3))
        log_x = np.log(data.values)
        assert math.exp(log_x.max() - log_x.mean()) > 1.2e3
        shape, scale = MODELS["weibull"].fit(data)
        weights = np.exp(shape * (log_x - log_x.max()))
        residual = 1.0 / shape + log_x.mean() - float(np.sum(weights * log_x) / np.sum(weights))
        assert abs(residual * shape) <= 1e-9
        assert scale == pytest.approx(float(np.mean(data.values**shape)) ** (1.0 / shape), rel=1e-12)

    def test_gof_report_uses_supplied_parameters(self, heart_data):
        entry = MODELS["cr"]
        report = gof_report(heart_data, entry, (24.491,))
        assert report.model == "cr"
        assert report.ks == pytest.approx(0.132, abs=1e-3)


def _weibull_shape_root(values, start):
    """The root of 1/a + mean(log x) - sum(x^a log x)/sum(x^a) on the
    exact data at 40 digits; the left side falls in a, so it is unique."""
    with mpmath.workdps(40):
        x = [mpmath.mpf(v) for v in values]
        logs = [mpmath.log(v) for v in x]
        mean_log = sum(logs) / len(x)
        return float(mpmath.findroot(lambda a: 1 / a + mean_log - sum(v**a * l for v, l in zip(x, logs))
                                     / sum(v**a for v in x), start))


def _gamma_shape_root(values, start):
    """(root, gap): the root of log p - psi(p) = gap = log(mean x) -
    mean(log x) on the exact data at 40 digits, unique as the left side
    falls in p."""
    with mpmath.workdps(40):
        x = [mpmath.mpf(v) for v in values]
        gap = mpmath.log(sum(x) / len(x)) - sum(mpmath.log(v) for v in x) / len(x)
        return float(mpmath.findroot(lambda p: mpmath.log(p) - mpmath.digamma(p) - gap, start)), float(gap)


class TestShapeBrackets:
    """The Weibull and gamma shape equations are bracketed from the data.
    The fixed brackets [1e-3, 100] and [1e-6, 1e6] held no root for
    Weibull on the first three samples and for gamma on the second and
    third ("no bracketed root", exit 3)."""

    SAMPLES = [[1000.0, 1001.0, 1002.0, 999.0, 998.0, 1000.5],
               [100000.0, 100001.0, 100002.0, 99999.0, 99998.0],
               [1.0, 1.0001, 1.0002],
               [1e-300, 1.0, 1e300],
               [1.0, 2.0, 5.0]]

    @pytest.mark.parametrize("values", SAMPLES)
    def test_weibull_shape_is_the_root(self, values):
        shape, _ = MODELS["weibull"].fit(Dataset(np.array(values)))
        assert shape == pytest.approx(_weibull_shape_root(values, shape), rel=1e-10)

    @pytest.mark.parametrize("values", SAMPLES)
    def test_gamma_shape_is_the_root(self, values):
        # log p - psi(p) carries about 1e-15 of rounding against a slope of
        # about gap/p, so the shape is good to about 1e-15/gap relative
        # (measured: at most 7e-16/gap)
        shape, _ = MODELS["gamma"].fit(Dataset(np.array(values)))
        root, gap = _gamma_shape_root(values, shape)
        assert shape == pytest.approx(root, rel=max(1e-12, 4e-15 / gap))

    def test_log_minus_digamma_against_mpmath(self):
        # the difference itself below p = 15, within 1e-14; the asymptotic
        # series from 15 on, within about one rounding
        with mpmath.workdps(40):
            for p in np.geomspace(0.01, 1e12, 61).tolist() + [14.999999, 15.0]:
                ref = mpmath.log(p) - mpmath.digamma(p)
                bound = 1e-14 if p < 15.0 else 2.3e-16
                assert abs(gof._log_minus_digamma(p) - ref) <= bound * ref, p

    def test_gamma_gap_rounding_to_zero_is_typed(self):
        # the gap of two adjacent floats rounds to 0, so the bracket
        # [1/(4 gap), 2/gap] does not exist; the error says so instead of
        # dividing by 0 or ending in a bare "math domain error"
        with pytest.raises(FitError, match="^gamma shape equation has no bracketed root: log"):
            MODELS["gamma"].fit(Dataset(np.array([1e27, np.nextafter(1e27, np.inf)])))


# How each comparison fit's parameters follow the data scaled by c: shapes
# are scale free, scales move with c and the EE rate against it.
SCALED = {
    "cr": lambda theta, c: (c * theta[0],),
    "weibull": lambda theta, c: (theta[0], c * theta[1]),
    "gamma": lambda theta, c: (theta[0], c * theta[1]),
    "ee": lambda theta, c: (theta[0], theta[1] / c),
}


class TestComparisonFitScaleEquivariance:
    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(model=st.sampled_from(tuple(SCALED)), seed=st.integers(0, 2**32 - 1), n=st.integers(5, 200),
           beta=st.floats(0.3, 3.0), log_c=st.floats(-100.0, 100.0))
    def test_scale_equivariance_property(self, model, seed, n, beta, log_c):
        data = Dataset(sample(n, Params(beta, 1.0), seed=seed))
        c = 10.0**log_c
        fit = MODELS[model].fit
        try:
            base = fit(data)
        except FitError:
            # scaling must not turn a failure into a fit either
            with pytest.raises(FitError):
                fit(data.scaled(c))
            return
        assert fit(data.scaled(c)) == pytest.approx(SCALED[model](base, c), rel=1e-10, abs=0)

    # A sample in units of its largest value's power of two, times 2^+-1000
    # with every value still a normal float, is fitted in those same units,
    # so shapes keep their bits and scales move by exactly 2^k. The raw
    # sums and logs moved them by rounding, or overflowed near 2^1024.
    @pytest.mark.parametrize("k", [-1000, 1000])
    @pytest.mark.parametrize("model", ["gamma", "ee"])
    def test_power_of_two_scaling_is_exact(self, model, k):
        for n, beta, seed in [(20, 3.0, 1), (50, 2.0, 2), (200, 1.5, 3)]:
            x = sample(n, Params(beta, 1.0), seed=seed)
            units = np.ldexp(x, -math.frexp(float(x.max()))[1])
            scaled = np.ldexp(units, k)
            assert scaled.min() >= 2.0**-1022 and scaled.max() < 2.0**1023
            assert MODELS[model].fit(Dataset(scaled)) == SCALED[model](MODELS[model].fit(Dataset(units)), 2.0**k)

    # Tight data below 2^-200 (largest values 1e-305 to 1e-250) are fitted
    # in units of their largest value's power of two. On the raw data the
    # EE score's terms x e^(-rate x) underflowed and its root was noise:
    # on these samples, off the scale-1 fit by up to 100 %.
    @pytest.mark.parametrize("k", [-1012, -950, -900, -830])
    def test_ee_on_tight_tiny_data_is_the_unit_fit(self, k):
        rng = np.random.default_rng(24)
        for n, width in [(5, 0.1), (20, 0.2), (100, 0.5)]:
            units = np.ldexp(1.0 + width * rng.random(n), -1)
            alpha, rate = MODELS["ee"].fit(Dataset(units))
            assert MODELS["ee"].fit(Dataset(np.ldexp(units, k))) == (alpha, math.ldexp(rate, -k))
