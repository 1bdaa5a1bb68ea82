import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ecrlab import inference
from ecrlab.data import Dataset
from ecrlab.ecr import Params, quantile, sample
from ecrlab.inference import (
    FitError,
    asymptotic_std_errors,
    bias_known_beta,
    bias_known_lambda,
    confidence_intervals,
    cox_snell_bias,
    cox_snell_bias_generic,
    cr_bias,
    cs_correctable,
    fisher_derivatives,
    fisher_info,
    fisher_info_inverse,
    fit_cr,
    fit_cs_ml,
    fit_ml,
    fit_pb,
    log_likelihood,
    lr_test_cr,
    pb_gradient,
    pb_objective,
    profile_beta,
    profile_log_likelihood,
    score,
    third_cumulants,
)

TABLE_PARAMS = Params(0.38669, 80.68399)


def per_observation_hessian(x: np.ndarray, p: Params) -> np.ndarray:
    """Analytic second derivatives of the per-observation log-density."""
    b, lam = p.beta, p.lam
    s = np.sqrt(lam**2 + x**2)
    d_bb = np.full(x.shape, -1.0 / b**2)
    d_bl = -(s + lam) / (lam**2 + x**2)
    numer = x**4 + (b + 4.0) * lam**2 * x**2 - lam**3 * ((b + 1.0) * lam + (b - 1.0) * s)
    d_ll = -numer / (lam**2 * (lam**2 + x**2) ** 2)
    return np.stack([d_bb, d_bl, d_ll])


def per_observation_third(x: np.ndarray, p: Params) -> np.ndarray:
    """Analytic mixed third derivatives (bll and lll components)."""
    b, lam = p.beta, p.lam
    s = np.sqrt(lam**2 + x**2)
    d_bll = (lam * (lam + s) - x**2) / (lam**2 + x**2) ** 2
    d_lll = (
        2.0 * x**6
        + 6.0 * lam**2 * x**4
        - 2.0 * lam**5 * ((b + 1.0) * lam + (b - 1.0) * s)
        + lam**3 * x**2 * (6.0 * (b + 3.0) * lam + (b - 1.0) * s)
    ) / (lam**3 * (lam**2 + x**2) ** 3)
    return np.stack([d_bll, d_lll])


def finite_diff_gradient(f, args, h=1e-6):
    out = []
    for j in range(len(args)):
        hi = list(args)
        lo = list(args)
        step = h * max(1.0, abs(args[j]))
        hi[j] += step
        lo[j] -= step
        out.append((f(*hi) - f(*lo)) / (2.0 * step))
    return out


class TestLogLikelihood:
    def test_single_point_cr(self):
        data = Dataset(np.array([1.0]))
        assert log_likelihood(data, Params(1.0, 1.0)) == pytest.approx(
            math.log(2.0**-1.5), rel=1e-13
        )

    def test_embedded_deviance(self, heart_data):
        # AIC 764.612 with k = 2 pins the deviance at 760.612
        value = log_likelihood(heart_data, TABLE_PARAMS)
        assert -2.0 * value == pytest.approx(760.612, abs=0.01)

    def test_additivity(self, rng):
        a = Dataset(rng.uniform(0.5, 30.0, size=17))
        b = Dataset(rng.uniform(0.5, 30.0, size=11))
        both = Dataset(np.concatenate([a.values, b.values]))
        p = Params(0.9, 4.0)
        assert log_likelihood(both, p) == pytest.approx(
            log_likelihood(a, p) + log_likelihood(b, p), rel=1e-13
        )

    def test_rejects_nonpositive_data(self):
        with pytest.raises(ValueError):
            Dataset(np.array([1.0, -2.0]))


class TestScore:
    def test_matches_finite_differences(self, rng):
        for _ in range(20):
            data = Dataset(rng.uniform(0.1, 50.0, size=25))
            p = Params(rng.uniform(0.3, 3.0), rng.uniform(0.5, 20.0))
            analytic = score(data, p)
            numeric = finite_diff_gradient(
                lambda b, l: log_likelihood(data, Params(b, l)), (p.beta, p.lam)
            )
            assert analytic[0] == pytest.approx(numeric[0], rel=1e-6)
            assert analytic[1] == pytest.approx(numeric[1], rel=1e-6)

    def test_vanishes_at_optimum(self, heart_data):
        fit = fit_ml(heart_data)
        u_beta, u_lam = score(heart_data, fit.params)
        assert abs(u_beta) < 1e-5 * heart_data.n
        assert abs(u_lam) < 1e-5 * heart_data.n

    def test_profile_beta_zeroes_shape_score(self, heart_data):
        for lam in (5.0, 24.0, 80.0, 300.0):
            beta = profile_beta(heart_data, lam)
            u_beta, _ = score(heart_data, Params(beta, lam))
            assert abs(u_beta) < 1e-10 * heart_data.n


class TestFitMl:
    def test_reproduces_application_estimates(self, heart_data):
        fit = fit_ml(heart_data)
        assert fit.params.beta == pytest.approx(0.38669, rel=1e-3)
        assert fit.params.lam == pytest.approx(80.68399, rel=1e-3)
        assert fit.converged
        assert fit.method == "ml"

    def test_std_errors_are_information_based(self, heart_data):
        fit = fit_ml(heart_data)
        assert fit.std_errors == pytest.approx(
            asymptotic_std_errors(fit.params, heart_data.n), rel=1e-12
        )

    def test_cr_submodel_scale(self, heart_data):
        fit = fit_cr(heart_data)
        assert fit.params.beta == 1.0
        assert fit.params.lam == pytest.approx(24.491, rel=1e-3)

    def test_consistency_at_large_n(self):
        truth = Params(0.5, 0.6)
        data = Dataset(sample(100_000, truth, seed=314))
        fit = fit_ml(data)
        assert fit.params.beta == pytest.approx(truth.beta, rel=0.02)
        assert fit.params.lam == pytest.approx(truth.lam, rel=0.02)

    def test_scale_equivariance(self, heart_data):
        base = fit_ml(heart_data)
        scaled = fit_ml(heart_data.scaled(7.3))
        assert scaled.params.beta == pytest.approx(base.params.beta, rel=1e-8)
        assert scaled.params.lam == pytest.approx(7.3 * base.params.lam, rel=1e-8)

    def test_permutation_invariance(self, heart_data, rng):
        # identical up to summation-order roundoff in the sufficient sums
        shuffled = Dataset(rng.permutation(heart_data.values))
        a, b = fit_ml(heart_data), fit_ml(shuffled)
        assert a.params.beta == pytest.approx(b.params.beta, rel=1e-12)
        assert a.params.lam == pytest.approx(b.params.lam, rel=1e-12)

    def test_degenerate_data(self):
        with pytest.raises(FitError):
            fit_ml(Dataset(np.full(10, 3.0)))


class TestFisherInformation:
    def test_unit_point_entries(self):
        info = fisher_info(Params(1.0, 1.0), 1)
        assert info.cumulants[0, 0] == pytest.approx(-1.0, rel=1e-14)
        assert info.cumulants[0, 1] == pytest.approx(-5.0 / 6.0, rel=1e-13)
        assert info.cumulants[1, 1] == pytest.approx(-4.0 / 5.0, rel=1e-13)

    def test_scale_structure(self):
        a = fisher_info(Params(0.7, 1.0), 1).cumulants
        b = fisher_info(Params(0.7, 10.0), 1).cumulants
        assert b[0, 1] == pytest.approx(a[0, 1] / 10.0, rel=1e-13)
        assert b[1, 1] == pytest.approx(a[1, 1] / 100.0, rel=1e-13)

    def test_positive_definite_on_grid(self):
        for beta in np.geomspace(0.1, 10.0, 8):
            for lam in np.geomspace(0.1, 10.0, 8):
                k = fisher_info(Params(float(beta), float(lam)), 1).entries
                eigs = np.linalg.eigvalsh(k)
                assert np.all(eigs > 0.0)

    def test_monte_carlo_expectation(self):
        # expected second derivatives at (1, 1) against a 10^6-draw mean
        p = Params(1.0, 1.0)
        draws = sample(1_000_000, p, seed=12345)
        sims = per_observation_hessian(draws, p)
        target = fisher_info(p, 1).cumulants
        for sim, expected in zip(sims, (target[0, 0], target[0, 1], target[1, 1])):
            se = float(np.std(sim)) / math.sqrt(sim.size) if float(np.std(sim)) else 1e-12
            assert float(np.mean(sim)) == pytest.approx(expected, abs=3.0 * se + 1e-12)


class TestFisherInverse:
    def test_product_is_identity(self, rng):
        for _ in range(50):
            p = Params(rng.uniform(0.1, 8.0), rng.uniform(0.1, 50.0))
            k = fisher_info(p, 1).entries
            k_inv = fisher_info_inverse(p, 1).entries
            assert np.allclose(k @ k_inv, np.eye(2), atol=1e-10)

    def test_denominator_positive(self):
        betas = np.linspace(1e-3, 100.0, 20001)
        q = betas**3 - 7.0 * betas**2 + 10.0 * betas + 72.0
        assert np.all(q > 0.0)

    def test_matches_numeric_inverse(self):
        p = Params(0.38669, 80.68399)
        numeric = np.linalg.inv(fisher_info(p, 1).entries)
        closed = fisher_info_inverse(p, 1).entries
        assert np.allclose(closed, numeric, rtol=1e-12)


class TestFisherDerivatives:
    def test_matches_finite_differences(self):
        p = Params(0.8, 3.0)
        n = 7
        d = fisher_derivatives(p, n)
        labels = (
            ((0, 0), d.kbb_dbeta, d.kbb_dlam),
            ((0, 1), d.kbl_dbeta, d.kbl_dlam),
            ((1, 1), d.kll_dbeta, d.kll_dlam),
        )
        for (i, j), d_beta, d_lam in labels:
            fd_beta, fd_lam = finite_diff_gradient(
                lambda b, l: fisher_info(Params(b, l), n).cumulants[i, j],
                (p.beta, p.lam),
                h=1e-7,
            )
            assert d_beta == pytest.approx(fd_beta, rel=1e-6, abs=1e-9)
            assert d_lam == pytest.approx(fd_lam, rel=1e-6, abs=1e-9)

    def test_shape_shape_entry_has_no_scale_derivative(self):
        assert fisher_derivatives(Params(2.0, 5.0), 3).kbb_dlam == 0.0

    def test_simple_value(self):
        assert fisher_derivatives(Params(1.0, 1.0), 1).kbb_dbeta == pytest.approx(2.0)


class TestThirdCumulants:
    def test_mixed_shape_entry_is_zero(self):
        assert third_cumulants(Params(0.3, 7.0), 11).kbbl == 0.0

    def test_unit_point_value(self):
        t = third_cumulants(Params(1.0, 1.0), 1)
        assert t.kbll == pytest.approx(9.0 / 2.0 - 28.0 / 3.0 + 27.0 / 4.0 - 8.0 / 5.0, abs=1e-12)

    def test_bartlett_consistency(self):
        # kappa_bb depends only on beta, so kappa_bbb equals its derivative
        p = Params(1.7, 2.0)
        n = 5
        h = 1e-6
        fd = (
            fisher_info(Params(p.beta + h, p.lam), n).cumulants[0, 0]
            - fisher_info(Params(p.beta - h, p.lam), n).cumulants[0, 0]
        ) / (2.0 * h)
        assert third_cumulants(p, n).kbbb == pytest.approx(fd, rel=1e-8)

    def test_monte_carlo_expectation(self):
        p = Params(1.0, 1.0)
        draws = sample(1_000_000, p, seed=98765)
        sims = per_observation_third(draws, p)
        t = third_cumulants(p, 1)
        for sim, expected in zip(sims, (t.kbll, t.klll)):
            se = float(np.std(sim)) / math.sqrt(sim.size)
            assert float(np.mean(sim)) == pytest.approx(expected, abs=3.0 * se)


class TestCoxSnellBias:
    def test_closed_form_matches_generic_sum(self, rng):
        for _ in range(50):
            p = Params(rng.uniform(0.1, 8.0), rng.uniform(0.1, 50.0))
            n = int(rng.integers(5, 500))
            closed = cox_snell_bias(p, n)
            generic = cox_snell_bias_generic(p, n)
            assert closed[0] == pytest.approx(generic[0], rel=1e-9)
            assert closed[1] == pytest.approx(generic[1], rel=1e-9)

    def test_shape_bias_independent_of_scale(self):
        biases = {cox_snell_bias(Params(0.6, lam), 40)[0] for lam in (0.1, 1.0, 250.0)}
        assert len({round(b, 15) for b in biases}) == 1

    def test_scale_bias_linear_in_scale(self):
        b1 = cox_snell_bias(Params(0.6, 1.0), 40)[1]
        b9 = cox_snell_bias(Params(0.6, 9.0), 40)[1]
        assert b9 == pytest.approx(9.0 * b1, rel=1e-12)

    def test_known_scale_case(self):
        assert bias_known_lambda(2.0, 10) == pytest.approx(0.2, rel=1e-14)

    def test_cr_case(self):
        assert cr_bias(1.0, 1) == pytest.approx(45.0 / 56.0, rel=1e-14)

    def test_known_shape_reduces_to_cr_at_one(self):
        assert bias_known_beta(3.7, 1.0, 25) == pytest.approx(cr_bias(3.7, 25), rel=1e-13)

    def test_known_shape_from_scalar_cumulants(self):
        # single-parameter bias (2g - h)/g^2 * lam/n built from the
        # lam-lam information and third-cumulant factors
        for b0 in (0.3, 1.0, 2.5, 7.0):
            g = b0 * (b0**2 + 11.0 * b0 + 36.0) / ((b0 + 2.0) * (b0 + 3.0) * (b0 + 4.0))
            h = (
                b0
                * (b0**4 + 20.0 * b0**3 + 158.0 * b0**2 + 691.0 * b0 + 1866.0)
                / ((b0 + 2.0) * (b0 + 3.0) * (b0 + 4.0) * (b0 + 5.0) * (b0 + 6.0))
            )
            oracle = (2.0 * g - h) / g**2
            assert bias_known_beta(1.0, b0, 1) == pytest.approx(oracle, rel=1e-12)


class TestCsMl:
    def test_correction_identity(self, heart_data):
        ml = fit_ml(heart_data)
        cs = fit_cs_ml(heart_data)
        assert cs.method == "csml"
        assert cs.bias_applied is not None
        assert cs.params.beta == pytest.approx(ml.params.beta - cs.bias_applied[0], rel=1e-12)
        assert cs.params.lam == pytest.approx(ml.params.lam - cs.bias_applied[1], rel=1e-12)

    def test_uncorrectable_falls_back_to_ml(self):
        # large shape with few observations puts the correction outside
        # the parameter space
        truth = Params(6.0, 1.0)
        data = Dataset(sample(8, truth, seed=3))
        fit = fit_cs_ml(data)
        assert not fit.correctable
        assert fit.method == "ml"
        assert fit.bias_applied is None

    def test_correctable_region_ignores_scale(self, heart_data):
        a = fit_cs_ml(heart_data)
        b = fit_cs_ml(heart_data.scaled(100.0))
        assert a.correctable == b.correctable
        assert cs_correctable(heart_data.n, fit_ml(heart_data).params.beta)

    def test_reuses_given_ml_fit(self, heart_data):
        assert fit_cs_ml(heart_data, ml=fit_ml(heart_data)) == fit_cs_ml(heart_data)

    def test_cs_correctable_boundary(self):
        # shape 2 at n=10 gives bias > 2, not correctable; n=1000 is
        assert not cs_correctable(10, 2.0)
        assert cs_correctable(1000, 0.5)

    def test_bias_reduction_in_simulation(self):
        # boundary samples without an interior MLE are skipped, exactly as
        # the study engine counts them
        truth = Params(0.5, 0.6)
        ml_est, cs_est, failures = [], [], 0
        for rep in range(1000):
            data = Dataset(sample(100, truth, seed=50_000 + rep))
            try:
                ml = fit_ml(data)
                cs = fit_cs_ml(data)
            except FitError:
                failures += 1
                continue
            if cs.correctable:
                ml_est.append(ml.params.beta)
                cs_est.append(cs.params.beta)
        assert failures < 50
        assert len(cs_est) > 900
        ml_bias = abs(float(np.mean(ml_est)) - truth.beta)
        cs_bias = abs(float(np.mean(cs_est)) - truth.beta)
        assert cs_bias < ml_bias


class TestFitPb:
    def test_recovers_exact_percentile_data(self):
        truth = Params(0.7, 3.0)
        n = 40
        ps = np.arange(1, n + 1) / (n + 1.0)
        data = Dataset(quantile(ps, truth))
        fit = fit_pb(data)
        assert fit.params.beta == pytest.approx(truth.beta, rel=1e-6)
        assert fit.params.lam == pytest.approx(truth.lam, rel=1e-6)
        assert pb_objective(data, fit.params) < 1e-12
        assert fit.std_errors is None

    def test_gradient_matches_finite_differences(self, rng):
        data = Dataset(rng.uniform(0.2, 30.0, size=30))
        for _ in range(10):
            p = Params(rng.uniform(0.3, 3.0), rng.uniform(0.5, 10.0))
            analytic = pb_gradient(data, p)
            numeric = finite_diff_gradient(
                lambda b, l: pb_objective(data, Params(b, l)), (p.beta, p.lam)
            )
            assert analytic[0] == pytest.approx(numeric[0], rel=1e-6)
            assert analytic[1] == pytest.approx(numeric[1], rel=1e-6)

    def test_gradient_vanishes_at_solution(self, heart_data):
        fit = fit_pb(heart_data)
        scale = pb_objective(heart_data, fit.params) + 1.0
        g_beta, g_lam = pb_gradient(heart_data, fit.params)
        assert abs(g_beta) < 1e-5 * scale * heart_data.n
        assert abs(g_lam) < 1e-5 * scale * heart_data.n


    def test_tiny_shape_end_without_scale(self):
        # at n = 15, w = p^(1/beta) underflows against 1 at beta = 1e-3, so
        # t9 = n - sum 1/(1-w)^2 is exactly 0 there and lam2 is undefined
        data = Dataset(sample(15, Params(1.0, 1.0), seed=3))
        ps = np.arange(1, 16) / 16.0
        assert inference._pb_pieces(1e-3, data.sorted_values, ps)[3] == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fit = fit_pb(data)
        assert fit.params.beta > 0.0 and fit.params.lam > 0.0
        assert math.isfinite(fit.loglik)

    def test_no_admissible_scale_raises_fit_error(self, monkeypatch):
        pieces = inference._pb_pieces

        def without_scale(beta, xs, ps):
            t6, t7, t8, t9 = pieces(beta, xs, ps)
            return t6, t7, t8, 0.0 * t9

        monkeypatch.setattr(inference, "_pb_pieces", without_scale)
        with pytest.raises(FitError):
            fit_pb(Dataset(sample(20, Params(1.0, 1.0), seed=1)))

    def test_peak_allocation_bounded_at_large_n(self):
        data = Dataset(sample(5000, Params(0.8, 2.0), seed=5))
        fit_pb(data)
        tracemalloc.start()
        try:
            fit_pb(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


def scalar_bisect(root_fn, lo, hi, f_lo):
    """The one-bracket-at-a-time geometric bisection the joint one replaces."""
    steps = 0
    for _ in range(200):
        steps += 1
        mid = math.sqrt(lo * hi)
        f_mid = root_fn(mid)
        if f_mid == 0.0:
            lo = hi = mid
            break
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
        if (hi - lo) <= 1e-12 * hi:
            break
    return math.sqrt(lo * hi), steps


class TestBlockedPasses:
    """The broadcast passes must reproduce the point-by-point functions to
    the bit. n = 20 puts a whole grid in one row block; n = 5000 is above
    the block budget, so every row is its own block."""

    def test_sizes_straddle_the_block_budget(self):
        assert 241 * 20 <= inference._BLOCK_ELEMENTS < 2 * 5000

    @pytest.mark.parametrize("n", [20, 5000])
    def test_profile_grid_matches_scalar(self, n):
        data = Dataset(sample(n, Params(0.8, 2.0), seed=n))
        center = float(np.median(data.values)) / math.sqrt(3.0)
        grid = center * 4.0 ** np.arange(-20.0, 21.0)
        expected = [profile_log_likelihood(data, lam) for lam in grid]
        assert inference._profile_grid(data, grid) == expected

    @pytest.mark.parametrize("n", [20, 5000])
    def test_pb_grid_matches_scalar(self, n):
        data = Dataset(sample(n, Params(0.8, 2.0), seed=n))
        xs = data.sorted_values
        ps = np.arange(1, n + 1) / (n + 1.0)
        grid = np.logspace(-3.0, 3.0, 241)
        roots, lams = inference._pb_grid(grid, xs, ps)
        for beta, root, lam in zip(grid.tolist(), roots.tolist(), lams.tolist()):
            t6, t7, t8, t9 = inference._pb_pieces(beta, xs, ps)
            assert root == t6 * t8 - t7 * t9
            if t9 != 0.0:
                assert lam == t8 / t9

    def test_joint_bisection_matches_one_at_a_time(self):
        data = Dataset(sample(20, Params(0.5, 1.0), seed=2))
        xs = data.sorted_values
        ps = np.arange(1, 21) / 21.0
        grid = np.logspace(-3.0, 3.0, 241)
        vals, _ = inference._pb_grid(grid, xs, ps)
        k = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        assert k.size >= 2
        roots, steps = inference._bisect_brackets(
            lambda b: inference._pb_grid(b, xs, ps)[0], grid[k], grid[k + 1], vals[k]
        )

        def root_fn(beta):
            t6, t7, t8, t9 = inference._pb_pieces(beta, xs, ps)
            return t6 * t8 - t7 * t9

        expected = [scalar_bisect(root_fn, grid[j], grid[j + 1], vals[j]) for j in k]
        assert roots.tolist() == [r for r, _ in expected]
        assert steps == sum(s for _, s in expected)

    def test_joint_bisection_stops_each_bracket_on_its_own(self):
        # the first bracket's first midpoint is an exact root
        lo, hi = np.array([0.5, 2.5]), np.array([2.0, 3.5])
        roots, steps = inference._bisect_brackets(lambda b: b - np.round(b), lo, hi, lo - np.round(lo))
        expected = [scalar_bisect(lambda b: b - round(b), a, b, a - round(a)) for a, b in zip(lo, hi)]
        assert expected[0] == (1.0, 1)
        assert roots.tolist() == [r for r, _ in expected]
        assert steps == sum(s for _, s in expected)


class TestIntervalsAndTests:
    def test_wald_interval_arithmetic(self, heart_data):
        fit = fit_ml(heart_data)
        (b_lo, b_hi), (l_lo, l_hi) = confidence_intervals(fit, 0.95)
        z = 1.959963984540054
        assert b_lo == pytest.approx(fit.params.beta - z * fit.std_errors[0], rel=1e-10)
        assert b_hi == pytest.approx(fit.params.beta + z * fit.std_errors[0], rel=1e-10)
        assert l_hi == pytest.approx(fit.params.lam + z * fit.std_errors[1], rel=1e-10)
        assert l_lo >= 0.0

    def test_interval_collapses_with_level(self, heart_data):
        fit = fit_ml(heart_data)
        (b_lo, b_hi), _ = confidence_intervals(fit, 1e-9)
        assert b_hi - b_lo < 1e-8

    def test_lower_bound_truncated_at_zero(self):
        truth = Params(0.5, 0.6)
        data = Dataset(sample(6, truth, seed=21))
        fit = fit_ml(data)
        intervals = confidence_intervals(fit, 0.999999)
        assert intervals[0][0] >= 0.0
        assert intervals[1][0] >= 0.0

    def test_level_validation(self, heart_data):
        fit = fit_ml(heart_data)
        for level in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                confidence_intervals(fit, level)

    def test_lr_test_on_application_data(self, heart_data):
        stat, p_value = lr_test_cr(heart_data)
        assert stat > 0.0
        assert p_value < 1e-5

    def test_lr_size_under_null(self):
        # data from the CR submodel should rarely reject at the 5% level
        truth = Params(1.0, 2.0)
        rejections = 0
        usable = 0
        for rep in range(500):
            data = Dataset(sample(200, truth, seed=90_000 + rep))
            try:
                stat, _ = lr_test_cr(data)
            except FitError:
                continue
            usable += 1
            assert stat >= 0.0
            if stat > 3.841:
                rejections += 1
        assert usable >= 450
        assert rejections <= 0.10 * usable  # nominal 5% plus Monte Carlo slack