import math

import numpy as np
import pytest
import mpmath
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ecrlab import ecr, specfun
from ecrlab.ecr import (
    LossOfPrecisionError,
    MomentExistenceError,
    Params,
    QuantileUnderflowError,
    ZeroLimitKind,
    cdf,
    cr_moment,
    hrf,
    incomplete_moment,
    log_moment,
    log_pdf,
    median,
    mode,
    order_stat_moment,
    pdf,
    pdf_zero_limit,
    pwm,
    quantile,
    raw_moment,
    sample,
    sf,
    tail_ratio,
)
from ecrlab.specfun import ConvergenceError, beta_fn, gauss_2f1

TABLE_FIT = Params(0.38669, 80.68399)


def weighted_moment_oracle(r, s, t, p, upper=1.0, epsabs=1e-13):
    """Adaptive quadrature of int x^r F^s (1-F)^t f dx after substituting
    u = 1 - lam/sqrt(lam^2+x^2), which maps (0, inf) to (0, 1). Each half
    of (0, upper) holds at most one endpoint singularity, which quad's
    extrapolation handles to full precision; ``epsabs=0`` makes the
    tolerance purely relative, for moments far from 1."""

    def integrand(u):
        x = p.lam * math.sqrt(u * (2.0 - u)) / (1.0 - u)
        return x**r * (u**p.beta) ** s * (1.0 - u**p.beta) ** t * p.beta * u ** (p.beta - 1.0)

    halves = ((0.0, upper / 2.0), (upper / 2.0, upper))
    return sum(quad(integrand, a, b, epsabs=epsabs, epsrel=1e-12, limit=400)[0] for a, b in halves)


class TestParams:
    @pytest.mark.parametrize("beta,lam", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, math.inf), (math.nan, 1.0)])
    def test_rejects_bad_values(self, beta, lam):
        with pytest.raises(ValueError):
            Params(beta, lam)

    @pytest.mark.parametrize("beta,lam", [(True, 1.0), (1.0, True), (False, 1.0)])
    def test_rejects_bool(self, beta, lam):
        with pytest.raises(ValueError):
            Params(beta, lam)


class TestCdfQuantile:
    def test_cdf_at_zero(self):
        assert cdf(0.0, Params(0.4, 80.0)) == 0.0

    def test_cr_median_point(self):
        # CR cdf hits 1/2 at lam*sqrt(3)
        assert cdf(2.0 * math.sqrt(3.0), Params(1.0, 2.0)) == pytest.approx(0.5, rel=1e-14)

    def test_cdf_monotone_to_one(self):
        p = Params(0.7, 3.0)
        xs = np.logspace(-3, 7, 200) * p.lam
        values = cdf(xs, p)
        assert np.all(np.diff(values) > 0)
        assert values[-1] == pytest.approx(1.0, abs=1e-6)

    def test_cr_quantile_median(self):
        assert quantile(0.5, Params(1.0, 1.0)) == pytest.approx(math.sqrt(3.0), rel=1e-14)

    def test_median_closed_form(self):
        for p in [Params(0.4, 80.0), Params(1.0, 1.0), Params(3.3, 0.2)]:
            b = p.beta
            expected = p.lam / (2.0 ** (1.0 / b) - 1.0) * math.sqrt(2.0 ** ((b + 1.0) / b) - 1.0)
            assert median(p) == pytest.approx(expected, rel=1e-13)
            assert quantile(0.5, p) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("q", [1e-6, 0.25, 0.5, 0.75, 1.0 - 1e-6])
    def test_round_trip(self, q):
        p = Params(0.4, 80.0)
        assert cdf(quantile(q, p), p) == pytest.approx(q, rel=1e-9, abs=1e-12)

    def test_round_trip_example_pair(self):
        p = Params(0.4, 80.0)
        assert cdf(quantile(0.73, p), p) == pytest.approx(0.73, rel=1e-9)

    # The corner example has x = quantile(q) near 1.4e-180, whose square
    # underflows, so cdf must not form x^2.
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(q=st.floats(1e-12, 1.0 - 1e-12), beta=st.floats(0.1, 30.0),
           log_lam=st.floats(-150.0, 150.0))
    @example(q=1e-6, beta=0.1, log_lam=-150.0)
    def test_round_trip_and_complement_property(self, q, beta, log_lam):
        p = Params(beta, 10.0**log_lam)
        x = quantile(q, p)
        assert cdf(x, p) == pytest.approx(q, rel=1e-12, abs=0)
        assert sf(x, p) + cdf(x, p) == pytest.approx(1.0, rel=0, abs=1e-13)

    @pytest.mark.parametrize("x, p", [(1e307, Params(1.5, 1e308)), (1.5e308, Params(0.7, 5e307)),
                                      (1e300, Params(0.5, 1.7e308))])
    def test_kernel_where_s_plus_lam_overflows(self, x, p):
        # s + lam overflowed, with a RuntimeWarning (an error in this suite),
        # and cdf and pdf came out 0; pdf values this far up are subnormal,
        # so only about eight of its digits survive
        with mpmath.workdps(40):
            xm, lam = mpmath.mpf(x), mpmath.mpf(p.lam)
            s = mpmath.sqrt(lam**2 + xm**2)
            u = 1 - lam / s
            exact_cdf = float(u**p.beta)
            exact_pdf = float(p.beta * lam * xm / s**3 * u ** (p.beta - 1))
        assert cdf(x, p) == pytest.approx(exact_cdf, rel=1e-14, abs=0)
        assert pdf(x, p) == pytest.approx(exact_pdf, rel=1e-7, abs=0)

    @pytest.mark.parametrize("x, p", [(1.3e308, Params(1.5, 1.3e308)), (1.7e308, Params(0.7, 1e308)),
                                      (1e308, Params(3.0, 1.7e308)), (1.79e308, Params(0.2, 1.79e308))])
    def test_where_hypot_overflows(self, x, p):
        # hypot(lam, x) overflowed with a RuntimeWarning, and cdf and pdf
        # came out 0; log_pdf also overflowed forming log(beta lam)
        with mpmath.workdps(40):
            xm, lam = mpmath.mpf(x), mpmath.mpf(p.lam)
            s = mpmath.sqrt(lam**2 + xm**2)
            u = 1 - lam / s
            exact = {cdf: u**p.beta, sf: 1 - u**p.beta, pdf: p.beta * lam * xm / s**3 * u ** (p.beta - 1)}
            exact[log_pdf] = mpmath.log(exact[pdf])
        for f, value in exact.items():
            assert f(x, p) == pytest.approx(float(value), rel=1e-12, abs=0)

    # One element whose s + lam overflowed switched the whole array to the
    # overflow form of u (cdf, pdf) or of log u (sf, log_pdf), so the other
    # elements moved by rounding. Each is compared as a one-element array:
    # numpy's scalar power differs from its vectorized one by rounding on
    # ordinary inputs too.
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(log_x=st.lists(st.floats(300.0, math.log10(1.7e308)), min_size=2, max_size=9),
           lam=st.floats(1e307, 1.7e308), beta=st.floats(0.1, 10.0))
    @example(log_x=[307.0, 308.0], lam=1e308, beta=1.5)
    def test_elements_do_not_depend_on_their_neighbours(self, log_x, lam, beta):
        x, p = 10.0 ** np.array(log_x), Params(beta, lam)
        for f in (cdf, pdf, sf, log_pdf):
            alone = np.concatenate([f(x[i : i + 1], p) for i in range(x.size)])
            assert f(x, p).tobytes() == alone.tobytes()
            assert f(x, p).tolist() == pytest.approx([f(v, p) for v in x.tolist()], rel=1e-15, abs=0)

    def test_quantile_strictly_increasing(self):
        p = Params(2.0, 5.0)
        qs = np.linspace(0.001, 0.999, 500)
        assert np.all(np.diff(quantile(qs, p)) > 0)

    def test_quantile_beyond_float_range_raises(self):
        # RuntimeWarnings are errors under this suite's settings, so an
        # overflow warning on the way would fail the test too
        with pytest.raises(OverflowError, match=r"ECR\(beta=2.0, lambda=1e\+300\) quantile at level 0.999999999999"):
            quantile(1.0 - 1e-12, Params(2.0, 1e300))
        with pytest.raises(OverflowError, match="level 0.9 "):
            quantile(np.array([0.5, 0.9, 0.99]), Params(2.0, 1e307))

    @pytest.mark.parametrize("q, beta, lam", [(1e-15, 0.04, 1.0), (1e-15, 0.025, 1.0), (0.3, 0.001, 1e150),
                                              (1e-3, 0.006, 1e20)])
    def test_underflowed_w_takes_the_log_form(self, q, beta, lam):
        # w = q^(1/beta) underflows to 0, where the direct formula gave 0.0
        assert math.exp(math.log(q) / beta) == 0.0
        with mpmath.workdps(40):
            w = mpmath.mpf(q) ** (1 / mpmath.mpf(beta))
            exact = float(lam * mpmath.sqrt((2 - w) * w) / (1 - w))
        assert quantile(q, Params(beta, lam)) == pytest.approx(exact, rel=1e-13, abs=0)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(log_q=st.floats(-34.5, -1e-15), log_beta=st.floats(-3.0, 3.0), log_lam=st.floats(-150.0, 150.0))
    def test_positive_w_keeps_the_direct_formula(self, log_q, log_beta, log_lam):
        # draws, Monte Carlo streams and pins rest on these exact operations
        qs = np.array([math.exp(log_q), 0.5, 1.0 - 1e-12])
        p = Params(10.0**log_beta, 10.0**log_lam)
        log_w = np.log(qs) / p.beta
        w = np.exp(log_w)
        direct = p.lam * np.sqrt(w * (2.0 - w)) / -np.expm1(log_w)
        try:
            values = quantile(qs, p)
        except ArithmeticError:
            assert not np.all(np.isfinite(direct) & (direct > 0.0))
            return
        assert values[w > 0.0].tobytes() == direct[w > 0.0].tobytes()
        assert np.all(values > 0.0)

    def test_quantile_below_float_range_raises(self):
        with pytest.raises(QuantileUnderflowError, match=r"ECR\(beta=0.01, lambda=1.0\) quantile at level 1e-15 "):
            quantile(1e-15, Params(0.01, 1.0))
        with pytest.raises(ArithmeticError, match="level 0.001 lies below the smallest positive float"):
            quantile(np.array([0.5, 0.001, 1e-15]), Params(0.002, 1.0))

    def test_domain_errors(self):
        p = Params(1.0, 1.0)
        with pytest.raises(ValueError):
            cdf(-1.0, p)
        for q in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                quantile(q, p)


class TestPdf:
    def test_cr_point_value(self):
        assert pdf(1.0, Params(1.0, 1.0)) == pytest.approx(2.0 ** -1.5, rel=1e-14)

    @pytest.mark.parametrize("p", [TABLE_FIT, Params(1.0, 1.0), Params(2.5, 0.7)])
    def test_integrates_to_one(self, p):
        total, err = quad(lambda x: pdf(x, p), 0.0, np.inf, limit=300)
        assert total == pytest.approx(1.0, abs=max(1e-8, 2.0 * err))

    def test_log_pdf_consistency(self, rng):
        for _ in range(100):
            p = Params(rng.uniform(0.2, 4.0), rng.uniform(0.1, 50.0))
            x = rng.uniform(0.001, 100.0) * p.lam
            assert math.exp(log_pdf(x, p)) == pytest.approx(pdf(x, p), rel=1e-12)

    def test_pdf_is_cdf_derivative(self):
        p = Params(0.8, 2.0)
        for x in np.geomspace(0.01 * p.lam, 100.0 * p.lam, 25):
            h = 1e-6 * x
            numeric = (cdf(x + h, p) - cdf(x - h, p)) / (2.0 * h)
            assert pdf(x, p) == pytest.approx(numeric, rel=1e-5)

    # pdf formed s^3, which overflowed for s above about 5e102 and
    # underflowed below about 1e-103; the examples are those two corners
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(q=st.floats(1e-6, 1.0 - 1e-6), beta=st.floats(0.1, 30.0),
           log_lam=st.floats(-3.0, 3.0), log_c=st.floats(-150.0, 150.0))
    @example(q=0.5, beta=1.5, log_lam=0.0, log_c=110.0)
    @example(q=0.5, beta=1.5, log_lam=0.0, log_c=-150.0)
    def test_scale_equivariance_and_log_pdf_property(self, q, beta, log_lam, log_c):
        p = Params(beta, 10.0**log_lam)
        c = 10.0**log_c
        x = quantile(q, p)
        scaled = Params(beta, c * p.lam)
        assert c * pdf(c * x, scaled) == pytest.approx(pdf(x, p), rel=1e-13, abs=0)
        assert pdf(c * x, scaled) == pytest.approx(math.exp(log_pdf(c * x, scaled)), rel=1e-12, abs=0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            pdf(0.0, Params(1.0, 1.0))
        with pytest.raises(ValueError):
            log_pdf(-1.0, Params(1.0, 1.0))


class TestZeroLimitAndMode:
    def test_limit_classification(self):
        flat = pdf_zero_limit(Params(0.5, 2.0))
        assert flat.kind is ZeroLimitKind.FINITE
        assert flat.value == pytest.approx(math.sqrt(2.0) / 4.0, rel=1e-14)
        assert pdf_zero_limit(Params(0.3, 1.0)).kind is ZeroLimitKind.INFINITE
        assert pdf_zero_limit(Params(1.0, 1.0)).kind is ZeroLimitKind.ZERO

    def test_zero_limit_corroborated_numerically(self):
        assert pdf(1e-8, Params(1.0, 1.0)) < 1e-7
        assert pdf(1e-10, Params(0.3, 1.0)) > 1e3
        assert pdf(1e-9, Params(0.5, 2.0)) == pytest.approx(math.sqrt(2.0) / 4.0, rel=1e-6)

    def test_cr_mode(self):
        assert mode(Params(1.0, 1.0)) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)

    def test_non_modal_region(self):
        assert mode(Params(0.5, 1.0)) is None
        assert mode(Params(0.2, 1.0)) is None

    def test_mode_continuous_at_half(self):
        assert mode(Params(0.5 + 1e-9, 1.0)) < 1e-3

    @pytest.mark.parametrize("beta", [0.6, 1.0, 2.0, 5.0])
    def test_mode_matches_golden_section_argmax(self, beta):
        p = Params(beta, 3.0)
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = 1e-6 * p.lam, 50.0 * p.lam
        c, d = b - phi * (b - a), a + phi * (b - a)
        fc, fd = pdf(c, p), pdf(d, p)
        for _ in range(300):
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - phi * (b - a)
                fc = pdf(c, p)
            else:
                a, c, fc = c, d, fd
                d = a + phi * (b - a)
                fd = pdf(d, p)
            if (b - a) < 1e-9 * p.lam:
                break
        assert mode(p) == pytest.approx(0.5 * (a + b), rel=1e-6)

    def test_median_exceeds_mode(self):
        for beta in np.linspace(0.6, 10.0, 25):
            p = Params(float(beta), 1.0)
            assert median(p) > mode(p)


class TestHazard:
    def test_identity_with_pdf_and_sf(self, rng):
        for _ in range(30):
            p = Params(rng.uniform(0.2, 4.0), rng.uniform(0.2, 20.0))
            x = rng.uniform(0.01, 50.0) * p.lam
            assert hrf(x, p) * sf(x, p) == pytest.approx(pdf(x, p), rel=1e-12)

    def test_cr_upside_down_bathtub(self):
        # CR hazard x/(lam^2+x^2) rises to an interior maximum then falls
        p = Params(1.0, 2.0)
        xs = np.geomspace(1e-3 * p.lam, 1e3 * p.lam, 400)
        values = hrf(xs, p)
        peak = int(np.argmax(values))
        assert 0 < peak < xs.size - 1
        # strict away from the peak, where adjacent grid values can tie
        assert np.all(np.diff(values[:peak]) > 0)
        assert np.all(np.diff(values[peak + 1 :]) < 0)
        assert xs[peak] == pytest.approx(p.lam, rel=0.05)

    def test_small_beta_hazard_decreasing(self):
        p = Params(0.3, 1.0)
        xs = np.geomspace(1e-3, 1e3, 300)
        assert np.all(np.diff(hrf(xs, p)) < 0)


class TestTailRatio:
    def test_unit_factor(self):
        assert tail_ratio(1.0, 123.0, Params(0.7, 1.0)) == 1.0

    def test_limit_value(self):
        assert tail_ratio(2.0, 1e6, Params(0.7, 1.0)) == pytest.approx(0.5, abs=1e-4)

    def test_monotone_approach(self):
        # strictly monotone until the survival ratio reaches the double
        # precision noise floor (~1e-8) near x = 1e7
        p = Params(1.3, 2.0)
        ratios = [tail_ratio(3.0, x, p) for x in np.geomspace(1e3, 1e7, 9)]
        gaps = [abs(r - 1.0 / 3.0) for r in ratios]
        assert all(g2 < g1 for g1, g2 in zip(gaps[:-2], gaps[1:-1]))
        assert gaps[-1] < 1e-7


class TestSampling:
    def test_deterministic_under_seed(self):
        p = Params(0.5, 0.6)
        a = sample(1000, p, seed=42)
        b = sample(1000, p, seed=42)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample(1000, p, seed=43))

    def test_ks_self_consistency(self):
        p = Params(0.5, 0.6)
        n = 100_000
        draws = np.sort(sample(n, p, seed=7))
        grid = np.arange(1, n + 1)
        u = cdf(draws, p)
        ks = np.max(np.maximum(grid / n - u, u - (grid - 1) / n))
        assert ks < 1.63 / math.sqrt(n)  # asymptotic 1% band

    def test_empirical_median(self):
        p = Params(0.5, 0.6)
        draws = sample(100_000, p, seed=11)
        assert float(np.median(draws)) == pytest.approx(median(p), rel=0.02)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample(0, Params(1.0, 1.0), seed=1)


class TestScaleFamily:
    def test_quantile_equivariance(self):
        base = Params(0.8, 1.0)
        scaled = Params(0.8, 7.3)
        for q in (0.1, 0.5, 0.9):
            assert quantile(q, scaled) == pytest.approx(7.3 * quantile(q, base), rel=1e-13)

    def test_moment_scaling(self):
        r = 0.4
        assert raw_moment(r, Params(0.8, 7.3)) == pytest.approx(
            7.3**r * raw_moment(r, Params(0.8, 1.0)), rel=1e-12
        )


class TestRawMoments:
    def test_cr_inverse_moment(self):
        assert raw_moment(-1.0, Params(1.0, 1.0)) == pytest.approx(1.0, rel=1e-12)

    def test_mean_does_not_exist(self):
        with pytest.raises(MomentExistenceError, match="does not exist"):
            raw_moment(1.0, Params(1.0, 1.0))

    def test_lower_window(self):
        with pytest.raises(MomentExistenceError, match="-0.8"):
            raw_moment(-0.8, Params(0.4, 1.0))

    def test_against_quadrature(self):
        value = raw_moment(0.5, TABLE_FIT)
        assert value == pytest.approx(weighted_moment_oracle(0.5, 0, 0, TABLE_FIT), rel=1e-9)

    def test_cr_nesting(self):
        for r in (-1.5, -0.5, 0.0, 0.5, 0.9):
            assert raw_moment(r, Params(1.0, 2.0)) == pytest.approx(cr_moment(r, 2.0), rel=1e-11)


class TestCrMoments:
    def test_zeroth(self):
        assert cr_moment(0.0, 5.0) == pytest.approx(1.0, rel=1e-14)

    def test_inverse_moment_scaled(self):
        assert cr_moment(-1.0, 2.0) == pytest.approx(0.5, rel=1e-13)

    def test_gamma_and_beta_forms_agree(self):
        # lam^r G((1-r)/2) G(1+r/2) / sqrt(pi) == (lam^r / 2) B((1-r)/2, 1+r/2)
        from ecrlab.specfun import beta_fn

        for r in (-1.9, -1.0, 0.3, 0.99):
            gamma_form = cr_moment(r, 3.0)
            beta_form = 3.0**r / 2.0 * beta_fn((1.0 - r) / 2.0, 1.0 + r / 2.0)
            assert gamma_form == pytest.approx(beta_form, rel=1e-12)

    def test_window(self):
        with pytest.raises(MomentExistenceError):
            cr_moment(1.0, 1.0)
        with pytest.raises(MomentExistenceError):
            cr_moment(-2.0, 1.0)


class TestPwm:
    def test_total_probability(self):
        assert pwm(0, 0.0, 0, Params(0.7, 2.0)) == pytest.approx(1.0, rel=1e-12)

    def test_matches_fractional_cr_moment(self):
        assert pwm(0, 0.5, 0, Params(1.0, 1.0)) == pytest.approx(cr_moment(0.5, 1.0), rel=1e-11)

    def test_against_quadrature(self):
        p = Params(0.8, 2.0)
        value = pwm(1, 0.3, 2, p)
        assert value == pytest.approx(weighted_moment_oracle(0.3, 1, 2, p), rel=1e-9)

    def test_window_and_index_validation(self):
        p = Params(0.5, 1.0)
        with pytest.raises(MomentExistenceError):
            pwm(0, 1.0, 0, p)
        with pytest.raises(MomentExistenceError):
            pwm(0, -1.0, 0, p)
        with pytest.raises(ValueError):
            pwm(-1, 0.2, 0, p)
        with pytest.raises(ValueError):
            pwm(0, 0.2, -2, p)
        with pytest.raises(ValueError):
            pwm(0, 0.2, 1.5, p)


class TestLogMoment:
    def test_cr_standard(self):
        assert log_moment(Params(1.0, 1.0)) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_scale_shift(self):
        assert log_moment(Params(1.0, math.e)) == pytest.approx(1.0 + math.log(2.0), rel=1e-12)

    def test_against_quadrature(self):
        p = Params(0.4, 80.0)

        def integrand(u):
            x = p.lam * math.sqrt(u * (2.0 - u)) / (1.0 - u)
            return math.log(x) * p.beta * u ** (p.beta - 1.0)

        oracle, _ = quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=400)
        assert log_moment(p) == pytest.approx(oracle, rel=1e-9)


class TestIncompleteMoments:
    def test_zeroth_equals_cdf(self):
        p = Params(1.2, 2.0)
        assert incomplete_moment(0.0, 3.0, p) == pytest.approx(cdf(3.0, p), rel=1e-10)

    def test_approaches_full_moment(self):
        p = Params(1.2, 1.0)
        full = raw_moment(0.4, p)
        assert incomplete_moment(0.4, 1e6, p) == pytest.approx(full, rel=1e-3)

    def test_against_quadrature(self):
        p = Params(0.8, 1.0)
        x0 = 2.0
        s0 = math.hypot(p.lam, x0)
        u0 = x0 * x0 / (s0 * (s0 + p.lam))
        value = incomplete_moment(0.5, x0, p)
        assert value == pytest.approx(weighted_moment_oracle(0.5, 0, 0, p, upper=u0), rel=1e-9)

    @pytest.mark.parametrize("c", [1e-170, 1e160])
    def test_scale_equivariance_at_extreme_scales(self, c):
        # x0^2 underflowed to 0 at 1e-170 and overflowed at 1e160
        p = Params(1.5, 1.0)
        expected = c**0.5 * incomplete_moment(0.5, 1.0, p)
        assert incomplete_moment(0.5, c, Params(1.5, c)) == pytest.approx(expected, rel=1e-14, abs=0)

    @pytest.mark.parametrize("x0, lam, base", [(1e307, 1e308, 0.1), (1.3e308, 1.3e308, 1.0)])
    def test_scale_equivariance_at_the_top_of_the_range(self, x0, lam, base):
        # s0 + lam (and at 1.3e308 hypot itself) overflowed to inf without a
        # warning, so u0 and the moment came out 0
        expected = lam**0.5 * incomplete_moment(0.5, base, Params(1.5, 1.0))
        assert incomplete_moment(0.5, x0, Params(1.5, lam)) == pytest.approx(expected, rel=1e-14, abs=0)

    def test_reports_the_series_rows(self):
        p = Params(0.8, 1.0)
        assert incomplete_moment(0.5, 2.0, p, full_output=True) == (incomplete_moment(0.5, 2.0, p), 47)
        assert incomplete_moment(0.5, 20.0, p, full_output=True)[1] == 0  # quadrature

    def test_high_order_allowed(self):
        # truncated moments are finite for any order above the lower window
        assert incomplete_moment(2.5, 4.0, Params(0.7, 1.0)) > 0.0

    def test_window(self):
        with pytest.raises(MomentExistenceError):
            incomplete_moment(-1.4, 1.0, Params(0.7, 1.0))
        with pytest.raises(ValueError):
            incomplete_moment(0.5, -1.0, Params(0.7, 1.0))

    @pytest.mark.parametrize("x0", [math.nan, math.inf])
    def test_non_finite_limit_is_bad_input(self, x0):
        # reached appell_f1, which rejected its x = nan as out of (-1, 1)
        with pytest.raises(ValueError, match="^x0 must be positive and finite"):
            incomplete_moment(0.5, x0, Params(0.7, 1.0))

    @pytest.mark.parametrize("x0, lam", [(1e16, 1.0), (1e20, 1.0), (1e300, 1e-10)])
    def test_u0_rounding_to_one_is_a_numerical_failure(self, x0, lam):
        # appell_f1 rejected x = u0 = 1 as out of (-1, 1): a ValueError on
        # valid arguments
        with pytest.raises(LossOfPrecisionError, match="^incomplete moment: u0 = 1 - lambda/hypot"):
            incomplete_moment(0.5, x0, Params(0.8, lam))
        assert incomplete_moment(0.5, 5e15, Params(0.8, 1.0)) == pytest.approx(raw_moment(0.5, Params(0.8, 1.0)))


class TestOrderStatMoments:
    def test_single_observation_reduces_to_raw(self):
        p = Params(0.7, 2.0)
        assert order_stat_moment(1, 1, 0.3, p) == pytest.approx(raw_moment(0.3, p), rel=1e-12)

    def test_sample_minimum_against_frozen_simulation(self):
        # 10^6 simulated 3-sample minima at (1, 1), r = 1/2, seed 7:
        # mean 0.926972, standard error 0.000374 (frozen oracle output)
        value = order_stat_moment(1, 3, 0.5, Params(1.0, 1.0))
        assert value == pytest.approx(0.926972, abs=3.0 * 0.000374)

    def test_against_quadrature(self):
        p = Params(0.9, 2.0)
        i, n, r = 2, 4, 0.4
        from ecrlab.specfun import beta_fn

        def integrand(u):
            x = p.lam * math.sqrt(u * (2.0 - u)) / (1.0 - u)
            return (
                x**r
                * u ** (i * p.beta - 1.0)
                * (1.0 - u**p.beta) ** (n - i)
                * p.beta
                / beta_fn(float(i), float(n - i + 1))
            )

        oracle, _ = quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=400)
        assert order_stat_moment(i, n, r, p) == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("n", [50, 300, 1000])
    def test_sample_maximum_is_ecr_with_n_times_the_shape(self, n):
        # F^n is the ECR(n beta) cdf, so the largest of n draws is
        # ECR(n beta, lam); its normalizer 1/B(n, 1) = n must be exact
        p = Params(0.7, 2.0)
        for r in (-0.5, 0.5):
            expected = raw_moment(r, Params(n * p.beta, p.lam))
            assert order_stat_moment(n, n, r, p) == pytest.approx(expected, rel=1e-14, abs=0)

    def test_windows_and_ranks(self):
        p = Params(0.7, 1.0)
        with pytest.raises(MomentExistenceError):
            order_stat_moment(1, 3, 1.0, p)
        with pytest.raises(ValueError):
            order_stat_moment(0, 3, 0.5, p)
        with pytest.raises(ValueError):
            order_stat_moment(4, 3, 0.5, p)

    def test_moderate_rank_range_stays_accurate(self):
        # through n - i ~ 20 the alternating sum keeps ~8 digits
        p = Params(1.0, 1.0)
        from ecrlab.specfun import beta_fn

        def integrand(u, i, n, r):
            x = p.lam * math.sqrt(u * (2.0 - u)) / (1.0 - u)
            return (
                x**r * u ** (i * p.beta - 1.0) * (1.0 - u**p.beta) ** (n - i)
                * p.beta / beta_fn(float(i), float(n - i + 1))
            )

        for i, n in ((1, 10), (2, 20)):
            oracle, _ = quad(integrand, 0.0, 1.0, args=(i, n, 0.5),
                             epsabs=1e-14, epsrel=1e-13, limit=400)
            assert order_stat_moment(i, n, 0.5, p) == pytest.approx(oracle, rel=1e-7)

    def test_wide_rank_range_refuses_cancellation(self):
        with pytest.raises(LossOfPrecisionError, match="cancels"):
            order_stat_moment(1, 80, 0.5, Params(1.0, 1.0))


def _moment_sum_loop(r: float, weights, shapes, label: str) -> float:
    """ecr._moment_sum as one scalar term loop, with no 2F1 block: the
    reference the block reproduces exactly, values and errors alike."""
    total = 0.0
    gross = 0.0
    for w, g in zip(weights, shapes):
        term = w * beta_fn(1.0 - r, r / 2.0 + g) * gauss_2f1(-r / 2.0, r / 2.0 + g, 1.0 - r / 2.0 + g, 0.5)
        total += term
        gross += abs(term)
    if gross * np.finfo(float).eps > ecr._CANCELLATION_TOL * abs(total):
        raise LossOfPrecisionError(
            f"{label}: the alternating sum cancels {gross / max(abs(total), 1e-300):.1e}-fold,"
            " beyond double precision; integrate the density numerically instead"
        )
    return total


def _outcome(f, *args):
    try:
        return repr(f(*args))
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _outcome_of_the_loop(f, *args):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ecr, "_moment_sum", _moment_sum_loop)
        return _outcome(f, *args)


class TestMomentSumBlock:
    """Sums of at least ecr._BLOCK_TERMS terms take their 2F1 factors from
    one block; each result must be the term loop's, to the bit or as the
    same error. beta up to 1e6 puts r far below 0, where the 2F1 series
    take hundreds of terms or overflow."""

    SUMS = settings(derandomize=True, max_examples=30, deadline=None)
    PARAMS = dict(log_beta=st.floats(-2.0, 6.0), log_lam=st.floats(-3.0, 3.0),
                  place=st.floats(0.01, 0.99))

    @SUMS
    @given(**PARAMS, s=st.integers(0, 4), t=st.integers(ecr._BLOCK_TERMS - 1, 40))
    def test_pwm(self, log_beta, log_lam, place, s, t):
        p = Params(10.0**log_beta, 10.0**log_lam)
        lower = -2.0 * (s + 1.0) * p.beta
        args = (s, lower + place * (1.0 - lower), t, p)
        assert _outcome(pwm, *args) == _outcome_of_the_loop(pwm, *args)

    @SUMS
    @given(**PARAMS, i=st.integers(1, 5), n=st.integers(ecr._BLOCK_TERMS + 4, 80))
    def test_order_stat_moment(self, log_beta, log_lam, place, i, n):
        p = Params(10.0**log_beta, 10.0**log_lam)
        lower = -2.0 * i * p.beta
        args = (i, n, lower + place * (1.0 - lower), p)
        assert _outcome(order_stat_moment, *args) == _outcome_of_the_loop(order_stat_moment, *args)

    # With the 2F1 term budget cut to 35, the lanes of shape 0.3 settle (in
    # 32 terms) and those of shape 100 do not; shape 0.2 makes r/2 + g
    # negative, which beta_fn rejects. Whichever lane fails first in term
    # order raises, as in the loop.
    @pytest.mark.parametrize("shapes, error", [
        ([0.3, 0.3, 0.3, 0.2, 100.0, 100.0, 100.0, 100.0], ValueError),
        ([0.3, 0.3, 0.3, 100.0, 0.2, 0.3, 0.3, 0.3], ConvergenceError),
    ])
    def test_errors_come_in_term_order(self, monkeypatch, shapes, error):
        monkeypatch.setattr(specfun, "_MAX_TERMS", 35)
        args = (-0.5, [1.0] * len(shapes), shapes, "sum")
        blocked = _outcome(ecr._moment_sum, *args)
        assert blocked[0] is error
        assert blocked == _outcome(_moment_sum_loop, *args)


class TestMomentsAgainstQuadrature:
    """The closed forms against adaptive quadrature of the density, on
    random parameters with r in the middle 60 % of each existence window
    (for the incomplete moment, whose window has no upper end, of
    (-2 beta, 1)) and the incomplete moment on its series side."""

    MOMENT = settings(derandomize=True, max_examples=80, deadline=None)
    PARAMS = dict(log_beta=st.floats(-0.7, 1.0), log_lam=st.floats(-3.0, 3.0), f=st.floats(0.2, 0.8))

    @staticmethod
    def order(lower, f):
        return lower + f * (1.0 - lower)

    @MOMENT
    @given(**PARAMS)
    def test_raw_moment(self, log_beta, log_lam, f):
        p = Params(10.0**log_beta, 10.0**log_lam)
        r = self.order(-2.0 * p.beta, f)
        assert raw_moment(r, p) == pytest.approx(weighted_moment_oracle(r, 0, 0, p, epsabs=0.0), rel=1e-8, abs=0)

    @MOMENT
    @given(**PARAMS, s=st.integers(0, 3), t=st.integers(0, 3))
    def test_pwm(self, log_beta, log_lam, f, s, t):
        p = Params(10.0**log_beta, 10.0**log_lam)
        r = self.order(-2.0 * (s + 1.0) * p.beta, f)
        assert pwm(s, r, t, p) == pytest.approx(weighted_moment_oracle(r, s, t, p, epsabs=0.0), rel=1e-8, abs=0)

    @MOMENT
    @given(**PARAMS, u0=st.floats(0.05, 0.94))
    def test_incomplete_moment(self, log_beta, log_lam, f, u0):
        p = Params(10.0**log_beta, 10.0**log_lam)
        r = self.order(-2.0 * p.beta, f)
        # u0 stays below 0.95, where appell_f1 sums its series
        x0 = p.lam * math.sqrt(u0 * (2.0 - u0)) / (1.0 - u0)
        oracle = weighted_moment_oracle(r, 0, 0, p, upper=1.0 - p.lam / math.hypot(p.lam, x0), epsabs=0.0)
        assert incomplete_moment(r, x0, p) == pytest.approx(oracle, rel=1e-8, abs=0)

    @MOMENT
    @given(**PARAMS, n=st.integers(1, 5), rank=st.floats(0.0, 1.0))
    def test_order_stat_moment(self, log_beta, log_lam, f, n, rank):
        p = Params(10.0**log_beta, 10.0**log_lam)
        i = 1 + min(n - 1, int(rank * n))
        r = self.order(-2.0 * i * p.beta, f)
        # density of X_(i:n) = i C(n, i) F^(i-1) (1 - F)^(n-i) f
        oracle = i * math.comb(n, i) * weighted_moment_oracle(r, i - 1, n - i, p, epsabs=0.0)
        assert order_stat_moment(i, n, r, p) == pytest.approx(oracle, rel=1e-8, abs=0)
