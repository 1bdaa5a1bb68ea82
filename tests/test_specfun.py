import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ecrlab import specfun
from ecrlab.specfun import (
    EULER_GAMMA,
    ConvergenceError,
    appell_f1,
    beta_fn,
    digamma,
    gamma_fn,
    gauss_2f1,
    lerch_phi_half,
    log_gamma,
)


class TestLogGamma:
    def test_gamma_of_one(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_gamma_of_half(self):
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-13)

    @pytest.mark.parametrize("x", [0.01, 0.3, 1.5, 2.0, 7.7, 10.3, 143.0, 2000.0])
    def test_against_high_precision(self, x):
        expected = float(mpmath.loggamma(x))
        assert log_gamma(x) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_gamma_fn(self):
        assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-13)

    def test_overflow_names_the_argument(self):
        with pytest.raises(OverflowError, match=r"^log_gamma\(1e\+306\) overflows the floating-point range$"):
            log_gamma(1e306)

    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf])
    def test_domain(self, x):
        with pytest.raises(ValueError):
            log_gamma(x)


class TestBeta:
    def test_ones(self):
        assert beta_fn(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_halves(self):
        assert beta_fn(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)

    def test_symmetry_and_gamma_identity(self, rng):
        for _ in range(25):
            a, b = rng.uniform(0.05, 20.0, size=2)
            assert beta_fn(a, b) == pytest.approx(beta_fn(b, a), rel=1e-13)
            lhs = beta_fn(a, b) * gamma_fn(a + b)
            rhs = gamma_fn(a) * gamma_fn(b)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_moment_kernel_weight_against_quadrature(self):
        # the B(1-r, r/2+beta) weight at r=0.5, beta=1
        a, b = 1.0 - 0.5, 0.25 + 1.0
        oracle, _ = quad(lambda t: t ** (a - 1.0) * (1.0 - t) ** (b - 1.0), 0.0, 1.0,
                         epsabs=1e-14, epsrel=1e-13)
        assert beta_fn(a, b) == pytest.approx(oracle, rel=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            beta_fn(-0.5, 1.0)
        with pytest.raises(ValueError):
            beta_fn(1.0, 0.0)


class TestDigamma:
    def test_at_one(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, rel=1e-13)

    def test_at_two(self):
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, rel=1e-13)

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 3.0, 10.0])
    def test_recurrence(self, x):
        assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, rel=1e-12)

    def test_series_identity_at_half(self):
        # psi(1 + b) = -gamma + sum_{n>=1} b / (n (b + n)); partial sum plus
        # the integral tail correction log(1 + b/N).
        b = 0.5
        n = np.arange(1.0, 2_000_001.0)
        partial = float(np.sum(b / (n * (n + b)))) + math.log1p(b / n[-1])
        assert digamma(1.0 + b) == pytest.approx(-EULER_GAMMA + partial, abs=1e-10)

    def test_matches_high_precision(self):
        for x in (0.07, 0.9, 4.2, 6.0, 25.0, 400.0):
            assert digamma(x) == pytest.approx(float(mpmath.digamma(x)), rel=1e-12, abs=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            digamma(0.0)


# Deterministic and bounded, so the suite stays reproducible and fast.
PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)
POSITIVE = st.floats(min_value=1e-3, max_value=1e3)
OUTSIDE = st.floats(max_value=0.0) | st.sampled_from([math.inf, math.nan])
EPS = np.finfo(float).eps


class TestGammaFamilyProperties:
    @PROPERTY
    @given(POSITIVE)
    @example(1.0 + 1e-9)
    @example(2.0 - 1e-9)
    def test_log_gamma_against_mpmath(self, x):
        # absolute floor: log Gamma vanishes at 1 and 2
        assert log_gamma(x) == pytest.approx(float(mpmath.loggamma(x)), rel=1e-12, abs=1e-14)

    @PROPERTY
    @given(POSITIVE)
    @example(1.4616321449683622)
    def test_digamma_against_mpmath(self, x):
        # absolute floor: psi vanishes near 1.4616
        assert digamma(x) == pytest.approx(float(mpmath.digamma(x)), rel=1e-12, abs=1e-15)

    @PROPERTY
    @given(POSITIVE, POSITIVE)
    def test_beta_fn_against_mpmath(self, a, b):
        expected = mpmath.beta(a, b)
        if expected < 1e-300:  # underflows in double precision
            return
        # exp of a sum of three log-gammas: the rounding of that sum, up to
        # a few ulps of its largest term, becomes relative error in B
        spread = abs(math.lgamma(a)) + abs(math.lgamma(b)) + abs(math.lgamma(a + b))
        assert beta_fn(a, b) == pytest.approx(float(expected), rel=1e-12 + 2 * EPS * spread)

    @PROPERTY
    @given(OUTSIDE, POSITIVE)
    def test_domain(self, bad, good):
        for call in (lambda: log_gamma(bad), lambda: gamma_fn(bad), lambda: digamma(bad),
                     lambda: beta_fn(bad, good), lambda: beta_fn(good, bad)):
            with pytest.raises(ValueError):
                call()


class TestGauss2F1:
    def test_binomial_reduction(self):
        # 2F1(a, b; b; z) = (1-z)^(-a)
        a, b, z = 0.7, 2.1, 0.3
        assert gauss_2f1(a, b, b, z) == pytest.approx((1.0 - z) ** (-a), rel=1e-13)

    def test_log_identity(self):
        # 2F1(1, 1; 2; z) = -log(1-z)/z
        assert gauss_2f1(1.0, 1.0, 2.0, 0.5) == pytest.approx(2.0 * math.log(2.0), rel=1e-13)

    def test_second_summation_theorem(self, rng):
        # 2F1(a, 1-a; c; 1/2) = G(c/2)G((1+c)/2) / [G((a+c)/2)G((1+c-a)/2)]
        for _ in range(20):
            a = rng.uniform(0.05, 0.95)
            c = rng.uniform(0.2, 5.0)
            lhs = gauss_2f1(a, 1.0 - a, c, 0.5)
            rhs = math.exp(
                log_gamma(c / 2.0)
                + log_gamma((1.0 + c) / 2.0)
                - log_gamma((a + c) / 2.0)
                - log_gamma((1.0 + c - a) / 2.0)
            )
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_term_count_reported(self):
        value, terms = gauss_2f1(0.5, 1.5, 2.5, 0.5, full_output=True)
        assert value == pytest.approx(gauss_2f1(0.5, 1.5, 2.5, 0.5), rel=1e-15)
        assert 0 < terms < specfun._MAX_TERMS

    def test_convergence_error_carries_state(self):
        # c - a - b = -3.5, so the terms grow like n^2.5 z^n and are still
        # far above tolerance after the 10,000-term cap at z = 0.9999
        with pytest.raises(ConvergenceError) as err:
            gauss_2f1(2.0, 3.0, 1.5, 0.9999)
        assert err.value.terms == specfun._MAX_TERMS == 10_000
        assert math.isfinite(err.value.partial)

    def test_domain(self):
        with pytest.raises(ValueError):
            gauss_2f1(1.0, 1.0, -2.0, 0.5)
        with pytest.raises(ValueError):
            gauss_2f1(1.0, 1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            gauss_2f1(1.0, 1.0, 2.0, -0.1)


def _2f1_outcome(lane):
    """A lane's value bits and term count, or its error's message, partial
    sum and term count; ``lane`` is an entry of ``_gauss_2f1_lanes``."""
    if isinstance(lane, ConvergenceError):
        return str(lane), repr(lane.partial), lane.terms
    return repr(lane[0]), lane[1]


def _2f1_loop_outcome(a, b, c, z):
    try:
        return _2f1_outcome(gauss_2f1(a, b, c, z, full_output=True))
    except ConvergenceError as exc:
        return _2f1_outcome(exc)


def _moment_lanes(log_beta, place, first, count):
    # the 2F1 factors of a binomial moment sum over shapes (first + j) beta,
    # j < count, with r at a place in its window (-2 first beta, 1)
    beta = 10.0**log_beta
    r = -2.0 * first * beta + place * (1.0 + 2.0 * first * beta)
    g = (first + np.arange(count)) * beta
    return -r / 2.0, r / 2.0 + g, 1.0 - r / 2.0 + g, 0.5


LANES = st.one_of(
    # beta up to 1e6 puts r, and so a = -r/2, far below 0: those lanes need
    # wider blocks, and their terms overflow before they settle
    st.builds(_moment_lanes, st.floats(-2.0, 6.0), st.floats(0.0, 1.0), st.integers(1, 5), st.integers(1, 69)),
    st.builds(
        lambda a, g, gap, z: (a, np.array(g), np.array(g) + gap, z),
        st.floats(-3.0, 3.0), st.lists(st.floats(0.01, 1e3), min_size=1, max_size=8),
        st.floats(0.5, 2.0), st.floats(0.0, 0.99),
    ),
)


class TestGauss2F1Lanes:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(args=LANES)
    # the first two lanes do not settle within 10,000 terms, so they carry
    # the loop's ConvergenceError; the third is a polynomial of degree 3
    @example(args=(2.0, np.array([3.0, 1.0, -3.0]), np.array([1.5, 4.0, 2.0]), 0.9999))
    # in the first lane term 14 divides by c + 13 = 1e-11 and rises above
    # tolerance between settled terms 13 and 15, so the run of three restarts
    @example(args=(-14.0 + 1e-11, np.array([-3.17, 0.5]), np.array([-13.0 + 1e-11, 2.0]), 0.12))
    def test_lanes_match_the_loop(self, args):
        a, b, c, z = args
        lanes = specfun._gauss_2f1_lanes(a, b, c, z)
        assert [_2f1_outcome(lane) for lane in lanes] == [
            _2f1_loop_outcome(a, bk, ck, z) for bk, ck in zip(b.tolist(), c.tolist())
        ]


class TestSeriesLanes:
    def test_nan_lane_stops_without_widening(self, monkeypatch):
        # A NaN partial sum never settles. Its lane takes stop 0 and its
        # partial sum at once; widening it instead, as the Appell rows of a
        # NaN y did, held (rows, _MAX_TERMS) blocks: 1.2 s and 290 MB at
        # x = 0.95. With the budget raised to 2^20 terms, widening would
        # allocate tens of MB here.
        monkeypatch.setattr(specfun, "_MAX_TERMS", 2**20)
        b, c = np.array([0.5, np.nan, 1.5]), np.array([2.5, 2.0, 3.0])
        tracemalloc.start()
        try:
            with np.errstate(all="ignore"):
                values, stops = specfun._series_lanes(np.ones(3), -0.25, b, c, 0.5, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert math.isnan(values[1]) and stops[1] == 0
        for k in (0, 2):
            assert (values[k], stops[k]) == gauss_2f1(-0.25, b[k], c[k], 0.5, full_output=True)

    def test_appell_nan_row_raises_as_the_loop(self):
        args = (1.0, 1.0, 1.0, 2.0, 0.95, math.nan)
        assert _f1_outcome(lambda *a: appell_f1(*a, full_output=True), args) == _f1_outcome(_f1_term_loop, args)


def _f1_quadrature_oracle(a, b1, b2, c, x, y):
    def integrand(t):
        return t ** (a - 1.0) * (1.0 - t) ** (c - a - 1.0) * (1.0 - x * t) ** (-b1) * (1.0 - y * t) ** (-b2)

    value, _ = quad(integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=300)
    return value / beta_fn(a, c - a)


def _f1_term_loop(a, b1, b2, c, x, y):
    """appell_f1's series summed term by term: the reference that its row
    blocks reproduce exactly, values, row counts and errors alike."""
    _REL_TOL, _TINY, _MAX_TERMS = specfun._REL_TOL, specfun._TINY, specfun._MAX_TERMS
    total = 0.0
    row_lead = 1.0  # (a)_m (b1)_m / ((c)_m m!) x^m at n = 0
    settled = 0
    for m in range(_MAX_TERMS):
        term = row_lead
        row_sum = term
        inner_ok = False
        for n in range(1, _MAX_TERMS + 1):
            term *= (a + m + n - 1.0) * (b2 + n - 1.0) / ((c + m + n - 1.0) * n) * y
            row_sum += term
            if abs(term) <= _REL_TOL * (abs(row_sum) + _TINY):
                inner_ok = True
                break
        if not inner_ok:
            raise ConvergenceError(
                "appell_f1 inner series did not converge", total + row_sum, m
            )
        total += row_sum
        if abs(row_sum) <= _REL_TOL * (abs(total) + _TINY):
            settled += 1
            if settled >= 3:
                return (total, m + 1)
        else:
            settled = 0
        row_lead *= (a + m) * (b1 + m) / ((c + m) * (m + 1.0)) * x
    raise ConvergenceError("appell_f1 series did not converge", total, _MAX_TERMS)


def _f1_outcome(f, args):
    try:
        return repr(f(*args))
    except ConvergenceError as exc:
        return type(exc), str(exc), repr(getattr(exc, "partial", None)), getattr(exc, "terms", None)


def _moment_f1_args(beta, place, u0):
    # the F1 arguments of incomplete_moment(r, x0, Params(beta, lam)), with
    # r at a place in (-2 beta, 3) and u0 below the quadrature switch
    r = -2.0 * beta + place * (2.0 * beta + 3.0)
    return r / 2.0 + beta, r, -r / 2.0, r / 2.0 + beta + 1.0, u0, u0 / 2.0


F1_SERIES_ARGS = st.one_of(
    st.builds(_moment_f1_args, st.floats(0.05, 20.0), st.floats(1e-6, 1.0), st.floats(0.0, 0.95)),
    st.builds(
        lambda a, gap, b1, b2, x, y: (a, b1, b2, a + gap, x, y),
        st.floats(1e-3, 10.0), st.floats(1e-2, 10.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0),
        st.floats(-0.9, 0.95) | st.just(0.0),
        # y near 1 leaves rows that do not settle in 10,000 terms
        st.floats(0.9999, 0.999999) | st.floats(-0.99, 0.99),
    ),
)


class TestAppellF1:
    def test_empty_series(self):
        assert appell_f1(1.3, 0.4, -0.2, 2.2, 0.0, 0.0) == 1.0

    def test_reduces_to_2f1_when_y_zero(self, rng):
        for _ in range(10):
            a = rng.uniform(0.2, 3.0)
            b1 = rng.uniform(-1.0, 2.0)
            b2 = rng.uniform(-1.0, 2.0)
            c = a + rng.uniform(0.5, 3.0)
            x = rng.uniform(0.0, 0.9)
            assert appell_f1(a, b1, b2, c, x, 0.0) == pytest.approx(
                gauss_2f1(a, b1, c, x), rel=1e-12
            )

    def test_reduces_to_2f1_when_b2_zero(self):
        a, b1, c, x, y = 0.9, 0.7, 2.4, 0.55, 0.4
        assert appell_f1(a, b1, 0.0, c, x, y) == pytest.approx(
            gauss_2f1(a, b1, c, x), rel=1e-12
        )

    def test_against_integral_oracle(self):
        value = appell_f1(1.5, 0.5, -0.25, 2.5, 0.6, 0.3)
        oracle = _f1_quadrature_oracle(1.5, 0.5, -0.25, 2.5, 0.6, 0.3)
        assert value == pytest.approx(oracle, rel=1e-10)

    def test_quadrature_fallback_continuity(self):
        # the series (x = 0.94) and quadrature (x = 0.96) paths must agree
        # with the oracle on both sides of the switch
        args = (1.7, 0.4, -0.2, 2.7)
        for x in (0.94, 0.96):
            value, rows = appell_f1(*args, x, x / 2.0, full_output=True)
            assert value == pytest.approx(_f1_quadrature_oracle(*args, x, x / 2.0), rel=1e-9)
        assert appell_f1(*args, 0.96, 0.48, full_output=True)[1] == 0  # quadrature path

    def test_quadrature_warning_raises(self, monkeypatch):
        def warned(*args, **kwargs):
            return 0.5, 1e-3, {"last": 500}, "The maximum number of\n  subdivisions (500) has been achieved."

        monkeypatch.setattr(scipy.integrate, "quad", warned)
        with pytest.raises(ConvergenceError, match="maximum number of subdivisions") as info:
            appell_f1(1.7, 0.4, -0.2, 2.7, 0.96, 0.48)
        assert info.value.terms == 0

    # The second budget puts a row or two in each block, so every call
    # crosses blocks, the three-row settle run straddles their edges, and
    # rows wider than the budget widen the block.
    @pytest.mark.parametrize("budget", [specfun._BLOCK_ELEMENTS, 40])
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(args=F1_SERIES_ARGS)
    @example(args=(1.3, 0.4, -0.2, 2.2, -0.9999, 0.0))  # the outer rule never settles
    @example(args=(0.5, 0.5, 0.5, 4.5, 0.9, 0.9999))  # row 17 does not settle
    @example(args=(0.8, 1.5, -2.5, 2.3, -0.6, -0.9))
    def test_blocks_match_the_term_loop(self, budget, args):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(specfun, "_BLOCK_ELEMENTS", budget)
            blocked = _f1_outcome(lambda *a: appell_f1(*a, full_output=True), args)
        assert blocked == _f1_outcome(_f1_term_loop, args)

    # c + 1 rounds to 1, and so does a + 1: the term loop divides by zero,
    # and the first row's first term is 0/0
    @pytest.mark.parametrize("budget", [specfun._BLOCK_ELEMENTS, 40])
    @pytest.mark.parametrize("x, y", [(0.1, 0.1), (0.5, 0.25), (0.0, 0.1), (0.1, 0.0)])
    def test_c_beside_zero_is_a_convergence_error(self, monkeypatch, budget, x, y):
        monkeypatch.setattr(specfun, "_BLOCK_ELEMENTS", budget)
        with pytest.raises(ConvergenceError, match=r"^appell_f1 inner series did not converge \(partial sum nan"):
            appell_f1(1e-17, 0.5, 0.5, 2e-17, x, y)

    def test_domain(self):
        with pytest.raises(ValueError):
            appell_f1(-1.0, 0.5, 0.5, 2.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            appell_f1(2.0, 0.5, 0.5, 1.5, 0.1, 0.1)
        with pytest.raises(ValueError):
            appell_f1(1.0, 0.5, 0.5, 2.0, 1.0, 0.1)


class TestLerchPhiHalf:
    def test_known_value(self):
        # sum 2^-n/(n+1) = 2 log 2
        assert lerch_phi_half(1.0, 1.0) == pytest.approx(2.0 * math.log(2.0), rel=1e-12)

    def test_geometric_case(self):
        assert lerch_phi_half(0.0, 1.0) == pytest.approx(2.0, rel=1e-13)

    def test_partial_sum_oracle(self):
        oracle = math.fsum(0.5**n / (n + 0.5) for n in range(400))
        assert lerch_phi_half(1.0, 0.5) == pytest.approx(oracle, rel=1e-13)

    def test_terms_stay_within_budget(self):
        _, terms = lerch_phi_half(1.0, 0.25, full_output=True)
        assert terms < specfun._MAX_TERMS

    def test_domain(self):
        with pytest.raises(ValueError):
            lerch_phi_half(1.0, 0.0)


class TestSeriesControl:
    def test_defaults(self):
        # the truncation policy every pinned moment was computed with
        assert specfun._REL_TOL == 1e-14
        assert specfun._MAX_TERMS == 10_000
