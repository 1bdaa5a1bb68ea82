"""Goodness-of-fit statistics, information criteria, the TTT transform,
and maximum-likelihood fitters for the comparison models used in the
heart-transplant application (CR, Weibull, gamma, log-normal, and the
exponentiated exponential next to the ECR fit itself).

W* and A* are the small-sample corrected Cramer-von Mises and
Anderson-Darling statistics of Chen & Balakrishnan (1995): the fitted
probability integral transforms are pushed through the standard normal
quantile, standardized, and mapped back before the classical statistics
and the (1 + 0.5/n) and (1 + 0.75/n + 2.25/n^2) factors are applied.

Each comparison fit is a maximum-likelihood estimate or a typed failure.
The log-normal fit is closed-form. The others profile out all but one
parameter and solve that profile's score (for Weibull and gamma, the
shape equation) by Brent's method on a bracket taken from the data,
through the root path ``fit_ml`` uses: a score that does not change sign
on its bracket, or a search that does not converge, raises
:class:`inference.FitError` naming the equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import inference, specfun
from .data import Dataset, InputError
from .ecr import Params, cdf as ecr_cdf

__all__ = [
    "GofReport",
    "InfoCriteria",
    "ModelEntry",
    "ComparisonFit",
    "MODELS",
    "ks_statistic",
    "cvm_wstar",
    "ad_astar",
    "info_criteria",
    "ttt_transform",
    "fit_comparison_models",
]


class InfoCriteria(NamedTuple):
    aic: float
    caic: float
    bic: float
    hqic: float


@dataclass(frozen=True)
class GofReport:
    """All seven figures of merit for one fitted model on one dataset."""

    model: str
    wstar: float
    astar: float
    ks: float
    aic: float
    caic: float
    bic: float
    hqic: float
    loglik: float
    k: int
    n: int


def ks_statistic(data: Dataset, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """sup-distance between the empirical cdf and the fitted cdf."""
    z = np.sort(np.asarray(cdf(data.sorted_values), dtype=float))
    i = np.arange(1, data.n + 1)
    return float(np.max(np.maximum(i / data.n - z, z - (i - 1) / data.n)))


def _transformed_pit(data: Dataset, cdf) -> np.ndarray | None:
    """Normality-standardized probability integral transform.

    Returns None when a fitted probability hits 0 or 1 exactly, which
    makes the quantile step (and the statistics) infinite.
    """
    from scipy.special import ndtr, ndtri

    u = np.sort(np.asarray(cdf(data.sorted_values), dtype=float))
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        return None
    y = ndtri(u)
    sd = float(np.std(y, ddof=1))
    if sd == 0.0:
        return None
    v = np.sort(ndtr((y - np.mean(y)) / sd))
    if np.any(v <= 0.0) or np.any(v >= 1.0):
        return None
    return v


def cvm_wstar(data: Dataset, cdf) -> float:
    """Corrected Cramer-von Mises statistic W* = W^2 (1 + 0.5/n)."""
    v = _transformed_pit(data, cdf)
    if v is None:
        return math.inf
    n = data.n
    i = np.arange(1, n + 1)
    w2 = 1.0 / (12.0 * n) + float(np.sum((v - (2.0 * i - 1.0) / (2.0 * n)) ** 2))
    return w2 * (1.0 + 0.5 / n)


def ad_astar(data: Dataset, cdf) -> float:
    """Corrected Anderson-Darling statistic A* = A^2 (1 + 0.75/n + 2.25/n^2)."""
    v = _transformed_pit(data, cdf)
    if v is None:
        return math.inf
    n = data.n
    i = np.arange(1, n + 1)
    a2 = -n - float(np.mean((2.0 * i - 1.0) * (np.log(v) + np.log1p(-v[::-1]))))
    return a2 * (1.0 + 0.75 / n + 2.25 / n**2)


def info_criteria(loglik: float, k: int, n: int) -> InfoCriteria:
    """AIC, corrected AIC, BIC, and Hannan-Quinn.

    aic = -2l + 2k; caic = aic + 2k(k+1)/(n-k-1) (nan when n <= k+1);
    bic = -2l + k ln n; hqic = -2l + 2k ln(ln n).
    """
    deviance = -2.0 * loglik
    aic = deviance + 2.0 * k
    caic = aic + 2.0 * k * (k + 1.0) / (n - k - 1.0) if n > k + 1 else math.nan
    bic = deviance + k * math.log(n)
    hqic = deviance + 2.0 * k * math.log(math.log(n))
    return InfoCriteria(aic, caic, bic, hqic)


def ttt_transform(data: Dataset) -> np.ndarray:
    """Scaled total time on test: rows (r/n, G(r/n)) for r = 1..n with

        G(r/n) = [sum_{i<=r} y_(i) + (n-r) y_(r)] / sum_i y_(i),

    computed on :attr:`Dataset.sorted_units`: G is a ratio, so the power
    of two cancels and near-top samples keep their sums in range.
    """
    y, _ = data.sorted_units
    n = data.n
    total = float(np.sum(y))
    cumulative = np.cumsum(y)
    r = np.arange(1, n + 1)
    g = (cumulative + (n - r) * y) / total
    return np.column_stack([r / n, g])


# ---------------------------------------------------------------------------
# Comparison models


@dataclass(frozen=True)
class ModelEntry:
    """A fittable model: parameter names, cdf/loglik evaluators, fitter."""

    name: str
    param_names: tuple[str, ...]
    fit: Callable[[Dataset], tuple[float, ...]]
    cdf: Callable[[np.ndarray, tuple[float, ...]], np.ndarray]
    loglik: Callable[[Dataset, tuple[float, ...]], float]


@dataclass(frozen=True)
class ComparisonFit:
    model: ModelEntry
    params: tuple[float, ...]
    report: GofReport | None
    error: str | None = None


def _fit_ecr(data: Dataset) -> tuple[float, float]:
    fit = inference.fit_ml(data)
    return fit.params.beta, fit.params.lam


def _fit_cr(data: Dataset) -> tuple[float]:
    return (inference.fit_cr(data).params.lam,)


def _fit_weibull(data: Dataset) -> tuple[float, float]:
    # Profile likelihood: the shape solves
    # 1/a + mean(log x) - sum(x^a log x)/sum(x^a) = 0, then
    # scale = mean(x^a)^(1/a). The equation is scale invariant, so it is
    # solved on log x minus its mean. Its ratio is also unchanged when
    # every x^a is divided by max(x)^a, which keeps the weights in range
    # at any shape of the bracket; the scale is formed in logs from the
    # same weights, so neither step leaves the floating-point range.
    log_x = np.log(data.values)
    log_geo = float(np.mean(log_x))
    log_x = log_x - log_geo
    top = float(log_x.max())
    shifted = log_x - top

    def shape_eq(a: float) -> float:
        xa = np.exp(a * shifted)
        return 1.0 / a - float(np.sum(xa * log_x) / np.sum(xa))

    # The weighted mean of log_x falls short of top, so shape_eq(1/top) > 0.
    # log mean x^a is convex in a, 0 at a = 0 with slope mean(log_x) = 0,
    # and at least a top - ln n, so the weighted mean is at least
    # top - (ln n)/a and shape_eq((1 + ln n)/top) <= 0.
    if not top > 0.0:
        raise inference.FitError("Weibull shape equation has no bracketed root: the logs of the data are all equal")
    a, _ = inference._falling_root(shape_eq, 1.0 / top, (1.0 + math.log(data.n)) / top, "Weibull shape equation")
    # a power mean of the data, so it lies between their min and max
    return a, math.exp(log_geo + top + math.log(float(np.mean(np.exp(a * shifted)))) / a)


# log p - psi(p) below p = 15 is that difference, within 1e-14; from 15 on
# it is the asymptotic series 1/(2p) + sum_k B_2k / (2k p^2k), whose six
# terms here are within 2.2e-16, where the difference cancels (off by 3e-6
# at p = 1e9). Both measured against 40-digit mpmath.
_LOG_MINUS_DIGAMMA_SWITCH = 15.0
_LOG_MINUS_DIGAMMA_TERMS = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0, 1.0 / 132.0,
                            -691.0 / 32760.0)


def _log_minus_digamma(p: float) -> float:
    if p < _LOG_MINUS_DIGAMMA_SWITCH:
        return math.log(p) - specfun.digamma(p)
    q = 1.0 / (p * p)
    tail = 0.0
    for c in reversed(_LOG_MINUS_DIGAMMA_TERMS):
        tail = c + q * tail
    return 0.5 / p + q * tail


def _fit_gamma(data: Dataset) -> tuple[float, float]:
    # log(shape) - psi(shape) = gap = log(mean x) - mean(log x), decreasing
    # in the shape, then scale = mean / shape, on the sample in units of
    # 2^e. Where every x lies within m/2 of the mean m the gap is taken as
    # log1p(mean d) - mean(log1p(d)) with d = (x - m)/m: x - m is exact,
    # the first term restores what rounding m took from log m, and the
    # difference of two logs near log m no longer cancels.
    # The mean comes from the dataset's plain units, whose sum cannot
    # overflow, and the logs from its exact units, 2^(e - e_log) apart (1
    # unless the exact units fall back to the raw sample).
    units, e = data.units
    x, e_log = data.exact_units
    mean = float(np.mean(units))
    d = (units - mean) / mean
    if np.all(np.abs(d) < 0.5):
        gap = math.log1p(float(np.mean(d))) - float(np.mean(np.log1p(d)))
    else:
        gap = _log_scaled(mean, e - e_log) - float(np.mean(np.log(x)))

    # Alzer's inequality 1/(2p) < log p - psi(p) < 1/p puts the root in
    # [1/(2 gap), 1/gap]; the bracket is twice as wide at each end.
    if not (0.0 < gap < math.inf and 2.0 / gap < math.inf):
        raise inference.FitError(f"gamma shape equation has no bracketed root: log(mean x) - mean(log x) is {gap!r}")
    shape, _ = inference._falling_root(lambda p: _log_minus_digamma(p) - gap, 0.25 / gap, 2.0 / gap,
                                       "gamma shape equation")
    return shape, _scaled_back(mean / shape, e, "gamma scale estimate")


def _log_scaled(value: float, e: int) -> float:
    """log(value 2^e), also where value 2^e exceeds the floating-point range."""
    try:
        return math.log(math.ldexp(value, e))
    except OverflowError:
        return math.log(value) + e * math.log(2.0)


def _scaled_back(value: float, e: int, what: str) -> float:
    """``value`` 2^e, or a :class:`inference.FitError` naming ``what``
    where that overflows or rounds to 0."""
    scaled = math.ldexp(value, e) if math.frexp(value)[1] + e <= 1024 else math.inf  # else ldexp overflows
    if not 0.0 < scaled < math.inf:
        raise inference.FitError(f"{what} leaves the floating-point range")
    return scaled


def _fit_lognormal(data: Dataset) -> tuple[float, float]:
    log_x = np.log(data.values)
    mu = float(np.mean(log_x))
    sigma = float(np.sqrt(np.mean((log_x - mu) ** 2)))
    if sigma == 0.0:
        raise inference.FitError("log-normal sigma estimate is 0: the logs of the data are all equal")
    return mu, sigma


def _log1mexp(t):
    """log(1 - e^(-t)) for t >= 0: log(-expm1(-t)) below log 2, where
    1 - e^(-t) is small, and log1p(-e^(-t)) above it, where e^(-t) is."""
    with np.errstate(divide="ignore"):
        return np.where(t < math.log(2.0), np.log(-np.expm1(-t)), np.log1p(-np.exp(-t)))


def _fit_ee(data: Dataset) -> tuple[float, float]:
    # Exponentiated exponential F(x) = (1 - exp(-rate x))^alpha; for a
    # fixed rate the shape closes as alpha(rate) = -n / sum log(1-e^(-rate x)),
    # and the rate solves the profile score
    # n/rate - sum x + (alpha(rate) - 1) sum x e^(-rate x) / (1 - e^(-rate x)),
    # whose terms tend to 1/rate where rate x underflows to 0. It is solved
    # on the sample in units of 2^e, which moves the rate by 2^-e.
    # Sum x from the dataset's plain units, whose sum cannot overflow.
    # The score's n/rate is 1e4 sum x at the bracket's low end. Where that
    # overflows in the exact units, they are the raw sample, and the fit
    # runs in the plain units: only values below 2^-1022 of the largest
    # lose bits there, and a value that rounds to 0 leaves no root.
    x, e = data.exact_units
    units, e_plain = data.units
    total = float(np.sum(units))
    if math.frexp(1e4 * total)[1] + e_plain - e > 1024:
        x, e = units, e_plain
    else:
        total = math.ldexp(total, e_plain - e)
    n = data.n

    def shape(rate: float) -> float:
        return -n / float(np.sum(_log1mexp(rate * x)))

    def score(rate: float) -> float:
        t = rate * x
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(t > 0.0, x * np.exp(-t) / -np.expm1(-t), 1.0 / rate)
        return n / rate - total + (shape(rate) - 1.0) * float(np.sum(terms))

    # The bracket, in log scale. As x e^(-t)/(1 - e^(-t)) lies in
    # [1/rate - x/2, 1/rate], the score is positive wherever
    # rate mean(x) < min(1, shape): at rate mean(x) = 1e-4, since the shape
    # exceeds 1e-4 unless some rate x underflows to 0. For large rates the
    # score approaches n/rate - sum(x - min x), negative once
    # rate (max x - min x) exceeds n; the upper end is twice that, but not
    # past rate min x = 700, beyond which e^(-rate x) leaves the normal
    # floats at every x.
    low, high = float(x.min()), float(x.max())
    if not (high > low and total < math.inf):
        raise inference.FitError("EE profile score has no bracketed root: the data are all equal or their sum overflows")
    if not low > 0.0:
        raise inference.FitError("EE profile score has no bracketed root: the smallest value rounds to 0 in units")
    log_rate, _ = inference._falling_root(lambda v: score(math.exp(v)), math.log(1e-4 * n / total),
                                          math.log(min(2.0 * n / (high - low), 700.0 / low)),
                                          "EE profile score", log_scale=True)
    rate = math.exp(log_rate)
    alpha = shape(rate)
    if not alpha > 0.0:
        raise inference.FitError("EE shape estimate is 0: rate * x underflows to 0 at the root")
    return alpha, _scaled_back(rate, -e, "EE rate estimate")


def _ecr_loglik(data: Dataset, theta) -> float:
    return inference.log_likelihood(data, Params(theta[0], theta[1]))


def _cr_loglik(data: Dataset, theta) -> float:
    return inference.log_likelihood(data, Params(1.0, theta[0]))


# The Weibull cdf and log-likelihood go through log(x/b) = log x - log b,
# because x/b itself leaves the floating-point range on data spanning it.
def _weibull_cdf(x, theta):
    a, b = theta
    return -np.expm1(-np.exp(a * (np.log(np.asarray(x, dtype=float)) - math.log(b))))


def _weibull_loglik(data: Dataset, theta) -> float:
    a, b = theta
    log_z = np.log(data.values) - math.log(b)
    return float(np.sum(math.log(a) - math.log(b) + (a - 1.0) * log_z - np.exp(a * log_z)))


def _gamma_cdf(x, theta):
    from scipy.special import gammainc

    p, b = theta
    return gammainc(p, np.asarray(x, dtype=float) / b)


def _gamma_loglik(data: Dataset, theta) -> float:
    p, b = theta
    x = data.values
    return float(
        np.sum((p - 1.0) * np.log(x) - x / b) - data.n * (specfun.log_gamma(p) + p * math.log(b))
    )


def _lognormal_cdf(x, theta):
    from scipy.special import ndtr

    mu, sigma = theta
    return ndtr((np.log(np.asarray(x, dtype=float)) - mu) / sigma)


def _lognormal_loglik(data: Dataset, theta) -> float:
    mu, sigma = theta
    log_x = np.log(data.values)
    z = (log_x - mu) / sigma
    return float(
        np.sum(-0.5 * z**2 - log_x) - data.n * (math.log(sigma) + 0.5 * math.log(2.0 * math.pi))
    )


def _ee_cdf(x, theta):
    alpha, rate = theta
    return (-np.expm1(-rate * np.asarray(x, dtype=float))) ** alpha


def _ee_loglik(data: Dataset, theta) -> float:
    alpha, rate = theta
    units, e = data.units
    log_g = _log1mexp(rate * data.values)
    return float(data.n * math.log(alpha * rate) - math.ldexp(rate, e) * np.sum(units)
                 + (alpha - 1.0) * np.sum(log_g))


MODELS: dict[str, ModelEntry] = {
    "ecr": ModelEntry(
        "ecr", ("beta", "lambda"), _fit_ecr,
        lambda x, theta: ecr_cdf(x, Params(theta[0], theta[1])), _ecr_loglik,
    ),
    "cr": ModelEntry(
        "cr", ("lambda",), _fit_cr,
        lambda x, theta: ecr_cdf(x, Params(1.0, theta[0])), _cr_loglik,
    ),
    "weibull": ModelEntry(
        "weibull", ("shape", "scale"), _fit_weibull, _weibull_cdf, _weibull_loglik
    ),
    "gamma": ModelEntry(
        "gamma", ("shape", "scale"), _fit_gamma, _gamma_cdf, _gamma_loglik
    ),
    "lognormal": ModelEntry(
        "lognormal", ("mu", "sigma"), _fit_lognormal, _lognormal_cdf, _lognormal_loglik
    ),
    "ee": ModelEntry("ee", ("shape", "rate"), _fit_ee, _ee_cdf, _ee_loglik),
}


def gof_report(data: Dataset, entry: ModelEntry, theta: tuple[float, ...]) -> GofReport:
    cdf = lambda x: entry.cdf(x, theta)
    loglik = entry.loglik(data, theta)
    k = len(entry.param_names)
    criteria = info_criteria(loglik, k, data.n)
    return GofReport(
        model=entry.name,
        wstar=cvm_wstar(data, cdf),
        astar=ad_astar(data, cdf),
        ks=ks_statistic(data, cdf),
        aic=criteria.aic,
        caic=criteria.caic,
        bic=criteria.bic,
        hqic=criteria.hqic,
        loglik=loglik,
        k=k,
        n=data.n,
    )


def fit_comparison_models(data: Dataset) -> list[ComparisonFit]:
    """Fit all registered models and report them sorted by W*.

    A model whose fit fails with an :class:`inference.FitError` is kept
    in the output with its error message and sorts last; any other
    exception is a defect and propagates. Data with fewer than two
    distinct observations raise :class:`InputError` before any model is
    fitted.
    """
    xs = data.sorted_values
    if xs[0] == xs[-1]:
        raise InputError("goodness of fit needs at least two distinct observations")
    fits: list[ComparisonFit] = []
    for entry in MODELS.values():
        try:
            theta = entry.fit(data)
            fits.append(ComparisonFit(entry, theta, gof_report(data, entry, theta)))
        except inference.FitError as exc:
            fits.append(ComparisonFit(entry, (), None, error=str(exc)))
    return sorted(fits, key=lambda f: math.inf if f.report is None else f.report.wstar)
