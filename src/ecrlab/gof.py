"""Goodness-of-fit statistics, information criteria, the TTT transform,
and maximum-likelihood fitters for the comparison models used in the
heart-transplant application (CR, Weibull, gamma, log-normal, and the
exponentiated exponential next to the ECR fit itself).

W* and A* are the small-sample corrected Cramer-von Mises and
Anderson-Darling statistics of Chen & Balakrishnan (1995): the fitted
probability integral transforms are pushed through the standard normal
quantile, standardized, and mapped back before the classical statistics
and the (1 + 0.5/n) and (1 + 0.75/n + 2.25/n^2) factors are applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.optimize import brentq, minimize_scalar
from scipy.special import gammainc, gammaln, ndtr, ndtri
from scipy.special import digamma as _digamma

from . import inference
from .data import Dataset, InputError
from .ecr import Params, cdf as ecr_cdf

__all__ = [
    "GofReport",
    "InfoCriteria",
    "ModelEntry",
    "ComparisonFit",
    "MODELS",
    "MODEL_ORDER",
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

        G(r/n) = [sum_{i<=r} y_(i) + (n-r) y_(r)] / sum_i y_(i).
    """
    y = data.sorted_values
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
    k: int
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
    # scale = mean(x^a)^(1/a). The equation is scale invariant, so the
    # data is normalized by its geometric mean to keep x^a in range.
    x = data.values / math.exp(float(np.mean(np.log(data.values))))
    log_x = np.log(x)

    def shape_eq(a: float) -> float:
        xa = x**a
        return 1.0 / a - float(np.sum(xa * log_x) / np.sum(xa))

    a = brentq(shape_eq, 1e-3, 100.0, xtol=1e-13, rtol=1e-15)
    scale = float(np.mean(data.values**a)) ** (1.0 / a)
    return a, scale


def _fit_gamma(data: Dataset) -> tuple[float, float]:
    # log(shape) - psi(shape) = log(mean x) - mean(log x), decreasing in
    # the shape, then scale = mean / shape.
    x = data.values
    gap = math.log(float(np.mean(x))) - float(np.mean(np.log(x)))

    def shape_eq(p: float) -> float:
        return math.log(p) - float(_digamma(p)) - gap

    shape = brentq(shape_eq, 1e-6, 1e6, xtol=1e-13, rtol=1e-15)
    return shape, float(np.mean(x)) / shape


def _fit_lognormal(data: Dataset) -> tuple[float, float]:
    log_x = np.log(data.values)
    mu = float(np.mean(log_x))
    sigma = float(np.sqrt(np.mean((log_x - mu) ** 2)))
    return mu, sigma


def _fit_ee(data: Dataset) -> tuple[float, float]:
    # Exponentiated exponential F(x) = (1 - exp(-rate x))^alpha; for a
    # fixed rate the shape closes as alpha(rate) = -n / sum log(1-e^(-rate x)).
    # log1p keeps the sum negative even when rate * x is large.
    x = data.values
    n = data.n
    scale = float(np.mean(x))

    def sum_log_g(rate: float) -> float:
        return float(np.sum(np.log1p(-np.exp(-rate * x))))

    def neg_profile(rate: float) -> float:
        s = sum_log_g(rate)
        alpha = -n / s
        return -(n * math.log(alpha * rate) - rate * float(np.sum(x)) + (alpha - 1.0) * s)

    res = minimize_scalar(
        neg_profile,
        bounds=(1e-4 / scale, 1e2 / scale),
        method="bounded",
        options={"xatol": 1e-14 / scale},
    )
    rate = float(res.x)
    return -n / sum_log_g(rate), rate


def _ecr_loglik(data: Dataset, theta) -> float:
    return inference.log_likelihood(data, Params(theta[0], theta[1]))


def _cr_loglik(data: Dataset, theta) -> float:
    return inference.log_likelihood(data, Params(1.0, theta[0]))


def _weibull_cdf(x, theta):
    a, b = theta
    return -np.expm1(-((np.asarray(x, dtype=float) / b) ** a))


def _weibull_loglik(data: Dataset, theta) -> float:
    a, b = theta
    x = data.values
    z = (x / b) ** a
    return float(np.sum(math.log(a / b) + (a - 1.0) * np.log(x / b) - z))


def _gamma_cdf(x, theta):
    p, b = theta
    return gammainc(p, np.asarray(x, dtype=float) / b)


def _gamma_loglik(data: Dataset, theta) -> float:
    p, b = theta
    x = data.values
    return float(np.sum((p - 1.0) * np.log(x) - x / b) - data.n * (gammaln(p) + p * math.log(b)))


def _lognormal_cdf(x, theta):
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
    x = data.values
    log_g = np.log(-np.expm1(-rate * x))
    return float(data.n * math.log(alpha * rate) - rate * np.sum(x) + (alpha - 1.0) * np.sum(log_g))


MODELS: dict[str, ModelEntry] = {
    "ecr": ModelEntry(
        "ecr", 2, ("beta", "lambda"), _fit_ecr,
        lambda x, theta: ecr_cdf(x, Params(theta[0], theta[1])), _ecr_loglik,
    ),
    "cr": ModelEntry(
        "cr", 1, ("lambda",), _fit_cr,
        lambda x, theta: ecr_cdf(x, Params(1.0, theta[0])), _cr_loglik,
    ),
    "weibull": ModelEntry(
        "weibull", 2, ("shape", "scale"), _fit_weibull, _weibull_cdf, _weibull_loglik
    ),
    "gamma": ModelEntry(
        "gamma", 2, ("shape", "scale"), _fit_gamma, _gamma_cdf, _gamma_loglik
    ),
    "lognormal": ModelEntry(
        "lognormal", 2, ("mu", "sigma"), _fit_lognormal, _lognormal_cdf, _lognormal_loglik
    ),
    "ee": ModelEntry("ee", 2, ("shape", "rate"), _fit_ee, _ee_cdf, _ee_loglik),
}

MODEL_ORDER = ("ecr", "cr", "weibull", "gamma", "lognormal", "ee")


def gof_report(data: Dataset, entry: ModelEntry, theta: tuple[float, ...]) -> GofReport:
    cdf = lambda x: entry.cdf(x, theta)
    loglik = entry.loglik(data, theta)
    criteria = info_criteria(loglik, entry.k, data.n)
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
        k=entry.k,
        n=data.n,
    )


def fit_comparison_models(data: Dataset) -> list[ComparisonFit]:
    """Fit all registered models and report them sorted by W*.

    A model that fails to fit is kept in the output with its error
    message and sorts last. Data with fewer than two distinct
    observations raise :class:`InputError` before any model is fitted.
    """
    xs = data.sorted_values
    if xs[0] == xs[-1]:
        raise InputError("goodness of fit needs at least two distinct observations")
    fits: list[ComparisonFit] = []
    for name in MODEL_ORDER:
        entry = MODELS[name]
        try:
            theta = entry.fit(data)
            fits.append(ComparisonFit(entry, theta, gof_report(data, entry, theta)))
        except Exception as exc:  # per-model failure is recorded, not fatal
            fits.append(ComparisonFit(entry, (), None, error=str(exc)))
    return sorted(fits, key=lambda f: math.inf if f.report is None else f.report.wstar)
