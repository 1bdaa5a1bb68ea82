"""Extended Cauchy-Rayleigh (ECR) distribution.

A positive random variable X follows the ECR law with shape ``beta`` and
scale ``lam`` when

    F(x) = (1 - lam / sqrt(lam^2 + x^2))^beta,    x > 0.

``beta = 1`` recovers the Cauchy-Rayleigh (CR) law. The distribution is
regularly varying with tail index 1, so the mean does not exist; every
moment routine enforces its finite-existence window and raises
:class:`MomentExistenceError` outside it.

Numerical notes: the cdf kernel u(x) = 1 - lam/sqrt(lam^2+x^2) is
evaluated through the cancellation-free identity u = (x/s) (x/(s + lam))
with s = hypot(lam, x), and the survival function through expm1/log1p,
so both tails retain full double precision. No power of x or s is
formed, so extreme data scales stay in the floating-point range; where
s itself would overflow, it is formed from lam/2 and x/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .specfun import (
    EULER_GAMMA,
    ConvergenceError,
    _gauss_2f1_lanes,
    appell_f1,
    beta_fn,
    digamma,
    gauss_2f1,
    lerch_phi_half,
    log_gamma,
)

__all__ = [
    "Params",
    "MomentExistenceError",
    "LossOfPrecisionError",
    "QuantileUnderflowError",
    "ZeroLimitKind",
    "PdfZeroLimit",
    "cdf",
    "sf",
    "pdf",
    "log_pdf",
    "hrf",
    "quantile",
    "median",
    "sample",
    "sample_from",
    "pdf_zero_limit",
    "mode",
    "tail_ratio",
    "pwm",
    "raw_moment",
    "cr_moment",
    "log_moment",
    "incomplete_moment",
    "order_stat_moment",
]

# Uniform draws are clamped away from {0, 1}: the quantile function
# underflows at 0 and diverges at 1.
UNIFORM_CLIP = 1e-15


@dataclass(frozen=True)
class Params:
    """ECR parameter pair: shape ``beta`` > 0 and scale ``lam`` > 0."""

    beta: float
    lam: float

    def __post_init__(self) -> None:
        for name, value in (("beta", self.beta), ("lam", self.lam)):
            if not (
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                and math.isfinite(value)
                and value > 0
            ):
                raise ValueError(f"{name} must be a positive finite real, got {value!r}")
            object.__setattr__(self, name, float(value))


class MomentExistenceError(ValueError):
    """The requested moment is infinite or undefined for these parameters."""

    def __init__(self, message: str, lower: float, upper: float):
        super().__init__(message)
        self.window = (lower, upper)


class LossOfPrecisionError(ArithmeticError):
    """An alternating closed-form sum cancelled away its precision.

    The binomial sums behind the probability weighted and
    order-statistic moments alternate in sign; once the index range is
    wide (roughly t or n - i beyond 25) the largest term exceeds the
    result by enough orders of magnitude that double precision cannot
    back the digits, and the evaluation refuses rather than returning
    noise. The incomplete moment raises it where u0 = 1 - lam/s0 rounds
    to 1, which its closed form cannot take."""


class QuantileUnderflowError(ArithmeticError):
    """The quantile is positive but below the smallest positive float."""


def _window_error(kind: str, r: float, lower: float, upper: float) -> MomentExistenceError:
    if r >= upper:
        detail = f"moment does not exist for r >= {upper:g} (tail index 1)"
    else:
        detail = f"moment does not exist for r <= {lower:g}"
    return MomentExistenceError(
        f"{kind} of order r={r:g}: {detail}; admissible window is"
        f" {lower:g} < r < {upper:g}",
        lower,
        upper,
    )


def _as_positive_array(name: str, x, allow_zero: bool = False):
    arr = np.asarray(x, dtype=float)
    bad = ~np.isfinite(arr) | ((arr < 0.0) if allow_zero else (arr <= 0.0))
    if np.any(bad):
        bound = "non-negative" if allow_zero else "positive"
        raise ValueError(f"{name} must be {bound} and finite")
    return arr


def _hypot(lam, x):
    """Return (lam, x, s, k) with s = hypot(lam, x) and k = 1.

    Where hypot(lam, x) overflows, near the top of the floating-point
    range, lam and x come back halved, s is their hypot and k is 2: k s
    is the true sqrt(lam^2 + x^2), and every ratio of lam, x and s is
    unchanged. Elsewhere nothing changes.
    """
    with np.errstate(over="ignore"):
        s = np.hypot(lam, x)
    big = np.isinf(s)
    if not big.any():
        return lam, x, s, 1.0
    k = np.where(big, 2.0, 1.0)
    lam, x = lam / k, x / k
    return lam, x, np.hypot(lam, x), k


def _u(x, lam, s):
    """u = 1 - lam/s from s = hypot(lam, x).

    u is formed as (x/s)(x/(s+lam)), the rationalized 1 - lam/s without
    cancellation; neither x^2 nor s^2 is formed, so u stays accurate
    where they would overflow or underflow. Where s + lam overflows, near
    the top of the floating-point range, x/(s+lam) is taken as
    (x/s)/(1 + lam/s) instead, at those elements only, so an element's
    value does not depend on its neighbours.
    """
    with np.errstate(over="raise"):
        try:
            return (x / s) * (x / (s + lam))
        except FloatingPointError:
            pass
    with np.errstate(over="ignore"):
        s_lam = s + lam
    return (x / s) * np.where(np.isinf(s_lam), (x / s) / (1.0 + lam / s), x / s_lam)


def _log_kernel(x, lam: float):
    """log u, accurate for x << lam and x >> lam alike; see :func:`_log_u`."""
    lam, x, s, _ = _hypot(lam, x)
    with np.errstate(divide="ignore"):
        two_log_x = 2.0 * np.log(x)
    return _log_u(x, two_log_x, lam, s, np.log(s))


def _log_u(x, two_log_x, lam, s, log_s):
    """log u from 2 log x, s = hypot(lam, x) and log s.

    Below the scale the rationalized form log(x^2) - log(s) - log(s+lam)
    avoids the 1 - lam/s cancellation; above it log1p(-lam/s) keeps
    resolution all the way down to lam/s ~ 1e-300. Where s + lam
    overflows, near the top of the floating-point range, log(s+lam) is
    taken as log(s) + log1p(lam/s) instead, at those elements only, so
    an element's value does not depend on its neighbours.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="raise"):
        try:
            log_s_lam = np.log(s + lam)
        except FloatingPointError:
            with np.errstate(over="ignore"):
                s_lam = s + lam
            log_s_lam = np.where(np.isinf(s_lam), log_s + np.log1p(lam / s), np.log(s_lam))
        rational = two_log_x - log_s - log_s_lam
        direct = np.log1p(-lam / s)
    return np.where(x < lam, rational, direct)


def cdf(x, p: Params):
    """F(x) = (1 - lam/sqrt(lam^2+x^2))^beta for x >= 0."""
    arr = _as_positive_array("x", x, allow_zero=True)
    lam, arr, s, _ = _hypot(p.lam, arr)
    out = _u(arr, lam, s) ** p.beta
    return out if out.ndim else float(out)


def sf(x, p: Params):
    """Survival function 1 - F(x), evaluated without tail cancellation."""
    arr = _as_positive_array("x", x, allow_zero=True)
    log_u = _log_kernel(arr, p.lam)  # -inf at x = 0, where sf = 1
    out = -np.expm1(p.beta * log_u)
    return out if out.ndim else float(out)


def pdf(x, p: Params):
    """f(x) = beta lam x (lam^2+x^2)^(-3/2) (1 - lam/sqrt(lam^2+x^2))^(beta-1).

    The density is undefined at x = 0; see :func:`pdf_zero_limit` for the
    limiting behavior there.
    """
    arr = _as_positive_array("x", x)
    lam, arr, s, k = _hypot(p.lam, arr)
    out = p.beta * (lam / s) * (arr / s) / s / k * _u(arr, lam, s) ** (p.beta - 1.0)
    return out if out.ndim else float(out)


def log_pdf(x, p: Params):
    """log f(x), stable over the whole positive axis."""
    arr = _as_positive_array("x", x)
    _, _, s, k = _hypot(p.lam, arr)
    log_u = _log_kernel(arr, p.lam)
    beta_lam = p.beta * p.lam
    log_beta_lam = math.log(beta_lam) if 0.0 < beta_lam < math.inf else math.log(p.beta) + math.log(p.lam)
    out = log_beta_lam + np.log(arr) - 3.0 * (np.log(s) + np.log(k)) + (p.beta - 1.0) * log_u
    return out if out.ndim else float(out)


def hrf(x, p: Params):
    """Hazard rate f(x) / (1 - F(x))."""
    arr = _as_positive_array("x", x)
    out = pdf(arr, p) / sf(arr, p)
    return out if np.ndim(out) else float(out)


def quantile(q, p: Params):
    """Q(q) = lam sqrt(2 w - w^2) / (1 - w) with w = q^(1/beta), 0 < q < 1.

    Where w underflows to 0, Q = lam sqrt(2 w) to double precision and is
    formed in log space, exp((log w + log 2)/2 + log lam). Raises
    OverflowError where the quantile lies beyond the floating-point range
    and QuantileUnderflowError where it lies below the smallest positive
    float.
    """
    arr = np.asarray(q, dtype=float)
    if np.any((arr <= 0.0) | (arr >= 1.0) | ~np.isfinite(arr)):
        raise ValueError("quantile level must lie strictly inside (0, 1)")
    log_w = np.log(arr) / p.beta
    w = np.exp(log_w)
    one_minus_w = -np.expm1(log_w)
    with np.errstate(over="ignore"):
        out = p.lam * np.sqrt(w * (2.0 - w)) / one_minus_w
    tiny = w == 0.0
    if np.any(tiny):
        # log w < -745 there, so the exponent below cannot overflow
        log_out = np.where(tiny, 0.5 * (log_w + math.log(2.0)) + math.log(p.lam), 0.0)
        out = np.where(tiny, np.exp(log_out), out)
    for bad, error, where in ((np.isinf(out), OverflowError, "exceeds the floating-point range"),
                              (out == 0.0, QuantileUnderflowError, "lies below the smallest positive float")):
        if np.any(bad):
            level = float(arr[bad][0])
            raise error(f"the ECR(beta={p.beta!r}, lambda={p.lam!r}) quantile at level {level!r} {where}")
    return out if out.ndim else float(out)


def median(p: Params) -> float:
    """Closed-form median: lam sqrt(2^((beta+1)/beta) - 1) / (2^(1/beta) - 1)."""
    root = 2.0 ** (1.0 / p.beta)
    return p.lam * math.sqrt(2.0 ** ((p.beta + 1.0) / p.beta) - 1.0) / (root - 1.0)


def sample_from(rng: np.random.Generator, count: int, p: Params) -> np.ndarray:
    """Inverse-transform draws using an existing generator."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    u = rng.random(count)
    np.clip(u, UNIFORM_CLIP, 1.0 - UNIFORM_CLIP, out=u)
    return quantile(u, p)


def sample(count: int, p: Params, seed: int) -> np.ndarray:
    """Deterministic inverse-transform sample of ``count`` draws."""
    return sample_from(np.random.default_rng(seed), count, p)


class ZeroLimitKind(Enum):
    INFINITE = "infinite"
    FINITE = "finite"
    ZERO = "zero"


@dataclass(frozen=True)
class PdfZeroLimit:
    """Limit of the density at the origin: infinite, finite, or zero."""

    kind: ZeroLimitKind
    value: float


def pdf_zero_limit(p: Params) -> PdfZeroLimit:
    """lim_{x->0+} f(x): infinite for beta < 1/2, sqrt(2)/(2 lam) at
    beta = 1/2, zero for beta > 1/2."""
    if p.beta < 0.5:
        return PdfZeroLimit(ZeroLimitKind.INFINITE, math.inf)
    if p.beta == 0.5:
        return PdfZeroLimit(ZeroLimitKind.FINITE, math.sqrt(2.0) / (2.0 * p.lam))
    return PdfZeroLimit(ZeroLimitKind.ZERO, 0.0)


def mode(p: Params) -> float | None:
    """Interior density maximum, or None when the density is non-modal.

    For beta > 1/2 the mode is
    lam/(2 sqrt(2)) * sqrt((beta+1)^2 + (beta-1) sqrt(beta^2+6 beta+17));
    for beta <= 1/2 the density has no interior maximum.
    """
    b = p.beta
    if b <= 0.5:
        return None
    inner = (b + 1.0) ** 2 + (b - 1.0) * math.sqrt(b * b + 6.0 * b + 17.0)
    return p.lam / (2.0 * math.sqrt(2.0)) * math.sqrt(inner)


def tail_ratio(c: float, x: float, p: Params) -> float:
    """sf(c x) / sf(x); tends to 1/c as x grows (regular variation, index 1)."""
    if c <= 0 or x <= 0:
        raise ValueError("c and x must be positive")
    return sf(c * x, p) / sf(x, p)


_CANCELLATION_TOL = 1e-6  # estimated relative error before refusing

# Sums of at least this many terms evaluate their 2F1 factors in one
# numpy block; below it the block's fixed cost outweighs the scalar calls.
_BLOCK_TERMS = 8


def _moment_sum(r: float, weights, shapes, label: str) -> float:
    """sum_k w_k B(1-r, r/2 + g_k) 2F1(-r/2, r/2+g_k; 1-r/2+g_k; 1/2).

    Tracks the gross term magnitude so alternating-sign cancellation is
    detected instead of silently eroding the result. A sum of at least
    ``_BLOCK_TERMS`` (8) terms evaluates all of its 2F1 factors in one
    block (:func:`ecrlab.specfun._gauss_2f1_lanes`), equal to the scalar
    series to the bit; each term's beta factor, and any error of either
    factor, still comes in term order. Narrower sums, such as the raw
    moment's single term, call :func:`ecrlab.specfun.gauss_2f1` per term,
    which is faster there than the block's fixed cost of about four
    scalar calls."""
    block = len(shapes) >= _BLOCK_TERMS
    if block:
        g = np.array(shapes, dtype=float)
        factors = _gauss_2f1_lanes(-r / 2.0, r / 2.0 + g, 1.0 - r / 2.0 + g, 0.5)
    total = 0.0
    gross = 0.0
    for k, (w, g) in enumerate(zip(weights, shapes)):
        beta = beta_fn(1.0 - r, r / 2.0 + g)
        if not block:
            factor = gauss_2f1(-r / 2.0, r / 2.0 + g, 1.0 - r / 2.0 + g, 0.5)
        elif isinstance(factors[k], ConvergenceError):
            raise factors[k]
        else:
            factor = factors[k][0]
        term = w * beta * factor
        total += term
        gross += abs(term)
    if gross * np.finfo(float).eps > _CANCELLATION_TOL * abs(total):
        raise LossOfPrecisionError(
            f"{label}: the alternating sum cancels {gross / max(abs(total), 1e-300):.1e}-fold,"
            " beyond double precision; integrate the density numerically instead"
        )
    return total


def pwm(s: int, r: float, t: int, p: Params) -> float:
    """Probability weighted moment E[X^r F(X)^s (1 - F(X))^t].

    Finite for -2(s+1) beta < r < 1; the indexes s and t must be
    non-negative integers (the finite binomial expansion behind the
    closed form requires integer t).
    """
    if not (isinstance(s, (int, np.integer)) and s >= 0):
        raise ValueError(f"s must be a non-negative integer, got {s!r}")
    if not (isinstance(t, (int, np.integer)) and t >= 0):
        raise ValueError(f"t must be a non-negative integer, got {t!r}")
    lower = -2.0 * (s + 1.0) * p.beta
    if not lower < r < 1.0:
        raise _window_error("probability weighted moment", r, lower, 1.0)
    weights = [(-1.0) ** i * math.comb(t, i) for i in range(t + 1)]
    shapes = [(s + i + 1.0) * p.beta for i in range(t + 1)]
    total = _moment_sum(r, weights, shapes, "probability weighted moment")
    return p.beta * (p.lam * math.sqrt(2.0)) ** r * total


def raw_moment(r: float, p: Params) -> float:
    """E(X^r) for -2 beta < r < 1.

    Closed form beta (lam sqrt(2))^r B(1-r, r/2+beta)
    2F1(-r/2, r/2+beta; 1-r/2+beta; 1/2). Scale family:
    E(X^r) = lam^r E(Z^r) with Z standard ECR.
    """
    lower = -2.0 * p.beta
    if not lower < r < 1.0:
        raise _window_error("raw moment", r, lower, 1.0)
    return p.beta * (p.lam * math.sqrt(2.0)) ** r * _moment_sum(r, [1.0], [p.beta], "raw moment")


def cr_moment(r: float, lam: float) -> float:
    """CR (beta = 1) moment: lam^r Gamma((1-r)/2) Gamma(1+r/2) / sqrt(pi), -2 < r < 1."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    if not -2.0 < r < 1.0:
        raise _window_error("CR moment", r, -2.0, 1.0)
    return lam**r * math.exp(
        log_gamma((1.0 - r) / 2.0) + log_gamma(1.0 + r / 2.0) - 0.5 * math.log(math.pi)
    )


def log_moment(p: Params) -> float:
    """E(log X) = log lam + Phi(1/2; 1, beta)/2 + psi(1+beta) + gamma - 1/beta."""
    return (
        math.log(p.lam)
        + 0.5 * lerch_phi_half(1.0, p.beta)
        + digamma(1.0 + p.beta)
        + EULER_GAMMA
        - 1.0 / p.beta
    )


def incomplete_moment(r: float, x0: float, p: Params, *, full_output: bool = False):
    """Lower incomplete moment int_0^x0 x^r f(x) dx for r > -2 beta.

    Closed form [beta 2^(r/2+1) lam^r u0^(beta+r/2) / (2 beta + r)]
    F1(r/2+beta; r, -r/2; r/2+beta+1; u0, u0/2) with
    u0 = 1 - lam/sqrt(x0^2+lam^2). Unlike the full moments, every order
    above the lower window is finite because the domain is bounded.
    ``full_output=True`` returns ``(value, rows)``, where ``rows`` is the
    number of Appell series rows summed, 0 where F1 was integrated by
    quadrature (see :func:`ecrlab.specfun.appell_f1`).
    """
    if not 0.0 < x0 < math.inf:
        raise ValueError(f"x0 must be positive and finite, got {x0!r}")
    lower = -2.0 * p.beta
    if r <= lower:
        raise _window_error("incomplete moment", r, lower, math.inf)
    # u0 as in _hypot and _u, on Python floats; it depends on x0/lam only
    lam = p.lam
    s0 = math.hypot(lam, x0)
    if math.isinf(s0):
        x0, lam = x0 / 2.0, lam / 2.0
        s0 = math.hypot(lam, x0)
    if math.isinf(s0 + lam):
        u0 = (x0 / s0) * ((x0 / s0) / (1.0 + lam / s0))
    else:
        u0 = (x0 / s0) * (x0 / (s0 + lam))
    if u0 == 1.0:
        raise LossOfPrecisionError(
            f"incomplete moment: u0 = 1 - lambda/hypot(lambda, x0) rounds to 1 at x0/lambda = {x0 / lam:g}"
        )
    value, rows = appell_f1(r / 2.0 + p.beta, r, -r / 2.0, r / 2.0 + p.beta + 1.0, u0, u0 / 2.0,
                            full_output=True)
    moment = p.beta * 2.0 ** (r / 2.0 + 1.0) * p.lam**r * u0 ** (p.beta + r / 2.0) / (2.0 * p.beta + r) * value
    return (moment, rows) if full_output else moment


def order_stat_moment(i: int, n: int, r: float, p: Params) -> float:
    """E(X_{i:n}^r) for the i-th order statistic of an n-sample, -2 i beta < r < 1.

    The closed form is a binomial sum over j = 0..n-i with alternating
    signs; wide ranges (n - i beyond roughly 25) cancel catastrophically
    and raise :class:`LossOfPrecisionError` instead of returning noise.
    Its normalizer 1/B(i, n-i+1) is the exact integer i C(n, i).
    """
    if not (isinstance(i, (int, np.integer)) and isinstance(n, (int, np.integer)) and 1 <= i <= n):
        raise ValueError(f"rank out of range: need 1 <= i <= n, got i={i!r}, n={n!r}")
    lower = -2.0 * i * p.beta
    if not lower < r < 1.0:
        raise _window_error("order statistic moment", r, lower, 1.0)
    weights = [(-1.0) ** j * math.comb(n - i, j) for j in range(n - i + 1)]
    shapes = [(i + j) * p.beta for j in range(n - i + 1)]
    total = _moment_sum(r, weights, shapes, "order statistic moment")
    return p.beta * (p.lam * math.sqrt(2.0)) ** r * (int(i) * math.comb(n, i)) * total
