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

from .errors import EcrlabError, FloatRangeError, InputError, _count, _positive
from .specfun import (
    EULER_GAMMA,
    ConvergenceError,
    _binomial_product_sum,
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
        object.__setattr__(self, "beta", _positive("beta", self.beta))
        object.__setattr__(self, "lam", _positive("lam", self.lam))


class MomentExistenceError(EcrlabError, ValueError):
    """The requested moment is infinite or undefined for these parameters."""

    def __init__(self, message: str, lower: float, upper: float):
        super().__init__(message)
        self.window = (lower, upper)


class LossOfPrecisionError(EcrlabError, ArithmeticError):
    """An alternating closed-form sum cancelled away its precision.

    The binomial sums behind the probability weighted and
    order-statistic moments alternate in sign; once the index range is
    wide (roughly t or n - i beyond 25) the largest term exceeds the
    result by enough orders of magnitude that double precision cannot
    back the digits, and the evaluation refuses rather than returning
    noise. The incomplete moment raises it where u0 = 1 - lam/s0 rounds
    to 1, which its closed form cannot take, and every moment where its
    scale factor or value leaves the floating-point range."""


class QuantileUnderflowError(EcrlabError, ArithmeticError):
    """The quantile is positive but below the smallest positive float."""


def _check_window(kind: str, r: float, lower: float, upper: float) -> None:
    """Raise unless the moment order r lies in its existence window
    lower < r < upper. A NaN order is bad input, not a window error: each
    comparison with NaN is False."""
    if math.isnan(r):
        raise InputError(f"moment order r must be a number, got {r!r}")
    if lower < r < upper:
        return
    if r < upper:
        detail = f"moment does not exist for r <= {lower:g}"
    elif math.isinf(upper):
        detail = "the order must be finite"
    else:
        detail = f"moment does not exist for r >= {upper:g} (tail index 1)"
    raise MomentExistenceError(
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
        raise InputError(f"{name} must be {bound} and finite")
    return arr


def _hypot(lam, x):
    """Return (lam, x, s, k) with s = hypot(lam, x) and k = 1.

    Where hypot(lam, x) overflows, near the top of the floating-point
    range, lam and x come back halved, s is their hypot and k is 2: k s
    is the true sqrt(lam^2 + x^2), and every ratio of lam, x and s is
    unchanged. Elsewhere nothing changes.
    """
    with np.errstate(over="raise"):
        try:
            return lam, x, np.hypot(lam, x), 1.0
        except FloatingPointError:
            pass
    with np.errstate(over="ignore"):
        k = np.where(np.isinf(np.hypot(lam, x)), 2.0, 1.0)
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


def _log_pass(lam, x, two_log_x):
    """s, k, log(k s) and log u at scale ``lam``, from x and 2 log x.

    ``lam`` is a scale or a column of scales; s = hypot(lam, x) and k
    come from :func:`_hypot`, so k s is the true sqrt(lam^2 + x^2). Where
    k is 2, 2 log x is formed again from the halved x, and log 2 is added
    back to log s.

    Below the scale the rationalized form log u = log(x^2) - log(s) -
    log(s+lam) avoids the 1 - lam/s cancellation; above it log1p(-lam/s)
    keeps resolution all the way down to lam/s ~ 1e-300. Where s + lam
    overflows, near the top of the floating-point range, log(s+lam) is
    taken as log(s) + log1p(lam/s) instead, at those elements only, so
    an element's value does not depend on its neighbours.
    """
    lam_k, x_k, s, k = _hypot(lam, x)
    log_s = log_ks = np.log(s)
    with np.errstate(divide="ignore", invalid="ignore", over="raise"):
        if x_k is not x:
            two_log_x = 2.0 * np.log(x_k)
            log_ks = log_s + np.log(k)
        try:
            log_s_lam = np.log(s + lam_k)
        except FloatingPointError:
            with np.errstate(over="ignore"):
                s_lam = s + lam_k
            log_s_lam = np.where(np.isinf(s_lam), log_s + np.log1p(lam_k / s), np.log(s_lam))
        rational = two_log_x - log_s - log_s_lam
        direct = np.log1p(-lam_k / s)
    return s, k, log_ks, np.where(x_k < lam_k, rational, direct)


def cdf(x, p: Params):
    """F(x) = (1 - lam/sqrt(lam^2+x^2))^beta for x >= 0."""
    arr = _as_positive_array("x", x, allow_zero=True)
    lam, arr, s, _ = _hypot(p.lam, arr)
    out = _u(arr, lam, s) ** p.beta
    return out if out.ndim else float(out)


def sf(x, p: Params):
    """Survival function 1 - F(x), evaluated without tail cancellation."""
    arr = _as_positive_array("x", x, allow_zero=True)
    with np.errstate(divide="ignore"):
        two_log_x = 2.0 * np.log(arr)  # -inf at x = 0, where log u = -inf and sf = 1
    out = -np.expm1(p.beta * _log_pass(p.lam, arr, two_log_x)[3])
    return out if out.ndim else float(out)


def pdf(x, p: Params):
    """f(x) = beta lam x (lam^2+x^2)^(-3/2) (1 - lam/sqrt(lam^2+x^2))^(beta-1).

    Where u underflows to 0 (x below about 1e-154 lam), u^(beta-1) is 0
    or inf; at those elements only, f is exp(:func:`log_pdf`). A density
    beyond the floating-point range is inf. The density is undefined at
    x = 0; see :func:`pdf_zero_limit` for the limiting behavior there.
    """
    arr = _as_positive_array("x", x)
    lam, x_k, s, k = _hypot(p.lam, arr)
    u = _u(x_k, lam, s)
    with np.errstate(all="ignore"):  # 0^(beta-1) and 0 * inf where u = 0; inf beyond the range
        out = p.beta * (lam / s) * (x_k / s) / s / k * u ** (p.beta - 1.0)
        if p.beta != 1.0 and np.any(u == 0.0):
            out = np.where(u == 0.0, np.exp(log_pdf(arr, p)), out)
    return out if out.ndim else float(out)


def log_pdf(x, p: Params):
    """log f(x), stable over the whole positive axis."""
    arr = _as_positive_array("x", x)
    log_x = np.log(arr)
    _, _, log_ks, log_u = _log_pass(p.lam, arr, 2.0 * log_x)
    beta_lam = p.beta * p.lam
    log_beta_lam = math.log(beta_lam) if 0.0 < beta_lam < math.inf else math.log(p.beta) + math.log(p.lam)
    out = log_beta_lam + log_x - 3.0 * log_ks + (p.beta - 1.0) * log_u
    return out if out.ndim else float(out)


def hrf(x, p: Params):
    """Hazard rate f(x) / (1 - F(x)).

    Above the scale f = beta v w u^(beta-1), with v = lam/s and
    w = x/s^2, and 1 - F = beta v (1 + O(v)). Where f or 1 - F falls below
    the normal floating-point range there, the rate is formed as
    w u^(beta-1) (beta v / (1 - F)), the last factor taken as 1 where
    1 - F itself is below that range, so nothing underflows on the way.
    """
    arr = _as_positive_array("x", x)
    f, surv = pdf(arr, p), sf(arr, p)
    tiny = np.finfo(float).tiny
    with np.errstate(all="ignore"):
        out = np.divide(f, surv)  # float / 0.0 would raise for a scalar
        tail = (arr > p.lam) & ((f < tiny) | (surv < tiny))
        if np.any(tail):
            lam, x_k, s, k = _hypot(p.lam, arr)
            ratio = np.where(surv < tiny, 1.0, p.beta * (lam / s) / surv)
            out = np.where(tail, (x_k / s) / s / k * _u(x_k, lam, s) ** (p.beta - 1.0) * ratio, out)
    return out if out.ndim else float(out)


def quantile(q, p: Params):
    """Q(q) = lam sqrt(2 w - w^2) / (1 - w) with w = q^(1/beta), 0 < q < 1.

    Where w underflows to 0, Q = lam sqrt(2 w) to double precision and is
    formed in log space, exp((log w + log 2)/2 + log lam). Raises
    FloatRangeError where the quantile lies beyond the floating-point range
    and QuantileUnderflowError where it lies below the smallest positive
    float.
    """
    arr = np.asarray(q, dtype=float)
    if np.any((arr <= 0.0) | (arr >= 1.0) | ~np.isfinite(arr)):
        raise InputError("quantile level must lie strictly inside (0, 1)")
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
    for bad, error, where in ((np.isinf(out), FloatRangeError, "exceeds the floating-point range"),
                              (out == 0.0, QuantileUnderflowError, "lies below the smallest positive float")):
        if np.any(bad):
            level = float(arr[bad][0])
            raise error(f"the ECR(beta={p.beta!r}, lambda={p.lam!r}) quantile at level {level!r} {where}")
    return out if out.ndim else float(out)


def median(p: Params) -> float:
    """The quantile at 1/2, lam sqrt(2^((beta+1)/beta) - 1) / (2^(1/beta) - 1)."""
    return quantile(0.5, p)


def sample_from(rng: np.random.Generator, count: int, p: Params) -> np.ndarray:
    """Inverse-transform draws using an existing generator."""
    u = rng.random(_count("count", count, 1))
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
    c, x = _positive("c", c), _positive("x", x)
    return sf(c * x, p) / sf(x, p)


_CANCELLATION_TOL = 1e-6  # estimated relative error before refusing
_EPS = float(np.finfo(float).eps)

# Sums of at least this many terms evaluate their 2F1 factors in one
# numpy block; below it the block's fixed cost outweighs the scalar calls.
# Timed through pwm on a 2-core Xeon (two runs), the block took 0.56-0.91
# of the scalar calls' time at 4-7 terms, about as long at 3, and 1.4-3.5
# times as long at 1-2.
_BLOCK_TERMS = 4


def _moment_sum(r: float, weights, shapes, label: str) -> float:
    """sum_k w_k B(1-r, r/2 + g_k) 2F1(-r/2, r/2+g_k; 1-r/2+g_k; 1/2).

    Tracks the gross term magnitude so alternating-sign cancellation is
    detected instead of silently eroding the result. A beta factor
    B(a, b) = exp(lnGamma(a) + lnGamma(b) - lnGamma(a+b)) carries a
    relative error of about eps (|lnGamma(a)| + |lnGamma(b)| +
    |lnGamma(a+b)|); the sum refuses where that estimate, taken at its
    largest shape, exceeds ``_CANCELLATION_TOL``: from g of about 1.3e8
    on. A sum of at least
    ``_BLOCK_TERMS`` (4) terms evaluates all of its 2F1 factors as the
    lanes of one block of specfun's series engine
    (:func:`ecrlab.specfun._gauss_2f1_lanes`), equal to the scalar series
    to the bit; each term's beta factor, and any error of either factor,
    still comes in term order. Narrower sums, such as the raw
    moment's single term, call :func:`ecrlab.specfun.gauss_2f1` per term,
    which is faster there than the block's fixed cost."""
    a, b = 1.0 - r, r / 2.0 + shapes[-1]
    rounding = _EPS * (abs(log_gamma(a)) + abs(log_gamma(b)) + abs(log_gamma(a + b)))
    if rounding > _CANCELLATION_TOL:
        raise LossOfPrecisionError(
            f"{label}: the log-gammas of the beta factor B({a:g}, {b:g}) leave it a relative error of about"
            f" {rounding:.1e}, beyond double precision"
        )
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
    if gross * _EPS > _CANCELLATION_TOL * abs(total):
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
    return _pwm_sum("probability weighted moment", _count("s", s, 0), _count("t", t, 0), r, p)


def _pwm_sum(label: str, s: int, t: int, r: float, p: Params, count: int = 1) -> float:
    """count E[X^r F(X)^s (1 - F(X))^t] for -2(s+1) beta < r < 1.

    The closed form is beta (lam sqrt(2))^r count sum_i (-1)^i C(t, i)
    B(1-r, r/2 + g_i) 2F1(-r/2, r/2 + g_i; 1-r/2 + g_i; 1/2) with
    g_i = (s + i + 1) beta, its factors multiplied left to right; the raw
    and order-statistic moments are its cases. A binomial weight or
    ``count`` beyond the float range, a power that overflows, or a value
    that is not finite raises :class:`LossOfPrecisionError` naming
    ``label``. The indexes are Python ints, so that every term, and the
    result, is a float whichever way the 2F1 factors are summed."""
    _check_window(label, r, -2.0 * (s + 1.0) * p.beta, 1.0)
    weights, shapes = [], []
    try:
        count = float(count)
        for i in range(t + 1):  # a loop, not comprehensions: cheaper for the raw moment's one term
            weights.append((-1.0) ** i * math.comb(t, i))
            shapes.append((s + i + 1.0) * p.beta)
    except OverflowError:  # an int beyond the float range
        raise LossOfPrecisionError(
            f"{label}: a binomial weight of the closed form (s = {s}, t = {t}) leaves the floating-point range"
        ) from None
    total = _moment_sum(r, weights, shapes, label)
    try:
        power = (p.lam * math.sqrt(2.0)) ** r
    except OverflowError:
        raise LossOfPrecisionError(
            f"{label}: (lambda sqrt 2)^r overflows at lambda = {p.lam:g}, r = {r:g}"
        ) from None
    value = p.beta * power * count * total
    if not math.isfinite(value):
        raise LossOfPrecisionError(
            f"{label}: the closed form evaluates to {value} at beta = {p.beta:g}, lambda = {p.lam:g},"
            f" r = {r:g}; its factors leave the floating-point range"
        )
    return value


def raw_moment(r: float, p: Params) -> float:
    """E(X^r) for -2 beta < r < 1.

    Closed form beta (lam sqrt(2))^r B(1-r, r/2+beta)
    2F1(-r/2, r/2+beta; 1-r/2+beta; 1/2). Scale family:
    E(X^r) = lam^r E(Z^r) with Z standard ECR. It is the probability
    weighted moment with s = t = 0.
    """
    return _pwm_sum("raw moment", 0, 0, r, p)


def cr_moment(r: float, lam: float) -> float:
    """CR (beta = 1) moment: lam^r Gamma((1-r)/2) Gamma(1+r/2) / sqrt(pi), -2 < r < 1."""
    lam = _positive("lam", lam)
    _check_window("CR moment", r, -2.0, 1.0)
    try:
        value = lam**r * math.exp(log_gamma((1.0 - r) / 2.0) + log_gamma(1.0 + r / 2.0) - 0.5 * math.log(math.pi))
    except OverflowError:  # lam^r overflows
        value = math.inf
    if math.isinf(value):
        raise LossOfPrecisionError(f"CR moment: the closed form leaves the floating-point range at lambda = {lam:g},"
                                   f" r = {r:g}")
    return value


def log_moment(p: Params) -> float:
    """E(log X) = log lam + Phi(1/2; 1, beta)/2 + psi(1+beta) + gamma - 1/beta."""
    return (
        math.log(p.lam)
        + 0.5 * lerch_phi_half(1.0, p.beta)
        + digamma(1.0 + p.beta)
        + EULER_GAMMA
        - 1.0 / p.beta
    )


# incomplete_moment sums its two series in v where v0 < 0.4, beta <= 5 and
# r <= 10. Both series' coefficients alternate, losing about 3^(beta - 1)
# (5/3)^(r/2) units of rounding, most near v0 = 1/2: within 5e-15 of
# 50-digit references inside these limits, but 3.6e-14 at beta 8, r 0.2
# and 1.1e-12 at beta 5, r 14 (tests/test_moment_references.py). The
# series would serve up to v0 = 1/2; from 0.4 (x0 = 2.29 lam) on, the
# Appell series keeps the evaluation at x0 = 2 lam, the benchmark's
# traced reference point for specfun.appell_f1.
_V_SERIES_MAX_V0 = 0.4
_V_SERIES_MAX_BETA = 5.0
_V_SERIES_MAX_ORDER = 10.0


def _incomplete_in_v(r: float, v0: float, beta: float) -> tuple[float, int]:
    """W + V(v0) of :func:`incomplete_moment` and the two series' terms.

    W = 2^-beta sum_k h_k 2^-k / (a + k), a = beta + r/2, with h_k the
    coefficients of (1 - w)^-r (1 - w/2)^(r/2): the integral over
    v = 1 - w in [1/2, 1]. V = sum_k g_k (2^-e - v0^e)/e, e = k + 1 - r,
    with g_k the coefficients of (1 - v)^(beta - 1 + r/2) (1 + v)^(r/2):
    the integral over [v0, 1/2]. Each V factor is taken as
    max(2^-e, v0^e) (1 - (2 v0)^|e|)/|e|, by expm1 and with no
    difference of powers, and as log(1/(2 v0)) at e = 0.
    """
    a = beta + r / 2.0
    log_ratio = -math.log(2.0 * v0) if v0 > 0.0 else math.inf  # log(1/(2 v0)) > 0

    def v_weights(k):
        e = k + (1.0 - r)
        size = np.abs(e)
        out = np.maximum(np.exp2(-e), np.power(v0, e))
        out *= np.expm1(-log_ratio * size)
        out /= -size
        out[e == 0.0] = log_ratio
        return out

    with np.errstate(all="ignore"):
        w, w_terms = _binomial_product_sum(-r, r / 2.0, 0.5, lambda k: np.exp2(-k) / (a + k))
        v, v_terms = _binomial_product_sum(beta - 1.0 + r / 2.0, r / 2.0, -1.0, v_weights)
    return 2.0**-beta * w + v, w_terms + v_terms


def incomplete_moment(r: float, x0: float, p: Params, *, full_output: bool = False):
    """Lower incomplete moment int_0^x0 x^r f(x) dx for r > -2 beta.

    Unlike the full moments, every order above the lower window is finite
    because the domain is bounded. In v = lam/s, s = hypot(lam, x), the
    moment is

        M(x0) = beta lam^r int_{v0}^1 v^-r (1-v)^(beta-1+r/2) (1+v)^(r/2) dv,

    with v0 = lam/hypot(lam, x0), formed without cancellation. Where
    v0 < 0.4 (x0 > 2.29 lam), beta <= 5 and r <= 10, M = beta lam^r
    [W + V(v0)] from two convergent series, over [1/2, 1] and over
    [v0, 1/2] (see :func:`_incomplete_in_v`), at every x0 up to the float
    range.
    Elsewhere it is the closed form [beta 2^(r/2+1) lam^r u0^(beta+r/2) /
    (2 beta + r)] F1(r/2+beta; r, -r/2; r/2+beta+1; u0, u0/2) with
    u0 = 1 - v0, whose F1 is integrated by quadrature above u0 = 0.95
    (see :func:`ecrlab.specfun.appell_f1`). ``full_output=True`` returns
    ``(value, terms, path)``: the two series' terms and "v_series", the
    Appell series rows summed and "appell_series", or 0 and
    "quadrature". A value that is not positive, which the
    Appell path can give at large beta and very negative r, or 0 where
    the moment underflows, raises :class:`LossOfPrecisionError`, as does
    an F1 whose r/2 + beta + 1 is not a float, from 2^53 on.
    """
    x0 = _positive("x0", x0)
    _check_window("incomplete moment", r, -2.0 * p.beta, math.inf)
    # v0 and u0 as in _hypot and _u; they depend on x0/lam only
    lam, s0 = p.lam, math.hypot(p.lam, x0)
    if math.isinf(s0):
        lam, x0 = lam / 2.0, x0 / 2.0
        s0 = math.hypot(lam, x0)
    v0 = lam / s0
    if v0 < _V_SERIES_MAX_V0 and p.beta <= _V_SERIES_MAX_BETA and r <= _V_SERIES_MAX_ORDER:
        path = "v_series"
        total, terms = _incomplete_in_v(r, v0, p.beta)
        try:
            moment = p.beta * p.lam**r * total
        except OverflowError:  # lam^r overflows
            moment = math.inf
    else:
        if math.isinf(s0 + lam):
            u0 = (x0 / s0) * ((x0 / s0) / (1.0 + lam / s0))
        else:
            u0 = (x0 / s0) * (x0 / (s0 + lam))
        if u0 == 1.0:
            raise LossOfPrecisionError(
                f"incomplete moment: u0 = 1 - lambda/hypot(lambda, x0) rounds to 1 at x0/lambda = {x0 / lam:g}"
            )
        a = r / 2.0 + p.beta
        if a >= 2.0**53:  # F1's c = a + 1 is not a float: it rounds to a or a + 2
            raise LossOfPrecisionError(
                f"incomplete moment: the shape beta = {p.beta:g} puts a = r/2 + beta = {a:g} beyond 2^53,"
                " where the Appell F1's c = a + 1 is not a float"
            )
        value, terms = appell_f1(a, r, -r / 2.0, a + 1.0, u0, u0 / 2.0, full_output=True)
        path = "appell_series" if terms else "quadrature"
        try:
            moment = p.beta * 2.0 ** (r / 2.0 + 1.0) * p.lam**r * u0 ** (p.beta + r / 2.0) / (2.0 * p.beta + r) * value
        except OverflowError:  # a power overflows
            moment = math.inf
    if not math.isfinite(moment):
        raise LossOfPrecisionError(
            f"incomplete moment: the closed form's factors leave the floating-point range at beta = {p.beta:g},"
            f" lambda = {p.lam:g}, r = {r:g}"
        )
    if moment <= 0.0:  # the integrand is positive
        raise LossOfPrecisionError(
            f"incomplete moment: the evaluation gives {moment:g}, but the moment is positive: precision is lost,"
            f" or the value lies below the floating-point range, at beta = {p.beta:g}, lambda = {p.lam:g}, r = {r:g}"
        )
    return (moment, terms, path) if full_output else moment


def order_stat_moment(i: int, n: int, r: float, p: Params) -> float:
    """E(X_{i:n}^r) for the i-th order statistic of an n-sample, -2 i beta < r < 1.

    The closed form is a binomial sum over j = 0..n-i with alternating
    signs; wide ranges (n - i beyond roughly 25) cancel catastrophically
    and raise :class:`LossOfPrecisionError` instead of returning noise.
    X_{i:n} has density i C(n, i) f F^(i-1) (1-F)^(n-i), so the moment
    is i C(n, i) times the probability weighted moment with s = i - 1,
    t = n - i; its normalizer 1/B(i, n-i+1) is the exact integer i C(n, i).
    """
    i = _count("i", i, 1)
    n = _count("n", n, i)  # 1 <= i <= n
    return _pwm_sum("order statistic moment", i - 1, n - i, r, p, i * math.comb(n, i))
