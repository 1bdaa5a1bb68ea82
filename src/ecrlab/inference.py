"""Estimation for the ECR model: maximum likelihood, Cox-Snell
bias-corrected maximum likelihood, and the percentile-based estimator,
plus the expected-information stack those corrections are built from.

The likelihood factorizes through the kernel u_i = 1 - lam/s_i with
s_i = sqrt(lam^2 + x_i^2):

    l(beta, lam) = n log(beta lam) + sum log x_i - 3 sum log s_i
                   + (beta - 1) sum log u_i

For fixed lam the shape score vanishes at beta(lam) = -n / sum log u_i,
so fitting reduces to a one-dimensional search over the scale: one grid
pass gives the profile log-likelihood and the profile score at every
grid scale, and Brent's method finds the score's root in every grid
cell where it falls from + to -. Every pass of one fit goes through a
per-sample kernel object that holds log x and its sum.

Every scalar root in the package, here and in :mod:`ecrlab.gof`, goes
through one finder, :func:`_brent_root`: Brent's method in plain Python
floats, step for step scipy's brentq without importing it.

The percentile estimator evaluates through a per-sample object too. It
scans a fixed 241-point shape grid for sign changes of its root
function and runs Brent's method in each cell with one; a grid without
a sign change is a fit error, and its iteration count is the 241 grid
points plus Brent's calls. The grid's data-free factors depend only on
the sample size; for up to four sizes of n <= 543 two (241, n) factor
matrices are memoized (about 2 MB per size), so repeated fits at one
size, as in a simulation cell, pay only for two matrix-vector products.
A grid value within its rounding bound of zero is recomputed by the
exact path, so the grid's signs are the exact path's.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .data import Dataset
from .ecr import Params, _log_pass
from .errors import EcrlabError, InputError, _count, _positive

__all__ = [
    "FitResult",
    "FitError",
    "InfoMatrix",
    "ThirdCumulants",
    "FisherDerivatives",
    "log_likelihood",
    "score",
    "profile_beta",
    "profile_log_likelihood",
    "profile_score",
    "fit_ml",
    "fit_cr",
    "fit_cs_ml",
    "fit_pb",
    "fisher_info",
    "fisher_info_inverse",
    "asymptotic_std_errors",
    "fisher_derivatives",
    "third_cumulants",
    "cox_snell_bias",
    "cox_snell_bias_generic",
    "bias_known_lambda",
    "bias_known_beta",
    "cr_bias",
    "cs_correctable",
    "confidence_intervals",
    "lr_test_cr",
    "pb_objective",
    "pb_gradient",
]

_MAX_ITER = 200
_STEP_TOL = 1e-12  # relative bracket width below which iteration stops
# Grid passes broadcast a column of parameter values against the sample
# in row blocks of about this many elements. At small n one block holds
# the whole grid, so numpy's per-call overhead (the whole cost there) is
# paid once; at large n a block is one row, so the temporaries stay as
# small as a scalar evaluation's instead of growing to (grid, n) arrays of
# tens of MB, which would also run slower.
_BLOCK_ELEMENTS = 2**13
# Above this shape fisher_info_inverse's beta^7 leaves the floating-point
# range (and above 5.6e102 its beta^3 raises OverflowError).
_MAX_SHAPE = 1e44


class FitError(EcrlabError, RuntimeError):
    """Estimation failed; ``best`` carries the best fit seen, if any."""

    def __init__(self, message: str, best: "FitResult | None" = None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class FitResult:
    """Point estimates plus fit diagnostics.

    ``method`` is one of "ml", "csml", "pb". ``std_errors`` comes from
    the inverse expected information (None for the percentile method,
    which has no published asymptotic covariance, and for an ML fit whose
    errors leave the floating-point range). For "csml",
    ``bias_applied`` holds the subtracted second-order bias and
    ``params`` equals the ML estimate minus that bias. ``correctable``
    is False only when a requested Cox-Snell correction would have left
    the parameter space, in which case the plain ML fit is carried.
    ``iterations`` counts objective and score evaluations over all
    phases: for ML the grid points, the finer grids' points where they
    are used, and Brent's score evaluations over all its brackets (csml
    carries its ML fit's count); for the CR submodel Brent's evaluations;
    for "pb" the 241 grid points and Brent's calls.
    """

    params: Params
    std_errors: tuple[float, float] | None
    loglik: float
    method: str
    iterations: int
    converged: bool
    n: int
    bias_applied: tuple[float, float] | None = None
    correctable: bool = True


# ---------------------------------------------------------------------------
# Likelihood pieces


class _Kernel:
    """Per-sample pieces of the likelihood kernel, built once per fit.

    log x, 2 log x and sum log x are computed here once; each method then
    makes one pass over the sample at scale ``lam``, the pass
    :func:`ecrlab.ecr._log_pass` behind ``sf`` and ``log_pdf`` (hypot once,
    with log u derived from the same s and log s), and returns only the
    sums its caller needs. Values equal the point-by-point public
    functions to the bit: the same numpy operations run in the same order.

    Where hypot(lam, x) overflows, near the top of the floating-point
    range, the pass takes lam and x halved at those elements only, adds
    log 2 back to their log s and returns their s halved with k = 2, so
    that k s is the true s; elsewhere nothing changes.

    The last scalar pass is kept, keyed by its scale, so that the profile
    and the fit at a root Brent's method has just scored reuse its final
    pass instead of making two more.
    """

    def __init__(self, x: np.ndarray):
        log_x = np.log(x)
        self.x = x
        self.n = x.size
        self.two_log_x = 2.0 * log_x
        self.sum_log_x = float(log_x.sum())
        self._scanned = (None, None)  # (lam, scan at lam) of the last pass

    def scan(self, lam: float):
        """s, k, log s and the unchecked sum log u at ``lam``; a call at the
        previous call's scale returns that call's pass and makes none."""
        if lam != self._scanned[0]:
            s, k, log_s, log_u = _log_pass(lam, self.x, self.two_log_x)
            self._scanned = lam, (s, k, log_s, float(log_u.sum()))
        return self._scanned[1]

    def log_sums(self, lam: float) -> tuple[float, float]:
        """(sum log s, sum log u) at ``lam``."""
        _, _, log_s, sum_log_u = self.scan(lam)
        return float(log_s.sum()), _checked_sum_log_u(lam, sum_log_u)

    def profile(self, lam: float) -> float:
        """:func:`profile_log_likelihood` at ``lam``."""
        return _profile_from_sums(self.n, lam, self.sum_log_x, *self.log_sums(lam))

    def profile_grid(self, grid: np.ndarray) -> tuple[list[float], list[float]]:
        """:meth:`profile` and :meth:`score` at every scale of ``grid``, to
        the bit, from one broadcast pass per row block."""
        values, scores = [], []
        for col in _row_blocks(grid, self.n):
            s, k, log_s, log_u = _log_pass(col, self.x, self.two_log_x)
            sums_log_s = log_s.sum(axis=1).tolist()
            sums_log_u = log_u.sum(axis=1)
            for lam, sum_log_s, sum_log_u in zip(col[:, 0].tolist(), sums_log_s, sums_log_u.tolist()):
                sum_log_u = _checked_sum_log_u(lam, sum_log_u)
                values.append(_profile_from_sums(self.n, lam, self.sum_log_x, sum_log_s, sum_log_u))
            # where lam nears 1e-308, n/lam overflows: the score is inf or NaN there, as in :meth:`score`
            with np.errstate(over="ignore", invalid="ignore"):
                scores += _scale_score(self.n, col[:, 0], -self.n / sums_log_u, *_inverse_sums(col, s, k)).tolist()
        return values, scores

    def score(self, lam: float) -> float:
        """:func:`profile_score` at ``lam``."""
        s, k, _, sum_log_u = self.scan(lam)
        beta = -self.n / _checked_sum_log_u(lam, sum_log_u)
        return _scale_score(self.n, lam, beta, *map(float, _inverse_sums(lam, s, k)))


def _scale_score(n: int, lam, beta, sum_inv_s, lam_sum_inv_s2):
    """d/dlam of the log-likelihood from its sums, at one point or
    elementwise; at beta(lam) it is the profile score."""
    return n / lam + (1.0 - beta) * sum_inv_s - (beta + 2.0) * lam_sum_inv_s2


def _inverse_sums(lam, s: np.ndarray, k):
    """(sum 1/t, lam * sum 1/t^2) over the last axis of t = k s, the true
    s of a kernel pass, the latter as sum (lam/t)(1/t) so that t^2 is
    never formed: it would overflow for data near 1e160 and underflow to
    zero near 1e-200."""
    inv_s = 1.0 / k / s
    return inv_s.sum(axis=-1), (lam * inv_s * inv_s).sum(axis=-1)


def _checked_sum_log_u(lam: float, sum_log_u: float) -> float:
    """sum log u is strictly negative for positive data; it can underflow
    to zero only when lam is many orders of magnitude below every
    observation, which the fitters never probe."""
    if sum_log_u >= 0.0:
        raise FitError(f"scale {lam!r} is too small relative to the data")
    return sum_log_u


def log_likelihood(data: Dataset, p: Params) -> float:
    """The log-likelihood, on the sample in its :attr:`Dataset.exact_units`."""
    units, e = data.exact_units
    kernel = _Kernel(units)
    lam = math.ldexp(p.lam, -e)
    sum_log_s, sum_log_u = kernel.log_sums(lam)
    return _log_likelihood_from_sums(kernel, p.beta, lam, e, sum_log_s, sum_log_u)


def _log_likelihood_from_sums(kernel: _Kernel, beta: float, lam: float, e: int, sum_log_s: float,
                              sum_log_u: float) -> float:
    """The log-likelihood at (beta, lam 2^e) from a kernel's sums at lam in units of 2^e."""
    return (
        kernel.n * math.log(beta * lam)
        + kernel.sum_log_x
        - 3.0 * sum_log_s
        + (beta - 1.0) * sum_log_u
        - kernel.n * e * math.log(2.0)
    )


def score(data: Dataset, p: Params) -> tuple[float, float]:
    """Analytic gradient of the log-likelihood, (d/dbeta, d/dlam)."""
    n = data.n
    s, k, _, sum_log_u = _Kernel(data.values).scan(p.lam)
    d_beta = n / p.beta + _checked_sum_log_u(p.lam, sum_log_u)
    return d_beta, _scale_score(n, p.lam, p.beta, *map(float, _inverse_sums(p.lam, s, k)))


def profile_beta(data: Dataset, lam: float) -> float:
    """Exact shape estimate at fixed scale: beta(lam) = -n / sum log u_i."""
    _, sum_log_u = _Kernel(data.values).log_sums(lam)
    return -data.n / sum_log_u


def profile_log_likelihood(data: Dataset, lam: float) -> float:
    return _Kernel(data.values).profile(lam)


def _profile_from_sums(n: int, lam: float, sum_log_x: float, sum_log_s: float,
                       sum_log_u: float) -> float:
    # beta(lam) * lam can leave the floating-point range near its ends
    # while its log does not
    ratio = -n * lam / sum_log_u
    log_ratio = (math.log(ratio) if 0.0 < ratio < math.inf
                 else math.log(n) + math.log(lam) - math.log(-sum_log_u))
    return n * (log_ratio - 1.0) + sum_log_x - 3.0 * sum_log_s - sum_log_u


def _row_blocks(values: np.ndarray, n: int):
    """Yield ``values`` as (k, 1) columns of at most _BLOCK_ELEMENTS // n rows."""
    rows = max(1, _BLOCK_ELEMENTS // n)
    for start in range(0, values.size, rows):
        yield values[start : start + rows, None]


def profile_score(data: Dataset, lam: float) -> float:
    """d/dlam of the profile log-likelihood."""
    return _Kernel(data.values).score(lam)


# ---------------------------------------------------------------------------
# Maximum likelihood


def _brent_root(f, lo: float, hi: float, log_scale: bool = False) -> tuple[float, int, bool]:
    """Root of ``f`` on the sign bracket [lo, hi] by Brent's method (Brent,
    1973, *Algorithms for Minimization without Derivatives*, ch. 4), step
    for step scipy's brentq: a secant or inverse quadratic step where it
    falls well inside the bracket, else bisection.

    Stops once the bracket is within _STEP_TOL of the root, relatively:
    the absolute tolerance is scaled to the bracket so the result is
    scale-equivariant; on a bracket in log scale it is _STEP_TOL itself.
    Returns (root, function calls, converged); after _MAX_ITER steps it
    returns the best point so far, unconverged. Python floats throughout, so
    no numpy warning escapes; a NaN raises FitError, ends of one sign InputError.
    """
    lo, hi = float(lo), float(hi)
    xtol, rtol = (_STEP_TOL, 4.0 * sys.float_info.epsilon) if log_scale else (_STEP_TOL * lo, _STEP_TOL)

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise FitError(f"the function value at {x!r} is NaN")
        return fx

    # cur is the best point, blk the other end of the bracket, pre the
    # previous best; scur and spre are the last two steps
    xpre, xcur = lo, hi
    fpre, fcur = value(xpre), value(xcur)
    calls = 2
    if fpre == 0.0 or fcur == 0.0:
        return (xpre if fpre == 0.0 else xcur), calls, True
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise InputError("f(lo) and f(hi) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAX_ITER):
        if fpre != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, calls, True
        # a division by zero, where C's brentq gets inf or NaN, bisects
        stry = math.inf
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = value(xcur)
        calls += 1
    return xcur, calls, False


def _falling_root(f, lo: float, hi: float, what: str, log_scale: bool = False) -> tuple[float, int]:
    """:func:`_brent_root` of an ``f`` that falls from + at ``lo`` to - at
    ``hi``; returns (root, function calls). ``f`` without that sign change,
    or on which Brent's method does not converge, raises :class:`FitError`
    naming ``what``."""
    if not f(lo) > 0.0 > f(hi):
        raise FitError(f"{what} has no bracketed root")
    root, calls, converged = _brent_root(f, lo, hi, log_scale)
    if not converged:
        raise FitError(f"{what} did not converge")
    return root, calls


def _score_cells(grid: np.ndarray, values: list[float], scores: list[float]):
    """(falling, hidden): the cells [grid[i], grid[i+1]] across which the
    profile score falls from + to - (or to 0), and those where it must do
    so unseen: the profile ``values`` rise across the cell though the
    score is - at both ends, or do not rise though it is + at both."""
    lams, up = grid.tolist(), [score > 0.0 for score in scores]
    cells = range(len(lams) - 1)
    return ([(lams[i], lams[i + 1]) for i in cells if up[i] and scores[i + 1] <= 0.0],
            [(lams[i], lams[i + 1]) for i in cells
             if up[i] == up[i + 1] and (values[i + 1] > values[i]) != up[i]])


def fit_ml(data: Dataset) -> FitResult:
    """Maximum likelihood via the profile in the scale parameter.

    One pass over a 41-point geometric grid (factor 4 around the median /
    sqrt(3)) gives the profile and its score at every grid scale, as
    :func:`profile_log_likelihood` and :func:`profile_score` give them
    point by point. Brent's method runs on every cell where the score
    falls from + to -, and on those of a finer 41-point grid over each
    cell where it must do so unseen (see :func:`_score_cells`); the fit
    is the root with the highest profile. Where no root reaches the
    profile at the grid's larger end (the family degenerates to an
    inverse-exponential limit as the scale -> 0), the fit raises the
    boundary :class:`FitError` ("no interior likelihood maximum").
    Standard errors are the square roots of the diagonal of the inverse
    expected information divided by n.

    The grid is laid on the sample in its :attr:`Dataset.exact_units`,
    around a median taken in its :attr:`Dataset.units`, so the estimate
    is the scaled sample's times that power of two. Data that still put
    the grid, a profile value or the estimate outside the floating-point
    range raise :class:`FitError`.

    Where the profile is flat to double precision (a shape estimate near
    1e4 or more, as the scale approaches the scale -> 0 boundary), the
    score is rounding noise across a band of relative width about 1e-6,
    so which point of that band is returned depends on the root finder.
    The boundary check against the grid's ends is strict, with no
    tolerance, so such a stationary point still counts as interior.
    """
    x = data.values
    n = data.n
    if n < 2 or float(np.min(x)) == float(np.max(x)):
        raise FitError("need at least two distinct observations to fit")

    units, e = data.exact_units
    kernel = _Kernel(units)
    # the median from the plain units, which no average of two values can
    # overflow where the exact units fall back to the raw sample
    plain, e_plain = data.units
    center = math.ldexp(float(np.median(plain)), e_plain - e) / math.sqrt(3.0)
    with np.errstate(over="ignore", under="ignore"):
        grid = center * 4.0 ** np.arange(-20.0, 21.0)
    if not (np.all(np.isfinite(grid)) and grid[0] > 0.0):
        raise FitError("the scale grid leaves the floating-point range: the data span too many "
                       "orders of magnitude")
    values, scores = kernel.profile_grid(grid)
    if not all(map(math.isfinite, values)):
        raise FitError("the profile log-likelihood is not finite on the scale grid")
    cells, hidden = _score_cells(grid, values, scores)
    iterations = grid.size
    for lo, hi in hidden:
        fine = np.geomspace(lo, hi, grid.size)
        cells += _score_cells(fine, *kernel.profile_grid(fine))[0]
        iterations += fine.size
    roots = []
    for lo, hi in cells:
        lam, calls, converged = _brent_root(kernel.score, lo, hi)
        iterations += calls
        roots.append((kernel.profile(lam), lam, converged))

    value, lam, converged = max(roots, default=(-math.inf, math.nan, False))
    end = 0 if values[0] >= values[-1] else grid.size - 1
    if values[end] > value:
        side = "(shape -> inf, scale -> 0)" if end == 0 else "(scale -> inf)"
        raise FitError(
            f"no interior likelihood maximum: the profile is higher toward the {side} boundary "
            "than at any stationary point",
            best=_ml_result(kernel, float(grid[end]), iterations, False, e),
        )
    result = _ml_result(kernel, lam, iterations, converged, e)
    if result is None:
        raise FitError("the ML estimate leaves the parameter space or the floating-point range")
    if not converged:
        raise FitError("profile search did not converge", best=result)
    return result


def _ml_result(kernel: _Kernel, lam: float, iterations: int, converged: bool,
               e: int = 0) -> FitResult | None:
    """The ML fit at scale ``lam`` of a kernel on the sample in units of
    2^``e``, bit-equal to :func:`profile_beta` where e is 0 and to
    :func:`log_likelihood` at every e. None where that scale admits no
    valid parameters in the floating-point range or the shape exceeds
    _MAX_SHAPE; its ``std_errors`` are None where one is not finite."""
    _, _, log_s, sum_log_u = kernel.scan(lam)
    sum_log_s = float(log_s.sum())
    beta = -kernel.n / sum_log_u if sum_log_u < 0.0 else math.nan
    scale = math.ldexp(lam, e) if math.frexp(lam)[1] + e <= 1024 else math.inf  # else ldexp overflows
    if not (0.0 < beta < _MAX_SHAPE and 0.0 < scale < math.inf):
        return None
    params = Params(beta, scale)
    std_errors = asymptotic_std_errors(params, kernel.n)
    return FitResult(
        params=params,
        std_errors=std_errors if all(map(math.isfinite, std_errors)) else None,
        loglik=_log_likelihood_from_sums(kernel, beta, lam, e, sum_log_s, sum_log_u),
        method="ml",
        iterations=iterations,
        converged=converged,
        n=kernel.n,
    )


def fit_cr(data: Dataset) -> FitResult:
    """ML fit of the CR submodel (shape pinned at 1).

    The scale score n/lam - 3 lam sum 1/s^2 has the sign of
    h = n - 3 sum 1/(1 + (x/lam)^2), which falls from n to -2n with its
    root in [min x, max x] / sqrt(2). Brent's method finds it in log lam
    on [min x / 2, max x], so its score evaluations (``iterations``) do
    not grow with the decades the data span; a search that does not
    converge raises :class:`FitError`. The shape entry of ``std_errors``
    is 0 because beta is not estimated.
    """
    x = data.values
    n = data.n
    log_x = np.log(x)

    # h as n - 3k (k the count below lam) plus 3 sum +-q^2/(1 + q^2), q =
    # min(x/lam, lam/x), so the small terms that place the root are not
    # rounded away against n; where n = 3k they are scaled by e^(2 min
    # |log(x/lam)|) so that they cannot all underflow
    def h(log_lam: float) -> float:
        d = log_x - log_lam
        whole = n - 3 * int(np.count_nonzero(d < 0.0))
        q2 = np.exp(-2.0 * np.abs(d))
        small = (q2 if whole else np.exp(2.0 * (np.abs(d).min() - np.abs(d)))) / (1.0 + q2)
        return whole + 3.0 * float(np.copysign(small, -d).sum())

    log_lam, iterations = _falling_root(h, float(log_x.min()) - math.log(2.0), float(log_x.max()),
                                        "CR scale score", log_scale=True)
    lam = math.exp(log_lam)
    params = Params(1.0, lam)
    # Expected information for the single scale parameter: 4n/(5 lam^2).
    se = lam / math.sqrt(0.8 * n)
    return FitResult(
        params=params,
        std_errors=(0.0, se),
        loglik=log_likelihood(data, params),
        method="ml",
        iterations=iterations,
        converged=True,
        n=n,
    )


# ---------------------------------------------------------------------------
# Expected information and its derivatives


@dataclass(frozen=True)
class InfoMatrix:
    """Per-observation expected information K = -(1/n) [kappa_ij].

    ``entries`` is the symmetric 2x2 matrix ordered (beta, lam);
    ``cumulants`` holds the matching cumulant-scale matrix (the expected
    second derivatives [kappa_ij] for the information, or their inverse
    for the inverse information).
    """

    entries: np.ndarray
    n: int
    cumulants: np.ndarray


def _kappa_entries(p: Params, n: int) -> tuple[float, float, float]:
    b, lam = p.beta, p.lam
    kbb = -n / b**2
    kbl = (n / lam) * (2.0 / (b + 2.0) - 3.0 / (b + 1.0))
    kll = (n / lam**2) * (18.0 / (b + 2.0) - 36.0 / (b + 3.0) + 16.0 / (b + 4.0) - 1.0)
    return kbb, kbl, kll


def fisher_info(p: Params, n: int) -> InfoMatrix:
    """Expected information with entries

    kappa_bb = -n/beta^2,
    kappa_bl = (n/lam) (2/(beta+2) - 3/(beta+1)),
    kappa_ll = (n/lam^2) (18/(beta+2) - 36/(beta+3) + 16/(beta+4) - 1),

    packaged as K = -(1/n)[kappa].
    """
    n = _count("n", n, 1)
    kbb, kbl, kll = _kappa_entries(p, n)
    cumulants = np.array([[kbb, kbl], [kbl, kll]])
    return InfoMatrix(entries=-cumulants / n, n=n, cumulants=cumulants)


def fisher_info_inverse(p: Params, n: int) -> InfoMatrix:
    """Closed-form inverse of :func:`fisher_info`.

    With q(beta) = beta^3 - 7 beta^2 + 10 beta + 72 (positive on the
    whole parameter space):

        (K^-1)_bb =  beta^2 (beta+1)^2 (beta+2)(beta^2+11 beta+36) / q
        (K^-1)_bl = -lam beta (beta+1)(beta+2)(beta+3)(beta+4)^2 / q
        (K^-1)_ll =  lam^2 (beta+1)^2 (beta+2)^2 (beta+3)(beta+4) / (beta q)
    """
    n = _count("n", n, 1)
    b, lam = p.beta, p.lam
    q = b**3 - 7.0 * b**2 + 10.0 * b + 72.0
    inv_bb = b**2 * (b + 1.0) ** 2 * (b + 2.0) * (b**2 + 11.0 * b + 36.0) / q
    inv_bl = -lam * b * (b + 1.0) * (b + 2.0) * (b + 3.0) * (b + 4.0) ** 2 / q
    inv_ll = lam**2 * (b + 1.0) ** 2 * (b + 2.0) ** 2 * (b + 3.0) * (b + 4.0) / (b * q)
    entries = np.array([[inv_bb, inv_bl], [inv_bl, inv_ll]])
    return InfoMatrix(entries=entries, n=n, cumulants=-entries / n)


def asymptotic_std_errors(p: Params, n: int) -> tuple[float, float]:
    """sqrt(diag(K^-1)/n): large-sample standard errors at ``p``.

    (K^-1)_ll is lam^2 times its value at lam = 1, so the scale error is
    lam sqrt((K^-1)_ll(lam = 1) / n) and lam^2 is never formed.
    """
    inv = fisher_info_inverse(Params(p.beta, 1.0), n).entries
    return (math.sqrt(inv[0, 0] / n), p.lam * math.sqrt(inv[1, 1] / n))


class FisherDerivatives(NamedTuple):
    """First derivatives of the expected second-derivative entries."""

    kbb_dbeta: float
    kbb_dlam: float
    kbl_dbeta: float
    kbl_dlam: float
    kll_dbeta: float
    kll_dlam: float


def fisher_derivatives(p: Params, n: int) -> FisherDerivatives:
    n = _count("n", n, 1)
    b, lam = p.beta, p.lam
    return FisherDerivatives(
        kbb_dbeta=2.0 * n / b**3,
        kbb_dlam=0.0,
        kbl_dbeta=(n / lam) * (3.0 / (b + 1.0) ** 2 - 2.0 / (b + 2.0) ** 2),
        kbl_dlam=(n / lam**2) * (3.0 / (b + 1.0) - 2.0 / (b + 2.0)),
        kll_dbeta=(2.0 * n / lam**2)
        * (18.0 / (b + 3.0) ** 2 - 8.0 / (b + 4.0) ** 2 - 9.0 / (b + 2.0) ** 2),
        kll_dlam=(2.0 * n / lam**3)
        * (1.0 - 18.0 / (b + 2.0) + 36.0 / (b + 3.0) - 16.0 / (b + 4.0)),
    )


@dataclass(frozen=True)
class ThirdCumulants:
    """Expected third derivatives of the log-likelihood; kbbl is 0 exactly."""

    kbbb: float
    kbbl: float
    kbll: float
    klll: float


def third_cumulants(p: Params, n: int) -> ThirdCumulants:
    n = _count("n", n, 1)
    b, lam = p.beta, p.lam
    return ThirdCumulants(
        kbbb=2.0 * n / b**3,
        kbbl=0.0,
        kbll=(n / lam**2)
        * (9.0 / (b + 1.0) - 28.0 / (b + 2.0) + 27.0 / (b + 3.0) - 8.0 / (b + 4.0)),
        klll=(2.0 * n / lam**3)
        * (
            1.0
            - 81.0 / (b + 2.0)
            + 378.0 / (b + 3.0)
            - 606.0 / (b + 4.0)
            + 405.0 / (b + 5.0)
            - 96.0 / (b + 6.0)
        ),
    )


# ---------------------------------------------------------------------------
# Cox-Snell second-order bias


def cox_snell_bias(p: Params, n: int) -> tuple[float, float]:
    """Closed-form second-order biases of the two ML estimators.

    Rational functions of beta (the scale bias carries a lam prefactor);
    :func:`cox_snell_bias_generic` rebuilds the same numbers from the
    inverse information, its derivatives, and the third cumulants. Near
    the top of the floating-point range, where lam (...) overflows, the
    scale bias is lam times its value at lam = 1 instead.
    """
    n = _count("n", n, 1)
    b, lam = p.beta, p.lam
    q = b**3 - 7.0 * b**2 + 10.0 * b + 72.0
    bias_b = (
        b**3
        + 13.0 * b**2
        + 122.0 * b
        + 380.0
        - 699840.0 / (19321.0 * (b + 5.0))
        + 96000.0 / (361.0 * (b + 6.0))
        + 432.0 * (4085783.0 * b**2 - 8192586.0 * b - 40352456.0) / (2641.0 * q**2)
        - 12.0
        * (70740551.0 * b**2 + 3809213278.0 * b - 35831044156.0)
        / (6974881.0 * q)
    ) / n
    unit = (
        8.0 * b
        + 86.0
        + 49.0 / (270.0 * b)
        - 1679616.0 / (96605.0 * (b + 5.0))
        + 80000.0 / (1083.0 * (b + 6.0))
        - 8.0 * (84037561.0 * b**2 + 21509105.0 * b - 393761162.0) / (7923.0 * q**2)
        + (356431397749.0 * b**2 - 158970444943.0 * b - 4636191041858.0)
        / (376643574.0 * q)
    )
    bias_l = lam * unit / n
    if math.isinf(bias_l):
        bias_l = lam * (unit / n)
    return bias_b, bias_l


def cox_snell_bias_generic(p: Params, n: int) -> tuple[float, float]:
    """Generic cumulant-based bias sum

        bias_i = sum_{r,s,t} kappa^{i r} kappa^{s t}
                 (d kappa_{r s}/d theta_t - kappa_{r s t}/2),

    assembled from the inverse information, the information derivatives,
    and the third cumulants. Used as an internal oracle for the closed
    forms above.
    """
    n = _count("n", n, 1)
    kbb, kbl, kll = _kappa_entries(p, n)
    kinv = np.linalg.inv(np.array([[kbb, kbl], [kbl, kll]]))
    d = fisher_derivatives(p, n)
    deriv = np.empty((2, 2, 2))
    deriv[0, 0] = (d.kbb_dbeta, d.kbb_dlam)
    deriv[0, 1] = deriv[1, 0] = (d.kbl_dbeta, d.kbl_dlam)
    deriv[1, 1] = (d.kll_dbeta, d.kll_dlam)
    t = third_cumulants(p, n)
    third = np.empty((2, 2, 2))
    third[0, 0, 0] = t.kbbb
    third[0, 0, 1] = third[0, 1, 0] = third[1, 0, 0] = t.kbbl
    third[0, 1, 1] = third[1, 0, 1] = third[1, 1, 0] = t.kbll
    third[1, 1, 1] = t.klll
    inner = deriv - 0.5 * third
    bias = np.einsum("ir,st,rst->i", kinv, kinv, inner)
    return float(bias[0]), float(bias[1])


def bias_known_lambda(beta_hat: float, n: int) -> float:
    """Second-order shape bias when the scale is known: beta_hat / n."""
    return _positive("beta_hat", beta_hat) / _count("n", n, 1)


def bias_known_beta(lambda_hat: float, beta0: float, n: int) -> float:
    """Second-order scale bias when the shape is pinned at beta0:

    (lam/n) * [(b+2)(b+3)(b+4) / (b (b+5)(b+6))]
            * [(b^4 + 24 b^3 + 216 b^2 + 761 b + 294) / (b^2 + 11 b + 36)^2].
    """
    lambda_hat, b, n = _positive("lambda_hat", lambda_hat), _positive("beta0", beta0), _count("n", n, 1)
    factor = (b + 2.0) * (b + 3.0) * (b + 4.0) / (b * (b + 5.0) * (b + 6.0))
    ratio = (b**4 + 24.0 * b**3 + 216.0 * b**2 + 761.0 * b + 294.0) / (
        b**2 + 11.0 * b + 36.0
    ) ** 2
    return lambda_hat / n * factor * ratio


def cr_bias(lambda_hat: float, n: int) -> float:
    """Second-order scale bias of the CR (beta = 1) ML estimator: 45 lam / (56 n)."""
    return 45.0 * _positive("lambda_hat", lambda_hat) / (56.0 * _count("n", n, 1))


def cs_correctable(n: int, beta_hat: float) -> bool:
    """Whether the Cox-Snell correction stays inside the parameter space.

    Both corrected estimates are positive multiples of conditions that
    involve only (n, beta_hat), so correctability never depends on the
    fitted scale.
    """
    bias_b, bias_l_unit = cox_snell_bias(Params(beta_hat, 1.0), n)
    return beta_hat - bias_b > 0.0 and 1.0 - bias_l_unit > 0.0


def fit_cs_ml(data: Dataset, ml: FitResult | None = None) -> FitResult:
    """Cox-Snell bias-corrected maximum likelihood.

    Subtracts the closed-form second-order bias evaluated at the ML
    estimate. ``ml`` is :func:`fit_ml`'s result on ``data`` when the
    caller already has it (the simulation engine does); without it the
    ML fit runs here. When either corrected parameter would be
    non-positive the outcome is flagged ``correctable=False`` and the
    uncorrected ML fit is returned.
    """
    if ml is None:
        ml = fit_ml(data)
    bias = cox_snell_bias(ml.params, data.n)
    beta_c = ml.params.beta - bias[0]
    lam_c = ml.params.lam - bias[1]
    if beta_c <= 0.0 or lam_c <= 0.0:
        return replace(ml, correctable=False)
    params = Params(beta_c, lam_c)
    return FitResult(
        params=params,
        std_errors=asymptotic_std_errors(params, data.n),
        loglik=log_likelihood(data, params),
        method="csml",
        iterations=ml.iterations,
        converged=ml.converged,
        n=data.n,
        bias_applied=bias,
    )


# ---------------------------------------------------------------------------
# Percentile-based estimation


def _plotting_positions(n: int) -> np.ndarray:
    """Mean-rank positions p_i = i/(n+1)."""
    return np.arange(1, n + 1) / (n + 1.0)


class _PbWeights(NamedTuple):
    """The data-free factors of the percentile sums at a shape or a (k, 1)
    column of shapes, with w = p^(1/beta): t6 and t9 themselves and the
    factors t7, t8 and the model percentiles multiply the sample by.

    t9 = n - sum 1/(1-w)^2 is summed as -sum w(2-w)/(1-w)^2, term by term
    the same quantity: every term has one sign, so no two sums near n
    cancel where w is small, and t9 < 0 wherever some w is positive."""

    d_shape_quad: np.ndarray  # t6
    quad: np.ndarray  # t9
    one_minus_sq: np.ndarray  # (1 - w)^2
    sqrt_ratio: np.ndarray  # sqrt(w / (2 - w))
    sqrt_prod: np.ndarray  # sqrt((2 - w) w)
    one_minus: np.ndarray  # 1 - w


def _pb_weights(beta, p: np.ndarray, log_p: np.ndarray) -> _PbWeights:
    w = p ** (1.0 / beta)
    one_minus = 1.0 - w
    one_minus_sq = one_minus**2
    two_minus = 2.0 - w
    return _PbWeights(
        (w * log_p / one_minus**3).sum(axis=-1),
        -(w * two_minus / one_minus_sq).sum(axis=-1),
        one_minus_sq,
        np.sqrt(w / two_minus),
        np.sqrt(two_minus * w),
        one_minus,
    )


# fit_pb's shape grid. Its data-free factors depend only on n and took
# most of a fit's time at n in the hundreds, so two (241, n) factor
# matrices are memoized while each stays within _MEMO_ELEMENTS (about
# 2 MB per size at n = 543), and the grid's data sums become two
# matrix-vector products.
_SHAPE_GRID = np.logspace(-3.0, 3.0, 241)
_SHAPE_GRID.flags.writeable = False
_MEMO_ELEMENTS = 2**17


class _GridFactors(NamedTuple):
    """The data-free factors of the percentile sums on _SHAPE_GRID at the
    positions of an n-point sample: t6 and t9 as :func:`_pb_weights`
    gives them, and the factors t7 and t8 take the data with, combined."""

    d_shape_quad: np.ndarray  # t6
    quad: np.ndarray  # t9
    d_shape_cross: np.ndarray  # W7 = sqrt(w / (2 - w)) / (1 - w)^2, per shape and position
    cross: np.ndarray  # W8 = sqrt((2 - w) w) / (1 - w), per shape and position


@functools.lru_cache(maxsize=4)
def _memoized_grid_factors(n: int) -> _GridFactors:
    """:class:`_GridFactors` at n, read-only, filled from the
    :func:`_pb_weights` of one row block of _SHAPE_GRID at a time."""
    p = _plotting_positions(n)
    log_p = np.log(p)
    size = _SHAPE_GRID.size
    factors = _GridFactors(np.empty(size), np.empty(size), np.empty((size, n)), np.empty((size, n)))
    start = 0
    for col in _row_blocks(_SHAPE_GRID, n):
        rows = slice(start, start + col.shape[0])
        weights = _pb_weights(col, p, log_p)
        factors.d_shape_quad[rows] = weights.d_shape_quad
        factors.quad[rows] = weights.quad
        np.divide(weights.sqrt_ratio, weights.one_minus_sq, out=factors.d_shape_cross[rows])
        np.divide(weights.sqrt_prod, weights.one_minus, out=factors.cross[rows])
        start = rows.stop
    for array in factors:
        array.flags.writeable = False
    return factors


class _Percentiles:
    """Per-sample pieces of the percentile objective, built once per fit:
    p_i, log p_i and x_(i) log p_i over the dataset's
    :attr:`Dataset.sorted_units`. Each method takes a 1-D array of
    shapes, one broadcast pass per row block, and gives per shape the
    point-by-point formulas' values to the bit; :meth:`grid_roots` gives
    the signs of those values on _SHAPE_GRID."""

    def __init__(self, data: Dataset):
        self.n = data.n
        self.p = _plotting_positions(data.n)
        self.log_p = np.log(self.p)
        self.xs_unit, self.e = data.sorted_units
        self.xs_log_p = self.xs_unit * self.log_p

    def _weights(self, betas: np.ndarray):
        """Fresh weights of ``betas`` per row block, so that no call holds
        more than a block's temporaries."""
        return (_pb_weights(col, self.p, self.log_p) for col in _row_blocks(betas, self.n))

    def sums(self, weights: _PbWeights):
        """(t6, t7, t8, t9): the two data sums t7 and t8 over the sorted
        sample in units of 2^``e``, with the data-free t6 and t9 passed
        through."""
        d_shape_cross = (self.xs_log_p / weights.one_minus_sq * weights.sqrt_ratio).sum(axis=-1)
        cross = -(self.xs_unit * weights.sqrt_prod / weights.one_minus).sum(axis=-1)
        return weights.d_shape_quad, d_shape_cross, cross, weights.quad

    def roots(self, betas: np.ndarray) -> np.ndarray:
        """The root function t6 t8 - t7 t9 at every shape of ``betas``."""
        roots = []
        for weights in self._weights(betas):
            t6, t7, t8, t9 = self.sums(weights)
            roots.append(t6 * t8 - t7 * t9)
        return roots[0] if len(roots) == 1 else np.concatenate(roots)

    def grid_roots(self) -> np.ndarray:
        """The root function on _SHAPE_GRID, for its signs: at each shape
        either :meth:`roots`' value to the bit or one of the same sign.

        Up to _MEMO_ELEMENTS per factor matrix it is formed from the
        memoized :class:`_GridFactors`, with t7 = W7 . x log p and t8 =
        -W8 . x as matrix-vector products on the calling thread (einsum
        without ``optimize`` calls no BLAS). A value that does not exceed
        :meth:`_grid_bounds` in magnitude, NaN included, is replaced by
        :meth:`roots`' value at that shape; above that size every value
        is :meth:`roots`'.
        """
        if _SHAPE_GRID.size * self.n > _MEMO_ELEMENTS:
            return self.roots(_SHAPE_GRID)
        values, bounds = self._grid_bounds()
        uncertain = np.flatnonzero(~(np.abs(values) > bounds))
        if uncertain.size:
            values[uncertain] = self.roots(_SHAPE_GRID[uncertain])
        return values

    def _grid_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The root function on _SHAPE_GRID by the memoized factors, and a
        bound per shape that a value must exceed in magnitude for its sign
        to be that of :meth:`roots`.

        Both paths start from the same floats: the sample terms x log p and
        x, the factors sqrt(w/(2-w)), (1-w)^2, sqrt((2-w)w), 1-w and the
        sums t6, t9. Let R* = t6 t8* - t7* t9 be the root function in
        real arithmetic on them, and u = eps/2 the unit roundoff. Every
        term of t7, and of t8, has one sign, so the sum equals its terms'
        absolute sum: each term carries two roundings (x log p / (1-w)^2
        times sqrt(w/(2-w)), or x log p times W7) and any summation order
        n - 1 more, so either path's t7 is t7* (1 + theta) with |theta| <=
        gamma_{n+1}, gamma_k = k u / (1 - k u) (Higham, *Accuracy and
        Stability of Numerical Algorithms*, 2002, ch. 3-4), and so is t8.
        The two products and the difference add two more, so either
        path's R lies within E = gamma_{n+3} M* of R*, with M* = |t6 t8*|
        + |t7* t9|. A value R with |R| > 2E has the sign of R*, and
        |R*| > E, so the other path's value is nonzero with that sign too.
        2 gamma_{n+3} M* is (n + 3) eps M to within a relative
        O(n eps), where M is M* as computed here, so the bound (n + 8) eps
        M covers it with room to spare at every n this path takes.

        The smallest normal number added to it covers underflow in the two
        products and in the bound itself (each at most 2^-1075). An
        underflowed term of t7 or t8 errs by at most 2^-1075 (1 + |x log p|
        + 1/(1-w)); the sample's largest unit lies in [2^-201, 2^200] and
        the grid's largest w is above 1e-177, so the largest terms of t7
        and t8 exceed 1e-160 and n such errors stay far inside the room
        between n + 3 and n + 8. Where a product overflows, the bound is
        inf or the value NaN, and the value is not cleared.
        """
        factors = _memoized_grid_factors(self.n)
        t7 = np.einsum("ij,j->i", factors.d_shape_cross, self.xs_log_p)
        t8 = -np.einsum("ij,j->i", factors.cross, self.xs_unit)
        left, right = factors.d_shape_quad * t8, t7 * factors.quad
        bounds = (self.n + 8) * sys.float_info.epsilon * (np.abs(left) + np.abs(right)) + sys.float_info.min
        return left - right, bounds

    def scores(self, betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The scales lam2 = t8/t9 at every shape of ``betas`` and the
        objective there, :func:`pb_objective` on the sample in units of
        2^``e``; inf where lam2 is not positive and finite, which it is
        not where lam2 in units times 2^e overflows."""
        lams, scores = [], []
        for weights in self._weights(betas):
            _, _, t8, t9 = self.sums(weights)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                lam_unit = t8 / t9
                lam = np.ldexp(lam_unit, self.e)
            ok = np.isfinite(lam) & (lam > 0.0)
            model = lam_unit[ok, None] * weights.sqrt_prod[ok] / weights.one_minus[ok]
            score = np.full(lam.size, math.inf)
            score[ok] = ((model - self.xs_unit) ** 2).sum(axis=-1)
            lams.append(lam)
            scores.append(score)
        return np.concatenate(lams), np.concatenate(scores)


def _sign_changes(values: np.ndarray) -> np.ndarray:
    """Indices j where values j and j+1 have strictly opposite signs."""
    return np.nonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0)[0]


def pb_objective(data: Dataset, p: Params) -> float:
    """Sum of squared distances between sample and model percentiles,
    with mean-rank positions p_i = i/(n+1)."""
    xs = data.sorted_values
    w = _plotting_positions(data.n) ** (1.0 / p.beta)
    model = p.lam * np.sqrt((2.0 - w) * w) / (1.0 - w)
    return float(np.sum((model - xs) ** 2))


def pb_gradient(data: Dataset, p: Params) -> tuple[float, float]:
    """Analytic gradient of :func:`pb_objective`."""
    percentiles = _Percentiles(data)
    t6, t7, t8, t9 = percentiles.sums(_pb_weights(p.beta, percentiles.p, percentiles.log_p))
    t7, t8 = np.ldexp(t7, percentiles.e), np.ldexp(t8, percentiles.e)
    d_beta = 2.0 * p.lam / p.beta**2 * (t7 - p.lam * t6)
    d_lam = 2.0 * (t8 - p.lam * t9)
    return float(d_beta), float(d_lam)


def fit_pb(data: Dataset) -> FitResult:
    """Percentile-based estimation.

    Both stationarity conditions give a scale estimate that is closed
    in the shape: lam1 = t7/t6 and lam2 = t8/t9. The shape solves
    t6 t8 = t7 t9, located by sign change on a logarithmic grid over
    [1e-3, 1e3] and Brent's method (:func:`_brent_root`) in each grid
    cell with a sign change, in the shape itself; with several candidate
    roots the one with the smallest objective wins. A shape whose lam2 is
    not positive and finite scores an infinite objective; if the chosen
    shape has no admissible scale the fit raises :class:`FitError`. So
    does a grid with no sign change: on every such sample checked (over
    10,000, from ECR and six other families at n = 5 to 500) the objective
    with lam2 substituted had its minimum at a grid end, with no root to
    find. A chosen root whose search does not converge raises
    :class:`FitError` carrying that fit.

    Every evaluation goes through one :class:`_Percentiles`: the grid
    by :meth:`_Percentiles.grid_roots`, one broadcast pass per row block
    for the candidate roots, and one pass at one shape per Brent
    evaluation. For the four most recent sample sizes with 241 n <= 2^17
    (n <= 543) the grid takes t7 and t8 as two matrix-vector products
    with memoized data-free factor matrices (about 2 MB per size). Each
    such value carries a rounding bound, (n + 8) eps (|t6 t8| + |t7 t9|)
    plus the smallest normal number, at least twice the rounding error of
    either path (see :meth:`_Percentiles._grid_bounds`); a value not
    above its bound, NaN included, is recomputed by the exact path with
    fresh weights. So the grid's signs, and with them the brackets, the
    roots and every output, are those of the exact path, whose value at
    one shape Brent's method evaluates. Above n = 543 the grid is the
    exact path block by block; every other shape gets fresh factors. A
    lam2 that overflows as it is scaled back from the dataset's
    :attr:`Dataset.sorted_units` is inadmissible. ``iterations`` counts
    the 241 grid points and Brent's calls over all brackets.

    Each of t6, t7, t8 and t9 is a sum of terms of one sign (t9 as
    written in :class:`_PbWeights`), so the root function cancels only
    in the difference t6 t8 - t7 t9. Its terms i = j cancel exactly, so
    where the largest position's w = p^(1/beta) outweighs the rest, at
    beta below about 1/(60 n), that difference sinks below its rounding
    and its signs are noise: on this grid only for n up to about 15, at
    its first few shapes.
    """
    xs = data.sorted_values
    n = data.n
    if n < 2 or xs[0] == xs[-1]:
        raise FitError("need at least two distinct observations to fit")
    percentiles = _Percentiles(data)
    grid = _SHAPE_GRID
    sign_change = _sign_changes(percentiles.grid_roots())
    if not sign_change.size:
        raise FitError("percentile objective has no interior minimum")
    p, log_p = percentiles.p, percentiles.log_p

    def root_at(beta: float) -> float:
        t6, t7, t8, t9 = percentiles.sums(_pb_weights(beta, p, log_p))
        return t6 * t8 - t7 * t9

    roots, flags, iterations = [], [], grid.size
    for j in sign_change.tolist():
        beta, calls, converged = _brent_root(root_at, grid[j], grid[j + 1])
        roots.append(beta)
        flags.append(converged)
        iterations += calls
    root_lams, scores = percentiles.scores(np.array(roots))
    _, beta, lam, converged = min(zip(scores.tolist(), roots, root_lams.tolist(), flags))
    if lam <= 0.0 or not math.isfinite(lam):
        raise FitError("percentile scale estimate left the parameter space")
    params = Params(beta, lam)
    result = FitResult(
        params=params,
        std_errors=None,
        loglik=log_likelihood(data, params),
        method="pb",
        iterations=iterations,
        converged=converged,
        n=n,
    )
    if not converged:
        raise FitError("percentile root search did not converge", best=result)
    return result

# ---------------------------------------------------------------------------
# Intervals and tests


def confidence_intervals(
    fit: FitResult, level: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Wald intervals theta_i +/- z_(1+level)/2 * se_i, floored at 0."""
    if not 0.0 < level < 1.0:
        raise InputError(f"level must lie in (0, 1), got {level!r}")
    if fit.std_errors is None:
        raise InputError("fit carries no standard errors")
    from scipy.special import ndtri

    z = float(ndtri(0.5 * (1.0 + level)))
    out = []
    for est, se in zip((fit.params.beta, fit.params.lam), fit.std_errors):
        out.append((max(0.0, est - z * se), est + z * se))
    return out[0], out[1]


def lr_test_cr(data: Dataset) -> tuple[float, float]:
    """Likelihood-ratio test of the CR submodel (shape = 1) inside ECR.

    Returns (statistic, p-value); the statistic is 2(l_ECR - l_CR) and
    the p-value is the chi-square(1) upper tail, computed through the
    complementary error function.
    """
    from scipy.special import erfc

    full = fit_ml(data)
    nested = fit_cr(data)
    stat = max(0.0, 2.0 * (full.loglik - nested.loglik))
    p_value = float(erfc(math.sqrt(stat / 2.0)))
    return stat, p_value
