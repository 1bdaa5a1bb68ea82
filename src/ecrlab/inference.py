"""Estimation for the ECR model: maximum likelihood, Cox-Snell
bias-corrected maximum likelihood, and the percentile-based estimator,
plus the expected-information stack those corrections are built from.

The likelihood factorizes through the kernel u_i = 1 - lam/s_i with
s_i = sqrt(lam^2 + x_i^2):

    l(beta, lam) = n log(beta lam) + sum log x_i - 3 sum log s_i
                   + (beta - 1) sum log u_i

For fixed lam the shape score vanishes at beta(lam) = -n / sum log u_i,
so fitting reduces to a one-dimensional search over the scale: a grid
pass on the profile log-likelihood, whose argmax and two profile-score
probes give a sign bracket, then Brent's method (scipy's brentq) on the
profile score inside it. Every pass of one fit goes through a per-sample
kernel object that holds log x and its sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.optimize import brentq
from scipy.special import erfc, ndtri

from .data import Dataset
from .ecr import Params

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


class FitError(RuntimeError):
    """Estimation failed; ``best`` carries the best fit seen, if any."""

    def __init__(self, message: str, best: "FitResult | None" = None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class FitResult:
    """Point estimates plus fit diagnostics.

    ``method`` is one of "ml", "csml", "pb". ``std_errors`` comes from
    the inverse expected information (None for the percentile method,
    which has no published asymptotic covariance). For "csml",
    ``bias_applied`` holds the subtracted second-order bias and
    ``params`` equals the ML estimate minus that bias. ``correctable``
    is False only when a requested Cox-Snell correction would have left
    the parameter space, in which case the plain ML fit is carried.
    ``iterations`` counts objective and score evaluations over all
    phases: for ML the grid points, the two half-cell score probes, the
    finer grid's points and probes when it is used, and Brent's score
    evaluations (csml carries its ML fit's count); for the CR submodel
    Brent's evaluations; for "pb" the shape grid's points, the objective
    and finer-grid points when that grid has no sign change, and the
    bisection steps.
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
    makes one pass over the sample at scale ``lam`` (hypot once, with log
    u derived from the same s and log s) and returns only the sums its
    caller needs. Values equal :func:`ecrlab.ecr._log_kernel` and the
    point-by-point public functions to the bit: the same numpy operations
    run in the same order.
    """

    def __init__(self, x: np.ndarray):
        log_x = np.log(x)
        self.x = x
        self.n = x.size
        self.two_log_x = 2.0 * log_x
        self.sum_log_x = float(log_x.sum())

    def log_u(self, lam, s, log_s):
        """log u_i from s_i = hypot(lam, x_i) and log s_i; see _log_kernel."""
        with np.errstate(divide="ignore", invalid="ignore"):
            rational = self.two_log_x - log_s - np.log(s + lam)
            direct = np.log1p(-lam / s)
        return np.where(self.x < lam, rational, direct)

    def scan(self, lam: float):
        """s, log s and the checked sum log u at ``lam``."""
        s = np.hypot(lam, self.x)
        log_s = np.log(s)
        return s, log_s, _checked_sum_log_u(lam, float(self.log_u(lam, s, log_s).sum()))

    def log_sums(self, lam: float) -> tuple[float, float]:
        """(sum log s, sum log u) at ``lam``."""
        _, log_s, sum_log_u = self.scan(lam)
        return float(log_s.sum()), sum_log_u

    def profile(self, lam: float) -> float:
        """:func:`profile_log_likelihood` at ``lam``."""
        return _profile_from_sums(self.n, lam, self.sum_log_x, *self.log_sums(lam))

    def profile_grid(self, grid: np.ndarray) -> list[float]:
        """:meth:`profile` at every scale of ``grid``, to the bit, from one
        broadcast pass per row block."""
        values = []
        for col in _row_blocks(grid, self.n):
            s = np.hypot(col, self.x)
            log_s = np.log(s)
            sums_log_s = log_s.sum(axis=1).tolist()
            sums_log_u = self.log_u(col, s, log_s).sum(axis=1).tolist()
            for lam, sum_log_s, sum_log_u in zip(col[:, 0], sums_log_s, sums_log_u):
                sum_log_u = _checked_sum_log_u(lam, sum_log_u)
                values.append(_profile_from_sums(self.n, lam, self.sum_log_x, sum_log_s, sum_log_u))
        return values

    def score(self, lam: float) -> float:
        """:func:`profile_score` at ``lam``."""
        n = self.n
        s, _, sum_log_u = self.scan(lam)
        sum_inv_s, lam_sum_inv_s2 = _inverse_sums(lam, s)
        ratio = n / sum_log_u
        return n / lam + (1.0 + ratio) * sum_inv_s - (2.0 - ratio) * lam_sum_inv_s2


def _inverse_sums(lam: float, s: np.ndarray) -> tuple[float, float]:
    """(sum 1/s, lam * sum 1/s^2), the latter as sum (lam/s)(1/s) so that
    s^2 is never formed: it would overflow for data near 1e160 and
    underflow to zero near 1e-200."""
    inv_s = 1.0 / s
    return float(inv_s.sum()), float((lam * inv_s * inv_s).sum())


def _checked_sum_log_u(lam: float, sum_log_u: float) -> float:
    """sum log u is strictly negative for positive data; it can underflow
    to zero only when lam is many orders of magnitude below every
    observation, which the fitters never probe."""
    if sum_log_u >= 0.0:
        raise ValueError(f"scale {lam!r} is too small relative to the data")
    return sum_log_u


def log_likelihood(data: Dataset, p: Params) -> float:
    kernel = _Kernel(data.values)
    sum_log_s, sum_log_u = kernel.log_sums(p.lam)
    return _log_likelihood_from_sums(kernel, p, sum_log_s, sum_log_u)


def _log_likelihood_from_sums(kernel: _Kernel, p: Params, sum_log_s: float,
                              sum_log_u: float) -> float:
    return (
        kernel.n * math.log(p.beta * p.lam)
        + kernel.sum_log_x
        - 3.0 * sum_log_s
        + (p.beta - 1.0) * sum_log_u
    )


def score(data: Dataset, p: Params) -> tuple[float, float]:
    """Analytic gradient of the log-likelihood, (d/dbeta, d/dlam)."""
    n = data.n
    s, _, sum_log_u = _Kernel(data.values).scan(p.lam)
    sum_inv_s, lam_sum_inv_s2 = _inverse_sums(p.lam, s)
    u_beta = n / p.beta + sum_log_u
    u_lam = n / p.lam + (1.0 - p.beta) * sum_inv_s - (p.beta + 2.0) * lam_sum_inv_s2
    return u_beta, u_lam


def profile_beta(data: Dataset, lam: float) -> float:
    """Exact shape estimate at fixed scale: beta(lam) = -n / sum log u_i."""
    _, sum_log_u = _Kernel(data.values).log_sums(lam)
    return -data.n / sum_log_u


def profile_log_likelihood(data: Dataset, lam: float) -> float:
    return _Kernel(data.values).profile(lam)


def _profile_from_sums(n: int, lam: float, sum_log_x: float, sum_log_s: float,
                       sum_log_u: float) -> float:
    return n * (math.log(-n * lam / sum_log_u) - 1.0) + sum_log_x - 3.0 * sum_log_s - sum_log_u


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


def _brent_root(f, lo: float, hi: float) -> tuple[float, int, bool]:
    """Root of ``f`` on the sign bracket [lo, hi] by Brent's method.

    Stops once the bracket is within _STEP_TOL of the root, relatively:
    the absolute tolerance is scaled to the bracket so the result is
    scale-equivariant. Returns (root, function calls, converged).
    """
    root, info = brentq(f, lo, hi, xtol=_STEP_TOL * lo, rtol=_STEP_TOL, maxiter=_MAX_ITER,
                        full_output=True, disp=False)
    return root, info.function_calls, info.converged


def _score_half_cell(kernel: _Kernel, grid: np.ndarray, k: int) -> tuple[float, float] | None:
    """The half-cell next to the interior grid argmax ``k`` where the
    profile score falls from + to -: [grid[k], grid[k+1]] when the score
    at grid[k] is positive, else [grid[k-1], grid[k]]; None when the
    score does not change sign across it."""
    lam = float(grid[k])
    if kernel.score(lam) > 0.0:
        hi = float(grid[k + 1])
        return (lam, hi) if kernel.score(hi) < 0.0 else None
    lo = float(grid[k - 1])
    return (lo, lam) if kernel.score(lo) > 0.0 else None


def fit_ml(data: Dataset, init: Params | None = None) -> FitResult:
    """Maximum likelihood via the profile in the scale parameter.

    A 41-point geometric grid (factor 4 around ``init.lam`` or the
    median / sqrt(3)) brackets the profile maximum; the profile score at
    the grid's argmax and at one neighbour picks the half-cell where the
    score falls from + to -, and Brent's method finds the root there.
    When two stationary points share the argmax's cell and neither
    half-cell changes sign, a second 41-point grid over that cell picks
    the half-cell instead; if it fails too the fit raises
    :class:`FitError`. All passes share one per-sample kernel; each grid
    is evaluated in one broadcast pass per row block, with the same
    values :func:`profile_log_likelihood` gives point by point. Data
    whose range puts the grid or a profile value outside the
    floating-point range raise :class:`FitError`. ``iterations`` counts
    the grid points, the two half-cell score probes, the finer grid's
    points and probes when it is used, and Brent's score evaluations.
    Standard errors are the square roots of the diagonal of the inverse
    expected information divided by n.

    Where the profile is flat to double precision (a shape estimate near
    1e4 or more, as the scale approaches the scale -> 0 boundary), the
    score is rounding noise across a band of relative width about 1e-6,
    so which point of that band is returned depends on the root finder.
    The boundary check against the grid's tiny-scale end is strict, with
    no tolerance, so such a stationary point still counts as interior.
    """
    x = data.values
    n = data.n
    if n < 2 or float(np.min(x)) == float(np.max(x)):
        raise FitError("need at least two distinct observations to fit")

    kernel = _Kernel(x)
    center = init.lam if init is not None else float(np.median(x)) / math.sqrt(3.0)
    with np.errstate(over="ignore", under="ignore"):
        grid = center * 4.0 ** np.arange(-20.0, 21.0)
    if not (np.all(np.isfinite(grid)) and grid[0] > 0.0):
        raise FitError("the scale grid leaves the floating-point range: the data span too many "
                       "orders of magnitude")
    values = kernel.profile_grid(grid)
    if not all(map(math.isfinite, values)):
        raise FitError("the profile log-likelihood is not finite on the scale grid")
    k = int(np.argmax(values))
    iterations = grid.size
    if k == 0 or k == grid.size - 1:
        side = "(shape -> inf, scale -> 0)" if k == 0 else "(scale -> inf)"
        raise FitError(
            f"no interior likelihood maximum: the profile increases toward the {side} boundary",
            best=_best_ml(kernel, float(grid[k]), iterations),
        )

    # The profile score runs -/+/- in lam, the maximum being its second
    # root, so the score at grid[k] picks the half-cell on the maximum's
    # side. Two stationary points can share one factor-4 cell (the score
    # runs +/-/+ inside it); a finer grid over the cell then separates them.
    bracket = _score_half_cell(kernel, grid, k)
    iterations += 2
    if bracket is None:
        fine = np.geomspace(grid[k - 1], grid[k + 1], grid.size)
        fine_values = kernel.profile_grid(fine)
        k = int(np.argmax(fine_values))
        iterations += fine.size
        if 0 < k < fine.size - 1:
            bracket = _score_half_cell(kernel, fine, k)
            iterations += 2
        if bracket is None:
            raise FitError(
                "profile score has no bracketed root near the profile maximum",
                best=_best_ml(kernel, float(fine[k]), iterations),
            )
    lo, hi = bracket
    lam, calls, converged = _brent_root(kernel.score, lo, hi)
    iterations += calls

    # Stationary but not the global optimum: the likelihood can still be
    # higher at the scale -> 0 boundary (the family degenerates to an
    # inverse-exponential limit there, where no interior MLE exists).
    if values[0] > kernel.profile(lam):
        raise FitError(
            "no interior likelihood maximum: the (shape -> inf, scale -> 0) "
            "boundary dominates the stationary point",
            best=_best_ml(kernel, lam, iterations),
        )

    result = _ml_result(kernel, lam, iterations, converged)
    if not converged:
        raise FitError("profile search did not converge", best=result)
    return result


def _ml_result(kernel: _Kernel, lam: float, iterations: int, converged: bool) -> FitResult:
    """The ML fit at scale ``lam``: profile shape and log-likelihood from
    one kernel pass, bit-equal to :func:`profile_beta` and
    :func:`log_likelihood`."""
    sum_log_s, sum_log_u = kernel.log_sums(lam)
    params = Params(-kernel.n / sum_log_u, lam)
    return FitResult(
        params=params,
        std_errors=asymptotic_std_errors(params, kernel.n),
        loglik=_log_likelihood_from_sums(kernel, params, sum_log_s, sum_log_u),
        method="ml",
        iterations=iterations,
        converged=converged,
        n=kernel.n,
    )


def _best_ml(kernel: _Kernel, lam: float, iterations: int) -> FitResult | None:
    """The unconverged fit at ``lam`` a :class:`FitError` carries, or None
    where that scale admits no valid parameters or their standard errors
    overflow."""
    try:
        return _ml_result(kernel, lam, iterations, False)
    except (ValueError, OverflowError):
        return None


def fit_cr(data: Dataset) -> FitResult:
    """ML fit of the CR submodel (shape pinned at 1).

    The scale score n/lam - 3 lam sum 1/s^2 is monotone, so the root is
    bracketed on [1e-6 min x, 1e3 max x] and found by Brent's method;
    ``iterations`` counts its score evaluations and ``converged`` is its
    verdict. The shape entry of ``std_errors`` is 0 because beta is not
    estimated.
    """
    x = data.values
    n = data.n

    def g(lam: float) -> float:
        return n / lam - 3.0 * _inverse_sums(lam, np.hypot(lam, x))[1]

    lo = float(np.min(x)) * 1e-6
    hi = float(np.max(x)) * 1e3
    if not (g(lo) > 0.0 > g(hi)):
        raise FitError("CR scale score has no bracketed root")
    lam, iterations, converged = _brent_root(g, lo, hi)
    params = Params(1.0, lam)
    # Expected information for the single scale parameter: 4n/(5 lam^2).
    se = lam / math.sqrt(0.8 * n)
    return FitResult(
        params=params,
        std_errors=(0.0, se),
        loglik=log_likelihood(data, params),
        method="ml",
        iterations=iterations,
        converged=converged,
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
    inverse information, its derivatives, and the third cumulants.
    """
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
    bias_l = (
        lam
        * (
            8.0 * b
            + 86.0
            + 49.0 / (270.0 * b)
            - 1679616.0 / (96605.0 * (b + 5.0))
            + 80000.0 / (1083.0 * (b + 6.0))
            - 8.0 * (84037561.0 * b**2 + 21509105.0 * b - 393761162.0) / (7923.0 * q**2)
            + (356431397749.0 * b**2 - 158970444943.0 * b - 4636191041858.0)
            / (376643574.0 * q)
        )
        / n
    )
    return bias_b, bias_l


def cox_snell_bias_generic(p: Params, n: int) -> tuple[float, float]:
    """Generic cumulant-based bias sum

        bias_i = sum_{r,s,t} kappa^{i r} kappa^{s t}
                 (d kappa_{r s}/d theta_t - kappa_{r s t}/2),

    assembled from the inverse information, the information derivatives,
    and the third cumulants. Used as an internal oracle for the closed
    forms above.
    """
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
    if beta_hat <= 0:
        raise ValueError("beta_hat must be positive")
    return beta_hat / n


def bias_known_beta(lambda_hat: float, beta0: float, n: int) -> float:
    """Second-order scale bias when the shape is pinned at beta0:

    (lam/n) * [(b+2)(b+3)(b+4) / (b (b+5)(b+6))]
            * [(b^4 + 24 b^3 + 216 b^2 + 761 b + 294) / (b^2 + 11 b + 36)^2].
    """
    if lambda_hat <= 0 or beta0 <= 0:
        raise ValueError("lambda_hat and beta0 must be positive")
    b = beta0
    factor = (b + 2.0) * (b + 3.0) * (b + 4.0) / (b * (b + 5.0) * (b + 6.0))
    ratio = (b**4 + 24.0 * b**3 + 216.0 * b**2 + 761.0 * b + 294.0) / (
        b**2 + 11.0 * b + 36.0
    ) ** 2
    return lambda_hat / n * factor * ratio


def cr_bias(lambda_hat: float, n: int) -> float:
    """Second-order scale bias of the CR (beta = 1) ML estimator: 45 lam / (56 n)."""
    if lambda_hat <= 0:
        raise ValueError("lambda_hat must be positive")
    return 45.0 * lambda_hat / (56.0 * n)


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


class _Positions(NamedTuple):
    """Plotting positions p_i with log p_i and x_(i) log p_i for a sorted
    sample, which :func:`fit_pb` computes once per fit."""

    p: np.ndarray
    log_p: np.ndarray
    xs_log_p: np.ndarray


def _positions(xs: np.ndarray, ps: np.ndarray) -> _Positions:
    log_p = np.log(ps)
    return _Positions(ps, log_p, xs * log_p)


def _pb_pieces(beta, xs: np.ndarray, ps):
    """Sorted-sample sums behind the percentile objective derivatives.

    ``beta`` is a float or a (k, 1) column of shapes; the sums run along
    the last axis, giving one value per shape. ``ps`` is the positions
    array or its :class:`_Positions`.
    """
    p, log_p, xs_log_p = ps if isinstance(ps, _Positions) else _positions(xs, ps)
    w = p ** (1.0 / beta)
    one_minus = 1.0 - w
    one_minus_sq = one_minus**2
    two_minus = 2.0 - w
    d_shape_quad = (w * log_p / one_minus**3).sum(axis=-1)
    d_shape_cross = (xs_log_p / one_minus_sq * np.sqrt(w / two_minus)).sum(axis=-1)
    cross = -(xs * np.sqrt(two_minus * w) / one_minus).sum(axis=-1)
    quad = xs.size - (1.0 / one_minus_sq).sum(axis=-1)
    return d_shape_quad, d_shape_cross, cross, quad


def _pb_grid(betas: np.ndarray, xs: np.ndarray, ps):
    """Root values t6 t8 - t7 t9 and scales lam2 = t8/t9 at every shape of
    ``betas``, from one broadcast pass per row block; lam2 is inf or NaN
    where t9 vanishes."""
    blocks = [_pb_pieces(col, xs, ps) for col in _row_blocks(betas, xs.size)]
    t6, t7, t8, t9 = (np.concatenate(parts) for parts in zip(*blocks))
    with np.errstate(divide="ignore", invalid="ignore"):
        return t6 * t8 - t7 * t9, t8 / t9


def _pb_roots(betas: np.ndarray, xs: np.ndarray, ps) -> np.ndarray:
    """The root values of :func:`_pb_grid` alone, as the bisection needs,
    without joining blocks when there is only one."""
    roots = []
    for col in _row_blocks(betas, xs.size):
        t6, t7, t8, t9 = _pb_pieces(col, xs, ps)
        roots.append(t6 * t8 - t7 * t9)
    return roots[0] if len(roots) == 1 else np.concatenate(roots)


def _pb_objectives(betas: np.ndarray, lams: np.ndarray, xs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """:func:`pb_objective` at every (beta, lam) pair, to the bit, from one
    broadcast pass per row block; inf where lam is not positive and
    finite, as :func:`fit_pb` scores such a pair."""
    out = np.full(betas.size, math.inf)
    admissible = np.isfinite(lams) & (lams > 0.0)
    sums = []
    for beta_col, lam_col in zip(_row_blocks(betas[admissible], xs.size),
                                 _row_blocks(lams[admissible], xs.size)):
        w = ps ** (1.0 / beta_col)
        model = lam_col * np.sqrt((2.0 - w) * w) / (1.0 - w)
        sums.append(((model - xs) ** 2).sum(axis=-1))
    if sums:
        out[admissible] = np.concatenate(sums)
    return out


# Points one bisection pass may evaluate: 2^d - 1 tree points per active
# bracket at depth d, each a row of the sample's size. Small enough that
# a pass stays one row block and cheap next to numpy's per-call overhead.
_BISECT_ELEMENTS = _BLOCK_ELEMENTS // 8
_BISECT_MAX_DEPTH = 6


def _sign_changes(values: np.ndarray) -> np.ndarray:
    """Indices j where values j and j+1 have strictly opposite signs."""
    return np.nonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0)[0]


def _bisect_brackets(root_values, lo: np.ndarray, hi: np.ndarray, f_lo: np.ndarray,
                     row_size: int = 1):
    """Geometric bisection of the sign-change brackets [lo_j, hi_j] together.

    ``root_values`` maps an array of points to root-function values, at
    a cost of ``row_size`` elements per point. Each bracket stops on its
    own: at an exact zero, once its width is at most _STEP_TOL * hi, or
    after _MAX_ITER steps. One pass evaluates the next d levels of every
    active bracket's bisection tree: its 2^d - 1 midpoints, each the
    sqrt(lo hi) of the sub-bracket bisection would hold there. Each
    bracket then walks down its tree with the sign test against its
    starting f_lo, so the points visited, and the result, are those of
    one-level-per-pass bisection. d is the largest depth up to
    _BISECT_MAX_DEPTH whose points fit in _BISECT_ELEMENTS. Returns the
    bracket midpoints sqrt(lo hi) and the levels walked by all brackets.
    """
    lo, hi = lo.tolist(), hi.tolist()
    # lo moves only on a step whose value tests like f_lo, so f_lo > 0
    # never changes and the sign test needs only its starting value.
    positive = (f_lo > 0).tolist()
    active = list(range(len(lo)))
    level = steps = 0
    while active and level < _MAX_ITER:
        budget = _BISECT_ELEMENTS // (len(active) * row_size)
        depth = max(1, min(_BISECT_MAX_DEPTH, (budget + 1).bit_length() - 1, _MAX_ITER - level))
        points = []
        for j in active:
            # Level by level, the sub-brackets are the consecutive pairs of
            # the sorted edges, so points come out breadth-first: the
            # children of tree point i are points 2i+1 and 2i+2.
            edges = [lo[j], hi[j]]
            for _ in range(depth):
                mids = [math.sqrt(a * b) for a, b in zip(edges, edges[1:])]
                points += mids
                edges[1:] = [e for pair in zip(mids, edges[1:]) for e in pair]
        values = root_values(np.array(points)).tolist()
        still = []
        for offset, j in zip(range(0, len(points), 2**depth - 1), active):
            a, b, up_sign, node = lo[j], hi[j], positive[j], offset
            for walked in range(1, depth + 1):
                mid, f_mid = points[node], values[node]
                if f_mid == 0.0:
                    a = b = mid
                    break
                if (f_mid > 0) == up_sign:
                    a = mid
                    node += node - offset + 2
                else:
                    b = mid
                    node += node - offset + 1
                if b - a <= _STEP_TOL * b:
                    break
            else:
                still.append(j)
            lo[j], hi[j] = a, b
            steps += walked
        active = still
        level += depth
    return np.sqrt(np.array(lo) * np.array(hi)), steps


def pb_objective(data: Dataset, p: Params) -> float:
    """Sum of squared distances between sample and model percentiles,
    with mean-rank positions p_i = i/(n+1)."""
    xs = data.sorted_values
    n = data.n
    ps = np.arange(1, n + 1) / (n + 1.0)
    w = ps ** (1.0 / p.beta)
    model = p.lam * np.sqrt((2.0 - w) * w) / (1.0 - w)
    return float(np.sum((model - xs) ** 2))


def pb_gradient(data: Dataset, p: Params) -> tuple[float, float]:
    """Analytic gradient of :func:`pb_objective`."""
    xs = data.sorted_values
    ps = np.arange(1, data.n + 1) / (data.n + 1.0)
    t6, t7, t8, t9 = _pb_pieces(p.beta, xs, ps)
    d_beta = 2.0 * p.lam / p.beta**2 * (t7 - p.lam * t6)
    d_lam = 2.0 * (t8 - p.lam * t9)
    return float(d_beta), float(d_lam)


def fit_pb(data: Dataset) -> FitResult:
    """Percentile-based estimation.

    Both stationarity conditions give a scale estimate that is closed
    in the shape: lam1 = t7/t6 and lam2 = t8/t9. The shape solves
    t6 t8 = t7 t9, located by sign change on a logarithmic grid over
    [1e-3, 1e3] and bisection; with several candidate roots the one with
    the smallest objective wins. A shape whose lam2 is not positive and
    finite scores an infinite objective; if the chosen shape has no
    admissible scale the fit raises :class:`FitError`.

    If the grid shows no sign change, the profile objective (with lam2
    substituted) is scored on it. A minimum at a grid end raises
    :class:`FitError`; an interior one at grid[k] points to two roots in
    one grid cell, so a 41-point grid over [grid[k-1], grid[k+1]]
    supplies the sign-change brackets instead, and the fit raises
    :class:`FitError` if it shows none either.

    Each grid, and the objectives of the root candidates, is evaluated in
    one broadcast pass per row block. All sign-change brackets are
    bisected together, several levels per pass (see
    :func:`_bisect_brackets`), each with its own stopping rule.
    ``iterations`` counts the 241 grid points, the 241 objective points
    and 41 finer-grid points when the grid has no sign change, and the
    bisection steps.
    """
    xs = data.sorted_values
    n = data.n
    if n < 2 or xs[0] == xs[-1]:
        raise FitError("need at least two distinct observations to fit")
    positions = _positions(xs, np.arange(1, n + 1) / (n + 1.0))

    grid = np.logspace(-3.0, 3.0, 241)
    vals, grid_lams = _pb_grid(grid, xs, positions)
    iterations = grid.size

    sign_change = _sign_changes(vals)
    if not sign_change.size:
        # An interior objective minimum without a sign change points to two
        # roots in one grid cell; a finer grid over the cell separates them.
        k = int(np.argmin(_pb_objectives(grid, grid_lams, xs, positions.p)))
        iterations += grid.size
        if 0 < k < grid.size - 1:
            grid = np.geomspace(grid[k - 1], grid[k + 1], 41)
            vals = _pb_roots(grid, xs, positions)
            iterations += grid.size
            sign_change = _sign_changes(vals)
        if not sign_change.size:
            raise FitError("percentile objective has no interior minimum")
    # Bisection rather than Brent's method: its points are known levels
    # ahead, so the brackets share one batched pass per few steps, and
    # Brent's iterates move fits in the noisy beta < 1e-2 region far from
    # where bisection lands.
    roots, steps = _bisect_brackets(
        lambda betas: _pb_roots(betas, xs, positions),
        grid[sign_change], grid[sign_change + 1], vals[sign_change], n,
    )
    iterations += steps
    root_lams = _pb_grid(roots, xs, positions)[1]
    scores = _pb_objectives(roots, root_lams, xs, positions.p)
    _, beta, lam = min(zip(scores.tolist(), roots.tolist(), root_lams.tolist()))
    if lam <= 0.0 or not math.isfinite(lam):
        raise FitError("percentile scale estimate left the parameter space")
    params = Params(beta, lam)
    return FitResult(
        params=params,
        std_errors=None,
        loglik=log_likelihood(data, params),
        method="pb",
        iterations=iterations,
        converged=True,
        n=n,
    )


# ---------------------------------------------------------------------------
# Intervals and tests


def confidence_intervals(
    fit: FitResult, level: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Wald intervals theta_i +/- z_(1+level)/2 * se_i, floored at 0."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level!r}")
    if fit.std_errors is None:
        raise ValueError("fit carries no standard errors")
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
    full = fit_ml(data)
    nested = fit_cr(data)
    stat = max(0.0, 2.0 * (full.loglik - nested.loglik))
    p_value = float(erfc(math.sqrt(stat / 2.0)))
    return stat, p_value
