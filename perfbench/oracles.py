"""Reference computations the benchmark checks ecrlab's outputs against.

Nothing here imports ecrlab. Every check re-derives its answer from the
model's formulas with numpy, scipy and mpmath, so a defect on the timed
path cannot also hide in its oracle. Each check returns ``None`` when the
output passes and a one-line reason when it does not.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import optimize, special

# Survival times (days) of the 66 Stanford heart-transplant patients of
# Crowley & Hu (1977), and the reference values the application study
# publishes for them.
CROWLEY_HU = (
    1, 1, 2, 2, 2, 4, 4, 5, 5, 7, 8,
    11, 15, 15, 15, 16, 17, 20, 20, 27, 29, 31,
    34, 35, 36, 38, 39, 42, 44, 49, 50, 52, 57,
    60, 65, 67, 67, 68, 71, 71, 76, 77, 79, 80,
    84, 89, 95, 99, 101, 109, 148, 152, 187, 206, 218,
    262, 284, 284, 307, 333, 339, 674, 732, 851, 1031, 1386,
)
CH_ECR_ML = (0.38669, 80.68399)  # (beta, lambda), compared to 1e-3 relative
CH_DESCRIBE = {  # statistic: (value, absolute tolerance)
    "n": (66, 0), "mean": (143.70, 0.02), "median": (58.50, 0.005),
    "variance": (64506.42, 0.01), "min": (1.0, 0.0), "max": (1386.0, 0.0),
}
CH_SKEW_KURT = (3.104648, 13.00242)  # moment convention, to 1e-4
# model: (W*, A*, KS, AIC, CAIC, BIC, HQIC)
CH_GOF = {
    "ecr": (0.039, 0.286, 0.057, 764.612, 764.803, 768.992, 766.343),
    "cr": (0.213, 1.254, 0.132, 785.023, 785.085, 787.212, 785.888),
    "weibull": (0.114, 0.689, 0.118, 767.444, 767.635, 771.824, 769.175),
    "gamma": (0.195, 1.172, 0.159, 772.658, 772.849, 777.037, 774.389),
    "lognormal": (0.102, 0.579, 0.089, 764.915, 765.105, 769.294, 766.645),
    "ee": (0.210, 1.261, 0.168, 773.709, 773.900, 778.088, 775.440),
}
GOF_FIELDS = ("wstar", "astar", "ks", "aic", "caic", "bic", "hqic")
GOF_TOL = (5e-3, 5e-3, 5e-3, 0.02, 0.02, 0.02, 0.02)

ML_RTOL = 1e-6  # parameter agreement with the independent optimum
PB_GRAD_TOL = 1e-6  # normalized percentile-objective gradient
MOMENT_RTOL = 1e-8  # closed-form moment against quadrature
UNIFORM_CLIP = 1e-15  # documented clamp of the uniform draws
BOUNDARY_SCAN_POINTS = 4000  # profile points of the fine scan in classify_boundary


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# ECR formulas


def ecr_quantile(u, beta: float, lam: float):
    log_w = np.log(u) / beta
    w = np.exp(log_w)
    return lam * np.sqrt(w * (2.0 - w)) / -np.expm1(log_w)


def ecr_cdf(x, beta: float, lam: float):
    s = np.hypot(lam, x)
    return (x * x / (s * (s + lam))) ** beta


def ecr_draws(rng: np.random.Generator, n: int, beta: float, lam: float) -> np.ndarray:
    """Inverse-transform draws as documented: clamped uniforms pushed
    through the closed-form quantile."""
    u = np.clip(rng.random(n), UNIFORM_CLIP, 1.0 - UNIFORM_CLIP)
    return ecr_quantile(u, beta, lam)


def study_draws(master_seed: int, cell: int, rep: int, n: int, beta: float, lam: float):
    """The data of replication ``rep`` of study cell ``cell``, from the
    documented ``SeedSequence(master_seed, spawn_key=(cell, rep))`` stream."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(cell, rep))
    return ecr_draws(np.random.default_rng(seq), n, beta, lam)


def _log_u(x, lam):
    s = np.hypot(lam, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        low = 2.0 * np.log(x) - np.log(s) - np.log(s + lam)
        high = np.log1p(-lam / s)
    return s, np.where(x < lam, low, high)


def ecr_loglik(x: np.ndarray, beta: float, lam: float) -> float:
    s, log_u = _log_u(x, lam)
    return float(x.size * math.log(beta * lam) + np.sum(np.log(x)) - 3.0 * np.sum(np.log(s))
                 + (beta - 1.0) * np.sum(log_u))


def _neg_loglik_log_params(theta, x):
    """-l/n and its gradient in (log beta, log lambda)."""
    beta, lam = math.exp(theta[0]), math.exp(theta[1])
    n = x.size
    s, log_u = _log_u(x, lam)
    value = ecr_loglik(x, beta, lam)
    d_beta = n / beta + float(np.sum(log_u))
    d_lam = n / lam + (1.0 - beta) * float(np.sum(1.0 / s)) - (beta + 2.0) * lam * float(np.sum(1.0 / (s * s)))
    return -value / n, -np.array([beta * d_beta, lam * d_lam]) / n


def ml_optimum(x: np.ndarray, start: tuple[float, float]):
    """BFGS on the full two-parameter log-likelihood from ``start``;
    returns (beta, lambda, loglik, converged)."""
    res = optimize.minimize(_neg_loglik_log_params, np.log(start), args=(x,), jac=True,
                            method="BFGS", options={"gtol": 1e-11, "maxiter": 400})
    beta, lam = (float(v) for v in np.exp(res.x))
    interior = all(math.isfinite(v) and 1e-12 < v < 1e12 for v in (beta, lam))
    grad_ok = float(np.max(np.abs(res.jac))) < 1e-7
    return beta, lam, -float(res.fun) * x.size, bool(interior and grad_ok)


def check_ml(x: np.ndarray, est: tuple[float, float], truth: tuple[float, float]) -> str | None:
    """The estimate must be a stationary maximum of the full likelihood,
    and no interior maximum reached from the truth may beat it."""
    beta, lam, _, _ = ml_optimum(x, est)
    if not max(rel_err(est[0], beta), rel_err(est[1], lam)) <= ML_RTOL:
        return f"ML {est} is not the local optimum ({beta:.10g}, {lam:.10g})"
    b2, l2, ll2, converged = ml_optimum(x, truth)
    own = ecr_loglik(x, *est)
    if converged and ll2 > own + 1e-9 * abs(own) + 1e-9:
        return f"ML {est} (loglik {own:.12g}) misses an interior maximum ({b2:.6g}, {l2:.6g}) with loglik {ll2:.12g}"
    return None


def check_csml(ml: tuple[float, float], csml: tuple[float, float] | None, bias: tuple[float, float]) -> str | None:
    """``csml`` is None for an outcome the engine reported uncorrectable."""
    corrected = (ml[0] - bias[0], ml[1] - bias[1])
    if csml is None:
        if min(corrected) > 0.0:
            return f"csml marked uncorrectable but ML - bias = {corrected} is admissible"
        return None
    if not max(rel_err(csml[0], corrected[0]), rel_err(csml[1], corrected[1])) <= 1e-9:
        return f"csml {csml} differs from ML - generic Cox-Snell bias {corrected}"
    return None


def pb_gradient(xs_sorted: np.ndarray, beta: float, lam: float) -> tuple[float, float]:
    """Gradient of the percentile objective in (log beta, log lambda),
    normalized by twice the sum of squared model percentiles."""
    n = xs_sorted.size
    p = np.arange(1, n + 1) / (n + 1.0)
    w = p ** (1.0 / beta)
    h = np.sqrt(w * (2.0 - w))
    model = lam * h / (1.0 - w)
    resid = model - xs_sorted
    # dm/dw * w, written so that w underflowing to 0 stays finite
    w_dg_dw = np.sqrt(w / (2.0 - w)) + w * h / (1.0 - w) ** 2
    dm_dlogbeta = lam * w_dg_dw * (-np.log(p) / beta)
    scale = 2.0 * float(np.sum(model * model))
    return (2.0 * float(np.sum(resid * dm_dlogbeta)) / scale,
            2.0 * float(np.sum(resid * model)) / scale)


def check_pb(x: np.ndarray, est: tuple[float, float]) -> str | None:
    grad = pb_gradient(np.sort(x), *est)
    if not max(abs(g) for g in grad) <= PB_GRAD_TOL:
        return f"pb {est} is not stationary: normalized gradient {grad}"
    return None


def profile_loglik(x: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Profile log-likelihood l(beta(lam), lam) for a vector of scales."""
    n = x.size
    lam = lams[:, None]
    s, log_u = _log_u(x[None, :], lam)
    sum_log_u = np.sum(log_u, axis=1)
    return (n * (np.log(-n * lams / sum_log_u) - 1.0) + float(np.sum(np.log(x)))
            - 3.0 * np.sum(np.log(s), axis=1) - sum_log_u)


def classify_boundary(x: np.ndarray) -> tuple[str, float, float]:
    """Split a 'no interior likelihood maximum' failure in two.

    The fitter compares against the profile at its grid ends,
    median/sqrt(3) * 4**(+-20). A fine scan between them, refined around
    its best interior point, either finds an interior maximum above the
    boundary value ("spurious": the coarse grid stepped over it) or not
    ("genuine"). Returns (kind, interior best, boundary best).
    """
    center = float(np.median(x)) / math.sqrt(3.0)
    ends = np.array([center * 4.0 ** -20, center * 4.0 ** 20])
    boundary = float(np.max(profile_loglik(x, ends)))
    grid = center * np.exp(np.linspace(-20 * math.log(4.0), 20 * math.log(4.0), BOUNDARY_SCAN_POINTS))
    values = profile_loglik(x, grid)
    k = int(np.nanargmax(values[1:-1])) + 1
    res = optimize.minimize_scalar(lambda t: -profile_loglik(x, np.array([math.exp(t)]))[0],
                                   bounds=(math.log(grid[k - 1]), math.log(grid[k + 1])),
                                   method="bounded", options={"xatol": 1e-12})
    interior = max(float(values[k]), -float(res.fun))
    return ("spurious" if interior > boundary + 1e-9 * abs(boundary) else "genuine"), interior, boundary


# ---------------------------------------------------------------------------
# Moments by quadrature in u = F^(1/beta), where x = lam sqrt(u(2-u))/(1-u)


def _quad(f, a: float, c: float, upper=1) -> float:
    """int_0^upper f(u, 1 - u) du for f ~ u^a at 0 and, when upper is 1,
    f ~ (1-u)^c at 1 (a, c > -1). Substituting u = m v^(1/(a+1)) and
    1 - u = t^(1/(c+1)) / 2 turns both endpoint powers into constants, so
    tanh-sinh quadrature converges to full precision; f receives 1 - u
    separately because it is the small quantity near u = 1."""
    with mpmath.workdps(30):
        upper = mpmath.mpf(upper)
        m = min(upper, mpmath.mpf(0.5))
        k = 1 / mpmath.mpf(a + 1)

        def head(v):
            u = m * v ** k
            return f(u, 1 - u) * m * k * v ** (k - 1)

        total = mpmath.quad(head, [0, 1])
        if upper == 1:
            j = 1 / mpmath.mpf(c + 1)

            def tail(t):
                q = t ** j / 2
                return f(1 - q, q) * j / 2 * t ** (j - 1)

            total += mpmath.quad(tail, [0, 1])
        elif upper > m:
            total += mpmath.quad(lambda u: f(u, 1 - u), [m, upper])
        return float(total)


def moment_reference(kind: str, beta: float, lam: float, **k) -> float:
    """kind: raw(r), pwm(s, r, t), log(), incomplete(r, x0), order(i, n, r)."""
    b, lm = mpmath.mpf(beta), mpmath.mpf(lam)

    def x_of(u, q):
        return lm * mpmath.sqrt(u * (1 + q)) / q

    def dens(u):
        return b * u ** (b - 1)

    def sf(q):  # 1 - F = 1 - u^beta
        return -mpmath.expm1(b * mpmath.log1p(-q))

    if kind == "raw":
        r = k["r"]
        return _quad(lambda u, q: x_of(u, q) ** r * dens(u), beta - 1 + r / 2, -r)
    if kind == "pwm":
        s, r, t = k["s"], k["r"], k["t"]
        return _quad(lambda u, q: x_of(u, q) ** r * u ** (b * s) * sf(q) ** t * dens(u),
                     beta * (s + 1) - 1 + r / 2, t - r)
    if kind == "log":
        return _quad(lambda u, q: mpmath.log(x_of(u, q)) * dens(u), beta - 1, 0.0)
    if kind == "incomplete":
        r, x0 = k["r"], mpmath.mpf(k["x0"])
        u0 = 1 - lm / mpmath.sqrt(lm * lm + x0 * x0)
        return _quad(lambda u, q: x_of(u, q) ** r * dens(u), beta - 1 + r / 2, 0.0, u0)
    if kind == "order":
        i, n, r = k["i"], k["n"], k["r"]
        norm = mpmath.beta(i, n - i + 1)
        return _quad(lambda u, q: x_of(u, q) ** r * u ** (b * (i - 1)) * sf(q) ** (n - i) * dens(u) / norm,
                     beta * i - 1 + r / 2, n - i - r)
    raise ValueError(f"unknown moment kind {kind!r}")


def check_moment(value: float, reference: float) -> str | None:
    if not rel_err(value, reference) <= MOMENT_RTOL:
        return f"value {value!r} differs from quadrature {reference!r}"
    return None


# ---------------------------------------------------------------------------
# Comparison-model cdfs and the command-line contract


def model_cdf(model: str, params: dict, x: np.ndarray) -> np.ndarray:
    if model == "ecr":
        return ecr_cdf(x, params["beta"], params["lambda"])
    if model == "cr":
        return ecr_cdf(x, 1.0, params["lambda"])
    if model == "weibull":
        return -np.expm1(-((x / params["scale"]) ** params["shape"]))
    if model == "gamma":
        return special.gammainc(params["shape"], x / params["scale"])
    if model == "lognormal":
        return special.ndtr((np.log(x) - params["mu"]) / params["sigma"])
    if model == "ee":
        return (-np.expm1(-params["rate"] * x)) ** params["shape"]
    raise ValueError(f"unknown model {model!r}")


def ks_distance(x: np.ndarray, cdf_values: np.ndarray) -> float:
    z = np.sort(cdf_values)
    n = x.size
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(i / n - z, z - (i - 1) / n)))


def check_gof_report(x: np.ndarray, report: dict) -> str | None:
    """Information criteria from the log-likelihood, and KS from the
    reported parameters through this module's own cdfs."""
    n, k, ll = x.size, report["k"], report["loglik"]
    expect = {"aic": -2 * ll + 2 * k, "bic": -2 * ll + k * math.log(n),
              "hqic": -2 * ll + 2 * k * math.log(math.log(n))}
    for name, value in expect.items():
        if not rel_err(report[name], value) <= 1e-9:
            return f"{report['model']}: {name} {report[name]} != {value}"
    ks = ks_distance(x, model_cdf(report["model"], report["params"], np.sort(x)))
    if not abs(report["ks"] - ks) <= 1e-9:
        return f"{report['model']}: KS {report['ks']} != {ks}"
    return None


def cr_scale(x: np.ndarray) -> float:
    """CR (beta = 1) ML scale: the root of n/lam = 3 lam sum 1/(lam^2 + x^2)."""
    return optimize.brentq(lambda lam: x.size / lam - 3.0 * lam * float(np.sum(1.0 / (lam * lam + x * x))),
                           float(np.min(x)) * 1e-6, float(np.max(x)) * 1e3, xtol=1e-14, rtol=1e-15)


def check_exit(expected: frozenset[int], got) -> str | None:
    """``got`` is the return of main(), or the name of what it raised."""
    if isinstance(got, int) and not isinstance(got, bool) and got in expected:
        return None
    return f"exit {got!r}, documented {sorted(expected)}"
