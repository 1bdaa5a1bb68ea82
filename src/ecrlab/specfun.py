"""Special-function kernel backing the closed-form moment expressions.

Everything here is real-valued, pure and deterministic. The gamma family
is backed by the standard library and scipy: ``log_gamma`` by
``math.lgamma`` and ``digamma`` by ``scipy.special.digamma``, with
``gamma_fn`` and ``beta_fn`` built on ``log_gamma``. Every series obeys
one bound, |term| <= ``_REL_TOL`` (|partial sum| + ``_TINY``), that is
1e-14 (|sum| + 1e-300): it stops at the third consecutive term within
it, which keeps alternating series from stopping on an accidentally tiny
term, and raises :class:`ConvergenceError` if it has not stopped within
``_MAX_TERMS`` (10,000) terms. The one difference is ``appell_f1``'s
inner row in n, which stops at its first term within the bound. One
engine, ``_series_lanes``, sums a row of 2F1-type series in a numpy
block, one lane per series, with every term and partial sum formed by
sequential accumulation in the order of a term loop, so each lane equals
that loop to the bit. It sums ``appell_f1``'s rows, a block at a time,
and, through ``_gauss_2f1_lanes``, the 2F1 factors of the moments' wide
binomial sums (``ecr._moment_sum`` from 4 terms on). A second helper,
``_binomial_product_sum``, sums a power series of (1 - x)^p (1 - y x)^q
against weights, its coefficients a convolution of two cumulative
products in one numpy block; it carries the two series of
``ecr.incomplete_moment`` in v = lam/s, under the same three-term rule.
Series evaluators can report how many terms they consumed via
``full_output=True``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EcrlabError, FloatRangeError, InputError, _positive

__all__ = [
    "EULER_GAMMA",
    "ConvergenceError",
    "log_gamma",
    "gamma_fn",
    "beta_fn",
    "digamma",
    "gauss_2f1",
    "appell_f1",
    "lerch_phi_half",
]

EULER_GAMMA = 0.5772156649015328606065120900824024

# Above this x the Appell double series degrades and the integral
# representation is integrated numerically instead. ecr.incomplete_moment
# reaches it only at shapes and orders its series in v do not cover.
_F1_QUAD_SWITCH = 0.95

# The series truncation policy (see the module docstring).
_REL_TOL = 1e-14
_TINY = 1e-300
_MAX_TERMS = 10_000

# appell_f1 takes its rows in blocks of about this many terms at the
# block's first width (rows that need more columns widen on their own).
_BLOCK_ELEMENTS = 2**13


class ConvergenceError(EcrlabError, ArithmeticError):
    """A series failed to settle within its term budget."""

    def __init__(self, message: str, partial: float, terms: int):
        super().__init__(f"{message} (partial sum {partial!r} after {terms} terms)")
        self.partial = partial
        self.terms = terms


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0, by ``math.lgamma``. Above about 2.5e305 the
    value leaves the float range, and a :class:`FloatRangeError` names x."""
    x = _positive("x", x)
    try:
        return math.lgamma(x)
    except OverflowError:
        raise FloatRangeError(f"log_gamma({x!r}) overflows the floating-point range") from None


def gamma_fn(x: float) -> float:
    """Gamma(x) = exp(log_gamma(x)) for x > 0."""
    return math.exp(log_gamma(x))


def beta_fn(a: float, b: float) -> float:
    """B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b), evaluated in log space."""
    a, b = _positive("a", a), _positive("b", b)
    return math.exp(log_gamma(a) + log_gamma(b) - log_gamma(a + b))


def digamma(x: float) -> float:
    """psi(x) = d/dx ln Gamma(x) for x > 0, by ``scipy.special.digamma``."""
    from scipy.special import digamma as scipy_digamma

    return float(scipy_digamma(_positive("x", x)))


def gauss_2f1(a: float, b: float, c: float, z: float, *, full_output: bool = False):
    """Gauss hypergeometric 2F1(a, b; c; z) for z in [0, 1).

    Sums sum_{n>=0} (a)_n (b)_n / (c)_n * z^n / n! with terms built by
    recurrence. Only the real series domain needed by the moment
    formulas is supported; there is no analytic continuation.
    """
    if c <= 0.0 and c == math.floor(c):
        raise InputError(f"c must not be a non-positive integer, got {c!r}")
    if not 0.0 <= z < 1.0:
        raise InputError(f"z must lie in [0, 1), got {z!r}")
    total = 1.0
    term = 1.0
    settled = 0
    for n in range(1, _MAX_TERMS + 1):
        term *= (a + n - 1.0) * (b + n - 1.0) / ((c + n - 1.0) * n) * z
        total += term
        if abs(term) <= _REL_TOL * (abs(total) + _TINY):
            settled += 1
            if settled >= 3:
                return (total, n) if full_output else total
        else:
            settled = 0
    raise ConvergenceError("gauss_2f1 series did not converge", total, _MAX_TERMS)


def _series_lanes(first: np.ndarray, a: float, b: np.ndarray, c: np.ndarray, z: float, run: int):
    """first[k] sum_n (a)_n (b[k])_n / ((c[k])_n n!) z^n for every lane k,
    from numpy blocks of (terms, lanes). Returns ``(values, stops)``.

    Lane k stops at term stops[k], the last of ``run`` consecutive terms
    n >= 1 within the series bound, and values[k] is its partial sum
    there. The block starts ``_series_span(z)`` terms wide; open lanes
    are recomputed in a block twice as wide, up to ``_MAX_TERMS`` terms.
    A lane open there, or whose partial sum is NaN and so can never stop,
    gets stop 0 and its partial sum. Each factor is formed as
    ((b + n) - 1)((a + n) - 1) / (((c + n) - 1) n) z, so every lane
    equals a term loop from ``first[k]`` to the bit. The caller keeps
    every (c + n) - 1 nonzero, or zero only where (a + n) - 1 is too, so
    that the term is 0/0 and the lane NaN, and runs this under
    ``np.errstate(all="ignore")``: terms past a lane's stop may overflow
    or divide inf by inf, and are never read.
    """
    values = stops = None
    lanes = slice(None)  # every lane, and no copy, on the first pass
    width = min(_series_span(z), _MAX_TERMS + 1)
    while True:
        n = np.arange(1.0, width)[:, None]
        lane_b = b[lanes]
        terms = np.empty((width, lane_b.size))
        terms[0] = first[lanes]
        factors = terms[1:]
        np.add(lane_b, n, out=factors)
        factors -= 1.0
        factors *= (a + n) - 1.0
        den = c[lanes] + n
        den -= 1.0
        den *= n
        factors /= den
        factors *= z
        np.multiply.accumulate(terms, out=terms)
        sums = np.add.accumulate(terms)
        bound = np.abs(sums[1:])
        bound += _TINY
        bound *= _REL_TOL
        # small[k] marks terms k + 1 to k + run all within the bound
        small = np.abs(terms[1:]) <= bound
        for _ in range(1, run):
            small = small[:-1] & small[1:]
        stop = small.argmax(axis=0)
        index = np.arange(stop.size)
        done = small[stop, index]
        stop += run
        if values is None:
            values, stops = sums[stop, index], stop
        else:
            values[lanes] = sums[stop, index]
            stops[lanes] = stop
        if done.all():
            return values, stops
        lanes = np.arange(b.size)[lanes]
        final = ~done if width > _MAX_TERMS else ~done & np.isnan(sums[-1])
        values[lanes[final]] = sums[-1, final]
        stops[lanes[final]] = 0
        lanes = lanes[~(done | final)]
        if not lanes.size:
            return values, stops
        width = min(2 * width, _MAX_TERMS + 1)


def _gauss_2f1_lanes(a: float, b: np.ndarray, c: np.ndarray, z: float) -> list:
    """``gauss_2f1(a, b[k], c[k], z, full_output=True)`` for every lane k,
    from :func:`_series_lanes` with the scalar loop's run of three.

    Returns one entry per lane: the ``(value, terms)`` pair of the loop,
    or the :class:`ConvergenceError` the loop would raise, handed back
    rather than raised so that the caller can raise it in its own order.
    The caller supplies c with no non-positive integer and z in [0, 1).
    """
    with np.errstate(all="ignore"):
        values, stops = _series_lanes(np.ones(b.size), a, b, c, z, 3)
    return [(value, stop) if stop else ConvergenceError("gauss_2f1 series did not converge", value, _MAX_TERMS)
            for value, stop in zip(values.tolist(), stops.tolist())]


def _binomial_product_sum(p: float, q: float, y: float, weight) -> tuple[float, int]:
    """sum_k c_k weight(k) and its term count, where c_k are the power-series
    coefficients of (1 - x)^p (1 - y x)^q.

    Each factor's coefficients are a cumulative product of its term ratios,
    (k - 1 - p)/k and (k - 1 - q) y/k, and c_k is their convolution, in a
    block of 64 terms; ``weight`` maps the block's k (0.0, 1.0, ...) to an
    array of weights. The sum stops by the series bound's three-term rule.
    A block that does not stop is recomputed twice as wide, up to
    ``_MAX_TERMS`` terms, beyond which :class:`ConvergenceError` is raised.
    The caller runs it under ``np.errstate(all="ignore")``.
    """
    width = 64
    while True:
        k = np.arange(width, dtype=float)
        den = k.copy()
        den[0] = 1.0
        first = k - (1.0 + p)
        first /= den
        second = k - (1.0 + q)
        second *= y
        second /= den
        first[0] = second[0] = 1.0
        np.multiply.accumulate(first, out=first)
        np.multiply.accumulate(second, out=second)
        terms = np.convolve(first, second)[:width]
        terms *= weight(k)
        sums = np.add.accumulate(terms)
        bound = np.abs(sums)
        bound += _TINY
        bound *= _REL_TOL
        small = np.abs(terms) <= bound
        run = small[:-2] & small[1:-1] & small[2:]
        stop = int(run.argmax())
        if run[stop]:
            return float(sums[stop + 2]), stop + 3
        if width > _MAX_TERMS:
            raise ConvergenceError("binomial product series did not converge", float(sums[-1]), _MAX_TERMS)
        width = min(2 * width, _MAX_TERMS + 1)


def appell_f1(a: float, b1: float, b2: float, c: float, x: float, y: float, *,
              full_output: bool = False):
    """Appell F1(a; b1, b2; c; x, y) for |x| < 1, |y| < 1 with a > 0, c > a.

    The double series sum_{m,n} (a)_{m+n} (b1)_m (b2)_n /
    [(c)_{m+n} m! n!] x^m y^n is summed row by row in m. Row m is
    lead_m 2F1(b2, a + m; c + m; y), with lead_m its n = 0 term, and
    stops at its first term below tolerance; the rows stop after three
    consecutive settled row sums. Blocks of about 33/(-ln|x|) + 8 rows,
    at most about ``_BLOCK_ELEMENTS`` terms wide at first, are each one
    call of :func:`_series_lanes`, so the value, the row count and any
    :class:`ConvergenceError` equal a term-by-term loop's exactly. The
    one exception is a c for which c + 1 rounds to 1: a + 1 does too, the
    loop divides by zero, and the first row, 0/0, raises
    :class:`ConvergenceError`. For x above 0.95 the series converges too
    slowly and the one-dimensional integral representation

        F1 = 1/B(a, c-a) * int_0^1 t^{a-1} (1-t)^{c-a-1}
                                   (1-xt)^{-b1} (1-yt)^{-b2} dt

    is evaluated by adaptive quadrature instead. ``full_output=True``
    returns ``(value, rows)`` where ``rows`` is the number of summed
    series rows (0 on the quadrature path).
    """
    a = _positive("a", a)
    if c - a <= 0.0:
        raise InputError(f"c - a must be positive, got c={c!r}, a={a!r}")
    if abs(x) >= 1.0 or abs(y) >= 1.0:
        raise InputError(f"x and y must lie in (-1, 1), got x={x!r}, y={y!r}")
    if x > _F1_QUAD_SWITCH:
        value = _appell_f1_quad(a, b1, b2, c, x, y)
        return (value, 0) if full_output else value

    total = 0.0
    lead = 1.0  # the n = 0 term of the next row
    settled = 0
    m0 = 0
    block = min(_series_span(x), max(1, _BLOCK_ELEMENTS // min(_series_span(y), _MAX_TERMS + 1)))
    with np.errstate(all="ignore"):  # for _series_lanes, and leads past the outer stop
        while m0 < _MAX_TERMS:
            rows = min(block, _MAX_TERMS - m0)
            m = np.arange(m0, m0 + rows, dtype=float)
            am = a + m
            cm = c + m
            leads = np.empty(rows + 1)
            leads[0] = lead
            leads[1:] = am * (b1 + m) / (cm * (m + 1.0)) * x
            np.multiply.accumulate(leads, out=leads)
            values, stops = _series_lanes(leads[:rows], b2, am, cm, y, 1)
            # The outer rule, row by row as in the term loop, up to the
            # first row that did not settle.
            done = rows if stops.all() else int(stops.argmin())
            for j, row_sum in enumerate(values[:done].tolist()):
                total += row_sum
                if abs(row_sum) <= _REL_TOL * (abs(total) + _TINY):
                    settled += 1
                    if settled >= 3:
                        return (total, m0 + j + 1) if full_output else total
                else:
                    settled = 0
            if done < rows:
                raise ConvergenceError("appell_f1 inner series did not converge",
                                       total + float(values[done]), m0 + done)
            lead = float(leads[rows])
            m0 += rows
    raise ConvergenceError("appell_f1 series did not converge", total, _MAX_TERMS)


def _series_span(v: float) -> int:
    """About how many terms a series of ratio v takes to fall by 1e-14;
    8 at v = 0 (and for a NaN v, whose terms never settle anyway)."""
    return 8 + int(33.0 / -math.log(abs(v))) if abs(v) > 0.0 else 8


def _appell_f1_quad(a: float, b1: float, b2: float, c: float, x: float, y: float) -> float:
    from scipy.integrate import quad

    def integrand(t: float) -> float:
        return (
            t ** (a - 1.0)
            * (1.0 - t) ** (c - a - 1.0)
            * (1.0 - x * t) ** (-b1)
            * (1.0 - y * t) ** (-b2)
        )

    # full_output=1 hands back quad's warning instead of emitting it: a
    # fourth element, the message, is present exactly when ier > 0.
    out = quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-11, limit=500, full_output=1)
    value = out[0] * math.exp(log_gamma(c) - log_gamma(a) - log_gamma(c - a))
    if len(out) > 3:
        reason = " ".join(out[3].split())
        raise ConvergenceError(f"appell_f1 quadrature did not converge: {reason}", value, 0)
    return value


def lerch_phi_half(s: float, a: float, *, full_output: bool = False):
    """Lerch transcendent Phi(1/2; s, a) = sum_{n>=0} 2^{-n} / (n+a)^s, a > 0.

    Specialized to argument 1/2, the only case the log-moment needs;
    convergence is geometric.
    """
    a = _positive("a", a)
    total = 0.0
    power = 1.0
    settled = 0
    for n in range(_MAX_TERMS):
        term = power / (n + a) ** s
        total += term
        power *= 0.5
        if abs(term) <= _REL_TOL * (abs(total) + _TINY):
            settled += 1
            if settled >= 3:
                return (total, n + 1) if full_output else total
        else:
            settled = 0
    raise ConvergenceError("lerch_phi_half series did not converge", total, _MAX_TERMS)
