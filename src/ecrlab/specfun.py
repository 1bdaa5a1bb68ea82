"""Special-function kernel backing the closed-form moment expressions.

Everything here is real-valued, pure and deterministic. The gamma family
is backed by the standard library and scipy: ``log_gamma`` by
``math.lgamma`` and ``digamma`` by ``scipy.special.digamma``, with
``gamma_fn`` and ``beta_fn`` built on ``log_gamma``. All series share
one truncation policy, two module constants: summation stops once the
running term is below ``_REL_TOL`` (1e-14) relative to the partial sum
for three consecutive terms, which keeps alternating series from
stopping on an accidentally tiny term, and a series that has not
settled within ``_MAX_TERMS`` (10,000) terms raises
:class:`ConvergenceError`. The one exception is ``appell_f1``'s inner
row in n, which stops at its first term below tolerance; its outer sum
over rows keeps the three-term rule. ``appell_f1`` evaluates its double
series in numpy blocks of rows, forming every term and partial sum by
sequential accumulation (``np.multiply.accumulate``,
``np.add.accumulate``) in the order of a term-by-term loop, so its
values, row counts and errors are exactly those of that loop. The
private ``_gauss_2f1_lanes`` does the same for a row of 2F1 series that
share a and z, one lane per series: the moments' wide binomial sums
(``ecr._moment_sum`` from 8 terms on, where the block costs less than
the scalar calls) take every 2F1 factor from one block, equal to
``gauss_2f1`` lane by lane. Series evaluators can report how many terms
they consumed via ``full_output=True``.
"""

from __future__ import annotations

import math

import numpy as np

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
# representation is integrated numerically instead.
_F1_QUAD_SWITCH = 0.95

_TINY = 1e-300

# The series truncation policy (see the module docstring).
_REL_TOL = 1e-14
_MAX_TERMS = 10_000

# appell_f1 evaluates its double series in blocks of rows of about this
# many elements (a row that needs more columns widens its block).
_BLOCK_ELEMENTS = 2**13


class ConvergenceError(ArithmeticError):
    """A series failed to settle within its term budget."""

    def __init__(self, message: str, partial: float, terms: int):
        super().__init__(f"{message} (partial sum {partial!r} after {terms} terms)")
        self.partial = partial
        self.terms = terms


def _require_positive(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"{name} must be a positive finite real, got {x!r}")
    return x


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0, by ``math.lgamma``. Above about 2.5e305 the
    value leaves the floating-point range and an OverflowError names x."""
    x = _require_positive("x", x)
    try:
        return math.lgamma(x)
    except OverflowError:
        raise OverflowError(f"log_gamma({x!r}) overflows the floating-point range") from None


def gamma_fn(x: float) -> float:
    """Gamma(x) = exp(log_gamma(x)) for x > 0."""
    return math.exp(log_gamma(x))


def beta_fn(a: float, b: float) -> float:
    """B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b), evaluated in log space."""
    a = _require_positive("a", a)
    b = _require_positive("b", b)
    return math.exp(log_gamma(a) + log_gamma(b) - log_gamma(a + b))


def digamma(x: float) -> float:
    """psi(x) = d/dx ln Gamma(x) for x > 0, by ``scipy.special.digamma``."""
    from scipy.special import digamma as scipy_digamma

    return float(scipy_digamma(_require_positive("x", x)))


def gauss_2f1(a: float, b: float, c: float, z: float, *, full_output: bool = False):
    """Gauss hypergeometric 2F1(a, b; c; z) for z in [0, 1).

    Sums sum_{n>=0} (a)_n (b)_n / (c)_n * z^n / n! with terms built by
    recurrence. Only the real series domain needed by the moment
    formulas is supported; there is no analytic continuation.
    """
    if c <= 0.0 and c == math.floor(c):
        raise ValueError(f"c must not be a non-positive integer, got {c!r}")
    if not 0.0 <= z < 1.0:
        raise ValueError(f"z must lie in [0, 1), got {z!r}")
    total = 1.0
    term = 1.0
    settled = 0
    for n in range(1, _MAX_TERMS + 1):
        term *= (a + n - 1.0) * (b + n - 1.0) / ((c + n - 1.0) * n) * z
        total += term
        if abs(term) <= _REL_TOL * abs(total):
            settled += 1
            if settled >= 3:
                return (total, n) if full_output else total
        else:
            settled = 0
    raise ConvergenceError("gauss_2f1 series did not converge", total, _MAX_TERMS)


def _gauss_2f1_lanes(a: float, b: np.ndarray, c: np.ndarray, z: float) -> list:
    """``gauss_2f1(a, b[k], c[k], z, full_output=True)`` for every lane k,
    from one numpy block of (terms, lanes).

    Returns one entry per lane: the ``(value, terms)`` pair of the loop,
    or the :class:`ConvergenceError` the loop would raise, handed back
    rather than raised so that the caller can raise it in its own order.
    The block starts ``_series_span(z)`` terms wide; lanes that have not
    settled within it are recomputed in a block twice as wide, up to the
    loop's ``_MAX_TERMS``. Every factor is formed in the loop's operation
    order and every term and partial sum by sequential accumulation, so
    each lane's value and term count are exactly the loop's. The caller
    supplies c with no non-positive integer and z in [0, 1).
    """
    out = [None] * b.size
    lanes = np.arange(b.size)
    width = min(_series_span(z), _MAX_TERMS + 1)
    # Terms past a lane's stop may overflow or divide inf by inf; they
    # are never read.
    with np.errstate(all="ignore"):
        while lanes.size:
            n = np.arange(1.0, width)[:, None]
            terms = np.empty((width, lanes.size))
            terms[0] = 1.0
            terms[1:] = (a + n - 1.0) * (b[lanes] + n - 1.0) / ((c[lanes] + n - 1.0) * n) * z
            np.multiply.accumulate(terms, out=terms)
            sums = np.add.accumulate(terms)
            # A lane stops at the third consecutive term n >= 1 below
            # tolerance; settled[k] marks terms k + 1, k + 2 and k + 3.
            small = np.abs(terms[1:]) <= _REL_TOL * np.abs(sums[1:])
            settled = small[:-2] & small[1:-1] & small[2:]
            stop = settled.argmax(axis=0) + 3
            done = settled[stop - 3, np.arange(lanes.size)]
            cols = np.flatnonzero(done)
            for lane, n_stop, value in zip(lanes[cols].tolist(), stop[cols].tolist(),
                                           sums[stop[cols], cols].tolist()):
                out[lane] = (value, n_stop)
            lanes = lanes[~done]
            if width > _MAX_TERMS:
                for lane, partial in zip(lanes.tolist(), sums[-1, ~done].tolist()):
                    out[lane] = ConvergenceError("gauss_2f1 series did not converge", partial, _MAX_TERMS)
                break
            width = min(2 * width, _MAX_TERMS + 1)
    return out


def appell_f1(a: float, b1: float, b2: float, c: float, x: float, y: float, *,
              full_output: bool = False):
    """Appell F1(a; b1, b2; c; x, y) for |x| < 1, |y| < 1 with a > 0, c > a.

    The double series sum_{m,n} (a)_{m+n} (b1)_m (b2)_n /
    [(c)_{m+n} m! n!] x^m y^n is summed row by row in m: row m is the
    series in n, which stops at its first term below tolerance, and the
    rows stop after three consecutive settled row sums. The rows are
    evaluated in blocks of at most about ``_BLOCK_ELEMENTS`` terms, with
    about 33/(-ln|x|) + 8 rows and 33/(-ln|y|) + 8 columns; a block whose
    needed row does not stop within its width is recomputed twice as
    wide. Each term and partial sum is a sequential accumulation in the
    order of a term-by-term loop, so the value, the row count and any
    :class:`ConvergenceError` equal that loop's exactly. For x above
    0.95 the series converges too slowly and the one-dimensional
    integral representation

        F1 = 1/B(a, c-a) * int_0^1 t^{a-1} (1-t)^{c-a-1}
                                   (1-xt)^{-b1} (1-yt)^{-b2} dt

    is evaluated by adaptive quadrature instead. ``full_output=True``
    returns ``(value, rows)`` where ``rows`` is the number of summed
    series rows (0 on the quadrature path).
    """
    a = float(a)
    if a <= 0.0:
        raise ValueError(f"a must be positive, got {a!r}")
    if c - a <= 0.0:
        raise ValueError(f"c - a must be positive, got c={c!r}, a={a!r}")
    if abs(x) >= 1.0 or abs(y) >= 1.0:
        raise ValueError(f"x and y must lie in (-1, 1), got x={x!r}, y={y!r}")
    if x > _F1_QUAD_SWITCH:
        value = _appell_f1_quad(a, b1, b2, c, x, y)
        return (value, 0) if full_output else value

    if c + 1.0 == 1.0:
        # The first inner factor divides by (c + 0 + 1) - 1, which rounds
        # to 0 here; summing term by term raises this error.
        raise ZeroDivisionError("float division by zero")

    total = 0.0
    lead = 1.0  # (a)_m (b1)_m / ((c)_m m!) x^m, the n = 0 term of row m
    settled = 0
    m0 = 0
    span = _series_span(x)
    width = min(_series_span(y), _MAX_TERMS + 1, _BLOCK_ELEMENTS)
    # Columns past a row's stop may overflow or divide inf by inf; they
    # are never read.
    with np.errstate(all="ignore"):
        while m0 < _MAX_TERMS:
            # Row m of the block is column m - m0 of these (width, rows)
            # arrays, and term n of that row is its entry n.
            rows = min(span, max(1, _BLOCK_ELEMENTS // width), _MAX_TERMS - m0)
            m = np.arange(m0, m0 + rows, dtype=float)
            am = a + m
            cm = c + m
            leads = np.empty(rows + 1)
            leads[0] = lead
            leads[1:] = am * (b1 + m) / (cm * (m + 1.0)) * x
            np.multiply.accumulate(leads, out=leads)

            n = np.arange(1.0, width)[:, None]
            terms = np.empty((width, rows))
            terms[0] = leads[:rows]
            factors = terms[1:]
            np.add(am, n, out=factors)
            factors -= 1.0
            factors *= (b2 + n) - 1.0
            den = cm + n
            den -= 1.0
            den *= n
            factors /= den
            factors *= y
            np.multiply.accumulate(terms, out=terms)
            sums = np.add.accumulate(terms)

            # The inner rule: a row stops at its first term in n >= 1
            # below tolerance. Rows from the first one that does not stop
            # within this width on are left to a wider block.
            bound = np.abs(sums[1:])
            bound += _TINY
            bound *= _REL_TOL
            inner = np.abs(terms[1:]) <= bound
            stop = inner.argmax(axis=0)
            index = np.arange(rows)
            open_rows = np.flatnonzero(~inner[stop, index])
            done = int(open_rows[0]) if open_rows.size else rows

            # The outer rule, row by row as in the term loop.
            for j, row_sum in enumerate(sums[stop[:done] + 1, index[:done]].tolist()):
                total += row_sum
                if abs(row_sum) <= _REL_TOL * (abs(total) + _TINY):
                    settled += 1
                    if settled >= 3:
                        return (total, m0 + j + 1) if full_output else total
                else:
                    settled = 0
            lead = float(leads[done])
            m0 += done
            if done < rows:
                if width > _MAX_TERMS:
                    raise ConvergenceError(
                        "appell_f1 inner series did not converge", total + float(sums[-1, done]), m0
                    )
                width = min(2 * width, _MAX_TERMS + 1)
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
    a = _require_positive("a", a)
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
