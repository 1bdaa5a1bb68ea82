"""The series moments against 40-digit references.

Each reference is the moment's closed form evaluated by mpmath at 40
digits (``mp.beta``, ``mp.hyp2f1``; ``mp.lerchphi`` and ``mp.digamma`` for
the log moment) at the float inputs taken exactly. ``reference`` below
regenerates every constant; run this file to print the table:

    PYTHONPATH=src python tests/test_moment_references.py

Each family asserts the largest relative error measured on its cases,
rounded up. The binomial sums lose accuracy with their width: their
errors measured up to about six units of rounding times the sum's
cancellation (the ratio of its gross to its net), so the wide families
have looser bounds.
"""

import math

import mpmath as mp
import pytest

from ecrlab.ecr import Params, log_moment, order_stat_moment, pwm, raw_moment

# family: largest relative error measured on its cases -> asserted bound
BOUNDS = {
    "raw": 5e-15,  # measured 2.9e-15
    "pwm": 5e-14,  # 2.3e-14; t < 7, summed by the scalar loop
    "pwm-wide": 1e-8,  # 4.9e-9 at t = 20, cancellation 4.6e6
    "order": 5e-14,  # 1.4e-14; n - i < 7
    "order-widest": 1e-5,  # 4.1e-6 at n - i = 27, cancellation 3.8e9
    "log": 1e-14,  # 4.1e-15
}

# (family, args, beta, lambda, 40-digit value); args as the moment takes
# them: (r,) for raw, (s, r, t) for pwm, (i, n, r) for order, () for log
CASES = [
    ("raw", (0.5,), 0.8, 1.0, "1.658155253961828751857787842209851491665"),
    ("raw", (-1.2,), 2.5, 3.7, "6.31723718039142625758754304984643043889e-2"),
    ("raw", (0.3,), 0.05, 0.01, "7.61834106983923782153544827048475713888e-2"),
    ("raw", (-0.09,), 0.05, 1.0, "9.687344444113993707087461983299200867901"),
    ("pwm", (1, 0.5, 2), 0.8, 1.0, "8.999498172400963119497043231691518816113e-2"),
    ("pwm", (0, -0.7, 5), 1.7, 20.0, "2.341852550495245776751991897020182782841e-2"),
    ("pwm-wide", (0, 0.5, 12), 0.8, 1.0, "3.701694906898117153624073624063123790566e-2"),
    ("pwm-wide", (2, -1.5, 20), 1.3, 0.5, "9.911451837048027165461753511087072502284e-4"),
    ("order", (1, 3, 0.5), 0.8, 1.0, "8.128588206319433153890985201955197586736e-1"),
    ("order", (2, 5, -1.0), 1.7, 0.5, "1.261922609830211817947837221092001410632"),
    ("order-widest", (3, 15, -2.0), 0.9, 4.0, "2.566034084661631355556516317640215701729e-1"),
    # the widest sum at beta = 1, r = 0.5 that does not raise LossOfPrecisionError
    ("order-widest", (1, 28, 0.5), 1.0, 1.0, "4.739406397537017956560145307594162702049e-1"),
    ("log", (), 0.8, 1.0, "4.48445638836426895259337644350577989754e-1"),
    ("log", (), 25.0, 1e-3, "-3.093232364486806587740534259065784428346"),
]

# Off by 1.45e-12: beta_fn forms B(1.5, 997.05) as exp(lgamma(a) + lgamma(b)
# - lgamma(a + b)), and the rounding of log-gammas near 5,900 becomes that
# relative error. Strict, so mending beta_fn fails this until it is moved
# into CASES.
BETA_FN_ROUNDING = ("raw", (-0.5,), 997.3, 2.0, "1.983600432322421262831670404677879454414e-2")


def _binomial_sum(r, weights, shapes):
    r = mp.mpf(r)
    half = mp.mpf(1) / 2
    return mp.fsum(w * mp.beta(1 - r, r / 2 + g) * mp.hyp2f1(-r / 2, r / 2 + g, 1 - r / 2 + g, half)
                   for w, g in zip(weights, shapes))


def reference(family, args, beta, lam):
    """The moment's closed form at 40 digits, as a string."""
    kind = family.split("-")[0]
    with mp.workdps(40):
        b, lam = mp.mpf(beta), mp.mpf(lam)
        if kind == "log":
            value = mp.log(lam) + mp.lerchphi(mp.mpf(1) / 2, 1, b) / 2 + mp.digamma(1 + b) + mp.euler - 1 / b
        else:
            if kind == "raw":
                (r,) = args
                total = _binomial_sum(r, [1], [b])
            elif kind == "pwm":
                s, r, t = args
                total = _binomial_sum(r, [(-1) ** i * math.comb(t, i) for i in range(t + 1)],
                                      [(s + i + 1) * b for i in range(t + 1)])
            else:
                i, n, r = args
                total = i * math.comb(n, i) * _binomial_sum(
                    r, [(-1) ** j * math.comb(n - i, j) for j in range(n - i + 1)],
                    [(i + j) * b for j in range(n - i + 1)])
            value = b * (lam * mp.sqrt(2)) ** mp.mpf(r) * total
        return mp.nstr(value, 40, min_fixed=1, max_fixed=0)


def _moment(family, args, beta, lam):
    kind = family.split("-")[0]
    p = Params(beta, lam)
    if kind == "log":
        return log_moment(p)
    return {"raw": raw_moment, "pwm": pwm, "order": order_stat_moment}[kind](*args, p)


@pytest.mark.parametrize("family, args, beta, lam, value", [
    *CASES,
    pytest.param(*BETA_FN_ROUNDING, marks=pytest.mark.xfail(
        strict=True, reason="beta_fn's log-gamma rounding near 1e3 puts raw_moment off by 1.45e-12")),
])
def test_within_the_family_bound(family, args, beta, lam, value):
    exact = float(value)
    assert abs(_moment(family, args, beta, lam) - exact) <= BOUNDS[family] * abs(exact)


@pytest.mark.parametrize("case", [CASES[7], CASES[12]], ids=["pwm-wide", "log"])
def test_references_regenerate(case):
    *inputs, value = case
    assert reference(*inputs) == value


if __name__ == "__main__":
    for *inputs, _ in [*CASES, BETA_FN_ROUNDING]:
        print((*inputs, reference(*inputs)))
