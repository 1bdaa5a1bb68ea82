"""The series moments and the incomplete moment against 40-digit
references.

Each series-moment reference is the moment's closed form evaluated by
mpmath at 40 digits (``mp.beta``, ``mp.hyp2f1``; ``mp.lerchphi`` and
``mp.digamma`` for the log moment) at the float inputs taken exactly.
Each incomplete-moment reference is its integral in v = lam/s, taken by
``mp.quad`` at 50 digits (see ``incomplete_reference``). ``reference``
and ``incomplete_reference`` regenerate every constant; run this file to
print the tables:

    PYTHONPATH=src python tests/test_moment_references.py

Each family asserts the largest relative error measured on its cases,
rounded up. The binomial sums lose accuracy with their width: their
errors measured up to about six units of rounding times the sum's
cancellation (the ratio of its gross to its net), so the wide families
have looser bounds. The incomplete moment asserts a bound per
evaluation path.
"""

import math

import mpmath as mp
import pytest

from ecrlab.ecr import Params, _in_v_series, incomplete_moment, log_moment, order_stat_moment, pwm, raw_moment

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


# The incomplete moment by the path incomplete_moment takes: largest
# relative error measured on its cases -> asserted bound
INCOMPLETE_BOUNDS = {
    "v-series": 1e-14,  # 1.8e-15 here; 4.9e-15 at beta 5, r 8, x0/lambda 2.5 on a wider grid
    "appell": 1e-13,  # 7.9e-14 at beta 5.5, x0/lambda 12
    "quadrature": 1e-14,  # 5.5e-15 at beta 12
}

# (path, (r, x0, beta, lambda), 40-digit value). v0 = lambda/hypot(lambda, x0)
# lies on both sides of the series' switch at 0.4 (x0/lambda = 2.29) and of
# 1/2 (x0/lambda = sqrt 3), u0 = 1 - v0 on both sides of the quadrature
# switch at 0.95 (x0/lambda = 19.97), and beta and r on both sides of the
# series' limits 5 and 10; three cases are moments-sweep quadrature points
# (seed 3). Before the series in v, the v-series cases with x0/lambda up
# to 36 took the Appell series, with errors up to 6.0e-13 (beta 5, r -9,
# x0/lambda 12); those above took quadrature, with errors up to 4.1e-11
# (r 3, x0/lambda 1e5), or raised: a ConvergenceError from about
# x0/lambda = 1e8 to 1e13, and a LossOfPrecisionError where u0 rounds to
# 1, above about 9e15.
INCOMPLETE_CASES = [
    ("appell", (0.5, 1.0, 0.8, 1.0), "2.66257084595864998613892402040922476369e-1"),
    ("appell", (-1.2, 1.5, 3.0, 2.0), "6.563961646240755136557827962092334425327e-3"),
    ("appell", (-0.6755490084177187, 20.3916955047602, 0.5932491701896513, 20.263909499419448),
     "1.705318833332647081803605471879726521097e-1"),
    ("appell", (1.5, 1.7, 5.0, 1.0), "4.824480579432313931218767940683482534697e-2"),
    ("appell", (0.5, 2.0, 0.8, 1.0), "5.615566875474983934627971107532417147286e-1"),
    ("appell", (1.5, 1.8, 5.0, 1.0), "6.419605751760937409147832397739862486726e-2"),
    ("v-series", (0.5, 2.4, 0.8, 1.0), "6.440667385120571551716871035025409933887e-1"),
    ("v-series", (8.0, 2.4, 5.0, 1.0), "2.611736705794429133802977472305424273987e+1"),
    ("v-series", (-0.5, 2.0, 0.3, 0.5), "6.920066632281879898015237638121868544892"),
    ("v-series", (1.8606040242170425, 5.951637406024191, 0.599311431964364, 0.5054655401929763),
     "1.468993890855521265932411550839321635783"),
    ("v-series", (2.0, 19.0, 1.0, 1.0), "1.707885642356321173328061920386308355034e+1"),
    ("v-series", (-9.0, 36.0, 5.0, 3.0), "7.212009979719918987245282729859521923271e-6"),
    ("appell", (10.0, 2.0, 5.0, 1.0), "1.368971525083094510153912371374731568357e+1"),
    ("v-series", (10.0, 4.0, 5.0, 1.0), "3.731221209558465549612999031377077778934e+4"),
    ("v-series", (0.5, 21.0, 0.8, 1.0), "1.308118085721884639404900395677787539632"),
    ("v-series", (0.43356683218235903, 19.854486060219614, 0.2950277900057235, 0.494736210131922),
     "6.246288823868201935346043861380238043761e-1"),
    ("v-series", (-2.755578449904854, 6062.264307437138, 1.6910431647894575, 20.07176022942337),
     "3.464051630523450437218396687122796587601e-4"),
    ("v-series", (-3.57367610178054, 20.21542020129129, 2.942352050226193, 0.5005549986642701),
     "1.970314837193048642343447673035030397128"),
    ("v-series", (0.5, 1e7, 0.8, 1.0), "1.657649289532828716362196918050300945468"),
    ("v-series", (3.0, 2e5, 1.0, 2.0), "3.999999986352712825288791524595747726144e+10"),
    ("v-series", (0.5, 1e10, 0.8, 1.0), "1.658139253961828645190233041283502464047"),
    ("v-series", (5.0, 1e12, 2.0, 1.0), "4.999999999993333333333318333333333373333e+47"),
    ("v-series", (0.5, 1e17, 0.8, 1.0), "1.65815524890218449558838062677184816359"),
    ("v-series", (-1.5, 1e14, 3.0, 1e-3), "6.353778380438706945578961805030641381147e+3"),
    ("appell", (0.8, 12.0, 5.5, 1.0), "2.422432787048137994954721498651896366148"),
    ("quadrature", (-0.6, 40.0, 12.0, 1.0), "1.774750901555465062493882553087502938454e-1"),
    ("appell", (0.2, 2.0, 8.0, 1.0), "9.693587944107553712358289678211265572846e-3"),
    ("appell", (14.0, 2.0, 1.0, 1.0), "4.28620906870709821698804427847559770269e+2"),
]

# Off by 3.1e-7: at beta 12 the Appell series' terms cancel. Strict, so a
# path that mends it fails this until it is moved into INCOMPLETE_CASES.
INCOMPLETE_LARGE_BETA = ("appell", (-21.4, 12.0, 12.0, 1.0), "1.582439791318927027696512908128992109672e-4")


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



def incomplete_reference(r, x0, beta, lam):
    """The incomplete moment at 50 digits, as a 40-digit string.

    With v = lam/s, s = hypot(lam, x), the moment is

        beta lam^r int_{v0}^1 v^(-r) (1-v)^(a-1) (1+v)^(r/2) dv,  a = beta + r/2,

    with v0 = lam/hypot(lam, x0). On [max(v0, 1/2), 1] the substitution
    t = (1-v)^a takes the (1-v)^(a-1) singularity at v = 1 into dt/a; on
    [v0, 1/2] the integral is taken in y = log v, over pieces of length
    at most 2, since v^(1-r) spans many decades when v0 is small.
    """
    with mp.workdps(65):
        r, x0, b, lam = mp.mpf(r), mp.mpf(x0), mp.mpf(beta), mp.mpf(lam)
        a = b + r / 2
        v0 = lam / mp.sqrt(lam * lam + x0 * x0)
        half = mp.mpf(1) / 2
        top = max(v0, half)

        def in_t(t):
            v = 1 - t ** (1 / a)
            return v ** (-r) * (1 + v) ** (r / 2)

        total = mp.quad(in_t, [0, (1 - top) ** a]) / a
        if v0 < half:
            y0, y1 = mp.log(v0), -mp.log(2)
            pieces = max(1, int(mp.ceil((y1 - y0) / 2)))

            def in_y(y):
                v = mp.exp(y)
                return v ** (1 - r) * (1 - v) ** (a - 1) * (1 + v) ** (r / 2)

            total += mp.quad(in_y, [y0 + (y1 - y0) * i / pieces for i in range(pieces + 1)])
        return mp.nstr(b * lam**r * total, 40, min_fixed=1, max_fixed=0)


@pytest.mark.parametrize("path, args, value", [
    *INCOMPLETE_CASES,
    pytest.param(*INCOMPLETE_LARGE_BETA, marks=pytest.mark.xfail(
        strict=True, reason="the Appell series at beta 12, r -21.4 is off by 3.1e-7")),
])
def test_incomplete_within_the_path_bound(path, args, value):
    r, x0, beta, lam = args
    p = Params(beta, lam)
    assert _in_v_series(r, lam / math.hypot(lam, x0), beta) == (path == "v-series")
    assert (incomplete_moment(r, x0, p, full_output=True)[1] == 0) == (path == "quadrature")
    exact = float(value)
    assert abs(incomplete_moment(r, x0, p) - exact) <= INCOMPLETE_BOUNDS[path] * abs(exact)


@pytest.mark.parametrize("case", [INCOMPLETE_CASES[1], INCOMPLETE_CASES[3]], ids=["v0>1/2", "near-1/2"])
def test_incomplete_references_regenerate(case):
    _, args, value = case
    assert incomplete_reference(*args) == value


if __name__ == "__main__":
    for *inputs, _ in [*CASES, BETA_FN_ROUNDING]:
        print((*inputs, reference(*inputs)))
    for path, args, _ in [*INCOMPLETE_CASES, INCOMPLETE_LARGE_BETA]:
        print((path, args, incomplete_reference(*args)))
