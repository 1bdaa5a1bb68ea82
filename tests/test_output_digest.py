"""One sha256 over the reprs of a fixed set of outputs.

The set holds the finite-order moments on a seeded grid, and the four
fitters on the seed-0 Monte Carlo slice (the 240 samples of the
``(0.5, 2) x (1,) x (20, 100, 500)`` grid study, 40 replications per
cell, drawn as :mod:`ecrlab.sim` draws them) plus Crowley-Hu and
Crowley-Hu scaled by 2^1000 and 2^-1000. Errors count as outputs, by
class and message. A value is written as the repr of a float, so that a
numpy scalar and a float with the same bits agree.

A second digest covers the four fitters on the report set's n = 15
slice at seed 0 (shapes 0.5, 1 and 2 as cells 0-2, 40 replications
each), where fit_pb's shape grid has points whose sign its rounding
bound cannot certify and recomputes them exactly.

A change that moves an output on purpose says which ones in CHANGES.md;
``PYTHONPATH=src python tests/test_output_digest.py`` prints the lines,
so that two trees can be compared line by line.
"""

import hashlib
import warnings

import numpy as np

from ecrlab import ecr, inference
from ecrlab.data import Dataset, crowley_hu
from ecrlab.ecr import Params
from ecrlab.errors import EcrlabError

DIGEST = "f6d545e62ae93fa0a7521d5b8bba7de93c7c91639d1b1db2800bdd47d2be93e0"
N15_DIGEST = "71763b0000ae1f4c944fc11b8abeec724b9504436e5e445bb6c8a96dc1f5505c"

MC_BETAS = (0.5, 2.0)
MC_SIZES = (20, 100, 500)
MC_REPS = 40
MOMENT_POINTS = 60
N15_BETAS = (0.5, 1.0, 2.0)


def _outcome(f, *args, **kwargs):
    """(line text, value or None)."""
    try:
        value = f(*args, **kwargs)
    except EcrlabError as exc:
        return f"{type(exc).__name__}: {exc}", None
    return repr(float(value)) if isinstance(value, float) else repr(value), value


def moment_lines() -> list[str]:
    """Each moment family on a seeded grid of (beta, lambda), with each
    order at a place from -0.2 to 1.2 of its existence window, so that
    some lie outside it."""
    rng = np.random.default_rng(34)
    lines = []
    for k in range(MOMENT_POINTS):
        p = Params(float(10.0 ** rng.uniform(-0.7, 0.7)), float(10.0 ** rng.uniform(-2.0, 2.0)))
        place = float(rng.uniform(-0.2, 1.2))
        s, t = int(rng.integers(0, 3)), int(rng.integers(0, 9))
        n = int(rng.integers(1, 30))
        i = int(rng.integers(1, n + 1))
        x0 = float(p.lam * 10.0 ** rng.uniform(-1.0, 1.5))

        def order(lower, upper=1.0):
            return lower + place * (upper - lower)

        calls = {
            "raw": (ecr.raw_moment, order(-2.0 * p.beta), p),
            "pwm": (ecr.pwm, s, order(-2.0 * (s + 1) * p.beta), t, p),
            "order": (ecr.order_stat_moment, i, n, order(-2.0 * i * p.beta), p),
            "order64": (ecr.order_stat_moment, np.int64(i), np.int64(n), order(-2.0 * i * p.beta), p),
            "incomplete": (ecr.incomplete_moment, order(-2.0 * p.beta, 3.0), x0, p),
            "log": (ecr.log_moment, p),
            "cr": (ecr.cr_moment, order(-2.0), p.lam),
        }
        lines += [f"{name} {k} {_outcome(*call)[0]}" for name, call in calls.items()]
    return lines


def _cells(tag, cells):
    """The seed-0 draws of each (beta, n) cell, at lambda 1."""
    for cell, (beta, n) in enumerate(cells):
        for rep in range(MC_REPS):
            rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(cell, rep)))
            yield f"{tag} {cell} {rep}", ecr.sample_from(rng, n, Params(beta, 1.0))


def _samples():
    yield from _cells("mc", [(b, n) for b in MC_BETAS for n in MC_SIZES])
    values = crowley_hu().values
    for e in (0, 1000, -1000):
        yield f"crowley-hu 2^{e}", np.ldexp(values, e)


def fit_lines(samples) -> list[str]:
    """fit_ml, fit_cs_ml (correcting that ML fit), fit_pb and fit_cr on
    each sample."""
    lines = []
    for tag, values in samples:
        data = Dataset(values)
        ml_line, ml = _outcome(inference.fit_ml, data)
        lines += [
            f"ml {tag} {ml_line}",
            f"csml {tag} {_outcome(inference.fit_cs_ml, data, ml=ml)[0]}",
            f"pb {tag} {_outcome(inference.fit_pb, data)[0]}",
            f"cr {tag} {_outcome(inference.fit_cr, data)[0]}",
        ]
    return lines


def output_lines() -> list[str]:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return moment_lines() + fit_lines(_samples())


def n15_lines() -> list[str]:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fit_lines(_cells("n15", [(beta, 15) for beta in N15_BETAS]))


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_outputs_keep_their_digest():
    lines = output_lines()
    assert _digest(lines) == DIGEST, f"{len(lines)} outputs hash to {_digest(lines)}"


def test_n15_outputs_keep_their_digest():
    lines = n15_lines()
    assert _digest(lines) == N15_DIGEST, f"{len(lines)} outputs hash to {_digest(lines)}"


if __name__ == "__main__":
    print("\n".join(output_lines() + n15_lines()))
