"""The package's one error hierarchy (:mod:`ecrlab.errors`).

Every deliberate raise under ``src/ecrlab`` uses one of its classes,
each class keeps the built-in base it had, and ``cli.main`` takes every
exit code from the class raised: an exception outside the hierarchy is a
defect and propagates.
"""

import ast
import contextlib
import io
import math
import pathlib
import pickle

import numpy as np
import pytest

import ecrlab
from ecrlab import cli, data, ecr, errors, inference, specfun
from ecrlab.ecr import Params

BARE = {"ValueError", "OverflowError", "RuntimeError", "ArithmeticError", "ZeroDivisionError", "TypeError"}


class _Raises(ast.NodeVisitor):
    """(file, enclosing function, class) of every ``raise Bare(...)`` or
    ``raise Bare`` with a bare built-in class."""

    def __init__(self, name: str):
        self.name, self.function, self.found = name, "<module>", []

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    def visit_Raise(self, node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name) and exc.id in BARE:
            self.found.append((self.name, self.function, exc.id))


def test_no_bare_builtin_raise_in_the_package():
    found = []
    for path in sorted(pathlib.Path(ecrlab.__file__).parent.glob("*.py")):
        visitor = _Raises(path.name)
        visitor.visit(ast.parse(path.read_text()))
        found += visitor.found
    assert found == []


@pytest.mark.parametrize("cls, base, code", [
    (errors.InputError, ValueError, 2),
    (errors.FloatRangeError, OverflowError, 3),
    (inference.FitError, RuntimeError, 3),
    (specfun.ConvergenceError, ArithmeticError, 3),
    (ecr.LossOfPrecisionError, ArithmeticError, 3),
    (ecr.QuantileUnderflowError, ArithmeticError, 3),
    (ecr.MomentExistenceError, ValueError, 3),
], ids=lambda value: getattr(value, "__name__", str(value)))
def test_each_class_keeps_its_builtin_base(cls, base, code):
    assert issubclass(cls, errors.EcrlabError) and issubclass(cls, base)
    assert cls.exit_code == code


def test_data_reexports_input_error():
    assert data.InputError is errors.InputError


def cli_run(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("sys.stdin", io.StringIO(stdin))
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _fit_ml(text):
    return inference.fit_ml(data.parse_values(text))


# One input per class: the command, its standard input, and the library
# call that raises the same error.
CASES = {
    errors.InputError: (["describe", "-"], "1\nabc\n", lambda: data.parse_values("1\nabc\n")),
    errors.FloatRangeError: (["describe", "-"], "1\n1e200\n", lambda: data.describe(data.parse_values("1\n1e200\n"))),
    inference.FitError: (["fit", "-"], "1e-300\n1e300\n", lambda: _fit_ml("1e-300\n1e300\n")),
    # with the series' term budget cut to 5 (see the test)
    specfun.ConvergenceError: (["moments", "--beta", "1", "--lambda", "1", "--r", "0.5"], "",
                               lambda: ecr.raw_moment(0.5, Params(1.0, 1.0))),
    ecr.LossOfPrecisionError: (["moments", "--beta", "1", "--lambda", "1", "--r", "0.5", "--order-stat", "1", "60"],
                               "", lambda: ecr.order_stat_moment(1, 60, 0.5, Params(1.0, 1.0))),
    ecr.QuantileUnderflowError: (["sample", "--beta", "0.001", "--lambda", "1", "--n", "5", "--seed", "1"], "",
                                 lambda: ecr.sample(5, Params(0.001, 1.0), 1)),
}


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_exit_code_comes_from_the_class(monkeypatch, cls):
    monkeypatch.setattr(specfun, "_MAX_TERMS", 5 if cls is specfun.ConvergenceError else specfun._MAX_TERMS)
    argv, stdin, call = CASES[cls]
    with pytest.raises(cls) as info:
        call()
    assert type(info.value) is cls
    assert cli_run(argv, stdin) == (cls.exit_code, "", f"error: {info.value}\n")


def test_moment_existence_is_reported_per_moment():
    # cmd_moments reports a moment that does not exist next to the others
    with pytest.raises(ecr.MomentExistenceError) as info:
        ecr.raw_moment(1.0, Params(1.0, 1.0))
    code, out, err = cli_run(["moments", "--beta", "1", "--lambda", "1", "--r", "1"])
    assert (code, err) == (ecr.MomentExistenceError.exit_code, f"raw: {info.value}\n")


@pytest.mark.parametrize("error", [ValueError("a defect"), ArithmeticError("a defect"), KeyError("a defect")],
                         ids=lambda error: type(error).__name__)
def test_an_exception_outside_the_hierarchy_propagates(monkeypatch, error):
    def broken(data):
        raise error

    monkeypatch.setattr(cli, "fit_ml", broken)
    with pytest.raises(type(error)) as info:
        cli_run(["fit", data.EMBEDDED_NAME])
    assert info.value is error


# The two rules for scalar arguments (errors._positive and errors._count),
# over every function that takes a positive real or a count. Before them,
# cr_moment(0.5, nan) and cr_bias(nan, 5) returned NaN, log_gamma(True)
# took the bool as 1, Params(np.int64(2), 1.0) was refused, and at n = 0
# the information stack raised ZeroDivisionError or LinAlgError, warned,
# or returned zeros.
P = Params(1.5, 2.0)

POSITIVE = {
    "Params.beta": lambda x: Params(x, 2.0),
    "Params.lam": lambda x: Params(1.5, x),
    "log_gamma": specfun.log_gamma,
    "beta_fn.a": lambda x: specfun.beta_fn(x, 1.5),
    "beta_fn.b": lambda x: specfun.beta_fn(1.5, x),
    "digamma": specfun.digamma,
    "lerch_phi_half": lambda x: specfun.lerch_phi_half(1.0, x),
    "cr_moment": lambda x: ecr.cr_moment(0.5, x),
    "tail_ratio.c": lambda x: ecr.tail_ratio(x, 3.0, P),
    "tail_ratio.x": lambda x: ecr.tail_ratio(3.0, x, P),
    "incomplete_moment": lambda x: ecr.incomplete_moment(0.5, x, P),
    "bias_known_lambda": lambda x: inference.bias_known_lambda(x, 20),
    "bias_known_beta.lambda_hat": lambda x: inference.bias_known_beta(x, 1.5, 20),
    "bias_known_beta.beta0": lambda x: inference.bias_known_beta(2.0, x, 20),
    "cr_bias": lambda x: inference.cr_bias(x, 20),
}

# name: (call, least valid count)
COUNTS = {
    "fisher_info": (lambda n: inference.fisher_info(P, n), 1),
    "fisher_info_inverse": (lambda n: inference.fisher_info_inverse(P, n), 1),
    "asymptotic_std_errors": (lambda n: inference.asymptotic_std_errors(P, n), 1),
    "fisher_derivatives": (lambda n: inference.fisher_derivatives(P, n), 1),
    "third_cumulants": (lambda n: inference.third_cumulants(P, n), 1),
    "cox_snell_bias": (lambda n: inference.cox_snell_bias(P, n), 1),
    "cox_snell_bias_generic": (lambda n: inference.cox_snell_bias_generic(P, n), 1),
    "bias_known_lambda": (lambda n: inference.bias_known_lambda(1.5, n), 1),
    "bias_known_beta": (lambda n: inference.bias_known_beta(2.0, 1.5, n), 1),
    "cr_bias": (lambda n: inference.cr_bias(2.0, n), 1),
    "cs_correctable": (lambda n: inference.cs_correctable(n, 1.5), 1),
    "pwm.s": (lambda s: ecr.pwm(s, 0.5, 1, P), 0),
    "pwm.t": (lambda t: ecr.pwm(1, 0.5, t, P), 0),
    "order_stat_moment.i": (lambda i: ecr.order_stat_moment(i, 3, 0.5, P), 1),
    "order_stat_moment.n": (lambda n: ecr.order_stat_moment(2, n, 0.5, P), 2),
    "sample_from": (lambda count: ecr.sample_from(np.random.default_rng(0), count, P), 1),
}

NOT_REALS = [math.nan, math.inf, -math.inf, 0, 0.0, -1, -1.0, True, np.True_, np.float64(math.nan), "2", 10**400]


@pytest.mark.parametrize("name", list(POSITIVE))
def test_one_rule_decides_a_positive_real(name):
    call = POSITIVE[name]
    for value in NOT_REALS:
        with pytest.raises(errors.InputError, match=r" must be a positive finite real, got "):
            call(value)
    # a valid value gives the same bits as a float, an int or a numpy scalar
    results = {pickle.dumps(call(value)) for value in (2.0, 2, np.int64(2), np.float64(2.0))}
    assert len(results) == 1


@pytest.mark.parametrize("name", list(COUNTS))
def test_one_rule_decides_a_count(name):
    call, least = COUNTS[name]
    for value in [math.nan, math.inf, -math.inf, least - 1, -1, True, np.True_, 2.5, 3.0, np.float64(3.0), "3"]:
        with pytest.raises(errors.InputError, match=rf"must be an integer >= {least}, got "):
            call(value)
    results = {pickle.dumps(call(value)) for value in (3, np.int64(3), np.int32(3))}
    assert len(results) == 1
