"""The package's one error hierarchy (:mod:`ecrlab.errors`).

Every deliberate raise under ``src/ecrlab`` uses one of its classes,
each class keeps the built-in base it had, and ``cli.main`` takes every
exit code from the class raised: an exception outside the hierarchy is a
defect and propagates.
"""

import ast
import contextlib
import io
import pathlib

import pytest

import ecrlab
from ecrlab import cli, data, ecr, errors, inference, specfun
from ecrlab.ecr import Params

BARE = {"ValueError", "OverflowError", "RuntimeError", "ArithmeticError", "ZeroDivisionError", "TypeError"}
# appell_f1 raises the ZeroDivisionError of the term loop it equals, which
# tests/test_specfun.py::_f1_outcome reproduces
EXEMPT = {("specfun.py", "appell_f1", "ZeroDivisionError")}


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
    assert set(found) - EXEMPT == set()
    assert set(found) == EXEMPT  # the exemption is still needed


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
