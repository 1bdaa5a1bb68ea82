"""One error hierarchy; ``exit_code`` is the CLI's exit status per class.
:func:`_positive` and :func:`_count` are the one rule each for a scalar argument."""

import sys

import numpy as np


class EcrlabError(Exception):
    """An error ecrlab raises on purpose, a numerical failure by default;
    each subclass also keeps a built-in base. Any other error is a defect."""
    exit_code = 3


class InputError(EcrlabError, ValueError):
    """Malformed or out-of-domain input data; carries a 1-based line number."""
    exit_code = 2

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class FloatRangeError(EcrlabError, OverflowError):
    """A result lies beyond the floating-point range."""


_REALS = (int, float, np.integer, np.floating)
_FLOAT_MAX = sys.float_info.max


def _positive(name: str, value) -> float:
    """``value`` as a float if it is a positive finite real (an int, a float or a
    numpy integer or floating scalar, not a bool), else :class:`InputError`."""
    if type(value) is float:  # the common case, first and without a conversion
        if 0.0 < value <= _FLOAT_MAX:
            return value
    elif isinstance(value, _REALS) and not isinstance(value, bool) and 0.0 < value <= _FLOAT_MAX:
        return float(value)
    raise InputError(f"{name} must be a positive finite real, got {value!r}")


def _count(name: str, value, least: int) -> int:
    """``value`` as an int if it is an int or a numpy integer (not a bool) of at
    least ``least``, else :class:`InputError`."""
    if (type(value) is int or isinstance(value, np.integer)) and value >= least:
        return int(value)
    raise InputError(f"{name} must be an integer >= {least}, got {value!r}")
