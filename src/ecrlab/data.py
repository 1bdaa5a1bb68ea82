"""Dataset container, text ingestion, and descriptive statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import NoReturn

import numpy as np

from .errors import FloatRangeError, InputError

__all__ = [
    "Dataset",
    "DescriptiveStats",
    "InputError",
    "CROWLEY_HU",
    "crowley_hu",
    "load_dataset",
    "parse_values",
    "describe",
]

EMBEDDED_NAME = "embedded:crowley-hu"

# Survival times (days) of the 66 Stanford heart-transplant patients from
# Crowley & Hu (1977) who died during follow-up and had no prior bypass
# surgery. Embedded verbatim so the application study runs offline.
CROWLEY_HU = (
    1, 1, 2, 2, 2, 4, 4, 5, 5, 7, 8,
    11, 15, 15, 15, 16, 17, 20, 20, 27, 29, 31,
    34, 35, 36, 38, 39, 42, 44, 49, 50, 52, 57,
    60, 65, 67, 67, 68, 71, 71, 76, 77, 79, 80,
    84, 89, 95, 99, 101, 109, 148, 152, 187, 206, 218,
    262, 284, 284, 307, 333, 339, 674, 732, 851, 1031, 1386,
)


@dataclass(frozen=True)
class Dataset:
    """Validated positive observations with a cached sorted view.

    ``values`` is a read-only copy of the input, and the sorted view is
    read-only too, so later changes to the caller's array cannot bypass
    validation or leave the sorted view stale.

    The sample in power-of-two units, the one range rule every fit and
    :func:`describe` work in, is owned here too: :attr:`units`,
    :attr:`exact_units` and :attr:`sorted_units` are computed on first
    use, once per dataset, and are read-only like the arrays above.
    """

    values: np.ndarray
    source: str = "<memory>"
    _sorted: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise InputError("dataset must contain at least one observation")
        if not np.all(np.isfinite(arr)):
            raise InputError("dataset contains non-finite values")
        if np.any(arr <= 0.0):
            raise InputError("dataset contains non-positive values")
        ordered = np.sort(arr)
        arr.flags.writeable = False
        ordered.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "_sorted", ordered)

    @property
    def n(self) -> int:
        return int(self.values.size)

    @property
    def sorted_values(self) -> np.ndarray:
        return self._sorted

    @cached_property
    def units(self) -> tuple[np.ndarray, int]:
        """:func:`in_binade_units` of the values."""
        units, e = in_binade_units(self.values)
        units.flags.writeable = False
        return units, e

    @cached_property
    def exact_units(self) -> tuple[np.ndarray, int]:
        """:attr:`units` where dividing every value by 2^e is exact, else
        ``(values, 0)``."""
        units, e = self.units
        return (units, e) if not e or np.array_equal(np.ldexp(units, e), self.values) else (self.values, 0)

    @cached_property
    def sorted_units(self) -> tuple[np.ndarray, int]:
        """The sorted values in the units of :attr:`units`."""
        e = self.units[1]
        ordered = np.ldexp(self._sorted, -e) if e else self._sorted
        ordered.flags.writeable = False
        return ordered, e

    def scaled(self, c: float) -> "Dataset":
        return Dataset(self.values * c, source=f"{self.source} (x{c:g})")


def crowley_hu() -> Dataset:
    return Dataset(np.asarray(CROWLEY_HU, dtype=float), source=EMBEDDED_NAME)


def parse_values(text: str, source: str = "<text>") -> Dataset:
    """Parse one-number-per-line or whitespace/comma separated data.

    '#' starts a comment that runs to end of line. Raises
    :class:`InputError` with a 1-based line number for non-numeric
    tokens and non-positive values.

    The text is tokenized in one pass: every line boundary of
    ``splitlines`` is whitespace to ``str.split``, so only comments need
    the lines. The line loop of :func:`_first_bad_token` runs only to
    name the line of an error.
    """
    body = text
    if "#" in body:
        body = "\n".join(line.split("#", 1)[0] for line in body.splitlines())
    tokens = body.replace(",", " ").split()
    if not tokens:
        raise InputError("no observations found in input")
    try:
        return Dataset(np.array(list(map(float, tokens))), source=source)
    except ValueError:  # a non-numeric token, or Dataset's InputError
        _first_bad_token(text)


def _first_bad_token(text: str) -> NoReturn:
    """Raise the :class:`InputError` of the first token, in line order,
    that is not a finite positive number."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for token in line.replace(",", " ").split():
            try:
                value = float(token)
            except ValueError:
                raise InputError(f"non-numeric token {token!r}", lineno) from None
            if not math.isfinite(value) or value <= 0.0:
                raise InputError(f"non-positive value {token!r}", lineno)
    raise AssertionError("every token is a finite positive number")


def load_dataset(path: str | Path) -> Dataset:
    if str(path) == EMBEDDED_NAME:
        return crowley_hu()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return parse_values(text, source=str(path))


@dataclass(frozen=True)
class DescriptiveStats:
    """Location/spread/shape summary.

    Two shape conventions are reported: ``moment`` uses the plain
    plug-in estimators m3/m2^1.5 and m4/m2^2 (kurtosis not excess);
    ``adjusted`` applies the usual small-sample corrections. Fields are
    None where the sample is too small for the estimator.
    """

    n: int
    mean: float
    median: float
    variance: float | None
    skewness_moment: float | None
    skewness_adjusted: float | None
    kurtosis_moment: float | None
    kurtosis_adjusted: float | None
    minimum: float
    maximum: float


# Inside 2^±200 no sum of fourth powers of the values or their spreads,
# nor the square of a second moment, leaves the floating-point range.
_SAFE_BINADE = 200


def in_binade_units(x: np.ndarray) -> tuple[np.ndarray, int]:
    """``(x / 2^e, e)`` for the binade 2^e of the largest of the positive
    values ``x``, where that lies outside 2^±_SAFE_BINADE; else ``(x, 0)``.

    Dividing by a power of two is exact, so sums, products and square
    roots of the scaled values are those of ``x`` times powers of 2^e,
    without leaving the floating-point range; inside the safe range
    nothing is scaled, and results keep their bits.
    """
    e = math.frexp(float(x.max()))[1]
    return (np.ldexp(x, -e), e) if abs(e) > _SAFE_BINADE else (x, 0)


def describe(data: Dataset) -> DescriptiveStats:
    """Descriptive statistics of ``data``, computed in its
    :attr:`Dataset.units`: a variance beyond the floating-point range
    raises :class:`FloatRangeError`, and one below it rounds to 0."""
    n = data.n
    x, e = data.units
    mean = float(np.mean(x))
    centered = x - mean
    m2 = float(np.mean(centered**2))
    variance = None
    if n >= 2:
        try:
            variance = math.ldexp(float(np.var(x, ddof=1)), 2 * e)
        except OverflowError:
            raise FloatRangeError("the sample variance exceeds the floating-point range") from None

    skew_m = kurt_m = skew_a = kurt_a = None
    if n >= 2 and m2 > 0.0:
        m3 = float(np.mean(centered**3))
        m4 = float(np.mean(centered**4))
        skew_m = m3 / m2**1.5
        kurt_m = m4 / m2**2
        if n >= 3:
            skew_a = skew_m * math.sqrt(n * (n - 1.0)) / (n - 2.0)
        if n >= 4:
            kurt_a = 3.0 + ((n + 1.0) * (kurt_m - 3.0) + 6.0) * (n - 1.0) / ((n - 2.0) * (n - 3.0))

    return DescriptiveStats(
        n=n,
        mean=math.ldexp(mean, e),
        median=math.ldexp(float(np.median(x)), e),
        variance=variance,
        skewness_moment=skew_m,
        skewness_adjusted=skew_a,
        kurtosis_moment=kurt_m,
        kurtosis_adjusted=kurt_a,
        minimum=float(data.sorted_values[0]),
        maximum=float(data.sorted_values[-1]),
    )
