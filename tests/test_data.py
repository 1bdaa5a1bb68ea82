import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecrlab import data as data_module
from ecrlab import sim
from ecrlab.data import Dataset, InputError, crowley_hu, describe, parse_values
from ecrlab.gof import fit_comparison_models


class TestDatasetOwnership:
    def test_caller_mutation_does_not_reach_dataset(self):
        a = np.array([3.0, 1.0, 2.0])
        d = Dataset(a)
        a[0] = -5.0
        assert d.values.tolist() == [3.0, 1.0, 2.0]
        assert d.sorted_values.tolist() == [1.0, 2.0, 3.0]

    def test_arrays_are_read_only(self):
        d = Dataset(np.array([3.0, 1.0, 2.0]))
        with pytest.raises(ValueError):
            d.values[0] = -5.0
        with pytest.raises(ValueError):
            d.sorted_values[0] = -5.0

    # inside 2^+-200 the units are the values themselves; 1e300 and 1e-300
    # are scaled, and 1e-300 next to 1e300 is not scaled exactly, so the
    # exact units fall back to the values
    @pytest.mark.parametrize("caller, e, exact", [([3.0, 1.0, 2.0], 0, True), ([3e300, 1e300, 2e300], 999, True),
                                                  ([3e-300, 1e-300, 2e-300], -994, True),
                                                  ([1e-300, 2e300, 1e300], 998, False)])
    def test_unit_views(self, caller, e, exact):
        a = np.array(caller)
        d = Dataset(a)
        units, plain_e = d.units
        assert plain_e == e and units.tobytes() == np.ldexp(a, -e).tobytes()
        assert d.sorted_units[1] == e and d.sorted_units[0].tobytes() == np.sort(units).tobytes()
        assert d.exact_units[0] is (units if exact else d.values) and d.exact_units[1] == (e if exact else 0)
        for view, _ in (d.units, d.exact_units, d.sorted_units):
            assert not view.flags.writeable and not np.shares_memory(view, a)


class TestUnitsComputedOnce:
    """Every fit and statistic of one sample reads its units from the
    dataset, so the range rule runs at most once per dataset."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen, rule = [], data_module.in_binade_units

        def counting(x):
            seen.append(x)
            return rule(x)

        monkeypatch.setattr(data_module, "in_binade_units", counting)
        return seen

    def test_one_replication(self, calls):
        outcomes = sim._replicate((0.5, 1.0, 100, ("ml", "csml", "pb"), 0, 1, 3))
        assert [beta is not None for _, beta, _ in outcomes] == [True, True, True]
        assert len(calls) == 1

    @pytest.mark.parametrize("k", [0, 600])
    def test_comparison_fits(self, calls, k):
        heart = Dataset(np.ldexp(crowley_hu().values, k))
        assert all(fit.error is None for fit in fit_comparison_models(heart))
        assert len(calls) == 1 and calls[0] is heart.values


def parse_by_lines(text, source="<text>"):
    """The line-by-line parser that parse_values replaced, verbatim."""
    values: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for token in line.replace(",", " ").split():
            try:
                value = float(token)
            except ValueError:
                raise InputError(f"non-numeric token {token!r}", lineno) from None
            if not math.isfinite(value) or value <= 0.0:
                raise InputError(f"non-positive value {token!r}", lineno)
            values.append(value)
    if not values:
        raise InputError("no observations found in input")
    return Dataset(np.asarray(values), source=source)


def outcome(parse, text):
    """The parsed values' bytes and source, or the error's message and line."""
    try:
        data = parse(text, source="<t>")
    except InputError as exc:
        return "error", str(exc), exc.line
    return "ok", data.values.tobytes(), data.source


GOOD = st.one_of(
    st.floats(min_value=5e-324, max_value=1.7976931348623157e308).map(repr),
    st.sampled_from(["1", "2.5", "1_0", "1e308", "1e-308", "5e-324", "2.2250738585072014e-308", "+3", "0.1e1"]),
)
BAD = st.sampled_from(["0", "-0", "-1", "0.0", "inf", "-inf", "nan", "1e309", "abc", "1__0", "_1", "1e", "--1", "0x10"])
# every line boundary of str.splitlines, and other whitespace and commas
SEPARATORS = st.sampled_from([" ", ",", ", ", "\t", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                              "\x85", "\u2028", "\u2029", "\xa0"])
COMMENT = st.builds(lambda body: "#" + body, st.text(st.sampled_from("1 #,x\t"), max_size=6))


@st.composite
def data_texts(draw):
    """Texts of numbers, separators and comments; half of them hold no bad
    token, and every run of pieces may repeat a value."""
    token = st.one_of(GOOD, GOOD, BAD) if draw(st.booleans()) else GOOD
    pieces = draw(st.lists(st.one_of(token, SEPARATORS, SEPARATORS, COMMENT), max_size=40))
    if pieces and draw(st.booleans()):
        pieces += pieces[: draw(st.integers(1, len(pieces)))]  # duplicates
    return "".join(pieces)


class TestParseValues:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(text=data_texts())
    @example(text="")
    @example(text="# only a comment\n")
    @example(text="\n\n \r\n")
    @example(text="1\n2\nabc\n")
    @example(text="1\n-4\n")
    @example(text="1 # 2\n3,# x\r\n4\x0b5\x0c6\x1c7\x858\u20289")
    @example(text="1_0 nan 5e-324 1e308 1e-308 -0 0 1 1")
    @example(text="1e308, 5e-324\n# inf\n2")
    def test_matches_the_line_loop(self, text):
        assert outcome(parse_values, text) == outcome(parse_by_lines, text)

    def test_error_names_the_line(self):
        with pytest.raises(InputError, match=r"^line 3: non-numeric token 'abc'$"):
            parse_values("1\n2 # abc\nabc\n")
        with pytest.raises(InputError, match=r"^line 2: non-positive value 'nan'$"):
            parse_values("1, 2\r\nnan 3\n0\n")


class TestDescribe:
    def unit(self):
        return describe(Dataset(np.array([1.0, 2.0, 4.0, 9.0, 9.5])))

    # the fourth powers and m2^2 left the floating-point range: overflow
    # warnings above, and below a ZeroDivisionError (exit 3) or moments
    # flushed to zero
    @pytest.mark.parametrize("scale", [1e-300, 1e-100, 1e100, 1e150, 2.0**-1070])
    def test_shape_is_scale_free_at_extreme_scales(self, scale):
        stats, unit = describe(Dataset(np.array([1.0, 2.0, 4.0, 9.0, 9.5]) * scale)), self.unit()
        for name in ("skewness_moment", "skewness_adjusted", "kurtosis_moment", "kurtosis_adjusted"):
            assert getattr(stats, name) == pytest.approx(getattr(unit, name), rel=1e-12)
        assert stats.mean == pytest.approx(unit.mean * scale, rel=1e-14)
        assert stats.median == pytest.approx(unit.median * scale, rel=1e-14)

    def test_scaled_by_a_power_of_two_to_the_bit(self):
        unit = self.unit()
        for e in (-500, -201, 201, 450):
            stats = describe(Dataset(np.ldexp(np.array([1.0, 2.0, 4.0, 9.0, 9.5]), e)))
            assert stats.skewness_moment == unit.skewness_moment
            assert stats.kurtosis_moment == unit.kurtosis_moment
            assert (stats.mean, stats.median, stats.variance) == (
                math.ldexp(unit.mean, e), math.ldexp(unit.median, e), math.ldexp(unit.variance, 2 * e))

    def test_variance_beyond_the_float_range_raises(self):
        with pytest.raises(OverflowError, match="^the sample variance exceeds the floating-point range$"):
            describe(Dataset(np.array([1.0, 1e155])))
