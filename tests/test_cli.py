import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
from hypothesis import HealthCheck, assume, example, given, note, settings
from hypothesis import strategies as st

from ecrlab import cli, sim
from ecrlab.cli import build_parser, main
from ecrlab.data import EMBEDDED_NAME, Dataset
from ecrlab.ecr import Params, incomplete_moment, sample
from ecrlab.gof import ttt_transform
from ecrlab.inference import fit_cs_ml, fit_ml


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDescribe:
    def test_embedded_values(self, capsys):
        code, out, _ = run_cli(capsys, "describe", EMBEDDED_NAME, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "ecr-lab/1"
        assert payload["n"] == 66
        assert payload["mean"] == pytest.approx(143.70, abs=0.02)
        assert payload["median"] == 58.5
        assert payload["variance"] == pytest.approx(64506.42, abs=0.01)
        assert payload["min"] == 1.0
        assert payload["max"] == 1386.0
        assert payload["skewness"]["moment"] == pytest.approx(3.104648, abs=1e-4)
        assert payload["kurtosis"]["moment"] == pytest.approx(13.00242, abs=1e-4)

    def test_table_output_labels_conventions(self, capsys):
        code, out, _ = run_cli(capsys, "describe", EMBEDDED_NAME)
        assert code == 0
        assert "skewness (moment)" in out
        assert "kurtosis (adjusted)" in out

    def test_single_value_file(self, capsys, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("5\n")
        code, out, _ = run_cli(capsys, "describe", str(path), "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["mean"] == payload["median"] == payload["min"] == payload["max"] == 5.0
        assert payload["variance"] is None

    def test_non_numeric_token_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\n2\nabc\n")
        code, _, err = run_cli(capsys, "describe", str(path))
        assert code == 2
        assert "line 3" in err

    def test_non_positive_value_rejected(self, capsys, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("1\n-4\n")
        code, _, err = run_cli(capsys, "describe", str(path))
        assert code == 2
        assert "line 2" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "describe", "/nonexistent/data.txt")
        assert code == 2

    def test_comments_and_commas(self, capsys, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_text("# header\n1, 2, 3\n4 5\n")
        code, out, _ = run_cli(capsys, "describe", str(path), "--json")
        assert code == 0
        assert json.loads(out)["n"] == 5


class TestFit:
    def test_ecr_ml_reproduces_application(self, capsys):
        code, out, _ = run_cli(capsys, "fit", EMBEDDED_NAME, "--method", "ml", "--model", "ecr")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "ecr-lab/1"
        assert payload["params"]["beta"] == pytest.approx(0.38669, rel=1e-3)
        assert payload["params"]["lambda"] == pytest.approx(80.68399, rel=1e-3)
        assert payload["converged"] is True

    def test_csml(self, capsys):
        code, out, _ = run_cli(capsys, "fit", EMBEDDED_NAME, "--method", "csml")
        payload = json.loads(out)
        assert code == 0
        assert payload["method"] == "csml"
        assert payload["bias_applied"]["beta"] > 0.0

    def test_pb(self, capsys):
        code, out, _ = run_cli(capsys, "fit", EMBEDDED_NAME, "--method", "pb")
        payload = json.loads(out)
        assert code == 0
        assert payload["std_errors"] is None

    @pytest.mark.parametrize("method", ["ml", "csml", "pb"])
    def test_fitter_is_looked_up_per_call(self, capsys, monkeypatch, method):
        # a table of the fitters bound at import ran the original function,
        # so a patched (or traced) ecrlab.cli fitter was never called
        name = {"ml": "fit_ml", "csml": "fit_cs_ml", "pb": "fit_pb"}[method]
        calls = []
        original = getattr(cli, name)

        def spy(data):
            calls.append(data.n)
            return original(data)

        monkeypatch.setattr(cli, name, spy)
        code, out, _ = run_cli(capsys, "fit", EMBEDDED_NAME, "--method", method)
        assert (code, calls, json.loads(out)["method"]) == (0, [66], method)

    def test_pb_small_sample_exits_cleanly(self, capsys, tmp_path):
        path = tmp_path / "fifteen.txt"
        path.write_text("\n".join(repr(v) for v in sample(15, Params(1.0, 1.0), seed=3).tolist()))
        code, out, err = run_cli(capsys, "fit", str(path), "--method", "pb")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["params"]["beta"] > 0.0
        assert payload["params"]["lambda"] > 0.0

    def test_comparison_model(self, capsys):
        code, out, _ = run_cli(capsys, "fit", EMBEDDED_NAME, "--model", "weibull")
        payload = json.loads(out)
        assert code == 0
        assert payload["params"]["shape"] == pytest.approx(0.66923, rel=1e-3)
        assert payload["params"]["scale"] == pytest.approx(104.10812, rel=1e-3)

    def test_method_restricted_to_ecr(self, capsys):
        code, _, err = run_cli(capsys, "fit", EMBEDDED_NAME, "--model", "gamma", "--method", "pb")
        assert code == 2
        assert "ecr" in err

    def test_extreme_range_is_a_numerical_failure(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1e-300\n1e300\n"))
        code, out, err = run_cli(capsys, "fit", "-")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("values", ["1e160\n2e160\n3e160\n", "1e-200\n2e-200\n5e-200\n"])
    @pytest.mark.parametrize("model", ["ecr", "cr"])
    def test_extreme_scale_data_fit(self, capsys, monkeypatch, values, model):
        # 1/s^2 and lam^2 overflow or underflow at these scales; the fit
        # must not form them
        monkeypatch.setattr("sys.stdin", io.StringIO(values))
        code, out, err = run_cli(capsys, "fit", "-", "--model", model)
        assert code == 0, err
        payload = json.loads(out)
        scale = float(values.split()[0])
        assert 1e-3 < payload["params"]["lambda"] / scale < 1e3
        assert 0.0 < payload["std_errors"]["lambda"] / scale < 1e3

    @pytest.mark.parametrize("values, unit", [("1e160\n2e160\n3e160\n", "1\n2\n3\n"),
                                              ("1e-200\n2e-200\n5e-200\n", "1\n2\n5\n")])
    @pytest.mark.parametrize("option", [("--method", "pb"), ("--model", "weibull")])
    def test_extreme_scale_fit_matches_unit_scale(self, capsys, monkeypatch, values, unit, option):
        # percentile squares and Weibull's x^a leave the floating-point
        # range at these scales; the fits must give the unit-scale
        # sample's shape and its scale times the data's scale
        fits = []
        for text in (values, unit):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(capsys, "fit", "-", *option)
            assert code == 0, err
            fits.append(list(json.loads(out)["params"].values()))
        (shape, scale), (unit_shape, unit_scale) = fits
        assert shape == pytest.approx(unit_shape, rel=1e-12)
        assert scale == pytest.approx(unit_scale * float(values.split()[0]), rel=1e-12)

    def test_pb_near_the_top_of_the_float_range(self, capsys, monkeypatch):
        # the percentile sums and root values overflowed on this sample
        # before they were formed in units of its power of two
        _, draws, _ = run_cli(capsys, "sample", "--beta", "0.11540217103691063",
                              "--lambda", "1.6365796583465295e+295", "--n", "30", "--seed", "1983728049")
        monkeypatch.setattr("sys.stdin", io.StringIO(draws))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "fit", "-", "--method", "pb")
        assert code == 0, err
        params = json.loads(out)["params"]
        assert params["beta"] == pytest.approx(0.0203063, rel=1e-5)
        assert params["lambda"] == pytest.approx(1.76155e296, rel=1e-5)

    def test_unknown_model_rejected_by_parser(self, capsys):
        code, _, _ = run_cli(capsys, "fit", EMBEDDED_NAME, "--model", "cauchy")
        assert code == 2


def run_on_stdin(text, *argv):
    """``main(argv)`` on ``text`` as standard input, with every warning an
    error; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), mock.patch("sys.stdin", io.StringIO(text)):
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def read_back(log_beta, log_lam, n, seed, method):
    """Runs ``sample`` and, unless it exits 3, ``fit --method`` on its
    output; both must exit 0 or 3 without a warning."""
    code, out, _ = run_on_stdin("", "sample", "--beta", repr(10.0**log_beta), "--lambda", repr(10.0**log_lam),
                                "--n", str(n), "--seed", str(seed))
    assert code in (0, 3)
    if code == 3:
        return
    code, _, err = run_on_stdin(out, "fit", "-", "--method", method)
    assert code in (0, 3), err


class TestSample:
    def test_deterministic_bytes(self, capsys):
        _, first, _ = run_cli(capsys, "sample", "--beta", "0.5", "--lambda", "0.6",
                              "--n", "50", "--seed", "42")
        _, second, _ = run_cli(capsys, "sample", "--beta", "0.5", "--lambda", "0.6",
                               "--n", "50", "--seed", "42")
        assert first == second
        assert first.startswith("#")
        assert len(first.strip().split("\n")) == 51

    def test_matches_library(self, capsys):
        _, out, _ = run_cli(capsys, "sample", "--beta", "1.5", "--lambda", "2.0",
                            "--n", "5", "--seed", "9")
        values = [float(v) for v in out.strip().split("\n")[1:]]
        assert values == pytest.approx(list(sample(5, Params(1.5, 2.0), 9)), rel=1e-15)

    def test_draws_beyond_float_range_exit_three(self, capsys):
        code, out, err = run_cli(capsys, "sample", "--beta", "1e9", "--lambda", "1e300",
                                 "--n", "3", "--seed", "1")
        assert code == 3
        assert out == ""
        assert err.startswith("error: the ECR(beta=1000000000.0, lambda=1e+300) quantile at level ")
        assert err.count("\n") == 1

    def test_underflowing_draws_stay_positive(self, capsys):
        # q^(1/beta) underflows for the third draw, which used to print 0
        code, out, _ = run_cli(capsys, "sample", "--beta", "0.002", "--lambda", "1", "--n", "5", "--seed", "1")
        assert code == 0
        values = [float(v) for v in out.strip().split("\n")[1:]]
        assert values == list(sample(5, Params(0.002, 1.0), 1))
        assert min(values) > 0.0

    def test_draws_below_float_range_exit_three(self, capsys):
        code, out, err = run_cli(capsys, "sample", "--beta", "0.001", "--lambda", "1", "--n", "5", "--seed", "1")
        assert code == 3
        assert out == ""
        assert err.startswith("error: the ECR(beta=0.001, lambda=1.0) quantile at level ")
        assert err.endswith(" lies below the smallest positive float\n")

    # Every printed draw is a valid observation, so reading a sample back
    # can fail only numerically (exit 3), never as bad input (exit 2).
    # Near the top of the float range s + lam and beta(lam) * lam overflow
    # where their logs do not.
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(log_beta=st.floats(-3.5, 3.0), log_lam=st.floats(-150.0, 308.0), n=st.integers(1, 30),
           seed=st.integers(0, 2**32 - 1), method=st.sampled_from(("ml", "csml", "pb")))
    @example(log_beta=math.log10(0.002), log_lam=0.0, n=5, seed=1, method="ml")
    def test_sample_read_back_by_fit_never_exits_two(self, log_beta, log_lam, n, seed, method):
        read_back(log_beta, log_lam, n, seed, method)

    @pytest.mark.parametrize("method", ["ml", "csml"])
    def test_ml_near_the_top_of_the_float_range(self, method):
        # s + lam in log u and -n * lam in the profile overflowed on this
        # sample: three RuntimeWarnings, then exit 3; the fit must be that
        # of the sample divided by 2^986
        _, draws, _ = run_on_stdin("", "sample", "--beta", "0.29544347344426447",
                                   "--lambda", "7.662214500367946e+296", "--n", "23", "--seed", "349815427")
        code, out, err = run_on_stdin(draws, "fit", "-", "--method", method)
        assert code == 0, err
        params = json.loads(out)["params"]
        unit = Dataset(np.array([float(v) for v in draws.splitlines()[1:]]) / 2.0**986)
        ml = fit_ml(unit)
        if method == "csml":
            ml = fit_cs_ml(unit, ml)
        assert params["beta"] == pytest.approx(ml.params.beta, rel=1e-9)
        assert params["lambda"] == pytest.approx(ml.params.lam * 2.0**986, rel=1e-9)

    # Up to the top of the float range the percentile fit keeps its sums in
    # units of the sample's power of two, so no step overflows or warns.
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(log_beta=st.floats(-3.5, 3.0), log_lam=st.floats(150.0, 308.0), n=st.integers(1, 30),
           seed=st.integers(0, 2**32 - 1))
    def test_pb_read_back_near_the_float_range_top_never_warns(self, log_beta, log_lam, n, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            read_back(log_beta, log_lam, n, seed, "pb")

    def test_round_trip_through_fit(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "sample", "--beta", "0.5", "--lambda", "0.6",
                            "--n", "100000", "--seed", "123")
        path = tmp_path / "draws.txt"
        path.write_text(out)
        code, fit_out, _ = run_cli(capsys, "fit", str(path))
        assert code == 0
        payload = json.loads(fit_out)
        assert payload["params"]["beta"] == pytest.approx(0.5, rel=0.03)
        assert payload["params"]["lambda"] == pytest.approx(0.6, rel=0.03)

    # draws from subnormal to about 1e306; n = 2 * block + 1 writes three
    # blocks, the last of one row
    @pytest.mark.parametrize("n", [1, 2, 2 * cli._BLOCK_ROWS + 1])
    @pytest.mark.parametrize("beta, lam", [(0.7, 3e-320), (1.0, 1e-315), (0.5, 1e300), (1.0, 1e303)])
    def test_stdout_matches_per_row_formatting(self, capsys, n, beta, lam):
        code, out, err = run_cli(capsys, "sample", "--beta", repr(beta), "--lambda", repr(lam),
                                 "--n", str(n), "--seed", "1")
        assert code == 0, err
        header = f"# ecrlab sample beta={beta:g} lambda={lam:g} n={n} seed=1\n"
        assert out == header + "".join(f"{float(v):.17g}\n" for v in sample(n, Params(beta, lam), 1))


class TestMoments:
    def test_nonexistent_moment_exits_three(self, capsys):
        code, out, err = run_cli(capsys, "moments", "--beta", "1", "--lambda", "1", "--r", "1")
        assert code == 3
        assert "does not exist for r" in err
        payload = json.loads(out)
        assert payload["results"]["raw"]["exists"] is False

    def test_infinite_incomplete_order_is_a_window_error(self, capsys):
        # it passed the check `r <= lower` and failed in the Appell series
        code, out, err = run_cli(capsys, "moments", "--beta", "1", "--lambda", "1", "--r", "inf", "--x0", "2")
        assert code == 3
        entry = json.loads(out)["results"]["incomplete"]
        assert entry["exists"] is False
        assert entry["window"] == [-2.0, "Infinity"]
        assert "incomplete: incomplete moment of order r=inf: the order must be finite" in err
        assert "tail index" not in entry["error"]

    def test_valid_moment_values(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--beta", "1", "--lambda", "1", "--r", "-1")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["raw"]["value"] == pytest.approx(1.0, rel=1e-10)
        assert payload["results"]["log"]["value"] == pytest.approx(np.log(2.0), rel=1e-10)

    def test_loss_of_precision_exits_three(self, capsys):
        code, _, err = run_cli(
            capsys, "moments", "--beta", "1", "--lambda", "1", "--r", "0.5",
            "--order-stat", "1", "60",
        )
        assert code == 3
        assert err.startswith("error: order statistic moment")
        assert err.count("\n") == 1

    def test_non_positive_incomplete_moment_exits_three(self, capsys):
        # it printed "incomplete": -8.09e-10 and exited 0
        code, out, err = run_cli(capsys, "moments", "--beta", "30", "--lambda", "1", "--r=-50", "--x0", "3")
        assert code == 3
        assert out == ""
        assert err.startswith("error: incomplete moment: the evaluation gives -8.09036e-10")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, cause", [
        (["--beta", "1e6", "--lambda", "1", "--r=-1e6"], "the closed form evaluates to nan"),
        (["--beta", "1e5", "--lambda", "1e-3", "--r=-1e5", "--pwm", "0", "8"], "(lambda sqrt 2)^r overflows"),
    ])
    def test_value_outside_the_float_range_exits_three(self, capsys, argv, cause):
        code, out, err = run_cli(capsys, "moments", *argv)
        assert code == 3
        assert out == ""
        assert err.startswith(f"error: raw moment: {cause}")
        assert err.count("\n") == 1

    def test_quadrature_warning_exits_three(self, capsys, monkeypatch):
        def warned(*args, **kwargs):
            return 1.0, 1e-3, {"last": 500}, "The maximum number of subdivisions has been achieved."

        monkeypatch.setattr(scipy.integrate, "quad", warned)
        # beta 8 lies above the series in v's limit, so u0 = 0.9501 takes quadrature
        code, _, err = run_cli(
            capsys, "moments", "--beta", "8", "--lambda", "1.0", "--r", "0.5", "--x0", "20",
        )
        assert code == 3
        assert err.startswith("error: appell_f1 quadrature did not converge")
        assert err.count("\n") == 1
        # at beta 0.8 the series in v never reach the quadrature
        code, out, _ = run_cli(capsys, "moments", "--beta", "0.8", "--lambda", "1.0", "--r", "0.5", "--x0", "20")
        assert code == 0
        entry = json.loads(out)["results"]["incomplete"]
        assert entry["path"] == "v_series"
        assert entry["value"] == pytest.approx(1.299440251160156482, rel=1e-14)  # 50-digit reference

    def test_log_gamma_overflow_names_the_argument(self, capsys):
        code, _, err = run_cli(capsys, "moments", "--beta", "1e306", "--lambda", "1", "--r", "-0.5")
        assert code == 3
        assert err == "error: log_gamma(1e+306) overflows the floating-point range\n"

    @pytest.mark.parametrize("scale", ["1e-170", "1e160"])
    def test_incomplete_moment_at_extreme_scales(self, capsys, scale):
        code, out, _ = run_cli(capsys, "moments", "--beta", "1.5", "--lambda", scale,
                               "--r", "0.5", "--x0", scale)
        assert code == 0
        value = json.loads(out)["results"]["incomplete"]["value"]
        assert value == pytest.approx(float(scale) ** 0.5 * 0.12889581438406248, rel=1e-14)

    def test_incomplete_moment_where_u0_rounds_to_one_exits_three(self, capsys):
        # the closed form in u0 is taken only above the series in v's beta limit
        code, _, err = run_cli(capsys, "moments", "--beta", "8", "--lambda", "1", "--r", "0.5", "--x0", "1e20")
        assert code == 3
        assert err == "error: incomplete moment: u0 = 1 - lambda/hypot(lambda, x0) rounds to 1 at x0/lambda = 1e+20\n"
        # at beta 0.8 the moment is the full moment less its tail, 1.6e-10
        code, out, _ = run_cli(capsys, "moments", "--beta", "0.8", "--lambda", "1", "--r", "0.5", "--x0", "1e20")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["incomplete"]["value"] == pytest.approx(results["raw"]["value"] - 1.6e-10, rel=1e-14)

    def test_incomplete_moment_prefactor_overflow_exits_three(self, capsys):
        # lambda^r = 1e308.7 overflowed as a bare OverflowError, printed as
        # "error: (34, 'Numerical result out of range')"; the raw moment
        # there is finite (5.6e161)
        code, out, err = run_cli(capsys, "moments", "--beta", "1e3", "--lambda", "1e-3", "--r=-102.9", "--x0", "1")
        assert (code, out) == (3, "")
        assert err == ("error: incomplete moment: the closed form's factors leave the floating-point range"
                       " at beta = 1000, lambda = 0.001, r = -102.9\n")

    @pytest.mark.parametrize("beta, x0, rows, path", [
        ("0.8", "2", 47, "appell_series"),  # v0 = 0.45 >= 0.4
        ("0.8", "4", 79, "v_series"),  # v0 = 0.24 < 0.4
        ("8", "20", 0, "quadrature"),  # beta above the series in v's limit, u0 = 0.9501 > 0.95
    ])
    def test_incomplete_moment_reports_its_path(self, capsys, beta, x0, rows, path):
        code, out, _ = run_cli(capsys, "moments", "--beta", beta, "--lambda", "1", "--r", "0.5", "--x0", x0)
        assert code == 0
        entry = json.loads(out)["results"]["incomplete"]
        assert (entry["series_rows"], entry["path"]) == (rows, path)
        assert entry["value"] == incomplete_moment(0.5, float(x0), Params(float(beta), 1.0))

    def test_optional_quantities(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--beta", "0.8", "--lambda", "1.0", "--r", "0.5",
            "--x0", "2.0", "--order-stat", "1", "3", "--pwm", "1", "2",
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["incomplete"]["exists"] is True
        assert results["order_statistic"]["rank"] == [1, 3]
        assert results["pwm"]["indexes"] == [1, 2]

    @pytest.mark.parametrize("extra", [[], ["--x0", "2"], ["--pwm", "1", "2"], ["--order-stat", "1", "3"]],
                             ids=["raw", "x0", "pwm", "order-stat"])
    def test_nan_order_is_bad_input(self, capsys, extra):
        # it passed every window check: with --x0 the Appell series raised
        # a ConvergenceError (exit 3), without it "order": NaN was printed
        code, out, err = run_cli(capsys, "moments", "--beta", "1", "--lambda", "1", "--r", "nan", *extra)
        assert (code, out, err) == (2, "", "error: moment order r must be a number, got nan\n")

    @pytest.mark.parametrize("r, order, code", [
        ("inf", "Infinity", 3), ("-inf", "-Infinity", 3), ("-5", -5.0, 3), ("0.5", 0.5, 0),
    ])
    def test_json_is_strict(self, capsys, r, order, code):
        # orders and window bounds that are not finite are strings, as in
        # gof; json.dumps wrote them as the non-JSON Infinity and -Infinity
        def refuse(constant):
            raise AssertionError(f"{constant} is not JSON")

        # the incomplete moment at r = inf is a ConvergenceError, with no JSON
        x0 = [] if r == "inf" else ["--x0", "2"]
        status, out, _ = run_cli(capsys, "moments", "--beta", "1", "--lambda", "1", f"--r={r}",
                                 "--pwm", "1", "2", "--order-stat", "1", "3", *x0)
        assert status == code
        results = json.loads(out, parse_constant=refuse)["results"]
        assert [entry["order"] for entry in results.values() if "order" in entry] == [order] * (len(results) - 1)
        if r in ("-inf", "-5"):
            assert results["incomplete"]["window"] == [-2.0, "Infinity"]


class TestGofAndTtt:
    def test_gof_reports_sorted(self, capsys):
        code, out, _ = run_cli(capsys, "gof", EMBEDDED_NAME)
        assert code == 0
        reports = json.loads(out)["reports"]
        assert len(reports) == 6
        assert reports[0]["model"] == "ecr"
        ws = [r["wstar"] for r in reports]
        assert ws == sorted(ws)
        assert reports[0]["aic"] == pytest.approx(764.612, abs=0.02)

    def test_gof_single_observation_is_an_input_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("4.2\n"))
        code, out, err = run_cli(capsys, "gof", "-")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_ttt_csv(self, capsys):
        code, out, _ = run_cli(capsys, "ttt", EMBEDDED_NAME)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "r_over_n,ttt"
        assert len(lines) == 67
        last = lines[-1].split(",")
        assert float(last[0]) == 1.0
        assert float(last[1]) == pytest.approx(1.0, rel=1e-12)

    # observations from 5e-324 to 1e308; n = 2 * block + 1 writes three
    # blocks, the last of one row
    @pytest.mark.parametrize("n", [1, 2, 2 * cli._BLOCK_ROWS + 1])
    def test_ttt_stdout_matches_per_row_formatting(self, capsys, tmp_path, n):
        values = 10.0 ** np.random.default_rng(n).uniform(-320.0, 300.0, n)
        values[:2] = (5e-324, 1e308)[:n]
        path = tmp_path / "values.txt"
        path.write_text("".join(f"{v!r}\n" for v in values.tolist()))
        code, out, err = run_cli(capsys, "ttt", str(path))
        assert code == 0, err
        rows = ttt_transform(Dataset(values))
        assert out == "r_over_n,ttt\n" + "".join(f"{r:.17g},{g:.17g}\n" for r, g in rows)


COMPARISON_COMMANDS = [("fit", "-", "--model", m) for m in ("ecr", "cr", "weibull", "gamma", "lognormal", "ee")]
COMPARISON_COMMANDS += [("fit", "-", "--method", "pb"), ("fit", "-", "--method", "csml"), ("gof", "-")]
# ttt summed the raw sample, which overflowed on the near-top samples
COMPARISON_COMMANDS += [("ttt", "-")]


@st.composite
def contract_samples(draw):
    """n = 2-40 positive values, log10 in [-300, 300], with at least two
    distinct values (gof rejects fewer as bad input): spread out, tied
    onto two or three values, or near-constant; or near the top, n - 1
    values in [1e306, 1.79e308] and one from the smallest subnormal to 2."""
    n = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(("spread", "ties", "near", "top")))
    if kind == "top":
        tiny = max(10.0 ** draw(st.floats(-323.3, 0.3)), 5e-324)
        values = draw(st.lists(st.floats(1e306, 1.79e308), min_size=n - 1, max_size=n - 1)) + [tiny]
    elif kind == "near":
        base = 10.0 ** draw(st.floats(-300.0, 300.0))
        rel = 10.0 ** draw(st.floats(-15.0, -1.0))
        values = [base * (1.0 + rel * k) for k in draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))]
    else:
        logs = st.floats(-300.0, 300.0)
        if kind == "ties":
            logs = st.sampled_from(draw(st.lists(logs, min_size=2, max_size=3)))
        values = [10.0**v for v in draw(st.lists(logs, min_size=n, max_size=n))]
    assume(len(set(values)) >= 2)
    return "".join(f"{v!r}\n" for v in values)


class TestComparisonFitContract:
    """Each comparison fit is a maximum-likelihood estimate or a typed
    numerical failure (exit 3) that names its equation."""

    NEAR_CONSTANT = "1.0\n1.0001\n1.0002\n"

    @pytest.mark.parametrize("model, equation", [("ee", "EE profile score")])
    def test_near_constant_sample_has_no_root(self, model, equation):
        # for EE the bounded minimizer reported the bracket's upper end
        # (exit 0); the root lies beyond rate min x = 700, where the shape
        # e^(rate min x) leaves the floating-point range
        code, out, err = run_on_stdin(self.NEAR_CONSTANT, "fit", "-", "--model", model)
        assert (code, out, err) == (3, "", f"error: {equation} has no bracketed root\n")

    # 30-digit mpmath roots of the shape equations on the exact data, and
    # the scale each implies. The fixed brackets [1e-3, 100] and [1e-6, 1e6]
    # missed these shapes ("has no bracketed root", exit 3). The gamma
    # equation's log p - psi(p) = 3.3e-9 is now its asymptotic series and
    # the gap a mean of log1p, so neither cancels: its root is good to
    # 4.8e-13 (measured), where log p - psi(p) gave 2.1e-7.
    @pytest.mark.parametrize("model, shape, scale, rel", [
        ("weibull", 13951.1739459456403878843485854, 1.00014055867149008211648193197, 1e-12),
        ("gamma", 150030000.916699708773005039369, 6.66600009257668229981149303392e-9, 5e-13),
    ], ids=["weibull", "gamma"])
    def test_near_constant_sample_fits(self, model, shape, scale, rel):
        code, out, err = run_on_stdin(self.NEAR_CONSTANT, "fit", "-", "--model", model)
        assert code == 0, err
        params = json.loads(out)["params"]
        assert params == {"shape": pytest.approx(shape, rel=rel), "scale": pytest.approx(scale, rel=rel)}

    def test_ee_fits_a_tiny_observation(self):
        # log1p(-exp(-rate x)) is log(0) at rate x ~ 1e-21: a divide-by-zero
        # warning, then a bare "math domain error" (exit 2); the pins are a
        # 40-digit mpmath root of the profile score, to 5e-14
        text = "1e-20\n1\n2\n3\n5\n"
        code, out, err = run_on_stdin(text, "fit", "-", "--model", "ee")
        assert code == 0, err
        shape, rate = json.loads(out)["params"].values()
        assert shape == pytest.approx(0.08894962578672347, rel=1e-9)
        assert rate == pytest.approx(0.0717192160531141, rel=1e-9)
        code, out, err = run_on_stdin(text, "gof", "-")
        assert code == 0, err
        assert all("error" not in report for report in json.loads(out)["reports"])

    def test_lognormal_on_equal_logs_exits_three(self):
        # these logs round to one value, so sigma = 0 divided by zero: a
        # warning, then a bare "math domain error" (exit 2)
        code, out, err = run_on_stdin("1.00000000000002e+30\n1.00000000000003e+30\n", "fit", "-", "--model", "lognormal")
        assert (code, out, err) == (3, "", "error: log-normal sigma estimate is 0: the logs of the data are all equal\n")

    @pytest.mark.parametrize("text, lam", [
        # 3 sum 1/(1 + (x/lam)^2) = n has the root sqrt(2) 1e-100 here, to
        # about 1e-200 relative
        ("1e-300\n1e-100\n1\n1e100\n1e300\n", math.sqrt(2.0) * 1e-100),
        # its 40-digit mpmath root
        ("1e-60\n1\n3\n1e60\n2e50\n", 1.1010061082705337),
    ], ids=["600-decades", "120-decades"])
    def test_cr_scale_across_hundreds_of_decades(self, text, lam):
        # Brent's method in the scale itself stopped after 200 iterations
        # across these spans: first the unconverged scale was printed (exit
        # 0), then "CR scale score did not converge" (exit 3); in log scale
        # it converges
        code, out, err = run_on_stdin(text, "fit", "-", "--model", "cr")
        assert code == 0, err
        assert json.loads(out)["params"]["lambda"] == pytest.approx(lam, rel=1e-12)

    # Data at the top of the float range. fit_pb's power of two 2^1024
    # overflowed ("error: math range error", exit 3); log_likelihood's
    # hypot, and the gamma and EE fits' sum of x, overflowed into a
    # RuntimeWarning. On the sample in units of 2^e every fit runs.
    TOP = "1.7e308\n1.75e308\n1.79e308\n1.6e308\n"
    NEAR_TOP = "1e308\n1.5e308\n1.2e308\n1.1e308\n3e307\n"

    @pytest.mark.parametrize("text, argv", [
        (TOP, ("fit", "-", "--method", "pb")),
        (TOP, ("gof", "-")),
        (NEAR_TOP, ("fit", "-", "--model", "gamma")),
        (NEAR_TOP, ("fit", "-", "--model", "ee")),
        (NEAR_TOP, ("gof", "-")),
    ], ids=["pb-top", "gof-top", "gamma-near-top", "ee-near-top", "gof-near-top"])
    def test_top_of_the_float_range_fits(self, text, argv):
        code, out, err = run_on_stdin(text, *argv)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        for report in payload.get("reports", [payload]):
            assert "error" not in report and all(map(math.isfinite, report["params"].values())), report

    # Near-top data with one small value whose last bit is odd: it loses
    # bits in units, so the exact units fall back to the raw sample, whose
    # mean and sum overflowed into a RuntimeWarning (exit 1 under -W error).
    ODD_BIT = "1.7e308\n1.75e308\n3.3000000000000003\n"

    @pytest.mark.parametrize("argv, code, message", [
        (("fit", "-", "--model", "gamma"), 3, "error: gamma scale estimate leaves the floating-point range\n"),
        (("fit", "-", "--model", "ee"), 0, ""),
        (("gof", "-"), 0, ""),
    ], ids=["gamma", "ee", "gof"])
    def test_raw_sums_near_the_top_stay_in_range(self, argv, code, message):
        # the gamma shape is 0.0041, so its scale, mean/shape, is 2.8e310
        assert run_on_stdin(self.ODD_BIT, *argv)[0::2] == (code, message)

    # The same kind at even n: the median of the raw sample averages two
    # values near the top, which overflowed into a RuntimeWarning in ML
    # and csml fits and in gof (exit 1 under -W error). Its median in
    # plain units puts the ML grid past the top: the typed grid error.
    ODD_BIT_EVEN_N = ("1.1230880362053665e308\n7.568206084215247e307\n4.650006681234988e307\n"
                      "1.3685313117935789e308\n1.1169383139286681e308\n0.8279465973433803\n")
    GRID_ERROR = ("error: the scale grid leaves the floating-point range: the data span too many orders "
                  "of magnitude\n")

    @pytest.mark.parametrize("argv, code, message", [
        (("fit", "-"), 3, GRID_ERROR),
        (("fit", "-", "--method", "csml"), 3, GRID_ERROR),
        (("gof", "-"), 0, ""),
    ], ids=["ml", "csml", "gof"])
    def test_raw_median_near_the_top_stays_in_range(self, argv, code, message):
        assert run_on_stdin(self.ODD_BIT_EVEN_N, *argv)[0::2] == (code, message)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(text=contract_samples())
    @example(text=NEAR_CONSTANT)
    @example(text="1e-20\n1\n2\n3\n5\n")
    @example(text="1e-300\n1e-100\n1\n1e100\n1e300\n")
    # the EE bracket divided by a smallest value of 0 in units ("float
    # division by zero", exit 3), or its score overflowed in the raw sample
    @example(text="1e-320\n1.4e308\n1.2e308\n")
    @example(text="5e-324\n8.6e307\n3e307\n")
    # the gamma scale, mean/shape, rounds to 0 here; its log-likelihood then
    # divided by it ("math domain error", exit 2)
    @example(text="1.170633e-317\n1.170633e-317\n1.1706787e-317\n1.170656e-317\n1.1706787e-317\n")
    def test_exit_contract_property(self, text):
        for argv in COMPARISON_COMMANDS:
            code, out, err = run_on_stdin(text, *argv)
            assert code in (0, 3), (argv, err)
            assert err == "" if code == 0 else err.startswith("error: ") and err.count("\n") == 1
            for bare in ("must have different signs", "math domain error", "division by zero"):
                assert bare not in out + err, (argv, out, err)


class TestSimulate:
    def test_runs_config_and_honors_thread_env(self, capsys, tmp_path, monkeypatch):
        config = {
            "truth": {"beta": 0.5, "lambda": 0.6},
            "sample_sizes": [20],
            "replications": 10,
            "estimators": ["ml"],
            "master_seed": 77,
        }
        path = tmp_path / "study.json"
        path.write_text(json.dumps(config))
        code, serial, _ = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 0
        monkeypatch.setenv("ECR_LAB_THREADS", "2")
        code, parallel, _ = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 0
        assert serial == parallel
        header = serial.split("\n", 1)[0]
        assert header.startswith("cell,beta_true,lambda_true,n,estimator")

    def test_grid_config(self, capsys, tmp_path):
        config = {
            "truth": {"beta": 1.0, "lambda": 1.0},
            "sample_sizes": [20],
            "replications": 5,
            "estimators": ["ml"],
            "master_seed": 1,
            "grid": {"beta": [0.5, 1.0], "lambda": [1.0]},
        }
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(config))
        code, out, _ = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + 2 * 2  # 2 cells x 2 parameters

    def test_bad_config(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2

    def test_non_integer_thread_count(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "study.json"
        path.write_text(json.dumps({"truth": {"beta": 0.5, "lambda": 0.6},
                                    "sample_sizes": [20], "replications": 2}))
        monkeypatch.setenv("ECR_LAB_THREADS", "many")
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2
        assert out == ""
        assert "ECR_LAB_THREADS" in err and "'many'" in err

    def test_missing_config(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--config", "/nope.json")
        assert code == 2

    # a negative seed failed inside the first replication with numpy's
    # message, and the others ran: an empty list printed only the header,
    # the string "ml" was read as the estimators m and l, and a repeated
    # name printed its rows twice
    @pytest.mark.parametrize("field, change", [
        ("master_seed", {"master_seed": -1}),
        ("estimators", {"estimators": []}),
        ("estimators", {"estimators": "ml"}),
        ("grid", {"grid": {"beta": [], "lambda": [1.0]}}),
        ("estimators", {"estimators": ["ml", "ml"]}),
    ])
    def test_config_rejected_before_the_study(self, capsys, tmp_path, monkeypatch, field, change):
        path = tmp_path / "study.json"
        path.write_text(json.dumps({"truth": {"beta": 0.5, "lambda": 0.6},
                                    "sample_sizes": [20], "replications": 2, **change}))
        monkeypatch.setenv("ECR_LAB_THREADS", "2")
        monkeypatch.setattr(sim, "_run_cells", lambda *args: pytest.fail("the study ran"))
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid config: ") and field in err

    def test_pool_workers_exit_with_the_interpreter(self):
        # the process keeps its pool after the study; concurrent.futures'
        # exit hook must still join its workers, without a warning
        code = ("import multiprocessing, os\n"
                "from ecrlab import sim\nfrom ecrlab.ecr import Params\n"
                "os.cpu_count = lambda: 2\n"
                "sim.run_convergence_study(sim.StudyConfig(Params(0.5, 0.6), (20,), 4, ('ml',)), workers=2)\n"
                "print(*sorted(p.pid for p in multiprocessing.active_children()))")
        result = run_python("-W", "error", "-c", code)
        assert (result.returncode, result.stderr) == (0, "")
        pids = [int(pid) for pid in result.stdout.split()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_version(self, capsys):
        assert run_cli(capsys, "--version")[0] == 0

    def test_invalid_params(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--beta", "-1", "--lambda", "1",
                               "--n", "5", "--seed", "1")
        assert code == 2

    # Each of these escaped as a bare ValueError or OverflowError, which
    # the exit code was once guessed from (2, or 3 for the config's seed),
    # or as an AttributeError (exit 1 with a traceback).
    def test_negative_seed(self, capsys):
        code, out, err = run_cli(capsys, "sample", "--beta", "1", "--lambda", "1", "--n", "5", "--seed", "-1")
        assert (code, out, err) == (2, "", "error: seed must be >= 0, got -1\n")

    def test_undecodable_input(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"\xff\xfe1\n")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(path.read_bytes()), encoding="utf-8"))
        for source in (str(path), "-"):
            code, out, err = run_cli(capsys, "describe", source)
            assert (code, out) == (2, "")
            name = "<stdin>" if source == "-" else path
            assert err.startswith(f"error: cannot read {name}: ") and "codec can't decode byte 0xff" in err
            assert err.count("\n") == 1

    @pytest.mark.parametrize("text, message", [
        (b"[1, 2]", "invalid config: expected a JSON object, got list"),
        (b'{"truth": {"beta": 1, "lambda": 1}, "sample_sizes": [20], "replications": 2, "master_seed": 1e400}',
         "invalid config: cannot convert float infinity to integer"),
        (b"\xff\xfe", "invalid config JSON: "),
    ], ids=["list", "infinite-seed", "undecodable"])
    def test_unreadable_config(self, capsys, tmp_path, text, message):
        path = tmp_path / "study.json"
        path.write_bytes(text)
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


def run_python(*args):
    """A fresh interpreter that imports ecrlab from this source tree."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


# One interpreter runs every command, so the check costs one start-up.
NO_SCIPY = """
import contextlib, io, sys
from ecrlab import cli
path = sys.argv[1]
for argv in (["describe", path], ["ttt", path], ["fit", path], ["fit", path, "--method", "csml"],
             ["fit", path, "--method", "pb"], ["fit", path, "--model", "cr"],
             ["fit", path, "--model", "weibull"], ["fit", path, "--model", "ee"],
             ["sample", "--beta", "1.5", "--lambda", "2", "--n", "20", "--seed", "9"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
import ecrlab.sim
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


class TestStartUp:
    def test_pure_numpy_commands_load_no_scipy(self, tmp_path):
        path = tmp_path / "draws.txt"
        path.write_text("\n".join(repr(float(v)) for v in sample(30, Params(1.5, 2.0), 4)))
        result = run_python("-c", NO_SCIPY, str(path))
        assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")

    def test_incomplete_moment_at_a_covered_shape_loads_no_quadrature(self):
        # u0 = 0.95006 lies above the Appell quadrature switch, which the
        # series in v replace at beta 0.8
        code = ("import contextlib, io, sys\nfrom ecrlab import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert cli.main(['moments', '--beta', '0.8', '--lambda', '1', '--r', '0.5', '--x0', '20']) == 0\n"
                "print('scipy.integrate' in sys.modules)")
        result = run_python("-c", code)
        assert (result.returncode, result.stdout, result.stderr) == (0, "False\n", "")

    def test_python_dash_m(self):
        result = run_python("-m", "ecrlab", "describe", EMBEDDED_NAME)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.startswith("n ")


class ClosedStdout(io.StringIO):
    """A stdout whose reader has gone, as in ``ecrlab ttt big.txt | head -1``."""

    def write(self, text):
        self.flush()

    def flush(self):  # argparse ignores a failed write; main's flush fails then
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [("ttt", EMBEDDED_NAME), ("describe", EMBEDDED_NAME, "--json"),
                                      ("sample", "--beta", "1", "--lambda", "1", "--n", "10", "--seed", "1"),
                                      ("moments", "--beta", "1", "--lambda", "1", "--r", "1"),
                                      ("--help",)])
    def test_exits_one_quietly(self, argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(ClosedStdout()), contextlib.redirect_stderr(err):
            code = main(list(argv))
        assert (code, err.getvalue()) == (1, "")


# Flag and data values: mostly positive, from ordinary magnitudes to both
# ends of the float range, and otherwise zero, signed zeros, negatives,
# NaN, inf or a literal that overflows to inf.
MODERATE = st.floats(-2.0, 2.0).map(lambda e: repr(10.0**e))
WIDE = st.floats(-300.0, 300.0).map(lambda e: repr(10.0**e))
SPECIAL = st.one_of(
    st.sampled_from(["0", "-0", "-1", "1e300", "1e-300", "-1e300", "-1e-300", "1.7e308", "5e-324",
                     "nan", "inf", "-inf", "1e309"]),
    WIDE.map(lambda v: "-" + v),
)
FLAG_FLOATS = st.one_of(MODERATE, MODERATE, WIDE, SPECIAL)
FLAG_INTS = st.integers(-3, 40).map(str)


@st.composite
def data_source(draw, clean):
    """(input argument, stdin text): up to 30 values on stdin, or the
    embedded data if ``clean``, else a missing file."""
    if draw(st.integers(0, 4)) == 0:
        return (EMBEDDED_NAME, "") if clean else ("/nonexistent/values.txt", "")
    value = st.one_of(MODERATE, WIDE) if clean else FLAG_FLOATS
    return "-", "\n".join(draw(st.lists(value, min_size=int(clean), max_size=30)))


@st.composite
def cli_argv(draw, command, config):
    """(argv, stdin text) for ``command``: half of them ``clean``, with
    every value in its domain, the others with any flag values.
    ``simulate`` rewrites ``config`` with a study of at most 2
    replications of n <= 30."""
    clean = draw(st.booleans())
    number = st.one_of(MODERATE, MODERATE, WIDE) if clean else FLAG_FLOATS
    stdin = ""
    if command in ("describe", "fit", "gof", "ttt"):
        source, stdin = draw(data_source(clean))
        argv = [command, source]
        if command == "describe":
            argv += draw(st.sampled_from(([], ["--json"], ["--csv"])))
        if command == "fit":
            model = draw(st.sampled_from(("ecr", "ecr", "ecr", "cr", "weibull", "gamma", "lognormal", "ee")))
            # csml and pb apply to ecr only
            method = "ml" if model != "ecr" and clean else draw(st.sampled_from(("ml", "csml", "pb")))
            argv += ["--method", method, "--model", model]
    elif command == "sample":
        # --flag=value, so that argparse takes a negative value for a value
        n = st.integers(1, 40) if clean else st.integers(-3, 40)
        argv = [command, f"--beta={draw(number)}", f"--lambda={draw(number)}",
                f"--n={draw(n)}", f"--seed={draw(st.integers(-2 * (not clean), 2**64))}"]
    elif command == "moments":
        r = st.floats(-0.99, 0.99).map(repr) if clean else FLAG_FLOATS
        argv = [command, f"--beta={draw(number)}", f"--lambda={draw(number)}", f"--r={draw(r)}"]
        if draw(st.booleans()):
            argv.append(f"--x0={draw(number)}")
        if draw(st.booleans()):
            size = draw(st.integers(1, 40))
            rank = st.integers(1, size) if clean else st.integers(-3, 40)
            argv += ["--order-stat", str(draw(rank)), str(size)]
        if draw(st.booleans()):
            index = st.integers(0 if clean else -2, 6)
            argv += ["--pwm", str(draw(index)), str(draw(index))]
    else:
        estimators = st.lists(st.sampled_from(("ml", "csml", "pb")), min_size=1, max_size=3)
        if not clean:
            estimators = st.one_of(estimators, st.just(["mom"]))
        study = {"truth": {"beta": float(draw(number)), "lambda": float(draw(number))},
                 "sample_sizes": [draw(st.integers(5 if clean else 4, 30))],
                 "replications": draw(st.integers(1 if clean else 0, 2)),
                 "estimators": draw(estimators),
                 "master_seed": draw(st.integers(0 if clean else -1, 2**32))}
        config.write_text(json.dumps(study))
        argv = [command, "--config", str(config)]
    if not clean and draw(st.integers(0, 4)) == 0:  # a flag the command does not take
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(("--bogus", "--n", "-x", "--json"))))
    return argv, stdin


def parsed(parser, argv):
    """The repr of the namespace ``parser`` makes of ``argv`` (a float's
    repr is exact, and NaN equals itself), or its exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return repr(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code


class TestArgvFuzz:
    """Every argv ends in exit 0, 2 or 3, without an escaping exception or
    a warning, and the parser ``main`` keeps for the process parses it as
    a freshly built one does."""

    @pytest.mark.parametrize("command", ["describe", "fit", "gof", "ttt", "sample", "moments", "simulate"])
    @settings(derandomize=True, max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_every_command_exits_by_the_contract(self, tmp_path, command, data):
        config = tmp_path / "study.json"
        argv, stdin = data.draw(cli_argv(command, config))
        note(f"stdin {stdin!r}" if command != "simulate" else f"config {config.read_text()}")
        with mock.patch.dict(os.environ):
            os.environ.pop("ECR_LAB_THREADS", None)  # simulate stays serial
            code, _, err = run_on_stdin(stdin, *argv)
        assert code in (0, 2, 3), (argv, code, err)
        assert parsed(cli._parser(), argv) == parsed(build_parser(), argv)
