import io
import json

import numpy as np
import pytest

from ecrlab import specfun
from ecrlab.cli import main
from ecrlab.data import EMBEDDED_NAME
from ecrlab.ecr import Params, sample


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

    def test_unknown_model_rejected_by_parser(self, capsys):
        code, _, _ = run_cli(capsys, "fit", EMBEDDED_NAME, "--model", "cauchy")
        assert code == 2


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


class TestMoments:
    def test_nonexistent_moment_exits_three(self, capsys):
        code, out, err = run_cli(capsys, "moments", "--beta", "1", "--lambda", "1", "--r", "1")
        assert code == 3
        assert "does not exist for r" in err
        payload = json.loads(out)
        assert payload["results"]["raw"]["exists"] is False

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

    def test_quadrature_warning_exits_three(self, capsys, monkeypatch):
        def warned(*args, **kwargs):
            return 1.0, 1e-3, {"last": 500}, "The maximum number of subdivisions has been achieved."

        monkeypatch.setattr(specfun, "quad", warned)
        code, _, err = run_cli(
            capsys, "moments", "--beta", "0.8", "--lambda", "1.0", "--r", "0.5", "--x0", "20",
        )
        assert code == 3
        assert err.startswith("error: appell_f1 quadrature did not converge")
        assert err.count("\n") == 1

    def test_log_gamma_overflow_names_the_argument(self, capsys):
        code, _, err = run_cli(capsys, "moments", "--beta", "1e306", "--lambda", "1", "--r", "-0.5")
        assert code == 3
        assert err == "error: log_gamma(1e+306) overflows the floating-point range\n"

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


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_version(self, capsys):
        assert run_cli(capsys, "--version")[0] == 0

    def test_invalid_params(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--beta", "-1", "--lambda", "1",
                               "--n", "5", "--seed", "1")
        assert code == 2
