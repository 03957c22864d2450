import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ultrariesz import build_rule, validate_lambda
from ultrariesz.cli import ConfigError, RunConfig, load_config_file, main
from ultrariesz.quadrature import ConstructionError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfig:
    def test_defaults_valid(self):
        RunConfig().validate()

    def test_range_errors_name_the_field(self):
        with pytest.raises(Exception, match="eps-ratio"):
            RunConfig(eps_ratio=1.5).validate()
        with pytest.raises(Exception, match="lambda"):
            RunConfig(lam=-1.0).validate()

    def test_file_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "lambda = 0.8\n"
            "k = 2\n"
            "theta = 0.7 1.1\n"
            "tolerance = 1e-2  # trailing comment\n"
        )
        values = load_config_file(str(path))
        assert values == {"lam": 0.8, "k": 2, "thetas": [0.7, 1.1], "tolerance": 1e-2}

    def test_file_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("lambda = 1.0\nnonsense line\n")
        with pytest.raises(Exception, match="bad.cfg:2"):
            load_config_file(str(path))

    def test_order_above_table_limit_rejected(self):
        with pytest.raises(ConfigError, match="field 'k'"):
            RunConfig(k=13).validate()

    def test_schedule_inside_kernel_guard_rejected(self):
        with pytest.raises(ConfigError, match="kernel guard"):
            RunConfig(eps_start=1e-4, eps_ratio=0.1, eps_count=5).validate()

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("lambduh = 1.0\n")
        with pytest.raises(Exception, match="unknown key"):
            load_config_file(str(path))


class TestSubcommands:
    def test_coeffs_hand_values(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--ell", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "ell,s,i,j,coefficient"
        assert "2,1,1,0,-2" in lines
        assert "2,2,0,2,8" in lines

    def test_config_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "coeffs", "--ell", "99")
        assert code == 2
        assert "ell" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("riesz-pv", "--k", "13"),
            ("riesz-pv", "--eps-start", "1e-4", "--eps-ratio", "0.1", "--eps-count", "5"),
            ("kernel", "--lambda", "inf"),
            ("compare", "--lambda", "nan"),
            ("riesz-spectral", "--n-max", "200"),
            ("riesz-spectral", "--quad-order", "4", "--n-max", "1"),
            ("variation", "--quad-order", "4", "--n-max", "1"),
            ("poisson", "--lambda", "1e300"),
            ("riesz-spectral", "--quad-order", "100000"),
            ("riesz-spectral", "--eps-count", "10000000000000000000"),
            ("riesz-spectral", "--eps-ratio", "0.9999999999", "--eps-count", "1000000000"),
            ("riesz-spectral", "--lambda", "2e13", "--n-max", "25"),
            ("faa-check", "--lambda", "1e5"),
        ],
    )
    def test_config_errors_exit_2_without_traceback(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["coeffs", "h-limit"])
    def test_commands_without_a_rule_ignore_its_flags(self, capsys, command):
        code, _, err = run_cli(capsys, command, "--quad-order", "100000", "--n-max", "1000000")
        assert code == 0, err
        code, _, err = run_cli(capsys, command, "--quad-order", "4")
        assert code == 0, err

    def test_accuracy_error_exits_1_with_one_line(self, capsys):
        # no extrapolation residual meets 10 x 1e-16
        code, out, err = run_cli(
            capsys, "riesz-pv", "--k", "1", "--theta", "1.2", "--tolerance", "1e-16"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("FAIL:") and err.count("\n") == 1

    def test_kernel_report_independent_of_thread_count(self, capsys, monkeypatch, tmp_path):
        reports = []
        for threads in ("1", "2"):
            monkeypatch.setenv("ULTRA_RIESZ_THREADS", threads)
            path = tmp_path / f"kernel-{threads}.csv"
            code, _, err = run_cli(capsys, "kernel", "--lambda", "0.8", "--k", "3", "--output", str(path))
            assert code == 0, err
            reports.append(path.read_bytes())
        assert len(reports[0].splitlines()) == 1 + 380
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("lam", ["0.3", "2.5"])
    def test_poisson_default_order_meets_its_gate(self, capsys, lam):
        code, out, err = run_cli(capsys, "poisson", "--lambda", lam)
        assert code == 0, err
        errors = [float(line.split(",")[-1]) for line in out.strip().splitlines()[1:]]
        assert len(errors) == 18 and max(errors) <= 1e-6

    def test_flag_overrides_file(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("ell = 1\n")
        code, out, _ = run_cli(capsys, "coeffs", "--config", str(path), "--ell", "3")
        assert code == 0
        assert out.splitlines()[1].startswith("3,")

    def test_faa_check_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "faa-check", "--ell", "3", "--lambda", "0.5")
        code2, out2, _ = run_cli(capsys, "faa-check", "--ell", "3", "--lambda", "0.5")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_h_limit(self, capsys):
        code, out, _ = run_cli(capsys, "h-limit", "--k", "2")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[-1].endswith("pass")
        limit = float(rows[-1].split(",")[1])
        assert limit == pytest.approx(-math.pi)

    def test_riesz_spectral_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "riesz-spectral",
            "--lambda",
            "1.0",
            "--k",
            "1",
            "--theta",
            "1.2",
        )
        assert code == 0
        payload = json.loads(out)
        assert {"f", "lambda", "k", "theta", "spectral"} <= set(payload["records"][0])
        assert len(payload["records"]) == 3

    def test_output_files(self, capsys, tmp_path):
        out_path = tmp_path / "coeffs.csv"
        code, out, _ = run_cli(capsys, "coeffs", "--ell", "1", "--output", str(out_path))
        assert code == 0
        assert out == ""
        assert out_path.read_text().strip().splitlines()[1] == "1,1,0,1,2"

    def test_compare_small_case(self, capsys):
        # one cheap point: identity should hold well inside tolerance
        code, out, _ = run_cli(
            capsys,
            "compare",
            "--lambda",
            "1.0",
            "--k",
            "1",
            "--theta",
            "1.2",
            "--quad-order",
            "48",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["max_relative_error"] <= payload["tolerance"]
        for record in payload["records"]:
            assert record["abs_error"] is not None


class TestVariationReport:
    def test_round_trip_and_summary(self, capsys, tmp_path):
        base = tmp_path / "report"
        code, _, _ = run_cli(
            capsys,
            "variation",
            "--lambda",
            "1.0",
            "--k",
            "1",
            "--theta",
            "1.2",
            "--eps-count",
            "6",
            "--quad-order",
            "48",
            "--output",
            str(base),
        )
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        # lossless serialization: parse(serialize(x)) == x
        assert json.loads(json.dumps(payload)) == payload
        assert payload["config"]["lam"] == 1.0
        summary = payload["summary"]
        assert {"max_abs_error", "m_k", "circle_limit", "envelope_constants"} <= set(summary)
        assert summary["m_k"] == pytest.approx(-1.0 / math.pi, abs=1e-3)
        assert all(v > 0 for v in summary["envelope_constants"].values())
        csv_lines = (tmp_path / "report.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "theta,epsilon,truncated_value"
        assert len(csv_lines) == 1 + 6

    def test_theta_order_does_not_change_norms(self, capsys, tmp_path):
        norms = []
        for index, thetas in enumerate((("0.9", "1.2"), ("1.2", "0.9"))):
            base = tmp_path / f"report{index}"
            argv = ["variation", "--lambda", "1.0", "--k", "1", "--eps-count", "6"]
            for theta in thetas:
                argv += ["--theta", theta]
            code, _, err = run_cli(capsys, *argv, "--quad-order", "48", "--output", str(base))
            assert code == 0, err
            payload = json.loads(base.with_suffix(".json").read_text())
            values = [v for per_p in payload["norms"].values() for v in per_p.values()]
            assert all(isinstance(v, float) and math.isfinite(v) and v >= 0.0 for v in values)
            norms.append(payload["norms"])
        assert norms[0] == norms[1]


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)

#: per RunConfig field, values that pass validation together, and the wild
#: values the exit-code contract must survive: any float (NaN and the
#: infinities included), integers from negative to far above any usable
#: rule order or radius count.
_FLAG_VALUES = {
    "lam": (st.floats(1e-3, 1e3), _ANY_FLOAT),
    "k": (st.integers(1, 12), st.integers(-1, 14)),
    "n_max": (st.integers(1, 40), st.integers(-1, 10**9)),
    "quad_order": (st.integers(41, 64), st.integers(-1, 10**9)),
    "eps_start": (st.floats(1e-2, 1.0), _ANY_FLOAT),
    "eps_ratio": (st.floats(0.3, 0.8), _ANY_FLOAT),
    "eps_count": (st.integers(3, 6), st.integers(-1, 10**20)),
    "thetas": (st.floats(1e-2, 3.13).map(lambda t: [t]), _ANY_FLOAT.map(lambda t: [t])),
}


@st.composite
def _run_flags(draw):
    """A usable config with up to three fields replaced by wild values."""
    values = {name: draw(usable) for name, (usable, _) in _FLAG_VALUES.items()}
    for name in draw(st.lists(st.sampled_from(sorted(_FLAG_VALUES)), max_size=3, unique=True)):
        values[name] = draw(_FLAG_VALUES[name][1])
    return values


class TestExitCodeContract:
    @settings(max_examples=150, deadline=None)
    @given(_run_flags())
    def test_validated_config_builds_what_commands_need(self, values):
        try:
            config = RunConfig(**values).validate()
        except ConfigError:
            return
        validate_lambda(config.lam)
        config.schedule()
        try:
            rule = config.rule()
        except (ConfigError, ConstructionError, OverflowError):
            # main reports each of these with exit 2
            return
        assert rule is build_rule(config.lam, config.quad_order)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_run_flags())
    def test_riesz_spectral_exits_0_1_or_2(self, values):
        flags = {
            "lambda": values["lam"],
            "k": values["k"],
            "n-max": values["n_max"],
            "quad-order": values["quad_order"],
            "eps-start": values["eps_start"],
            "eps-ratio": values["eps_ratio"],
            "eps-count": values["eps_count"],
            "theta": values["thetas"][0],
        }
        # --flag=value keeps argparse from reading "-inf" as an option
        argv = ["riesz-spectral"] + [f"--{name}={value!r}" for name, value in flags.items()]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = main(argv)
        assert code in (0, 1, 2)
