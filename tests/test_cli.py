import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ultrariesz
from ultrariesz import (
    SpectralCoefficients,
    TruncationOperator,
    band_limited,
    build_rule,
    envelope_residual,
    poisson_via_kernel,
    region_classify,
    riesz_kernel,
    transforms,
    validate_lambda,
)
from ultrariesz import cli
from ultrariesz.cli import ConfigError, RunConfig, build_parser, load_config_file, main
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

    def test_rule_is_reused(self):
        config = RunConfig(lam=0.7).validate()
        assert config.rule() is config.rule()

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

    @pytest.mark.parametrize(
        "values",
        [
            {"lam": -1.0}, {"k": 0}, {"n_max": 0}, {"rho": 0.5}, {"thetas": []}, {"thetas": [4.0]},
            {"tolerance": 0.0}, {"ell": 0}, {"eps_count": 1}, {"quad_order": 3},
        ],
    )
    def test_config_errors_name_only_config_keys(self, values):
        with pytest.raises(ConfigError) as info:
            RunConfig(**values).validate().rule()
        message = str(info.value)
        named = re.findall(r"'([^']+)'", message) + re.findall(r"\b[a-z]+(?:-[a-z]+)+\b", message)
        assert _flag(next(iter(values))) in named
        assert set(named) <= set(cli._CONFIG_KEYS)


#: per RunConfig field, a valid value other than its default
_TWIN_VALUES = {
    "lam": "0.8", "k": "3", "n_max": "12", "quad_order": "40", "eps_start": "0.04", "eps_ratio": "0.6",
    "eps_count": "5", "rho": "2.5", "thetas": "1.1", "tolerance": "0.01", "ell": "4", "output": "report.csv",
}


def _flag(name):
    return {"lam": "lambda", "thetas": "theta"}.get(name, name.replace("_", "-"))


class TestFlagConfigTwins:
    @pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
    def test_flag_and_config_line_give_the_same_config(self, monkeypatch, tmp_path, name):
        built = []
        monkeypatch.setitem(cli._COMMANDS, "coeffs", lambda config: built.append(config) or 0)
        path = tmp_path / "run.cfg"
        path.write_text(f"{_flag(name)} = {_TWIN_VALUES[name]}\n")
        assert main(["coeffs", f"--{_flag(name)}", _TWIN_VALUES[name]]) == 0
        assert main(["coeffs", "--config", str(path)]) == 0
        assert built[0] == built[1] != RunConfig()

    def test_config_is_the_only_flag_without_a_field(self):
        expected = {f"--{_flag(f.name)}" for f in fields(RunConfig)} | {"--config"}
        commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        for parser in commands.choices.values():
            assert {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"} == expected


def _run_under_warnings_as_errors(argv):
    """The CLI in a fresh interpreter under -W error: numpy warnings from the
    kernel build would print outside pytest, and any warning that escapes
    the CLI ends it with a traceback."""
    src = str(Path(ultrariesz.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "ultrariesz.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=300,
    )


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
            ("riesz-pv", "--lambda", "1e300"),
            ("compare", "--lambda", "1e300"),
            ("riesz-spectral", "--quad-order", "100000"),
            ("riesz-spectral", "--eps-count", "10000000000000000000"),
            ("riesz-spectral", "--eps-ratio", "0.9999999999", "--eps-count", "1000000000"),
            ("riesz-spectral", "--lambda", "2e13", "--n-max", "25"),
            ("faa-check", "--lambda", "1e5"),
            ("variation", "--rho", "inf"),
        ],
    )
    def test_config_errors_exit_2_without_traceback(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("lam", ["2.7e16", "1e12", "300"])
    def test_spectral_route_refuses_a_lambda_it_cannot_carry(self, capsys, lam):
        # the constant's transform came back as -3.5e167 at 2.7e16, with exit 0
        code, out, err = run_cli(capsys, "riesz-spectral", "--lambda", lam)
        assert code == 2
        assert out == ""
        assert err.startswith("config error:") and "rounding" in err and err.count("\n") == 1

    def test_non_finite_integrand_is_named_by_a_plain_float(self, capsys):
        # the order-0 t-table overflows; the Poisson kernel's finiteness
        # check names the value and the phi it was read at
        code, out, err = run_cli(capsys, "poisson", "--lambda", "200")
        assert code == 2
        number = r"-?\d+(\.\d+)?(e[-+]\d+)?"
        message = rf"kernel value (nan|-?inf) at phi = {number} is not finite \(.*\)\n$"
        assert re.search(message, err), err
        assert err.count("\n") == 1
        assert "np.float64(" not in err

    @pytest.mark.parametrize("command", ["riesz-pv", "kernel", "poisson"])
    def test_lambda_below_the_t_table_floor_fails_with_one_line(self, capsys, command):
        # below lambda 0.25 the t-rule loses the (sin t)**(2 lambda - 1) mass at pi
        code, out, err = run_cli(capsys, command, "--lambda", "0.05")
        assert code == 1
        assert out == ""
        assert err.startswith("FAIL:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("riesz-pv", "--lambda", "1e300"),
            ("compare", "--lambda", "1e300"),
            ("kernel", "--lambda", "200"),
            # the eigenfunction norms underflow to 0
            ("riesz-pv", "--lambda", "5.6e-188", "--eps-count", "3"),
            # an infinite start times an underflowed ratio power is NaN
            ("riesz-pv", "--eps-start=inf", "--eps-ratio=1e-200", "--eps-count", "4"),
        ],
    )
    def test_float_range_errors_print_one_line_under_warnings_as_errors(self, argv):
        done = _run_under_warnings_as_errors(argv)
        assert done.returncode == 2, done.stderr
        assert done.stdout == ""
        assert done.stderr.startswith("config error:") and done.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            # a rule of order 6 cannot integrate a_5 and a_6 at n-max 4, so the
            # tail check falls back to a_4, which the family's degree-4 function
            # fills: one alarm at each theta, printed once
            (
                ("riesz-spectral", "--n-max", "4", "--quad-order", "6", "--theta", "1.0", "--theta", "2.0"),
                "coefficient tail |a_4|/||a|| = 4.47e-01",
            ),
            (("variation", "--rho", "1.5", "--theta", "1.0"), "rho = 1.5 is outside the rho > 2 regime"),
        ],
    )
    def test_library_warnings_print_one_plain_line_under_warnings_as_errors(self, argv, message):
        done = _run_under_warnings_as_errors(argv)
        assert done.returncode == 0, done.stderr
        assert done.stderr.startswith(f"warning: {message}") and done.stderr.count("\n") == 1

    @pytest.mark.parametrize("command", ["coeffs", "h-limit"])
    def test_commands_without_a_rule_ignore_its_flags(self, capsys, command):
        code, _, err = run_cli(capsys, command, "--quad-order", "100000", "--n-max", "1000000")
        assert code == 0, err
        code, _, err = run_cli(capsys, command, "--quad-order", "4")
        assert code == 0, err

    def test_accuracy_error_exits_1_with_one_line(self, capsys):
        # no tail estimate meets 10 x 1e-16
        code, out, err = run_cli(
            capsys, "riesz-pv", "--k", "1", "--theta", "1.2", "--tolerance", "1e-16"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("FAIL:") and err.count("\n") == 1

    def test_kernel_report_independent_of_thread_count(self, capsys, tmp_path):
        # two runs in one process, with another subcommand between them on
        # the same cached parser and kernel tables, write the same bytes
        reports = []
        for run in ("first", "second"):
            path = tmp_path / f"kernel-{run}.csv"
            code, _, err = run_cli(capsys, "kernel", "--lambda", "0.8", "--k", "3", "--output", str(path))
            assert code == 0, err
            reports.append(path.read_bytes())
            code, _, err = run_cli(capsys, "kernel", "--lambda", "1.3", "--k", "2", "--theta", "0.7")
            assert code == 0, err
        assert len(reports[0].splitlines()) == 1 + 380
        assert reports[0] == reports[1]

    def test_repeated_runs_get_their_own_theta_lists(self, capsys):
        # the parser is built once per process; its appended --theta values
        # must not carry over from one run to the next
        for thetas in (["0.9", "1.4"], ["1.1"]):
            argv = ["riesz-pv", "--k", "1", "--eps-count", "3"]
            for theta in thetas:
                argv += ["--theta", theta]
            code, out, err = run_cli(capsys, *argv)
            assert code == 0, err
            records = json.loads(out)["records"]
            # one record per function and theta: 2, then 1, for each function
            for name in cli._FAMILY:
                assert [r["theta"] for r in records if r["f"] == name] == [float(t) for t in thetas]

    @pytest.mark.parametrize("lam", ["0.3", "2.5"])
    def test_poisson_default_order_meets_its_gate(self, capsys, lam):
        code, out, err = run_cli(capsys, "poisson", "--lambda", lam)
        assert code == 0, err
        errors = [float(line.split(",")[-1]) for line in out.strip().splitlines()[1:]]
        assert len(errors) == 18 and max(errors) <= 1e-6

    def test_poisson_integrates_each_kernel_row_once(self, capsys, monkeypatch):
        calls = []
        poisson_kernel = transforms.poisson_kernel

        def counting(lam, r, theta, phi):
            calls.append((r, tuple(theta), tuple(phi)))
            return poisson_kernel(lam, r, theta, phi)

        monkeypatch.setattr(transforms, "poisson_kernel", counting)
        code, out, err = run_cli(capsys, "poisson", "--lambda", "0.8")
        assert code == 0, err
        monkeypatch.undo()
        rule = build_rule(0.8, RunConfig().quad_order)
        # one call per time, over every (theta, node) pair of the 3 theta,
        # each row applied to the 3 family functions
        thetas = RunConfig().thetas
        assert [r for r, _, _ in calls] == [math.exp(-0.1), math.exp(-1.0)]
        for _, theta, phi in calls:
            assert theta == tuple(np.repeat(thetas, rule.nodes.size))
            assert phi == tuple(np.tile(rule.nodes, len(thetas)))
        family = {"e0": [1.0], "e1": [0.0, 1.0], "e2+0.5e4": [0.0, 0.0, 1.0, 0.0, 0.5]}
        lines = out.strip().splitlines()[1:]
        assert len(lines) == 18
        for line in lines:
            name, t, theta, _, kernel, _ = line.split(",")
            f = band_limited(SpectralCoefficients(0.8, family[name]))
            # the report's 17 digits round-trip, and the arithmetic is poisson_via_kernel's
            assert float(kernel) == poisson_via_kernel(f, 0.8, float(t), float(theta), rule)

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

    @pytest.mark.parametrize("command", ["compare", "riesz-pv"])
    def test_one_operator_per_theta(self, capsys, monkeypatch, command):
        builds = []
        init = TruncationOperator.__init__

        def counted(self, *args, **kwargs):
            builds.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(TruncationOperator, "__init__", counted)
        code, _, _ = run_cli(
            capsys, command, "--lambda", "1.0", "--k", "1", "--theta", "0.9", "--theta", "2.0", "--quad-order", "48"
        )
        assert code == 0
        assert len(builds) == 2

    @pytest.mark.parametrize("command, pairs", [("kernel", 20 * 19), ("variation", 6 * 5)])
    def test_kernel_sweep_is_one_kernel_call(self, capsys, monkeypatch, command, pairs):
        # the 20 x 20 sweep of kernel and the 6 x 6 envelope grid of the
        # variation summary, off the diagonal, each as one paired call
        calls = []
        kernel_partial = cli.kernel_partial

        def counting(lam, k, ell, theta, phi, **kwargs):
            calls.append((k, ell, np.shape(theta), np.shape(phi)))
            return kernel_partial(lam, k, ell, theta, phi, **kwargs)

        monkeypatch.setattr(cli, "kernel_partial", counting)
        code, _, err = run_cli(capsys, command, "--lambda", "1.3", "--k", "2", "--theta", "1.0", "--eps-count", "4")
        assert code == 0, err
        assert calls == [(2, 2, (pairs,), (pairs,))]

    @pytest.mark.parametrize("lam, k", [(1.3, 2), (0.3, 4)])
    def test_kernel_report_equals_per_theta_scalar_calls(self, capsys, lam, k):
        code, out, err = run_cli(capsys, "kernel", "--lambda", str(lam), "--k", str(k))
        assert code == 0, err
        grid = np.linspace(0.15, math.pi - 0.15, 20)
        lines = ["theta,phi,region,value,envelope_ratio"]
        for theta in grid.tolist():
            phis = grid[grid != theta]
            for phi, value in zip(phis.tolist(), riesz_kernel(lam, k, theta, phis).tolist()):
                ratio = envelope_residual(lam, k, theta, phi)
                fields = [cli._FMT % v for v in (theta, phi)] + [region_classify(theta, phi)]
                lines.append(",".join(fields + [cli._FMT % value, cli._FMT % ratio]))
        assert out == "\n".join(lines) + "\n"


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

    @pytest.mark.parametrize("k", [1, 2])
    def test_summary_diagonal_constant_is_exact(self, capsys, tmp_path, k):
        base = tmp_path / "report"
        argv = ["variation", "--k", str(k), "--theta", "1.2", "--eps-count", "6", "--quad-order", "48"]
        code, _, err = run_cli(capsys, *argv, "--output", str(base))
        assert code == 0, err
        m_k = json.loads(base.with_suffix(".json").read_text())["summary"]["m_k"]
        if k == 2:
            assert m_k == 0.0
        else:
            assert abs(m_k + 1.0 / math.pi) <= 1e-15

    def test_fails_on_compare_s_relative_error(self, capsys, tmp_path):
        base = tmp_path / "report"
        argv = ["variation", "--k", "2", "--theta", "0.9", "--theta", "1.2", "--eps-count", "6", "--quad-order", "48"]
        code, _, err = run_cli(capsys, *argv, "--output", str(base))
        assert code == 0, err
        per_theta = json.loads(base.with_suffix(".json").read_text())["per_theta"]
        worst = max(r["error"] / (1.0 + abs(r["spectral"])) for r in per_theta)
        assert 0.0 < worst <= 1e-3
        code, _, err = run_cli(capsys, *argv, "--output", str(base), "--tolerance", repr(worst / 2.0))
        assert code == 1
        assert err.startswith("FAIL: identity error") and err.count("\n") == 1

    def test_large_rho_reports_the_range_of_a_monotone_trace(self, capsys, tmp_path):
        # every |increment|**rho underflowed at 1000 and 1e6, and the variation read 0.0
        variations = []
        for rho in ("3", "1000", "1e6"):
            base = tmp_path / f"report{rho}"
            argv = ["variation", "--theta", "1.0", "--eps-count", "6", "--quad-order", "48", "--rho", rho]
            code, _, err = run_cli(capsys, *argv, "--output", str(base))
            assert code == 0, err
            variations.append(json.loads(base.with_suffix(".json").read_text())["per_theta"][0]["variation"])
        assert variations[0] > 0.0 and variations[1:] == pytest.approx([variations[0]] * 2, rel=1e-12)

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


#: lambdas at and past the edges of the float range, where the kernel's
#: grid overflows or the config is refused
_EXTREME_LAMBDAS = st.sampled_from([1e300, 1e3, 200.0, 185.0, 5e-324, 0.0, -1.0, math.inf, -math.inf, math.nan])


def _assert_contract(argv):
    """main(argv) exits 0, 1 or 2 under warnings as errors; exit 2 prints
    one config error line and nothing else."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    assert code in (0, 1, 2), err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("config error:") and err.getvalue().count("\n") == 1


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
    # the degree-4 family function fills the last coefficient at n-max 4
    @example(
        {"lam": 1.0, "k": 1, "n_max": 4, "quad_order": 64, "eps_start": 0.05, "eps_ratio": 0.5, "eps_count": 4,
         "thetas": [1.0]}
    )
    # the degree-40 recurrence overflows, and the eigenfunction norms first
    @example(
        {"lam": 3178024656963862.0, "k": 1, "n_max": 40, "quad_order": 41, "eps_start": 1.0, "eps_ratio": 0.5,
         "eps_count": 3, "thetas": [1.0]}
    )
    # the squared coefficients overflow though the coefficients are finite
    @example(
        {"lam": 2.716193130245157e16, "k": 1, "n_max": 1, "quad_order": 41, "eps_start": 1.0, "eps_ratio": 0.5,
         "eps_count": 3, "thetas": [1.0]}
    )
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
        _assert_contract(["riesz-spectral"] + [f"--{name}={value!r}" for name, value in flags.items()])

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.sampled_from(["coeffs", "faa-check", "h-limit"]),
        st.one_of(st.floats(1e-3, 1e6), _ANY_FLOAT),
        st.integers(-1, 14),
        st.integers(-1, 14),
    )
    def test_table_commands_exit_0_1_or_2_without_warnings(self, command, lam, k, ell):
        argv = [command, f"--lambda={lam!r}", f"--k={k}", f"--ell={ell}"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(argv)
        assert code in (0, 1, 2)

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(st.floats(1e-3, 1e3), _EXTREME_LAMBDAS, _ANY_FLOAT), st.integers(-1, 14))
    @example(1e300, 1)
    @example(1e300, 3)
    @example(200.0, 3)
    @example(math.nan, 2)
    def test_kernel_exits_0_1_or_2_without_warnings(self, lam, k):
        _assert_contract(["kernel", f"--lambda={lam!r}", f"--k={k}"])

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.one_of(st.floats(1e-3, 1e3), _EXTREME_LAMBDAS, _ANY_FLOAT),
        st.integers(-1, 5),
        st.one_of(st.floats(1e-2, 3.13), _ANY_FLOAT),
        st.integers(3, 4),
    )
    @example(1e300, 1, 0.7, 3)
    @example(185.0, 2, 3.1, 3)
    @example(math.inf, 1, 1.2, 3)
    @example(1.0, 13, 1.2, 3)
    # the difference step for f'(theta) underflows to 0
    @example(1.0, 2, 5e-324, 3)
    def test_riesz_pv_exits_0_1_or_2_without_warnings(self, lam, k, theta, count):
        # the operator's smallest schedule keeps each example cheap
        _assert_contract(
            ["riesz-pv", f"--lambda={lam!r}", f"--k={k}", f"--theta={theta!r}", f"--eps-count={count}"]
        )

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.sampled_from(["poisson", "compare", "variation"]),
        st.one_of(st.floats(1e-3, 1e3), _EXTREME_LAMBDAS, _ANY_FLOAT),
        st.integers(-1, 5),
        st.lists(st.one_of(st.floats(1e-2, 3.13), _ANY_FLOAT), min_size=1, max_size=2),
        st.integers(3, 4),
        st.integers(1, 6),
        st.floats(1.0, 4.0),
    )
    @example("poisson", 200.0, 1, [1.2], 3, 16, 3.0)
    @example("poisson", 1e300, 2, [0.7, 2.2], 3, 16, 3.0)
    @example("compare", 185.0, 2, [1.2], 3, 16, 3.0)
    @example("compare", math.nan, 1, [1.2], 4, 16, 3.0)
    @example("variation", 1e3, 3, [0.7, 1.2], 3, 16, 3.0)
    @example("variation", 5e-324, 1, [1.2], 4, 16, 3.0)
    # the degree-4 family function fills the last coefficient at n-max 4
    @example("compare", 1.0, 1, [1.0], 3, 4, 3.0)
    @example("variation", 1.0, 1, [1.0], 3, 4, 3.0)
    # rho <= 2 is outside the variation operator's regime
    @example("variation", 1.0, 1, [1.0], 3, 16, 1.5)
    # a falling --theta list: the trapezoid steps between the theta are negative
    @example("variation", 1.0, 1, [2.2, 0.7], 3, 16, 3.0)
    def test_report_commands_exit_0_1_or_2_without_warnings(self, command, lam, k, thetas, count, n_max, rho):
        # 3-4 radii and 1-2 theta keep each example cheap
        argv = [command, f"--lambda={lam!r}", f"--k={k}", f"--eps-count={count}", f"--n-max={n_max}", f"--rho={rho!r}"]
        _assert_contract(argv + [f"--theta={theta!r}" for theta in thetas])

