"""Tests of the benchmark itself (not of the package it measures).

    python3 -m pytest perfbench/tests -q

Tiny runs use ``--seconds 1``: one block per workload, a few minutes in all.
"""

import functools
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

NAMES = ("identity-sweep", "cli-reports", "spectral-poisson")
#: counts a later change may claim against; they must repeat exactly
EXACT_COUNTS = (
    "kernels.phi_evals",
    "kernels.grid_points",
    "transforms.operator_reuse",
    "transforms.f_calls",
    "quadrature.singular_integrate.calls",
)


@functools.cache
def tiny_run(name: str, trace: int, seed: int = 3) -> tuple[str, dict]:
    child = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout, json.loads(child.stdout.strip().splitlines()[-1])


def plan(name: str, seed: int, blocks: int = 3):
    workload = workloads.WORKLOADS[name]
    return workload.setup_spec(seed), [workload.block(seed, index) for index in range(blocks)]


@pytest.mark.parametrize("name", NAMES)
def test_inputs_are_a_pure_function_of_the_seed(name):
    assert plan(name, 11) == plan(name, 11)
    assert plan(name, 11) != plan(name, 12)
    code = (
        "import json, sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
        f"w = workloads.WORKLOADS[{name!r}]; "
        "print(json.dumps([w.setup_spec(11), [w.block(11, i) for i in range(3)]]))"
    )
    child = subprocess.run(
        [sys.executable, "-c", code, str(BENCH), str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert json.loads(child.stdout) == json.loads(json.dumps(list(plan(name, 11))))


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(name, trace):
    stdout, result = tiny_run(name, trace)
    spec = run.PER_LAYER if trace else run.END_TO_END
    lines = stdout.splitlines()
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [metric for metric, _, _ in spec]
    for metric, unit, _ in spec:
        entry = result["metrics"][metric]
        assert entry["unit"] == unit
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
        assert any(line.split()[:1] == [metric] and line.split()[2] == unit for line in lines)
    assert result["correct"] is True
    assert result["attempted"] >= 1


@pytest.mark.parametrize("name", NAMES)
def test_only_the_documented_defects_fail(name):
    _, result = tiny_run(name, 0)
    known = len(workloads.KNOWN_DEFECTS) if name == "cli-reports" else 0
    assert result["failed"] == known
    if name != "cli-reports":
        assert result["metrics"]["pass_frac"]["value"] == 1.0


def test_end_to_end_metrics_are_never_zero():
    for name in NAMES:
        _, result = tiny_run(name, 0)
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("name", ("identity-sweep", "spectral-poisson"))
def test_counts_repeat_exactly_for_a_seed(name):
    _, first = tiny_run(name, 1)
    _, second = tiny_run.__wrapped__(name, 1)  # a second process, not the cached result
    for metric in EXACT_COUNTS:
        assert first["metrics"][metric] == second["metrics"][metric], metric


def test_layers_carry_the_predicted_work():
    _, identity = tiny_run("identity-sweep", 1)
    _, cli = tiny_run("cli-reports", 1)
    _, spectral = tiny_run("spectral-poisson", 1)
    value = lambda result, metric: result["metrics"][metric]["value"]  # noqa: E731
    assert value(identity, "transforms.operator_reuse") == 3.0
    assert value(cli, "transforms.operator_reuse") == 1.0
    assert value(spectral, "kernels.riesz_kernel.calls") == 0
    assert value(identity, "kernels.phi_evals") == value(identity, "kernels.riesz_kernel.calls")
    for result in (identity, cli):
        assert value(result, "kernels.grid_points") > value(result, "kernels.phi_evals") > 0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_the_package_source():
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        child = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "identity-sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
    assert child.returncode != 0
    assert '"metrics"' not in child.stdout
