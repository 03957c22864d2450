import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ultrariesz

SUBMODULES = {
    info.name: importlib.import_module(f"ultrariesz.{info.name}")
    for info in pkgutil.iter_modules(ultrariesz.__path__)
}


def test_package_names_are_unique():
    assert len(ultrariesz.__all__) == len(set(ultrariesz.__all__))


@pytest.mark.parametrize("name", ultrariesz.__all__)
def test_package_name_comes_from_exactly_one_submodule(name):
    owners = [module for module in SUBMODULES.values() if name in getattr(module, "__all__", ())]
    assert len(owners) == 1, [module.__name__ for module in owners]
    assert getattr(ultrariesz, name) is getattr(owners[0], name)


def _benchmark_traced_names():
    """TRACED of the benchmark driver, read without running it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_benchmark_traces_names_that_exist():
    # the benchmark wraps these by name; a removed or renamed one breaks its run
    for module_name, names in _benchmark_traced_names().items():
        for name in names:
            assert callable(getattr(SUBMODULES[module_name], name, None)), f"{module_name}.{name}"
    operator = SUBMODULES["transforms"].TruncationOperator
    assert {"__init__", "truncated_values"} <= set(vars(operator))
    parameters = inspect.signature(SUBMODULES["kernels"].riesz_kernel).parameters
    assert {"theta", "phi", "config"} <= set(parameters)


def test_import_loads_no_scipy():
    # scipy.special alone adds ~0.3 s and ~24 MiB to every process importing
    # the package, and concurrent.futures ~6 ms; the kernel's threads need
    # only threading, which numpy already loads
    code = (
        "import sys, ultrariesz, ultrariesz.cli; "
        "print(sorted({'scipy', 'concurrent.futures'} & set(sys.modules)) == [])"
    )
    src = str(Path(ultrariesz.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert done.stdout.strip() == "True"
