"""Closed-loop benchmark of the ultrariesz package.

    python3 perfbench/run.py --workload identity-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One caller, one operation at a time, no worker threads or processes.  The
package is imported from ``src/`` of the checkout this file sits in; the run
fails (exit 2, no result line) when that source tree is absent.

``--trace 0`` measures the end-to-end metrics: whole blocks of operations
are run until ``--seconds`` have passed.  ``--trace 1`` is a separate run
for the per-layer metrics: a fixed number of blocks (so counts repeat
exactly for a seed) with every public function of the package recorded as
a span, plus single-call timings taken before anything else warms a cache.
The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREADS_VAR = "ULTRA_RIESZ_THREADS"
#: the benchmark is one caller with no worker threads; BLAS helper threads
#: would only spin against it on a 2-core host
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
#: expected seconds per block on 2 cores; sets the traced run's fixed size
NOMINAL_BLOCK_S = {"identity-sweep": 10.0, "cli-reports": 25.0, "spectral-poisson": 4.0}

END_TO_END = [
    ("ops_per_s", "op/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("identity_digits", "digits", "higher"),
    ("pass_frac", "ratio", "higher"),
]

#: spans recorded in the traced run: module -> public functions
TRACED = {
    "kernels": ("riesz_kernel", "envelope_residual", "circle_H", "m_k_estimate", "poisson_kernel"),
    "transforms": ("riesz_pv", "riesz_spectral", "analyze", "poisson_via_kernel"),
    "special": ("gegenbauer_eval", "gegenbauer_theta_jets"),
    "quadrature": ("build_rule", "tanh_sinh_segment", "singular_integrate", "gauss_legendre_segment"),
    "faa_di_bruno": ("coefficients",),
    "variation": ("convergence_report", "oscillation", "rho_variation"),
}
CLI_COMMANDS = ("compare", "riesz-pv", "variation", "kernel", "poisson", "h-limit", "faa-check", "coeffs")
SINGLE_CALLS = (
    ("single.coefficients_max_order_ms", "ms"),
    ("single.build_rule_cold_ms", "ms"),
    ("single.riesz_kernel_cold_ms", "ms"),
    ("single.riesz_kernel_warm_ms", "ms"),
    ("single.operator_build_s", "s"),
    ("single.operator_apply_ms", "ms"),
    ("single.riesz_spectral_ms", "ms"),
)


def _per_layer_spec() -> list[tuple[str, str, str]]:
    spec = [
        ("kernels.riesz_kernel.calls", "count", "lower"),
        ("kernels.riesz_kernel.self_s", "s", "lower"),
        ("kernels.riesz_kernel.ms_per_call", "ms", "lower"),
        ("kernels.phi_evals", "count", "lower"),
        ("kernels.grid_points", "count-computed", "lower"),
        ("transforms.TruncationOperator.builds", "count", "lower"),
        ("transforms.TruncationOperator.build_self_s", "s", "lower"),
        ("transforms.truncated_values.calls", "count", "lower"),
        ("transforms.truncated_values.self_s", "s", "lower"),
        ("transforms.operator_reuse", "ratio", "higher"),
        ("transforms.f_calls", "count", "lower"),
        ("transforms.f_points", "count", "lower"),
    ]
    for module, names in TRACED.items():
        for name in names:
            if (module, name) != ("kernels", "riesz_kernel"):
                spec.append((f"{module}.{name}.calls", "count", "lower"))
                spec.append((f"{module}.{name}.self_s", "s", "lower"))
    spec += [(f"cli.{command}.s", "s", "lower") for command in CLI_COMMANDS]
    spec += [
        ("cli.report_bytes", "bytes", "lower"),
        ("cli.exit_1", "count", "lower"),
        ("cli.exit_2", "count", "lower"),
        ("run.wall_s", "s", "lower"),
        ("run.cpu_s", "s", "lower"),
        ("run.cpu_per_wall", "ratio", "higher"),
        ("run.trace_overhead", "ratio", "lower"),
        ("ops.count", "count", "higher"),
        ("ops.ms_min", "ms", "lower"),
        ("ops.ms_p50", "ms", "lower"),
        ("ops.ms_max", "ms", "lower"),
        ("fail_frac", "ratio", "lower"),
    ]
    spec += [(name, unit, "lower") for name, unit in SINGLE_CALLS]
    return spec


PER_LAYER = _per_layer_spec()

# Runs in a fresh interpreter: import, then the workload's one-time
# preparation, timed separately.
SETUP_CHILD = """
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ultrariesz
imported = time.perf_counter()
spec = json.loads(sys.argv[2])
for lam in spec["lambdas"]:
    ultrariesz.build_rule(lam, spec["rule_order"])
for ell in range(1, spec["max_order"] + 1):
    ultrariesz.coefficients(ell)
done = time.perf_counter()
print(json.dumps({"import_s": imported - start, "prep_s": done - imported}))
"""


def _load_package():
    if not (SRC / "ultrariesz" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC.relative_to(ROOT)}/ultrariesz; nothing to measure")
    sys.path.insert(0, str(SRC))
    import ultrariesz

    if Path(ultrariesz.__file__).resolve().parent != SRC / "ultrariesz":
        sys.exit(f"perfbench: imported ultrariesz from {ultrariesz.__file__}, not from this checkout")
    return ultrariesz


def _prepare(U, spec: dict) -> None:
    for lam in spec["lambdas"]:
        U.build_rule(lam, spec["rule_order"])
    for ell in range(1, spec["max_order"] + 1):
        U.coefficients(ell)


def _setup_seconds(spec: dict) -> list[float]:
    """Import plus preparation in fresh interpreters, one per repeat."""
    env = {key: value for key, value in os.environ.items() if key != THREADS_VAR}
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), json.dumps(spec)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        parts = json.loads(child.stdout.strip().splitlines()[-1])
        times.append(parts["import_s"] + parts["prep_s"])
    return times


class HostProbe:
    """A fixed piece of reference work (array powers, a matrix-vector
    product and a scalar Python loop, like the package's own mix) timed
    around every op of the untraced run.

    The shared 2-core host this was tuned on runs identical work up to 1.6x
    slower for tens of seconds at a time (CPU time equals wall time, no
    steal).  Scaling each op's time by REFERENCE_S over the probe's median
    around that op expresses it at the reference host speed: on identical
    work this cut the run-to-run spread of the total from 12% to 4.5%
    (coefficient of variation over six 25-second runs).  A change in the
    package moves op times and not the probe, so it shows in full.
    """

    #: probe time on the reference host (2 cores) in its fast periods
    REFERENCE_S = 1.0e-3
    REPEATS = 3

    def __init__(self):
        import numpy as np

        self.grid = np.linspace(0.1, 0.9, 255)[:, None] + np.linspace(0.2, 1.2, 256)[None, :]
        self.vector = np.linspace(0.0, 1.0, 256)
        self.last: list[float] = self.sample()

    def _once(self) -> float:
        start = time.perf_counter()
        for _ in range(2):
            (self.grid ** -1.37) @ self.vector
        total = 0.0
        for i in range(4000):
            total += (i * 0.5) ** 0.5
        return time.perf_counter() - start

    def sample(self) -> list[float]:
        return [self._once() for _ in range(self.REPEATS)]

    def scale(self) -> float:
        """Reference over measured speed around the op just finished."""
        before, self.last = self.last, self.sample()
        return self.REFERENCE_S / statistics.median(before + self.last)


class Tally:
    """Per-op durations, failures and the worst route-agreement error;
    with a probe, also each op's duration at the reference host speed."""

    def __init__(self, probe: HostProbe | None = None):
        self.probe = probe
        self.durations: list[float] = []
        self.scaled: list[float] = []
        self.failed = 0
        self.unexpected: list[str] = []
        self.known: list[str] = []
        self.worst = 0.0

    def run(self, workload, op: dict, ctx) -> None:
        start = time.perf_counter()
        try:
            result = workload.run(op, ctx)
            errors, problem, known = result.errors, result.problem, result.known_defect
        except Exception as exc:  # an op that raises is a failed op, not a crash
            errors, problem, known = [], f"raised {type(exc).__name__}: {exc}", False
            traceback.print_exc(file=sys.stderr)
        self.durations.append(time.perf_counter() - start)
        if self.probe is not None:
            self.scaled.append(self.durations[-1] * self.probe.scale())
        self.worst = max([self.worst, *errors])
        if problem is not None:
            self.failed += 1
            (self.known if known else self.unexpected).append(f"{json.dumps(op)[:160]}: {problem}")

    @property
    def attempted(self) -> int:
        return len(self.durations)

    def digits(self) -> float:
        return -math.log10(max(self.worst, 1e-17))


def _run_block(workload, seed: int, index: int, ctx, tally: Tally) -> float:
    start = time.perf_counter()
    for op in workload.block(seed, index):
        with ctx.span("bench.op"):
            tally.run(workload, op, ctx)
    return time.perf_counter() - start


def measure(U, W, workload, seed: int, seconds: float) -> tuple[Tally, dict]:
    spec = workload.setup_spec(seed)
    setups = _setup_seconds(spec)
    _prepare(U, spec)
    ctx = W.Context(OUT / "tmp")
    tally = Tally(HostProbe())
    start = time.perf_counter()
    index = 0
    while True:
        _run_block(workload, seed, index, ctx, tally)
        index += 1
        if time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    metrics = {
        "ops_per_s": tally.attempted / sum(tally.scaled),
        "op_ms_p50": statistics.median(tally.scaled) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "identity_digits": tally.digits(),
        "pass_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    notes = {
        "blocks": index,
        "elapsed_s": elapsed,
        "setup_samples_s": setups,
        "raw_ops_per_s": tally.attempted / sum(tally.durations),
        "raw_op_ms_p50": statistics.median(tally.durations) * 1e3,
        "op_ms": [round(d * 1e3, 3) for d in tally.durations],
        "host_scale": [round(scaled / raw, 4) for scaled, raw in zip(tally.scaled, tally.durations)],
    }
    return tally, {"metrics": metrics, "notes": notes}


def single_call_timings(U) -> dict[str, float]:
    """ROADMAP's single-call figures, each from one call with cold caches
    where the name says so (taken before the workload touches anything)."""
    lam, k, theta, phi = 1.0, 2, 1.2, 1.9
    out = {}

    def timed(fn, *args):
        start = time.perf_counter()
        value = fn(*args)
        return value, time.perf_counter() - start

    _, out["single.coefficients_max_order_ms"] = timed(U.coefficients, U.faa_di_bruno.MAX_ORDER)
    rule, out["single.build_rule_cold_ms"] = timed(U.build_rule, lam, 64)
    _, out["single.riesz_kernel_cold_ms"] = timed(U.riesz_kernel, lam, k, theta, phi)
    _, out["single.riesz_kernel_warm_ms"] = timed(U.riesz_kernel, lam, k, theta, phi + 0.1)
    schedule = U.TruncationSchedule.geometric()
    operator, out["single.operator_build_s"] = timed(U.TruncationOperator, lam, k, theta, schedule.epsilons)
    f = U.band_limited(U.SpectralCoefficients(lam, [0.0, 0.0, 1.0, 0.0, 0.5]))
    _, out["single.operator_apply_ms"] = timed(operator.truncated_values, f)
    _, out["single.riesz_spectral_ms"] = timed(U.riesz_spectral, f, lam, k, theta, 12, rule)
    return {name: value * 1e3 if name.endswith("_ms") else value for name, value in out.items()}


def _install_tracing(U, spans, recorder, kernel_log: list) -> list:
    import numpy as np

    modules = {name: getattr(U, name) for name in TRACED}
    pairs = []
    for module_name, names in TRACED.items():
        module = modules[module_name]
        for name in names:
            original = getattr(module, name)
            log = kernel_log if name == "riesz_kernel" else None
            pairs.append((original, recorder.wrap(f"{module_name}.{name}", original, log)))

    band_limited = U.transforms.band_limited

    def counted_band_limited(coeffs):
        f = band_limited(coeffs)

        def counted(theta):
            recorder.counts["transforms.f_calls"] += 1
            recorder.counts["transforms.f_points"] += int(np.size(theta))
            return f(theta)

        return counted

    pairs.append((band_limited, counted_band_limited))
    undo = spans.install(pairs)
    operator = U.transforms.TruncationOperator
    undo += spans.patch_attributes(
        operator,
        {
            "__init__": recorder.wrap("transforms.TruncationOperator", operator.__init__),
            "truncated_values": recorder.wrap("transforms.truncated_values", operator.truncated_values),
        },
    )
    return undo


def _grid_points(U, kernel_log: list) -> tuple[int, int]:
    """(phi evaluations, phi x r-nodes x t-nodes) over the logged kernel
    calls.  The grid size is computed from the kernel's documented layout:
    a t-rule on (0, pi) and an r-rule split at 1 - min(|theta - phi|, 1/2)."""
    import inspect

    import numpy as np

    segment = U.quadrature.tanh_sinh_segment
    signature = inspect.signature(U.kernels.riesz_kernel)
    t_nodes: dict[int, int] = {}
    phis = points = 0
    for args, kwargs in kernel_log:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        config = bound.arguments["config"] or U.kernels.DEFAULT_KERNEL_CONFIG
        theta = bound.arguments["theta"]
        if config.t_level not in t_nodes:
            t_nodes[config.t_level] = segment(0.0, math.pi, config.t_level)[0].size
        for phi in np.atleast_1d(bound.arguments["phi"]):
            split = 1.0 - min(abs(theta - float(phi)), 0.5)
            r_nodes = segment(0.0, split, config.r_level)[0].size + segment(split, 1.0, config.r_level)[0].size
            phis += 1
            points += r_nodes * t_nodes[config.t_level]
    return phis, points


def trace(U, W, spans, workload, seed: int, seconds: float) -> tuple[Tally, dict]:
    singles = single_call_timings(U)
    _prepare(U, workload.setup_spec(seed))
    blocks = max(1, round(seconds / NOMINAL_BLOCK_S[workload.name]))
    recorder = spans.Recorder()
    kernel_log: list = []
    undo = _install_tracing(U, spans, recorder, kernel_log)
    ctx = W.Context(OUT / "tmp", recorder)
    tally = Tally()
    cpu_start, start = time.process_time(), time.perf_counter()
    try:
        for index in range(blocks):
            _run_block(workload, seed, index, ctx, tally)
    finally:
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        spans.uninstall(undo)
    # base of the overhead ratio: the same blocks again, untraced, same process
    base_ctx = W.Context(OUT / "tmp")
    untraced = sum(_run_block(workload, seed, index, base_ctx, Tally()) for index in range(blocks))

    totals = recorder.totals()
    counts = recorder.counts
    phi_evals, grid_points = _grid_points(U, kernel_log)

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    kernel_calls, kernel_total, _ = totals.get("kernels.riesz_kernel", (0, 0.0, 0.0))
    builds = calls("transforms.TruncationOperator")
    applies = calls("transforms.truncated_values")
    durations_ms = sorted(d * 1e3 for d in tally.durations)
    metrics = {
        "kernels.riesz_kernel.calls": kernel_calls,
        "kernels.riesz_kernel.self_s": self_s("kernels.riesz_kernel"),
        "kernels.riesz_kernel.ms_per_call": kernel_total / kernel_calls * 1e3 if kernel_calls else 0.0,
        "kernels.phi_evals": phi_evals,
        "kernels.grid_points": grid_points,
        "transforms.TruncationOperator.builds": builds,
        "transforms.TruncationOperator.build_self_s": self_s("transforms.TruncationOperator"),
        "transforms.truncated_values.calls": applies,
        "transforms.truncated_values.self_s": self_s("transforms.truncated_values"),
        "transforms.operator_reuse": applies / builds if builds else 0.0,
        "transforms.f_calls": counts["transforms.f_calls"],
        "transforms.f_points": counts["transforms.f_points"],
    }
    for module_name, names in TRACED.items():
        for name in names:
            span = f"{module_name}.{name}"
            metrics.setdefault(f"{span}.calls", calls(span))
            metrics.setdefault(f"{span}.self_s", self_s(span))
    for command in CLI_COMMANDS:
        metrics[f"cli.{command}.s"] = totals.get(f"cli.{command}", (0, 0.0, 0.0))[1]
    metrics.update(
        {
            "cli.report_bytes": counts["cli.report_bytes"],
            "cli.exit_1": counts["cli.exit_1"],
            "cli.exit_2": counts["cli.exit_2"],
            "run.wall_s": wall,
            "run.cpu_s": cpu,
            "run.cpu_per_wall": cpu / wall,
            "run.trace_overhead": wall / untraced,
            "ops.count": tally.attempted,
            "ops.ms_min": durations_ms[0],
            "ops.ms_p50": statistics.median(durations_ms),
            "ops.ms_max": durations_ms[-1],
            "fail_frac": tally.failed / tally.attempted,
        }
    )
    metrics.update(singles)
    recorder.save(OUT / f"spans-{workload.name}.npz")
    notes = {
        "blocks": blocks,
        "trace_overhead_base": "the same blocks rerun untraced in the same process after the traced pass",
        "untraced_s": untraced,
        "spans": len(recorder.start),
        "op_ms": [round(d, 3) for d in durations_ms],
    }
    return tally, {"metrics": metrics, "notes": notes}


def environment(U, workload, seed: int, inherited_threads) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "ULTRA_RIESZ_THREADS": {"inherited": inherited_threads, "in_run": os.environ.get(THREADS_VAR)},
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "ultrariesz": U.__version__,
        "seed": seed,
        "workload": workload.name,
        "why": workload.why,
    }


def _print_metrics(name: str, metrics: dict, spec: list, notes: dict, tally: Tally) -> None:
    print(f"{name}: {tally.attempted} ops, {tally.failed} failed ({len(tally.known)} known defect)")
    for metric, unit, _ in spec:
        extra = f"  (median of {tally.attempted} ops)" if metric == "op_ms_p50" else ""
        print(f"  {metric:<46} {metrics[metric]!r:>24} {unit}{extra}")
    for problem in tally.known + tally.unexpected:
        print(f"  failed: {problem}")
    print("notes " + json.dumps(notes))


def run_one(args) -> int:
    inherited = os.environ.pop(THREADS_VAR, None)
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    U = _load_package()
    import spans
    import workloads as W

    workload = W.WORKLOADS[args.workload]
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    if args.trace:
        tally, report = trace(U, W, spans, workload, args.seed, args.seconds)
        spec = PER_LAYER
    else:
        tally, report = measure(U, W, workload, args.seed, args.seconds)
        spec = END_TO_END
    metrics = report["metrics"]
    _print_metrics(workload.name, metrics, spec, report["notes"], tally)
    print("env " + json.dumps(environment(U, workload, args.seed, inherited)))
    result = {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in spec},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload untraced, then every workload traced, each run in its
    own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for traced in (0, 1):
        for name in ("identity-sweep", "cli-reports", "spectral-poisson"):
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(traced)],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=900,
            )
            sys.stdout.write(child.stdout)
            sys.stderr.write(child.stderr)
            if child.returncode != 0:
                return child.returncode
            result = json.loads(child.stdout.strip().splitlines()[-1])
            combined["correct"] &= result["correct"]
            if not traced:
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["identity-sweep", "cli-reports", "spectral-poisson", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
