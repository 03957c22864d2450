"""The benchmark's three workloads: seeded inputs, one operation each, and
the check that decides whether the operation's answer is correct.

Inputs are a pure function of (workload, seed, block index).  A block is a
fixed number of operations drawn so that every block covers the same
strata (each order k, each lambda stratum, each degree band):
the cost and accuracy of a run then depend on how many blocks it completes,
not on which corners of parameter space one seed happened to visit.

Every operation calls the public ``ultrariesz`` API or ``ultrariesz.cli.main``
through attribute lookups at call time, so the traced run sees the
recording wrappers that ``spans`` installs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import ultrariesz as U
from ultrariesz import cli, faa_di_bruno

LAM_RANGE = (0.3, 2.5)
THETA_RANGE = (0.5, math.pi - 0.5)

#: route-agreement gate of the PV identity (acceptance criterion 1)
IDENTITY_GATE = 1e-3
#: spectral route against exact synthesis from known coefficients
SPECTRAL_GATE = 1e-9
#: Poisson semigroup, kernel route against spectral route (absolute)
POISSON_GATE = 1e-6
POISSON_TIMES = (0.1, 1.0)

#: the CLI's standard test family, by the record names its reports use
CLI_FAMILY = {"e0": [1.0], "e1": [0.0, 1.0], "e2+0.5e4": [0.0, 0.0, 1.0, 0.0, 0.5]}


@dataclass
class OpResult:
    """Outcome of one operation: route-agreement errors it measured, and
    either no problem or the reason it failed."""

    errors: list[float] = field(default_factory=list)
    problem: str | None = None
    known_defect: bool = False

    def fail(self, problem: str, *, known_defect: bool = False) -> None:
        if self.problem is None:
            self.problem = problem
            self.known_defect = known_defect

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.fail(problem)


class Context:
    """What an operation may touch besides the package: a directory for
    CLI reports and, in the traced run, the span recorder."""

    def __init__(self, scratch: Path, recorder=None):
        self.scratch = scratch
        self.recorder = recorder

    @contextlib.contextmanager
    def span(self, name: str):
        if self.recorder is None:
            yield
            return
        index = self.recorder.begin(name)
        try:
            yield
        finally:
            self.recorder.finish(index)

    def count(self, name: str, amount: int = 1) -> None:
        if self.recorder is not None:
            self.recorder.counts[name] += amount


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _strata(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """One uniform draw in each of ``count`` equal sub-intervals, in order."""
    width = (hi - lo) / count
    return [lo + (i + rng.random()) * width for i in range(count)]


def _shuffled(rng: random.Random, items) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


#: The corner where probing found the largest PV-vs-spectral error: order 3,
#: lambda at the top of its range, theta near pi - 0.5.  The error climbs
#: steeply into it (1e-5 at lambda 2.0, theta 2.4; 5e-5 at 2.4, 2.64), so
#: a worst-case metric is steady only when every block visits it.
CORNER_LAM = 2.4
CORNER_THETA = THETA_RANGE[1] - 0.05


def _run_lambdas(name: str, seed: int) -> list[float]:
    """Four lambdas per run: one in each third of [0.3, 2.4], then one in
    the corner [2.4, 2.5]."""
    rng = _rng(name, seed, "lambda")
    return [*_strata(rng, LAM_RANGE[0], CORNER_LAM, 3), rng.uniform(CORNER_LAM, LAM_RANGE[1])]


def _unit_coefficients(rng: random.Random, degree: int) -> list[float]:
    """Random coefficients scaled to unit norm: the identity error is linear
    in f, so this keeps its size from riding on the draw's magnitude."""
    coeffs = [rng.uniform(-1.0, 1.0) for _ in range(degree + 1)]
    norm = math.sqrt(sum(c * c for c in coeffs))
    return [c / norm for c in coeffs]


def _rel(value: float, reference: float) -> float:
    return abs(value - reference) / (1.0 + abs(reference))


# ---------------------------------------------------------------------------
# identity-sweep
# ---------------------------------------------------------------------------


class IdentitySweep:
    name = "identity-sweep"
    why = (
        "the paper's PV-vs-spectral identity at criterion-1 cost: one operator build "
        "reused by 3 functions, so the Riesz kernel does ~99% of the work"
    )

    def setup_spec(self, seed: int) -> dict:
        return {"lambdas": _run_lambdas(self.name, seed), "rule_order": 64, "max_order": 4}

    def block(self, seed: int, index: int) -> list[dict]:
        """Four groups: each order k = 1..4, each of the run's lambdas and
        each theta stratum once; order 3 always takes the corner."""
        rng = _rng(self.name, seed, index)
        lams = _run_lambdas(self.name, seed)
        thetas = [*_strata(rng, THETA_RANGE[0], CORNER_THETA, 3), rng.uniform(CORNER_THETA, THETA_RANGE[1])]
        cells = [(3, 3, 3), *zip(_shuffled(rng, (1, 2, 4)), _shuffled(rng, range(3)), _shuffled(rng, range(3)))]
        return [
            {
                "lam": lams[lam_cell],
                "k": k,
                "theta": thetas[theta_cell],
                "functions": [_unit_coefficients(rng, degree) for degree in (2, 3, 4)],
            }
            for k, lam_cell, theta_cell in _shuffled(rng, cells)
        ]

    def run(self, op: dict, ctx: Context) -> OpResult:
        lam, k, theta = op["lam"], op["k"], op["theta"]
        result = OpResult()
        schedule = U.TruncationSchedule.geometric()
        operator = U.TruncationOperator(lam, k, theta, schedule.epsilons)
        rule = U.build_rule(lam, 64)
        for coeffs in op["functions"]:
            f = U.band_limited(U.SpectralCoefficients(lam, coeffs))
            spectral = U.riesz_spectral(f, lam, k, theta, 12, rule)
            pv = U.riesz_pv(f, lam, k, theta, schedule, operator=operator)
            error = _rel(pv.value, spectral)
            result.errors.append(error)
            result.check(error <= IDENTITY_GATE, f"identity error {error:.3e} > {IDENTITY_GATE:g}")
            if k % 2 == 0:
                # dropping the jump term must miss the spectral value by |f(theta)|
                miss = abs(pv.extrapolated - spectral)
                f_theta = abs(f(theta))
                result.check(
                    abs(miss - f_theta) <= 0.02 * (1.0 + f_theta),
                    f"even-k jump check: miss {miss:.6e} vs |f(theta)| {f_theta:.6e}",
                )
        return result


# ---------------------------------------------------------------------------
# spectral-poisson
# ---------------------------------------------------------------------------


class SpectralPoisson:
    name = "spectral-poisson"
    why = (
        "spectral Riesz k=1..6 and both Poisson routes on degree 8-24 functions with a "
        "cold rule per op; no Riesz kernel, so special and quadrature do the work"
    )
    #: an odd number of bands, the middle one narrow: op cost grows with the
    #: square of the degree, so the median op then sits inside one band
    #: instead of in the gap between two
    degree_bands = ((8, 11), (12, 14), (15, 16), (17, 20), (21, 24))

    def setup_spec(self, seed: int) -> dict:
        # every op draws a fresh lambda: the rule cache is meant to start cold
        return {"lambdas": [], "rule_order": 64, "max_order": 0}

    def block(self, seed: int, index: int) -> list[dict]:
        """Five points: one per degree band, one per lambda stratum."""
        rng = _rng(self.name, seed, index)
        lams = _shuffled(rng, _strata(rng, *LAM_RANGE, len(self.degree_bands)))
        ops = []
        for (lo, hi), lam in zip(self.degree_bands, lams):
            degree = rng.randint(lo, hi)
            ops.append(
                {
                    "lam": lam,
                    "theta": rng.uniform(*THETA_RANGE),
                    "coeffs": [rng.uniform(-1.0, 1.0) for _ in range(degree + 1)],
                }
            )
        return ops

    def run(self, op: dict, ctx: Context) -> OpResult:
        lam, theta = op["lam"], op["theta"]
        result = OpResult()
        c = U.SpectralCoefficients(lam, op["coeffs"])
        f = U.band_limited(c)
        rule = U.build_rule(lam, 64)
        for k in range(1, 7):
            value = U.riesz_spectral(f, lam, k, theta, c.degree + 4, rule)
            exact = U.synthesize(U.fractional_power(c, 0.5 * k), theta, k)
            error = _rel(value, exact)
            result.errors.append(error)
            result.check(error <= SPECTRAL_GATE, f"spectral k={k} error {error:.3e} > {SPECTRAL_GATE:g}")
        fine_rule = U.build_rule(lam, 128)
        for t in POISSON_TIMES:
            spectral = U.poisson_spectral(c, t, theta)
            kernel = U.poisson_via_kernel(f, lam, t, theta, fine_rule)
            error = abs(kernel - spectral)
            result.errors.append(error)
            result.check(error <= POISSON_GATE, f"Poisson t={t} error {error:.3e} > {POISSON_GATE:g}")
        return result


# ---------------------------------------------------------------------------
# cli-reports
# ---------------------------------------------------------------------------


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as stream:
        rows = list(csv.reader(stream))
    if not rows:
        raise ValueError(f"{path.name} is empty")
    return rows[0], rows[1:]


def _column(header: list[str], rows: list[list[str]], name: str, cast=float) -> list:
    index = header.index(name)
    return [cast(row[index]) for row in rows]


def _spectral_reference(name: str, lam: float, k: int, theta: float, n_max: int) -> float:
    coeffs = U.SpectralCoefficients(lam, CLI_FAMILY[name])
    f = U.band_limited(coeffs)
    return U.riesz_spectral(f, lam, k, theta, max(n_max, coeffs.degree), U.build_rule(lam, 64))


def _check_pv_records(result: OpResult, records: list[dict], lam: float, k: int, n_thetas: int) -> None:
    """Every record's PV value against an independent spectral evaluation."""
    result.check(len(records) == len(CLI_FAMILY) * n_thetas, f"{len(records)} records")
    for record in records:
        pv = record["extrapolated"] + record["gamma_term"]
        spectral = _spectral_reference(record["f"], lam, k, record["theta"], 16)
        error = _rel(pv, spectral)
        result.errors.append(error)
        result.check(error <= IDENTITY_GATE, f"identity error {error:.3e} for f={record['f']}")


def _poisson_worst(result: OpResult, out: Path, op: dict) -> float:
    header, rows = _read_csv(out)
    result.check(len(rows) == len(CLI_FAMILY) * 2 * len(op["thetas"]), f"{len(rows)} Poisson rows")
    return max(_column(header, rows, "abs_error"), default=0.0)


def _check_poisson_defect(result: OpResult, out: Path, op: dict) -> None:
    result.check(_poisson_worst(result, out, op) > POISSON_GATE, "exit 1 but every row meets the gate")


def _check_variation_trace(result: OpResult, out: Path, op: dict) -> None:
    """The truncation-trace CSV, written before the summary JSON."""
    header, rows = _read_csv(out.with_suffix(".csv"))
    result.check(bool(rows) and len(rows) % len(op["thetas"]) == 0, f"{len(rows)} trace rows")
    result.check(all(map(math.isfinite, _column(header, rows, "truncated_value"))), "non-finite truncated value")


#: Defects of the program that this workload keeps visible instead of
#: steering its inputs around them.  command -> (outcome, message fragment,
#: check of what the command still wrote).  Each such op counts as failed.
#:  - poisson at the default --quad-order 64 misses its own 1e-6 gate for
#:    every lambda in range (errors 2e-6 to 1e-5);
#:  - variation with --theta values in decreasing order takes a negative
#:    trapezoid "norm" to a fractional power and dies writing the complex
#:    result to JSON.
KNOWN_DEFECTS = {
    "poisson": (1, "Poisson two-sided identity error", _check_poisson_defect),
    "variation": ("TypeError", "complex is not JSON serializable", _check_variation_trace),
}


class CliReports:
    name = "cli-reports"
    why = (
        "the user path: in-process cli.main over the 8 subcommands, operators rebuilt "
        "per function; known defects: poisson at --quad-order 64 exits 1, variation with "
        "falling --theta raises"
    )
    #: subcommand, order k, number of --theta values.  The kernel sweep runs
    #: at three orders: the op times split into four fast subcommands and the
    #: slow rest, and with one kernel op the median would be half of that one
    #: op's time; with three it is the mean of two kernel sweeps.
    mix = (
        ("compare", 2, 1),
        ("riesz-pv", 3, 1),
        ("variation", 1, 2),
        ("kernel", 2, 1),
        ("kernel", 3, 1),
        ("kernel", 4, 1),
        ("poisson", None, 2),
        ("h-limit", 4, 1),
        ("faa-check", None, 1),
        ("coeffs", None, 1),
    )

    def setup_spec(self, seed: int) -> dict:
        return {
            "lambdas": _run_lambdas(self.name, seed),
            "rule_order": 64,
            "max_order": faa_di_bruno.MAX_ORDER,
        }

    def block(self, seed: int, index: int) -> list[dict]:
        """One pass over the fixed mix.  riesz-pv (order 3) takes the
        corner; the other subcommands rotate through the run's other lambdas."""
        rng = _rng(self.name, seed, index)
        lams = _run_lambdas(self.name, seed)
        shift = rng.randrange(3)
        ops = []
        for position, (command, k, n_thetas) in enumerate(self.mix):
            corner = command == "riesz-pv"
            op = {
                "command": command,
                "lam": lams[3] if corner else lams[(position + shift) % 3],
                "thetas": [
                    rng.uniform(CORNER_THETA, THETA_RANGE[1]) if corner else rng.uniform(*THETA_RANGE)
                    for _ in range(n_thetas)
                ],
                "k": k,
            }
            if command == "variation":
                op["thetas"].sort(reverse=True)  # keeps its known defect in view
            elif command == "faa-check":
                op["ell"] = rng.randint(1, 6)
            elif command == "coeffs":
                op["ell"] = rng.randint(1, faa_di_bruno.MAX_ORDER)
            ops.append(op)
        return ops

    @staticmethod
    def argv(op: dict, output: Path) -> list[str]:
        argv = [op["command"], "--lambda", repr(op["lam"])]
        if op["k"] is not None:
            argv += ["--k", str(op["k"])]
        if "ell" in op:
            argv += ["--ell", str(op["ell"])]
        for theta in op["thetas"]:
            argv += ["--theta", repr(theta)]
        return argv + ["--output", str(output)]

    def run(self, op: dict, ctx: Context) -> OpResult:
        result = OpResult()
        command = op["command"]
        with tempfile.TemporaryDirectory(dir=ctx.scratch) as tmp:
            out = Path(tmp) / "report"
            stderr = io.StringIO()
            with ctx.span(f"cli.{command}"), contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                try:
                    outcome = cli.main(self.argv(op, out))
                except SystemExit as exc:
                    outcome = exc.code if isinstance(exc.code, int) else 2
                except Exception as exc:  # a traceback, which ends a real process with status 1
                    outcome = type(exc).__name__
                    stderr.write(str(exc))
            ctx.count(f"cli.exit_{outcome if isinstance(outcome, int) else 1}")
            ctx.count("cli.report_bytes", sum(p.stat().st_size for p in Path(tmp).iterdir()))
            message = stderr.getvalue().strip()
            known = KNOWN_DEFECTS.get(command)
            if known is not None and outcome == known[0]:
                known[2](result, out, op)
                if known[1] in message and result.problem is None:
                    result.fail(f"{outcome}: {message}", known_defect=True)
                else:
                    result.fail(f"{outcome} without the documented cause: {message}")
            elif outcome != 0:
                result.fail(f"{outcome}: {message}")
            else:
                getattr(self, "_check_" + command.replace("-", "_"))(result, out, op)
        return result

    def _check_compare(self, result: OpResult, out: Path, op: dict) -> None:
        payload = json.loads(out.read_text())
        records = payload["records"]
        _check_pv_records(result, records, op["lam"], op["k"], len(op["thetas"]))
        reported = max(r["abs_error"] / (1.0 + abs(r["spectral"])) for r in records)
        result.check(
            math.isclose(reported, payload["max_relative_error"], rel_tol=1e-12, abs_tol=1e-300),
            "max_relative_error disagrees with its records",
        )

    def _check_riesz_pv(self, result: OpResult, out: Path, op: dict) -> None:
        payload = json.loads(out.read_text())
        _check_pv_records(result, payload["records"], op["lam"], op["k"], len(op["thetas"]))

    def _check_variation(self, result: OpResult, out: Path, op: dict) -> None:
        summary = json.loads(out.with_suffix(".json").read_text())
        _check_variation_trace(result, out, op)
        per_theta = summary["per_theta"]
        result.check(len(per_theta) == len(op["thetas"]), f"{len(per_theta)} theta records")
        for record in per_theta:
            error = record["error"] / (1.0 + abs(record["spectral"]))
            result.errors.append(error)
            result.check(error <= IDENTITY_GATE, f"identity error {error:.3e}")
            result.check(
                record["variation"] >= 0.0 and record["oscillation"] >= 0.0,
                "negative oscillation or variation",
            )

    def _check_kernel(self, result: OpResult, out: Path, op: dict) -> None:
        """Reflection parity R(pi-t, pi-p) = (-1)^k R(t, p) across the
        symmetric 20 x 20 sweep grid, pairing rows by grid index."""
        header, rows = _read_csv(out)
        values = _column(header, rows, "value")
        regions = _column(header, rows, "region", str)
        thetas = _column(header, rows, "theta")
        phis = _column(header, rows, "phi")
        result.check(len(rows) == 380, f"{len(rows)} kernel rows, expected 380")
        if result.problem:
            return
        index = {}
        position = 0
        for i in range(20):
            for j in range(20):
                if i != j:
                    index[(i, j)] = position
                    position += 1
        sign = (-1) ** op["k"]
        for (i, j), row in index.items():
            value = values[row]
            mirror = values[index[(19 - i, 19 - j)]]
            result.check(math.isfinite(value), f"non-finite kernel value at row {row}")
            result.check(
                abs(value - sign * mirror) <= 1e-8 * abs(value),
                f"parity broken at theta={thetas[row]}, phi={phis[row]}",
            )
            result.check(regions[row] in ("A1", "A2", "A3"), f"region label {regions[row]!r}")

    def _check_poisson(self, result: OpResult, out: Path, op: dict) -> None:
        result.check(_poisson_worst(result, out, op) <= POISSON_GATE, "Poisson error over the gate")

    def _check_h_limit(self, result: OpResult, out: Path, op: dict) -> None:
        header, rows = _read_csv(out)
        result.check(_column(header, rows, "k", int) == list(range(1, op["k"] + 1)), "h-limit orders")
        result.check(all(s == "pass" for s in _column(header, rows, "status", str)), "h-limit status")

    def _check_faa_check(self, result: OpResult, out: Path, op: dict) -> None:
        header, rows = _read_csv(out)
        residuals = _column(header, rows, "rel_residual")
        result.check(len(rows) == 50, f"{len(rows)} faa-check rows")
        result.check(max(residuals) <= 1e-10, f"expansion residual {max(residuals):.3e}")

    def _check_coeffs(self, result: OpResult, out: Path, op: dict) -> None:
        """The printed table, evaluated at lambda = 0 where it is exact,
        against the independent jet differentiator."""
        header, rows = _read_csv(out)
        ell = op["ell"]
        table = [
            (int(s), int(i), int(j), Fraction(c))
            for e, s, i, j, c in rows
            if int(e) == ell
        ]
        result.check(len(table) == len(rows) and table, "coefficient rows")
        for point in faa_di_bruno.sample_points(3, seed=ell):
            r, a, b, d = point.r, point.a, point.b, point.d_r
            value = sum(float(c) * r ** (i + j) * a**i * b**j * d ** -(1.0 + s) for s, i, j, c in table)
            oracle = faa_di_bruno.jet_oracle(ell, 0.0, point)
            result.check(
                abs(value - oracle) <= 1e-9 * max(abs(oracle), 1e-300),
                f"coefficient table ell={ell} disagrees with the jet oracle",
            )


WORKLOADS = {w.name: w for w in (IdentitySweep(), CliReports(), SpectralPoisson())}
