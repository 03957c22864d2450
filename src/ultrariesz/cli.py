"""Command-line front end: deterministic CSV/JSON reports for every
verifiable quantity in the library.

Subcommands
-----------
coeffs          exact derivative-expansion coefficient tables
faa-check       expansion vs jet-oracle residuals on random points
kernel          kernel sweep with region labels and envelope ratios
poisson         spectral vs kernel Poisson consistency
h-limit         circle-kernel limit constants
riesz-spectral  spectral-route transform values
riesz-pv        truncations and singularity-subtracted principal value
compare         both routes plus the identity error
variation       oscillation/variation convergence report

Reports are byte-identical for identical configuration: fixed enumeration
orders, 17 significant digits, and no wall-clock content.  Exit status is 0
when every asserted tolerance holds, 1 on a tolerance failure, 2 on a
configuration error.  A library warning (a coefficient tail above 1e-8, a
variation exponent rho <= 2) prints one ``warning:`` line on stderr per
distinct message and leaves the exit status alone.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from dataclasses import MISSING, dataclass, field, fields
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import faa_di_bruno
from .kernels import (
    _envelope_ratio,
    circle_H,
    h_limit_even,
    kernel_partial,
    m_k_estimate,
    region_classify,
)
from .quadrature import AccuracyError, ConstructionError, EvaluationError, QuadratureRule, build_rule
from .transforms import (
    SpectralCoefficients,
    TruncationOperator,
    TruncationSchedule,
    _poisson_via_kernel_each,
    band_limited,
    poisson_spectral,
    riesz_pv,
    riesz_spectral,
)
from .variation import DyadicBands, convergence_report

__all__ = ["RunConfig", "main"]

#: %.16e prints 17 significant digits
_FMT = "%.16e"

_EXIT_OK = 0
_EXIT_TOLERANCE = 1
_EXIT_CONFIG = 2


class ConfigError(Exception):
    pass


#: the standard band-limited test functions, as coefficient vectors
_FAMILY = {
    "e0": [1.0],
    "e1": [0.0, 1.0],
    "e2+0.5e4": [0.0, 0.0, 1.0, 0.0, 0.5],
}
_FAMILY_DEGREE = max(len(coeffs) for coeffs in _FAMILY.values()) - 1

#: the rule's nodes are the singular values of a dense (order/2) x (order/2)
#: bidiagonal block: O(order**2) memory and O(order**3) time
_MAX_QUAD_ORDER = 2048


@dataclass
class RunConfig:
    """Validated run parameters, each declared only here: a field is a CLI
    flag and a config-file key of its name with "_" -> "-" (lam and thetas
    excepted, see _RENAMED_FLAGS), cast to the type of its default."""

    lam: float = 1.0
    k: int = 1
    n_max: int = 16
    quad_order: int = 128
    # ratio 1/2 on 9 radii, not the library's 1/4 on 5: the reports (the
    # variation trace reads T f at every radius) stay as they were; at 1/4,
    # compare --lambda 2.45 --k 12 reads a tail of 1.04e-7, past 10 x a 1e-8
    # tolerance; and --eps-count 13 would reach inside the kernel guard
    eps_start: float = 0.05
    eps_ratio: float = 0.5
    eps_count: int = 9
    rho: float = 3.0
    thetas: list[float] = field(default_factory=lambda: [0.7, math.pi / 2, 2.2])
    tolerance: float = 1e-3
    ell: int = 2
    output: str = ""

    def validate(self) -> "RunConfig":
        checks = [
            (math.isfinite(self.lam) and self.lam > 0.0, "lam", "must be positive and finite"),
            (1 <= self.k <= faa_di_bruno.MAX_ORDER, "k", f"must lie in [1, {faa_di_bruno.MAX_ORDER}]"),
            (self.n_max >= 1, "n_max", "must be at least 1"),
            (math.isfinite(self.rho) and self.rho >= 1.0, "rho", "must be finite and at least 1"),
            (len(self.thetas) > 0, "thetas", "need at least one evaluation point"),
            (all(0.0 < t < math.pi for t in self.thetas), "thetas", "must lie in (0, pi)"),
            (self.tolerance > 0.0, "tolerance", "must be positive"),
            (1 <= self.ell <= faa_di_bruno.MAX_ORDER, "ell", f"must lie in [1, {faa_di_bruno.MAX_ORDER}]"),
        ]
        for ok, name, message in checks:
            if not ok:
                raise ConfigError(f"field '{_flag(name)}': {message}")
        try:
            self.schedule()
        except ValueError as exc:
            names = ", ".join(f"'{_flag(name)}'" for name in ("eps_start", "eps_ratio", "eps_count"))
            raise ConfigError(f"fields {names}: {exc}") from exc
        return self

    def schedule(self) -> TruncationSchedule:
        return TruncationSchedule.geometric(self.eps_start, self.eps_ratio, self.eps_count)

    def rule(self) -> QuadratureRule:
        """The Gaussian rule of the commands that integrate against dm_lambda."""
        # the spectral route analyzes up to degree max(n-max, family degree)
        degree = max(self.n_max, _FAMILY_DEGREE)
        if not degree < self.quad_order <= _MAX_QUAD_ORDER:
            raise ConfigError(
                f"field '{_flag('quad_order')}': must lie in "
                f"(max({_flag('n_max')}, {_FAMILY_DEGREE}) = {degree}, {_MAX_QUAD_ORDER}]"
            )
        # an extreme lambda raises ConstructionError (exit 2)
        return build_rule(self.lam, self.quad_order)


#: flags that are not their field's name with "_" -> "-"
_RENAMED_FLAGS = {"lam": "lambda", "thetas": "theta"}


def _flag(name: str) -> str:
    """The CLI flag and config-file key of the RunConfig field ``name``."""
    return _RENAMED_FLAGS.get(name, name.replace("_", "-"))


#: flag and config-file key -> (RunConfig field, type of its default); a
#: list field takes floats, repeated flags or one whitespace/comma list
_CONFIG_KEYS = {
    _flag(f.name): (
        f.name,
        type(f.default_factory() if f.default is MISSING else f.default),
    )
    for f in fields(RunConfig)
}


def load_config_file(path: str) -> dict:
    """Parse a `key = value` file with # comments into config field values."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read the config file: {exc}") from exc
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        attr, cast = _CONFIG_KEYS[key]
        try:
            if cast is list:
                values[attr] = [float(tok) for tok in value.replace(",", " ").split()]
            else:
                values[attr] = cast(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: field '{key}': {exc}") from exc
    return values


def _default_family(lam: float) -> dict[str, SpectralCoefficients]:
    """The standard band-limited test functions at this lambda."""
    return {name: SpectralCoefficients(lam, coeffs) for name, coeffs in _FAMILY.items()}


def _write_csv(path: str | None, header: list[str], rows: list[list]) -> None:
    stream = open(path, "w", newline="") if path else sys.stdout
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_FMT % v if isinstance(v, float) else v for v in row])
    finally:
        if path:
            stream.close()


def _write_json(path: str | None, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_coeffs(config: RunConfig) -> int:
    table = faa_di_bruno.coefficients(config.ell)
    rows = [
        [table.ell, s, i, j, str(coeff)]
        for (s, i, j), coeff in sorted(table.entries.items())
    ]
    _write_csv(config.output or None, ["ell", "s", "i", "j", "coefficient"], rows)
    return _EXIT_OK


def cmd_faa_check(config: RunConfig) -> int:
    points = faa_di_bruno.sample_points(50)
    rows = []
    worst = 0.0
    for index, point in enumerate(points):
        oracle = faa_di_bruno.jet_oracle(config.ell, config.lam, point)
        corrected = faa_di_bruno.expansion_eval(config.ell, config.lam, point)
        rel = abs(corrected - oracle) / max(abs(oracle), 1e-300)
        worst = max(worst, rel)
        rows.append([index, point.theta, point.phi, point.r, point.t, oracle, corrected, rel])
    _write_csv(
        config.output or None,
        ["index", "theta", "phi", "r", "t", "jet_oracle", "corrected", "rel_residual"],
        rows,
    )
    if worst > 1e-10:
        print(f"FAIL: corrected expansion deviates from the jet oracle by {worst:.3e}", file=sys.stderr)
        return _EXIT_TOLERANCE
    return _EXIT_OK


def _grid_pairs(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every off-diagonal (theta, phi) of grid x grid, theta-major."""
    theta, phi = np.repeat(grid, grid.size), np.tile(grid, grid.size)
    off = theta != phi
    return theta[off], phi[off]


def _kernel_rows(config: RunConfig, thetas: np.ndarray, phis: np.ndarray) -> list[list]:
    """[theta, phi, region, kernel value, envelope ratio] for each pair
    (thetas[i], phis[i]), from one kernel evaluation over all of them."""
    # the Riesz kernel is kernel_partial at ell = k and the default guard,
    # which is riesz_kernel's; called by that name, because perfbench's
    # traced run reads the theta of every riesz_kernel call as one float
    values = kernel_partial(config.lam, config.k, config.k, thetas, phis)
    regions = region_classify(thetas, phis)
    ratios = _envelope_ratio(config.lam, config.k, thetas, phis, values, regions)
    columns = (thetas, phis, regions, values, ratios)
    return [list(row) for row in zip(*(column.tolist() for column in columns))]


def cmd_kernel(config: RunConfig) -> int:
    rows = _kernel_rows(config, *_grid_pairs(np.linspace(0.15, math.pi - 0.15, 20)))
    _write_csv(config.output or None, ["theta", "phi", "region", "value", "envelope_ratio"], rows)
    finite = all(math.isfinite(r[3]) and math.isfinite(r[4]) for r in rows)
    return _EXIT_OK if finite else _EXIT_TOLERANCE


def cmd_poisson(config: RunConfig) -> int:
    rule = config.rule()
    family = sorted(_default_family(config.lam).items())
    functions = [band_limited(coeffs) for _, coeffs in family]
    # one kernel call per t over every (theta, node) pair, its rows
    # integrated against every function
    kernel_sides = {t: _poisson_via_kernel_each(functions, config.lam, t, config.thetas, rule) for t in (0.1, 1.0)}
    rows = []
    worst = 0.0
    for index, (name, coeffs) in enumerate(family):
        for t in (0.1, 1.0):
            for column, theta in enumerate(config.thetas):
                spectral = poisson_spectral(coeffs, t, theta)
                kernel = kernel_sides[t][column][index]
                err = abs(spectral - kernel)
                worst = max(worst, err)
                rows.append([name, t, theta, spectral, kernel, err])
    _write_csv(
        config.output or None,
        ["f", "t", "theta", "spectral", "kernel", "abs_error"],
        rows,
    )
    if worst > 1e-6:
        print(f"FAIL: Poisson two-sided identity error {worst:.3e} > 1e-6", file=sys.stderr)
        return _EXIT_TOLERANCE
    return _EXIT_OK


def _circle_limit(k: int) -> tuple[float, float, float, bool]:
    """The circle kernel H^k near w = 0 as (limit, numeric, residual or
    decay, ok).  Even k: H^k(1e-3) against h_limit_even(k), ok within 1e-2
    relative.  Odd k: limit 0, numeric |1e-3 H^k(1e-3)|, and the decay of
    |w H^k(w)| from w = 1e-2 to 1e-3, ok at 5x or more."""
    if k % 2 == 0:
        limit = h_limit_even(k)
        numeric = circle_H(k, 1e-3)
        residual = abs(numeric - limit) / abs(limit)
        return limit, numeric, residual, residual < 1e-2
    big = abs(1e-2 * circle_H(k, 1e-2))
    small = abs(1e-3 * circle_H(k, 1e-3))
    return 0.0, small, big / max(small, 1e-300), small * 5.0 <= big


def cmd_h_limit(config: RunConfig) -> int:
    rows = []
    failed = False
    for k in range(1, config.k + 1):
        limit, numeric, residual, ok = _circle_limit(k)
        rows.append([k, limit, numeric, residual, "pass" if ok else "fail"])
        failed = failed or not ok
    _write_csv(
        config.output or None,
        ["k", "even_limit", "numeric", "residual_or_decay", "status"],
        rows,
    )
    return _EXIT_TOLERANCE if failed else _EXIT_OK


def _pv_records(config: RunConfig, *, spectral_side: bool, pv_side: bool) -> tuple[list[dict], float]:
    rule = config.rule() if spectral_side else None
    schedule = config.schedule()
    family = sorted(_default_family(config.lam).items())
    # every function before any kernel: a lambda past the float range of
    # the eigenfunction norms is a config error, whatever the kernels make of it
    functions = [band_limited(coeffs) for _, coeffs in family]
    # one operator per theta, built at its first use and applied to every function
    operators: list[TruncationOperator] = []
    records = []
    worst = 0.0
    for (name, coeffs), f in zip(family, functions):
        n_max = max(config.n_max, coeffs.degree)
        for index, theta in enumerate(config.thetas):
            record: dict = {
                "f": name,
                "lambda": config.lam,
                "k": config.k,
                "theta": theta,
                "epsilons": [],
                "truncated": [],
                "extrapolated": None,
                "gamma_term": None,
                "spectral": None,
                "abs_error": None,
            }
            if spectral_side:
                record["spectral"] = riesz_spectral(f, config.lam, config.k, theta, n_max, rule)
            if pv_side:
                if len(operators) == index:
                    operators.append(TruncationOperator(config.lam, config.k, theta, schedule.epsilons))
                result = riesz_pv(
                    f, config.lam, config.k, theta, tolerance=config.tolerance, operator=operators[index]
                )
                record["epsilons"] = list(result.epsilons)
                record["truncated"] = list(result.truncated)
                record["extrapolated"] = result.extrapolated
                record["gamma_term"] = result.gamma_term
                if spectral_side:
                    record["abs_error"] = abs(
                        result.value - record["spectral"]
                    )
                    worst = max(
                        worst,
                        record["abs_error"] / (1.0 + abs(record["spectral"])),
                    )
            records.append(record)
    return records, worst


def cmd_riesz_spectral(config: RunConfig) -> int:
    records, _ = _pv_records(config, spectral_side=True, pv_side=False)
    _write_json(config.output or None, {"records": records})
    return _EXIT_OK


def cmd_riesz_pv(config: RunConfig) -> int:
    records, _ = _pv_records(config, spectral_side=False, pv_side=True)
    _write_json(config.output or None, {"records": records})
    return _EXIT_OK


def cmd_compare(config: RunConfig) -> int:
    records, worst = _pv_records(config, spectral_side=True, pv_side=True)
    payload = {"records": records, "max_relative_error": worst, "tolerance": config.tolerance}
    _write_json(config.output or None, payload)
    if worst > config.tolerance:
        failing = max(records, key=lambda r: r["abs_error"] or 0.0)
        print(
            f"FAIL: identity error {worst:.3e} > {config.tolerance:g} "
            f"(f={failing['f']}, theta={failing['theta']})",
            file=sys.stderr,
        )
        return _EXIT_TOLERANCE
    return _EXIT_OK


def _global_summary(config: RunConfig, max_abs_error: float) -> dict:
    """Constants the report is judged against: the diagonal constant, the
    circle limit behavior, and per region the largest envelope ratio over
    the off-diagonal pairs of a 6 x 6 grid, for the configured order."""
    k = config.k
    limit, _, residual_or_decay, _ = _circle_limit(k)
    if k % 2 == 0:
        h_entry = {"even_limit": limit, "relative_residual": residual_or_decay}
    else:
        h_entry = {"w_h_decay": residual_or_decay}
    envelope = {"A1": 0.0, "A2": 0.0, "A3": 0.0}
    for _, _, region, _, ratio in _kernel_rows(config, *_grid_pairs(np.linspace(0.3, math.pi - 0.3, 6))):
        envelope[region] = max(envelope[region], ratio)
    return {
        "max_abs_error": max_abs_error,
        "m_k": m_k_estimate(k),
        "circle_limit": h_entry,
        "envelope_constants": envelope,
    }


def cmd_variation(config: RunConfig) -> int:
    rule = config.rule()
    schedule = config.schedule()
    bands = DyadicBands.dyadic()
    coeffs = _default_family(config.lam)["e2+0.5e4"]
    report = convergence_report(
        coeffs,
        config.lam,
        config.k,
        config.thetas,
        schedule,
        bands,
        config.rho,
        rule,
        n_max=config.n_max,
    )
    base = config.output or "variation"
    csv_rows = [
        [record.theta, eps, value]
        for record in report.records
        for eps, value in zip(record.trace.epsilons, record.trace.values)
    ]
    _write_csv(f"{base}.csv" if config.output else None, ["theta", "epsilon", "truncated_value"], csv_rows)
    summary = {
        "config": {f.name: getattr(config, f.name) for f in fields(RunConfig)},
        "lambda": report.lam,
        "k": report.k,
        "rho": report.rho,
        "band_edges": list(report.band_edges),
        "per_theta": [
            {
                "theta": r.theta,
                "oscillation": r.oscillation,
                "variation": r.variation,
                "maximal": r.maximal,
                "pv": r.pv,
                "spectral": r.spectral,
                "error": r.abs_error,
            }
            for r in report.records
        ],
        "norms": report.norms,
        "summary": _global_summary(config, report.max_abs_error()),
    }
    _write_json(f"{base}.json" if config.output else None, summary)
    worst = max(r.abs_error / (1.0 + abs(r.spectral)) for r in report.records)
    if worst > config.tolerance:
        print(f"FAIL: identity error {worst:.3e} > {config.tolerance:g}", file=sys.stderr)
        return _EXIT_TOLERANCE
    return _EXIT_OK


_COMMANDS = {
    "coeffs": cmd_coeffs,
    "faa-check": cmd_faa_check,
    "kernel": cmd_kernel,
    "poisson": cmd_poisson,
    "h-limit": cmd_h_limit,
    "riesz-spectral": cmd_riesz_spectral,
    "riesz-pv": cmd_riesz_pv,
    "compare": cmd_compare,
    "variation": cmd_variation,
}


# built once per process (its ~130 add_argument calls cost more than some
# runs); parse_args fills a fresh namespace on each call
@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultra-riesz",
        description="Ultraspherical Riesz transform reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        for flag, (attr, cast) in _CONFIG_KEYS.items():
            many = cast is list
            p.add_argument(
                f"--{flag}", dest=attr, type=float if many else cast, action="append" if many else "store", default=None
            )
        p.add_argument("--config", dest="config_path", type=str, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    notes: dict[str, None] = {}
    show = warnings.showwarning

    def note(message, category, *where):
        if issubclass(category, UserWarning):
            notes[str(message)] = None
        else:
            show(message, category, *where)

    with warnings.catch_warnings():
        # a library UserWarning qualifies a result without failing it; every
        # other category keeps the interpreter's filters, so -W error still
        # raises numpy's RuntimeWarnings
        warnings.simplefilter("always", UserWarning)
        warnings.showwarning = note
        code = _run(args)
    # an exit-2 run prints its one config error line and nothing else
    if code != _EXIT_CONFIG:
        for message in notes:
            print(f"warning: {message}", file=sys.stderr)
    return code


def _run(args: argparse.Namespace) -> int:
    try:
        values: dict = {}
        if args.config_path:
            values.update(load_config_file(args.config_path))
        for f in fields(RunConfig):
            flag_value = getattr(args, f.name, None)
            if flag_value is not None:
                values[f.name] = flag_value
        return _COMMANDS[args.command](RunConfig(**values).validate())
    except (ConfigError, ValueError, OSError) as exc:
        # a ValueError is the library refusing an argument, an OSError a
        # report that cannot be written
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except (ConstructionError, EvaluationError, OverflowError, FloatingPointError) as exc:
        # an extreme lambda or order carries the arithmetic past the float range
        print(f"config error: parameters out of floating-point range: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except AccuracyError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return _EXIT_TOLERANCE


if __name__ == "__main__":
    sys.exit(main())
