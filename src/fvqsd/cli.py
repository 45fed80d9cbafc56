"""Config-driven command line front end.

Every experiment subcommand reads a JSON config, runs the corresponding
solver or Monte Carlo experiment, and writes three artifacts into the
output directory: results.csv (fixed column set), summary.json (resolved
config echoed back plus results and bound checks), plot.svg.  Exit codes:
0 success, 1 input or runtime error, 2 a scientific bound check failed.

Each kind's parameters are declared once, in `PARAMETERS`; `resolve_params`
checks a config against that table, and the handler consumes and
summary.json echoes what it returns.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, TextIO

import numpy as np

from . import svgplot
from .chain import (
    AbsorbingChain,
    check_bound_horizon,
    inflow_dominance,
    load_chain,
    read_json,
    validate_chain,
)
from .errors import (
    ChainValidationError,
    ConfigError,
    FvqsdError,
    HorizonOverflowError,
)
from .estimators import (
    N_BATCHES,
    ConvergenceCurve,
    convergence_experiment,
    correlation_experiment,
    extreme_profiles,
    qsd_profile_experiment,
    product_moment_experiment,
)
from .graphical import influence_experiment
# empirical_measure, map_replicas and simulate_trajectory are unused here but
# stay importable: perfbench's tracer patches them by attribute.
from .measures import check_distribution, empirical_measure  # noqa: F401
from .parallel import map_replicas  # noqa: F401
from .seeding import ReplicaSeed
from .semigroup import decay_rate_estimate, qsd
from .simulator import (  # noqa: F401
    configuration_from_profile,
    simulate_counts,
    simulate_trajectory,
)

CSV_COLUMNS = (
    "experiment", "N", "t", "x", "y", "estimate", "se", "bound",
    "replicas", "seed",
)

_REQUIRED = object()

# A converter checks one given value and returns what the handler consumes
# and summary.json echoes; `where` names the value in error messages.
Converter = Callable[[Any, str, AbsorbingChain], Any]


@dataclass(frozen=True)
class Param:
    """One row of a kind's parameter table.

    An absent parameter takes ``default``; ``_REQUIRED`` makes its absence
    an error.  ``scalar`` names the one-entry form of a list parameter and
    converts that entry; a config may give either form, not both.
    """

    name: str
    convert: Converter
    default: Any = _REQUIRED
    scalar: tuple[str, Converter] | None = None

    @property
    def names(self) -> tuple[str, ...]:
        return (self.name,) if self.scalar is None else (self.name, self.scalar[0])


# Positions and counts are int64, so no integer parameter may exceed this.
_INT64_MAX = 2**63 - 1
# A kind that places N labelled particles holds their positions in one
# int64 array, and no numpy array holds more than 2^63 - 1 bytes.
_POSITIONS_MAX = _INT64_MAX // 8


def _integer(minimum: int, maximum: int = _INT64_MAX) -> Converter:
    def convert(value: Any, where: str, chain: AbsorbingChain) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where} must be an integer")
        if value < minimum:
            raise ConfigError(f"{where} must be at least {minimum}")
        if value > maximum:
            # Both maxima are 2^k - 1.
            raise ConfigError(f"{where} must be at most 2^{maximum.bit_length()} - 1")
        return value
    return convert


def _number(minimum: float, strict: bool = False) -> Converter:
    """A finite number, echoed as a float, >= ``minimum`` (> when strict)."""
    def convert(value: Any, where: str, chain: AbsorbingChain) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where} must be a number")
        # False for NaN, the infinities and integers too large for a float.
        if not -sys.float_info.max <= value <= sys.float_info.max:
            raise ConfigError(f"{where} must be finite")
        if value < minimum or (strict and value == minimum):
            raise ConfigError(f"{where} must be {'>' if strict else '>='} {minimum:g}")
        return float(value)
    return convert


def _list_of(entry: Converter, min_len: int = 1, increasing: bool = False,
             distinct: bool = False) -> Converter:
    def convert(value: Any, where: str, chain: AbsorbingChain) -> list:
        if not isinstance(value, list) or len(value) < min_len:
            raise ConfigError(f"{where} must be a list of at least {min_len} entries")
        out = [entry(v, f"{where}[{k}]", chain) for k, v in enumerate(value)]
        if increasing and any(b <= a for a, b in zip(out, out[1:])):
            raise ConfigError(f"{where} must be strictly increasing")
        if distinct and len(set(out)) < len(out):
            raise ConfigError(f"{where} must not repeat an entry")
        return out
    return convert


def _site(value: Any, where: str, chain: AbsorbingChain) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a site name")
    try:
        chain.index(value)
    except KeyError:
        raise ConfigError(f"{where}: unknown site {value!r}") from None
    return value


def _profile(spec: Any, chain: AbsorbingChain, where: str) -> np.ndarray:
    """A profile is 'uniform', a site name (point mass), or a weight list."""
    if spec == "uniform":
        return np.full(chain.n, 1.0 / chain.n)
    if isinstance(spec, str):
        return np.eye(chain.n)[chain.index(_site(spec, where, chain))]
    if isinstance(spec, list):
        try:
            return check_distribution(spec, chain.n)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from None
    raise ConfigError(f"{where} must be 'uniform', a site name, or a weight list")


def _profile_spec(value: Any, where: str, chain: AbsorbingChain) -> Any:
    """Checks a profile and echoes it as given; handlers convert it with
    `_profile`."""
    _profile(value, chain, where)
    return value


def _profiles(value: Any, where: str, chain: AbsorbingChain) -> Any:
    """A list of profiles, or ``"extreme"``, the default, which
    `_run_convergence` expands to every point mass and the uniform law."""
    if value == "extreme":
        return value
    return _list_of(_profile_spec)(value, where, chain)


_PARTICLES = _integer(2, _POSITIONS_MAX)
# overlap's scan holds a few numbers per replica whatever N is.
_SCANNED_PARTICLES = _integer(2)
_HORIZON = _number(0.0)


def _bound_horizon(value: Any, where: str, chain: AbsorbingChain) -> float:
    """A horizon t whose bound e^(2 C t) is a finite double."""
    try:
        return check_bound_horizon(chain, _HORIZON(value, where, chain))
    except HorizonOverflowError as exc:
        raise ConfigError(f"{where}: {exc}") from None

_POSITIVE = _number(0.0, strict=True)
_N_LIST = _list_of(_PARTICLES, increasing=True)
_STATIONARY = (
    Param("burn_in", _POSITIVE),
    Param("n_samples", _integer(2 * N_BATCHES)),
    Param("spacing", _POSITIVE),
)

# Every parameter of every kind: the only place a parameter is declared.
# docs/config.md lists the same names (checked by the test suite).
PARAMETERS: dict[str, tuple[Param, ...]] = {
    "qsd": (
        Param("tol", _POSITIVE, 1e-12),
        Param("max_iter", _integer(1), 10**6),
    ),
    "semigroup": (
        Param("initial", _profile_spec),
        Param("t_grid", _list_of(_POSITIVE, min_len=4, increasing=True)),
    ),
    "simulate": (
        Param("n_particles", _PARTICLES),
        Param("replicas", _integer(1)),
        Param("record_times", _list_of(_HORIZON, increasing=True)),
        Param("initial", _profile_spec, "uniform"),
    ),
    "correlation": (
        Param("n_particles", _PARTICLES),
        Param("replicas", _integer(2)),
        Param("t", _bound_horizon),
        Param("x", _site),
        Param("y", _site),
        Param("initial", _profile_spec, "uniform"),
    ),
    "convergence": (
        Param("n_list", _N_LIST),
        Param("t", _POSITIVE),
        Param("replicas", _integer(2)),
        Param("profiles", _profiles, "extreme"),
    ),
    "qsd_profile": (Param("n_list", _N_LIST),) + _STATIONARY,
    "overlap": (
        Param("n_list", _list_of(_SCANNED_PARTICLES, increasing=True),
              scalar=("n_particles", _SCANNED_PARTICLES)),
        Param("t_grid", _list_of(_bound_horizon), scalar=("t", _bound_horizon)),
        Param("replicas", _integer(2)),
    ),
    "product_moment": (
        Param("sites", _list_of(_site, distinct=True)),
        Param("n_particles", _PARTICLES),
    ) + _STATIONARY,
}

EXPERIMENT_KINDS = tuple(PARAMETERS)


def resolve_params(kind: str, params: dict, chain: AbsorbingChain) -> dict:
    """Check ``params`` against the kind's table and return the resolved
    parameters: what the handler consumes and summary.json echoes."""
    table = PARAMETERS[kind]
    unknown = set(params).difference(*(p.names for p in table))
    if unknown:
        raise ConfigError(f"unknown {kind} parameter(s): {sorted(unknown)}")
    resolved = {}
    for p in table:
        given = [name for name in p.names if name in params]
        where = " or ".join(f"parameters.{name}" for name in p.names)
        if len(given) > 1:
            raise ConfigError(f"give one of {where}, not both")
        if given == [p.name]:
            resolved[p.name] = p.convert(params[p.name], f"parameters.{p.name}", chain)
        elif given:
            name, convert = p.scalar
            resolved[p.name] = [convert(params[name], f"parameters.{name}", chain)]
        elif p.default is _REQUIRED:
            raise ConfigError(f"{where} is required")
        else:
            resolved[p.name] = p.default
    return resolved


def load_config(path: str | os.PathLike) -> dict:
    cfg = read_json(path, ConfigError)
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _resolve_chain(cfg: dict, config_dir: Path) -> tuple[AbsorbingChain, dict]:
    spec = cfg.get("chain")
    if isinstance(spec, str):
        chain = load_chain(config_dir / spec)
    elif isinstance(spec, dict):
        chain = validate_chain(spec)
    else:
        raise ConfigError("chain must be a file path or an inline chain object")
    echo = {
        "states": list(chain.states),
        "rates": [[float(v) for v in row] for row in chain.jump_rates],
        "absorption": [float(v) for v in chain.absorption],
    }
    return chain, echo


def _check(name: str, value: float, limit: float) -> dict:
    return {
        "name": name,
        "value": float(value),
        "limit": float(limit),
        "passed": bool(value <= limit),
    }


def _run_qsd(chain: AbsorbingChain, params: dict, seed: ReplicaSeed):
    sol = qsd(chain, tol=params["tol"], max_iter=params["max_iter"])
    rows = [dict(x=state, estimate=v) for state, v in zip(chain.states, sol.nu)]
    results = asdict(sol)
    plot = svgplot.line_plot(
        np.arange(chain.n),
        {"nu": sol.nu},
        xlabel="site index",
        ylabel="weight",
        title="quasi-stationary distribution",
    )
    return rows, results, [], plot


def _run_semigroup(chain: AbsorbingChain, params: dict, seed: ReplicaSeed):
    mu = _profile(params["initial"], chain, "parameters.initial")
    sol = qsd(chain)
    fit = decay_rate_estimate(chain, mu, np.asarray(params["t_grid"]),
                              solution=sol)
    rows = [dict(t=t, estimate=d) for t, d in zip(fit.times, fit.distances)]
    results = {
        "theta": fit.theta,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "alpha": sol.alpha,
        "nu": sol.nu,
        "distances": fit.distances,
    }
    plot = svgplot.line_plot(
        fit.times,
        {"||T_t mu - nu||": fit.distances},
        xlabel="t",
        ylabel="total variation distance",
        title="decay toward the quasi-stationary distribution",
        logy=True,
    )
    return rows, results, [], plot


def _run_simulate(chain: AbsorbingChain, params: dict, seed: ReplicaSeed):
    n_particles = params["n_particles"]
    replicas = params["replicas"]
    times = np.asarray(params["record_times"])
    profile = _profile(params["initial"], chain, "parameters.initial")
    xi0 = configuration_from_profile(profile, n_particles, chain.states)
    stacked = simulate_counts(chain, xi0, times, replicas, seed) / n_particles
    means = stacked.mean(axis=0)
    if replicas > 1:
        ses = stacked.std(axis=0, ddof=1) / np.sqrt(replicas)
    else:
        ses = np.zeros_like(means)
    rows = [
        dict(N=n_particles, t=t, x=state, estimate=means[k, s], se=ses[k, s],
             replicas=replicas)
        for k, t in enumerate(times)
        for s, state in enumerate(chain.states)
    ]
    profiles = {state: means[:, s] for s, state in enumerate(chain.states)}
    plot = svgplot.line_plot(
        times,
        profiles,
        xlabel="t",
        ylabel="mean occupation fraction",
        title=f"mean particle profile, N={n_particles}",
    )
    return rows, {"mean_profile": profiles}, [], plot


def _point_plot(n_particles: int, series: dict, ylabel: str, title: str) -> str:
    """One estimate and its reference value at one particle count."""
    return svgplot.line_plot(
        [n_particles],
        {name: [value] for name, value in series.items()},
        xlabel="N",
        ylabel=ylabel,
        title=title,
    )


def _run_correlation(chain: AbsorbingChain, params: dict, seed: ReplicaSeed):
    n_particles = params["n_particles"]
    replicas = params["replicas"]
    t, x, y = params["t"], params["x"], params["y"]
    profile = _profile(params["initial"], chain, "parameters.initial")
    xi0 = configuration_from_profile(profile, n_particles, chain.states)
    est = correlation_experiment(chain, xi0, t, x, y, replicas, seed)
    rows = [dict(
        N=n_particles, t=t, x=x, y=y, estimate=est.covariance,
        se=est.std_error, bound=est.bound, replicas=replicas,
    )]
    checks = [_check(
        "covariance_within_bound",
        abs(est.covariance),
        est.bound + 3.0 * est.std_error,
    )]
    results = {
        "covariance": est.covariance,
        "std_error": est.std_error,
        "bound": est.bound,
    }
    plot = _point_plot(
        n_particles,
        {"|covariance|": abs(est.covariance), "bound": est.bound},
        ylabel="covariance magnitude",
        title=f"covariance of (m_{x}, m_{y}) at t={t:g}",
    )
    return rows, results, checks, plot


def _curve_output(curve: ConvergenceCurve, series: str, ylabel: str,
                  title: str, **columns):
    """Rows per N, the curve's arrays and its plot, log-scaled when every
    estimate is positive."""
    rows = [
        dict(N=n, estimate=e, se=s, **columns)
        for n, e, s in zip(curve.n_values, curve.estimates, curve.std_errors)
    ]
    results = {
        "n_list": curve.n_values,
        "estimates": curve.estimates,
        "std_errors": curve.std_errors,
    }
    plot = svgplot.line_plot(
        curve.n_values,
        {series: curve.estimates},
        xlabel="N",
        ylabel=ylabel,
        title=title,
        logy=bool(np.all(curve.estimates > 0.0)),
    )
    return rows, results, [], plot


def _run_convergence(chain: AbsorbingChain, params: dict, seed: ReplicaSeed):
    t, replicas = params["t"], params["replicas"]
    specs = params["profiles"]
    if specs == "extreme":
        profiles = extreme_profiles(chain.n)
    else:
        profiles = [_profile(p, chain, "parameters.profiles") for p in specs]
    curve = convergence_experiment(chain, profiles, t, params["n_list"],
                                   replicas, seed)
    return _curve_output(
        curve, "worst-profile distance", "E ||m - conditioned law||",
        f"profile convergence at t={t:g}", t=t, replicas=replicas,
    )


def _run_qsd_profile(chain: AbsorbingChain, params: dict, seed: ReplicaSeed):
    n_samples = params["n_samples"]
    curve = qsd_profile_experiment(chain, params["n_list"], params["burn_in"],
                                   n_samples, params["spacing"], seed)
    return _curve_output(
        curve, "stationary distance", "mean ||m - nu||",
        "stationary profile vs quasi-stationary distribution",
        replicas=n_samples,
    )


def _run_product_moment(chain: AbsorbingChain, params: dict, seed: ReplicaSeed):
    n_particles = params["n_particles"]
    n_samples = params["n_samples"]
    est = product_moment_experiment(chain, params["sites"], n_particles,
                                    params["burn_in"], n_samples,
                                    params["spacing"], seed)
    # Two sites fill x and y; one site, or three and more, go in x.
    x, y = est.sites if len(est.sites) == 2 else (",".join(est.sites), "")
    rows = [dict(
        N=n_particles, x=x, y=y, estimate=est.estimate, se=est.std_error,
        replicas=n_samples,
    )]
    results = asdict(est)
    plot = _point_plot(
        n_particles,
        {"product moment": est.estimate, "reference": est.reference},
        ylabel="stationary product moment",
        title="product moment vs quasi-stationary reference",
    )
    return rows, results, [], plot


def _run_overlap(chain: AbsorbingChain, params: dict, seed: ReplicaSeed):
    n_values, t_values = params["n_list"], params["t_grid"]
    replicas = params["replicas"]
    rows = []
    checks = []
    cells = []
    grid = [(n, t) for n in n_values for t in t_values]
    estimates = influence_experiment(chain, n_values, t_values, replicas, seed)
    for (n_particles, t), (size, overlap) in zip(grid, estimates):
        for experiment, estimate, est in (
            ("overlap", overlap.probability, overlap),
            ("influence_size", size.mean_size, size),
        ):
            rows.append(dict(
                experiment=experiment, N=n_particles, t=t,
                estimate=estimate, se=est.std_error, bound=est.bound,
                replicas=replicas,
            ))
            checks.append(_check(
                f"{experiment}_within_bound[N={n_particles},t={t:g}]",
                estimate,
                est.bound + 3.0 * est.std_error,
            ))
        cells.append({
            "n_particles": n_particles, "t": t,
            "overlap": overlap.probability, "overlap_bound": overlap.bound,
            "overlap_ci": [overlap.ci_low, overlap.ci_high],
            "mean_influence_size": size.mean_size,
            "size_bound": size.bound,
        })
    # One N and several t: plot against t.  Otherwise plot against N, at
    # the first t of the grid.
    if len(t_values) > 1 and len(n_values) == 1:
        xs, xlabel, plotted = t_values, "t", cells
    else:
        xs, xlabel, plotted = n_values, "N", cells[::len(t_values)]
    plot = svgplot.line_plot(
        xs,
        {"overlap frequency": [c["overlap"] for c in plotted],
         "bound": [c["overlap_bound"] for c in plotted]},
        xlabel=xlabel,
        ylabel="probability",
        title="influence-set overlap vs bound",
    )
    return rows, {"cells": cells}, checks, plot


_RUNNERS = {
    "qsd": _run_qsd,
    "semigroup": _run_semigroup,
    "simulate": _run_simulate,
    "correlation": _run_correlation,
    "convergence": _run_convergence,
    "qsd_profile": _run_qsd_profile,
    "product_moment": _run_product_moment,
    "overlap": _run_overlap,
}


def _fmt_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _json_default(value):
    # numpy arrays and scalars as Python lists and scalars.  numpy floats
    # are floats, so json encodes them as it does a float.
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _out_dir(cli_out: str | None, cfg: dict) -> Path:
    if cli_out:
        return Path(cli_out)
    if isinstance(cfg.get("output_dir"), str):
        return Path(cfg["output_dir"])
    env = os.environ.get("FVQSD_OUT")
    if env:
        return Path(env)
    return Path(".")


@contextlib.contextmanager
def _rewrite(path: Path, newline: str) -> Iterator[TextIO]:
    """A UTF-8 text file that overwrites ``path`` in place and is cut to
    what was written.  Unlike opening with "w", an existing file is not
    first truncated to zero, which on some file systems frees its blocks
    and forces a writeback at close."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "w", encoding="utf-8", newline=newline) as fh:
        yield fh
        fh.truncate()


def _master_seed(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < 2**64:
        raise ConfigError(f"{where} must be an integer in [0, 2^64)")
    return value


def run(
    config_path: str | os.PathLike,
    kind: str | None = None,
    out: str | None = None,
    threads: int = 1,
    seed: int | None = None,
) -> int:
    """Run one experiment config; returns the process exit code.

    ``threads`` must be at least 1 and changes nothing: replicas run in one
    thread, in index order.
    """
    if threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {threads}")
    cfg = load_config(config_path)
    known = {"kind", "chain", "master_seed", "output_dir", "parameters"}
    unknown = set(cfg) - known
    if unknown:
        raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
    cfg_kind = cfg.get("kind")
    if cfg_kind is not None and kind is not None and cfg_kind != kind:
        raise ConfigError(f"config kind {cfg_kind!r} conflicts with subcommand {kind!r}")
    resolved_kind = kind or cfg_kind
    if resolved_kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"kind must be one of {EXPERIMENT_KINDS}")

    master_seed = _master_seed(cfg.get("master_seed", 0), "master_seed")
    if seed is not None:
        master_seed = _master_seed(seed, "--seed")
    params = cfg.get("parameters", {})
    if not isinstance(params, dict):
        raise ConfigError("parameters must be an object")

    chain, chain_echo = _resolve_chain(cfg, Path(os.fspath(config_path)).parent)
    params = resolve_params(resolved_kind, params, chain)
    rows, results, checks, plot = _RUNNERS[resolved_kind](
        chain, params, ReplicaSeed(master_seed))
    if checks:
        results["checks_passed"] = all(c["passed"] for c in checks)

    out_path = _out_dir(out, cfg)
    out_path.mkdir(parents=True, exist_ok=True)
    with _rewrite(out_path / "results.csv", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        # A handler's row gives only its own columns.  The experiment
        # defaults to the kind, and every row carries the seed.
        for row in rows:
            row = {"experiment": resolved_kind, **row, "seed": master_seed}
            writer.writerow([_fmt_cell(row.get(c, "")) for c in CSV_COLUMNS])
    status = "ok" if all(c["passed"] for c in checks) else "bound_violation"
    summary = {
        "kind": resolved_kind,
        "chain": chain_echo,
        "master_seed": master_seed,
        "parameters": params,
        "results": results,
        "checks": checks,
        "status": status,
    }
    with _rewrite(out_path / "summary.json", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    with _rewrite(out_path / "plot.svg", newline="\n") as fh:
        fh.write(plot)
    return 0 if status == "ok" else 2


def _validate_command(chain_path: str) -> int:
    try:
        chain = load_chain(chain_path)
    except (ChainValidationError, OSError) as exc:
        print(f"invalid chain: {exc}", file=sys.stderr)
        return 1
    dom = inflow_dominance(chain)
    print(f"states: {chain.n} ({', '.join(chain.states)})")
    print(f"max absorption rate: {chain.max_absorption_rate:.17g}")
    print(f"max internal jump rate: {chain.max_internal_rate:.17g}")
    print("irreducible on live sites: yes")
    print(
        "guaranteed inflow exceeds max absorption: "
        f"{'yes' if dom.holds else 'no'} "
        f"(inflow {dom.guaranteed_inflow:.17g}, "
        f"absorption {dom.max_absorption:.17g})"
    )
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ConfigError: exit code 1 and one line, not
    argparse's exit code 2 and usage block.  Subcommand parsers inherit it."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on the first call, not at import, and reused: parse_args leaves
    # the parser unchanged.
    parser = _Parser(
        prog="fvqsd",
        description="Absorbing-chain numerics and particle-system experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment config")
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted, at least 1; replicas run in one thread")
        p.add_argument("--seed", type=int, help="override master_seed")
    v = sub.add_parser("validate", help="validate a chain JSON file")
    v.add_argument("--config", required=True, help="chain JSON to validate")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "validate":
            return _validate_command(args.config)
        return run(
            args.config,
            kind=args.command,
            out=args.out,
            threads=args.threads,
            seed=args.seed,
        )
    except (FvqsdError, OSError, MemoryError) as exc:
        # Python's own MemoryError has no message; numpy's names the size.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))
