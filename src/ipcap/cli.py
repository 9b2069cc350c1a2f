"""Command-line entry point.

Subcommands: ipc, tipc, narma (experiment runners taking --preset or
--config), simulate (dump a system trajectory), basis (dump polynomial value
tables). Exit codes: 0 ok, 2 configuration error, 3 data error, 4 numeric or
divergence error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import (
    AnalysisError,
    ConfigError,
    DataError,
    DegeneracyError,
    DivergenceError,
    NoFixedPointError,
    ParameterError,
    ShapeError,
    WindowError,
)
from .distributions import DistributionSpec, InputShaping, sample_stream
from .polychaos import PolynomialFamily, eval_table, fit_gram_schmidt
from .presets import (
    ExperimentConfig,
    _build_state,
    _system_model,
    get_preset,
    preset_names,
    run_ipc,
    run_narma_suite,
    run_tipc,
)
from .reports import write_series_csv

_CONFIG_ERRORS = (ConfigError, ParameterError)
_DATA_ERRORS = (DataError, ShapeError, WindowError, FileNotFoundError, DegeneracyError)
_NUMERIC_ERRORS = (DivergenceError, AnalysisError, NoFixedPointError, FloatingPointError)


def _load_config(args) -> ExperimentConfig:
    if args.preset and args.config:
        raise ConfigError("preset/config: give exactly one of --preset or --config")
    if args.preset:
        return get_preset(args.preset)
    if args.config:
        with open(args.config) as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config: {args.config} is not valid JSON ({exc})") from None
        return ExperimentConfig.from_dict(payload)
    raise ConfigError("preset/config: one of --preset or --config is required")


def _add_runner(sub, name: str, help_text: str):
    cmd = sub.add_parser(name, help=help_text)
    cmd.add_argument("--preset", help=f"bundled preset name; one of {preset_names()}")
    cmd.add_argument("--config", help="path to a JSON experiment config")
    cmd.add_argument("--outdir", default=".", help="directory for report files")
    return cmd


def _cmd_ipc(args) -> int:
    report = run_ipc(_load_config(args), args.outdir)
    print(f"total={report.total:.6f} rank={report.rank} targets={len(report.entries)}")
    return 0


def _cmd_tipc(args) -> int:
    report = run_tipc(_load_config(args), args.outdir)
    print(f"total={report.total:.6f} rank={report.rank} targets={len(report.entries)}")
    return 0


def _cmd_narma(args) -> int:
    results = run_narma_suite(_load_config(args), args.outdir)
    print(f"analyses={sorted(results)}")
    return 0


def _cmd_simulate(args) -> int:
    params = {"esn": {"spectral_radius": args.rho}, "esn_1d": {"rho": args.rho}}.get(args.system, {})
    system = {"kind": args.system, **params}
    shaping = InputShaping(mu=args.mu, kappa=args.kappa)
    zeta = sample_stream(DistributionSpec(kind=args.distribution), args.steps, args.seed)
    state = _build_state(args.system, _system_model(system), zeta, shaping)
    out = Path(args.out)
    write_series_csv(out, dict(zip(state.labels, state.data.T)))
    print(f"wrote {out}")
    return 0


def _cmd_basis(args) -> int:
    if args.family == "gram_schmidt":
        if not args.samples:
            raise ConfigError("samples: --samples CSV is required for gram_schmidt")
        samples = np.genfromtxt(args.samples, delimiter=",", skip_header=1, dtype=float).ravel()
        family = fit_gram_schmidt(samples, args.max_degree)
    else:
        family = PolynomialFamily(kind=args.family)
    grid = np.linspace(args.lo, args.hi, args.count)
    table = eval_table(family, grid, args.max_degree)
    columns = {"zeta": grid}
    columns.update({f"degree_{n}": table[:, n] for n in range(args.max_degree + 1)})
    write_series_csv(Path(args.out), columns)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipcap",
        description="Information processing capacity of driven dynamical systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_runner(sub, "ipc", "run a capacity sweep").set_defaults(func=_cmd_ipc)
    _add_runner(sub, "tipc", "run a detrended sweep with temporal targets").set_defaults(
        func=_cmd_tipc
    )
    _add_runner(sub, "narma", "run recurrence analyses").set_defaults(func=_cmd_narma)

    sim = sub.add_parser("simulate", help="simulate a built-in system to CSV")
    sim.add_argument("--system", choices=["esn", "esn_1d", "narma10", "limit_cycle"], required=True)
    sim.add_argument("--steps", type=int, default=1000)
    sim.add_argument("--distribution", default="uniform")
    sim.add_argument("--mu", type=float, default=0.0)
    sim.add_argument("--kappa", type=float, default=0.2)
    sim.add_argument("--rho", type=float, default=0.95)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", default="series.csv")
    sim.set_defaults(func=_cmd_simulate)

    basis = sub.add_parser("basis", help="dump a polynomial family value table to CSV")
    basis.add_argument("--family", default="legendre")
    basis.add_argument("--max-degree", type=int, default=8, dest="max_degree")
    basis.add_argument("--lo", type=float, default=-1.0)
    basis.add_argument("--hi", type=float, default=1.0)
    basis.add_argument("--count", type=int, default=201)
    basis.add_argument("--samples", help="CSV of samples (gram_schmidt only)")
    basis.add_argument("--out", default="basis.csv")
    basis.set_defaults(func=_cmd_basis)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except _NUMERIC_ERRORS as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
