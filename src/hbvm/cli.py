"""Command-line front end.

Subcommands: solve (single run with drift/solution/summary artifacts),
drift (multi-method drift series), convergence (time-space error table),
wpd (work-precision sweep).  Flags may be preloaded from a JSON config file
with flat keys mirroring the flag names; explicit flags override the file.
Exit codes: 0 success, 2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys

from .experiments import (
    BCS,
    SCHEMES,
    ConfigError,
    RunConfig,
    run_convergence,
    run_drift,
    run_solve,
    run_work_precision,
)
from .integrator import MODES, SolverError, StepFailure

_CONFIG_KEYS = {f.name for f in dataclasses.fields(RunConfig)}


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--problem", choices=["sine-gordon", "quartic-wave", "nls"])
    parser.add_argument("--gamma", type=float, help="sine-Gordon soliton parameter")
    parser.add_argument("--kappa", type=float, help="NLS coupling")
    parser.add_argument("--bc", choices=BCS)
    parser.add_argument("--scheme", choices=SCHEMES)
    parser.add_argument("-N", type=int, dest="N", help="mesh points / Fourier modes")
    parser.add_argument("-m", type=int, dest="m", help="spectral quadrature points (default 2N)")
    parser.add_argument("-k", type=int, dest="k", help="quadrature nodes of the method")
    parser.add_argument("-s", type=int, dest="s", help="polynomial degree of the method")
    parser.add_argument("--h", type=float, dest="h", help="stepsize")
    parser.add_argument("--steps", type=int, help="number of steps")
    parser.add_argument("--solver", choices=("auto",) + MODES)
    parser.add_argument("--tol", type=float, help="nonlinear solver tolerance")
    parser.add_argument("--max-iter", type=int, dest="max_iter")
    parser.add_argument("--stride", type=int, help="state recording stride")
    parser.add_argument("--out", help="output path (prefix for solve, file for the others)")
    parser.add_argument("--config", help="JSON file with flat keys mirroring the flags")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hbvm",
        description="Energy-conserving HBVM(k,s) integration of semi-discretized wave-type Hamiltonian PDEs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="single integration with drift/solution/summary artifacts")
    _add_common(p_solve)

    p_drift = sub.add_parser("drift", help="Hamiltonian drift series for several methods")
    _add_common(p_drift)
    p_drift.add_argument("--methods", default="", help="comma list, e.g. 'hbvm(5,1),hbvm(1,1),sv2'")

    p_conv = sub.add_parser("convergence", help="max-error vs step count table")
    _add_common(p_conv)
    p_conv.add_argument("--levels", default="400,800,1600,3200", help="comma list of step counts")
    p_conv.add_argument("--final-time", type=float, default=40.0, dest="final_time")

    p_wpd = sub.add_parser("wpd", help="work-precision sweep (error/drift/wall time per method and h)")
    _add_common(p_wpd)
    p_wpd.add_argument("--methods", default=None, help="comma list restricting the default method grid")
    p_wpd.add_argument("--final-time", type=float, default=100.0, dest="final_time")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    values = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config file {args.config!r}: {err}") from err
        unknown = set(loaded) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        values.update(loaded)
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    try:
        config = RunConfig(**values)
    except TypeError as err:
        raise ConfigError(str(err)) from err
    return config.validate()


def _split_csv(text: str):
    # commas inside parentheses, as in hbvm(5,1), do not separate items
    parts = re.split(r",(?![^()]*\))", text)
    return [part for part in (p.strip() for p in parts) if part]


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "solve":
            record = run_solve(config)
            print(f"steps={config.steps} max|H drift|={max(abs(record.drift)):.6e}")
        elif args.command == "drift":
            run_drift(config, _split_csv(args.methods))
        elif args.command == "convergence":
            rows = run_convergence(config, _split_csv(args.levels), final_time=args.final_time)
            for level, err, rate in rows:
                print(f"level={level} max_error={err:.6e} rate={'--' if rate is None else f'{rate:.2f}'}")
        else:
            rows = run_work_precision(config, _split_csv(args.methods) if args.methods else None, final_time=args.final_time)
            for row in rows:
                if row[-1] == "ok":
                    print(f"{row[0]} h={row[1]:.6e} error={row[2]:.6e} drift={row[3]:.6e}")
                else:
                    print(f"{row[0]} h={row[1]:.6e} {row[-1]}")
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except (StepFailure, SolverError) as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
