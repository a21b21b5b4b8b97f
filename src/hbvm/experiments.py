"""Experiment harness behind the CLI: single runs, drift studies, the
time-space convergence table, and work-precision sweeps.

All runners return plain row lists and optionally write CSV artifacts
(comma-separated, '.' decimal, scientific notation with 16 significant
digits, header in the first line) plus a JSON summary.  Outputs are
deterministic for a fixed configuration except wall-time columns.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, asdict, replace
from typing import Optional

import numpy as np

from . import problems
from .comparators import composition_scheme, integrate_explicit
from .integrator import HBVMMethod, SolverConfig, StepFailure, TrajectoryRecord, integrate
from .legendre import check_count
from .wave_fourier import _synthesis

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_method",
    "build_run",
    "run_solve",
    "run_drift",
    "run_convergence",
    "run_work_precision",
    "WPD_DEFAULT_GRID",
]

SCHEMES = ("fd2", "fd4", "fd6", "fourier")
BCS = ("periodic", "dirichlet", "neumann")

# Work-precision stepsize grids: (h_max, h_min, points) per method.
WPD_DEFAULT_GRID = {
    "hbvm(5,1)": (0.5, 0.003, 10),
    "hbvm(6,2)": (0.5, 0.1, 4),
    "hbvm(9,3)": (1.0, 0.25, 4),
    "sv2": (0.1, 0.0006, 13),
    "sv4": (0.1, 0.007, 7),
    "sv6": (0.1, 0.01, 5),
}


class ConfigError(ValueError):
    """Invalid run configuration (CLI exit code 2)."""


@dataclass(frozen=True)
class RunConfig:
    problem: str = "sine-gordon"
    gamma: float = 1.0
    kappa: float = 1.0
    bc: str = "periodic"
    scheme: str = "fd2"
    N: int = 400
    m: Optional[int] = None  # None reads as 2N (see __post_init__)
    k: int = 5
    s: int = 1
    h: float = 0.1
    steps: int = 1000
    solver: str = "auto"
    tol: float = SolverConfig.tol
    max_iter: int = SolverConfig.max_iter
    stride: int = 10
    out: Optional[str] = None

    def __post_init__(self):
        if self.m is None and isinstance(self.N, numbers.Integral):  # the least quadrature the Fourier scheme accepts
            object.__setattr__(self, "m", 2 * self.N)

    def validate(self) -> "RunConfig":
        if self.problem not in ("sine-gordon", "quartic-wave", "nls"):
            raise ConfigError(f"unknown problem {self.problem!r}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.bc not in BCS:
            raise ConfigError(f"unknown boundary condition {self.bc!r}")
        if self.scheme != "fd2" and self.bc != "periodic":
            raise ConfigError(f"scheme {self.scheme!r} requires periodic boundary conditions")
        for name in ("gamma", "kappa", "h", "tol"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive")
        try:
            for name, minimum in (("N", 1), ("m", 1), ("steps", 0), ("stride", 0), ("max_iter", 1)):
                check_count(name, getattr(self, name), minimum)
            self.method()
            self.solver_config()
        except ValueError as err:
            raise ConfigError(str(err)) from err
        if self.scheme == "fourier" and self.m < 2 * self.N:
            raise ConfigError(f"m={self.m} under-resolves N={self.N}: the Fourier scheme needs m >= 2N")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError(f"out must be a path prefix string, got {self.out!r}")
        return self

    def solver_config(self) -> SolverConfig:
        return SolverConfig(mode=self.solver, tol=self.tol, max_iter=self.max_iter)

    def method(self) -> HBVMMethod:
        return HBVMMethod(self.k, self.s)


def parse_method(text: str):
    """Method spec: 'hbvm(k,s)' or 'sv2'/'sv4'/'sv6'."""
    t = text.strip().lower()
    if t.startswith("hbvm(") and t.endswith(")"):
        try:
            k, s = (int(v) for v in t[5:-1].split(","))
            return ("hbvm", HBVMMethod(k, s))
        except ValueError as err:
            raise ConfigError(f"method {text!r}: {err}") from err
    if t in ("sv2", "sv4", "sv6"):
        return ("sv", composition_scheme(int(t[2:])))
    raise ConfigError(f"unknown method {text!r}; use hbvm(k,s) or sv2/sv4/sv6")


def _sampler(system):
    """(values, grid): values(y) samples u from a state vector on grid
    (reconstructed on the quadrature points for spectral runs)."""
    if system.descriptor.get("scheme") == "fourier":
        spec = system.descriptor["spectral"]
        dim = spec.basis.dim
        return (lambda y: _synthesis(spec, y[:dim])), spec.basis.points(spec.m)
    n = system.skew.n
    return (lambda y: y[:n]), system.descriptor["x"]


def build_run(config: RunConfig):
    """(system, y0, sample) for a config; sample(t) is the analytic solution
    on the comparison grid when available (None otherwise).

    A builder's ValueError (each knows its own smallest mesh) becomes a
    ConfigError.
    """
    config.validate()
    if config.problem == "quartic-wave" and config.bc != "periodic":
        raise ConfigError("quartic-wave supports periodic boundary conditions only")
    if config.problem == "nls" and (config.bc != "periodic" or config.scheme != "fd2"):
        raise ConfigError("nls supports the periodic fd2 discretization only")
    try:
        if config.problem == "sine-gordon":
            system, y0 = problems.sine_gordon_system(
                gamma=config.gamma, bc=config.bc, scheme=config.scheme, N=config.N, m=config.m
            )
        elif config.problem == "quartic-wave":
            system, y0 = problems.quartic_wave_system(N=config.N, scheme=config.scheme, m=config.m)
        else:
            system, y0 = problems.nls_system(N=config.N, kappa=config.kappa)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    sample = None
    if config.problem == "sine-gordon" and config.bc == "periodic":
        grid = _sampler(system)[1]
        sample = lambda t: problems.sine_gordon_exact(config.gamma, grid, t)
    return system, y0, sample


class _MaxError:
    """Observer keeping the max over steps and grid nodes of |u_num - u_exact|."""

    def __init__(self, values, sample):
        if sample is None:
            raise ConfigError("error studies need an analytic reference, which only periodic sine-gordon has")
        self.values, self.sample = values, sample
        self.worst = 0.0

    def __call__(self, n, t, y):
        err = float(np.max(np.abs(self.values(y) - self.sample(t))))
        if err > self.worst:
            self.worst = err


def _fmt(value) -> str:
    return f"{value:.15e}"


def write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else (v if isinstance(v, str) else _fmt(v)) for v in row])


def _energy_columns(record: TrajectoryRecord):
    """(H, H drift, H_tilde, H_tilde drift) series; H is the plain energy and
    the H_tilde pair (augmented energy) is None for non-augmented systems."""
    if record.physical_hamiltonian is None:
        return record.hamiltonian, record.drift, None, None
    return record.physical_hamiltonian, record.physical_drift, record.hamiltonian, record.drift


def drift_rows(system, record: TrajectoryRecord):
    """Per-step report rows (step, time, H, H_tilde, drifts, iterations, residual)."""
    ham, ham_drift, aug, aug_drift = _energy_columns(record)
    rows = []
    for n, t in enumerate(record.times):
        iters = int(record.iterations[n - 1]) if n > 0 else 0
        res = record.residuals[n - 1] if n > 0 else 0.0
        rows.append((
            str(n), t, ham[n], None if aug is None else aug[n],
            ham_drift[n], None if aug is None else aug_drift[n], str(iters), res,
        ))
    return rows


DRIFT_HEADER = ["step", "time", "H", "H_tilde", "H_drift", "H_tilde_drift", "iterations", "residual"]


def run_solve(config: RunConfig):
    """Single integration; writes <out>_drift.csv, <out>_solution.csv, <out>_summary.json.

    On a failed step the partial drift report is flushed before re-raising.
    """
    system, y0, _ = build_run(config)
    try:
        record = integrate(
            system,
            y0,
            config.h,
            config.steps,
            config.method(),
            config.solver_config(),
            record_stride=config.stride,
        )
    except StepFailure as failure:
        if config.out and failure.partial is not None:
            write_csv(config.out + "_drift.csv", DRIFT_HEADER, drift_rows(system, failure.partial))
        raise
    if config.out:
        write_csv(config.out + "_drift.csv", DRIFT_HEADER, drift_rows(system, record))
        values, grid = _sampler(system)
        columns = [values(state) for state in record.states]
        header = ["x"] + [f"t={t:.9e}" for t in record.record_times]
        rows = [[grid[i]] + [column[i] for column in columns] for i in range(grid.size)]
        write_csv(config.out + "_solution.csv", header, rows)
        summary = {
            "config": asdict(config),
            "method": config.method().name,
            "solver_mode": record.mode,
            "initial_energy": record.hamiltonian[0],
            "max_drift": float(np.max(np.abs(record.drift))),
            "total_iterations": int(record.iterations.sum()),
            "wall_time_s": record.wall_time,
        }
        with open(config.out + "_summary.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    return record


def _trajectory(system, y0, h, n_steps, kind, method, config: RunConfig, observer=None) -> TrajectoryRecord:
    """Endpoint-only trajectory of a parse_method() result."""
    if kind == "hbvm":
        return integrate(system, y0, h, n_steps, method, config.solver_config(), record_stride=0, observer=observer)
    return integrate_explicit(system, y0, h, n_steps, method, record_stride=0, observer=observer)


DRIFT_STUDY_HEADER = ["method", "time", "H_drift", "H_tilde_drift"]


def run_drift(config: RunConfig, methods):
    """Drift series of several methods on one system; long-format rows."""
    if not methods:
        raise ConfigError("methods must name at least one method")
    system, y0, _ = build_run(config)
    rows = []
    for text in methods:
        kind, method = parse_method(text)
        if kind != "hbvm" and (system.separable is None or system.augmented):
            raise ConfigError("explicit baselines require a separable system without boundary forcing")
        record = _trajectory(system, y0, config.h, config.steps, kind, method, config)
        _, ham_drift, _, aug_drift = _energy_columns(record)
        for n, t in enumerate(record.times):
            rows.append((text.strip().lower(), t, ham_drift[n], None if aug_drift is None else aug_drift[n]))
    if config.out:
        write_csv(config.out, DRIFT_STUDY_HEADER, rows)
    return rows


def _check_study(config: RunConfig, final_time: float) -> None:
    """Rejects a non-finite or non-positive final_time and an invalid config; _MaxError, a missing reference."""
    if not (math.isfinite(final_time) and final_time > 0):
        raise ConfigError("final_time must be finite and positive")
    config.validate()


CONVERGENCE_HEADER = ["level", "max_error", "rate"]


def run_convergence(config: RunConfig, levels, final_time: float = 40.0):
    """Max-error table over step counts; h = final_time/level, level steps.

    Finite-difference runs use level mesh points (so dx = h); spectral runs
    keep (N, m) fixed.  The error is the maximum over every recorded step and
    grid node of |u_num - u_exact|.
    """
    _check_study(config, final_time)
    try:
        levels = [int(v) if isinstance(v, str) and v.strip().lstrip("+-").isdigit() else v for v in levels]
        for level in levels:
            check_count("each level", level, 1)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    if not levels or len(set(levels)) != len(levels):
        raise ConfigError(f"levels must be distinct step counts, at least one, got {levels}")
    errors = []
    for level in levels:
        cell = replace(config, N=level, out=None) if config.scheme != "fourier" else replace(config, out=None)
        system, y0, sample = build_run(cell)
        observer = _MaxError(_sampler(system)[0], sample)
        h = final_time / level
        integrate(system, y0, h, level, cell.method(), cell.solver_config(), record_stride=0, observer=observer)
        errors.append(observer.worst)
    rows = []
    for i, (level, err) in enumerate(zip(levels, errors)):
        rate = math.log2(errors[i - 1] / err) / math.log2(levels[i] / levels[i - 1]) if i else None
        rows.append((str(level), err, rate))
    if config.out:
        write_csv(config.out, CONVERGENCE_HEADER, rows)
    return rows


WPD_HEADER = ["method", "h", "max_error", "H_drift", "wall_time", "iterations", "status"]


def run_work_precision(config: RunConfig, methods=None, final_time: float = 100.0, grid=None):
    """Accuracy/cost sweep rows (method, h, max error, drift, wall time, iterations).

    Stepsizes are log-spaced per method; when h does not divide final_time the
    step count is rounded and h adjusted to the nearest mesh point.  Wall
    times are recorded, never asserted.  A failed run is flagged: an unstable
    explicit run ``diverged``, an HBVM run whose stage solve failed
    ``solver-failed``.
    ``grid`` maps method names to (h_max, h_min, points) and replaces the
    default sweep wholesale.
    """
    _check_study(config, final_time)
    grid = dict(WPD_DEFAULT_GRID) if grid is None else dict(grid)
    if methods is not None:
        wanted = [m.strip().lower() for m in methods]
        if not wanted:
            raise ConfigError("methods must name at least one method")
        unknown = [m for m in wanted if m not in grid]
        if unknown:
            raise ConfigError(f"no stepsize grid for methods {unknown}; known: {sorted(grid)}")
        grid = {m: grid[m] for m in wanted}
    system, y0, sample = build_run(replace(config, out=None))
    values = _sampler(system)[0]
    rows = []
    for name, (h_max, h_min, points) in grid.items():
        kind, method = parse_method(name)
        for h_target in np.geomspace(h_max, h_min, points):
            n_steps = max(1, round(final_time / h_target))
            h = final_time / n_steps
            observer = _MaxError(values, sample)
            try:
                record = _trajectory(system, y0, h, n_steps, kind, method, config, observer)
            except StepFailure:
                status = "solver-failed" if kind == "hbvm" else "diverged"
                rows.append((name, h, None, None, None, None, status))
                continue
            rows.append(
                (
                    name,
                    h,
                    observer.worst,
                    float(np.max(np.abs(record.drift))),
                    record.wall_time,
                    str(int(record.iterations.sum())),
                    "ok",
                )
            )
    if config.out:
        write_csv(config.out, WPD_HEADER, rows)
    return rows
