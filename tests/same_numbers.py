"""Same numbers: run one fixed list of cases on two source trees and compare them.

    python tests/same_numbers.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding the hbvm package, such as the
src/ of two checkouts.  Each side runs every case in its own subprocess,
with its directory first on PYTHONPATH; the two run at the same time.  Per
case the script prints both sides' total iterations, the number of steps
whose iteration count differs (flips), the largest state difference over
all steps relative to the largest state entry, both sides' max |H - H0|,
and whether every per-step array (states, energies, residuals, iterations)
is equal by bytes.
It exits with status 1 if a case's iterations per step rise by more than
0.1, if a case that completes on the old side fails on the new one, or if
a drift rises above 1e-12 where the old side's was at most that.

The cases are the named runs below (the benchmark workloads at seeds 0 and
3, the reference cases of ROADMAP's Baseline, CI's warm runs and the runs
of earlier bitwise comparisons), then a sweep of 120 blended runs of 60
steps: fd2, fd6, Fourier, Dirichlet, Neumann and NLS, HBVM (5,1), (6,2),
(8,4) and (12,6), five stepsizes each.  Pytest does not collect this file.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
DRIFT_LIMIT = 1e-12
RISE_LIMIT = 0.1  # iterations per step
ARRAYS = ("states", "hamiltonian", "residuals", "iterations")  # the per-step arrays of a TrajectoryRecord


def _named_cases() -> dict:
    """name -> RunConfig fields of an HBVM run, ("sv4", fields) of an explicit one, or ("workload", (name, seed))."""
    dx256 = 2.0 * np.pi / 256
    cases = {f"{name}@{seed}": ("workload", (name, seed)) for name in ("sg-periodic-fd6", "sg-fourier", "nls-fd2")
             for seed in (0, 3)}
    cases.update({
        "fd6 (5,1) h=0.1": dict(scheme="fd6", h=0.1, steps=150),
        "fd6 (6,2) h=0.1": dict(scheme="fd6", k=6, s=2, h=0.1, steps=150),
        "fd6 (8,4) h=0.4": dict(scheme="fd6", k=8, s=4, h=0.4, steps=60),
        "fd6 (12,6) h=0.4": dict(scheme="fd6", k=12, s=6, h=0.4, steps=40),
        "fd2 (5,1) h=0.1": dict(h=0.1, steps=150),
        "fd4 (5,1) h=0.1": dict(scheme="fd4", h=0.1, steps=150),
        "fd4 (6,2) h=0.1": dict(scheme="fd4", k=6, s=2, h=0.1, steps=150),
        "fourier (5,1) h=0.05": dict(scheme="fourier", N=400, m=800, h=0.05, steps=150),
        "fourier N=100 (9,3) h=0.25": dict(scheme="fourier", N=100, m=200, k=9, s=3, h=0.25, steps=150),
        "fourier N=100 (5,1) h=0.003": dict(scheme="fourier", N=100, m=200, h=0.003, steps=2000),
        "nls (5,1) h=0.002": dict(problem="nls", N=64, h=0.002, steps=150),
        "nls (6,2) h=0.002": dict(problem="nls", N=64, k=6, s=2, h=0.002, steps=150),
        "nls (20,6) h=0.01": dict(problem="nls", N=64, k=20, s=6, h=0.01, steps=20),
        "nls N=256 (5,1) h=dx": dict(problem="nls", N=256, h=dx256, steps=150),
        "nls N=256 (5,1) h=0.0245": dict(problem="nls", N=256, h=0.0245, steps=100),
        "nls fixed point (4,2) h=0.001": dict(problem="nls", N=64, k=4, s=2, h=0.001, steps=150, solver="fixed-point"),
        "nls N=256 fixed point (6,2)": dict(problem="nls", N=256, k=6, s=2, h=5e-4, steps=20, solver="fixed-point"),
        "dirichlet (6,2) gamma=1": dict(bc="dirichlet", k=6, s=2, h=0.1, steps=150),
        "dirichlet (6,2) gamma=0.9": dict(bc="dirichlet", gamma=0.9, k=6, s=2, h=0.1, steps=150),
        "neumann (9,3) gamma=1": dict(bc="neumann", N=200, k=9, s=3, h=0.4, steps=150),
        "neumann (9,3) gamma=1.1": dict(bc="neumann", gamma=1.1, N=200, k=9, s=3, h=0.4, steps=150),
        "quartic-wave fourier (4,2)": dict(problem="quartic-wave", scheme="fourier", N=16, m=40, k=4, s=2, steps=150),
        "fd2 N=200 fixed point h=0.05": dict(N=200, h=0.05, steps=150, solver="fixed-point"),
        "dirichlet N=48 fixed point (4,2)": dict(bc="dirichlet", N=48, k=4, s=2, h=0.1, steps=150,
                                                 solver="fixed-point"),
        "sv4 fd6 h=0.02": ("sv4", dict(scheme="fd6", h=0.02, steps=750)),
    })
    return cases


def _sweep_cases() -> dict:
    """120 blended runs of 60 steps: six discretizations, four methods, five stepsizes."""
    grids = {
        "fd2": (dict(N=200), (0.05, 0.1, 0.2, 0.4, 0.8)),
        "fd6": (dict(scheme="fd6"), (0.05, 0.1, 0.2, 0.4, 0.8)),
        "fourier": (dict(scheme="fourier", N=100, m=200), (0.05, 0.1, 0.2, 0.4, 0.8)),
        "dirichlet": (dict(bc="dirichlet", N=200), (0.05, 0.1, 0.2, 0.4, 0.8)),
        "neumann": (dict(bc="neumann", N=200), (0.05, 0.1, 0.2, 0.4, 0.8)),
        "nls": (dict(problem="nls", N=64), (0.001, 0.002, 0.005, 0.01, 0.02)),
    }
    return {f"sweep {grid} ({k},{s}) h={h}": dict(fields, k=k, s=s, h=h, steps=60)
            for grid, (fields, steps) in grids.items() for k, s in ((5, 1), (6, 2), (8, 4), (12, 6)) for h in steps}


def _run(case):
    """(record, failed step or 0) of one case, on the hbvm first on sys.path."""
    from hbvm.comparators import composition_scheme, integrate_explicit
    from hbvm.experiments import RunConfig, build_run
    from hbvm.integrator import StepFailure, integrate
    from workloads import WORKLOADS

    kind, spec = case if isinstance(case, tuple) else ("hbvm", case)
    if kind == "workload":
        inst = WORKLOADS[spec[0]](spec[1])
        config = RunConfig(h=inst.h, steps=inst.steps)
        system, y0 = inst.build()
    else:
        config = RunConfig(**spec).validate()
        system, y0 = build_run(config)[:2]
    try:
        if kind == "sv4":
            record = integrate_explicit(system, y0, config.h, config.steps, composition_scheme(4))
        else:
            record = integrate(system, y0, config.h, config.steps, config.method(), config.solver_config())
        return record, 0
    except StepFailure as err:
        return err.partial, err.step_index


def _side(src: str, out: str) -> None:
    """Run every case on the hbvm under src and save its arrays to the .npz file out."""
    import hbvm

    if not Path(hbvm.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"imported hbvm from {hbvm.__file__}, not from {src}")
    sys.path.insert(0, str(ROOT / "perfbench"))  # the workloads' inputs, built by this side's hbvm
    arrays = {}
    for name, case in {**_named_cases(), **_sweep_cases()}.items():
        record, failed = _run(case)
        arrays.update({f"{name}|{field}": getattr(record, field) for field in ARRAYS})
        arrays.update({f"{name}|drift": np.max(np.abs(record.drift)), f"{name}|failed": failed})
    np.savez(out, **arrays)


def _compare(old: dict, new: dict, name: str):
    """The report line of one case, and what in it breaks the same numbers (empty if nothing)."""
    its_old, its_new = old[f"{name}|iterations"], new[f"{name}|iterations"]
    drift_old, drift_new = float(old[f"{name}|drift"]), float(new[f"{name}|drift"])
    failed_old, failed_new = int(old[f"{name}|failed"]), int(new[f"{name}|failed"])
    states_old, states_new = old[f"{name}|states"], new[f"{name}|states"]
    shared = min(len(its_old), len(its_new))
    flips = int(np.sum(its_old[:shared] != its_new[:shared]))
    rows = min(len(states_old), len(states_new))
    change = np.max(np.abs(states_new[:rows] - states_old[:rows])) / max(np.max(np.abs(states_old[:rows])), 1e-300)
    rise = (its_new.sum() - its_old.sum()) / max(shared, 1)
    same_bits = all(old[f"{name}|{field}"].tobytes() == new[f"{name}|{field}"].tobytes() for field in ARRAYS)
    broken = []
    if failed_new and not failed_old:
        broken.append("fails on the new side only")
    elif not (failed_old or failed_new) and rise > RISE_LIMIT:
        broken.append(f"it/step +{rise:.3f}")
    if drift_new > DRIFT_LIMIT >= drift_old:
        broken.append(f"drift {drift_new:.1e}")
    line = (f"{name:36s} {its_old.sum():6d} {its_new.sum():6d} {flips:5d} {change:9.1e} {drift_old:9.1e} "
            f"{drift_new:9.1e} {'yes' if same_bits else 'no':>4s}")
    for side, step in (("old", failed_old), ("new", failed_new)):
        line += f" ({side} fails at step {step})" if step else ""
    return line + ("  <- " + ", ".join(broken) if broken else ""), broken, rise


def main(argv) -> int:
    if len(argv) == 4 and argv[1] == "--side":
        _side(argv[2], argv[3])
        return 0
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as scratch:
        runs = []
        for label, src in zip(("old", "new"), argv[1:]):
            env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()), PYTHONDONTWRITEBYTECODE="1")
            out = os.path.join(scratch, f"{label}.npz")
            runs.append((subprocess.Popen([sys.executable, __file__, "--side", src, out], env=env), out))
        if any([process.wait() for process, _ in runs]):  # a list: wait for both before the directory goes
            print("a side stopped with an error", file=sys.stderr)
            return 1
        old, new = (dict(np.load(out)) for _, out in runs)
    print(f"{'case':36s} {'iters old':>9s} {'new':>6s} {'flips':>5s} {'max dstate':>9s} "
          f"{'drift old':>9s} {'new':>9s} {'bits':>4s}")
    broken, sweep = 0, []
    for name in {**_named_cases(), **_sweep_cases()}:
        line, faults, rise = _compare(old, new, name)
        print(line)
        broken += bool(faults)
        if name.startswith("sweep"):
            sweep.append(rise)
    sweep, names = np.array(sweep), list(_sweep_cases())
    fails = [sum(int(side[f"{name}|failed"]) > 0 for name in names) for side in (old, new)]
    print(f"sweep: {np.sum(sweep < 0)} fewer iterations, {np.sum(sweep == 0)} the same, {np.sum(sweep > 0)} more "
          f"(worst {sweep.max():+.3f} it/step) of {sweep.size}; failing {fails[0]} old, {fails[1]} new")
    print(f"{broken} case(s) outside the same numbers" if broken else "same numbers: every case within bounds")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
