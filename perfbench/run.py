#!/usr/bin/env python3
"""hbvm benchmark: one seeded workload per call, one JSON result line.

Run from the repository root (the program is imported from ./src):

    python3 perfbench/run.py --workload sg-periodic-fd6 --seed 0 --seconds 44 --trace 0
    python3 perfbench/run.py --self-check

Each repetition is a closed loop of cold set-up (cleared method-table
caches, ``experiments.build_run`` or ``problems.nls_system``) followed by a
fixed-length HBVM(5,1) integration; the next starts when the previous ends.
Repetitions run until ``--seconds`` is used up.  Every repetition passes an
accuracy gate (energy drift at roundoff, error against a closed-form
solution) or counts all its steps as failed.  Step times are the fastest
pass of each step over the repetitions (see best_steps); set-up time is the
median over all set-ups of the run.

With ``--trace 0`` the result holds the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics, from
traced repetitions interleaved with untraced ones, and the spans of the last
traced repetition are written to ``.perfbench/``.  The last line of standard
output is the result; the line before it records the environment, the
generated inputs and how many samples the metrics rest on.  BLAS is pinned
to one thread.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import gc
import json
import platform
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # write nothing into the checkout but .perfbench/

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

PROBES_PER_REP = 1
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def import_program():
    """Import hbvm from ./src, refusing any other copy."""
    if not (SRC / "hbvm" / "__init__.py").is_file():
        sys.exit("perfbench: no hbvm sources under ./src; run from the repository root")
    sys.path.insert(0, str(SRC))
    import hbvm

    if Path(hbvm.__file__).resolve().parent != (SRC / "hbvm").resolve():
        sys.exit(f"perfbench: imported hbvm from {hbvm.__file__}, not from ./src")
    return hbvm


hbvm = import_program()

import numpy as np  # noqa: E402

from hbvm import kernels  # noqa: E402
from hbvm.comparators import composition_scheme, integrate_explicit  # noqa: E402
from hbvm.integrator import HBVMMethod, SolverConfig, SolverError, StepFailure, integrate  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import Tracer, summarize  # noqa: E402
from workloads import DRIFT_LIMIT, WORKLOADS  # noqa: E402

METHOD = HBVMMethod(5, 1)
SOLVER = SolverConfig()


class SetupDone(Exception):
    """Raised by the observer at step 0 to end a set-up probe."""


def environment():
    def blas(config):
        try:
            return config["Build Dependencies"]["blas"]["name"]
        except (KeyError, TypeError):
            return "unknown"

    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": kernels.BACKEND,
    }


def clear_caches():
    """Drop every functools cache of the program, so set-up starts cold."""
    for name, module in list(sys.modules.items()):
        if name == "hbvm" or name.startswith("hbvm."):
            for obj in vars(module).values():
                if getattr(obj, "__module__", "") == name and callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def cold_setup(inst):
    """Build the system and method tables cold -> (system, y0, t0, parts)."""
    clear_caches()
    t0 = time.perf_counter()
    system, y0 = inst.build()
    t1 = time.perf_counter()
    hbvm.hbvm_tables(METHOD.k, METHOD.s)
    t2 = time.perf_counter()
    return system, y0, t0, {"experiments.build_run_s": t1 - t0, "legendre.tables_s": t2 - t1}


def setup_probe(inst):
    """Set-up seconds to the first step, and their split."""
    system, y0, t0, parts = cold_setup(inst)
    stamp = []

    def observer(n, t, y):
        stamp.append(time.perf_counter())
        raise SetupDone

    try:
        integrate(system, y0, inst.h, inst.steps, METHOD, SOLVER, record_stride=inst.stride, observer=observer)
    except SetupDone:
        pass
    return stamp[0] - t0, parts


def gate(limit_error, limit_drift, max_error, system, record):
    """(passed, error, drift) of a trajectory against its reference."""
    error = max_error(system, record.record_times, record.states)
    drift = float(np.max(np.abs(record.drift)))
    passed = bool(np.isfinite(error) and np.isfinite(drift) and error <= limit_error and drift <= limit_drift)
    return passed, error, drift


def hbvm_rep(inst, tracer=None):
    """One cold set-up plus integration; tracer (if any) records its spans."""
    gc.collect()
    stamps = np.zeros(inst.steps + 1)

    def observer(n, t, y):
        stamps[n] = time.perf_counter()

    system, y0, t0, parts = cold_setup(inst)
    run = integrate
    if tracer is not None:
        work = inst.work(system) if inst.work else None
        system = tracer.instrument(system, inst.spans, work)
        run = tracer.wrap("integrator.integrate", integrate)
    out = {"setup_s": None, "attempted": inst.steps, "failed": 0, "passed": False}
    try:
        record = run(system, y0, inst.h, inst.steps, METHOD, SOLVER, record_stride=inst.stride, observer=observer)
    except (StepFailure, SolverError) as err:
        attempted = getattr(err, "step_index", 1)
        print(f"perfbench: {inst.name}: {err}", file=sys.stderr)
        return dict(out, attempted=attempted, failed=1)
    passed, error, drift = gate(inst.error_limit, DRIFT_LIMIT, inst.max_error, system, record)
    if not passed:
        print(f"perfbench: {inst.name}: gate failed (error {error:.3e}, drift {drift:.3e})", file=sys.stderr)
    out.update(
        passed=passed,
        failed=0 if passed else inst.steps,
        setup_s=stamps[0] - t0,
        step_ms=np.diff(stamps) * 1e3,
        iterations=record.iterations,
        stall_accepts=int(np.sum(record.residuals > SOLVER.tol)),
        max_residual=float(np.max(record.residuals)),
        max_drift=drift,
        max_error=error,
    )
    return out


def baseline_rep(inst, system, y0, tracer=None):
    """The explicit composition run on the same system."""
    base = inst.baseline
    gc.collect()
    stamps = np.zeros(base.steps + 1)

    def observer(n, t, y):
        stamps[n] = time.perf_counter()

    run = integrate_explicit
    if tracer is not None:
        system = tracer.instrument(system, {"accel": "comparators.accel", "energy": "comparators.energy"})
        run = tracer.wrap("comparators.integrate_explicit", integrate_explicit)
    scheme = composition_scheme(base.order)
    out = {"attempted": base.steps, "failed": 0, "passed": False}
    try:
        record = run(system, y0, base.h, base.steps, scheme, record_stride=base.stride, observer=observer)
    except StepFailure as err:
        print(f"perfbench: {inst.name} baseline: {err}", file=sys.stderr)
        return dict(out, attempted=err.step_index, failed=1)
    passed, error, drift = gate(base.error_limit, base.drift_limit, inst.max_error, system, record)
    if not passed:
        print(f"perfbench: {inst.name} baseline: gate failed (error {error:.3e}, drift {drift:.3e})", file=sys.stderr)
    return dict(out, passed=passed, failed=0 if passed else base.steps, step_ms=np.diff(stamps) * 1e3)


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for pct in TAIL_LADDER:
        # Rounded so that exactly ten samples beyond (p90 of 100) qualifies.
        if round((100.0 - pct) * samples / 100.0, 9) >= 10.0:
            return pct
    return 50.0


def measure(inst, seconds, traced):
    """Repetitions for `seconds`; returns (reps, baselines, traced reps, setup probes).

    Repetitions alternate between the CPUs the process may use: slow phases
    of a shared host often hit one CPU at a time, and best_steps() keeps the
    faster pass of each step.
    """
    cpus = sorted(os.sched_getaffinity(0))
    try:
        return _measure(inst, seconds, traced, cpus)
    finally:
        os.sched_setaffinity(0, cpus)


def _measure(inst, seconds, traced, cpus):
    start = time.perf_counter()
    probes, reps, baselines, traces = [], [], [], []
    base_system = base_y0 = None
    if inst.baseline is not None:
        base_system, base_y0 = inst.build()
    cycle = 0.0
    while not reps or time.perf_counter() - start + cycle <= seconds:
        began = time.perf_counter()
        os.sched_setaffinity(0, {cpus[len(reps) % len(cpus)]})
        probes += [setup_probe(inst) for _ in range(PROBES_PER_REP)]
        reps.append(hbvm_rep(inst))
        # An untraced run only gates the baseline (once); a traced run times it.
        if inst.baseline is not None and (traced or not baselines):
            baselines.append(baseline_rep(inst, base_system, base_y0))
        if traced:
            tracer = Tracer()
            with tracer.attached():
                rep = hbvm_rep(inst, tracer)
            base_rep = base_tracer = None
            if inst.baseline is not None:
                base_tracer = Tracer()
                base_rep = baseline_rep(inst, base_system, base_y0, base_tracer)
            traces.append((rep, tracer, base_rep, base_tracer))
        cycle = time.perf_counter() - began
    return reps, baselines, traces, probes


def best_steps(runs):
    """Per-step wall times, each the fastest over the repetitions.

    Repetitions redo identical work, so the fastest pass of each step is
    its cost with the least interference from the rest of the machine.
    """
    return np.min(np.stack([r["step_ms"] for r in runs]), axis=0)


def end_to_end(reps, probes):
    steps = best_steps(reps)
    pct = tail_percentile(steps.size)
    setups = [s for s, _ in probes] + [r["setup_s"] for r in reps]
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": float(np.sum(steps)) / 1e3,
        "step_ms_p50": float(np.median(steps)),
        "step_ms_tail": float(np.percentile(steps, pct)),
        "iters_per_step": float(np.mean(reps[0]["iterations"])),
    }
    notes = {"step_ms_tail_percentile": pct, "step_samples": int(steps.size), "repetitions": len(reps),
             "setup_samples": len(setups)}
    return metrics, notes


def per_layer(reps, baselines, traces, probes, names):
    """Per-layer metrics by BENCHMARK.json name; zero for layers the workload skips.

    Counts come from the first traced repetition (they repeat exactly),
    self times are medians over the traced repetitions.  Only called when
    every repetition passed its gate.
    """
    summaries = []
    for rep, tracer, _, base_tracer in traces:
        calls, self_s = summarize(tracer.spans)
        name, start, end, _, _ = tracer.spans[0]
        unaccounted = self_s[name] / (end - start)
        if base_tracer is not None:
            base_calls, base_self = summarize(base_tracer.spans)
            calls.update(base_calls)
            for span, sec in base_self.items():
                self_s[span] += sec
        summaries.append((rep, calls, self_s, tracer.work, unaccounted))
    rep0, calls0, _, work0, _ = summaries[0]
    values = {}
    for name in names:
        span, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = calls0.get(span, 0)
        elif field == "self_s":
            values[name] = statistics.median(s.get(span, 0.0) for _, _, s, _, _ in summaries)
        elif field in ("mb_computed", "mflop_computed"):
            values[name] = work0.get((span, field), 0.0)
    traced_run = float(np.sum(best_steps([rep for rep, *_ in summaries]))) / 1e3
    values.update({
        "integrator.iters_max": int(np.max(rep0["iterations"])),
        "integrator.stall_accepts": rep0["stall_accepts"],
        "integrator.max_residual": rep0["max_residual"],
        "integrator.max_drift": rep0["max_drift"],
        "integrator.max_error": rep0["max_error"],
        "comparators.step_ms_p50": float(np.median(best_steps(baselines))) if baselines else 0.0,
        "legendre.tables_s": statistics.median(p["legendre.tables_s"] for _, p in probes),
        "experiments.build_run_s": statistics.median(p["experiments.build_run_s"] for _, p in probes),
        "trace.run_s": traced_run,
        "trace.overhead": traced_run / (float(np.sum(best_steps(reps))) / 1e3) - 1.0,
        "trace.unaccounted_share": statistics.median(u for *_, u in summaries),
    })
    return values


def write_spans(path, header, tracers):
    """Spans of one traced repetition per tracer, times in seconds from its first span."""
    out = dict(header, fields=["name", "start", "end", "parent", "step"])
    for key, tracer in tracers.items():
        origin = tracer.spans[0][1]
        out[key] = [[name, start - origin, end - origin, parent, step]
                    for name, start, end, parent, step in tracer.spans]
    OUT.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
        fh.write("\n")


def benchmark(args, spec):
    inst = WORKLOADS[args.workload](args.seed)
    reps, baselines, traces, probes = measure(inst, args.seconds, args.trace == 1)
    everything = reps + baselines + [r for rep, _, base, _ in traces for r in (rep, base) if r is not None]
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    correct = failed == 0
    header = {"workload": inst.name, "seed": args.seed, "inputs": inst.inputs, "environment": environment(),
              "steps_failed_ratio": failed / attempted}
    metrics = {}
    if correct:
        if args.trace:
            table = spec["per_layer"]
            values = per_layer(reps, baselines, traces, probes, [m["name"] for m in table])
            values["steps_failed_ratio"] = failed / attempted
            _, tracer, _, base_tracer = traces[-1]
            tracers = {"spans": tracer} if base_tracer is None else {"spans": tracer, "baseline_spans": base_tracer}
            path = OUT / f"trace-{inst.name}-seed{args.seed}.json"
            write_spans(path, dict(header, metrics=values), tracers)
            header["spans"] = str(path.relative_to(ROOT))
        else:
            table = spec["end_to_end"]
            values, notes = end_to_end(reps, probes)
            header.update(notes)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table}
    print(json.dumps(header))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def self_check():
    """A few steps of each workload: the gate accepts them and rejects perturbed final states."""
    good = True
    for name, make in WORKLOADS.items():
        inst = dataclasses.replace(make(0), steps=5, stride=1)
        system, y0 = inst.build()
        record = integrate(system, y0, inst.h, inst.steps, METHOD, SOLVER, record_stride=inst.stride)

        def check(states):
            changed = dataclasses.replace(record, states=states, hamiltonian=np.array(
                [system.hamiltonian(y) for y in states]))
            return gate(inst.error_limit, DRIFT_LIMIT, inst.max_error, system, changed)

        clean = check(record.states)
        # A 1e-8 nudge along the largest energy gradient component moves the
        # energy far above roundoff but leaves the error small; a nudge of
        # 10x the error limit to one position fails the error check as well.
        small = record.states.copy()
        small[-1, np.argmax(np.abs(system.gradient(small[-1])))] += 1e-8
        large = record.states.copy()
        large[-1, 0] += 10.0 * inst.error_limit
        verdicts = [clean, check(small), check(large)]
        expected = [True, False, False]
        ok = [v[0] for v in verdicts] == expected
        good &= ok
        rows = ", ".join(f"{label}: {'pass' if v[0] else 'reject'} (error {v[1]:.2e}, drift {v[2]:.2e})"
                         for label, v in zip(("clean", "energy nudge", "state nudge"), verdicts))
        print(f"{name}: {'ok' if ok else 'WRONG'}; {rows}")
    return good


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=44)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="check that the accuracy gate rejects bad states")
    args = parser.parse_args(argv)
    if args.self_check:
        return 0 if self_check() else 1
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    spec_path = ROOT / "BENCHMARK.json"
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    benchmark(args, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
