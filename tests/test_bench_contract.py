"""The hooks perfbench/ relies on: its self-check, and the spans its tracer
records through public names (integrator.step looked up at every step, the
system's accel wrapped in a copy)."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from hbvm import problems
from hbvm.comparators import composition_scheme, integrate_explicit
from hbvm.integrator import HBVMMethod, integrate

ROOT = Path(__file__).resolve().parents[1]
STEPS = 4


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave perfbench/ as checked out
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_self_check_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--self-check"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_tracer_sees_every_step_and_force():
    tracing = _load_tracing()
    system, y0 = problems.sine_gordon_system(gamma=1.0, bc="periodic", scheme="fd6", N=64)
    scheme = composition_scheme(4)
    tracer = tracing.Tracer()
    with tracer.attached():
        hbvm_system = tracer.instrument(system, {"accel": "wave_fd.accel"})
        integrate(hbvm_system, y0, 0.1, STEPS, HBVMMethod(5, 1))
        explicit_system = tracer.instrument(system, {"accel": "comparators.accel"})
        integrate_explicit(explicit_system, y0, 0.02, STEPS, scheme)
    calls, _ = tracing.summarize(tracer.spans)
    assert calls["integrator.step"] == STEPS
    assert calls["wave_fd.accel"] > 0
    # one force evaluation per substep, plus the opening one
    assert calls["comparators.accel"] == STEPS * scheme.coefficients.size + 1
