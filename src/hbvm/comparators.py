"""Explicit symplectic baselines: Stormer-Verlet and its compositions.

The order-4 scheme is the triple jump, the order-6 scheme the standard
nine-stage symmetric composition; both are palindromic with coefficients
summing to one, so each composed step is a sequence of plain Stormer-Verlet
substeps with scaled stepsizes, run by one leapfrog loop.  Trajectories go
through the HBVM driver, integrator.drive: the same batched energy bookkeeping
(up to 32 states per hamiltonian call), the same rejection of bad input before
any force evaluation, and StepFailure with the partial record when a run diverges.
They run autonomous separable systems only, whose whole force is SeparableForm.pdot(q).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integrator import SolverError, StepDiagnostics, TrajectoryRecord, drive
from .systems import SemiDiscreteSystem

__all__ = [
    "CompositionScheme",
    "composition_scheme",
    "stormer_verlet_step",
    "composition_step",
    "integrate_explicit",
]

_CUBE2 = 2.0 ** (1.0 / 3.0)

# Max-norm beyond which an explicit trajectory counts as diverged.
DIVERGENCE_NORM = 1e8

# Nine-stage symmetric order-6 composition (coefficients sum to 1 exactly).
_ORDER6 = np.array(
    [
        0.39216144400731413928,
        0.33259913678935943860,
        -0.70624617255763935981,
        0.08221359629355080023,
        0.79854399093482996340,
        0.08221359629355080023,
        -0.70624617255763935981,
        0.33259913678935943860,
        0.39216144400731413928,
    ]
)


@dataclass(frozen=True)
class CompositionScheme:
    order: int
    coefficients: np.ndarray


def composition_scheme(order: int) -> CompositionScheme:
    """Substep coefficients of the symmetric composition of a given order."""
    if order == 2:
        coeffs = np.array([1.0])
    elif order == 4:
        g1 = 1.0 / (2.0 - _CUBE2)
        coeffs = np.array([g1, -_CUBE2 * g1, g1])
    elif order == 6:
        coeffs = _ORDER6.copy()
    else:
        raise ValueError(f"unsupported composition order {order}; choose 2, 4, or 6")
    coeffs.setflags(write=False)
    return CompositionScheme(order=order, coefficients=coeffs)


def _require_separable(system: SemiDiscreteSystem):
    if system.separable is None or system.augmented:
        raise ValueError("explicit baselines require a separable, non-augmented system")
    return system.separable


def _leapfrog(pdot, y, nq, force, substeps):
    """Kick-drift-kick substeps of the given sizes from y -> (y1, force).

    force = pdot(q) on entry; the force closing one substep opens the
    next, so each substep costs one evaluation.
    """
    q, p = y[:nq].copy(), y[nq:].copy()
    for dt in substeps:
        p += 0.5 * dt * force
        q += dt * p
        force = pdot(q)
        p += 0.5 * dt * force
    return np.concatenate([q, p]), force


def composition_step(system: SemiDiscreteSystem, y0, h: float, scheme: CompositionScheme):
    """One composed step: Stormer-Verlet substeps with scaled stepsizes."""
    sep = _require_separable(system)
    y0 = np.asarray(y0, dtype=float)
    force = sep.pdot(y0[: sep.nq])
    return _leapfrog(sep.pdot, y0, sep.nq, force, scheme.coefficients * h)[0]


def stormer_verlet_step(system: SemiDiscreteSystem, y0, h: float):
    """One kick-drift-kick leapfrog step (second order, symmetric, explicit)."""
    return composition_step(system, y0, h, composition_scheme(2))


def integrate_explicit(
    system: SemiDiscreteSystem,
    y0,
    h: float,
    n_steps: int,
    scheme: CompositionScheme,
    record_stride: int = 1,
    observer=None,
) -> TrajectoryRecord:
    """Composition-method trajectory through integrator.drive; the force closing
    one step opens the next.  A state beyond DIVERGENCE_NORM diverges."""
    sep = _require_separable(system)
    substeps = scheme.coefficients * h
    diagnostics = StepDiagnostics(iterations=substeps.size, residual=0.0, mode=f"sv{scheme.order}")
    force = None

    def advance(y):
        nonlocal force
        if force is None:
            force = sep.pdot(y[: sep.nq])
        y, force = _leapfrog(sep.pdot, y, sep.nq, force, substeps)
        if not np.all(np.isfinite(y)) or np.max(np.abs(y)) > DIVERGENCE_NORM:
            raise SolverError("explicit method diverged")
        return y, diagnostics

    return drive(system, y0, h, n_steps, advance, diagnostics.mode, record_stride, observer)
