"""The uniform contract every spatial semi-discretization exposes.

A semi-discrete problem is an autonomous system ydot = J grad H(y) with a
constant skew structure J.  States are flat vectors laid out as
(q_1..q_n, p_1..p_n) or, for boundary-forced problems made autonomous by a
conjugate time pair, (q, p, qt, pt) with qt tracking time and pt balancing
the energy flux through the boundary.

Systems additionally expose an optional separable form (second-order systems
qdot = p, pdot = accel(q, t)) that the integrator uses for its reduced-size
nonlinear solve and blended preconditioning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = ["SkewStructure", "SeparableForm", "SemiDiscreteSystem", "hamiltonian_drift"]


@dataclass(frozen=True)
class SkewStructure:
    """Canonical skew map, scaled by 1/dx for grid systems (1.0 for spectral).

    apply(g) sends (g_q, g_p) to (scale*g_p, -scale*g_q); augmented systems
    append the unscaled 2x2 block sending (g_qt, g_pt) to (g_pt, -g_qt).
    """

    n: int
    scale: float
    augmented: bool = False

    @property
    def dim(self) -> int:
        return 2 * self.n + (2 if self.augmented else 0)

    def apply(self, g: np.ndarray) -> np.ndarray:
        g = np.asarray(g, dtype=float)
        if g.shape != (self.dim,):
            raise ValueError(f"expected vector of length {self.dim}, got {g.shape}")
        n = self.n
        out = np.empty_like(g)
        out[:n] = self.scale * g[n : 2 * n]
        out[n : 2 * n] = -self.scale * g[:n]
        if self.augmented:
            out[2 * n] = g[2 * n + 1]
            out[2 * n + 1] = -g[2 * n]
        return out


@dataclass(frozen=True)
class SeparableForm:
    """Second-order structure qdot = p, pdot = accel(q, t) used by fast solvers.

    accel maps stage blocks (rows of shape (nq,)) and their times to the
    corresponding pdot rows.  make_preconditioner(h_rho) returns an exact
    row-wise solver for I + (h_rho)^2 * L with L the stiffness linear part
    (``None`` when the system has no stiff linear part).
    linear_operator applies L to stage rows, for the dense simplified-Newton
    path.  aug_rate gives ptdot at the stages of augmented systems.
    """

    nq: int
    accel: Callable[[np.ndarray, np.ndarray], np.ndarray]
    make_preconditioner: Optional[Callable[[float], Callable[[np.ndarray], np.ndarray]]] = None
    linear_operator: Optional[Callable[[np.ndarray], np.ndarray]] = None
    aug_rate: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class SemiDiscreteSystem:
    """Autonomous Hamiltonian system ydot = J grad H(y) with constant J.

    ``hamiltonian`` is the conserved energy (the augmented one for
    boundary-forced systems); ``physical_hamiltonian`` is the plain energy
    H(q, p, t) of augmented systems and None otherwise.
    """

    dim: int
    skew: SkewStructure
    hamiltonian: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    descriptor: dict = field(default_factory=dict)
    separable: Optional[SeparableForm] = None
    physical_hamiltonian: Optional[Callable[[np.ndarray], float]] = None

    def rhs(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.dim,):
            raise ValueError(f"expected state of length {self.dim}, got {y.shape}")
        return self.skew.apply(self.gradient(y))

    @property
    def augmented(self) -> bool:
        return self.skew.augmented

    def split(self, y: np.ndarray):
        """(q, p) halves, plus (qt, pt) for augmented systems."""
        n = self.skew.n
        if self.augmented:
            return y[:n], y[n : 2 * n], y[2 * n], y[2 * n + 1]
        return y[:n], y[n : 2 * n]


def hamiltonian_drift(system: SemiDiscreteSystem, states) -> np.ndarray:
    """Series H(y_n) - H(y_0) along a trajectory (rows of states)."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if states.shape[0] == 0:
        raise ValueError("trajectory must contain at least one state")
    values = np.array([system.hamiltonian(y) for y in states])
    return values - values[0]
