"""The uniform contract every spatial semi-discretization exposes.

A semi-discrete problem is an autonomous system ydot = J grad H(y) with a
constant skew structure J.  States are flat vectors laid out as
(q_1..q_n, p_1..p_n) or, for boundary-forced problems made autonomous by a
conjugate time pair, (q, p, qt, pt) with qt tracking time and pt balancing
the energy flux through the boundary.

The field callables act on the last axis: gradient, rhs and
SkewStructure.apply take one state or a (rows, dim) stack of stage rows and
return the same shape, so a solver evaluates all its stages in one call.
hamiltonian and physical_hamiltonian map one state to a float and a stack
to one energy per row, bitwise the per-row calls, summing the per-node terms
through energy_sum; the physical energy of an augmented system is derived
from the conserved one, H = Ht - pt.

Separable systems (second-order qdot = p, pdot = SeparableForm.pdot(q))
state their force once, in a SeparableForm, split into a stiff linear part
-L q and a pointwise remainder evaluated on grid values: the integrator keeps
L and the grid maps on its s coefficient rows and evaluates only the
remainder on the k stage rows, and separable_system reads the gradient off
pdot.  With skew scale c, qdot = c dH/dp and pdot = -c dH/dq, so dH/dq =
-pdot/c and dH/dp = p/c.  Boundary-forced systems add a time-only hook,
forcing(t) -> (force, rate): the force rows joining pdot at times t, and
rate(q) = ptdot = -dH/dqt at rows of q at those times; qtdot = dH/dpt = 1.

Non-separable systems ydot = g(y) - L y (NLS) carry the same split in a
SemilinearForm on rows of the full state, so the blended step solves their
stiff part exactly too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

__all__ = ["SkewStructure", "SeparableForm", "SemilinearForm", "SemiDiscreteSystem", "separable_system",
           "shifted_solver", "hamiltonian_drift", "energy_sum"]

_WIDE_SUM = np.finfo(np.longdouble).nmant >= 63  # False where long double is a plain double (Windows, macOS arm64)


def energy_sum(terms: np.ndarray):
    """Sums of per-node energy terms on the last axis (a float, or one per row of a stack) in one C reduction,
    accumulated in long double's 64-bit mantissa.

    Its error, about 2^-64 log2(n) sum|t_i| (Higham, Accuracy and Stability, ch. 4), is below the
    rounding of the float64 terms, so the sum is exactly rounded or within an ulp of it.  Without a
    wide long double (_WIDE_SUM, fixed at import) it is math.fsum per row, exactly rounded.
    """
    sums = np.add.reduce(terms, axis=-1, dtype=np.longdouble) if _WIDE_SUM else np.array(
        [math.fsum(row) for row in np.atleast_2d(terms).tolist()]).reshape(terms.shape[:-1])
    return float(sums) if terms.ndim == 1 else sums.astype(float)


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
        if g.shape[-1:] != (self.dim,):
            raise ValueError(f"expected length {self.dim} on the last axis, got shape {g.shape}")
        n = self.n
        out = np.empty_like(g)
        out[..., :n] = self.scale * g[..., n : 2 * n]
        out[..., n : 2 * n] = -self.scale * g[..., :n]
        if self.augmented:
            out[..., 2 * n] = g[..., 2 * n + 1]
            out[..., 2 * n + 1] = -g[..., 2 * n]
        return out


@dataclass(frozen=True)
class SeparableForm:
    """Second-order structure qdot = p, pdot = pdot(q) (+ a boundary force) used by fast solvers.

    The force is split as pdot(q) = from_grid(accel(to_grid(q))) - L q.
    linear_operator applies the stiff linear part L to rows of q (``None``
    when there is none).  accel is the pointwise non-stiff remainder: it
    maps rows of grid values to rows of grid forces, -f'(u).  to_grid and
    from_grid are the linear maps between the rows of q and grid values
    (Fourier synthesis and trapezoidal analysis); ``None`` means the
    identity, as for finite differences, whose unknowns are the grid values.
    With to_grid set, L and the preconditioner are diagonal in the unknowns.
    make_preconditioner(shift) returns an exact solver of (I + shift (x) L)
    c = r on s coefficient rows for an s x s shift (h^2 X^2), leaving r
    untouched (shifted_solver, or a band LU for Dirichlet and Neumann).
    forcing(times) -> (force, rate), set on boundary-forced systems only,
    depends on time alone: the force rows join pdot at those times, and
    rate(q) gives ptdot at rows of q at the same times, reading positions
    only, so a solver evaluates it once per solve and needs no stage
    momenta.  accel may overwrite its grid argument but keeps no reference
    to it (the solver reuses the buffer); from_grid returns an array the
    solver may overwrite.
    """

    nq: int
    accel: Callable[[np.ndarray], np.ndarray]
    make_preconditioner: Optional[Callable[[np.ndarray], Callable[[np.ndarray], np.ndarray]]] = None
    linear_operator: Optional[Callable[[np.ndarray], np.ndarray]] = None
    forcing: Optional[Callable[[np.ndarray], tuple]] = None
    to_grid: Optional[Callable[[np.ndarray], np.ndarray]] = None
    from_grid: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def pdot(self, q: np.ndarray) -> np.ndarray:
        """The autonomous momentum derivative at q or rows of q, without the boundary force."""
        grid = np.array(q, dtype=float) if self.to_grid is None else self.to_grid(q)  # accel may overwrite it
        out = self.accel(grid)
        if self.from_grid is not None:
            out = self.from_grid(out)
        if self.linear_operator is not None:
            out = out - self.linear_operator(q)
        return out


@dataclass(frozen=True)
class SemilinearForm:
    """First-order structure ydot = nonlinear(y) - L y on rows of the full state.

    linear_operator applies the stiff linear part L and nonlinear is the
    pointwise remainder g.  make_preconditioner(shift) returns an exact
    solver of (I + shift (x) L) c = r on s rows for an s x s shift (h X),
    leaving r untouched (for NLS, shifted_solver on the FFT modes).
    nonlinear may overwrite its argument but keeps no reference to it.
    """

    nonlinear: Callable[[np.ndarray], np.ndarray]
    linear_operator: Callable[[np.ndarray], np.ndarray]
    make_preconditioner: Callable[[np.ndarray], Callable[[np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class SemiDiscreteSystem:
    """Autonomous Hamiltonian system ydot = J grad H(y) with constant J.

    ``hamiltonian`` is the conserved energy: for boundary-forced systems the
    augmented Ht = H + pt, pt being the last slot of the state.  The state
    length ``dim`` is the skew structure's.  At most one of ``separable``
    and ``semilinear`` is set: the stiff-linear form the solvers use.
    """

    skew: SkewStructure
    hamiltonian: Callable[[np.ndarray], float | np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    descriptor: dict = field(default_factory=dict)
    separable: Optional[SeparableForm] = None
    semilinear: Optional[SemilinearForm] = None

    @cached_property
    def dim(self) -> int:
        return self.skew.dim

    def rhs(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape[-1:] != (self.dim,):
            raise ValueError(f"expected states of length {self.dim} on the last axis, got shape {y.shape}")
        return self.skew.apply(self.gradient(y))

    @property
    def augmented(self) -> bool:
        return self.skew.augmented

    def physical_hamiltonian(self, y: np.ndarray):
        """The plain energy H(q, p, t): hamiltonian(y) - pt on augmented systems, hamiltonian(y) otherwise."""
        return self.hamiltonian(y) - y[..., -1] if self.augmented else self.hamiltonian(y)


def separable_system(form, scale, hamiltonian, descriptor) -> SemiDiscreteSystem:
    """System of a separable form with skew scale ``scale``, its gradient read
    off the form (sign and scale rule in the module docstring); a form with
    forcing gives an augmented system, forced at each row's qt.  The gradient
    keeps this form, so replacing ``separable`` on the result leaves J grad H unchanged.
    """
    n = form.nq
    skew = SkewStructure(n=n, scale=scale, augmented=form.forcing is not None)
    pdot, forcing = form.pdot, form.forcing

    def gradient(y):
        rows = np.atleast_2d(y)
        q, p = rows[:, :n], rows[:, n : 2 * n]
        g = np.empty(rows.shape)
        g[:, :n] = pdot(q)
        if skew.augmented:
            force, rate = forcing(rows[:, 2 * n])
            g[:, :n] += force
            g[:, 2 * n], g[:, 2 * n + 1] = -rate(q), 1.0
        g[:, :n] /= -scale  # x / -c is exactly -(x / c)
        g[:, n : 2 * n] = p / scale
        return g.reshape(np.shape(y))

    return SemiDiscreteSystem(skew=skew, hamiltonian=hamiltonian, gradient=gradient, descriptor=descriptor, separable=form)


def shifted_solver(shift, eigenvalues, to_modes=None, from_modes=None) -> Callable[[np.ndarray], np.ndarray]:
    """Solver of (I + shift (x) L) c = r on s rows, for L = from_modes diag(eigenvalues) to_modes.

    The modes lie on the last axis (maps ``None``: L is diagonal in the rows).  Their s x s blocks
    I + eigenvalue * shift, real or complex, are inverted once, together, by LAPACK (LU with partial
    pivoting), so a solve is s multiply-adds of inverse columns and mode rows, at s = 1 one multiply in
    place on the array to_modes returns, which must be fresh.
    """
    s = len(shift)
    inverse = np.linalg.inv(np.eye(s) + np.multiply.outer(eigenvalues, shift))
    columns = list(np.ascontiguousarray(inverse.transpose(2, 1, 0)))  # columns[j][i, m]: entry (i, j), mode m

    def solve(rows: np.ndarray) -> np.ndarray:
        z = rows if to_modes is None else to_modes(rows)
        if s == 1 and to_modes is not None:
            return from_modes(np.multiply(columns[0], z, out=z))
        out = columns[0] * z[0]
        for j in range(1, s):
            out += columns[j] * z[j]
        return out if from_modes is None else from_modes(out)

    return solve


def hamiltonian_drift(system: SemiDiscreteSystem, states) -> np.ndarray:
    """Series H(y_n) - H(y_0) along a trajectory (rows of states), from one hamiltonian call."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if states.shape[0] == 0:
        raise ValueError("trajectory must contain at least one state")
    values = system.hamiltonian(states)
    return values - values[0]
