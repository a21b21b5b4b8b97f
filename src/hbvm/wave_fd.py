"""Finite-difference semi-discretizations of the semilinear wave equation.

u_tt = u_xx - f'(u) on [a, b], discretized on a uniform grid.  The negative
scaled Laplacian is a symmetric stencil operator: circulant for periodic
boundary conditions (second, fourth, or sixth order), tridiagonal for
Dirichlet and Neumann.  Boundary-forced problems are the non-autonomous
H0(q, p) + beta(t).(q_1, q_N) + c(t), returned in augmented autonomous form
with the conjugate time pair appended to the state, so a single integrator
code path handles all three cases.  Their data is one BoundaryData callable,
traces(t) -> (g, dg/dt), and the forcing read off it depends on time alone:
the solver evaluates it once per stage solve, at the stage times.

Stencils are stored as per-offset second-difference weights w_r, with
(T q)_i = sum_r w_r (2 q_i - q_{i-r} - q_{i+r}); energies are summed in
extended precision (systems.energy_sum), so the drift diagnostics sit at the
roundoff floor of the dynamics rather than of the bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np
import scipy.linalg.lapack

from . import kernels
from .legendre import check_count, check_domain
from .systems import SemiDiscreteSystem, SeparableForm, energy_sum, separable_system, shifted_solver

__all__ = [
    "StencilOperator",
    "BoundaryData",
    "build_periodic",
    "build_dirichlet",
    "build_neumann",
]

# Second-difference weights of -dx^2 u_xx per offset r = 1, 2, 3.
_DIFF_WEIGHTS = {
    2: np.array([1.0]),
    4: np.array([4.0 / 3.0, -1.0 / 12.0]),
    6: np.array([3.0 / 2.0, -3.0 / 20.0, 1.0 / 90.0]),
}
# Corner entries of a tridiagonal T are 1 + corner (None: circulant, no corners).
_CORNERS = {"periodic": None, "dirichlet": 1.0, "neumann": 0.0}
# Boundary forcing per kind as functions of dx: the weights b of beta = (b_0 g_0, b_1 g_1) and the
# weight w of c = w (g_0^2 + g_1^2), g being the boundary values (Dirichlet) or slopes (Neumann).
_FORCING = {"dirichlet": lambda dx: ((-1.0 / dx, -1.0 / dx), 0.5 / dx), "neumann": lambda dx: ((1.0, -1.0), 0.5 * dx)}


@dataclass(frozen=True)
class StencilOperator:
    """Symmetric banded operator T with -u_xx(x_i) ~ (T q)_i / dx^2.

    order and bc determine the rest, derived once at construction.
    Periodic operators (order 2, 4 or 6) are circulant, described by
    difference weights (their band coefficients are diagonal 2 sum(w) and
    off-diagonals -w_r).  Dirichlet/Neumann operators are second order and
    tridiagonal with off-diagonal -1, interior diagonal 2, and corner
    entries 1 + corner (Dirichlet corner = 1, Neumann corner = 0).
    """

    n: int
    bc: str
    order: int
    dx: float
    weights: np.ndarray = field(init=False)
    corner: Optional[float] = field(init=False)

    def __post_init__(self):
        if self.bc not in _CORNERS:
            raise ValueError(f"unknown boundary condition {self.bc!r}")
        if self.order not in (_DIFF_WEIGHTS if self.bc == "periodic" else (2,)):
            raise ValueError(f"unsupported stencil order {self.order} for {self.bc} boundaries")
        minimum = self.order + 1 if self.bc == "periodic" else 3
        if self.n < minimum:
            raise ValueError(
                f"an order-{self.order} {self.bc} stencil needs n >= {minimum} nodes (the mesh size N), got n={self.n}"
            )
        object.__setattr__(self, "weights", _DIFF_WEIGHTS[self.order])
        object.__setattr__(self, "corner", _CORNERS[self.bc])

    def apply(self, q: np.ndarray) -> np.ndarray:
        """T q along the last axis: one grid vector or a (rows, n) stack of stage rows."""
        q = np.asarray(q, dtype=float)
        if q.shape[-1:] != (self.n,):
            raise ValueError(f"expected length {self.n} on the last axis, got shape {q.shape}")
        if self.bc == "periodic":
            return kernels.circulant_apply(self.weights, q)
        return kernels.tridiag_diff_apply(q, self.corner)

    def diagonal(self) -> np.ndarray:
        """Main diagonal of a tridiagonal T."""
        if self.bc == "periodic":
            raise ValueError("diagonal is defined for tridiagonal operators only")
        diag = np.full(self.n, 2.0)
        diag[0] = diag[-1] = 1.0 + self.corner
        return diag

    def symbol(self) -> np.ndarray:
        """Circulant eigenvalues t_j = sum_r w_r (2 - 2 cos(2 pi j r / n))."""
        if self.bc != "periodic":
            raise ValueError("symbol is defined for circulant operators only")
        theta = 2.0 * np.pi * np.arange(self.n) / self.n
        t = np.zeros(self.n)
        for r in range(1, self.weights.size + 1):
            t += self.weights[r - 1] * (2.0 - 2.0 * np.cos(r * theta))
        return t


@dataclass(frozen=True)
class BoundaryData:
    """Time-dependent boundary data: traces(t) -> (g, dg), each with rows (left, right).

    Dirichlet: values g = (u(a,t), u(b,t)); Neumann: slopes g = (u_x(a,t),
    u_x(b,t)); dg = dg/dt.  traces must accept numpy arrays of times.
    """

    kind: str
    traces: Callable

    def __post_init__(self):
        if self.kind not in ("dirichlet", "neumann"):
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        if not callable(self.traces):
            raise ValueError("boundary traces must be callable")


def _banded_solver(shift: np.ndarray, diag: np.ndarray):
    """Solver of (I + shift (x) T) c = r on s rows for a tridiagonal T (off-diagonal -1).

    Node-major (c[a, m] at m s + a) the matrix is banded with half-bandwidth 2s - 1;
    LAPACK factors the band once (gbtrf), and each solve reuses the factor (gbtrs).
    """
    s, n = len(shift), diag.size
    width = 2 * s - 1
    band = np.zeros((3 * width + 1, n, s))  # LAPACK band storage; the columns are (node m, stage b)
    a, b = np.indices((s, s))
    diagonal_blocks, side_blocks = np.eye(s)[:, :, None] + shift[:, :, None] * diag, -shift[:, :, None]
    for offset, block in ((0, diagonal_blocks), (-1, side_blocks), (1, side_blocks)):  # at row node m + offset
        nodes = np.arange(max(0, -offset), n - max(0, offset))
        band[(2 * width + offset * s + a - b)[:, :, None], nodes, b[:, :, None]] = block
    lu, pivots, _ = scipy.linalg.lapack.dgbtrf(band.reshape(len(band), n * s), width, width)

    def solve(rows: np.ndarray) -> np.ndarray:
        x, _ = scipy.linalg.lapack.dgbtrs(lu, width, width, rows.T.reshape(n * s, 1), pivots)
        return x.reshape(n, s).T

    return solve


def _stencil_system(op: StencilOperator, domain, x, hamiltonian, fprime, forcing=None):
    """Separable system of the stencil T/dx^2 with the given energy and boundary forcing.

    linear_operator applies T/dx^2, and accel = -f'(u) is the rest of the
    autonomous force on the grid; the preconditioner solves I + shift (x)
    T/dx^2 exactly: mode by mode of the FFT for circulant T, by a banded LU
    otherwise.
    """
    dx = op.dx

    def linear_operator(stages: np.ndarray) -> np.ndarray:
        return op.apply(stages) / dx**2

    if op.bc == "periodic":
        rfft, irfft = partial(np.fft.rfft, axis=1), partial(np.fft.irfft, n=op.n, axis=1)
        solver = partial(shifted_solver, eigenvalues=op.symbol()[: op.n // 2 + 1], to_modes=rfft, from_modes=irfft)
    else:
        solver = partial(_banded_solver, diag=op.diagonal())

    def make_preconditioner(shift: np.ndarray):
        return solver(shift / dx**2)

    def accel(stages: np.ndarray) -> np.ndarray:
        return -fprime(stages)

    form = SeparableForm(
        nq=op.n, accel=accel, make_preconditioner=make_preconditioner, linear_operator=linear_operator, forcing=forcing
    )
    return separable_system(form, 1.0 / dx, hamiltonian, {"domain": domain, "x": x, "dx": dx, "stencil": op})


def build_periodic(N: int, order: int, domain, f, fprime) -> SemiDiscreteSystem:
    """Periodic semi-discretization of dim 2N on [a, b] with dx = (b-a)/N.

    H = dx [p.p/2 + q.Tq/(2 dx^2) + sum f(q)], pdot = -Tq/dx^2 - f'(q), with
    accel = -f'(q) and L = T/dx^2.
    """
    a, b = check_domain(domain)
    check_count("N", N, 1)  # before dividing by it; StencilOperator checks the stencil's reach
    dx = (b - a) / N
    x = a + dx * np.arange(N)
    op = StencilOperator(N, "periodic", order, dx)

    def hamiltonian(y):
        q, p = y[..., :N], y[..., N:]
        terms = 0.5 * p * p + q * op.apply(q) / (2.0 * dx**2) + f(q)
        return dx * energy_sum(terms)

    return _stencil_system(op, (a, b), x, hamiltonian, fprime)


def _augmented_system(N, domain, f, fprime, boundary, kind) -> SemiDiscreteSystem:
    """Boundary-forced system in augmented autonomous form (dim 2N+2).

    Interior nodes x_i = a + i dx, i = 1..N, dx = (b-a)/(N+1).  The forced
    problem is the non-autonomous H(q, p, t) = H0(q, p) + beta(t).(q_1, q_N)
    + c(t), H0 the interior energy of the stencil T, with beta = b g(t) and
    c = w |g(t)|^2 in the boundary functions g = (g_0, g_1) and the
    coefficients (b, w) of _FORCING.  Everything else is derived from beta
    and c: the conserved energy Ht = H + pt, and from one traces call at the
    times t, forcing(t) -> (force, rate) with the end-node force -beta/dx
    and ptdot = rate(q) = -beta'(t).(q_1, q_N) - c'(t), which reads q only.
    The gradient, qt-slot included, is read off them by separable_system.
    """
    if boundary.kind != kind:
        raise ValueError(f"build_{kind} requires {kind.capitalize()} boundary data")
    a, b = check_domain(domain)
    check_count("N", N, 1)  # before dividing by N + 1; StencilOperator checks the stencil's reach
    dx = (b - a) / (N + 1)
    op = StencilOperator(N, kind, 2, dx)
    (b0, b1), w = _FORCING[kind](dx)

    def hamiltonian(y):
        q, p = y[..., :N], y[..., N : 2 * N]
        (g0, g1), _ = boundary.traces(y[..., 2 * N])
        terms = 0.5 * p * p + q * op.apply(q) / (2.0 * dx**2) + f(q)
        beta_c = b0 * g0 * q[..., 0] + b1 * g1 * q[..., -1] + w * (g0 * g0 + g1 * g1)  # beta(t).(q_1, q_N) + c(t)
        return dx * energy_sum(terms) + beta_c + y[..., 2 * N + 1]

    def forcing(times):
        (g0, g1), (d0, d1) = boundary.traces(times)
        force = np.zeros((len(times), N))
        force[:, 0], force[:, -1] = -b0 * g0 / dx, -b1 * g1 / dx

        def rate(q):
            return -(b0 * d0 * q[:, 0] + b1 * d1 * q[:, -1]) - 2.0 * w * (g0 * d0 + g1 * d1)

        return force, rate

    x = a + dx * np.arange(1, N + 1)
    return _stencil_system(op, (a, b), x, hamiltonian, fprime, forcing)


def build_dirichlet(N: int, domain, f, fprime, boundary: BoundaryData) -> SemiDiscreteSystem:
    """Dirichlet semi-discretization in augmented autonomous form (dim 2N+2).

    The boundary values g enter the end nodes' stencil rows: beta = -g/dx
    and c = |g|^2/(2 dx), so they force the momentum equation as g/dx^2
    (grid and energy as in _augmented_system).
    """
    return _augmented_system(N, domain, f, fprime, boundary, "dirichlet")


def build_neumann(N: int, domain, f, fprime, boundary: BoundaryData) -> SemiDiscreteSystem:
    """Neumann semi-discretization in augmented autonomous form (dim 2N+2).

    Ghost values u_0 = u_1 - phi_0 dx and u_{N+1} = u_N + phi_1 dx encode the
    prescribed slopes phi: the stencil corners drop to 1, beta = (phi_0,
    -phi_1) forces the end nodes at strength 1/dx, and c = dx |phi|^2 / 2 is
    the ghost edges' energy.  So H = E + phi_0 q_1 - phi_1 q_N, E being the
    ghost-cell energy (grid and energy as in _augmented_system).
    """
    return _augmented_system(N, domain, f, fprime, boundary, "neumann")
