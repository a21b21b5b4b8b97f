"""Fourier-Galerkin semi-discretization of the periodic semilinear wave equation.

The solution is expanded in the orthonormal trigonometric basis on [a, b]
(one constant mode plus N cosine/sine pairs, ordered c0, c1, s1, ..., cN, sN),
giving coefficient dynamics with a diagonal stiffness and a nonlinear term
evaluated by the m-point periodic trapezoidal rule, which is exact for
trigonometric polynomials of degree < m.  The conserved Hamiltonian uses the
same quadrature, so it is exactly the energy the integrator sees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .systems import SemiDiscreteSystem, SeparableForm, separable_system

__all__ = [
    "FourierBasis",
    "SpectralSystem",
    "project_initial",
    "nonlinear_term",
    "build_fourier",
    "eval_solution",
]


@dataclass(frozen=True)
class FourierBasis:
    """Orthonormal trigonometric basis on [a, b] with modes 0..n_modes."""

    n_modes: int
    a: float
    b: float

    @property
    def length(self) -> float:
        return self.b - self.a

    @property
    def dim(self) -> int:
        return 2 * self.n_modes + 1

    def points(self, m: int) -> np.ndarray:
        """Uniform periodic quadrature grid x_i = a + i L / m."""
        return self.a + self.length * np.arange(m) / m

    def evaluate_matrix(self, xs) -> np.ndarray:
        """Rows of basis values at the points: column order c0, c1, s1, ..."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        length = self.length
        out = np.empty((xs.size, self.dim))
        out[:, 0] = np.sqrt(1.0 / length)
        amp = np.sqrt(2.0 / length)
        for k in range(1, self.n_modes + 1):
            phase = 2.0 * np.pi * k * (xs - self.a) / length
            out[:, 2 * k - 1] = amp * np.cos(phase)
            out[:, 2 * k] = amp * np.sin(phase)
        return out

    def stiffness_diagonal(self) -> np.ndarray:
        """Diagonal entries 0, w_1^2, w_1^2, ..., w_N^2 with w_k = 2 pi k / L."""
        diag = np.empty(self.dim)
        diag[0] = 0.0
        for k in range(1, self.n_modes + 1):
            w = 2.0 * np.pi * k / self.length
            diag[2 * k - 1] = diag[2 * k] = w * w
        return diag


@dataclass(frozen=True)
class SpectralSystem:
    """Precomputed quadrature data of one Fourier-Galerkin discretization."""

    basis: FourierBasis
    m: int
    fprime: Callable
    quad_matrix: np.ndarray  # (m, dim) basis values at the quadrature grid


def project_initial(basis: FourierBasis, m_proj: int, psi0, psi1):
    """Basis coefficients of the initial data plus the projection residual.

    Returns (q0, p0, e_N) where e_N is the root-sum-square of the residual
    norms of both fields on the m_proj-point grid, in the length-normalized
    L2 norm (the norm of the unit-mapped coordinate, which the reported
    residual magnitudes refer to; the physical L2 value is sqrt(L) larger).
    """
    xs = basis.points(m_proj)
    w = basis.evaluate_matrix(xs)
    length = basis.length
    v0 = np.asarray(psi0(xs), dtype=float) * np.ones_like(xs)
    v1 = np.asarray(psi1(xs), dtype=float) * np.ones_like(xs)
    q0 = (length / m_proj) * (w.T @ v0)
    p0 = (length / m_proj) * (w.T @ v1)
    r0 = v0 - w @ q0
    r1 = v1 - w @ p0
    e_n = np.sqrt((r0 @ r0 + r1 @ r1) / m_proj)
    return q0, p0, float(e_n)


def nonlinear_term(spec: SpectralSystem, q: np.ndarray) -> np.ndarray:
    """Trapezoidal projection of f'(u) onto the basis: (L/m) sum_i w(x_i) f'(u(x_i)).

    q is a coefficient vector or a matrix of coefficient rows (stages).
    """
    q = np.asarray(q, dtype=float)
    if q.shape[-1:] != (spec.basis.dim,):
        raise ValueError(f"expected coefficients of length {spec.basis.dim} on the last axis")
    quad = spec.quad_matrix
    return (spec.basis.length / spec.m) * (spec.fprime(q @ quad.T) @ quad)


def eval_solution(basis: FourierBasis, coefficients: np.ndarray, xs) -> np.ndarray:
    """Pointwise basis expansion u(x) = w(x) . coefficients."""
    return basis.evaluate_matrix(xs) @ np.asarray(coefficients, dtype=float)


def build_fourier(N: int, m: int, domain, f, fprime, psi0, psi1, name: str = "wave") -> SemiDiscreteSystem:
    """Spectral system of dim 2(2N+1); initial coefficients in descriptor['y0'].

    H = p.p/2 + q.Dq/2 + (L/m) sum f(u(x_i)); pdot = -Dq - nonlinear_term(q).
    Requires m >= 2N: the quadrature then resolves all quadratic products
    except, at exactly m = 2N, the top sine mode, which samples to zero on
    the grid (its coefficient decouples linearly; harmless for spectrally
    resolved data).  m >= 2N+1 gives the exact discrete Gram identity.
    """
    a, b = float(domain[0]), float(domain[1])
    if m < 2 * N:
        raise ValueError(f"m={m} under-resolves N={N}: need m >= 2N")
    basis = FourierBasis(n_modes=N, a=a, b=b)
    quad = basis.evaluate_matrix(basis.points(m))
    diag = basis.stiffness_diagonal()
    spec = SpectralSystem(basis=basis, m=m, fprime=fprime, quad_matrix=quad)
    dim = basis.dim
    length = basis.length
    q0, p0, e_n = project_initial(basis, m, psi0, psi1)

    def hamiltonian(y):
        q, p = y[:dim], y[dim:]
        u = quad @ q
        return math.fsum(0.5 * p * p) + math.fsum(0.5 * diag * q * q) + (length / m) * math.fsum(f(u))

    def accel(stages, times):
        return -stages * diag[None, :] - nonlinear_term(spec, stages)

    def linear_operator(stages):
        return stages * diag[None, :]

    def make_preconditioner(h_rho: float):
        weights = 1.0 + h_rho * h_rho * diag
        return lambda rows: rows / weights[None, :]

    form = SeparableForm(nq=dim, accel=accel, make_preconditioner=make_preconditioner, linear_operator=linear_operator)
    return separable_system(
        form,
        1.0,
        hamiltonian,
        {
            "name": name,
            "bc": "periodic",
            "scheme": "fourier",
            "domain": (a, b),
            "m": m,
            "spectral": spec,
            "y0": np.concatenate([q0, p0]),
            "e_N": e_n,
        },
    )
