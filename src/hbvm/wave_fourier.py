"""Fourier-Galerkin semi-discretization of the periodic semilinear wave equation.

The solution is expanded in the orthonormal trigonometric basis on [a, b]
(one constant mode plus N cosine/sine pairs, ordered c0, c1, s1, ..., cN, sN),
giving coefficient dynamics with a diagonal stiffness and a nonlinear term
evaluated by the m-point periodic trapezoidal rule, which is exact for
trigonometric polynomials of degree < m.  The conserved Hamiltonian uses the
same quadrature, so it is exactly the energy the integrator sees.

On the grid x_i = a + i L / m the basis is a length-m real DFT, so
coefficients and grid values are exchanged by one irfft (synthesis) and one
rfft (analysis): the nonlinear term costs O(m log m) per row.  At m = 2N
the top cosine mode lands in the Nyquist bin and the top sine mode samples
to zero, the aliasing documented in build_fourier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .legendre import check_count, check_domain
from .systems import SemiDiscreteSystem, SeparableForm, energy_sum, separable_system, shifted_solver

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
        phase = 2.0 * np.pi * np.arange(1, self.n_modes + 1) * (xs - self.a)[:, None] / length
        out[:, 1::2] = amp * np.cos(phase)
        out[:, 2::2] = amp * np.sin(phase)
        return out

    def stiffness_diagonal(self) -> np.ndarray:
        """Diagonal entries 0, w_1^2, w_1^2, ..., w_N^2 with w_k = 2 pi k / L."""
        diag = np.empty(self.dim)
        diag[0] = 0.0
        w = 2.0 * np.pi * np.arange(1, self.n_modes + 1) / self.length
        diag[1::2] = diag[2::2] = w * w
        return diag


@dataclass(frozen=True)
class SpectralSystem:
    """One Fourier-Galerkin discretization: basis, m-point grid, f'.

    The DFT scalings of the modes 0..N are precomputed on construction, laid
    out like the (re, im) float view of the rfft bins 0..N: synthesis_scale
    maps coefficients to irfft input and analysis_scale maps rfft output to
    trapezoidal projections.  Requires m >= 2N.
    """

    basis: FourierBasis
    m: int
    fprime: Optional[Callable] = None
    synthesis_scale: np.ndarray = field(init=False, repr=False)
    analysis_scale: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, m, length = self.basis.n_modes, self.m, self.basis.length
        if m < 2 * n:
            raise ValueError(f"m={m} under-resolves N={n}: need m >= 2N")
        amp = np.full(n + 1, math.sqrt(2.0 / length))
        amp[0] = math.sqrt(1.0 / length)
        # irfft halves every bin but the zero and Nyquist ones
        bins = np.full(n + 1, 0.5 * m)
        bins[0] = m
        if m == 2 * n:
            bins[n] = m
        sign = np.tile([1.0, -1.0], n + 1)  # bin j holds c_j - i s_j
        object.__setattr__(self, "synthesis_scale", np.repeat(bins * amp, 2) * sign)
        object.__setattr__(self, "analysis_scale", np.repeat((length / m) * amp, 2) * sign)


def _synthesis(spec: SpectralSystem, q: np.ndarray) -> np.ndarray:
    """Grid values u(x_i), i < m, of coefficients q on the last axis.

    The order c0, c1, s1, ..., cN, sN is the (re, im) view of the bins
    c_j - i s_j once a slot for the imaginary part of bin 0 is inserted.
    irfft zero-pads the bins above N and drops the imaginary part of a
    Nyquist bin, so at m = 2N the top sine samples to zero.
    """
    bins = np.empty(q.shape[:-1] + (spec.basis.dim + 1,))
    bins[..., 0] = q[..., 0]
    bins[..., 1] = 0.0
    bins[..., 2:] = q[..., 1:]
    bins *= spec.synthesis_scale
    return np.fft.irfft(bins.view(complex), n=spec.m)


def _analysis(spec: SpectralSystem, g: np.ndarray) -> np.ndarray:
    """Trapezoidal projection (L/m) sum_i w(x_i) g_i of grid values on the last axis."""
    bins = np.fft.rfft(g)[..., : spec.basis.n_modes + 1].view(float) * spec.analysis_scale
    out = np.empty(g.shape[:-1] + (spec.basis.dim,))
    out[..., 0] = bins[..., 0]
    out[..., 1:] = bins[..., 2:]
    return out


def project_initial(basis: FourierBasis, m_proj: int, psi0, psi1):
    """Basis coefficients of the initial data plus the projection residual.

    Returns (q0, p0, e_N) where e_N is the root-sum-square of the residual
    norms of both fields on the m_proj-point grid, in the length-normalized
    L2 norm (the norm of the unit-mapped coordinate, which the reported
    residual magnitudes refer to; the physical L2 value is sqrt(L) larger).
    """
    spec = SpectralSystem(basis, m_proj)
    xs = basis.points(m_proj)
    values = np.stack([np.asarray(psi(xs), dtype=float) * np.ones_like(xs) for psi in (psi0, psi1)])
    coeffs = _analysis(spec, values)
    residual = values - _synthesis(spec, coeffs)
    e_n = np.sqrt(np.sum(residual * residual) / m_proj)
    return coeffs[0], coeffs[1], float(e_n)


def nonlinear_term(spec: SpectralSystem, q: np.ndarray) -> np.ndarray:
    """Trapezoidal projection of f'(u) onto the basis: (L/m) sum_i w(x_i) f'(u(x_i)).

    q is a coefficient vector or a matrix of coefficient rows (stages).
    """
    q = np.asarray(q, dtype=float)
    if q.shape[-1:] != (spec.basis.dim,):
        raise ValueError(f"expected coefficients of length {spec.basis.dim} on the last axis")
    return _analysis(spec, spec.fprime(_synthesis(spec, q)))


def eval_solution(basis: FourierBasis, coefficients: np.ndarray, xs) -> np.ndarray:
    """Pointwise basis expansion u(x) = w(x) . coefficients."""
    return basis.evaluate_matrix(xs) @ np.asarray(coefficients, dtype=float)


def build_fourier(N: int, m: int, domain, f, fprime) -> SemiDiscreteSystem:
    """Spectral system of dim 2(2N+1) on the grid descriptor['x'] = basis.points(m).

    H = p.p/2 + q.Dq/2 + (L/m) sum f(u(x_i)); pdot = -Dq - nonlinear_term(q),
    with L = D, accel = -f'(u) on the grid, and the synthesis and analysis
    as the grid maps: to_grid samples u on descriptor['x'], and from_grid
    projects grid data (forces; initial data, as project_initial does).
    Requires m >= 2N: the quadrature then resolves all quadratic products
    except, at exactly m = 2N, the top sine mode, which samples to zero on
    the grid (its coefficient decouples linearly; harmless for spectrally
    resolved data).  m >= 2N+1 gives the exact discrete Gram identity.
    """
    a, b = check_domain(domain)
    check_count("N", N, 1)
    check_count("m", m, 1)
    basis = FourierBasis(n_modes=N, a=a, b=b)
    spec = SpectralSystem(basis=basis, m=m, fprime=fprime)
    diag = basis.stiffness_diagonal()
    dim = basis.dim
    length = basis.length

    def hamiltonian(y):
        q, p = y[..., :dim], y[..., dim:]
        u = _synthesis(spec, q)
        kinetic = energy_sum(0.5 * p * p)
        elastic = energy_sum(0.5 * diag * q * q)
        return kinetic + elastic + (length / m) * energy_sum(f(u))

    def accel(grid):
        return -fprime(grid)

    def linear_operator(stages):
        return stages * diag

    form = SeparableForm(
        nq=dim, accel=accel, linear_operator=linear_operator, to_grid=partial(_synthesis, spec),
        from_grid=partial(_analysis, spec), make_preconditioner=partial(shifted_solver, eigenvalues=diag),
    )
    return separable_system(form, 1.0, hamiltonian, {"domain": (a, b), "x": basis.points(m), "m": m, "spectral": spec})
