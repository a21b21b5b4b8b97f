"""Concrete problem instances.

Sine-Gordon soliton family on [-20, 20] with its closed-form solution
u(x,t) = 4 atan[phi(t) sech(x/gamma)] (breather for gamma > 1, double pole at
gamma = 1, kink-antikink below), a quartic-nonlinearity wave test whose
discrete energy is a degree-4 polynomial, the periodic nonlinear Schrodinger
equation in real form, and small oscillator systems used as integrator
oracles.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .legendre import check_count, check_domain
from .systems import (
    SemiDiscreteSystem, SemilinearForm, SeparableForm, SkewStructure, energy_sum, separable_system, shifted_solver,
)
from .wave_fd import BoundaryData, StencilOperator, build_dirichlet, build_neumann, build_periodic
from .wave_fourier import build_fourier

__all__ = [
    "sine_gordon_f",
    "sine_gordon_fprime",
    "sine_gordon_regime",
    "sine_gordon_exact",
    "sine_gordon_initial",
    "sine_gordon_boundary_data",
    "sine_gordon_system",
    "quartic_wave_system",
    "build_nls_periodic",
    "nls_system",
    "nls_plane_wave",
    "harmonic_oscillator",
    "quartic_oscillator",
    "pendulum",
]

DEFAULT_DOMAIN = (-20.0, 20.0)


def sine_gordon_f(u):
    """Potential 1 - cos(u); the offset pins H(0) of the gamma=1 soliton at ~16."""
    return 1.0 - np.cos(u)


def sine_gordon_fprime(u):
    return np.sin(u)


def sine_gordon_regime(gamma: float) -> str:
    if gamma > 1.0:
        return "breather"
    if gamma < 1.0:
        return "kink-antikink"
    return "double-pole"


def _phi_and_rate(gamma: float, t):
    """Time factor phi(t; gamma) = sin(eps t / gamma) / eps of the soliton and its derivative.

    eps = sqrt(gamma^2 - 1) is real for the breather and imaginary for the
    kink-antikink (sin(i a)/(i a) = sinh(a)/a, cos(i a) = cosh(a)), so one
    sinc form covers both and stays continuous through gamma = 1, where
    phi = t and the rate is the scalar 1.
    """
    t = np.asarray(t, dtype=float)
    if gamma == 1.0:
        return t + 0.0, 1.0
    arg = math.sqrt(abs(gamma * gamma - 1.0)) * t / gamma
    if gamma < 1.0:
        # eps = i |eps|, turned after the real division (a complex one rounds differently); phi and the
        # rate are even in arg, and the floor keeps np.sinc's complex division finite at subnormal arg
        arg = np.hypot(arg, 1e-300) * 1j
    return (t / gamma) * np.sinc(arg / np.pi).real, np.cos(arg).real / gamma


def sine_gordon_exact(gamma: float, x, t):
    """Closed-form soliton u(x, t) = 4 atan[phi(t) sech(x/gamma)]."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    x = np.float64(x)  # a float array, or for a scalar a numpy scalar: cheaper than a 0-d array
    phi, _ = _phi_and_rate(gamma, t)
    return 4.0 * np.arctan(phi * _sech(x / gamma))


def _sech(z):
    return 1.0 / np.cosh(z)


def sine_gordon_initial(gamma: float):
    """Initial data psi0 = 0, psi1 = (4/gamma) sech(x/gamma)."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")

    def psi0(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def psi1(x):
        return (4.0 / gamma) * _sech(np.asarray(x, dtype=float) / gamma)

    return psi0, psi1


def sine_gordon_boundary_data(gamma: float, kind: str, domain=DEFAULT_DOMAIN) -> BoundaryData:
    """Boundary data matching the exact soliton at the domain's ends: traces (u, u_t) for Dirichlet, slopes
    (u_x, u_xt) for Neumann, from one evaluation of the time factor at the times t for both ends."""
    if kind not in ("dirichlet", "neumann"):
        raise ValueError(f"unknown boundary kind {kind!r}")
    ends = np.array(domain, dtype=float) / gamma
    sech, tanh = _sech(ends), np.tanh(ends)

    def traces(t):
        phi, rate = _phi_and_rate(gamma, t)
        s, th = (v.reshape((2,) + (1,) * phi.ndim) for v in (sech, tanh))  # rows (left, right) against t's shape
        den = 1.0 + (phi * s) ** 2
        if kind == "dirichlet":
            return 4.0 * np.arctan(phi * s), 4.0 * rate * s / den
        return -(4.0 / gamma) * phi * s * th / den, -(4.0 / gamma) * s * th * rate * (1.0 - (phi * s) ** 2) / den**2

    return BoundaryData(kind=kind, traces=traces)


def sine_gordon_system(
    gamma: float = 1.0,
    bc: str = "periodic",
    scheme: str = "fd2",
    N: int = 400,
    m: int = 200,
    domain=DEFAULT_DOMAIN,
):
    """(system, y0) for the sine-Gordon problem under the requested discretization."""
    psi0, psi1 = sine_gordon_initial(gamma)
    if bc == "periodic":
        return _periodic_wave(scheme, N, m, domain, sine_gordon_f, sine_gordon_fprime, psi0, psi1)
    boundary = sine_gordon_boundary_data(gamma, bc, domain)
    if scheme != "fd2":
        raise ValueError(f"the {bc} boundary supports the fd2 scheme only, got {scheme!r}")
    builder = build_dirichlet if bc == "dirichlet" else build_neumann
    return _with_initial_state(builder(N, domain, sine_gordon_f, sine_gordon_fprime, boundary), psi0, psi1)


def _periodic_wave(scheme, N, m, domain, f, fprime, psi0, psi1):
    """(system, y0) of a periodic wave problem: Fourier-Galerkin, or the fd2/fd4/fd6 stencil."""
    if scheme == "fourier":
        return _with_initial_state(build_fourier(N, m, domain, f, fprime), psi0, psi1)
    order = {"fd2": 2, "fd4": 4, "fd6": 6}.get(scheme)
    if order is None:
        raise ValueError(f"unknown scheme {scheme!r}")
    return _with_initial_state(build_periodic(N, order, domain, f, fprime), psi0, psi1)


def _with_initial_state(system: SemiDiscreteSystem, psi0, psi1):
    """(system, y0): (psi0, psi1) on descriptor['x'] through from_grid, then a forced system's time pair (0, 0)."""
    x, form = system.descriptor["x"], system.separable
    values = np.stack([psi0(x), psi1(x)])
    y0 = np.zeros(system.dim)
    y0[: 2 * form.nq] = (values if form.from_grid is None else form.from_grid(values)).ravel()
    return system, y0


def quartic_wave_f(u):
    return 0.25 * u**4


def quartic_wave_fprime(u):
    return u**3


def quartic_wave_system(N: int = 32, scheme: str = "fd2", m: int = 80, domain=(0.0, 2.0 * np.pi)):
    """Periodic wave test with degree-4 polynomial energy (u0 = sin x / 2, v0 = cos x / 2)."""

    def psi0(x):
        return 0.5 * np.sin(2.0 * np.pi * (np.asarray(x) - domain[0]) / (domain[1] - domain[0]))

    def psi1(x):
        return 0.5 * np.cos(2.0 * np.pi * (np.asarray(x) - domain[0]) / (domain[1] - domain[0]))

    return _periodic_wave(scheme, N, m, domain, quartic_wave_f, quartic_wave_fprime, psi0, psi1)


def build_nls_periodic(N: int, domain, kappa: float) -> SemiDiscreteSystem:
    """Periodic finite-difference nonlinear Schrodinger system, state (u; v).

    udot = T v / dx^2 - 2 kappa (u^2+v^2) v, vdot = -T u / dx^2 + 2 kappa
    (u^2+v^2) u, conserving H = [u.Tu + v.Tv]/(2 dx) - (kappa dx / 2)
    sum (u^2+v^2)^2.  Its semilinear form, psidot = g(psi) - L psi in
    psi = u + i v, applies -J to the gradients of the two energy terms:
    g = 2 i kappa |psi|^2 psi and L = i T / dx^2, which the FFT diagonalizes
    with eigenvalues i t_j / dx^2 (t_j the symbol of T).
    g and L y write -J grad = (-grad_v; grad_u) / dx from the u and v slices
    into one fresh row buffer, dividing by -dx for the negation (x / -dx is
    exactly -(x / dx)); one stencil call takes the rows as (..., 2, N) fields.
    """
    a, b = check_domain(domain)
    check_count("N", N, 1)  # before dividing by it; StencilOperator checks the stencil's reach
    dx = (b - a) / N
    x = a + dx * np.arange(N)
    op = StencilOperator(N, "periodic", 2, dx)
    quartic = 2.0 * kappa * dx  # the gradient of the energy (kappa dx / 2) sum |psi|^4 is quartic |psi|^2 (u; v)
    minus_j = np.repeat([-dx, dx], N)  # the divisors of -J grad = (-grad_v; grad_u) / dx, row by row

    def density(y):
        """|psi|^2 = u^2 + v^2 at the nodes of rows y."""
        squares = y * y
        return squares[..., :N] + squares[..., N:]

    def stencil(y):
        """(T u; T v) of rows y, a fresh array."""
        return op.apply(y.reshape(y.shape[:-1] + (2, N))).reshape(y.shape)

    def hamiltonian(y):
        y = np.asarray(y, dtype=float)
        quad, dens = stencil(y) * y, density(y)
        return energy_sum((quad[..., :N] + quad[..., N:]) / (2.0 * dx) - 0.5 * kappa * dx * dens * dens)

    def gradient(y):
        y = np.asarray(y, dtype=float)
        factor = quartic * density(y)
        return stencil(y) / dx - np.concatenate((factor, factor), axis=-1) * y

    def nonlinear(y):
        factor, out = quartic * density(y), np.empty(y.shape)
        np.multiply(factor, y[..., N:], out=out[..., :N])
        np.multiply(factor, y[..., :N], out=out[..., N:])
        return np.divide(out, minus_j, out=out)

    def linear_operator(y):
        grad, out = stencil(y) / dx, np.empty(y.shape)
        np.divide(grad[..., N:], -dx, out=out[..., :N])
        np.divide(grad[..., :N], dx, out=out[..., N:])
        return out

    def to_modes(rows):
        psi = np.empty((len(rows), N), dtype=complex)
        psi.real, psi.imag = rows[:, :N], rows[:, N:]
        return np.fft.fft(psi)

    def from_modes(modes):
        psi = np.fft.ifft(modes)
        return np.concatenate([psi.real, psi.imag], axis=1)

    def make_preconditioner(shift):
        return shifted_solver(shift, 1j * op.symbol() / dx**2, to_modes, from_modes)

    form = SemilinearForm(nonlinear=nonlinear, linear_operator=linear_operator, make_preconditioner=make_preconditioner)
    return SemiDiscreteSystem(
        skew=SkewStructure(n=N, scale=1.0 / dx),
        hamiltonian=hamiltonian,
        gradient=gradient,
        descriptor={"domain": (a, b), "x": x, "dx": dx, "kappa": kappa},
        semilinear=form,
    )


def nls_system(N: int = 64, kappa: float = 1.0, domain=(0.0, 2.0 * np.pi), amplitude: float = 1.0, mode: int = 1):
    """(system, y0) for the periodic NLS with plane-wave initial data (nls_plane_wave at t = 0)."""
    system = build_nls_periodic(N, domain, kappa)
    return system, nls_plane_wave(system, 0.0, amplitude, mode)


def nls_plane_wave(system: SemiDiscreteSystem, t, amplitude: float = 1.0, mode: int = 1) -> np.ndarray:
    """The exact solution of the semi-discrete NLS from nls_system's data: states (u; v) at times t.

    psi = A exp(i (k (x - a) - omega t)) with k = 2 pi mode / (b - a) has |psi|^2 = A^2 and T psi =
    t_k psi, t_k = 2 - 2 cos(k dx), so it solves the fd2 system with omega = t_k / dx^2 - 2 kappa A^2.
    """
    desc = system.descriptor
    a, b = desc["domain"]
    x, dx = desc["x"], desc["dx"]
    k = 2.0 * np.pi * mode / (b - a)
    omega = (2.0 - 2.0 * math.cos(k * dx)) / dx**2 - 2.0 * desc["kappa"] * amplitude**2
    phase = k * (x - a) - omega * np.asarray(t, dtype=float)[..., None]
    return np.concatenate([amplitude * np.cos(phase), amplitude * np.sin(phase)], axis=-1)


def _oscillator(hamiltonian, accel, linear=None):
    """One-degree-of-freedom separable system; linear, if given, is the stiff part L = linear."""
    hooks = {}
    if linear is not None:
        hooks = {"linear_operator": partial(np.multiply, linear),
                 "make_preconditioner": partial(shifted_solver, eigenvalues=[linear])}
    return separable_system(SeparableForm(nq=1, accel=accel, **hooks), 1.0, hamiltonian, {})


def harmonic_oscillator(omega: float = 1.0) -> SemiDiscreteSystem:
    """H = p^2/2 + omega^2 q^2 / 2."""
    w2 = omega * omega
    return _oscillator(
        hamiltonian=lambda y: 0.5 * (y[..., 1] ** 2 + w2 * y[..., 0] ** 2),
        accel=lambda stages: np.zeros_like(stages),
        linear=w2,
    )


def quartic_oscillator() -> SemiDiscreteSystem:
    """H = p^2/2 + q^4/4; degree-4 polynomial energy."""
    return _oscillator(
        hamiltonian=lambda y: 0.5 * y[..., 1] ** 2 + 0.25 * y[..., 0] ** 4,
        accel=lambda stages: -(stages**3),
    )


def pendulum() -> SemiDiscreteSystem:
    """H = p^2/2 + 1 - cos q; smooth non-polynomial test problem."""
    return _oscillator(
        hamiltonian=lambda y: 0.5 * y[..., 1] ** 2 + 1.0 - np.cos(y[..., 0]),
        accel=lambda stages: -np.sin(stages),
    )

