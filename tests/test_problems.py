from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import reference_solve
from hbvm import problems
from hbvm.integrator import HBVMMethod, SolverConfig, integrate
from hbvm.systems import energy_sum
from hbvm.wave_fd import BoundaryData, StencilOperator, build_dirichlet, build_neumann, build_periodic
from hbvm.wave_fourier import build_fourier, project_initial


class TestExactSoliton:
    def test_zero_at_initial_time(self):
        xs = np.linspace(-20, 20, 11)
        for gamma in (0.5, 1.0, 2.0):
            np.testing.assert_array_equal(problems.sine_gordon_exact(gamma, xs, 0.0), np.zeros(11))

    def test_double_pole_at_origin(self):
        for t in (0.3, 1.0, 7.5):
            assert problems.sine_gordon_exact(1.0, 0.0, t) == pytest.approx(4.0 * np.arctan(t), abs=1e-14)

    def test_branch_continuity_near_unit_gamma(self):
        lo = problems.sine_gordon_exact(1.0 - 1e-8, 2.0, 3.0)
        hi = problems.sine_gordon_exact(1.0 + 1e-8, 2.0, 3.0)
        mid = problems.sine_gordon_exact(1.0, 2.0, 3.0)
        assert abs(lo - hi) < 1e-6
        assert abs(lo - mid) < 1e-6

    @pytest.mark.parametrize("gamma", [0.8, 1.0, 1.2])
    def test_pde_residual_small(self, gamma):
        # five-point finite differences of the closed form satisfy the wave
        # equation to discretization accuracy
        d = 1e-3
        for (x, t) in [(0.4, 0.9), (-2.0, 2.3), (5.0, 4.0)]:
            stencil = np.array([-1.0 / 12.0, 4.0 / 3.0, -5.0 / 2.0, 4.0 / 3.0, -1.0 / 12.0])
            utt = np.sum(stencil * problems.sine_gordon_exact(gamma, x, t + d * np.arange(-2, 3))) / d**2
            uxx = np.sum(stencil * problems.sine_gordon_exact(gamma, x + d * np.arange(-2, 3), t)) / d**2
            u = problems.sine_gordon_exact(gamma, x, t)
            assert abs(utt - uxx + np.sin(u)) < 1e-5

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(gamma=st.floats(0.2, 3.0).filter(lambda g: g != 1.0), t=st.floats(-100.0, 100.0))
    def test_time_factor_matches_each_regime_closed_form(self, gamma, t):
        # one sinc formula against sin(eps t/gamma)/eps (breather) and sinh(|eps| t/gamma)/|eps|
        # (kink-antikink), with their rates cos and cosh over gamma
        eps = np.sqrt(abs(gamma * gamma - 1.0))
        arg = eps * t / gamma
        if gamma > 1.0:  # compared on the scale of the breather's amplitudes 1/eps and 1/gamma
            closed, scale = (np.sin(arg) / eps, np.cos(arg) / gamma), (1.0 / eps, 1.0 / gamma)
        else:
            closed, scale = (np.sinh(arg) / eps, np.cosh(arg) / gamma), (0.0, 0.0)
        for value, exact, floor in zip(problems._phi_and_rate(gamma, t), closed, scale):
            assert abs(value - exact) <= 1e-13 * max(abs(exact), floor)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(gamma=st.floats(0.2, 3.0), t=st.floats(-100.0, 100.0))
    def test_time_factor_rate_is_its_derivative(self, gamma, t):
        d = 1e-4
        phi = lambda s: problems._phi_and_rate(gamma, s)[0]
        central = (phi(t + d) - phi(t - d)) / (2.0 * d)
        rate = problems._phi_and_rate(gamma, t)[1]
        assert abs(central - rate) <= 1e-6 * max(abs(rate), 1.0 / gamma)

    @pytest.mark.parametrize("gamma", [0.2, 0.9, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.1, 3.0])
    def test_time_factor_at_zero_and_at_unit_gamma(self, gamma):
        phi, rate = problems._phi_and_rate(gamma, np.array([0.0, -0.0]))
        np.testing.assert_array_equal(phi, [0.0, 0.0])
        assert np.all(rate == 1.0 / gamma)
        tiny = np.array([5e-324, -1e-310, 1e-300, -1e-200])  # sinc's complex division must not overflow
        phi, rate = problems._phi_and_rate(gamma, tiny)
        np.testing.assert_allclose(phi, tiny / gamma, rtol=1e-15, atol=0.0)
        assert np.all(rate == 1.0 / gamma)
        if gamma == 1.0:
            t = np.array([-7.5, 0.3, 42.0])
            phi, rate = problems._phi_and_rate(gamma, t)
            np.testing.assert_array_equal(phi, t)
            assert rate == 1.0

    def test_regime_tags(self):
        assert problems.sine_gordon_regime(1.5) == "breather"
        assert problems.sine_gordon_regime(1.0) == "double-pole"
        assert problems.sine_gordon_regime(0.5) == "kink-antikink"

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            problems.sine_gordon_exact(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            problems.sine_gordon_initial(-1.0)


class TestBoundaryData:
    def test_dirichlet_zero_at_start(self):
        values, _ = problems.sine_gordon_boundary_data(1.0, "dirichlet").traces(0.0)
        np.testing.assert_array_equal(values, [0.0, 0.0])

    @pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("gamma", [0.9, 1.0, 1.1])
    def test_derivative_consistency(self, kind, gamma):
        data = problems.sine_gordon_boundary_data(gamma, kind, domain=(-3.0, 3.0))
        delta = 1e-5
        for t in (0.2, 1.0, 2.5):
            for end in (0, 1):  # left, right
                fd = (float(data.traces(t + delta)[0][end]) - float(data.traces(t - delta)[0][end])) / (2 * delta)
                assert fd == pytest.approx(float(data.traces(t)[1][end]), rel=1e-6, abs=1e-6)

    def test_neumann_trace_magnitude_bound(self):
        # |u_x(+-20, t)| <= 4 sech(20) for gamma = 1, t <= 1
        data = problems.sine_gordon_boundary_data(1.0, "neumann")
        bound = 4.0 / np.cosh(20.0)
        for t in np.linspace(0.0, 1.0, 7):
            left, right = data.traces(t)[0]
            assert abs(float(left)) <= bound
            assert abs(float(right)) <= bound

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            problems.sine_gordon_boundary_data(1.0, "robin")


class TestEnergyMonotonicity:
    def test_initial_energy_decreases_with_gamma(self):
        values = []
        for gamma in np.linspace(0.9, 1.1, 9):
            system, y0 = problems.sine_gordon_system(gamma=gamma, bc="periodic", scheme="fd2", N=200)
            values.append(system.hamiltonian(y0))
        assert all(a > b for a, b in zip(values, values[1:]))


class TestNLS:
    def test_zero_state(self):
        system = problems.build_nls_periodic(16, (0.0, 2 * np.pi), 1.0)
        y = np.zeros(32)
        assert system.hamiltonian(y) == 0.0
        np.testing.assert_array_equal(system.rhs(y), np.zeros(32))

    def test_linear_single_mode_conserves_energy(self):
        system = problems.build_nls_periodic(32, (0.0, 2 * np.pi), 0.0)
        x = system.descriptor["x"]
        y0 = np.concatenate([np.cos(x), np.sin(x)])
        sol = reference_solve(system, y0, (0.0, 2.0), t_eval=np.linspace(0, 2, 9))
        h = [system.hamiltonian(sol.y[:, i]) for i in range(9)]
        assert max(abs(v - h[0]) for v in h) <= 1e-10

    def test_plane_wave_quartic_energy_conserved_exactly(self):
        # quartic Hamiltonian: HBVM(2,1) satisfies the polynomial-exactness
        # condition and conserves to roundoff
        system, y0 = problems.nls_system(N=24, kappa=1.0)
        rec = integrate(system, y0, 0.02, 100, HBVMMethod(2, 1), SolverConfig(tol=1e-15), record_stride=0)
        assert np.max(np.abs(rec.drift)) <= 1e-12

    def test_plane_wave_matches_discrete_dispersion(self):
        system, y0 = problems.nls_system(N=24, kappa=0.7, amplitude=1.3, mode=2)
        N = 24
        dx = system.descriptor["dx"]
        L = 2 * np.pi
        kw = 2 * np.pi * 2 / L
        omega = (2.0 - 2.0 * np.cos(kw * dx)) / dx**2 - 2 * 0.7 * 1.3**2
        r = system.rhs(y0)
        np.testing.assert_allclose(r[:N], omega * y0[N:], atol=1e-11)
        np.testing.assert_allclose(r[N:], -omega * y0[:N], atol=1e-11)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            problems.build_nls_periodic(2, (0.0, 1.0), 1.0)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(N=st.integers(3, 64), kappa=st.floats(-2.0, 2.0), k=st.integers(0, 6), data=st.data())
    def test_form_is_bitwise_the_fieldwise_formulas(self, N, kappa, k, data):
        # the oracle computes the form field by field: the stencil on (..., 2, N) fields over dx, the
        # quartic gradient 2 kappa dx |psi|^2 (u; v), and -J as the concatenation (-g_v; g_u) over dx
        system = problems.build_nls_periodic(N, (0.0, 2.0 * np.pi), kappa)
        shape = (k, 2 * N) if k else (2 * N,)
        y = data.draw(arrays(np.float64, shape, elements=st.floats(-4.0, 4.0)))
        dx = system.descriptor["dx"]
        uv = y.reshape(shape[:-1] + (2, N))
        dens = uv[..., 0, :] * uv[..., 0, :] + uv[..., 1, :] * uv[..., 1, :]
        quartic = 2.0 * kappa * dx * dens[..., None, :] * uv
        stencil = StencilOperator(N, "periodic", 2, dx).apply(uv)
        quadratic = stencil / dx

        def minus_skew(grad):
            return np.concatenate([-grad[..., 1, :], grad[..., 0, :]], axis=-1) / dx

        gradient = (quadratic - quartic).reshape(shape)
        form = system.semilinear
        for got, want in [(form.nonlinear(y.copy()), minus_skew(quartic)), (form.linear_operator(y), minus_skew(quadratic)),
                          (system.gradient(y), gradient), (system.rhs(y), system.skew.apply(gradient))]:
            assert got.shape == shape
            assert got.tobytes() == want.tobytes()
        if not k:
            quad = uv * stencil
            terms = (quad[0] + quad[1]) / (2.0 * dx) - 0.5 * kappa * dx * dens * dens
            assert system.hamiltonian(y) == energy_sum(terms)

    def test_blended_step_meets_the_plane_wave_at_h_dx(self):
        # N=256 at h = dx, about 50 times the fixed point's largest stepsize:
        # the exact stiff step keeps the energy at roundoff, and HBVM(5,1)
        # (order 2) meets the exact semi-discrete plane wave, its error
        # falling by 4 when h halves
        system, y0 = problems.nls_system(N=256)
        dx = system.descriptor["dx"]
        np.testing.assert_array_equal(problems.nls_plane_wave(system, 0.0), y0)
        errors = []
        for h, n_steps in ((dx, 100), (dx / 2, 200)):
            rec = integrate(system, y0, h, n_steps, HBVMMethod(5, 1), record_stride=0)
            assert rec.mode == "blended"
            assert np.max(np.abs(rec.drift)) <= 1e-13
            exact = problems.nls_plane_wave(system, rec.record_times)
            errors.append(np.max(np.abs(rec.states - exact)))
        assert errors[0] <= 1e-3
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.05)


_QUARTIC_PHASE = lambda x: 2.0 * np.pi * (x - 0.0) / (2.0 * np.pi)  # quartic_wave_system's, on [0, 2 pi]
_INITIAL_DATA = {
    **{f"sine-gordon-{scheme}": (partial(problems.sine_gordon_system, scheme=scheme, N=40, m=96),
                                 problems.sine_gordon_initial(1.0)) for scheme in ("fd2", "fd4", "fd6", "fourier")},
    "sine-gordon-dirichlet": (partial(problems.sine_gordon_system, bc="dirichlet", N=40),
                              problems.sine_gordon_initial(1.0)),
    "quartic-wave-fourier": (partial(problems.quartic_wave_system, N=16, scheme="fourier", m=40),
                             (lambda x: 0.5 * np.sin(_QUARTIC_PHASE(x)), lambda x: 0.5 * np.cos(_QUARTIC_PHASE(x)))),
}


class TestInitialStates:
    @pytest.mark.parametrize("case", sorted(_INITIAL_DATA))
    def test_grid_data_through_from_grid(self, case):
        # y0 is (psi0, psi1) on descriptor['x'] through from_grid, bitwise: the grid values themselves for
        # finite differences (plus the time pair (0, 0) when forced), project_initial's (q0, p0) for Fourier
        build, (psi0, psi1) = _INITIAL_DATA[case]
        system, y0 = build()
        x = system.descriptor["x"]
        if "spectral" in system.descriptor:
            spec = system.descriptor["spectral"]
            np.testing.assert_array_equal(x, spec.basis.points(spec.m))
            expected = np.concatenate(project_initial(spec.basis, spec.m, psi0, psi1)[:2])
        else:
            expected = np.concatenate([psi0(x), psi1(x), np.zeros(2 if system.augmented else 0)])
        np.testing.assert_array_equal(y0, expected)


_ZERO = lambda u: np.zeros_like(u)
_ZERO_TRACES = lambda t: (np.zeros((2,) + np.shape(t)),) * 2
_BUILDERS = {
    "periodic": lambda domain: build_periodic(16, 2, domain, _ZERO, _ZERO),
    "dirichlet": lambda domain: build_dirichlet(16, domain, _ZERO, _ZERO, BoundaryData("dirichlet", _ZERO_TRACES)),
    "neumann": lambda domain: build_neumann(16, domain, _ZERO, _ZERO, BoundaryData("neumann", _ZERO_TRACES)),
    "nls": lambda domain: problems.build_nls_periodic(16, domain, 1.0),
    "fourier": lambda domain, N=4, m=16: build_fourier(N, m, domain, _ZERO, _ZERO),
}
_BAD_INPUTS = [
    pytest.param(name, (a, b), {}, r"domain must have finite endpoints a < b, got \(", id=f"{name}-{a}-{b}")
    for name in _BUILDERS
    for a, b in [(1.0, 0.0), (20.0, -20.0), (0.5, 0.5), (np.nan, 1.0), (0.0, np.nan), (-np.inf, 0.0), (0.0, np.inf)]
] + [
    pytest.param("fourier", (0.0, 1.0), sizes, message, id="fourier-" + "-".join(f"{k}{v}" for k, v in sizes.items()))
    for sizes, message in [
        ({"N": 0, "m": 0}, "N must be at least 1, got 0"),
        ({"N": 1, "m": 0}, "m must be at least 1, got 0"),
        ({"N": 2.0}, "N must be an integer"),
        ({"m": 16.0}, "m must be an integer"),
    ]
]


class TestBuilderInputs:
    def test_unknown_scheme_rejected(self):
        # the quartic wave shares the sine-Gordon periodic dispatch
        for build in (problems.quartic_wave_system, problems.sine_gordon_system):
            with pytest.raises(ValueError, match="unknown scheme 'fd3'"):
                build(scheme="fd3")
        for bc in ("dirichlet", "neumann"):
            for scheme in ("fd4", "fd6", "fourier", "fd3"):
                with pytest.raises(ValueError, match=f"the {bc} boundary supports the fd2 scheme only"):
                    problems.sine_gordon_system(bc=bc, scheme=scheme, N=16)
        with pytest.raises(ValueError, match="unknown boundary kind 'robin'"):
            problems.sine_gordon_system(bc="robin", scheme="fourier")

    @pytest.mark.parametrize("name, domain, sizes, message", _BAD_INPUTS)
    def test_bad_input_rejected_at_entry(self, name, domain, sizes, message):
        # a reversed domain would give a negative dx and energy, and a NaN endpoint would fail in the numerics
        with pytest.raises(ValueError, match=message):
            _BUILDERS[name](domain, **sizes)
        assert _BUILDERS[name]((-1.0, 1.0)).descriptor["domain"] == (-1.0, 1.0)
