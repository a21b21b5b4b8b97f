import numpy as np
import pytest

from conftest import reference_solve
from hbvm import problems
from hbvm.wave_fd import build_periodic
from hbvm.wave_fourier import (
    FourierBasis,
    SpectralSystem,
    _analysis,
    _synthesis,
    build_fourier,
    eval_solution,
    nonlinear_term,
    project_initial,
)

ZERO = lambda u: np.zeros_like(u)
DOMAIN = (-20.0, 20.0)


def make_spec(N=6, m=40, f=None, fprime=None, domain=DOMAIN):
    f = f or ZERO
    fprime = fprime or ZERO
    system = build_fourier(N, m, domain, f, fprime, ZERO, ZERO)
    return system.descriptor["spectral"], system


class TestFourierBasis:
    @pytest.mark.parametrize("m_extra", [1, 12])
    def test_gram_identity(self, m_extra):
        basis = FourierBasis(n_modes=8, a=-20.0, b=20.0)
        m = 2 * 8 + m_extra
        w = basis.evaluate_matrix(basis.points(m))
        gram = (basis.length / m) * (w.T @ w)
        assert np.max(np.abs(gram - np.eye(basis.dim))) <= 1e-12

    def test_trapezoid_exact_on_trig_polynomials(self, rng):
        # the m-point periodic trapezoid integrates trig polynomials of
        # degree < m exactly; only the constant mode survives
        basis = FourierBasis(n_modes=10, a=0.0, b=3.0)
        coeffs = rng.standard_normal(basis.dim)
        exact = coeffs[0] * np.sqrt(basis.length)
        for m in (11, 21, 64):
            xs = basis.points(m)
            vals = eval_solution(basis, coeffs, xs)
            quad = (basis.length / m) * np.sum(vals)
            assert quad == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_stiffness_pairs(self):
        basis = FourierBasis(n_modes=3, a=-20.0, b=20.0)
        d = basis.stiffness_diagonal()
        assert d[0] == 0.0
        for k in (1, 2, 3):
            w = 2 * np.pi * k / 40.0
            assert d[2 * k - 1] == pytest.approx(w * w)
            assert d[2 * k] == pytest.approx(w * w)

    @pytest.mark.parametrize("domain", [DOMAIN, (0.0, 2.0 * np.pi), (-1.3, 7.77)])
    @pytest.mark.parametrize("N", [1, 16, 100, 400])
    def test_matches_the_per_mode_closed_forms(self, N, domain):
        # mode by mode, in the same order of operations, so the tables are bitwise equal
        basis = FourierBasis(n_modes=N, a=domain[0], b=domain[1])
        length = domain[1] - domain[0]
        xs = np.concatenate([basis.points(2 * N + 1), np.linspace(domain[0] - 3.0, domain[1] + 3.0, 37)])
        values = np.empty((xs.size, basis.dim))
        values[:, 0] = np.sqrt(1.0 / length)
        diag = np.zeros(basis.dim)
        for k in range(1, N + 1):
            phase = 2.0 * np.pi * k * (xs - domain[0]) / length
            values[:, 2 * k - 1] = np.sqrt(2.0 / length) * np.cos(phase)
            values[:, 2 * k] = np.sqrt(2.0 / length) * np.sin(phase)
            w = 2.0 * np.pi * k / length
            diag[2 * k - 1] = diag[2 * k] = w * w
        np.testing.assert_array_equal(basis.evaluate_matrix(xs), values)
        np.testing.assert_array_equal(basis.evaluate_matrix(xs[5]), values[5:6])
        np.testing.assert_array_equal(basis.stiffness_diagonal(), diag)


def exact_grid_basis(basis, m):
    """Basis values on the m-point grid with the integer phase k*i mod m, exact for any N."""
    i = np.arange(m)
    out = np.empty((m, basis.dim))
    out[:, 0] = np.sqrt(1.0 / basis.length)
    amp = np.sqrt(2.0 / basis.length)
    for k in range(1, basis.n_modes + 1):
        phase = 2.0 * np.pi * ((k * i) % m) / m
        out[:, 2 * k - 1] = amp * np.cos(phase)
        out[:, 2 * k] = amp * np.sin(phase)
    return out


# (N, m): m = 2N, m = 2N+1, odd m > 2N+1, m >> 2N, and N >= 100
TRANSFORM_CASES = [(4, 8), (4, 9), (5, 15), (3, 64), (100, 200), (100, 201), (120, 1001), (400, 800)]


class TestTransforms:
    def test_exact_phase_oracle_matches_evaluate_matrix(self):
        basis = FourierBasis(n_modes=7, a=-1.5, b=2.0)
        for m in (14, 15, 40):
            np.testing.assert_allclose(exact_grid_basis(basis, m), basis.evaluate_matrix(basis.points(m)), atol=1e-14)

    @pytest.mark.parametrize("N, m", TRANSFORM_CASES)
    def test_synthesis_matches_basis_values(self, N, m, rng):
        spec = SpectralSystem(FourierBasis(n_modes=N, a=-20.0, b=20.0), m)
        w = exact_grid_basis(spec.basis, m)
        for q in (rng.standard_normal(spec.basis.dim), rng.standard_normal((5, spec.basis.dim))):
            scale = np.max(np.abs(q) @ np.abs(w).T)
            got = _synthesis(spec, q)
            assert got.shape == q.shape[:-1] + (m,)
            assert np.max(np.abs(got - q @ w.T)) <= 1e-13 * scale

    @pytest.mark.parametrize("N, m", TRANSFORM_CASES)
    def test_analysis_matches_trapezoidal_projection(self, N, m, rng):
        spec = SpectralSystem(FourierBasis(n_modes=N, a=-20.0, b=20.0), m)
        w = exact_grid_basis(spec.basis, m)
        weight = spec.basis.length / m
        for g in (rng.standard_normal(m), rng.standard_normal((5, m))):
            scale = weight * np.max(np.abs(g) @ np.abs(w))
            got = _analysis(spec, g)
            assert got.shape == g.shape[:-1] + (spec.basis.dim,)
            assert np.max(np.abs(got - weight * (g @ w))) <= 1e-13 * scale

    @pytest.mark.parametrize("N, m", [(N, m) for N, m in TRANSFORM_CASES if m > 2 * N])
    def test_round_trip(self, N, m, rng):
        spec = SpectralSystem(FourierBasis(n_modes=N, a=0.0, b=3.0), m)
        q = rng.standard_normal((5, spec.basis.dim))
        np.testing.assert_allclose(_analysis(spec, _synthesis(spec, q)), q, atol=1e-13)

    @pytest.mark.parametrize("N", [4, 100, 400])
    def test_round_trip_aliasing_at_m_equal_2n(self, N, rng):
        # on the 2N-point grid the top sine samples to zero and the top
        # cosine has discrete norm 2; every other mode comes back unchanged
        spec = SpectralSystem(FourierBasis(n_modes=N, a=0.0, b=3.0), 2 * N)
        q = rng.standard_normal((5, spec.basis.dim))
        back = _analysis(spec, _synthesis(spec, q))
        assert np.all(back[:, -1] == 0.0)
        np.testing.assert_allclose(back[:, -2], 2.0 * q[:, -2], atol=1e-13)
        np.testing.assert_allclose(back[:, :-2], q[:, :-2], atol=1e-13)

    def test_no_dense_quadrature_table(self):
        spec, _ = make_spec()
        assert not hasattr(spec, "quad_matrix")

    def test_under_resolved_grid_rejected(self):
        with pytest.raises(ValueError):
            SpectralSystem(FourierBasis(n_modes=8, a=0.0, b=1.0), 15)


class TestProjectInitial:
    def test_zero_field_projects_to_zero(self):
        basis = FourierBasis(n_modes=5, a=-20.0, b=20.0)
        q0, p0, _ = project_initial(basis, 64, ZERO, lambda x: np.cos(2 * np.pi * x / 40.0))
        np.testing.assert_allclose(q0, 0.0, atol=1e-15)

    def test_pure_mode_recovered(self):
        basis = FourierBasis(n_modes=5, a=-20.0, b=20.0)
        target = lambda x: np.sqrt(2.0 / 40.0) * np.cos(2 * np.pi * 3 * (x + 20.0) / 40.0)
        q0, p0, e_n = project_initial(basis, 64, target, ZERO)
        expected = np.zeros(11)
        expected[5] = 1.0  # c_3 slot in the (c0, c1, s1, ...) ordering
        np.testing.assert_allclose(q0, expected, atol=1e-13)
        assert e_n <= 1e-13

    def test_round_trip(self, rng):
        basis = FourierBasis(n_modes=6, a=0.0, b=5.0)
        coeffs = rng.standard_normal(basis.dim)
        m = 2 * 6 + 1
        q0, _, e_n = project_initial(basis, m, lambda x: eval_solution(basis, coeffs, x), ZERO)
        np.testing.assert_allclose(q0, coeffs, atol=1e-12)
        assert e_n <= 1e-12

    def test_soliton_velocity_residual(self):
        # spectral tail of the gamma=1 soliton velocity at 100 modes
        basis = FourierBasis(n_modes=100, a=-20.0, b=20.0)
        psi0, psi1 = problems.sine_gordon_initial(1.0)
        _, _, e_n = project_initial(basis, 4096, psi0, psi1)
        assert 1.6e-12 <= e_n <= 1.6e-10


class TestNonlinearTerm:
    def test_zero_derivative(self):
        spec, _ = make_spec()
        np.testing.assert_array_equal(nonlinear_term(spec, np.ones(spec.basis.dim)), 0.0)

    def test_identity_derivative_reproduces_coefficients(self, rng):
        spec, _ = make_spec(N=6, m=13, fprime=lambda u: u)
        q = rng.standard_normal(spec.basis.dim)
        np.testing.assert_allclose(nonlinear_term(spec, q), q, atol=1e-12)

    def test_quartic_quadrature_count_independence(self, rng):
        # degree-4 potential, N = 2: every m >= 4N+1 = 9 gives the same value
        q = rng.standard_normal(5)
        vals = {}
        for m in (9, 200):
            spec, _ = make_spec(N=2, m=m, fprime=lambda u: u**3)
            vals[m] = nonlinear_term(spec, q)
        np.testing.assert_allclose(vals[9], vals[200], atol=1e-13)

    def test_super_polynomial_decay_for_smooth_terms(self):
        # analytic integrand: quadrature error drops faster than any power,
        # so doubling m must improve by far more than 2^8
        N = 6
        coeffs = np.exp(-0.8 * np.arange(2 * N + 1))
        def term(m):
            spec, _ = make_spec(N=N, m=m, fprime=np.sin, domain=(0.0, 2 * np.pi))
            return nonlinear_term(spec, coeffs)
        e_coarse = np.max(np.abs(term(16) - term(64)))
        e_fine = np.max(np.abs(term(32) - term(128)))
        assert e_coarse / max(e_fine, 1e-300) > 2.0**8

    def test_dimension_mismatch(self):
        spec, _ = make_spec()
        with pytest.raises(ValueError):
            nonlinear_term(spec, np.zeros(3))


class TestBuildFourier:
    def test_under_resolved_quadrature_rejected(self):
        with pytest.raises(ValueError):
            build_fourier(8, 15, DOMAIN, ZERO, ZERO, ZERO, ZERO)

    def test_single_mode_harmonic_closed_form(self):
        system = build_fourier(4, 16, DOMAIN, ZERO, ZERO, ZERO, ZERO)
        dim = 2 * 4 + 1
        w = 2 * np.pi * 2 / 40.0  # second cosine mode
        y0 = np.zeros(2 * dim)
        y0[3] = 1.0
        rec_t = 1.7
        sol = reference_solve(system, y0, (0.0, rec_t), t_eval=[rec_t])
        expected = np.zeros(2 * dim)
        expected[3] = np.cos(w * rec_t)
        expected[dim + 3] = -w * np.sin(w * rec_t)
        np.testing.assert_allclose(sol.y[:, 0], expected, atol=1e-10)

    def test_eval_solution_trivials(self):
        basis = FourierBasis(n_modes=3, a=-20.0, b=20.0)
        xs = np.linspace(-20, 20, 7)
        np.testing.assert_array_equal(eval_solution(basis, np.zeros(7), xs), np.zeros(7))
        unit = np.zeros(7)
        unit[0] = 1.0
        np.testing.assert_allclose(eval_solution(basis, unit, xs), np.sqrt(1.0 / 40.0), atol=1e-15)

    def test_energy_consistent_with_fd_on_smooth_state(self):
        # reconstructing a spectral state with O(1) displacement on a fine
        # grid and evaluating the FD energy there must agree to O(dx^2)
        # (dominated by the FD Laplacian error in the stiffness term)
        psi = lambda x: 2.0 / np.cosh(x)
        system = build_fourier(32, 80, DOMAIN, problems.sine_gordon_f, problems.sine_gordon_fprime, psi, psi)
        spec = system.descriptor["spectral"]
        dim = spec.basis.dim
        y0 = system.descriptor["y0"]
        h_fg = system.hamiltonian(y0)
        diffs = []
        for n_fd in (400, 800):
            fd = build_periodic(n_fd, 2, DOMAIN, problems.sine_gordon_f, problems.sine_gordon_fprime)
            x = fd.descriptor["x"]
            qs = eval_solution(spec.basis, y0[:dim], x)
            ps = eval_solution(spec.basis, y0[dim:], x)
            diffs.append(abs(fd.hamiltonian(np.concatenate([qs, ps])) - h_fg))
        assert diffs[0] <= 1e-2
        assert 3.5 <= diffs[0] / diffs[1] <= 4.5  # second-order decay

    def test_initial_state_stored(self):
        psi0, psi1 = problems.sine_gordon_initial(1.0)
        system = build_fourier(16, 40, DOMAIN, problems.sine_gordon_f, problems.sine_gordon_fprime, psi0, psi1)
        y0 = system.descriptor["y0"]
        assert y0.shape == (2 * 33,)
        np.testing.assert_allclose(y0[:33], 0.0, atol=1e-14)

    def test_spectral_soliton_run_conserves_energy(self):
        # the 100-mode spectral system integrated for 1000 steps at h = 0.1
        # keeps the discrete energy at roundoff with HBVM(5,1)
        from hbvm.integrator import HBVMMethod, SolverConfig, integrate

        system, y0 = problems.sine_gordon_system(gamma=1.0, scheme="fourier", N=100, m=200)
        rec = integrate(system, y0, 0.1, 1000, HBVMMethod(5, 1), SolverConfig(), record_stride=0)
        assert np.max(np.abs(rec.drift)) <= 1e-12
