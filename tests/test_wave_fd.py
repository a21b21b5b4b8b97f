import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import simpson

from conftest import reference_solve
from hbvm import problems
from hbvm.legendre import hbvm_tables
from hbvm.wave_fd import (
    BoundaryData,
    StencilOperator,
    build_dirichlet,
    build_neumann,
    build_periodic,
)

ZERO = lambda u: np.zeros_like(u)
ZERO_TRACES = lambda t: (np.zeros((2,) + np.shape(t)),) * 2  # boundary data (g, dg) that is zero at all times

_SHIFTED_SYSTEMS = {
    "periodic-fd2": lambda: problems.sine_gordon_system(gamma=1.0, bc="periodic", scheme="fd2", N=24)[0],
    "periodic-fd6": lambda: problems.sine_gordon_system(gamma=1.0, bc="periodic", scheme="fd6", N=24)[0],
    "dirichlet-fd2": lambda: problems.sine_gordon_system(gamma=1.0, bc="dirichlet", scheme="fd2", N=24)[0],
    "neumann-fd2": lambda: problems.sine_gordon_system(gamma=1.0, bc="neumann", scheme="fd2", N=24)[0],
    "fourier": lambda: problems.sine_gordon_system(gamma=1.0, scheme="fourier", N=8, m=16)[0],
    "harmonic": lambda: problems.harmonic_oscillator(omega=3.0),
    "nls": lambda: problems.nls_system(N=12)[0],
}


def build_sg_augmented(bc, N, domain):
    """Sine-Gordon system with exact-soliton boundary data on an arbitrary
    domain; small domains give O(1) boundary traces that exercise the
    forcing terms."""
    boundary = problems.sine_gordon_boundary_data(1.0, bc, domain)
    builder = build_dirichlet if bc == "dirichlet" else build_neumann
    system = builder(N, domain, problems.sine_gordon_f, problems.sine_gordon_fprime, boundary)
    x = system.descriptor["x"]
    psi0, psi1 = problems.sine_gordon_initial(1.0)
    y0 = np.concatenate([psi0(x), psi1(x), [0.0, 0.0]])
    return system, y0, boundary


def ghost_cell_energy(system, bdata, q, p, t):
    """Sine-Gordon Neumann energy E from ghost values u_0 = u_1 - phi_0 dx and
    u_{N+1} = u_N + phi_1 dx, summed as squared differences."""
    dx = system.descriptor["dx"]
    (left, right), _ = bdata.traces(t)
    ext = np.concatenate([[q[0] - float(left) * dx], q, [q[-1] + float(right) * dx]])
    return dx * np.sum(0.5 * p * p + (1.0 - np.cos(q))) + 0.5 * np.sum((ext[1:] - ext[:-1]) ** 2) / dx


def all_operators(n=20, dx=0.1):
    return [
        StencilOperator(n, "periodic", 2, dx),
        StencilOperator(n, "periodic", 4, dx),
        StencilOperator(n, "periodic", 6, dx),
        StencilOperator(n, "dirichlet", 2, dx),
        StencilOperator(n, "neumann", 2, dx),
    ]


class TestStencilOperator:
    def test_symmetry(self, rng):
        for op in all_operators():
            q = rng.standard_normal(op.n)
            z = rng.standard_normal(op.n)
            lhs = q @ op.apply(z)
            rhs = z @ op.apply(q)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_periodic_annihilates_constants(self):
        for order in (2, 4, 6):
            op = StencilOperator(24, "periodic", order, 0.1)
            np.testing.assert_allclose(op.apply(np.ones(24)), 0.0, atol=1e-13)

    def test_neumann_annihilates_constants(self):
        op = StencilOperator(15, "neumann", 2, 0.1)
        np.testing.assert_allclose(op.apply(np.ones(15)), 0.0, atol=1e-14)

    def test_dirichlet_positive_definite(self, rng):
        op = StencilOperator(15, "dirichlet", 2, 0.1)
        for _ in range(20):
            q = rng.standard_normal(15)
            assert q @ op.apply(q) > 0.0

    def test_order2_circulant_eigenvector(self):
        n, length = 32, 2.0
        dx = length / n
        op = StencilOperator(n, "periodic", 2, dx)
        x = dx * np.arange(n)
        q = np.cos(2 * np.pi * x / length)
        lam = 2.0 - 2.0 * np.cos(2 * np.pi * dx / length)
        np.testing.assert_allclose(op.apply(q), lam * q, atol=1e-12)

    def test_order2_second_derivative_exact_on_quadratic(self):
        # -T/dx^2 applied to samples of x^2 gives -2 at interior points
        n, dx = 20, 0.05
        op = StencilOperator(n, "dirichlet", 2, dx)
        x = dx * np.arange(1, n + 1)
        vals = -op.apply(x**2) / dx**2
        np.testing.assert_allclose(vals[1:-1], 2.0, atol=1e-10)

    @pytest.mark.parametrize(
        "order,degree", [(4, 5), (6, 7)]
    )
    def test_high_order_polynomial_exactness(self, order, degree):
        # rows with full stencil support reproduce the second derivative of
        # polynomials up to the stated degree
        n, dx = 40, 0.02
        op = StencilOperator(n, "periodic", order, dx)
        x = dx * np.arange(n)
        r = order // 2
        for deg in range(degree + 1):
            vals = -op.apply(x**deg) / dx**2
            exact = deg * (deg - 1) * x ** max(deg - 2, 0) if deg >= 2 else np.zeros(n)
            np.testing.assert_allclose(vals[r : n - r], exact[r : n - r], atol=2e-7)

    def test_order4_on_quartic(self):
        # samples of x^4: interior rows reproduce 12 x^2 after scaling
        n, dx = 30, 0.1
        op = StencilOperator(n, "periodic", 4, dx)
        x = dx * np.arange(n)
        vals = op.apply(x**4)
        exact = -(dx**2) * 12.0 * x**2
        np.testing.assert_allclose(vals[2 : n - 2], exact[2 : n - 2], atol=1e-10)

    def test_dimension_mismatch(self):
        op = StencilOperator(10, "periodic", 2, 0.1)
        for shape in (11, (3, 11)):
            with pytest.raises(ValueError):
                op.apply(np.zeros(shape))

    def test_weights_and_corner_derived_from_order_and_bc(self):
        for order in (2, 4, 6):
            op = StencilOperator(24, "periodic", order, 0.1)
            r = np.arange(1, op.weights.size + 1)
            assert op.weights.size == order // 2 and op.corner is None
            assert np.sum(r * r * op.weights) == pytest.approx(1.0, abs=1e-15)  # a second difference
        assert StencilOperator(15, "dirichlet", 2, 0.1).corner == 1.0
        assert StencilOperator(15, "neumann", 2, 0.1).corner == 0.0
        for bc, order in (("periodic", 3), ("periodic", 8), ("dirichlet", 4), ("neumann", 6), ("robin", 2)):
            with pytest.raises(ValueError):
                StencilOperator(15, bc, order, 0.1)

    @pytest.mark.parametrize(
        "bc,order,minimum",
        [("periodic", 2, 3), ("periodic", 4, 5), ("periodic", 6, 7), ("dirichlet", 2, 3), ("neumann", 2, 3)],
    )
    def test_too_few_nodes_rejected_at_construction(self, bc, order, minimum):
        # a stencil wider than the grid used to end in a numpy broadcast
        # error inside apply; the smallest accepted grid applies cleanly
        for n in range(-1, minimum):
            with pytest.raises(ValueError, match=rf"n >= {minimum} .*got n={n}$"):
                StencilOperator(n, bc, order, 0.1)
        op = StencilOperator(minimum, bc, order, 0.1)
        assert op.apply(np.ones((2, minimum))).shape == (2, minimum)

    def test_builders_reject_small_meshes(self):
        # N = 0 (periodic) and N = -1 (boundary-forced) would divide by zero
        # before the operator checks its reach
        builders = {
            "periodic": lambda N: build_periodic(N, 2, (0.0, 1.0), ZERO, ZERO),
            "dirichlet": lambda N: build_dirichlet(N, (0.0, 1.0), ZERO, ZERO, BoundaryData("dirichlet", ZERO_TRACES)),
            "neumann": lambda N: build_neumann(N, (0.0, 1.0), ZERO, ZERO, BoundaryData("neumann", ZERO_TRACES)),
            "nls": lambda N: problems.build_nls_periodic(N, (0.0, 1.0), 1.0),
        }
        for name, build in builders.items():
            for N in (-1, 0, 1, 2):
                with pytest.raises(ValueError, match="N must be at least 1|n >= 3"):
                    build(N)
            assert build(3).skew.n == 3, name

    def test_symbol_matches_eigenvalues(self):
        op = StencilOperator(16, "periodic", 4, 0.1)
        dense = np.column_stack([op.apply(col) for col in np.eye(16)])
        eig = np.sort(np.linalg.eigvalsh(dense))
        np.testing.assert_allclose(np.sort(op.symbol()), eig, atol=1e-12)
        with pytest.raises(ValueError):
            op.diagonal()

    @pytest.mark.parametrize("name", sorted(_SHIFTED_SYSTEMS))
    def test_preconditioner_is_exact(self, name, rng):
        # make_preconditioner(shift) inverts I + shift (x) L on s rows for the
        # HBVM shift, h^2 X^2 of the separable forms and h X of the NLS
        # semilinear form (complex blocks), wide stencils, boundaries and
        # spectral L included, and leaves its argument untouched
        system = _SHIFTED_SYSTEMS[name]()
        form = system.separable or system.semilinear
        n = system.separable.nq if system.separable else system.dim
        jac = form.linear_operator(np.eye(n)).T
        for s in (1, 2, 3, 6):
            xs = hbvm_tables(s, s).integration_matrix
            for h in (0.05, 2.0, 50.0):
                shift = h * h * (xs @ xs) if system.separable else h * xs
                dense = np.eye(s * n) + np.kron(shift, jac)
                rows = rng.standard_normal((s, n))
                kept = rows.copy()
                expected = np.linalg.solve(dense, rows.ravel()).reshape(s, n)
                np.testing.assert_allclose(form.make_preconditioner(shift)(rows), expected, atol=1e-12)
                np.testing.assert_array_equal(rows, kept)


class TestBuildPeriodic:
    def test_constant_state_zero_energy(self):
        system = build_periodic(16, 2, (0.0, 1.0), ZERO, ZERO)
        y = np.concatenate([np.full(16, 1.3), np.zeros(16)])
        assert system.hamiltonian(y) == pytest.approx(0.0, abs=1e-14)
        np.testing.assert_allclose(system.rhs(y), 0.0, atol=1e-13)

    def test_sine_gordon_initial_energy_level(self):
        system, y0 = problems.sine_gordon_system(gamma=1.0, bc="periodic", scheme="fd2", N=400)
        assert system.hamiltonian(y0) == pytest.approx(16.0 * np.tanh(20.0), abs=1e-8)

    def test_vector_form_equals_componentwise_sum(self, rng):
        N = 24
        system, _ = problems.sine_gordon_system(gamma=1.0, bc="periodic", scheme="fd2", N=N)
        dx = system.descriptor["dx"]
        for _ in range(5):
            q = rng.standard_normal(N)
            p = rng.standard_normal(N)
            total = 0.0
            for i in range(N):
                lap = q[(i - 1) % N] - 2.0 * q[i] + q[(i + 1) % N]
                total += 0.5 * p[i] ** 2 - q[i] * lap / (2.0 * dx**2) + (1.0 - np.cos(q[i]))
            total *= dx
            val = system.hamiltonian(np.concatenate([q, p]))
            assert val == pytest.approx(total, rel=1e-12)

    def test_translation_invariance(self, rng):
        system, _ = problems.sine_gordon_system(gamma=1.0, bc="periodic", scheme="fd2", N=32)
        q = rng.standard_normal(32)
        p = rng.standard_normal(32)
        base = system.hamiltonian(np.concatenate([q, p]))
        for shift in (1, 7):
            rolled = system.hamiltonian(np.concatenate([np.roll(q, shift), np.roll(p, shift)]))
            assert rolled == pytest.approx(base, rel=1e-12)

    def test_too_small_grid_rejected(self):
        with pytest.raises(ValueError):
            build_periodic(4, 4, (0.0, 1.0), ZERO, ZERO)
        with pytest.raises(ValueError):
            build_periodic(16, 3, (0.0, 1.0), ZERO, ZERO)


class TestHighOrderStencilRuns:
    @pytest.mark.parametrize("scheme", ["fd4", "fd6"])
    def test_energy_conserving_run(self, scheme):
        # the exact circulant preconditioner keeps the blended iteration fast
        # for wide stencils (max 7 iterations per step here)
        from hbvm.integrator import HBVMMethod, SolverConfig, integrate

        system, y0 = problems.sine_gordon_system(gamma=1.0, bc="periodic", scheme=scheme, N=200)
        rec = integrate(system, y0, 0.1, 100, HBVMMethod(5, 1), SolverConfig(), record_stride=0)
        assert np.max(np.abs(rec.drift)) <= 1e-12
        assert rec.iterations.max() <= 10

    def test_spatial_accuracy_ordering(self):
        # at a fixed fine stepsize the stencil order dictates the error
        from hbvm.integrator import HBVMMethod, SolverConfig, integrate

        errs = {}
        for scheme in ("fd2", "fd4", "fd6"):
            system, y0 = problems.sine_gordon_system(gamma=1.0, bc="periodic", scheme=scheme, N=100)
            x = system.descriptor["x"]
            worst = 0.0

            def observer(n, t, y):
                nonlocal worst
                worst = max(worst, float(np.max(np.abs(y[:100] - problems.sine_gordon_exact(1.0, x, t)))))

            integrate(system, y0, 0.02, 250, HBVMMethod(5, 1), SolverConfig(), record_stride=0, observer=observer)
            errs[scheme] = worst
        assert errs["fd2"] > 5 * errs["fd4"] > 5 * errs["fd6"]


class TestBuildDirichlet:
    def test_zero_boundary_matches_homogeneous(self, rng):
        boundary = BoundaryData("dirichlet", ZERO_TRACES)
        system = build_dirichlet(12, (0.0, 1.0), problems.sine_gordon_f, problems.sine_gordon_fprime, boundary)
        y = 0.3 * rng.standard_normal(system.dim)
        y[-2:] = [0.7, 0.2]
        r = system.rhs(y)
        assert r[-1] == 0.0  # no energy flux without boundary motion
        # interior dynamics equal the unforced tridiagonal system
        n = system.skew.n
        dx = system.descriptor["dx"]
        op = system.descriptor["stencil"]
        expected = -op.apply(y[:n]) / dx**2 - np.sin(y[:n])
        np.testing.assert_allclose(r[n : 2 * n], expected, atol=1e-13)

    def test_augmented_energy_constant_along_reference(self):
        # small domain -> O(1) boundary forcing, the conservation is nontrivial
        system, y0, _ = build_sg_augmented("dirichlet", 50, (-2.0, 2.0))
        sol = reference_solve(system, y0, (0.0, 1.0), t_eval=np.linspace(0.0, 1.0, 6))
        h = [system.hamiltonian(sol.y[:, i]) for i in range(sol.y.shape[1])]
        assert max(abs(v - h[0]) for v in h) <= 1e-10
        # and the energy actually moves through the boundary
        phys = [system.physical_hamiltonian(sol.y[:, i]) for i in range(sol.y.shape[1])]
        assert max(abs(v - phys[0]) for v in phys) > 1e-3

    def test_energy_change_equals_boundary_flux_integral(self):
        # H(T) - H(0) must match the time integral of the discrete boundary
        # flux (one-sided slopes times boundary velocities)
        system, y0, bdata = build_sg_augmented("dirichlet", 50, (-2.0, 2.0))
        n = system.skew.n
        dx = system.descriptor["dx"]
        T = 1.0
        sol = reference_solve(system, y0, (0.0, T))
        ts = np.linspace(0.0, T, 1601)
        states = sol.sol(ts)
        flux = np.empty(ts.size)
        for i, t in enumerate(ts):
            q = states[:n, i]
            (u0, u1), (d0, d1) = bdata.traces(t)
            flux[i] = (u1 - q[-1]) / dx * d1 - (q[0] - u0) / dx * d0
        change = system.physical_hamiltonian(states[:, -1]) - system.physical_hamiltonian(states[:, 0])
        assert abs(change) > 1e-3  # nontrivial energy exchange
        assert change == pytest.approx(simpson(flux, x=ts), abs=1e-8)

    def test_requires_dirichlet_data(self):
        boundary = problems.sine_gordon_boundary_data(1.0, "neumann")
        with pytest.raises(ValueError):
            build_dirichlet(10, (0.0, 1.0), ZERO, ZERO, boundary)
        with pytest.raises(ValueError):
            BoundaryData("dirichlet", None)


class TestBuildNeumann:
    def test_constant_state_unforced(self):
        boundary = BoundaryData("neumann", ZERO_TRACES)
        system = build_neumann(12, (0.0, 1.0), ZERO, ZERO, boundary)
        n = system.skew.n
        y = np.zeros(system.dim)
        y[:n] = 0.9
        r = system.rhs(y)
        np.testing.assert_allclose(r[n : 2 * n], 0.0, atol=1e-14)

    def test_augmented_energy_constant_along_reference(self):
        system, y0, _ = build_sg_augmented("neumann", 50, (-2.0, 2.0))
        sol = reference_solve(system, y0, (0.0, 1.0), t_eval=np.linspace(0.0, 1.0, 6))
        h = [system.hamiltonian(sol.y[:, i]) for i in range(sol.y.shape[1])]
        assert max(abs(v - h[0]) for v in h) <= 1e-10

    def test_vector_form_equals_expanded_scalar_form(self, rng):
        # independent evaluation of the ghost-cell energy E; the forced
        # energy adds beta(t).(q_1, q_N) = phi_0 q_1 - phi_1 q_N
        N = 18
        system, _, bdata = build_sg_augmented("neumann", N, (-2.0, 2.0))
        for _ in range(5):
            q = rng.standard_normal(N)
            p = rng.standard_normal(N)
            t = rng.random()
            total = ghost_cell_energy(system, bdata, q, p, t)
            (left, right), _ = bdata.traces(t)
            total += float(left) * q[0] - float(right) * q[-1]
            y = np.concatenate([q, p, [t, 0.0]])
            assert system.hamiltonian(y) == pytest.approx(total, rel=1e-12)

    def test_energy_change_equals_boundary_flux_integral(self):
        # E(T) - E(0) of the ghost-cell energy must match the time integral
        # of the boundary power phi_1 p_N - phi_0 p_1 plus the rate of the
        # ghost edges' energy dx (phi_0^2 + phi_1^2) / 2
        system, y0, bdata = build_sg_augmented("neumann", 50, (-2.0, 2.0))
        n = system.skew.n
        dx = system.descriptor["dx"]
        T = 1.0
        sol = reference_solve(system, y0, (0.0, T))
        ts = np.linspace(0.0, T, 1601)
        states = sol.sol(ts)
        flux = np.empty(ts.size)
        for i, t in enumerate(ts):
            p = states[n : 2 * n, i]
            (s0, s1), (d0, d1) = bdata.traces(t)
            flux[i] = s1 * p[-1] - s0 * p[0] + dx * (s0 * d0 + s1 * d1)
        energies = [ghost_cell_energy(system, bdata, states[:n, i], states[n : 2 * n, i], ts[i]) for i in (0, -1)]
        change = energies[1] - energies[0]
        assert abs(change) > 1e-3  # nontrivial energy exchange
        assert change == pytest.approx(simpson(flux, x=ts), abs=1e-8)

    def test_requires_neumann_data(self):
        boundary = problems.sine_gordon_boundary_data(1.0, "dirichlet")
        with pytest.raises(ValueError):
            build_neumann(10, (0.0, 1.0), ZERO, ZERO, boundary)


class TestStrongForcingConservation:
    @settings(max_examples=24, derandomize=True, deadline=None)
    @given(
        bc=st.sampled_from(["dirichlet", "neumann"]),
        half_width=st.floats(2.0, 6.0),
        gamma=st.floats(0.8, 1.3),
        ks=st.sampled_from([(5, 1), (6, 2), (9, 3)]),
    )
    def test_augmented_energy_at_roundoff(self, bc, half_width, gamma, ks):
        # the soliton forces the boundaries of [-L, L] at O(1): HBVM(k,s)
        # with k > s keeps Ht at roundoff, while HBVM(1,1) (the midpoint
        # rule) visibly drifts, so the forcing is not trivial
        from hbvm.integrator import HBVMMethod, SolverConfig, integrate

        system, y0 = problems.sine_gordon_system(gamma, bc, "fd2", N=60, domain=(-half_width, half_width))

        def drift(k, s):
            rec = integrate(system, y0, 0.1, 30, HBVMMethod(k, s), SolverConfig(), record_stride=0)
            return np.max(np.abs(rec.drift))

        assert drift(*ks) <= 1e-12
        assert drift(1, 1) >= 1e-3


class TestPolynomialEnergyConservation:
    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(
        ks=st.sampled_from([(2, 1), (3, 1), (4, 2)]),
        h=st.floats(0.08, 0.12),
        amplitude=st.floats(0.5, 1.2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_exact_up_to_degree_2k_over_s(self, ks, h, amplitude, seed):
        # along the degree-s stage polynomial, grad H . sigma' has degree
        # s deg(f) - 1, which the k-node Gauss rule integrates exactly up to
        # deg(f) = 2k/s: HBVM(k,s) keeps H at roundoff there, on the warm-started
        # blended path, while two degrees more make it drift visibly
        from numpy.polynomial import polynomial
        from hbvm.integrator import HBVMMethod, integrate

        k, s = ks
        degree = 2 * k // s
        rng = np.random.default_rng(seed)
        coeffs = rng.uniform(-0.5, 0.5, degree + 3)
        coeffs[0], coeffs[2], coeffs[degree] = 0.0, rng.uniform(0.0, 1.0), rng.uniform(0.5, 1.0)
        above = coeffs.copy()
        above[degree + 1], above[degree + 2] = 0.0, rng.uniform(0.5, 1.0)
        y0 = amplitude * rng.uniform(-1.0, 1.0, 64)  # every mode of the N=32 mesh

        def drift(c):
            f = lambda u: polynomial.polyval(u, c)
            fprime = lambda u: polynomial.polyval(u, polynomial.polyder(c))
            system = build_periodic(32, 2, (0.0, 2.0 * np.pi), f, fprime)
            rec = integrate(system, y0, h, 60, HBVMMethod(k, s), record_stride=0)
            assert rec.mode == "blended"
            return np.max(np.abs(rec.drift)) / (1.0 + abs(rec.hamiltonian[0]))

        assert drift(coeffs[: degree + 1]) <= 1e-12
        assert drift(above) >= 100 * 1e-12


class TestAugmentedEnergyRecord:
    @pytest.mark.parametrize("name", ["dirichlet", "neumann", "periodic-fd6", "fourier", "nls"])
    def test_one_energy_evaluation_per_step(self, name):
        import dataclasses
        from functools import partial

        from hbvm.integrator import HBVMMethod, integrate

        build, h = {
            "dirichlet": (partial(problems.sine_gordon_system, bc="dirichlet", N=48), 0.1),
            "neumann": (partial(problems.sine_gordon_system, bc="neumann", N=48), 0.1),
            "periodic-fd6": (partial(problems.sine_gordon_system, scheme="fd6", N=48), 0.1),
            "fourier": (partial(problems.sine_gordon_system, scheme="fourier", N=12, m=32), 0.1),
            "nls": (partial(problems.nls_system, N=16), 0.01),
        }[name]
        system, y0 = build()
        rows = []
        counting = dataclasses.replace(system, hamiltonian=lambda y: rows.append(len(y)) or system.hamiltonian(y))
        n_steps = 40  # y0 at entry, then a full batch of 32 states and the last 8
        integrate(counting, y0, h, n_steps, HBVMMethod(5, 1))
        assert sum(rows) == n_steps + 1  # each state's energy once
        assert rows == [1, 32, 8]

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_recorded_physical_energy_is_the_derived_one(self, bc):
        from hbvm.integrator import HBVMMethod, integrate

        system, y0, _ = build_sg_augmented(bc, 48, (-2.0, 2.0))
        rec = integrate(system, y0, 0.1, 10, HBVMMethod(5, 1), record_stride=1)
        np.testing.assert_array_equal(rec.physical_hamiltonian, [system.physical_hamiltonian(y) for y in rec.states])
        assert np.max(np.abs(rec.physical_drift)) > 1e-3  # the forcing moves H, not Ht


class TestBoundaryTraceEvaluations:
    @pytest.mark.parametrize("mode", ["blended", "fixed-point"])
    @pytest.mark.parametrize("bc,gamma", [("dirichlet", 0.9), ("neumann", 1.1)])
    def test_traces_once_per_stage_solve(self, bc, gamma, mode):
        # the forcing depends on the stage times alone: one traces call per stage solve, however many
        # iterations it takes, and one per energy flush (y0 at entry, a full stack of 32, the last 8)
        from hbvm.integrator import HBVMMethod, SolverConfig, integrate

        data, calls = problems.sine_gordon_boundary_data(gamma, bc), []
        counted = BoundaryData(bc, lambda t: calls.append(np.shape(t)) or data.traces(t))
        builder = build_dirichlet if bc == "dirichlet" else build_neumann
        system = builder(48, problems.DEFAULT_DOMAIN, problems.sine_gordon_f, problems.sine_gordon_fprime, counted)
        psi0, psi1 = problems.sine_gordon_initial(gamma)
        x = system.descriptor["x"]
        y0 = np.concatenate([psi0(x), psi1(x), [0.0, 0.0]])
        rec = integrate(system, y0, 0.1, 40, HBVMMethod(6, 2), SolverConfig(mode=mode), record_stride=0)
        assert rec.mode == mode and rec.iterations.sum() > 2 * 40
        assert len(calls) <= 40 + 3
        assert np.max(np.abs(rec.drift)) <= 1e-12
