import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_solve
from hbvm import problems
from hbvm.legendre import hbvm_tables
from hbvm.systems import SkewStructure, energy_sum, hamiltonian_drift, shifted_solver
from hbvm.wave_fd import StencilOperator


def build_all_systems():
    sg_p, y_p = problems.sine_gordon_system(gamma=1.0, bc="periodic", scheme="fd2", N=40)
    sg_6, y_6 = problems.sine_gordon_system(gamma=1.0, bc="periodic", scheme="fd6", N=40)
    sg_d, y_d = problems.sine_gordon_system(gamma=1.0, bc="dirichlet", scheme="fd2", N=40)
    sg_n, y_n = problems.sine_gordon_system(gamma=1.0, bc="neumann", scheme="fd2", N=40)
    sg_f, y_f = problems.sine_gordon_system(gamma=1.0, scheme="fourier", N=12, m=32)
    nls, y_s = problems.nls_system(N=24)
    return {
        "periodic": (sg_p, y_p),
        "periodic-fd6": (sg_6, y_6),
        "dirichlet": (sg_d, y_d),
        "neumann": (sg_n, y_n),
        "fourier": (sg_f, y_f),
        "nls": (nls, y_s),
        "harmonic": (problems.harmonic_oscillator(omega=2.0), np.array([0.7, -0.2])),
        "quartic": (problems.quartic_oscillator(), np.array([1.0, 0.5])),
        "pendulum": (problems.pendulum(), np.array([1.3, 0.4])),
    }


class TestSkewStructure:
    @pytest.mark.parametrize("augmented", [False, True])
    def test_skew_symmetry_random(self, augmented, rng):
        skew = SkewStructure(n=25, scale=10.0, augmented=augmented)
        for _ in range(100):
            g = rng.standard_normal(skew.dim)
            assert abs(g @ skew.apply(g)) <= 1e-13 * (g @ g)

    def test_mapping(self):
        skew = SkewStructure(n=2, scale=4.0)
        g = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(skew.apply(g), [12.0, 16.0, -4.0, -8.0])
        aug = SkewStructure(n=1, scale=2.0, augmented=True)
        np.testing.assert_array_equal(aug.apply(np.array([1.0, 2.0, 3.0, 4.0])), [4.0, -2.0, 4.0, -3.0])

    def test_dimension_mismatch(self):
        for shape in (5, (2, 5)):
            with pytest.raises(ValueError):
                SkewStructure(n=3, scale=1.0).apply(np.zeros(shape))


class TestRhs:
    def test_equilibrium_constant_state(self):
        zero = lambda u: np.zeros_like(u)
        from hbvm.wave_fd import build_periodic

        system = build_periodic(16, 2, (0.0, 1.0), zero, zero)
        y = np.concatenate([np.full(16, 0.7), np.zeros(16)])
        assert system.hamiltonian(y) == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(system.rhs(y), 0.0, atol=1e-14)

    def test_harmonic_rotation(self):
        system = problems.harmonic_oscillator(omega=3.0)
        np.testing.assert_allclose(system.rhs(np.array([1.0, 0.0])), [0.0, -9.0], atol=1e-14)

    def test_rhs_orthogonal_to_gradient(self, rng):
        for name, (system, y0) in build_all_systems().items():
            for _ in range(10):
                y = y0 + 0.05 * rng.standard_normal(system.dim)
                g = system.gradient(y)
                r = system.rhs(y)
                assert abs(r @ g) <= 1e-12 * (g @ g), name

    def test_dimension_mismatch(self):
        system = problems.harmonic_oscillator()
        for shape in (3, (2, 3)):
            with pytest.raises(ValueError):
                system.rhs(np.zeros(shape))

    def test_stage_rows_match_single_states(self, rng):
        # gradient and rhs act on the last axis: a stack of 3 rows gives the
        # rows of 3 single-state calls, bitwise
        for name, (system, y0) in build_all_systems().items():
            rows = y0 + 0.1 * rng.standard_normal((3, system.dim))
            if system.augmented:
                rows[:, 2 * system.skew.n] = [0.1, 0.3, 0.7]
            for fn in (system.gradient, system.rhs):
                want = np.array([fn(y) for y in rows])
                np.testing.assert_array_equal(fn(rows), want, err_msg=name)
            assert system.gradient(np.ones(system.dim, dtype=int)).dtype == float, name


def _closed_force_formulas():
    """(system, pdot oracle) per builder: the force as one closed formula."""
    from hbvm.wave_fourier import nonlinear_term

    out = {}
    for scheme in ("fd2", "fd4", "fd6"):
        system, _ = problems.sine_gordon_system(gamma=1.0, bc="periodic", scheme=scheme, N=40)
        op, dx = system.descriptor["stencil"], system.descriptor["dx"]
        out[f"periodic-{scheme}"] = (system, lambda q, t, op=op, dx=dx: -op.apply(q) / dx**2 - np.sin(q))
    for bc in ("dirichlet", "neumann"):
        system, _ = problems.sine_gordon_system(gamma=1.0, bc=bc, scheme="fd2", N=40)
        op, dx = system.descriptor["stencil"], system.descriptor["dx"]
        data = problems.sine_gordon_boundary_data(1.0, bc)

        def force(q, t, op=op, dx=dx, data=data, bc=bc):
            f = -op.apply(q) / dx**2 - np.sin(q)
            (left, right), _ = data.traces(t)
            if bc == "dirichlet":
                f[:, 0] += left / dx**2
                f[:, -1] += right / dx**2
            else:
                f[:, 0] -= left / dx
                f[:, -1] += right / dx
            return f

        out[bc] = (system, force)
    system, _ = problems.sine_gordon_system(gamma=1.0, scheme="fourier", N=12, m=32)
    spec = system.descriptor["spectral"]
    diag = spec.basis.stiffness_diagonal()
    out["fourier"] = (system, lambda q, t: -q * diag - nonlinear_term(spec, q))
    out["harmonic"] = (problems.harmonic_oscillator(omega=2.0), lambda q, t: -4.0 * q)
    return out


class TestForceContract:
    @pytest.mark.parametrize("name", sorted(_closed_force_formulas()))
    def test_pdot_is_the_closed_force_formula(self, name, rng):
        # pdot(q) = from_grid(accel(to_grid(q))) - L q plus the boundary force at t is the whole force
        system, force = _closed_force_formulas()[name]
        sep = system.separable
        q = rng.standard_normal((5, sep.nq))
        t = rng.uniform(0.0, 2.0, size=5)
        want = force(q, t)
        got = sep.pdot(q) + (sep.forcing(t)[0] if system.augmented else 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


class TestGradientContract:
    def test_gradient_matches_finite_differences(self, rng):
        # componentwise central differences at perturbation 1e-6, on 25
        # sampled slots and, for augmented systems, always the qt-slot: it is
        # dH/dt of the non-autonomous energy, -rate of the forcing.  The extra pair on
        # (-2, 2) is forced at O(1), where a wrong qt-slot shows.
        eps = 1e-6
        systems = build_all_systems()
        for bc in ("dirichlet", "neumann"):
            systems[f"{bc}-forced"] = problems.sine_gordon_system(bc=bc, N=40, domain=(-2.0, 2.0))
        for name, (system, y0) in systems.items():
            y = y0 + 0.1 * rng.standard_normal(system.dim)
            if system.augmented:
                y[2 * system.skew.n] = 0.3
            g = system.gradient(y)
            idx = list(range(system.dim))
            rng.shuffle(idx)
            checked = idx[:25] + ([2 * system.skew.n] if system.augmented else [])
            for i in checked:
                d = np.zeros(system.dim)
                d[i] = eps
                fd = (system.hamiltonian(y + d) - system.hamiltonian(y - d)) / (2 * eps)
                assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-6), (name, i)

    def test_augmented_energy_invariant_along_flow(self, rng):
        # Ht is invariant along ydot = rhs(y): its derivative in the direction
        # rhs(y) vanishes.  On (-2, 2) the soliton forces the boundaries at
        # O(1), so a qt-slot of the wrong sign (ptdot = -g[qt-slot]) moves Ht
        # at rates above 1, far beyond the bound of about 2e-7.
        eps = 1e-6
        for bc in ("dirichlet", "neumann"):
            system, y0 = problems.sine_gordon_system(gamma=1.0, bc=bc, scheme="fd2", N=40, domain=(-2.0, 2.0))
            for _ in range(5):
                y = y0 + 0.1 * rng.standard_normal(system.dim)
                y[2 * system.skew.n] = rng.random()
                r = system.rhs(y)
                rate = (system.hamiltonian(y + eps * r) - system.hamiltonian(y - eps * r)) / (2 * eps)
                assert abs(rate) <= 1e-8 * (1.0 + abs(system.hamiltonian(y))), bc

    def test_augmented_time_rate_is_one(self, rng):
        for bc in ("dirichlet", "neumann"):
            system, y0 = problems.sine_gordon_system(gamma=1.0, bc=bc, scheme="fd2", N=20)
            y = y0 + 0.1 * rng.standard_normal(system.dim)
            assert system.rhs(y)[2 * system.skew.n] == 1.0


class TestDerivedFields:
    def test_dim_and_physical_energy_follow_the_fields(self):
        from dataclasses import replace

        system, y0 = problems.sine_gordon_system(gamma=1.0, bc="dirichlet", scheme="fd2", N=20)
        assert system.dim == system.skew.dim == 42
        y = y0.copy()
        y[-1] = 0.25
        assert system.physical_hamiltonian(y) == system.hamiltonian(y) - 0.25
        # a copy with a replaced energy derives its physical energy from that one
        doubled = replace(system, hamiltonian=lambda y: 2.0 * system.hamiltonian(y))
        assert doubled.physical_hamiltonian(y) == 2.0 * system.hamiltonian(y) - 0.25
        plain = problems.harmonic_oscillator()
        assert plain.physical_hamiltonian(np.array([1.0, 0.5])) == plain.hamiltonian(np.array([1.0, 0.5]))


class TestHamiltonianDrift:
    def test_single_state(self):
        system = problems.harmonic_oscillator()
        np.testing.assert_array_equal(hamiltonian_drift(system, [np.array([1.0, 2.0])]), [0.0])

    def test_empty_trajectory_rejected(self):
        system = problems.harmonic_oscillator()
        with pytest.raises(ValueError):
            hamiltonian_drift(system, np.zeros((0, 2)))

    def test_conserved_along_reference_flow(self):
        system, y0 = problems.sine_gordon_system(gamma=1.0, bc="periodic", scheme="fd2", N=32)
        sol = reference_solve(system, y0, (0.0, 2.0), t_eval=np.linspace(0.0, 2.0, 9))
        drift = hamiltonian_drift(system, sol.y.T)
        assert np.max(np.abs(drift)) <= 1e-9


class TestShiftedSolver:
    @pytest.mark.parametrize("s", range(1, 7))
    @pytest.mark.parametrize("kind", ["real", "imaginary", "circulant"])
    def test_matches_a_dense_solve(self, kind, s, rng):
        # (I + shift (x) L) c = r against np.linalg.solve of the dense matrix, mode by mode, over the
        # ranges the blended step meets: L >= 0 with shift = h^2 X^2 and lambda h^2 in {0} and
        # [1e-3, 1e6], imaginary L = i tau / h with shift = h X and |tau| in [1e-3, 1e6], and a
        # circulant fd6 stencil through the rfft/irfft maps
        h, xs, maps = 0.3, hbvm_tables(s, s).integration_matrix, ()
        scaled = np.concatenate([[0.0], np.logspace(-3.0, 6.0, 46)])
        if kind == "real":
            shift, eigenvalues = h * h * (xs @ xs), scaled / h**2
            rows = rng.standard_normal((s, eigenvalues.size))
        elif kind == "imaginary":
            shift, eigenvalues = h * xs, 1j * scaled[1:] * np.resize([1.0, -1.0], scaled.size - 1) / h
            rows = rng.standard_normal((s, eigenvalues.size)) + 1j * rng.standard_normal((s, eigenvalues.size))
        else:  # lambda h^2 up to 2200
            op, h = StencilOperator(16, "periodic", 6, 1.0), 20.0
            shift, eigenvalues = h * h * (xs @ xs), op.symbol()[:9]
            maps = (partial(np.fft.rfft, axis=1), partial(np.fft.irfft, n=16, axis=1))
            rows = rng.standard_normal((s, 16))
        lin = np.column_stack([op.apply(col) for col in np.eye(16)]) if maps else np.diag(eigenvalues)
        solver = shifted_solver(shift, eigenvalues, *maps)
        kept = rows.copy()
        expected = np.linalg.solve(np.eye(rows.size) + np.kron(shift, lin), rows.ravel()).reshape(rows.shape)
        error = np.max(np.abs(solver(rows) - expected), axis=0)
        assert np.all(error <= 1e-13 * np.max(np.abs(expected), axis=0))
        np.testing.assert_array_equal(rows, kept)


def _fsum_energy(system, y):
    """The energy of a sine-Gordon or NLS system summed by math.fsum: a reference, exactly rounded per sum."""
    desc = system.descriptor
    if system.semilinear is not None:
        u, v = y.reshape(2, -1)
        dx = desc["dx"]
        op = StencilOperator(u.size, "periodic", 2, dx)
        dens = u * u + v * v
        terms = (u * op.apply(u) + v * op.apply(v)) / (2.0 * dx) - 0.5 * desc["kappa"] * dx * dens * dens
        return math.fsum(terms.tolist())
    n = system.separable.nq
    q, p = y[:n], y[n:]
    if "spectral" in desc:
        spec = desc["spectral"]
        u = system.separable.to_grid(q)
        kinetic = math.fsum((0.5 * p * p).tolist())
        elastic = math.fsum((0.5 * spec.basis.stiffness_diagonal() * q * q).tolist())
        return kinetic + elastic + (spec.basis.length / spec.m) * math.fsum(problems.sine_gordon_f(u).tolist())
    dx = desc["dx"]
    terms = 0.5 * p * p + q * desc["stencil"].apply(q) / (2.0 * dx**2) + problems.sine_gordon_f(q)
    return dx * math.fsum(terms.tolist())


class TestEnergySum:
    @given(
        n=st.integers(0, 3000),
        seed=st.integers(0, 2**32 - 1),
        cancel=st.booleans(),
    )
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_within_an_ulp_of_the_exactly_rounded_sum(self, n, seed, cancel):
        rng = np.random.default_rng(seed)
        terms = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12.0, 3.0, n)
        if cancel:  # heavy cancellation: the terms and most of their negatives, shuffled
            terms = rng.permutation(np.concatenate([terms, -terms[: n - n // 8]]))
        exact = math.fsum(terms.tolist())
        bound = np.spacing(abs(exact)) + 2.0**-60 * math.fsum(np.abs(terms).tolist())
        assert abs(energy_sum(terms) - exact) <= bound

    def test_empty_sum_is_zero(self):
        assert energy_sum(np.zeros(0)) == 0.0

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="long double is a plain double here")
    def test_wide_long_double_is_used_where_available(self):
        # 2^-70 survives exact summation but not a 64-bit mantissa: the result tells the paths apart
        assert math.fsum([1.0, 2.0**-70, -1.0]) == 2.0**-70
        assert energy_sum(np.array([1.0, 2.0**-70, -1.0])) == 0.0

    @pytest.mark.parametrize("name", ["periodic-fd2", "fourier", "nls"])
    def test_recorded_energy_matches_exact_summation(self, name):
        from hbvm.integrator import HBVMMethod, integrate

        build, h = {
            "periodic-fd2": (partial(problems.sine_gordon_system, scheme="fd2", N=64), 0.1),
            "fourier": (partial(problems.sine_gordon_system, scheme="fourier", N=16, m=40), 0.1),
            "nls": (partial(problems.nls_system, N=16), 0.01),
        }[name]
        system, y0 = build()
        rec = integrate(system, y0, h, 20, HBVMMethod(5, 1), record_stride=1)
        reference = np.array([_fsum_energy(system, y) for y in rec.states])
        assert len(reference) == 21
        assert np.all(np.abs(rec.hamiltonian - reference) <= np.spacing(np.abs(reference)))
        assert np.max(np.abs(rec.drift)) > 0.0  # the trajectory moves the summed terms


_ROW_CASES = {
    "periodic-fd2": lambda: problems.sine_gordon_system(scheme="fd2", N=24),
    "periodic-fd4": lambda: problems.sine_gordon_system(scheme="fd4", N=24),
    "periodic-fd6": lambda: problems.sine_gordon_system(scheme="fd6", N=24),
    "dirichlet": lambda: problems.sine_gordon_system(gamma=0.9, bc="dirichlet", N=24),
    "neumann": lambda: problems.sine_gordon_system(gamma=0.9, bc="neumann", N=24),
    "fourier": lambda: problems.sine_gordon_system(scheme="fourier", N=8, m=20),
    "nls": lambda: problems.nls_system(N=16),
    "quartic-wave": lambda: problems.quartic_wave_system(N=16),
    "harmonic": lambda: (problems.harmonic_oscillator(omega=2.0), np.array([0.7, -0.2])),
    "quartic": lambda: (problems.quartic_oscillator(), np.array([1.0, 0.5])),
    "pendulum": lambda: (problems.pendulum(), np.array([1.3, 0.4])),
}


def _drawn_states(system, y0, rows, seed, scale):
    """rows states scattered around y0; augmented ones each at their own time in [-10, 10]."""
    rng = np.random.default_rng(seed)
    states = y0 + scale * rng.standard_normal((rows, system.dim))
    if system.augmented:
        states[:, -2] = rng.uniform(-10.0, 10.0, rows)
    return states


class TestHamiltonianRows:
    """hamiltonian maps a (rows, dim) stack to (rows,) energies, bitwise the per-row calls."""

    @pytest.mark.parametrize("name", sorted(_ROW_CASES))
    @settings(max_examples=15, derandomize=True, deadline=None)
    @given(rows=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 2.0))
    def test_stack_is_bitwise_the_per_row_calls(self, name, rows, seed, scale):
        system, y0 = _ROW_CASES[name]()
        states = _drawn_states(system, y0, rows, seed, scale)
        single = [system.hamiltonian(y) for y in states]
        assert all(isinstance(value, float) for value in single)
        stacked = system.hamiltonian(states)
        assert stacked.shape == (rows,)
        assert stacked.tobytes() == np.array(single).tobytes()
        physical = [system.physical_hamiltonian(y) for y in states]
        assert system.physical_hamiltonian(states).tobytes() == np.array(physical).tobytes()
        np.testing.assert_array_equal(hamiltonian_drift(system, states), stacked - stacked[0])

    @pytest.mark.parametrize("name", ["periodic-fd6", "dirichlet", "fourier", "nls"])
    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(rows=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_fsum_fallback_keeps_the_row_contract(self, name, rows, seed):
        # without a wide long double energy_sum is math.fsum per row: exactly rounded, so it may differ
        # from the long double sum by an ulp, but its stack is still bitwise the per-row calls
        system, y0 = _ROW_CASES[name]()
        states = _drawn_states(system, y0, rows, seed, 0.1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("hbvm.systems._WIDE_SUM", False)
            single = [system.hamiltonian(y) for y in states]
            stacked = system.hamiltonian(states)
            terms = np.random.default_rng(seed).standard_normal((rows, 50))
            sums = energy_sum(terms)
            assert isinstance(energy_sum(terms[0]), float)
            assert energy_sum(np.array([[1.0, 2.0**-70, -1.0]] * 2)).tolist() == [2.0**-70] * 2  # fsum, exactly
        assert all(isinstance(value, float) for value in single)
        assert stacked.shape == (rows,) and stacked.tobytes() == np.array(single).tobytes()
        assert sums.tolist() == [math.fsum(row) for row in terms.tolist()]


class TestReentrancy:
    def test_concurrent_integrations_share_a_system(self):
        # systems are immutable; parallel integrations must match serial ones
        import threading

        from hbvm.integrator import HBVMMethod, SolverConfig, integrate

        system, y0 = problems.sine_gordon_system(gamma=1.0, bc="periodic", scheme="fd2", N=64)
        seeds = [0.0, 0.02, 0.05, 0.1]
        serial = [
            integrate(system, y0 + s, 0.1, 30, HBVMMethod(3, 1), SolverConfig(), record_stride=0).final_state
            for s in seeds
        ]
        results = [None] * len(seeds)

        def work(i, s):
            rec = integrate(system, y0 + s, 0.1, 30, HBVMMethod(3, 1), SolverConfig(), record_stride=0)
            results[i] = rec.final_state

        threads = [threading.Thread(target=work, args=(i, s)) for i, s in enumerate(seeds)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for got, want in zip(results, serial):
            np.testing.assert_array_equal(got, want)
