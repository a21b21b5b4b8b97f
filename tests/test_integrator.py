import threading
import warnings

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from conftest import fd_jacobian, fitted_rate, hbvm_newton_step, rk_step_direct
from hbvm import problems
from hbvm.comparators import composition_scheme, integrate_explicit
from hbvm.integrator import (
    HBVMMethod,
    SolverConfig,
    SolverError,
    StepDiagnostics,
    StepFailure,
    drive,
    integrate,
    Stepper,
    rk_tableau,
    step,
    _warm_starts,
)
from hbvm.legendre import gauss_rule
from hbvm.systems import SeparableForm, hamiltonian_drift, separable_system, shifted_solver
from hbvm.wave_fourier import build_fourier


class TestStepBasics:
    def test_midpoint_closed_form(self):
        # HBVM(1,1) is the implicit midpoint rule; compare with the exact
        # linear-system resolvent
        omega = 2.0
        system = problems.harmonic_oscillator(omega=omega)
        a_mat = np.array([[0.0, 1.0], [-omega**2, 0.0]])
        y0 = np.array([0.7, -0.2])
        h = 0.23
        expected = np.linalg.solve(np.eye(2) - 0.5 * h * a_mat, (np.eye(2) + 0.5 * h * a_mat) @ y0)
        # tol = 1e-14 h holds the coefficient update itself to 1e-14
        y1, diag = step(system, y0, h, HBVMMethod(1, 1), SolverConfig(mode="fixed-point", tol=1e-14 * h))
        np.testing.assert_allclose(y1, expected, atol=1e-13)
        assert diag.residual <= 1e-14 * h

    def test_invalid_inputs(self):
        system = problems.harmonic_oscillator()
        with pytest.raises(ValueError):
            step(system, np.zeros(2), -0.1, HBVMMethod(2, 1))
        with pytest.raises(ValueError):
            step(system, np.zeros(3), 0.1, HBVMMethod(2, 1))
        with pytest.raises(ValueError):
            HBVMMethod(1, 2)
        with pytest.raises(ValueError):
            SolverConfig(tol=float("nan"))
        with pytest.raises(ValueError, match="unknown solver mode"):
            SolverConfig(mode="simplified-newton-dense")

    def test_quartic_oscillator_polynomial_conservation(self):
        # degree-4 energy with 2k/s = 4: conserved to roundoff
        system = problems.quartic_oscillator()
        rec = integrate(system, np.array([1.0, 0.5]), 0.3, 1000, HBVMMethod(2, 1), SolverConfig(mode="fixed-point"))
        assert np.max(np.abs(rec.drift)) <= 1e-13

    def test_energy_error_scales_with_quadrature_order(self):
        # for non-polynomial energies the single-step defect is O(h^(2k+1))
        system = problems.pendulum()
        y0 = np.array([1.3, 0.4])
        cfg = SolverConfig(mode="fixed-point", tol=1e-16)
        defects = {}
        for k in (1, 2):
            errs = []
            for h in (0.1, 0.05, 0.025):
                y1, _ = step(system, y0, h, HBVMMethod(k, 1), cfg)
                errs.append(abs(system.hamiltonian(y1) - system.hamiltonian(y0)))
            defects[k] = errs
            rate = np.log2(errs[-2] / errs[-1])
            assert rate == pytest.approx(2 * k + 1, abs=0.5)
        # raising k by one multiplies the defect by roughly h^2 x constants
        assert defects[1][0] / defects[2][0] > 1e3

    def test_separable_and_generic_paths_agree(self):
        system = problems.pendulum()
        generic = replace(system, separable=None)
        y0 = np.array([1.2, 0.3])
        cfg = SolverConfig(mode="fixed-point", tol=1e-15)
        for k, s in ((2, 1), (4, 2), (6, 3)):
            y_sep, _ = step(system, y0, 0.1, HBVMMethod(k, s), cfg)
            y_gen, _ = step(generic, y0, 0.1, HBVMMethod(k, s), cfg)
            np.testing.assert_allclose(y_sep, y_gen, atol=1e-14)


_PRECONDITIONED = {
    "periodic-fd6": lambda: problems.sine_gordon_system(gamma=1.0, bc="periodic", scheme="fd6", N=64)[0],
    "dirichlet-fd2": lambda: problems.sine_gordon_system(gamma=1.0, bc="dirichlet", scheme="fd2", N=64)[0],
    "fourier": lambda: problems.sine_gordon_system(gamma=1.0, scheme="fourier", N=16, m=32)[0],
    "harmonic": lambda: problems.harmonic_oscillator(omega=2.0),
    # h |L| reaches 200 at N=64; the small kappa keeps h 2 kappa |psi|^2, the
    # part the blended step iterates on, contracting for the drawn states
    "nls": lambda: problems.nls_system(N=64, kappa=0.02)[0],
}

_FIXED_POINT_SYSTEMS = {**_PRECONDITIONED, "nls": lambda: problems.nls_system(N=16)[0]}


class TestCoefficientSolvers:
    def test_linear_system_fixed_point_matches_dense_newton(self, rng):
        zero = lambda u: np.zeros_like(u)
        from hbvm.wave_fd import build_periodic

        system = build_periodic(24, 2, (0.0, 1.0), zero, zero)
        y0 = rng.standard_normal(system.dim) * 0.3
        h = 0.005
        method = HBVMMethod(3, 2)
        y_fp, _ = Stepper(system, h, method, SolverConfig(tol=1e-15, mode="fixed-point"))(y0)
        np.testing.assert_allclose(y_fp, hbvm_newton_step(system, y0, h, method, tol=1e-15), atol=1e-12)

    def test_zero_state_converges_immediately(self):
        stepper = Stepper(problems.quartic_oscillator(), 0.1, HBVMMethod(2, 1), SolverConfig(mode="fixed-point"))
        _, diag = stepper(np.zeros(2))
        assert diag.iterations == 1
        np.testing.assert_array_equal(stepper.coefficients(np.zeros(2)), 0.0)

    def test_fixed_point_iteration_count_on_wave_run(self):
        system, y0 = problems.sine_gordon_system(gamma=1.0, bc="periodic", scheme="fd2", N=400)
        cfg = SolverConfig(mode="fixed-point", tol=1e-8)
        _, diag = step(system, y0, 0.1, HBVMMethod(5, 1), cfg)
        assert diag.iterations <= 30

    def test_blended_matches_fixed_point_on_wave_systems(self):
        # same root from both solvers, within 10x tolerance
        tol = 1e-13
        h = 0.05
        for bc in ("periodic", "dirichlet", "neumann"):
            system, y0 = problems.sine_gordon_system(gamma=1.0, bc=bc, scheme="fd2", N=200)
            g_fp = Stepper(system, h, HBVMMethod(5, 1), SolverConfig(tol=tol, mode="fixed-point")).coefficients(y0)
            g_bl = Stepper(system, h, HBVMMethod(5, 1), SolverConfig(tol=tol, mode="blended")).coefficients(y0)
            assert np.max(np.abs(g_fp - g_bl)) <= 10 * tol * (1 + np.max(np.abs(y0)))

    @pytest.mark.parametrize("k,s,solves", [(5, 1, 1), (4, 2, 1)])
    def test_blended_preconditioner_solves_per_iteration(self, k, s, solves):
        system, y0 = problems.sine_gordon_system(gamma=1.0, bc="periodic", scheme="fd6", N=64)
        calls = []
        make = system.separable.make_preconditioner

        def counted(shift):
            solve = make(shift)
            return lambda rows: calls.append(1) or solve(rows)

        system = replace(system, separable=replace(system.separable, make_preconditioner=counted))
        _, diag = step(system, y0, 0.1, HBVMMethod(k, s), SolverConfig(mode="blended"))
        assert diag.iterations >= 3
        assert len(calls) == solves * diag.iterations

    @pytest.mark.parametrize("name", ["wave", "harmonic"])
    def test_blended_solves_a_linear_problem_in_one_step(self, name, rng):
        # with no nonlinear remainder the first blended iterate is the exact
        # stage solution at every s, and the second confirms it
        if name == "wave":
            zero = lambda u: np.zeros_like(u)
            from hbvm.wave_fd import build_periodic

            system = build_periodic(64, 2, (0.0, 1.0), zero, zero)
            h = system.descriptor["dx"]
        else:
            system, h = problems.harmonic_oscillator(omega=3.0), 0.5
        y0 = 0.5 * rng.standard_normal(system.dim)
        for s in range(1, 7):
            _, diag = step(system, y0, h, HBVMMethod(s + 2, s), SolverConfig(mode="blended"))
            assert diag.iterations == 2, s

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        name=st.sampled_from(sorted(_PRECONDITIONED)),
        s=st.integers(1, 4),
        extra_nodes=st.integers(0, 2),
        h=st.floats(0.01, 0.5),
        seed=st.integers(0, 2**32 - 1),
        amplitude=st.floats(0.1, 2.0),
    )
    def test_blended_matches_newton_oracle(self, name, s, extra_nodes, h, seed, amplitude):
        # the exact stiff-linear step (I + h^2 X^2 (x) L on the separable
        # systems, I + h X (x) L on NLS) and the full-state Newton oracle
        # solve the same stage equations
        system = _PRECONDITIONED[name]()
        method = HBVMMethod(s + extra_nodes, s)
        y0 = amplitude * np.random.default_rng(seed).standard_normal(system.dim)
        cfg = SolverConfig(mode="blended")
        y_bl, _ = step(system, y0, h, method, cfg)
        y_nd = hbvm_newton_step(system, y0, h, method, cfg.tol, cfg.max_iter)
        assert np.max(np.abs(y_bl - y_nd)) <= 100 * cfg.tol * (1.0 + np.max(np.abs(y0)))

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        name=st.sampled_from(sorted(_FIXED_POINT_SYSTEMS)),
        s=st.integers(1, 3),
        extra_nodes=st.integers(0, 2),
        fraction=st.floats(0.05, 0.5),
        seed=st.integers(0, 2**32 - 1),
        amplitude=st.floats(0.1, 2.0),
    )
    def test_fixed_point_matches_newton_oracle(self, name, s, extra_nodes, fraction, seed, amplitude):
        # h = fraction / r, with r = |J^2|_inf^(1/2) >= rho(J) for the
        # Jacobian J at y0, keeps the plain fixed point contracting
        # (h rho(X) rho(J) <= 1/4, rho(X) <= 1/2); there it solves the same
        # stage equations as the full-state Newton oracle
        system = _FIXED_POINT_SYSTEMS[name]()
        method = HBVMMethod(s + extra_nodes, s)
        y0 = amplitude * np.random.default_rng(seed).standard_normal(system.dim)
        jac = fd_jacobian(system.rhs, y0)
        h = fraction / np.sqrt(np.max(np.sum(np.abs(jac @ jac), axis=1)))
        cfg = SolverConfig(mode="fixed-point")
        y_fp, _ = step(system, y0, h, method, cfg)
        y_nd = hbvm_newton_step(system, y0, h, method, cfg.tol, cfg.max_iter)
        assert np.max(np.abs(y_fp - y_nd)) <= 100 * cfg.tol * (1.0 + np.max(np.abs(y0)))

    @pytest.mark.parametrize("k,s", [(5, 1), (6, 2)])
    def test_newton_oracle_does_not_share_the_stage_positions(self, k, s):
        # both modes build their stage positions from stage_weights; off by
        # 1e-9 relative they still agree with each other, and only the
        # oracle, which never reads stage_weights, sees the error
        class OffPositions(HBVMMethod):
            @property
            def tables(self):
                tab = super().tables
                return replace(tab, stage_weights=(1 + 1e-9) * tab.stage_weights)

        system = _PRECONDITIONED["periodic-fd6"]()
        y0, h, tol = np.random.default_rng(0).standard_normal(system.dim), 0.3, SolverConfig.tol
        bound = 100 * tol * (1.0 + np.max(np.abs(y0)))
        y_bl, _ = Stepper(system, h, OffPositions(k, s), SolverConfig(mode="blended"))(y0)
        y_fp, _ = Stepper(system, h, OffPositions(k, s), SolverConfig(mode="fixed-point"))(y0)
        assert np.max(np.abs(y_bl - y_fp)) <= bound
        y_nd = hbvm_newton_step(system, y0, h, HBVMMethod(k, s), tol)
        assert np.max(np.abs(y_bl - y_nd)) > bound
        assert np.max(np.abs(y_fp - y_nd)) > bound

    def test_fd_jacobian_from_row_probes(self):
        # entry [i, j] is d rhs_i / d y_j, each probe scaled by its own step
        y = np.array([1.3, 0.4])
        exact = np.array([[0.0, 1.0], [-np.cos(1.3), 0.0]])
        np.testing.assert_allclose(fd_jacobian(problems.pendulum().rhs, y), exact, atol=1e-8)

    @pytest.mark.parametrize("mode", ["fixed-point", "blended"])
    def test_generic_solve_evaluates_all_stages_in_one_call(self, mode):
        # one gradient (blended: nonlinear) call on the k stage rows per iteration
        system, y0 = problems.nls_system(N=16)
        system, calls = _counting(system)
        _, diag = step(system, y0, 0.01, HBVMMethod(5, 1), SolverConfig(mode=mode))
        assert len(calls) == diag.iterations

    def test_blended_rejected_without_a_stiff_part(self):
        # the pendulum's force is all pointwise: no L for the blended step to solve
        system, y0 = problems.pendulum(), np.array([0.5, 1.0])
        with pytest.raises(SolverError):
            Stepper(system, 0.01, HBVMMethod(2, 1), SolverConfig(mode="blended")).coefficients(y0)
        with pytest.raises(SolverError):
            step(system, y0, 0.01, HBVMMethod(2, 1), SolverConfig(mode="blended"))

    def test_nonconvergence_reports_failure(self):
        system, y0 = problems.sine_gordon_system(gamma=1.0, bc="periodic", scheme="fd2", N=100)
        cfg = SolverConfig(mode="fixed-point", tol=1e-15, max_iter=3)
        with pytest.raises(SolverError) as err:
            step(system, y0, 0.4, HBVMMethod(5, 1), cfg)
        assert err.value.diagnostics.iterations == 3
        with pytest.raises(StepFailure) as fail:
            integrate(system, y0, 0.4, 5, HBVMMethod(5, 1), cfg)
        assert fail.value.step_index == 1
        assert fail.value.partial is not None


def _counting(system):
    """Copy of system that counts evaluations of its right-hand side."""
    calls = []
    changes = {"gradient": lambda y: calls.append(1) or system.gradient(y)}
    if system.separable is not None:
        accel = system.separable.accel
        changes["separable"] = replace(system.separable, accel=lambda q: calls.append(1) or accel(q))
    if system.semilinear is not None:
        nonlinear = system.semilinear.nonlinear
        changes["semilinear"] = replace(system.semilinear, nonlinear=lambda y: calls.append(1) or nonlinear(y))
    return replace(system, **changes), calls


def _pendulum_run(n_steps=2, record_stride=1):
    return integrate(problems.pendulum(), np.array([0.5, 1.0]), 0.1, n_steps, HBVMMethod(2, 1), record_stride=record_stride)


_FAIL_FAST_SYSTEMS = {
    "fd6": lambda: problems.sine_gordon_system(gamma=1.0, bc="periodic", scheme="fd6", N=40),
    "fourier": lambda: problems.sine_gordon_system(gamma=1.0, scheme="fourier", N=8, m=16),
    "nls": lambda: problems.nls_system(N=16),
}


def _nan_field_system(name, column=None):
    """A _FAIL_FAST_SYSTEMS system whose force (accel, or gradient and nonlinear) is NaN in every
    column, or else zero with a NaN in one column."""
    system, y0 = _FAIL_FAST_SYSTEMS[name]()

    def nan_field(rows):
        out = np.zeros_like(rows)
        out[..., slice(None) if column is None else column] = np.nan
        return out

    if system.separable is not None:
        return replace(system, separable=replace(system.separable, accel=nan_field)), y0
    return replace(system, gradient=nan_field, semilinear=replace(system.semilinear, nonlinear=nan_field)), y0


class TestFailFast:
    @pytest.mark.parametrize("name", sorted(_FAIL_FAST_SYSTEMS))
    @pytest.mark.parametrize("h", [np.nan, np.inf, 0.0, -0.1, None])
    def test_invalid_step_input_rejected_before_iterating(self, name, h):
        # h=None stands for a valid stepsize with a NaN entry in the state
        system, y0 = _FAIL_FAST_SYSTEMS[name]()
        system, calls = _counting(system)
        if h is None:
            h, y0 = 0.01, y0.copy()
            y0[3] = np.nan
        with pytest.raises(ValueError):
            step(system, y0, h, HBVMMethod(3, 1))
        with pytest.raises(ValueError):
            integrate(system, y0, h, 2, HBVMMethod(3, 1))
        assert calls == []

    @pytest.mark.parametrize(
        "h,n_steps", [(np.nan, 2), (np.inf, 2), (0.0, 2), (-0.1, 2), (None, 2), (0.01, -1)]
    )
    def test_explicit_input_rejected_before_stepping(self, h, n_steps):
        # h=None stands for a valid stepsize with a NaN entry in the state
        system, y0 = _FAIL_FAST_SYSTEMS["fd6"]()
        system, calls = _counting(system)
        if h is None:
            h, y0 = 0.01, y0.copy()
            y0[3] = np.nan
        with pytest.raises(ValueError):
            integrate_explicit(system, y0, h, n_steps, composition_scheme(4))
        assert calls == []

    def test_non_contracting_iteration_stops_before_overflow(self):
        # NLS N=64 at h = 0.01 lies far past the fixed-point limit near
        # dx^2/2: its updates fall to iteration 7 of step 1, then double, and
        # it stops as diverging.  At h = 0.005 the updates of step 16 level
        # off just above tol (2.2e-15 .. 2.8e-15), a rounding plateau that
        # stops as stalled, naming tol.  Both stop ten iterations after the
        # smallest update
        system, y0 = problems.nls_system(N=64)
        cfg = SolverConfig(mode="fixed-point")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepFailure, match="diverging") as fail:
                integrate(system, y0, 0.01, 5, HBVMMethod(5, 1), cfg)
            assert fail.value.step_index == 1
            assert fail.value.diagnostics.iterations <= 20
            with pytest.raises(StepFailure, match=r"stalled at residual \S+ above tol 2\.0e-15") as fail:
                integrate(system, y0, 0.005, 40, HBVMMethod(5, 1), cfg)
            assert fail.value.step_index == 16
            assert fail.value.diagnostics.iterations <= 20

    def test_oscillating_updates_still_converge(self):
        # near its stability edge the plain fixed point on fd6 N=400 has
        # updates that swing up by several times on their way down to tol;
        # a new smallest one every few iterations lets the solve finish
        system, y0 = problems.sine_gordon_system(gamma=1.0, bc="periodic", scheme="fd6", N=400)
        rec = integrate(system, y0, 0.2, 10, HBVMMethod(8, 4), SolverConfig(mode="fixed-point"), record_stride=0)
        assert rec.iterations.mean() > 20

    @pytest.mark.parametrize(
        "name,mode",
        [
            ("fd6", "fixed-point"),
            ("fd6", "blended"),
            ("nls", "fixed-point"),
            ("nls", "blended"),
        ],
    )
    def test_non_finite_rhs_stops_the_solve(self, name, mode):
        # the separable solve's coefficients are the momentum derivative (p);
        # the full-state solve of NLS names u as q
        system, y0 = _nan_field_system(name)
        field = "p" if system.separable is not None else "q"
        match = f"{mode} .*non-finite residual at iteration 1, first in coefficient row 0, field {field}, node 0$"
        with pytest.raises(SolverError, match=match) as err:
            step(system, y0, 0.01, HBVMMethod(3, 1), SolverConfig(mode=mode))
        assert err.value.diagnostics.iterations <= 2

    @pytest.mark.parametrize(
        "name,column,field,node", [("fd6", 7, "p", 7), ("nls", 7, "p", 7), ("nls", 16 + 3, "q", 3)]
    )
    def test_non_finite_entry_is_named_by_field_and_node(self, name, column, field, node):
        # the fixed point sends each force column to one slot, so one bad
        # column names its own: on NLS, -dH/du drives v (p) and dH/dv drives u (q)
        system, y0 = _nan_field_system(name, column)
        with pytest.raises(SolverError, match=f"row 0, field {field}, node {node}$"):
            step(system, y0, 0.01, HBVMMethod(3, 1), SolverConfig(mode="fixed-point"))

    @pytest.mark.parametrize(
        "name,call",
        [
            ("k", lambda: HBVMMethod(5.0, 1)),
            ("k", lambda: HBVMMethod(True, True)),
            ("s", lambda: HBVMMethod(5, 1.0)),
            ("max_iter", lambda: SolverConfig(max_iter=2.5)),
            ("max_iter", lambda: SolverConfig(max_iter=True)),
            ("n_steps", lambda: _pendulum_run(n_steps=2.0)),
            ("record_stride", lambda: _pendulum_run(record_stride=-1)),
            ("record_stride", lambda: _pendulum_run(record_stride=2.5)),
        ],
    )
    def test_non_integer_size_rejected_at_entry(self, name, call):
        HBVMMethod(5, 1)  # a cached (5, 1) must not let 5.0 through
        with pytest.raises(ValueError, match=name):
            call()


def _counting_builds(system):
    """Copy of system that counts make_preconditioner calls."""
    builds = []
    make = system.separable.make_preconditioner
    counted = lambda shift: builds.append(1) or make(shift)
    return replace(system, separable=replace(system.separable, make_preconditioner=counted)), builds


class TestStepper:
    @pytest.mark.parametrize("bc,scheme", [("periodic", "fd6"), ("dirichlet", "fd2")])
    @pytest.mark.parametrize("k,s", [(5, 1), (6, 2)])
    def test_integrate_builds_the_preconditioner_once(self, bc, scheme, k, s):
        system, y0 = problems.sine_gordon_system(gamma=1.0, bc=bc, scheme=scheme, N=64)
        system, builds = _counting_builds(system)
        rec = integrate(system, y0, 0.1, 10, HBVMMethod(k, s), record_stride=0)
        assert rec.mode == "blended"
        assert len(builds) == 1

    def test_repeated_step_equals_a_fresh_stepper(self):
        system, y0 = problems.sine_gordon_system(gamma=1.0, bc="dirichlet", scheme="fd2", N=64)
        system, builds = _counting_builds(system)
        method, cfg = HBVMMethod(6, 2), SolverConfig()
        step(system, y0, 0.1, method, cfg)
        y1, diag = step(system, y0, 0.1, HBVMMethod(6, 2), SolverConfig())
        assert len(builds) == 1
        fresh, fresh_diag = Stepper(system, 0.1, method, cfg)(y0)
        np.testing.assert_array_equal(y1, fresh)
        assert (diag.iterations, diag.residual) == (fresh_diag.iterations, fresh_diag.residual)

    def test_other_arguments_rebuild(self):
        system, y0 = problems.sine_gordon_system(gamma=1.0, bc="periodic", scheme="fd6", N=64)
        system, builds = _counting_builds(system)
        calls = [
            (system, 0.1, HBVMMethod(5, 1), SolverConfig()),
            (system, 0.05, HBVMMethod(5, 1), SolverConfig()),
            (system, 0.05, HBVMMethod(5, 1), SolverConfig(tol=1e-14)),
            (replace(system), 0.05, HBVMMethod(5, 1), SolverConfig(tol=1e-14)),
            (system, 0.05, HBVMMethod(6, 1), SolverConfig(tol=1e-14)),
        ]
        for n, (target, h, method, cfg) in enumerate(calls, start=1):
            step(target, y0, h, method, cfg)
            assert len(builds) == n


def _oscillator_split(accel):
    """q'' = -5 q with the stiff part L = 4 in the linear operator and -q in accel."""
    form = SeparableForm(nq=1, accel=accel, linear_operator=lambda q: 4.0 * q,
                         make_preconditioner=lambda shift: shifted_solver(shift, np.array([4.0])))
    return separable_system(form, 1.0, lambda y: 0.5 * y[..., 1] ** 2 + 2.5 * y[..., 0] ** 2, {}), np.array([1.0, 0.5])


def _in_place(function):
    """function, but writing its result into its argument and returning that."""

    def in_place(values):
        values[...] = function(values)
        return values

    return in_place


_CONTRACT_CASES = {
    "oscillator": (lambda: _oscillator_split(lambda g: -1.0 * g), 0.3),
    "periodic-fd6": (lambda: problems.sine_gordon_system(gamma=1.0, scheme="fd6", N=64), 0.1),
    "fourier": (lambda: problems.sine_gordon_system(gamma=1.0, scheme="fourier", N=16, m=40), 0.1),
    "dirichlet-fd2": (lambda: problems.sine_gordon_system(gamma=0.9, bc="dirichlet", N=64), 0.1),
}


class TestBufferContract:
    """accel and nonlinear may overwrite their argument: the solve hands them a buffer it owns."""

    @pytest.mark.parametrize("mode", ["blended", "fixed-point"])
    @pytest.mark.parametrize("name", sorted(_CONTRACT_CASES))
    def test_in_place_accel_gives_the_same_steps(self, name, mode):
        build, h = _CONTRACT_CASES[name]
        system, y0 = build()
        sep = system.separable
        in_place = replace(system, separable=replace(sep, accel=_in_place(sep.accel)))
        self._assert_same_steps(system, in_place, y0, h, HBVMMethod(6, 2), mode)

    def test_in_place_nonlinear_gives_the_same_steps(self):
        system, y0 = problems.nls_system(N=16)
        form = system.semilinear
        in_place = replace(system, semilinear=replace(form, nonlinear=_in_place(form.nonlinear)))
        self._assert_same_steps(system, in_place, y0, 0.002, HBVMMethod(6, 2), "blended")

    @staticmethod
    def _assert_same_steps(system, in_place, y0, h, method, mode):
        plain = Stepper(system, h, method, SolverConfig(mode=mode))
        changed = Stepper(in_place, h, method, SolverConfig(mode=mode))
        np.testing.assert_array_equal(changed.coefficients(y0), plain.coefficients(y0))
        y, y_changed = y0, y0
        for _ in range(6):  # past the four steps of the warm start
            (y, diag), (y_changed, diag_changed) = plain(y), changed(y_changed)
            np.testing.assert_array_equal(y_changed, y)
            assert (diag_changed.iterations, diag_changed.residual) == (diag.iterations, diag.residual)

    def test_in_place_accel_leaves_the_callers_positions(self):
        # pdot hands accel a copy of grid-valued q: rhs keeps its argument, and
        # the explicit run ends bitwise on the plain one (3.56 away on a shared q)
        system, y0 = problems.sine_gordon_system(gamma=1.0, scheme="fd6", N=64)
        in_place = replace(system, separable=replace(system.separable, accel=_in_place(system.separable.accel)))
        y = y0.copy()
        np.testing.assert_array_equal(in_place.rhs(y), system.rhs(y0))
        np.testing.assert_array_equal(y, y0)
        runs = [integrate_explicit(candidate, y0, 0.05, 20, composition_scheme(4), record_stride=0)
                for candidate in (system, in_place)]
        np.testing.assert_array_equal(runs[1].final_state, runs[0].final_state)

    def test_threads_sharing_a_fixed_point_stepper_keep_their_own_stages(self):
        # every accel call of one thread waits for one of the other, so a stage buffer shared between
        # the solves would hand each thread the other's stage positions; -y0 takes the same iterations
        meet = threading.Barrier(2, timeout=10.0)

        def accel(g):
            meet.wait()
            g *= -1.0
            return g

        system, y0 = _oscillator_split(accel)
        stepper = Stepper(system, 0.3, HBVMMethod(6, 2), SolverConfig(mode="fixed-point"))
        results, errors = {}, []

        def run(sign):
            try:
                results[sign] = stepper(sign * y0)
            except Exception as err:  # reported below: a thread's exception is otherwise lost
                errors.append(err)
                meet.abort()

        threads = [threading.Thread(target=run, args=(sign,)) for sign in (1.0, -1.0)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads) and errors == []
        alone, _ = _oscillator_split(lambda g: -1.0 * g)
        for sign in (1.0, -1.0):
            expected, diag = Stepper(alone, 0.3, HBVMMethod(6, 2), SolverConfig(mode="fixed-point"))(sign * y0)
            np.testing.assert_array_equal(results[sign][0], expected)
            assert results[sign][1].iterations == diag.iterations


def _cold_chain(system, y0, h, n_steps, method):
    """n_steps steps, each by a fresh Stepper, so each stage solve starts from zero."""
    y = y0
    for _ in range(n_steps):
        y, _ = Stepper(system, h, method)(y)
    return y


_WARM_CASES = {
    # (system and y0, h, method, it/step bound); cold: 6.05, 5.25, 5.00, 6.00 and 11.0 it/step; the quadratic
    # start of three steps took 5.08, 4.17, 4.07, 3.04 and 7.05, the cubic of four 5.07, 4.13, 3.35, 2.07 and
    # 6.08 (912 iterations); the better of the cubic and the quartic fit of seven takes 5.06, 4.13, 3.33, 1.11 and
    # 5.13 (769); the blended step's Jacobian factor on grid values then took fd6 and Dirichlet to 4.21 and 4.05
    # it/step cold, 4.03 and 3.15 warm; the rotation start took Fourier to 2.67, and over nine blocks at every s
    # to 2.44 (see TestRotationStart)
    "periodic-fd6-5-1": (
        lambda: problems.sine_gordon_system(gamma=1.0, bc="periodic", scheme="fd6", N=400), 0.1, HBVMMethod(5, 1), 4.1
    ),
    "dirichlet-fd2-6-2": (
        lambda: problems.sine_gordon_system(gamma=1.0, bc="dirichlet", scheme="fd2", N=400), 0.1, HBVMMethod(6, 2), 3.2
    ),
    "fourier-5-1": (
        lambda: problems.sine_gordon_system(gamma=1.0, scheme="fourier", N=400, m=800), 0.05, HBVMMethod(5, 1), 2.5
    ),
    "nls-fd2-5-1": (lambda: problems.nls_system(N=64), 0.002, HBVMMethod(5, 1), 1.15),
    "nls-fd2-256-dx": (lambda: problems.nls_system(N=256), 2.0 * np.pi / 256, HBVMMethod(5, 1), 5.2),
}


class TestJacobianFactor:
    """The blended solve on grid values scales each update by I + alpha (x) X^2, alpha the damped h^2 d accel/du."""

    @pytest.mark.parametrize(
        "scheme,N,h,steps,bound",
        [
            # without the factor 759 iterations; the factor takes 604
            ("fd6", 400, 0.1, 150, 610),
            # at h = 0.8 without the factor 956 and 955; the damped factor takes 895 and 904, and the
            # undamped alpha = h^2 a, which leaves the stiff modes the plain step's slowest rate, 958 and 974
            ("fd2", 200, 0.8, 60, 956),
            ("fd6", 400, 0.8, 60, 955),
        ],
    )
    def test_factor_cuts_the_iterations(self, scheme, N, h, steps, bound):
        system, y0 = problems.sine_gordon_system(gamma=1.0, bc="periodic", scheme=scheme, N=N)
        rec = integrate(system, y0, h, steps, HBVMMethod(5, 1), record_stride=0)
        assert rec.mode == "blended"
        assert rec.iterations.sum() <= bound
        assert np.max(np.abs(rec.drift)) <= 1e-7

    @pytest.mark.parametrize("scheme,probes", [("fd6", 1), ("fourier", 0)])
    def test_one_probe_per_solve_on_grid_values(self, scheme, probes):
        # one accel call on two rows takes the derivative; the Fourier
        # coefficients are not grid values and get no factor
        build = dict(fd6=dict(scheme="fd6", N=64), fourier=dict(scheme="fourier", N=16, m=40))[scheme]
        system, y0 = problems.sine_gordon_system(gamma=1.0, **build)
        system, calls = _counting(system)
        _, diag = step(system, y0, 0.1, HBVMMethod(6, 2), SolverConfig(mode="blended"))
        assert len(calls) == diag.iterations + probes


class TestWarmStart:
    @pytest.mark.parametrize("name", sorted(_WARM_CASES))
    def test_blended_chain_saves_iterations_and_keeps_the_solution(self, name):
        # blended steps from the last output start from the cubic through the
        # last four coefficient blocks or the quartic fit of the last seven:
        # one or two iterations fewer on the wave systems, nearly five of six
        # on NLS at small h, the same states to the accepted tolerance;
        # Dirichlet solves on the banded factor, NLS on the complex blocks of
        # I + h X (x) L
        build, h, method, bound = _WARM_CASES[name]
        system, y0 = build()
        rec = integrate(system, y0, h, 150, method, record_stride=0)
        assert rec.mode == "blended"
        assert rec.iterations.mean() <= bound
        cold = _cold_chain(system, y0, h, 150, method)
        assert np.max(np.abs(rec.final_state - cold)) <= 1e-12 * np.max(np.abs(cold))

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        m=st.integers(0, 7),
        s=st.integers(1, 3),
        width=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        origin=st.integers(-50, 50),
    )
    def test_start_extrapolates_the_polynomial_through_the_last_blocks(self, m, s, width, seed, origin):
        # blocks c_n = sum_d a_d n^d in the step index n: from the last m of
        # them, the cubic (row 0) is the next block for degree <= min(m, 4) - 1
        # and the fit (row 1) for degree <= min(m, 5) - 1, zero from none; the
        # fit's weights are the least-squares ones, row 0 of the pseudo-inverse
        a = np.random.default_rng(seed).standard_normal((5, s, width))
        n = origin + np.arange(m + 1, dtype=float)
        for row, degree in ((0, min(m, 4) - 1), (1, min(m, 5) - 1)):
            blocks = np.einsum("nd,dsw->nsw", n[:, None] ** np.arange(degree + 1), a[: degree + 1])
            start = _warm_starts(blocks[:m].reshape(m, s * width))[row].reshape(s, width)
            assert np.max(np.abs(start - blocks[m]), initial=0.0) <= 1e-12 * max(1.0, np.max(np.abs(blocks)))
        fit = np.linalg.pinv(np.vander(np.arange(-m, 0.0), max(min(m, 5), 1), increasing=True))[0]
        np.testing.assert_allclose(_warm_starts(np.eye(m))[1], fit, rtol=0.0, atol=1e-11)

    def test_start_follows_the_better_prediction_of_the_step_before(self):
        # the solve starts from the fit only on a full chain and after the fit
        # came strictly closer to the step before's coefficients than the
        # cubic; a fresh chain and one restarted by a nudged state start from
        # zero, then from the cubic, also where the fit was leading (step 13)
        system, y0 = problems.sine_gordon_system(gamma=1.0, bc="periodic", scheme="fd6", N=64)
        stepper = Stepper(system, 0.1, HBVMMethod(5, 1))
        solve, seen = stepper._solve, []

        def recording(y, start):
            out = solve(y, start)
            seen.append((start.ravel().copy(), out[0].ravel().copy()))
            return out

        stepper._solve = recording
        y = y0
        for n in range(40):
            if n == 13:
                y = y.copy()
                y[5] = np.nextafter(y[5], np.inf)
            y, _ = stepper(y)
        chain, fit, used = [], False, []
        for n, (start, coeffs) in enumerate(seen):
            if n == 13:
                assert fit
                chain, fit = [], False
            starts = _warm_starts(np.reshape(chain[-7:], (-1, coeffs.size)))
            np.testing.assert_array_equal(start, starts[int(fit)])
            used.append(fit)
            cubic_error, fit_error = np.abs(starts - coeffs).max(axis=1)
            fit = len(chain) >= 6 and fit_error < cubic_error
            chain.append(coeffs)
        assert not np.any(seen[0][0]) and not np.any(seen[13][0])
        assert not any(used[:7] + used[13:20])
        assert any(used[7:13]) and not all(used[7:13]) and any(used[20:]) and not all(used[20:])

    def test_other_state_starts_cold(self):
        # only the state the Stepper last returned continues its chain; any
        # other, one rounding unit away included, is solved as by a fresh one
        system, y0 = problems.sine_gordon_system(gamma=1.0, bc="periodic", scheme="fd6", N=64)
        method = HBVMMethod(6, 2)
        stepper = Stepper(system, 0.1, method)
        y = y0
        for _ in range(4):
            y, _ = stepper(y)
        nudged = y.copy()
        nudged[5] = np.nextafter(nudged[5], np.inf)
        for other in (nudged, y0):
            got, diag = stepper(other)
            fresh, fresh_diag = Stepper(system, 0.1, method)(other)
            np.testing.assert_array_equal(got, fresh)
            assert (diag.iterations, diag.residual) == (fresh_diag.iterations, fresh_diag.residual)

    def test_fixed_point_keeps_starting_cold(self):
        # a warm start would carry the fixed point's uncontracted stiff modes
        # from step to step: at this h the one-step start took 15 it/step and
        # the quadratic start failed at step 9
        system, y0 = problems.nls_system(N=256)
        rec = integrate(system, y0, 5e-4, 20, HBVMMethod(6, 2), SolverConfig(mode="fixed-point"), record_stride=0)
        assert rec.mode == "fixed-point"
        np.testing.assert_array_equal(rec.iterations, 5)


class TestRotationStart:
    """Fourier blended chains start from the extrapolant (E^2 - beta E + 1)(E - 1)^7 annihilates over nine blocks,
    beta per mode the trace of the solver's linear step, whose determinant is 1 (Cayley-Hamilton), at every s."""

    def test_linear_wave_steps_in_one_iteration(self):
        # with f = 0 each mode's coefficient rows obey c_n+2 - beta c_n+1 + c_n = 0 at every s: from the eleventh
        # step (row 0 on a full chain beat the fit on the tenth) the start is the solution.  The cubic or quartic
        # start took two on every step; ten blocks, (E - 1)^8, whose larger weights gain more rounding, relapse to two
        zero = lambda u: 0.0 * u  # noqa: E731
        system = build_fourier(32, 64, problems.DEFAULT_DOMAIN, zero, zero)
        x = system.descriptor["x"]
        y0 = system.separable.from_grid(np.stack([np.exp(-x * x), zero(x)])).ravel()
        for k, s in ((5, 1), (6, 2), (9, 3)):
            rec = integrate(system, y0, 0.05, 200, HBVMMethod(k, s), record_stride=0)
            assert rec.mode == "blended"
            np.testing.assert_array_equal(rec.iterations[10:], 1, err_msg=f"HBVM({k},{s})")

    @pytest.mark.parametrize("h", [0.05, 0.4])
    def test_trace_at_one_stage_is_the_midpoint_rotation(self, h):
        # at s = 1 HBVM(k,1) is the midpoint rule on the linear part, P is diagonal, and the trace is 4P - 2
        system, _ = problems.sine_gordon_system(gamma=1.0, scheme="fourier", N=64, m=128)
        method = HBVMMethod(5, 1)
        xs = method.tables.integration_matrix
        p = system.separable.make_preconditioner(h * h * xs @ xs)(np.ones((1, system.separable.nq)))[0]
        np.testing.assert_allclose(Stepper(system, h, method)._rotation, 4.0 * p - 2.0, rtol=0.0, atol=1e-14)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        degree=st.integers(0, 6),
        width=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        origin=st.integers(-50, 50),
    )
    def test_start_continues_a_rotation_plus_a_sextic(self, degree, width, seed, origin):
        # c_n = p(n) + A cos n theta + B sin n theta per unknown, deg p <= 6,
        # rotation = 2 cos theta: row 0 of a full chain is c_9; the fit is unchanged
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0.0, np.pi, width)
        poly, a, b = rng.standard_normal((degree + 1, width)), rng.standard_normal(width), rng.standard_normal(width)
        n = origin + np.arange(10.0)[:, None]
        blocks = (n ** np.arange(degree + 1)[:, None, None] * poly[:, None]).sum(axis=0)
        blocks += a * np.cos(n * theta) + b * np.sin(n * theta)
        starts = _warm_starts(blocks[:9], 2.0 * np.cos(theta))
        assert np.max(np.abs(starts[0] - blocks[9])) <= 1e-12 * max(1.0, np.max(np.abs(blocks)))
        np.testing.assert_array_equal(starts[1], _warm_starts(blocks[:9])[1])

    def test_sine_gordon_fourier_iterations(self):
        # N=400 m=800 h = 0.05, the sg-fourier workload's run: at (5,1) 500 iterations from the better of the
        # cubic and the quartic fit, 400 with (E - 1)^5 over seven blocks at s = 1 only, 366 with (E - 1)^7 over
        # nine; at (6,2) 492 from the cubic and the fit, 355
        system, y0 = problems.sine_gordon_system(gamma=1.0, scheme="fourier", N=400, m=800)
        for k, s, bound in ((5, 1, 372), (6, 2, 365)):
            rec = integrate(system, y0, 0.05, 150, HBVMMethod(k, s), record_stride=0)
            assert rec.iterations.sum() <= bound, f"HBVM({k},{s})"
            assert np.max(np.abs(rec.drift)) <= 1e-12


_REVERSIBLE_SYSTEMS = {
    "harmonic": lambda: problems.harmonic_oscillator(omega=2.0),
    "quartic": problems.quartic_oscillator,
    "pendulum": problems.pendulum,
    "periodic-fd2": lambda: problems.sine_gordon_system(gamma=1.0, bc="periodic", scheme="fd2", N=32)[0],
    "fourier": lambda: problems.sine_gordon_system(gamma=1.0, scheme="fourier", N=8, m=16)[0],
}


class TestTimeReversibility:
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(
        name=st.sampled_from(sorted(_REVERSIBLE_SYSTEMS)),
        s=st.integers(1, 3),
        extra_nodes=st.integers(0, 3),
        h=st.floats(0.01, 0.3),
        seed=st.integers(0, 2**32 - 1),
        amplitude=st.floats(0.1, 2.0),
    )
    def test_step_is_symmetric(self, name, s, extra_nodes, h, seed, amplitude):
        # HBVM(k,s) is symmetric: with R(q, p) = (q, -p), R o Phi_h o R o Phi_h = id
        system = _REVERSIBLE_SYSTEMS[name]()
        method = HBVMMethod(s + extra_nodes, s)
        n = system.skew.n
        y = amplitude * np.random.default_rng(seed).standard_normal(system.dim)
        y1, _ = step(system, y, h, method)
        y1[n:] = -y1[n:]
        back, _ = step(system, y1, h, method)
        back[n:] = -back[n:]
        assert np.max(np.abs(back - y)) <= 1e-12 * (1.0 + np.max(np.abs(y)))


# builder, and the largest stepsize H at s = 1..4: it keeps every error of TestOrder between 1e-10 and 1e-1
_ORDER_SYSTEMS = {
    "harmonic": (problems.harmonic_oscillator, (0.25, 0.5, 1.0, 1.0)),
    "quartic": (problems.quartic_oscillator, (0.25, 0.35, 0.4, 0.5)),
    "fd2": (lambda: problems.quartic_wave_system(N=16)[0], (0.05, 0.1, 0.1, 0.17)),
    "nls": (lambda: problems.nls_system(N=16)[0], (0.005, 0.01, 0.02, 0.04)),
}


class TestOrder:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        name=st.sampled_from(sorted(_ORDER_SYSTEMS)),
        s=st.integers(1, 4),
        extra_nodes=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_global_error_falls_as_h_to_the_2s(self, name, s, extra_nodes, seed):
        # HBVM(k,s) has order 2s: over T = 8H, the max-norm errors at h = H, 2H/3 and H/2 against the
        # same method at H/16 fit a slope of 2s in log-log, on the fixed point (quartic oscillator) and
        # on the blended step with its shifted solves (the others).  On the quartic oscillator the Gauss
        # method HBVM(s,s) still misses the slope by up to 0.46 at s = 4 where its errors stay above
        # 1e-11, so it draws k > s there
        build, largest = _ORDER_SYSTEMS[name]
        system, method = build(), HBVMMethod(s + extra_nodes + (name == "quartic"), s)
        state = np.random.default_rng(seed).uniform(-1.0, 1.0, system.dim)
        y0 = state / np.max(np.abs(state))
        final_time, steps = 8 * largest[s - 1], np.array([8, 12, 16, 128])
        finals = []
        for n in steps:
            rec = integrate(system, y0, final_time / n, n, method, record_stride=0)
            assert rec.mode == ("fixed-point" if name == "quartic" else "blended")
            finals.append(rec.final_state)
        errors = [np.max(np.abs(y - finals[-1])) for y in finals[:3]]
        assert min(errors) >= 1e-11
        assert fitted_rate(final_time / steps[:3], errors) == pytest.approx(2 * s, abs=0.3)


def _mass_and_energy_drift(method, amplitude, mode, phase):
    """Max relative drift of the mass sum(u^2 + v^2) and max energy drift
    relative to 1 + |H0| (H0 is near 0 here) over 200 steps of h = 0.002,
    from an N=32 NLS plane wave plus a small wave in another mode."""
    system, y0 = problems.nls_system(N=32)
    x = system.descriptor["x"]
    y0 = y0 + amplitude * np.concatenate([np.cos(mode * x + phase), np.sin(mode * x + phase)])
    record = integrate(system, y0, 0.002, 200, method)
    mass = np.sum(record.states**2, axis=1)
    energy = np.max(np.abs(record.drift)) / (1.0 + abs(record.hamiltonian[0]))
    return np.max(np.abs(mass / mass[0] - 1.0)), energy


_NLS_PERTURBATIONS = dict(
    amplitude=st.floats(0.02, 0.1),
    mode=st.sampled_from([2, 3]),
    phase=st.floats(0.0, 2.0 * np.pi),
)


class TestQuadraticInvariants:
    # Gauss methods (k = s) conserve every quadratic invariant; HBVM(k,s)
    # with k > s conserves the non-quadratic NLS energy instead, not the mass.

    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(**_NLS_PERTURBATIONS)
    def test_gauss_keeps_nls_mass(self, amplitude, mode, phase):
        for s in (1, 2, 3):
            mass, _ = _mass_and_energy_drift(HBVMMethod(s, s), amplitude, mode, phase)
            assert mass <= 1e-13

    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(**_NLS_PERTURBATIONS)
    def test_energy_conserving_method_moves_nls_mass(self, amplitude, mode, phase):
        mass, energy = _mass_and_energy_drift(HBVMMethod(5, 1), amplitude, mode, phase)
        assert energy <= 1e-13
        assert mass > 1e-11


_TABLEAU_SYSTEMS = {**_REVERSIBLE_SYSTEMS, "nls": lambda: problems.nls_system(N=16)[0]}


class TestRKEquivalence:
    def test_midpoint_tableau(self):
        a_mat, b, c = rk_tableau(HBVMMethod(1, 1))
        np.testing.assert_allclose(a_mat, [[0.5]], atol=1e-16)
        np.testing.assert_allclose(b, [1.0], atol=1e-16)
        np.testing.assert_allclose(c, [0.5], atol=1e-16)

    def test_gauss_two_stage_tableau(self):
        a_mat, b, c = rk_tableau(HBVMMethod(2, 2))
        r3 = np.sqrt(3.0)
        expected = np.array([[0.25, 0.25 - r3 / 6.0], [0.25 + r3 / 6.0, 0.25]])
        np.testing.assert_allclose(a_mat, expected, atol=1e-14)
        np.testing.assert_allclose(b, [0.5, 0.5], atol=1e-15)

    @pytest.mark.parametrize("k,s", [(2, 1), (3, 2), (5, 1), (6, 3), (9, 3)])
    def test_row_sums_equal_abscissae(self, k, s):
        a_mat, _, c = rk_tableau(HBVMMethod(k, s))
        np.testing.assert_allclose(a_mat @ np.ones(k), c, atol=1e-14)
        np.testing.assert_array_equal(c, gauss_rule(k).nodes)

    @pytest.mark.parametrize("k,s", [(2, 1), (4, 2), (5, 1), (6, 3)])
    def test_step_matches_direct_tableau_solve(self, k, s):
        system = problems.pendulum()
        y0 = np.array([1.1, -0.4])
        h = 0.08
        a_mat, b, c = rk_tableau(HBVMMethod(k, s))
        direct = rk_step_direct(system.rhs, y0, h, a_mat, b, c, tol=1e-16)
        ours, _ = step(system, y0, h, HBVMMethod(k, s), SolverConfig(mode="fixed-point", tol=1e-15))
        np.testing.assert_allclose(ours, direct, atol=1e-12)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        name=st.sampled_from(sorted(_TABLEAU_SYSTEMS)),
        s=st.integers(1, 4),
        extra_nodes=st.integers(0, 4),
        h=st.floats(0.005, 0.2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_step_matches_direct_tableau_solve_over_drawn_inputs(self, name, s, extra_nodes, h, seed):
        # the default (auto) solver against the plain stage iteration on the
        # tableau; NLS takes h/20, where that iteration still contracts
        system = _TABLEAU_SYSTEMS[name]()
        h = h / 20.0 if name == "nls" else h
        method = HBVMMethod(s + extra_nodes, s)
        y = np.random.default_rng(seed).standard_normal(system.dim)
        ours, _ = step(system, y, h, method)
        direct = rk_step_direct(system.rhs, y, h, *rk_tableau(method), tol=1e-16)
        assert np.max(np.abs(ours - direct)) <= 1e-12 * (1.0 + np.max(np.abs(y)))

    @pytest.mark.parametrize("s", [1, 2])
    def test_hbvm_ss_is_gauss_collocation(self, s):
        # tableau identity is checked above; here the trajectory
        system = problems.pendulum()
        y0 = np.array([0.9, 0.2])
        a_mat, b, c = rk_tableau(HBVMMethod(s, s))
        y_rk = y0.copy()
        for _ in range(20):
            y_rk = rk_step_direct(system.rhs, y_rk, 0.05, a_mat, b, c, tol=1e-16)
        rec = integrate(system, y0, 0.05, 20, HBVMMethod(s, s), SolverConfig(mode="fixed-point", tol=1e-15))
        np.testing.assert_allclose(rec.final_state, y_rk, atol=1e-12)


_MODE_SYSTEMS = {
    "periodic-fd2": lambda: problems.sine_gordon_system(gamma=1.0, bc="periodic", scheme="fd2", N=48),
    "periodic-fd6": lambda: problems.sine_gordon_system(gamma=1.0, bc="periodic", scheme="fd6", N=48),
    "dirichlet-fd2": lambda: problems.sine_gordon_system(gamma=1.0, bc="dirichlet", scheme="fd2", N=48),
    "neumann-fd2": lambda: problems.sine_gordon_system(gamma=1.0, bc="neumann", scheme="fd2", N=48),
    # the sinc path of the time factor, on [-4, 4], where the soliton forces the ends at O(0.1): a solve that
    # takes the forcing at t0, or at the previous solve's stage times, moves y1 by about 1e-3
    "dirichlet-fd2-gamma0.9": lambda: problems.sine_gordon_system(
        gamma=0.9, bc="dirichlet", scheme="fd2", N=48, domain=(-4.0, 4.0)),
    "neumann-fd2-gamma1.1": lambda: problems.sine_gordon_system(
        gamma=1.1, bc="neumann", scheme="fd2", N=48, domain=(-4.0, 4.0)),
    "fourier": lambda: problems.sine_gordon_system(gamma=1.0, scheme="fourier", N=16, m=32),
}


class TestIntegrate:
    def test_zero_steps(self):
        system = problems.harmonic_oscillator()
        y0 = np.array([0.4, 0.6])
        rec = integrate(system, y0, 0.1, 0, HBVMMethod(2, 1))
        np.testing.assert_array_equal(rec.states, [y0])
        np.testing.assert_array_equal(rec.drift, [0.0])

    @pytest.mark.parametrize("name", sorted(_MODE_SYSTEMS))
    @pytest.mark.parametrize("k,s", [(4, 1), (4, 2)], ids=["4-1", "4-2"])
    def test_solver_mode_independence(self, name, k, s):
        # the blended step solves I + h^2 X^2 (x) L per mode (s = 1 is one
        # divide) or on the band; the boundary forcing and the Fourier grid
        # maps sit inside the loop
        system, y0 = _MODE_SYSTEMS[name]()
        tol = 1e-14
        results = {"newton-oracle": hbvm_newton_step(system, y0, 0.02, HBVMMethod(k, s), tol)}
        for mode in ("fixed-point", "blended"):
            y1, _ = step(system, y0, 0.02, HBVMMethod(k, s), SolverConfig(mode=mode, tol=tol))
            results[mode] = y1
        ref = results["fixed-point"]
        for mode, y1 in results.items():
            assert np.max(np.abs(y1 - ref)) <= 100 * tol * (1 + np.max(np.abs(y0))), mode

    @pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
    @pytest.mark.parametrize("k,s", [(5, 1), (6, 2)])
    def test_fine_mesh_converges_below_tol(self, bc, k, s):
        # at dx = 0.0125 the stiff operator is O(1/dx^2); its rounding stays
        # out of the iterates, so every step meets tol itself, not a floor.
        # tol = 1e-14 h holds the coefficient update itself to 1e-14
        h = 0.0125
        system, y0 = problems.sine_gordon_system(gamma=1.0, bc=bc, scheme="fd2", N=3200)
        cfg = SolverConfig(tol=1e-14 * h)
        rec = integrate(system, y0, h, 10, HBVMMethod(k, s), cfg, record_stride=0)
        assert np.all(rec.residuals <= cfg.tol)
        assert np.max(np.abs(rec.drift)) <= 1e-13

    @pytest.mark.parametrize("k,s", [(5, 1), (6, 2)])
    def test_fine_mesh_generic_path_meets_tol(self, k, s):
        # NLS applies its O(1/dx^2) operator to the stage states, so at N = 256
        # its coefficient updates end near 1e-13; scaled by h = 2e-4 they
        # change the step's output by less than tol, which every step meets
        system, y0 = problems.nls_system(N=256)
        cfg = SolverConfig(mode="fixed-point")
        rec = integrate(system, y0, 2e-4, 10, HBVMMethod(k, s), cfg, record_stride=0)
        assert np.all(rec.residuals <= cfg.tol)
        assert np.max(np.abs(rec.drift)) <= 1e-13

    def test_high_degree_method_at_large_step(self):
        # HBVM(12,6) on fd6 N=400 at h = 8 dx: the exact stiff-linear step
        # keeps L's rounding out of the iterates, so every step meets tol
        system, y0 = problems.sine_gordon_system(gamma=1.0, bc="periodic", scheme="fd6", N=400)
        rec = integrate(system, y0, 0.8, 10, HBVMMethod(12, 6), record_stride=0)
        assert np.max(np.abs(rec.drift)) <= 1e-13

    def test_default_tol_gives_data_independent_iteration_counts(self):
        # on periodic fd6 N=400 at h = 0.1 the third update changes the output
        # by 2e-14 .. 2e-10 (median 4e-14), the fourth on 97% of the steps by
        # less than 2e-15; before the blended step's Jacobian factor these were
        # the fifth and sixth, and a default tol inside the fifth band (1e-14)
        # let a 1% change of gamma move a third of the steps from five
        # iterations to six.  The same holds for a 1% change of the NLS
        # amplitude on the warm-started exact stiff step
        cases = [
            (lambda gamma: problems.sine_gordon_system(gamma=gamma, scheme="fd6", N=400), 0.1),
            (lambda amplitude: problems.nls_system(N=64, amplitude=amplitude), 0.002),
        ]
        for build, h in cases:
            counts = []
            for scale in (0.99, 1.0, 1.01):
                system, y0 = build(scale)
                rec = integrate(system, y0, h, 150, HBVMMethod(5, 1), record_stride=0)
                assert rec.mode == "blended"
                counts.append(rec.iterations)
            np.testing.assert_array_equal(counts[0], counts[1])
            np.testing.assert_array_equal(counts[2], counts[1])

    def test_observer_and_stride(self):
        system = problems.harmonic_oscillator()
        seen = []
        rec = integrate(
            system,
            np.array([1.0, 0.0]),
            0.1,
            7,
            HBVMMethod(2, 1),
            record_stride=3,
            observer=lambda n, t, y: seen.append(n),
        )
        assert seen == list(range(8))
        np.testing.assert_allclose(rec.record_times, [0.0, 0.3, 0.6, 0.7], atol=1e-15)

    def test_gamma_coefficient_scaling(self):
        # Legendre coefficients of the stage derivative scale as h^j
        system = problems.pendulum()
        y0 = np.array([0.5, 1.0])
        method = HBVMMethod(6, 3)
        cfg = SolverConfig(mode="fixed-point", tol=1e-15)
        g_h = Stepper(system, 0.2, method, cfg).coefficients(y0)
        g_h2 = Stepper(system, 0.1, method, cfg).coefficients(y0)
        for j in range(3):
            ratio = np.log2(np.linalg.norm(g_h[j]) / np.linalg.norm(g_h2[j]))
            assert ratio == pytest.approx(j, abs=0.3)


def _batch_run(name):
    """(system, run(n_steps, stride, observer) -> TrajectoryRecord) of a short trajectory."""
    if name == "explicit":
        system, y0 = problems.sine_gordon_system(scheme="fd2", N=24)
        return system, lambda n_steps, stride, observer: integrate_explicit(
            system, y0, 0.05, n_steps, composition_scheme(4), record_stride=stride, observer=observer)
    system, y0 = problems.sine_gordon_system(gamma=0.9, bc=name, N=24)
    return system, lambda n_steps, stride, observer: integrate(
        system, y0, 0.1, n_steps, HBVMMethod(5, 1), record_stride=stride, observer=observer)


def _standing(y):
    """An advance for drive that keeps the state: only the energy bookkeeping runs."""
    return y, StepDiagnostics(1, 0.0, "standing")


def _counting_rows(system):
    """Copy of system that records the number of states of each hamiltonian call."""
    rows = []
    return replace(system, hamiltonian=lambda y: rows.append(len(y)) or system.hamiltonian(y)), rows


class TestEnergyBatches:
    """drive evaluates the energies of up to 32 states in one hamiltonian call, each state's once."""

    @pytest.mark.parametrize("stride", [1, 0])
    @pytest.mark.parametrize("n_steps", [0, 1, 31, 32, 33, 150])
    @pytest.mark.parametrize("name", ["periodic", "dirichlet", "explicit"])
    def test_energies_are_bitwise_the_per_state_calls(self, name, n_steps, stride):
        system, run = _batch_run(name)
        seen = []
        rec = run(n_steps, stride, lambda n, t, y: seen.append(y.copy()))
        assert len(seen) == n_steps + 1
        assert rec.hamiltonian.tobytes() == np.array([system.hamiltonian(y) for y in seen]).tobytes()
        if system.augmented:
            physical = np.array([system.physical_hamiltonian(y) for y in seen])
            assert rec.physical_hamiltonian.tobytes() == physical.tobytes()

    @pytest.mark.parametrize("N,rows", [(24, 32), (768, 32), (800, 30), (3200, 7), (40000, 1)])
    def test_a_batch_holds_at_most_32_states_and_48_ki_numbers(self, N, rows):
        # 150 steps, as the benchmark workloads run, take 5 flushes at 30 or 32 rows
        system, y0 = problems.sine_gordon_system(scheme="fd2", N=N)
        counting, calls = _counting_rows(system)
        rec = drive(counting, y0, 0.1, 150, _standing, "standing")
        full, last = divmod(150, rows)
        assert calls == [1] + [rows] * full + ([last] if last else [])
        assert np.all(rec.hamiltonian == rec.hamiltonian[0])

    def test_failure_record_carries_the_energies_through_the_step_before(self):
        # the stalled fixed-point run of test_non_contracting_iteration_stops_before_overflow, which fails
        # at step 16, halfway through a batch
        system, y0 = problems.nls_system(N=64)
        seen = []
        with pytest.raises(StepFailure, match="stalled") as fail:
            integrate(system, y0, 0.005, 40, HBVMMethod(5, 1), SolverConfig(mode="fixed-point"),
                      observer=lambda n, t, y: seen.append(y.copy()))
        assert fail.value.step_index == 16 and len(seen) == 16
        partial = fail.value.partial
        assert partial.hamiltonian.tobytes() == np.array([system.hamiltonian(y) for y in seen]).tobytes()
        assert np.max(np.abs(partial.drift)) <= 1e-13

    def test_observer_changing_the_state_leaves_the_recorded_energies(self):
        system, y0 = problems.sine_gordon_system(scheme="fd2", N=24)
        seen = []

        def observer(n, t, y):
            seen.append(y.copy())
            y[0] += 1e-3  # the next step starts from the changed state, as from any other

        rec = integrate(system, y0, 0.1, 40, HBVMMethod(5, 1), observer=observer)
        assert rec.hamiltonian.tobytes() == np.array([system.hamiltonian(y) for y in seen]).tobytes()
        assert hamiltonian_drift(system, rec.states).tobytes() == rec.drift.tobytes()  # the states are those seen

    @pytest.mark.parametrize("n_steps", [0, 2, 40])
    def test_one_state_energy_rejected_at_entry(self, n_steps):
        # y[1] of one state is row 1 of a stack: on a (1, 2) stack it raises, and on a (2, 2) one it
        # would return two wrong energies
        system, y0 = _oscillator_split(lambda g: -1.0 * g)
        one_state = replace(system, hamiltonian=lambda y: 0.5 * y[1] ** 2 + 2.5 * y[0] ** 2)
        seen = []
        with pytest.raises(ValueError, match=r"hamiltonian must map a \(1, 2\) stack to shape \(1,\)"):
            integrate(one_state, y0, 0.3, n_steps, HBVMMethod(6, 2), observer=lambda n, t, y: seen.append(n))
        assert seen == []

    def test_batch_of_the_wrong_shape_rejected(self):
        system, y0 = problems.harmonic_oscillator(), np.array([1.0, 0.0])
        first_only = replace(system, hamiltonian=lambda y: system.hamiltonian(y)[:1])
        with pytest.raises(ValueError, match=r"\(2, 2\) stack to shape \(2,\), got \(1,\)"):
            integrate(first_only, y0, 0.1, 2, HBVMMethod(2, 1))
