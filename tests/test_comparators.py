import math

import numpy as np
import pytest

from conftest import fitted_rate, reference_solve
from hbvm import problems
from hbvm.comparators import (
    composition_scheme,
    composition_step,
    integrate_explicit,
    stormer_verlet_step,
)
from hbvm.integrator import StepFailure


class TestSchemes:
    def test_order2_is_identity_coefficient(self):
        np.testing.assert_array_equal(composition_scheme(2).coefficients, [1.0])

    def test_order4_triple_jump_closed_form(self):
        coeffs = composition_scheme(4).coefficients
        c = 2.0 ** (1.0 / 3.0)
        g1 = 1.0 / (2.0 - c)
        np.testing.assert_allclose(coeffs, [g1, -c * g1, g1], rtol=0, atol=0)
        assert abs(math.fsum(coeffs) - 1.0) < 1e-15

    @pytest.mark.parametrize("order", [2, 4, 6])
    def test_palindromic_and_unit_sum(self, order):
        coeffs = composition_scheme(order).coefficients
        np.testing.assert_array_equal(coeffs, coeffs[::-1])
        assert abs(math.fsum(coeffs) - 1.0) < 1e-15

    def test_order6_has_nine_stages(self):
        assert composition_scheme(6).coefficients.size == 9

    def test_unknown_order(self):
        with pytest.raises(ValueError):
            composition_scheme(3)


class TestSteps:
    def test_time_reversibility(self):
        system = problems.pendulum()
        y0 = np.array([1.2, -0.7])
        y1 = stormer_verlet_step(system, y0, 0.1)
        back = stormer_verlet_step(system, y1, -0.1)
        np.testing.assert_allclose(back, y0, atol=1e-12)

    def test_order2_composition_reduces_to_plain_step(self):
        system = problems.pendulum()
        y0 = np.array([0.8, 0.3])
        plain = stormer_verlet_step(system, y0, 0.17)
        composed = composition_step(system, y0, 0.17, composition_scheme(2))
        np.testing.assert_array_equal(plain, composed)

    def test_requires_plain_separable_system(self):
        nls, y0 = problems.nls_system(N=8)
        with pytest.raises(ValueError):
            stormer_verlet_step(nls, y0, 0.1)
        aug, y0a = problems.sine_gordon_system(gamma=1.0, bc="dirichlet", scheme="fd2", N=10)
        with pytest.raises(ValueError):
            stormer_verlet_step(aug, y0a, 0.1)

    @pytest.mark.parametrize(
        "order,hs,tol",
        [(2, [0.2, 0.1, 0.05], 0.1), (4, [0.4, 0.2, 0.1], 0.3), (6, [0.4, 0.2, 0.1], 0.3)],
    )
    def test_convergence_order(self, order, hs, tol):
        system = problems.harmonic_oscillator(omega=1.0)
        y0 = np.array([1.0, 0.3])
        T = 4.0
        ref = reference_solve(system, y0, (0.0, T), t_eval=[T]).y[:, 0]
        scheme = composition_scheme(order)
        errs = []
        for h in hs:
            n = round(T / h)
            rec = integrate_explicit(system, y0, T / n, n, scheme, record_stride=0)
            errs.append(np.max(np.abs(rec.final_state - ref)))
        assert fitted_rate(hs, errs) == pytest.approx(order, abs=tol)

    def test_linear_stability_boundary(self):
        # leapfrog on pdot = -w^2 q is stable iff h w < 2
        system = problems.harmonic_oscillator(omega=1.0)
        stable = np.array([1.0, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(3000):
                stable = stormer_verlet_step(system, stable, 1.9)
            assert np.all(np.isfinite(stable)) and np.max(np.abs(stable)) < 10.0
            diverged = np.array([1.0, 0.0])
            for _ in range(3000):
                diverged = stormer_verlet_step(system, diverged, 2.1)
            assert not np.all(np.isfinite(diverged)) or np.max(np.abs(diverged)) > 1e6

    def test_divergence_raises_step_failure(self):
        system = problems.harmonic_oscillator(omega=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(StepFailure) as fail:
                integrate_explicit(system, np.array([1.0, 0.0]), 2.5, 400, composition_scheme(2))
        partial = fail.value.partial
        assert partial.hamiltonian.size == fail.value.step_index
        assert np.all(np.isfinite(partial.hamiltonian)) and partial.mode == "sv2"


class TestLongTimeEnergy:
    def test_bounded_oscillation_without_drift(self):
        # 1e5 leapfrog steps on the harmonic oscillator: drift bounded by
        # C h^2 with no linear trend
        system = problems.harmonic_oscillator(omega=1.0)
        h = 0.05
        rec = integrate_explicit(system, np.array([1.0, 0.0]), h, 100_000, composition_scheme(2), record_stride=0)
        drift = rec.drift
        assert np.max(np.abs(drift)) <= 1.0 * h**2
        slope = np.polyfit(rec.times, drift, 1)[0]
        # compare the fitted trend against the oscillation amplitude
        assert abs(slope) * rec.times[-1] <= 0.01 * np.max(np.abs(drift))
