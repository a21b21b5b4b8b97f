"""Acceptance gate: every exit criterion at its stated tolerance.

Each test computes its quantities first, prints one PASS/FAIL line, then
asserts.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Wall-clock work-precision curves are machine-dependent: the harness emits
that data (see the wpd CLI command) but no timing value is asserted here.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import fitted_rate, reference_solve, rk_step_direct
from hbvm import problems
from hbvm.comparators import composition_scheme, integrate_explicit
from hbvm.integrator import (
    HBVMMethod,
    SolverConfig,
    Stepper,
    integrate,
    rk_tableau,
    step,
)
from hbvm.legendre import gauss_rule, hbvm_tables
from hbvm.wave_fourier import _synthesis, build_fourier, nonlinear_term, project_initial

GAMMA = 1.0
DOMAIN = (-20.0, 20.0)


def report(num, desc, ok, detail):
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def periodic_drift(method, n_steps=1000):
    system, y0 = problems.sine_gordon_system(gamma=GAMMA, bc="periodic", scheme="fd2", N=400)
    rec = integrate(system, y0, 0.1, n_steps, method, SolverConfig(), record_stride=0)
    return rec


def test_criterion_1_periodic_drift_magnitudes():
    rec1 = periodic_drift(HBVMMethod(1, 1))
    rec5 = periodic_drift(HBVMMethod(5, 1))
    max1 = float(np.max(np.abs(rec1.drift)))
    max5 = float(np.max(np.abs(rec5.drift)))
    slope = np.polyfit(rec1.times, rec1.drift, 1)[0]
    trend = abs(slope) * rec1.times[-1]
    ok = (5e-3 <= max1 <= 6e-2) and (trend <= 0.05 * max1) and (max5 <= 1e-12)
    report(
        1,
        "periodic sine-Gordon drift",
        ok,
        f"HBVM(1,1) max|dH|={max1:.3e} (trend {trend:.1e}), HBVM(5,1) max|dH|={max5:.3e}",
    )


def test_criterion_2_fourier_projection_error():
    psi0, psi1 = problems.sine_gordon_initial(GAMMA)
    system = build_fourier(100, 200, DOMAIN, problems.sine_gordon_f, problems.sine_gordon_fprime, psi0, psi1)
    _, _, e_n = project_initial(system.descriptor["spectral"].basis, 4096, psi0, psi1)
    ok = 1.6e-12 <= e_n <= 1.6e-10
    report(2, "Fourier projection residual (N=100, m=200)", ok, f"e_N={e_n:.3e}, target ~1.6e-11")


TABLE_FD = {400: 1.4486e-01, 800: 3.6900e-02, 1600: 9.2702e-03, 3200: 2.3204e-03}
TABLE_FG = {400: 1.7883e-03, 800: 4.4985e-04, 1600: 1.1262e-04, 3200: 2.8171e-05}


def _max_error_run(system, y0, values, level, sample):
    worst = 0.0

    def observer(n, t, y):
        nonlocal worst
        err = float(np.max(np.abs(values(y) - sample(t))))
        if err > worst:
            worst = err

    integrate(system, y0, 40.0 / level, level, HBVMMethod(5, 1), SolverConfig(), record_stride=0, observer=observer)
    return worst


def test_criterion_3_convergence_table():
    results = {}
    for level in TABLE_FD:
        system, y0 = problems.sine_gordon_system(gamma=GAMMA, bc="periodic", scheme="fd2", N=level)
        x = system.descriptor["x"]
        results[("fd", level)] = _max_error_run(
            system, y0, lambda y: y[:level], level, lambda t: problems.sine_gordon_exact(GAMMA, x, t)
        )
    system, y0 = problems.sine_gordon_system(gamma=GAMMA, bc="periodic", scheme="fourier", N=100, m=200)
    spec = system.descriptor["spectral"]
    xs = spec.basis.points(200)
    dim = spec.basis.dim
    for level in TABLE_FG:
        results[("fg", level)] = _max_error_run(
            system, y0, lambda y: _synthesis(spec, y[:dim]), level, lambda t: problems.sine_gordon_exact(GAMMA, xs, t)
        )
    ok = True
    details = []
    for tag, table in (("fd", TABLE_FD), ("fg", TABLE_FG)):
        for level, expected in table.items():
            got = results[(tag, level)]
            ok &= abs(got - expected) <= 0.10 * expected
            details.append(f"{tag}{level}={got:.4e}")
        levels = sorted(table)
        for a, b in zip(levels, levels[1:]):
            rate = math.log2(results[(tag, a)] / results[(tag, b)])
            ok &= 1.90 <= rate <= 2.05
            details.append(f"{tag}-rate{b}={rate:.2f}")
    report(3, "convergence table vs reference errors (10%)", ok, "; ".join(details))


def test_criterion_4_polynomial_energy_exactness():
    details = []
    ok = True
    osc = problems.quartic_oscillator()
    for k, s in ((2, 1), (4, 2)):
        rec = integrate(osc, np.array([1.0, 0.5]), 0.3, 1000, HBVMMethod(k, s), SolverConfig(mode="fixed-point"))
        d = float(np.max(np.abs(rec.drift)))
        ok &= d <= 1e-12
        details.append(f"oscillator({k},{s})={d:.1e}")
    wave, y0 = problems.quartic_wave_system(N=32)
    for k, s in ((2, 1), (4, 2)):
        rec = integrate(wave, y0, 0.05, 1000, HBVMMethod(k, s), SolverConfig())
        d = float(np.max(np.abs(rec.drift)))
        ok &= d <= 1e-12
        details.append(f"wave({k},{s})={d:.1e}")
    report(4, "exact conservation for quartic energies", ok, "; ".join(details))


def test_criterion_5_order_two_s():
    system = problems.pendulum()
    y0 = np.array([1.5, 0.3])
    T = 4.0
    ref = reference_solve(system, y0, (0.0, T), t_eval=[T]).y[:, 0]
    windows = {(2, 1): [0.4, 0.2, 0.1], (4, 2): [0.4, 0.2, 0.1], (6, 3): [0.8, 0.4, 0.2]}
    ok = True
    details = []
    for (k, s), hs in windows.items():
        errs = []
        for h in hs:
            n = round(T / h)
            rec = integrate(system, y0, T / n, n, HBVMMethod(k, s), SolverConfig(mode="fixed-point", tol=1e-15))
            errs.append(np.max(np.abs(rec.final_state - ref)))
        rate = fitted_rate(hs, errs)
        ok &= abs(rate - 2 * s) <= 0.2
        details.append(f"HBVM({k},{s}) rate={rate:.2f}")
    report(5, "order 2s convergence", ok, "; ".join(details))


def test_criterion_6_augmented_conservation():
    ok = True
    details = []
    for bc in ("dirichlet", "neumann"):
        system, y0 = problems.sine_gordon_system(gamma=GAMMA, bc=bc, scheme="fd2", N=400)
        rec5 = integrate(system, y0, 0.1, 1000, HBVMMethod(5, 1), SolverConfig(), record_stride=0)
        rec1 = integrate(system, y0, 0.1, 1000, HBVMMethod(1, 1), SolverConfig(), record_stride=0)
        d5 = float(np.max(np.abs(rec5.drift)))
        d1 = float(np.max(np.abs(rec1.drift)))
        ok &= d5 <= 1e-10 and d1 >= 1e-3
        details.append(f"{bc}: HBVM(5,1)={d5:.1e}, HBVM(1,1)={d1:.1e}")
    report(6, "augmented-energy conservation separation", ok, "; ".join(details))


def test_criterion_7_trapezoidal_exactness():
    rng = np.random.default_rng(11)
    ok = True
    worst = 0.0
    for nu in (3, 4):
        fprime = (lambda u: u**2) if nu == 3 else (lambda u: u**3)
        for n_modes in (1, 2, 4):
            m_min = nu * n_modes + 1
            q = rng.standard_normal(2 * n_modes + 1)
            reference = None
            for m in list(range(m_min, m_min + 6)) + [10 * m_min]:
                system = build_fourier(n_modes, m, DOMAIN, lambda u: u, fprime, lambda x: 0 * x, lambda x: 0 * x)
                val = nonlinear_term(system.descriptor["spectral"], q)
                if reference is None:
                    reference = val
                else:
                    worst = max(worst, float(np.max(np.abs(val - reference))))
    ok = worst <= 1e-13
    report(7, "trapezoidal quadrature exactness (polynomial f)", ok, f"max spread {worst:.2e}")


def test_criterion_8_structural_identities():
    ok = True
    details = []
    worst_gram = worst_int = 0.0
    for s in range(1, 5):
        for k in range(s, 13):
            tab = hbvm_tables(k, s)
            gram = tab.node_values.T @ (tab.node_values * tab.weights[:, None]) - np.eye(s)
            prod = tab.node_values.T @ (tab.node_integrals * tab.weights[:, None]) - tab.integration_matrix
            worst_gram = max(worst_gram, float(np.max(np.abs(gram))))
            worst_int = max(worst_int, float(np.max(np.abs(prod))))
    ok &= worst_gram <= 1e-13 and worst_int <= 1e-13
    details.append(f"orthonormality {worst_gram:.1e}, integration {worst_int:.1e}")

    a1, b1, c1 = rk_tableau(HBVMMethod(1, 1))
    gauss1 = abs(a1[0, 0] - 0.5) + abs(b1[0] - 1.0) + abs(c1[0] - 0.5)
    a2, _, _ = rk_tableau(HBVMMethod(2, 2))
    r3 = np.sqrt(3.0)
    gauss2 = float(np.max(np.abs(a2 - np.array([[0.25, 0.25 - r3 / 6], [0.25 + r3 / 6, 0.25]]))))
    ok &= gauss1 <= 1e-13 and gauss2 <= 1e-13
    details.append(f"Gauss tableau dev {max(gauss1, gauss2):.1e}")

    system = problems.pendulum()
    y0 = np.array([1.1, -0.4])
    worst_step = 0.0
    for k, s in ((2, 1), (5, 1), (6, 3)):
        a_mat, b, c = rk_tableau(HBVMMethod(k, s))
        direct = rk_step_direct(system.rhs, y0, 0.08, a_mat, b, c, tol=1e-16)
        ours, _ = step(system, y0, 0.08, HBVMMethod(k, s), SolverConfig(mode="fixed-point", tol=1e-15))
        worst_step = max(worst_step, float(np.max(np.abs(ours - direct))))
    ok &= worst_step <= 1e-12
    details.append(f"step-vs-tableau dev {worst_step:.1e}")
    report(8, "structural identities", ok, "; ".join(details))


def test_criterion_9_coefficient_scaling():
    system = problems.pendulum()
    y0 = np.array([0.5, 1.0])
    cfg = SolverConfig(mode="fixed-point", tol=1e-15)
    g_h = Stepper(system, 0.2, HBVMMethod(6, 3), cfg).coefficients(y0)
    g_h2 = Stepper(system, 0.1, HBVMMethod(6, 3), cfg).coefficients(y0)
    ratios = [float(np.log2(np.linalg.norm(g_h[j]) / np.linalg.norm(g_h2[j]))) for j in range(3)]
    ok = all(abs(r - j) <= 0.3 for j, r in enumerate(ratios))
    report(9, "stage coefficient scaling O(h^j)", ok, f"log2 ratios {['%.2f' % r for r in ratios]}")


def test_criterion_10_solver_equivalence():
    tol = 1e-13
    ok = True
    details = []
    cases = {
        "periodic": problems.sine_gordon_system(gamma=GAMMA, bc="periodic", scheme="fd2", N=200),
        "periodic-fd6": problems.sine_gordon_system(gamma=GAMMA, bc="periodic", scheme="fd6", N=200),
        "dirichlet": problems.sine_gordon_system(gamma=GAMMA, bc="dirichlet", scheme="fd2", N=200),
        "neumann": problems.sine_gordon_system(gamma=GAMMA, bc="neumann", scheme="fd2", N=200),
        "fourier": problems.sine_gordon_system(gamma=GAMMA, scheme="fourier", N=100, m=200),
    }
    for name, (system, y0) in cases.items():
        cfg = SolverConfig(tol=tol)
        g_fp = Stepper(system, 0.05, HBVMMethod(5, 1), replace(cfg, mode="fixed-point")).coefficients(y0)
        g_bl = Stepper(system, 0.05, HBVMMethod(5, 1), replace(cfg, mode="blended")).coefficients(y0)
        dev = float(np.max(np.abs(g_fp - g_bl)))
        bound = 100 * tol * (1.0 + float(np.max(np.abs(y0))))
        ok &= dev <= bound
        details.append(f"{name}={dev:.1e}")
    report(10, "blended vs fixed-point coefficients", ok, "; ".join(details) + f" (bound {bound:.1e})")


def test_criterion_11_comparator_validity():
    system = problems.harmonic_oscillator(omega=1.0)
    y0 = np.array([1.0, 0.3])
    T = 4.0
    ref = reference_solve(system, y0, (0.0, T), t_eval=[T]).y[:, 0]
    ok = True
    details = []
    for order, hs in ((2, [0.2, 0.1, 0.05]), (4, [0.4, 0.2, 0.1]), (6, [0.4, 0.2, 0.1])):
        scheme = composition_scheme(order)
        coeffs = scheme.coefficients
        palindromic = bool(np.all(coeffs == coeffs[::-1]))
        unit_sum = abs(math.fsum(coeffs) - 1.0) <= 1e-15
        errs = []
        for h in hs:
            n = round(T / h)
            rec = integrate_explicit(system, y0, T / n, n, scheme, record_stride=0)
            errs.append(np.max(np.abs(rec.final_state - ref)))
        rate = fitted_rate(hs, errs)
        ok &= palindromic and unit_sum and abs(rate - order) <= 0.3
        details.append(f"SV{order}: rate={rate:.2f}, palindromic={palindromic}, sum-1={math.fsum(coeffs)-1.0:+.1e}")
    report(11, "explicit baselines", ok, "; ".join(details))
