"""Shared test helpers: independent reference integration, RK and stage-solve oracles."""

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import solve_ivp


def reference_solve(system, y0, t_span, t_eval=None, rtol=1e-12, atol=1e-13):
    """High-accuracy reference trajectory from an independent integrator."""
    sol = solve_ivp(
        lambda t, y: system.rhs(y),
        t_span,
        np.asarray(y0, dtype=float),
        method="DOP853",
        rtol=rtol,
        atol=atol,
        t_eval=t_eval,
        dense_output=t_eval is None,
    )
    assert sol.success
    return sol


def rk_step_direct(rhs, y0, h, a_matrix, b, c, tol=1e-14, max_iter=400):
    """One implicit RK step solved by plain stage iteration on the tableau.

    Independent of the package's stage-coefficient formulation; used as the
    oracle for tableau equivalence.
    """
    k = len(b)
    y0 = np.asarray(y0, dtype=float)
    stages = np.tile(y0, (k, 1))
    for _ in range(max_iter):
        f_rows = np.array([rhs(stages[i]) for i in range(k)])
        new = y0[None, :] + h * (a_matrix @ f_rows)
        delta = np.max(np.abs(new - stages))
        stages = new
        if delta <= tol * (1.0 + np.max(np.abs(y0))):
            break
    f_rows = np.array([rhs(stages[i]) for i in range(k)])
    return y0 + h * (b @ f_rows)


def fd_jacobian(fn, y):
    """Central-difference Jacobian of a row-wise map: all 2n probes in two calls."""
    eps = 1e-7 * (1.0 + np.abs(y))
    probes = np.diag(eps)
    return ((fn(y + probes) - fn(y - probes)) / (2.0 * eps[:, None])).T


def hbvm_newton_step(system, y0, h, method, tol=2e-15, max_iter=100):
    """One HBVM(k,s) step with its stage equations solved on the full state by simplified Newton.

    The s Legendre coefficient rows c of the state derivative satisfy
    c = B rhs(y0 + h N c) (B = weighted_basis, N = node_integrals); Newton
    iterates with the fixed matrix I - h X (x) J, J = fd_jacobian(rhs, y0),
    until an update moves y1 = y0 + h c_0 by at most tol (1 + |y0|_inf).
    It reads only system.rhs and these tables, never the package's stage
    solvers or their stage positions, so it is the oracle they are checked on.
    """
    tab = method.tables
    y0 = np.asarray(y0, dtype=float)
    jac = fd_jacobian(system.rhs, y0)
    lu = scipy.linalg.lu_factor(np.eye(tab.s * len(y0)) - h * np.kron(tab.integration_matrix, jac))
    coeffs = np.zeros((tab.s, len(y0)))
    for _ in range(max_iter):
        residual = tab.weighted_basis @ system.rhs(y0 + h * (tab.node_integrals @ coeffs)) - coeffs
        update = scipy.linalg.lu_solve(lu, residual.ravel()).reshape(coeffs.shape)
        coeffs += update
        if h * np.max(np.abs(update)) <= tol * (1.0 + np.max(np.abs(y0))):
            return y0 + h * coeffs[0]
    raise AssertionError(f"Newton oracle did not reach tol {tol:.1e} in {max_iter} iterations")


def fitted_rate(hs, errs):
    """Least-squares convergence order from (h, error) samples."""
    return np.polyfit(np.log(hs), np.log(errs), 1)[0]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
