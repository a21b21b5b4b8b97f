"""Hot numeric kernels: stencil products in difference form and tridiagonal solves.

Stencil applications accumulate second differences per offset,
(q[i] - q[i-r]) - (q[i+r] - q[i]), instead of expanding the band products;
differences of neighbouring values are nearly exact in floating point, which
keeps the noise floor of T q / dx^2 evaluations an order of magnitude below
the naive form and lets the stage iterations converge to tight tolerances.

The circulant stencil wraps q once into a padded copy [q[n-R:], q, q[:R]]
(R the stencil reach) and takes per offset r one lagged difference of it,
whose slices from R - r and from R are the backward and forward differences.
At the integrator's sizes (a few stage rows of a few hundred nodes) a call
costs its per-operation overhead: 3 numpy calls for fd2, 12 for fd6.

All kernels operate on float64 arrays with numpy/scipy.  Stencils act along
the last axis, on one vector or a (k, n) matrix of stage rows; the batched
names are aliases of the same functions, kept for profilers that patch the
kernels by name.  Callers look the kernels up as module attributes at each
call, so a profiler can substitute timed wrappers.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

__all__ = [
    "BACKEND",
    "circulant_apply",
    "circulant_apply_batch",
    "tridiag_diff_apply",
    "tridiag_diff_apply_batch",
    "tridiag_solve_batch",
]

BACKEND = "numpy"


def circulant_apply(weights: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Circulant stencil sum_r w_r * (2 q_i - q_{i-r} - q_{i+r}) along the last axis.

    Sums w_r * (bwd - fwd) from the first term, unscaled for w_r = 1: bit for bit the np.roll form,
    which subtracts w_r * (fwd - bwd) from zeros (x + (-y) is x - y), but for the sign of a zero,
    -0 for +0 at node i only if q[i] = -0, q[i-1] = +0 and q[i+1] is a zero.
    """
    n, reach = q.shape[-1], weights.size
    wrapped = np.concatenate((q[..., n - reach :], q, q[..., :reach]), axis=-1)
    for r, w in enumerate(weights.tolist(), start=1):
        lag = wrapped[..., r:] - wrapped[..., :-r]
        term = np.subtract(lag[..., reach - r : reach - r + n], lag[..., reach : reach + n])
        if w != 1.0:
            term *= w
        out = term if r == 1 else np.add(out, term, out=out)
    return out


def tridiag_diff_apply(q: np.ndarray, corner: float) -> np.ndarray:
    """Tridiagonal stencil (off-diagonal -1) along the last axis.

    corner 1 -> value ends (Dirichlet), 0 -> slope ends (Neumann).
    """
    d = q[..., 1:] - q[..., :-1]
    out = np.empty_like(q)
    out[..., 0] = -d[..., 0] + corner * q[..., 0]
    out[..., 1:-1] = d[..., :-1] - d[..., 1:]
    out[..., -1] = d[..., -1] + corner * q[..., -1]
    return out


circulant_apply_batch = circulant_apply
tridiag_diff_apply_batch = tridiag_diff_apply


def tridiag_solve_batch(diag: np.ndarray, off: float, rhs: np.ndarray) -> np.ndarray:
    """Row-wise solve of the symmetric tridiagonal system."""
    rhs = np.atleast_2d(rhs)
    n = diag.size
    ab = np.zeros((3, n))
    ab[0, 1:] = off
    ab[1] = diag
    ab[2, :-1] = off
    return scipy.linalg.solve_banded((1, 1), ab, rhs.T).T
