"""Hot numeric kernels: stencil products in difference form and tridiagonal solves.

Stencil applications accumulate second differences per offset,
(q[i+r] - q[i]) - (q[i] - q[i-r]), instead of expanding the band products;
differences of neighbouring values are nearly exact in floating point, which
keeps the noise floor of T q / dx^2 evaluations an order of magnitude below
the naive form and lets the stage iterations converge to tight tolerances.

The circulant stencil wraps q once into a padded copy [q[n-R:], q, q[:R]]
(R the stencil reach), so the neighbours q[i+r] and q[i-r] are slices of that
copy, and writes both differences into preallocated buffers.  At the sizes
the integrator runs (a few stage rows of a few hundred nodes) a call costs
its fixed per-operation overhead, not its arithmetic; slices avoid the two
np.roll copies per offset, and the difference form, with its noise floor,
is kept operation for operation.

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

    Accumulates out -= w_r * ((q[i+r] - q[i]) - (q[i] - q[i-r])) for
    r = 1..R, reading the neighbours as slices of the wrapped copy.
    """
    n, reach = q.shape[-1], weights.size
    wrapped = np.concatenate((q[..., n - reach :], q, q[..., :reach]), axis=-1)
    out = np.zeros(q.shape)
    fwd = np.empty(q.shape)
    bwd = np.empty(q.shape)
    for r, w in enumerate(weights.tolist(), start=1):
        np.subtract(wrapped[..., reach + r : reach + r + n], q, out=fwd)
        np.subtract(q, wrapped[..., reach - r : reach - r + n], out=bwd)
        fwd -= bwd
        fwd *= w
        out -= fwd
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
