"""Shifted Legendre basis on [0,1], Gauss rules, and the HBVM coefficient tables.

The polynomial basis used throughout is the L2-orthonormal shifted Legendre
family P_j on [0,1] (deg P_j = j, int_0^1 P_i P_j = delta_ij).  A method
HBVM(k,s) is assembled from the k-node Gauss rule of this family together
with the k x s matrices of basis values and basis antiderivatives at the
nodes; their product gives the s x s tridiagonal integration matrix X,
whose square shifts the stiff operator L in the blended stage solve,
I + h^2 X^2 (x) L.

The nodes are the Golub-Welsch eigenvalues of the Legendre Jacobi matrix
(off-diagonals j / sqrt(4j^2 - 1)) mapped to [0,1], and P_j = sqrt(2j+1)
L_j(2x-1) is evaluated by numpy.polynomial.legendre's legval/legvander.  The
weights are the Christoffel numbers b_i = 1 / sum_{j<k} P_j(c_i)^2 of those
nodes, which keep the discrete Gram identity V^T diag(b) V = I at roundoff
(4e-16 at HBVM(20,6), against 1e-14 with leggauss's weights).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.polynomial.legendre as npleg

__all__ = [
    "QuadratureRule",
    "HBVMTables",
    "shifted_legendre_eval",
    "shifted_legendre_antiderivative",
    "gauss_rule",
    "hbvm_tables",
    "MAX_NODES",
    "MAX_DEGREE",
]

# Method sizes supported (covers every configuration used by the experiments,
# max k = 9, with headroom).
MAX_NODES = 20
MAX_DEGREE = 6


def check_count(name: str, value, minimum: int) -> None:
    """Rejects a non-integer value (a bool or a float too) or one below minimum, naming the argument."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")


def check_domain(domain) -> tuple:
    """The endpoints (a, b) of an interval as floats; rejects a non-finite endpoint or a >= b, naming the domain."""
    a, b = float(domain[0]), float(domain[1])
    if not -np.inf < a < b < np.inf:
        raise ValueError(f"domain must have finite endpoints a < b, got {tuple(domain)!r}")
    return a, b


def shifted_legendre_eval(j: int, x):
    """Orthonormal shifted Legendre polynomial P_j evaluated at x in [0,1]."""
    if j < 0:
        raise ValueError("degree must be nonnegative")
    t = 2.0 * np.asarray(x, dtype=float) - 1.0
    return np.sqrt(2 * j + 1) * npleg.legval(t, [0.0] * j + [1.0])


def shifted_legendre_antiderivative(j: int, x):
    """Antiderivative int_0^x P_j of the orthonormal shifted Legendre P_j.

    Uses the closed form in terms of neighbouring standard Legendre values,
    L_{j+1}(2x-1) - L_{j-1}(2x-1), which vanishes at x = 0 and (for j >= 1)
    at x = 1.
    """
    if j < 0:
        raise ValueError("degree must be nonnegative")
    x = np.asarray(x, dtype=float)
    if j == 0:
        return x + 0.0
    return npleg.legval(2.0 * x - 1.0, [0.0] * (j - 1) + [-1.0, 0.0, 1.0]) / (2.0 * np.sqrt(2 * j + 1))


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre rule on [0,1]: k nodes in (0,1), positive weights."""

    k: int
    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None)
def _gauss_rule_cached(k: int) -> QuadratureRule:
    j = np.arange(1.0, k)
    t = np.linalg.eigvalsh(np.diag(j / np.sqrt(4.0 * j * j - 1.0), -1))
    # Enforce the exact root symmetry t_i = -t_{k+1-i} before mapping to [0,1].
    nodes = 0.5 * (1.0 + 0.5 * (t - t[::-1]))
    # Christoffel weights of the orthonormal family: b_i = 1 / sum_j P_j(c_i)^2.
    table = npleg.legvander(2.0 * nodes - 1.0, k - 1) * np.sqrt(2 * np.arange(k) + 1)
    weights = 1.0 / np.sum(table * table, axis=1)
    weights = 0.5 * (weights + weights[::-1])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(k=k, nodes=nodes, weights=weights)


def gauss_rule(k: int) -> QuadratureRule:
    """k-node Gauss rule on [0,1] (order 2k)."""
    check_count("k", k, 1)
    if k > MAX_NODES:
        raise ValueError(f"node count {k} exceeds supported maximum {MAX_NODES}")
    return _gauss_rule_cached(k)


def _integration_matrix(s: int) -> np.ndarray:
    """The s x s matrix of Legendre integration coefficients.

    Entry (1,1) is 1/2; sub/super-diagonals hold +/- xi_i with
    xi_i = 1 / (2 sqrt(4 i^2 - 1)); all other entries vanish.
    """
    xs = np.zeros((s, s))
    xs[0, 0] = 0.5
    for i in range(1, s):
        xi = 0.5 / np.sqrt(4.0 * i * i - 1.0)
        xs[i - 1, i] = -xi
        xs[i, i - 1] = xi
    return xs


@dataclass(frozen=True)
class HBVMTables:
    """Per-(k,s) quadrature and coefficient matrices of an HBVM method.

    node_values[i,j]    = P_j(c_i)            (k x s)
    node_integrals[i,j] = int_0^{c_i} P_j     (k x s)
    integration_matrix  = node_values^T diag(b) node_integrals  (s x s, exact
                          tridiagonal form for k >= s)
    weighted_basis      = (diag(b) node_values)^T  (s x k): stage values to
                          Legendre coefficients
    stage_weights       = node_integrals integration_matrix  (k x s): the
                          h^2 term of the stage positions
    """

    k: int
    s: int
    rule: QuadratureRule
    node_values: np.ndarray
    node_integrals: np.ndarray
    integration_matrix: np.ndarray
    weighted_basis: np.ndarray
    stage_weights: np.ndarray

    @property
    def nodes(self) -> np.ndarray:
        return self.rule.nodes

    @property
    def weights(self) -> np.ndarray:
        return self.rule.weights


@lru_cache(maxsize=None)
def _hbvm_tables_cached(k: int, s: int) -> HBVMTables:
    rule = gauss_rule(k)
    vals = np.column_stack([shifted_legendre_eval(j, rule.nodes) for j in range(s)])
    ints = np.column_stack(
        [shifted_legendre_antiderivative(j, rule.nodes) for j in range(s)]
    )
    xs = _integration_matrix(s)
    weighted_basis = (vals * rule.weights[:, None]).T
    stage_weights = ints @ xs
    for table in (vals, ints, xs, weighted_basis, stage_weights):
        table.setflags(write=False)
    return HBVMTables(
        k=k,
        s=s,
        rule=rule,
        node_values=vals,
        node_integrals=ints,
        integration_matrix=xs,
        weighted_basis=weighted_basis,
        stage_weights=stage_weights,
    )


def hbvm_tables(k: int, s: int) -> HBVMTables:
    """Coefficient tables of the HBVM(k,s) method; cached per (k,s)."""
    check_count("k", k, 1)
    check_count("s", s, 1)
    if k < s:
        raise ValueError(f"invalid method: requires k >= s, got k={k}, s={s}")
    if s > MAX_DEGREE:
        raise ValueError(f"s={s} exceeds supported maximum {MAX_DEGREE}")
    return _hbvm_tables_cached(k, s)
