"""HBVM(k,s) one-step integration in stage-coefficient form.

One step advances the degree-s polynomial whose derivative has Legendre
coefficients fitted by the k-node Gauss rule.  For separable systems
(qdot = p) the nonlinear solve reduces to the s coefficient blocks of the
momentum derivative: with stage positions

    Q_i = q0 + c_i h p0 + h^2 sum_j (node_integrals @ X)_{ij} g_j,

the coefficients satisfy g_j = sum_i b_i P_j(c_i) pdot(Q_i), and the step
closes with p1 = p0 + h g_0 and q1 = q0 + h p0 + h^2 (g_0/2 - xi_1 g_1).
The force is pdot = from_grid(accel(to_grid(q))) - L q with L linear and
accel pointwise (plus, on augmented systems, a boundary force of time alone,
evaluated once per solve), so L and the grid maps act on the s coefficient
rows, only accel sees the k stage rows, and the rounding of the stiff
operator stays out of the iterates (see _separable_solver for F, B and Q0).
Non-separable systems use the full-state analogue of the same fixed point;
a semilinear one, ydot = g(y) - L y (NLS), splits it the same way, with
only the pointwise g on the k stage rows (see _generic_solver).

Two solvers share these equations and one iteration loop: plain
fixed-point iteration and the blended step (the simplified-Newton step on
the stiff linear part, g <- (I + h^2 X^2 (x) L)^-1 (F(g) - L B Q0), and
c <- (I + h X (x) L)^-1 (B g(Y) - e_0 (x) L y0) on semilinear systems: one
exact solve on the s coefficient rows per iteration, with no L in the loop,
from the system's make_preconditioner).  On grid-valued unknowns (finite
differences) the blended step also inverts, to first order, the pointwise
Jacobian of accel frozen at the step midpoint, with one extra accel call per
solve (see _separable_solver); it moves the speed of convergence, not the
fixed point.  The tests check both against an independent full-state Newton
solve (tests/conftest.py).

A Stepper builds what does not depend on the state once per run; step()
reuses the last Stepper it built while its arguments stay the same.  In
blended mode, which solves the stiff part exactly, a Stepper warm-starts
each solve of a chain of steps from the better of two predictors (see Stepper).
On Fourier coefficients one of them follows each mode's rotation under the
linear step, the s-stage Gauss method, whose determinant is 1: by
Cayley-Hamilton its coefficient rows obey c_n+2 - beta c_n+1 + c_n = 0, with
beta the step's trace, read once per run off the solver's own linear step.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .legendre import HBVMTables, check_count, hbvm_tables
from .systems import SemiDiscreteSystem

__all__ = [
    "HBVMMethod",
    "SolverConfig",
    "StepDiagnostics",
    "TrajectoryRecord",
    "SolverError",
    "StepFailure",
    "Stepper",
    "step",
    "drive",
    "integrate",
    "rk_tableau",
]

MODES = ("fixed-point", "blended")
_ENERGY_ROWS, _ENERGY_NUMBERS = 32, 3 * 2**14  # drive's energy stacks; more numbers spill fd2 N=3200 out of L2


class SolverError(RuntimeError):
    """Nonlinear stage solve failed to converge."""

    def __init__(self, message: str, diagnostics: "StepDiagnostics" = None):
        super().__init__(message)
        self.diagnostics = diagnostics


class StepFailure(RuntimeError):
    """A step of an integration failed; carries the step index, diagnostics,
    and the partial trajectory up to the failure (when integrating)."""

    def __init__(self, message: str, step_index: int, diagnostics: "StepDiagnostics" = None):
        super().__init__(message)
        self.step_index = step_index
        self.diagnostics = diagnostics
        self.partial: Optional["TrajectoryRecord"] = None


@dataclass(frozen=True)
class HBVMMethod:
    """HBVM(k,s): k nodes, degree s, order 2s; hbvm_tables rejects an unsupported (k, s)."""

    k: int
    s: int

    def __post_init__(self):
        hbvm_tables(self.k, self.s)

    @property
    def tables(self) -> HBVMTables:
        return hbvm_tables(self.k, self.s)

    @property
    def name(self) -> str:
        return f"HBVM({self.k},{self.s})"

    @property
    def order(self) -> int:
        return 2 * self.s


def _stiff_preconditioner(system: SemiDiscreteSystem):
    """make_preconditioner of the system's separable or semilinear form, None without one."""
    return getattr(system.separable or system.semilinear, "make_preconditioner", None)


@dataclass(frozen=True)
class SolverConfig:
    """Nonlinear solver settings.

    mode "auto" resolves to blended for systems whose separable or
    semilinear form has a stiffness preconditioner, NLS included, and to
    fixed-point otherwise.  A step is accepted when
    the last update changes its output by at most tol relative to
    1 + |y0|_inf.  The default, about ten rounding units, falls between the
    residuals of successive iterations on the sine-Gordon and NLS runs, so
    their iteration counts do not flip with small changes of the data.
    """

    mode: str = "auto"
    tol: float = 2e-15
    max_iter: int = 100

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError("tol must be finite and positive")
        check_count("max_iter", self.max_iter, 1)
        if self.mode not in MODES + ("auto",):
            raise ValueError(f"unknown solver mode {self.mode!r}")

    def resolve_mode(self, system: SemiDiscreteSystem) -> str:
        if self.mode != "auto":
            return self.mode
        return "blended" if _stiff_preconditioner(system) is not None else "fixed-point"


@dataclass
class StepDiagnostics:
    iterations: int
    residual: float
    mode: str


@dataclass
class TrajectoryRecord:
    """Time series produced by integrate(): energies, drifts, diagnostics.

    ``states`` holds the states recorded at ``record_times`` (stride-decimated,
    always including the initial and final state).  ``hamiltonian`` is the
    conserved energy at every step; ``physical_hamiltonian`` is the plain
    energy H = Ht - pt of augmented systems, derived from it and the pt
    series when the record is built (None for other systems).
    """

    times: np.ndarray
    states: np.ndarray
    record_times: np.ndarray
    hamiltonian: np.ndarray
    physical_hamiltonian: Optional[np.ndarray]
    iterations: np.ndarray
    residuals: np.ndarray
    mode: str
    wall_time: float = 0.0

    @property
    def drift(self) -> np.ndarray:
        return self.hamiltonian - self.hamiltonian[0]

    @property
    def physical_drift(self) -> Optional[np.ndarray]:
        if self.physical_hamiltonian is None:
            return None
        return self.physical_hamiltonian - self.physical_hamiltonian[0]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _iterate(target, start, y0, h, cfg: SolverConfig, mode: str, n: int, correct=None):
    """The stage-coefficient loop that every solver mode runs: coeffs <- target(coeffs) from start.

    target is the fixed-point map or the blended step; start is zero, or in
    blended mode the Stepper's warm start (see Stepper for when, and why
    only there).  correct, if given, maps the update target(coeffs) - coeffs,
    a fresh array it may overwrite, to the one applied (the blended solve's
    pointwise Jacobian factor, see _separable_solver).  The residual is the
    change the update makes to the step's output y1, h max(1, h) max|update|
    relative to 1 + |y0|_inf (y1 takes h c_0 on the momenta or the whole
    state, h^2 c on the positions), and the solve stops when it is at most
    tol.  The solve stops, before the iterates overflow, once ten
    iterations pass without a new smallest update or an update
    exceeds the first one, which is the size of the whole solution: as
    diverging if the update exceeds the first or ten times the smallest,
    else as stalled above tol (a rounding plateau).  Updates that oscillate
    on their way down set a new smallest one every few iterations and pass.
    A non-finite update stops it at once, naming the row, field (q, p, qt, pt
    with n nodes each; u, v of NLS in q, p) and node of its first NaN or inf.
    """
    scale = h * max(1.0, h) / (1.0 + float(np.abs(y0).max()))
    coeffs = start
    smallest, best = np.inf, 0
    for iteration in range(1, cfg.max_iter + 1):
        new = target(coeffs)
        update = new - coeffs
        if correct is not None:
            update = correct(update)
            new = coeffs + update
        coeffs = new
        residual = float(np.abs(update).max()) * scale
        if residual <= cfg.tol:
            return coeffs, StepDiagnostics(iteration, residual, mode)
        if not math.isfinite(residual):
            row, column = divmod(int(np.argmax(~np.isfinite(update * scale))), update.shape[1])
            column += n if update.shape[1] == n else 0  # the separable solve's columns are p's derivatives
            field, node = divmod(column, n) if column < 2 * n else (column - 2 * n + 2, 0)
            state = (f"hit a non-finite residual at iteration {iteration}, "
                     f"first in coefficient row {row}, field {('q', 'p', 'qt', 'pt')[field]}, node {node}")
            break
        if iteration == 1:
            first = residual
        if residual < smallest:
            smallest, best = residual, iteration
        elif residual > first or iteration - best >= 10:
            state = f"is diverging: residual {residual:.3e}"
            if residual <= min(first, 10.0 * smallest):
                state = f"stalled at residual {residual:.3e} above tol {cfg.tol:.1e}"
            state += (f" at iteration {iteration}, smallest {smallest:.3e} at iteration {best}; "
                      "reduce h or switch solver mode")
            break
    else:
        state = (f"did not converge in {cfg.max_iter} iterations (residual {residual:.3e}); "
                 "reduce h or switch solver mode")
    raise SolverError(f"{mode} stage solve {state}", StepDiagnostics(iteration, residual, mode))


# ---------------------------------------------------------------------------
# separable path: coefficients of the momentum derivative polynomial
# ---------------------------------------------------------------------------

def _separable_solver(system, h, tab, cfg, mode):
    """(solve, rotation): solve(y0, start) -> (coeffs, diagnostics, y1), y1 the step's output, and the
    warm start's beta on modal unknowns in blended mode, else None (see Stepper).

    The stage positions are Q = Q0 + h^2 W c with Q0_i = q0 + c_i h p0 and
    W = stage_weights, and B = weighted_basis has B W = X^2.  So the
    fixed-point map B pdot(Q) splits into F(c) - L(B Q0) - L(h^2 X^2 c) with
    F(c) = from_grid(B accel(to_grid(Q0) + h^2 W to_grid(c))): L and the
    grid maps act on the s coefficient rows, and only the pointwise accel
    sees the k stage rows (in a buffer each solve owns).  Q0 = lift (q0, p0)
    with the k x 2 table lift = [1, h c_i], and the maps are linear, so
    to_grid and L see two rows per step, not k.  One forcing call at the
    stage times gives an augmented system's boundary force, which joins
    L(B Q0) as -B force, and ptdot at the accepted stage positions.  The
    table products use np.dot, not @: matmul does not send an inner
    dimension of 1 (s = 1) to BLAS, so W @ c takes 4-7 us at n = 400-800,
    np.dot 1-2 us, same bits.

    The blended update u = P r (P the exact solve of I + h^2 X^2 (x) L, r the
    residual of the stage equations) treats f'' explicitly.  On grid values
    (to_grid None) each u becomes (I + alpha (x) X^2) u, the first-order
    approximate factorization of the simplified-Newton matrix I + h^2 X^2 (x)
    (L - diag a) (Hundsdorfer & Verwer 2003, IV.4), with a = d accel/du
    frozen at the midpoint q0 + h p0 / 2, taken by one central difference
    (accel on the fresh rows mid +- eps), at s = 1 one multiply by 1 + alpha/4.
    The factor removes most of the error of the smooth modes, where it lives,
    but it also acts on the stiff modes, which the exact solve alone leaves
    with almost none.  Undamped (alpha = h^2 a) it leaves them the plain
    step's slowest rate h^2 |a| rho(X^2) in the constant-coefficient model,
    and fd6 HBVM(5,1) at h = 0.8 took 0.3 iterations per step more than
    without it.  Damped, alpha = h^2 a / (1 + h^2 |a| |X^2|_inf), every mode
    contracts faster than that.  |alpha| |X^2|_inf < 1 keeps the factor
    invertible, so the fixed point and the accepted equations are unchanged.
    On Fourier coefficients the Jacobian is not diagonal, and applying it
    would cost two transforms per iteration, so they iterate without it.
    With accel = 0 the blended update solves the step at once, c = P(-L B Q0):
    on modal unknowns (L, P diagonal) a 2 x 2 map per unknown, whose trace
    beta is q1 from (q0, p0) = (1, 0) plus p1 from (0, 1) (at s = 1, 4P - 2).
    """
    sep = system.separable
    nq = sep.nq
    to_grid = sep.to_grid or (lambda rows: rows)
    from_grid = sep.from_grid or (lambda rows: rows)
    lin = sep.linear_operator or (lambda rows: 0.0)
    xs2 = tab.integration_matrix @ tab.integration_matrix
    lift = np.stack([np.ones_like(tab.nodes), h * tab.nodes], axis=1)
    lift_basis = np.dot(tab.weighted_basis, lift)
    rotation = None
    if mode == "blended":
        precondition = sep.make_preconditioner(h * h * xs2)
        xs2_norm = np.abs(xs2).sum(axis=1).max()
        if sep.to_grid is not None:  # beta per unknown, tiled over the s rows of a flattened block
            from_q, from_p = (precondition(-lin(np.dot(lift_basis, qp))) for qp in np.eye(2)[..., None] * np.ones(nq))
            rotation = np.tile(2.0 + h * h * np.dot(tab.integration_matrix[0], from_q) + h * from_p[0], len(xs2))

    def solve(y0, start):
        q0, p0 = qp0 = y0[: 2 * nq].reshape(2, nq)
        grid_base = np.dot(lift, to_grid(qp0))
        lin_base = lin(np.dot(lift_basis, qp0))
        if system.augmented:
            force, rate = sep.forcing(y0[2 * nq] + tab.nodes * h)
            lin_base -= np.dot(tab.weighted_basis, force)
        stage_grid = np.empty(grid_base.shape)

        def forces(coeffs):
            grid = np.dot(tab.stage_weights, to_grid(coeffs), out=stage_grid)
            grid *= h * h
            grid += grid_base
            out = from_grid(np.dot(tab.weighted_basis, sep.accel(grid)))
            out -= lin_base
            return out

        def target(coeffs):
            return forces(coeffs) - lin(h * h * np.dot(xs2, coeffs))

        correct = None
        if mode == "blended":

            def target(coeffs):
                return precondition(forces(coeffs))

            if sep.to_grid is None:
                mid = q0 + (0.5 * h) * p0
                eps = 6e-6 * (1.0 + float(np.abs(mid).max()))
                rates = sep.accel(mid + np.array([[eps], [-eps]]))
                alpha = (rates[0] - rates[1]) * (h * h / (2.0 * eps))
                alpha /= 1.0 + xs2_norm * np.abs(alpha)
                if len(xs2) == 1:
                    factor = 1.0 + xs2[0, 0] * alpha

                    def correct(update):
                        return np.multiply(update, factor, out=update)

                else:

                    def correct(update):
                        update += alpha * np.dot(xs2, update)
                        return update

        coeffs, diag = _iterate(target, start, y0, h, cfg, mode, nq, correct)
        y1 = np.empty_like(y0)
        y1[nq : 2 * nq] = p0 + h * coeffs[0]
        y1[:nq] = q0 + h * p0 + h * h * np.dot(tab.integration_matrix[0], coeffs)
        if system.augmented:
            stage_q = np.dot(lift, qp0) + h * h * np.dot(tab.stage_weights, coeffs)
            y1[2 * nq] = y0[2 * nq] + h
            y1[2 * nq + 1] = y0[2 * nq + 1] + h * float(np.dot(tab.weights, rate(stage_q)))
        return coeffs, diag, y1

    return solve, rotation


# ---------------------------------------------------------------------------
# generic path: coefficients of the full state derivative polynomial
# ---------------------------------------------------------------------------

def _generic_solver(system, h, tab, cfg, mode):
    """(solve, None): solve(y0, start) -> (coeffs, diagnostics, y1) for a non-separable system.

    The stage states are Y = y0 + h N c (N = node_integrals) and B N = X,
    B 1 = e_0 (B = weighted_basis).  So for ydot = g(y) - L y the fixed-point
    map B ydot(Y) splits into B g(Y) - e_0 (x) L y0 - h X (x) L c, and the
    blended step is c <- (I + h X (x) L)^-1 (B g(Y) - e_0 (x) L y0): L and
    the preconditioner's transforms act on the s coefficient rows, and only
    the pointwise g sees the k stage rows.
    """
    form = system.semilinear
    if mode == "blended":
        precondition = form.make_preconditioner(h * tab.integration_matrix)
        h_node_integrals = h * tab.node_integrals

    def solve(y0, start):
        def target(coeffs):
            return np.dot(tab.weighted_basis, system.rhs(y0 + h * np.dot(tab.node_integrals, coeffs)))

        if mode == "blended":
            lin_y0 = form.linear_operator(y0)

            def target(coeffs):
                forces = np.dot(tab.weighted_basis, form.nonlinear(y0 + np.dot(h_node_integrals, coeffs)))
                forces[0] -= lin_y0
                return precondition(forces)

        coeffs, diag = _iterate(target, start, y0, h, cfg, mode, system.skew.n)
        return coeffs, diag, y0 + h * coeffs[0]

    return solve, None


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def _check_stepsize(h: float) -> None:
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"stepsize must be finite and positive, got {h}")


def _checked_state(system: SemiDiscreteSystem, y0) -> np.ndarray:
    """y0 as a float array; rejects a malformed or non-finite state."""
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (system.dim,):
        raise ValueError(f"expected state of length {system.dim}, got {y0.shape}")
    if not np.isfinite(y0).all():
        raise ValueError("state contains non-finite values")
    return y0


def _through(m: int) -> list:
    """Weights on the last m blocks, oldest first, of the polynomial through them at the next step."""
    return [(-1.0) ** (m - i + 1) * math.comb(m, i) for i in range(m)]


_KEEP = 9
_QUARTIC_FITS = {6: np.array([5, -19, 20, 10, -35, 25]) / 6, 7: np.array([5, -15, 7, 15, -5, -25, 25]) / 7}
_STARTS = [np.array([[0.0] * (m - min(m, 4)) + _through(min(m, 4)),
                     [0.0] * (m - min(m, 7)) + list(_QUARTIC_FITS.get(min(m, 7), _through(m)))])
           for m in range(_KEEP + 1)]
# the extrapolant (E^2 - beta E + 1)(E - 1)^7 annihilates is U c + beta (V c); stacked with the quartic fit
_ROTATION_STARTS = np.array([[1, -7, 22, -42, 56, -56, 42, -22, 7], _STARTS[_KEEP][1],
                             [0, -1, 7, -21, 35, -35, 21, -7, 1]])


def _warm_starts(blocks: np.ndarray, rotation: Optional[np.ndarray] = None) -> np.ndarray:
    """The two starts from the last m <= 9 steps' coefficients, flattened and stacked oldest first, in one product:
    row 0 the polynomial through the last min(m, 4), zero for m = 0, then c_n, 2 c_n - c_n-1, the quadratic and the
    cubic 4 c_n - 6 c_n-1 + 4 c_n-2 - c_n-3; row 1 the least-squares polynomial of degree min(m, 5) - 1 through the
    last min(m, 7): the interpolant up to five blocks, then the quartic fits, whose exact weights are sixths and
    sevenths.  Given rotation, beta = 2 cos theta per unknown, row 0 of a full chain is the next block of any series
    p(n) + A cos n theta + B sin n theta with deg p <= 6: the octic through all nine where beta = 2."""
    if rotation is None or len(blocks) < _KEEP:
        return np.dot(_STARTS[len(blocks)], blocks)
    starts = np.dot(_ROTATION_STARTS, blocks)
    starts[2] *= rotation
    starts[0] += starts[2]
    return starts[:2]


class Stepper:
    """HBVM(k,s) steps of one system at a fixed stepsize and solver setting.

    The constructor checks h, resolves the mode (SolverError for blended
    without a separable or semilinear stiffness preconditioner), and builds
    X^2 and the blended solve make_preconditioner(h^2 X^2) (make_preconditioner(h X)
    on a semilinear system).  A call does only the work that depends on y0.

    In blended mode a call from the state the Stepper last returned
    continues its chain, the coefficients of up to nine steps; any other y0
    starts a new one, from zero.  Each solve starts from one of two
    predictors formed in one product (_warm_starts): the cubic through the
    last four blocks, or, from seven blocks on, the least-squares quartic
    through the last seven if that one predicted the previous step strictly
    better in the max norm.  The fit wins at small h (NLS N=64, h = 0.002:
    1.11 it/step, 2.07 from the cubic).  The cubic stays for large h, where a fixed quartic
    or least-squares start raised the counts and, like a start of degree 0
    or 1, let them flip under a 1% change of the data.

    On modal unknowns (to_grid set: Fourier) the first start of a full
    chain is not the cubic.  There L and P are diagonal, and on the linear
    part HBVM(k,s), the s-stage Gauss method, maps each unknown's (q, p) by
    a 2 x 2 matrix of determinant 1 and trace beta_j = 2 cos theta_j.  The
    coefficients are linear in (q, p), so by Cayley-Hamilton each row obeys
    c_n+2 - beta_j c_n+1 + c_n = 0 at every s.  beta is read once per run
    off the solver's linear step, and the start is the extrapolant that
    (E^2 - beta E + 1)(E - 1)^7 annihilates, U c + beta (V c) over nine
    blocks: exact for a linear wave plus a sextic trend, the octic where
    beta = 2.  The warm-start error of the sine-Gordon runs sits in the
    middle modes: following their rotation takes sg-fourier from 3.33 to
    2.44 it/step, and a linear wave to one iteration from the eleventh step.
    (E - 1)^5 to ^9 over 7 to 11 blocks take sg-fourier 400, 374, 366, 356
    and 353 iterations, but from ten blocks the rounding that U and V's
    larger weights gain makes a linear wave relapse to two on some steps.
    The fit still starts at seven blocks; at nine, nls-fd2 rose from 167 to
    169.  On grid values P is diagonal only on the Fourier modes, and beta
    would cost a transform pair per step: periodic fd6 fell from 604 to 480
    iterations, but its slowest steps, the four-iteration steps of the
    transient, took 5-12% longer, and the step where the counts fall to
    three moved under a 1% change of gamma.  NLS, first order, would need
    E - (2P - I) and a complex transform pair.  Those keep the cubic.  The
    start changes the iteration count, not what the step accepts.  The fixed
    point always starts from zero: it leaves stiff modes uncontracted, a warm
    start carries them from step to step, and they grow.  The chain is state,
    so threads should not share a blended Stepper.
    """

    def __init__(self, system: SemiDiscreteSystem, h: float, method: HBVMMethod, cfg: SolverConfig = SolverConfig()):
        _check_stepsize(h)
        mode = cfg.resolve_mode(system)
        if mode == "blended" and _stiff_preconditioner(system) is None:
            raise SolverError("blended mode unsupported: system has no stiffness preconditioner")
        sep = system.separable
        self.system, self.h, self.method, self.cfg = system, h, method, cfg
        build = _separable_solver if sep is not None else _generic_solver
        self._solve, self._rotation = build(system, h, method.tables, cfg, mode)
        self._shape = (method.s, sep.nq if sep is not None else system.dim)
        # the chain ending at _last: its last _length <= _keep steps' coefficients, flattened; rows i and i + 9
        # hold the same block, so the _length rows before _next + 9 are the chain oldest first; blended keeps 9
        self._chain, self._keep = np.zeros((2 * _KEEP, math.prod(self._shape))), _KEEP if mode == "blended" else 0
        self._length, self._next, self._fit, self._last = 0, 0, False, None

    def __call__(self, y0):
        """One step from y0 -> (y1, StepDiagnostics)."""
        y0 = _checked_state(self.system, y0)
        if not (self._length and (y0 == self._last).all()):  # same shape, finite: no NaN to compare
            self._length, self._fit = 0, False
        m, top = self._length, self._next + _KEEP
        starts = _warm_starts(self._chain[top - m : top], self._rotation)
        coeffs, diag, y1 = self._solve(y0, starts[int(self._fit)].reshape(self._shape))
        if m >= 6:  # the next step, from seven blocks on, starts from whichever start came closer to this one
            first_error, fit_error = np.abs(starts - coeffs.ravel()).max(axis=1)
            self._fit = bool(fit_error < first_error)
        self._chain[self._next] = self._chain[top] = coeffs.ravel()
        self._next, self._length = (self._next + 1) % _KEEP, min(m + 1, self._keep)
        self._last = y1.copy()  # the caller may change y1 in place
        return y1, diag

    def coefficients(self, y0) -> np.ndarray:
        """The s stage derivative coefficient rows of the step from y0, solved from zero."""
        return self._solve(_checked_state(self.system, y0), np.zeros(self._shape))[0]


_last_stepper = threading.local()  # .stepper: this thread's last Stepper, so threads keep their own warm starts


def step(system: SemiDiscreteSystem, y0, h: float, method: HBVMMethod, cfg: SolverConfig = SolverConfig()):
    """One HBVM(k,s) step from y0 with stepsize h -> (y1, StepDiagnostics).

    Reuses the Stepper of the previous call in the same thread when system
    is the same object and h, method and cfg are identical or equal (tuple
    equality skips the dataclass __eq__ of identical items); otherwise it
    builds a new one.  So in blended mode a call from the state the previous
    call returned warm-starts its solve (see Stepper), as integrate's steps do.
    """
    last = getattr(_last_stepper, "stepper", None)
    if last is None or not (last.system is system and (last.h, last.method, last.cfg) == (h, method, cfg)):
        last = _last_stepper.stepper = Stepper(system, h, method, cfg)
    return last(y0)


def rk_tableau(method: HBVMMethod):
    """Equivalent k-stage Runge-Kutta tableau (A, b, c)."""
    tab = method.tables
    a_matrix = tab.node_integrals @ tab.weighted_basis
    return a_matrix, tab.weights.copy(), tab.nodes.copy()


def drive(
    system: SemiDiscreteSystem,
    y0,
    h: float,
    n_steps: int,
    advance: Callable[[np.ndarray], tuple],
    mode: str,
    record_stride: int = 1,
    observer: Optional[Callable[[int, float, np.ndarray], None]] = None,
) -> TrajectoryRecord:
    """The trajectory loop of every method: ``advance(y) -> (y1, StepDiagnostics)``
    n_steps times, evaluating each state's energy once, up to 32 states per hamiltonian call.

    States are stored every ``record_stride`` steps (0 stores endpoints only);
    ``observer(step_index, t, y)`` is invoked at every step including step 0, after y is stored and stacked for its
    energy, so an observer that changes y in place changes where the next step starts, not what is recorded.
    y0's energy is evaluated at entry as a one-row stack; later states wait in a stack evaluated when full, at
    the last step and before a failure's partial record, inside the step that fills it and before its observer call.
    A malformed or non-finite state or stepsize, a step count or stride that is not a nonnegative integer,
    and a hamiltonian that does not map y0 as a (1, dim) stack to shape (1,) are rejected before the first
    step.  A SolverError from ``advance`` becomes a StepFailure naming the step and carrying the partial trajectory.
    """
    _check_stepsize(h)
    y0 = _checked_state(system, y0)
    check_count("n_steps", n_steps, 0)
    check_count("record_stride", record_stride, 0)

    times = h * np.arange(n_steps + 1)
    hams = np.empty(n_steps + 1)
    pts = np.empty(n_steps + 1)  # the last slot of each state: pt on augmented systems
    iters, resid = np.zeros(n_steps, dtype=int), np.zeros(n_steps)
    kept_states, kept_times = [y0.copy()], [0.0]
    pending = np.empty((min(_ENERGY_ROWS, max(1, _ENERGY_NUMBERS // system.dim)), system.dim))
    done = -1  # the last step whose energy is in hams; pending holds the states of the steps after it

    def flush(n: int) -> None:
        """hams and pts of steps done + 1 through n, from pending, in one hamiltonian call."""
        nonlocal done
        rows = pending[: n - done]
        try:
            values = system.hamiltonian(rows)
        except IndexError as err:  # y[i] of a one-state energy reads past a short stack
            raise ValueError(f"hamiltonian must map a {rows.shape} stack to shape ({len(rows)},): {err}") from err
        if (shape := np.shape(values)) != (len(rows),):
            raise ValueError(f"hamiltonian must map a {rows.shape} stack to shape ({len(rows)},), got {shape}")
        hams[done + 1 : n + 1], pts[done + 1 : n + 1] = values, rows[:, -1]
        done = n

    def record(n: int) -> TrajectoryRecord:
        """The trajectory through step n."""
        return TrajectoryRecord(
            times=times[: n + 1],
            states=np.array(kept_states),
            record_times=np.array(kept_times),
            hamiltonian=hams[: n + 1],
            physical_hamiltonian=hams[: n + 1] - pts[: n + 1] if system.augmented else None,
            iterations=iters[:n],
            residuals=resid[:n],
            mode=mode,
            wall_time=time.perf_counter() - start,
        )

    pending[0] = y = y0.copy()
    flush(0)
    if observer is not None:
        observer(0, 0.0, y)

    start = time.perf_counter()
    for n in range(1, n_steps + 1):
        try:
            y, diag = advance(y)
        except SolverError as err:
            failure = StepFailure(f"step {n}: {err}", n, err.diagnostics)
            if n - 1 > done:
                flush(n - 1)
            failure.partial = record(n - 1)
            raise failure from err
        pending[n - 1 - done] = y
        if n - done == len(pending) or n == n_steps:
            flush(n)
        iters[n - 1], resid[n - 1] = diag.iterations, diag.residual
        if (record_stride and n % record_stride == 0) or n == n_steps:
            kept_states.append(y.copy())
            kept_times.append(times[n])
        if observer is not None:
            observer(n, times[n], y)
    return record(n_steps)


def integrate(
    system: SemiDiscreteSystem,
    y0,
    h: float,
    n_steps: int,
    method: HBVMMethod,
    cfg: SolverConfig = SolverConfig(),
    record_stride: int = 1,
    observer: Optional[Callable[[int, float, np.ndarray], None]] = None,
) -> TrajectoryRecord:
    """n_steps HBVM steps through drive(); raises StepFailure (with the
    failing step index and the partial record) on solver breakdown."""

    def advance(y):
        # step is looked up at every call, so a wrapper set on the module
        # (perfbench/tracing.py) sees each step.
        return step(system, y, h, method, cfg)

    return drive(system, y0, h, n_steps, advance, cfg.resolve_mode(system), record_stride, observer)
