"""Damped chord Newton iteration shared by the sphere and graph solvers.

Both solvers' residuals are analytic in the unknowns, so the Jacobian is
exact to rounding by the complex step J e = Im R(x + i h e) / h (Squire &
Trapp, SIAM Rev. 40, 1998).  Columns whose stencils never meet the same
residual row are perturbed together (structurally orthogonal groups), one
complex residual evaluation per group.  The Jacobian is stored as a
scipy.sparse CSC matrix (at most nine nonzeros per row) and factored with
SuperLU (scipy.sparse.linalg.splu).

A solver describes its grid by a read table: row r of the (n, 9) integer
array lists the unknowns that residual r reads.  From it come the column
groups (greedy colouring over the table's conflicts) and the CSC pattern
with a scatter map per group, built once per grid shape and kept in a
process-wide cache that both solvers share.

Damping is backtracking with factor 1/2 and Armijo constant 1e-4 on the
squared residual norm, plus an admissibility veto: a trial point whose
spectrum leaves the cone (margin <= 0) or whose support function turns
nonpositive anywhere is rejected no matter how good its residual.

A factor serves several corrections (chord or Shamanskii Newton:
Deuflhard, Newton Methods for Nonlinear Problems, Springer 2004, sec.
2.1; Kelley, Solving Nonlinear Equations with Newton's Method, SIAM 2003,
ch. 5).  After a fresh Jacobian and factor at x, later corrections solve
with the factor in hand.  It is dropped, and J and its factor rebuilt at
the current x, when a chord step is longer than CHORD_THETA times the
last accepted step (that step is not taken), when a chord step fails the
line search at s = 1 (chord steps are never damped), or when the last
accepted step was damped.  Every rebuild is counted in the report with
its reason.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NonconvergenceError, SolveFailure

ARMIJO_C = 1e-4
# a chord step (old factor) is taken only while it is at most this
# fraction of the last accepted step, in max norm
CHORD_THETA = 0.1
MAX_BACKTRACKS = 40
# Im R(x + i h e) carries no cancellation, so h only has to keep O(h^2)
# terms below rounding; one fixed step serves every column and scale.
COMPLEX_STEP = 1e-30
# The stencil pattern is structurally symmetric, so SuperLU's minimum-degree
# ordering on A^T + A fits it: on the 65x65 graph and 32x64 sphere Jacobians
# it makes about 60% of the fill of the COLAMD default, in half the time.
PERMC_SPEC = "MMD_AT_PLUS_A"


@dataclass
class Evaluation:
    """Soft residual evaluation: never raises on admissibility loss."""

    residual: np.ndarray
    admissible: bool
    margin: np.ndarray   # per node: min over l <= k of sigma_l, real parts
    aux: dict

    @property
    def cone_margin(self):
        return float(np.min(self.margin))


@dataclass
class SolveReport:
    converged: bool = False
    iterations: int = 0     # accepted corrections, chord steps included
    residual_history: list = field(default_factory=list)   # max norms
    step_history: list = field(default_factory=list)       # accepted damping factors
    # per iteration: max norm of the full correction (before damping) and
    # the number of halvings before the damped step was accepted
    step_norm_history: list = field(default_factory=list)
    backtrack_history: list = field(default_factory=list)
    cone_margin_history: list = field(default_factory=list)
    aux_history: list = field(default_factory=list)
    # Jacobians built and factored, and why each one was: "start",
    # "contraction", "chord_rejected" or "damped"
    factorizations: int = 0
    refactor_reasons: list = field(default_factory=list)
    message: str = ""

    @property
    def final_residual(self):
        return self.residual_history[-1] if self.residual_history else math.inf


@dataclass
class JacobianPattern:
    """CSC sparsity pattern of the Jacobian with a scatter map per column
    group.  Entry m of a group is the derivative of residual row rows[m]
    along the group's step; it is stored at data[slots[m]]."""

    n: int
    indices: np.ndarray
    indptr: np.ndarray
    fills: list          # per group: (columns, rows, slots)


def greedy_groups(neigh):
    """Structurally orthogonal column groups by greedy colouring.

    neigh is a symmetric read table (row r reads column c exactly when row
    c reads column r, as centred stencils do), so neigh[neigh[c]] lists
    every column that shares a residual row with column c.  Columns are
    coloured in index order, each with the smallest colour that none of
    those columns holds yet.
    """
    n = len(neigh)
    conflicts = neigh[neigh].reshape(n, -1)
    blank = conflicts.shape[1]     # colour of a column not yet coloured
    colour = np.full(n, blank, dtype=np.int64)
    for c in range(n):
        # at most blank - 1 coloured conflicts: a free colour below blank exists
        taken = np.zeros(blank + 1, dtype=bool)
        taken[colour[conflicts[c]]] = True
        colour[c] = taken.argmin()
    return [np.flatnonzero(colour == k) for k in range(colour.max() + 1)]


def jacobian_pattern(neigh, groups):
    """Pattern of the Jacobian of residuals with read table neigh, filled
    through the structurally orthogonal column groups.  Repeated entries
    in a row of neigh count once."""
    n = len(neigh)
    rows = np.repeat(np.arange(n, dtype=np.int64), neigh.shape[1])
    # column-major order with rows ascending in each column, as CSC stores it
    cols, indices = np.divmod(np.unique(neigh.ravel() * n + rows), n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
    colour = np.empty(n, dtype=np.int64)
    for k, grp in enumerate(groups):
        colour[grp] = k
    entry_colour = colour[cols]
    fills = []
    for k, grp in enumerate(groups):
        slots = np.flatnonzero(entry_colour == k)
        fills.append((grp, indices[slots], slots))
    return JacobianPattern(n, indices, indptr, fills)


_PATTERNS = {}


def grid_pattern(key, build):
    """The Jacobian pattern of one grid shape, built on its first use.

    key names the shape (grid objects come and go, shapes repeat); build()
    returns the shape's read table and column groups.
    """
    if key not in _PATTERNS:
        _PATTERNS[key] = jacobian_pattern(*build())
    return _PATTERNS[key]


# The name predates the complex step; bench/tracing.py times and sizes the
# Jacobian by wrapping this function by name, with x as its first argument.
def fd_jacobian(x, eval_fn, pattern):
    """Complex-step Jacobian as a CSC array, one complex residual evaluation
    per column group."""
    # deferred: importing scipy.sparse costs more than the rest of the package
    from scipy.sparse import csc_array

    data = np.empty(pattern.indices.size)
    for grp, rows, slots in pattern.fills:
        xp = x.astype(complex)
        xp.imag[grp] = COMPLEX_STEP
        data[slots] = eval_fn(xp).residual.imag[rows] / COMPLEX_STEP
    return csc_array((data, pattern.indices, pattern.indptr), shape=(pattern.n, pattern.n))


def factorize(J):
    """SuperLU factor of the CSC matrix J; RuntimeError if J is singular."""
    # deferred: scipy.sparse.linalg alone takes about 0.3 s to import
    from scipy.sparse.linalg import splu

    return splu(J, permc_spec=PERMC_SPEC)


def check_limits(**limits):
    """ConfigError naming the first solver limit (tol, max_iter, dt_init,
    dt_min) that is not a finite number > 0."""
    for name, value in limits.items():
        if not (value > 0 and math.isfinite(value)):
            raise ConfigError(f"{name} must be finite and > 0, got {value!r}")


def damped_newton(x0, eval_fn, pattern, tol, max_iter):
    """Chord Newton iteration on a flat unknown vector.

    eval_fn(x) -> Evaluation.  pattern is the JacobianPattern of the
    unknowns (see grid_pattern).  Returns (x, SolveReport); raises
    NonconvergenceError with a SolveFailure (last iterate, partial report)
    whose cause is "inadmissible_start" (after the one start evaluation),
    "singular", "line_search" or "max_iter".
    """
    x = np.asarray(x0, dtype=float).copy()
    report = SolveReport()

    def fail(cause, message):
        report.message = message
        return NonconvergenceError(message, SolveFailure(cause, x, report))

    ev = eval_fn(x)
    rnorm = float(np.abs(ev.residual).max())
    report.residual_history.append(rnorm)
    report.cone_margin_history.append(ev.cone_margin)
    report.aux_history.append(ev.aux)
    if not ev.admissible:
        raise fail("inadmissible_start", "start point is not admissible")
    lu, reason = None, "start"
    while rnorm > tol:
        if report.iterations >= max_iter:
            raise fail("max_iter", f"no convergence in {max_iter} iterations")
        accepted = None
        if lu is not None:
            step = lu.solve(-ev.residual)
            if not np.abs(step).max() <= CHORD_THETA * report.step_norm_history[-1]:
                lu, reason = None, "contraction"
            else:
                accepted = _line_search(x, step, ev, eval_fn, 1)
                if accepted is None:
                    lu, reason = None, "chord_rejected"
        if lu is None:
            J = fd_jacobian(x, eval_fn, pattern)
            try:
                lu = factorize(J)
            except RuntimeError as exc:     # SuperLU: "Factor is exactly singular"
                raise fail("singular", f"singular Jacobian: {exc}")
            report.factorizations += 1
            report.refactor_reasons.append(reason)
            step = lu.solve(-ev.residual)
            accepted = _line_search(x, step, ev, eval_fn, MAX_BACKTRACKS)
            if accepted is None:
                raise fail("line_search", "line search found no admissible decreasing step")
        x, ev, s, halvings = accepted
        if s < 1.0:
            lu, reason = None, "damped"
        rnorm = float(np.abs(ev.residual).max())
        report.iterations += 1
        report.residual_history.append(rnorm)
        report.step_history.append(s)
        report.step_norm_history.append(float(np.abs(step).max()))
        report.backtrack_history.append(halvings)
        report.cone_margin_history.append(ev.cone_margin)
        report.aux_history.append(ev.aux)
    report.converged = True
    return x, report


def _line_search(x, step, ev, eval_fn, tries):
    """First of x + s step, s = 1, 1/2, ... (tries values), that is
    admissible and passes Armijo: (x, evaluation, s, halvings), or None."""
    f0 = float(ev.residual @ ev.residual)
    s = 1.0
    for halvings in range(tries):
        trial = x + s * step
        ev_trial = eval_fn(trial)
        f_trial = float(ev_trial.residual @ ev_trial.residual)
        if ev_trial.admissible and f_trial <= (1.0 - 2.0 * ARMIJO_C * s) * f0:
            return trial, ev_trial, s, halvings
        s *= 0.5
    return None
