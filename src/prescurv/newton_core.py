"""Damped Newton iteration shared by the sphere and graph solvers.

Both solvers' residuals are analytic in the unknowns, so the Jacobian is
exact to rounding by the complex step J e = Im R(x + i h e) / h (Squire &
Trapp, SIAM Rev. 40, 1998).  Columns whose stencils never meet the same
residual row are perturbed together (structurally orthogonal groups), one
complex residual evaluation per group.  The Jacobian is stored as a
scipy.sparse CSC matrix (at most nine nonzeros per row) and factored with
SuperLU (scipy.sparse.linalg.splu).

Damping is backtracking with factor 1/2 and Armijo constant 1e-4 on the
squared residual norm, plus an admissibility veto: a trial point whose
spectrum leaves the cone (margin <= 0) or whose support function turns
nonpositive anywhere is rejected no matter how good its residual.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonconvergenceError

ARMIJO_C = 1e-4
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
    iterations: int = 0
    residual_history: list = field(default_factory=list)   # max norms
    step_history: list = field(default_factory=list)       # accepted damping factors
    cone_margin_history: list = field(default_factory=list)
    aux_history: list = field(default_factory=list)
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


def jacobian_pattern(groups, reads):
    """Pattern for structurally orthogonal column groups; reads[c] holds the
    residual rows that depend on column c."""
    n = len(reads)
    rows_of = [np.sort(np.fromiter(r, dtype=np.int64, count=len(r))) for r in reads]
    counts = np.array([r.size for r in rows_of], dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.concatenate(rows_of)
    fills = []
    for grp in groups:
        grp = np.asarray(grp, dtype=np.int64)
        slots = np.concatenate([np.arange(indptr[c], indptr[c + 1]) for c in grp])
        fills.append((grp, indices[slots], slots))
    return JacobianPattern(n, indices, indptr, fills)


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


def newton_step(J, residual):
    """Solve J step = -residual by sparse LU; RuntimeError if J is singular."""
    # deferred: scipy.sparse.linalg alone takes about 0.3 s to import
    from scipy.sparse.linalg import splu

    return splu(J, permc_spec=PERMC_SPEC).solve(-residual)


def damped_newton(x0, eval_fn, groups, reads, tol, max_iter):
    """Newton iteration on a flat unknown vector.

    eval_fn(x) -> Evaluation;  the start must be admissible.  Returns
    (x, SolveReport); raises NonconvergenceError (with the report attached
    as diagnostics) when the line search stalls or max_iter runs out.
    """
    x = np.asarray(x0, dtype=float).copy()
    report = SolveReport()
    ev = eval_fn(x)
    if not ev.admissible:
        report.message = "start point is not admissible"
        raise NonconvergenceError(report.message, diagnostics=report)
    pattern = jacobian_pattern(groups, reads)
    rnorm = float(np.abs(ev.residual).max())
    report.residual_history.append(rnorm)
    report.cone_margin_history.append(ev.cone_margin)
    report.aux_history.append(ev.aux)
    while rnorm > tol:
        if report.iterations >= max_iter:
            report.message = f"no convergence in {max_iter} iterations"
            raise NonconvergenceError(report.message, diagnostics=(report, x))
        J = fd_jacobian(x, eval_fn, pattern)
        try:
            step = newton_step(J, ev.residual)
        except RuntimeError as exc:     # SuperLU: "Factor is exactly singular"
            report.message = f"singular Jacobian: {exc}"
            raise NonconvergenceError(report.message, diagnostics=(report, x))
        f0 = float(ev.residual @ ev.residual)
        s = 1.0
        accepted = None
        for _ in range(MAX_BACKTRACKS):
            trial = x + s * step
            ev_trial = eval_fn(trial)
            f_trial = float(ev_trial.residual @ ev_trial.residual)
            if ev_trial.admissible and f_trial <= (1.0 - 2.0 * ARMIJO_C * s) * f0:
                accepted = (trial, ev_trial, s)
                break
            s *= 0.5
        if accepted is None:
            report.message = "line search found no admissible decreasing step"
            raise NonconvergenceError(report.message, diagnostics=(report, x))
        x, ev, s = accepted
        rnorm = float(np.abs(ev.residual).max())
        report.iterations += 1
        report.residual_history.append(rnorm)
        report.step_history.append(s)
        report.cone_margin_history.append(ev.cone_margin)
        report.aux_history.append(ev.aux)
    report.converged = True
    return x, report
