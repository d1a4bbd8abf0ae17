"""Damped chord Newton iteration shared by the sphere and graph solvers.

Both solvers' residuals are pointwise in a local 2-jet: R_i depends on the
unknown's value, gradient and Hessian at node i, and those are linear
stencils j_m = D_m x + c_m.  So the Jacobian is J = sum_m diag(dR/dj_m) D_m,
and dR/dj_m is exact to rounding by the complex step on the pointwise map,
Im R(j_m + i h) / h (Squire & Trapp, SIAM Rev. 40, 1998): one complex
evaluation per jet component, whatever the grid.  A solver hands
damped_newton a JetContract: its jets, its pointwise residual, and each
D_m as weights on a read table (row r of the (n, 9) integer array lists
the unknowns that residual r reads), built once per grid and kept in a
process-wide cache that both solvers share.  The Jacobian is stored
as a scipy.sparse CSC matrix with one entry per distinct read (at most
nine per row) and factored with SuperLU (scipy.sparse.linalg.splu).

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

from .errors import ConeViolationError, ConfigError, NonconvergenceError, SolveFailure

ARMIJO_C = 1e-4
# a chord step (old factor) is taken only while it is at most this
# fraction of the last accepted step, in max norm
CHORD_THETA = 0.1
MAX_BACKTRACKS = 40
# Im R(j + i h) carries no cancellation, so h only has to keep O(h^2)
# terms below rounding; one fixed step serves every jet component and scale.
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

    def outside_cone(self, k, offset=0):
        """ConeViolationError naming the nodes outside Gamma_k, indices plus offset."""
        bad = np.argwhere(self.margin <= 0.0) + offset
        return ConeViolationError(f"spectrum outside Gamma_{k} at {len(bad)} node(s), "
                                  f"first {bad[:5].tolist()}", nodes=bad.tolist())


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


@dataclass(frozen=True)
class JetContract:
    """jets(x): the jet components D_m x + c_m, one value per residual row;
    residual(jets): the pointwise residual, complex-safe; window: the
    window_weights of the D_m."""

    jets: object
    residual: object
    window: tuple


def window_weights(cols, operators):
    """(cols, [(slots, w) per sparse D]) with (D x)[r] = sum_s w[r, s]
    x[cols[r, slots[s]]], keeping only the slots D uses.  Every entry of D
    must fall on a read of its row of cols; the diagonal takes the centre
    slot, so a read that repeats the row's own index weighs nothing."""
    out = []
    for D in operators:
        D, w = D.tocoo(), np.zeros(cols.shape)
        r, c = D.coords
        w[r, np.where(r == c, cols.shape[1] // 2, (cols[r] == c[:, None]).argmax(axis=1))] = D.data
        slots = np.flatnonzero(w.any(axis=0))
        out.append((slots, w[:, slots]))
    return cols, out


_WINDOWS = {}


def grid_window(key, build):
    """The window of one grid, built by build() on its first use; key names
    what fixes it (grid objects come and go, shapes repeat)."""
    if key not in _WINDOWS:
        _WINDOWS[key] = build()
    return _WINDOWS[key]


# The name predates the complex step and the jet; bench/tracing.py times and
# sizes the Jacobian by wrapping this function by name, with x first.
def fd_jacobian(x, contract):
    """J = sum_m diag(dR/dj_m) D_m as a CSC array, each dR/dj_m one complex
    step of the pointwise residual.  Every read of the window is stored,
    zeros too, so the pattern that SuperLU orders by never depends on x."""
    # deferred: importing scipy.sparse costs more than the rest of the package
    from scipy.sparse import csc_array

    (cols, weights), jets = contract.window, contract.jets(x)
    data = np.zeros(cols.shape)
    for m, (slots, w) in enumerate(weights):
        step = [j + 1j * COMPLEX_STEP if i == m else j for i, j in enumerate(jets)]
        data[:, slots] += contract.residual(step).imag.reshape(-1, 1) / COMPLEX_STEP * w
    rows = np.arange(len(cols)).repeat(cols.shape[1])
    # repeated reads of a row are summed into one entry
    return csc_array((data.ravel(), (rows, cols.ravel())), shape=(len(cols),) * 2)


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


def damped_newton(x0, eval_fn, contract, tol, max_iter):
    """Chord Newton iteration on a flat unknown vector.

    eval_fn(x) -> Evaluation; contract is the JetContract of the same
    residual, whose fd_jacobian J is.  Returns (x, SolveReport); raises
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
            J = fd_jacobian(x, contract)
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
