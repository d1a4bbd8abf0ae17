"""Damped chord Newton iteration shared by the sphere and graph solvers.

Both solvers' residuals are pointwise in a local 2-jet: R_i depends on the
unknown's value, gradient and Hessian at node i, and those are linear
stencils j_m = D_m x + c_m.  So the Jacobian is J = sum_m diag(dR/dj_m) D_m,
and dR/dj_m is exact to rounding by the complex step on the pointwise map,
Im R(j_m + i h) / h (Squire & Trapp, SIAM Rev. 40, 1998): one complex
evaluation per jet component, whatever the grid.  A solver hands
damped_newton a JetContract: its jets, its pointwise Evaluation, and how
to build its Window; the contract called at x evaluates there.  The
window holds the grid's read table (row r of the (n, 9) integer array
lists the unknowns that residual r reads), each D_m as closed-form
weights on that table's slots, and a FrontalPlan; it is built for the
first Jacobian on a grid and kept in a process-wide cache that both
solvers share.  The Jacobian is its (n, 9) values on the read table.

The plan is a nested dissection of the read table (George, SIAM J. Numer.
Anal. 10, 1973): grid domains are bisected until they are small, the
unknowns that read across a cut forming a separator, and the resulting
tree orders a multifrontal LU (Duff & Reid, ACM TOMS 9, 1983) in numpy.
Each front is a dense matrix over a separator (or leaf) and the ancestor
separators it couples to; its pivot block is inverted by LAPACK with
partial pivoting, and its Schur complement is added into its parent's
front.  Pivoting is thus static across fronts and partial within each;
an exactly singular pivot block fails the solve as "singular".

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
from typing import NamedTuple

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
# Unknowns at most in a leaf of the nested dissection.  Leaves are dense, so
# larger ones store more (at 256x512: 179 MB of factor at 64, 255 MB at 128);
# smaller ones mean more fronts, each with its own Python work per solve.
LEAF_SIZE = 64


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
        bad = np.argwhere(~(self.margin > 0.0)) + offset     # NaN margins too
        return ConeViolationError(f"spectrum outside Gamma_{k} at {len(bad)} node(s), "
                                  f"first {bad[:5].tolist()}", nodes=bad.tolist())


@dataclass
class SolveReport:
    converged: bool = False
    iterations: int = 0     # accepted corrections, chord steps included
    residual_history: list = field(default_factory=list)   # max norms
    # per iteration: max norm of the full correction (before damping) and
    # the number of halvings before the step was accepted (damping 0.5 ** it)
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


_WINDOWS = {}     # key -> Window, shared by every contract


@dataclass(frozen=True)
class JetContract:
    """jets(x): the jet components D_m x + c_m, one value per residual row;
    evaluate(jets): the pointwise Evaluation, its residual complex-safe;
    build_window(): the Window of the D_m, on window's first use per key
    (grid objects come and go, shapes repeat).  contract(x) evaluates at x."""

    jets: object
    evaluate: object
    key: object
    build_window: object

    def __call__(self, x):
        return self.evaluate(self.jets(x))

    @property
    def window(self):
        if self.key not in _WINDOWS:
            _WINDOWS[self.key] = self.build_window()
        return _WINDOWS[self.key]


class Window(NamedTuple):
    """One grid's Jacobian window.  cols: the (n, s) read table, row r the
    unknowns residual r reads (its own in the centre slot); weights: per
    D_m, (slots, w) with (D_m x)[r] = sum_i w[r, i] x[cols[r, slots[i]]];
    plan: the FrontalPlan of the read table."""

    cols: np.ndarray
    weights: tuple
    plan: "FrontalPlan"


def window_weights(cols, shape, weights):
    """The Window of the jet weights on the read table cols, whose unknowns
    are numbered row-major on a grid of the given shape."""
    return Window(cols, tuple(weights), frontal_plan(cols, shape))


# The name predates the complex step and the jet; bench/tracing.py times and
# sizes the Jacobian by wrapping this function by name, with x first.
def fd_jacobian(x, contract):
    """J = sum_m diag(dR/dj_m) D_m, each dR/dj_m one complex step of the
    pointwise evaluation, as its (n, s) values on the window's read table:
    J[r, c] is the sum of row r's values at the slots that read c."""
    window, jets = contract.window, contract.jets(x)
    data = np.zeros(window.cols.shape)
    for m, (slots, w) in enumerate(window.weights):
        step = [j + 1j * COMPLEX_STEP if i == m else j for i, j in enumerate(jets)]
        data[:, slots] += contract.evaluate(step).residual.imag.reshape(-1, 1) / COMPLEX_STEP * w
    return data


# ---------------------------------------------------------------------------
# nested-dissection multifrontal LU


@dataclass(frozen=True)
class FrontalPlan:
    """Symbolic multifrontal factorization of the matrices with the pattern
    of one read table.  Fronts are numbered in a postorder of the
    dissection tree, children first; front k pivots the unknowns at
    positions start[k]:start[k + 1] of the elimination order perm, and
    couples them to its boundary bnd[k] (ascending positions of ancestor
    pivots).  Its dense matrix is ordered pivots, then boundary."""

    perm: np.ndarray        # position -> unknown
    start: np.ndarray       # (fronts + 1,) pivot ranges
    parent: np.ndarray      # front -> parent front, -1 at a root
    bnd: tuple              # front -> boundary positions
    entries: np.ndarray     # the flattened read-table entries, grouped by front
    flat: np.ndarray        # each of them -> flat index in its front's matrix
    offsets: np.ndarray     # front k assembles entries offsets[k]:offsets[k + 1]
    extend: tuple           # front k -> local index of each bnd[k] in its parent

    @property
    def n_fronts(self):
        return len(self.parent)


def frontal_plan(cols, shape):
    """FrontalPlan of the read table cols on a row-major grid of the given shape.

    Geometric nested dissection (George, SIAM J. Numer. Anal. 10, 1973):
    every domain of more than LEAF_SIZE unknowns is cut at the midpoint of
    its longer index extent, and each unknown on the low side that reads
    across the cut, or is read from across it, joins the separator, so
    wrap-around and cross-pole reads need no special case.  The two sides
    are dissected in turn; the separator is their parent front.
    """
    n = len(cols)
    coords = np.divmod(np.arange(n), shape[1])
    # each read once, either way round: a cut puts the low end of a read
    # between its sides into the separator, whichever end reads the other
    r = np.arange(n).repeat(cols.shape[1])
    c = cols.ravel()
    er, ec = np.divmod(_distinct(np.minimum(r, c) * n + np.maximum(r, c)), n)
    er, ec = er[er != ec], ec[er != ec]

    # top-down, one level of the tree at a time: label is the domain of
    # each unknown not yet in a front, dom_parent the front above a domain
    label, front = np.zeros(n, dtype=np.int64), np.full(n, -1)
    act, dom_parent, parent = np.arange(n), np.array([-1]), []
    while act.size:
        nd, lab = len(dom_parent), label[act]
        size = np.bincount(lab, minlength=nd)
        ext = []
        for x in coords:
            lo, hi = np.full(nd, n), np.full(nd, -1)
            np.minimum.at(lo, lab, x[act])
            np.maximum.at(hi, lab, x[act])
            ext.append((lo, hi))
        axis = ext[1][1] - ext[1][0] > ext[0][1] - ext[0][0]
        cut = np.where(axis, ext[1][0] + ext[1][1] + 1, ext[0][0] + ext[0][1] + 1) // 2
        low = np.zeros(n, dtype=bool)
        low[act] = np.where(axis[lab], coords[1][act], coords[0][act]) < cut[lab]
        cross = low[er] != low[ec]
        sep = np.zeros(n, dtype=bool)
        sep[np.where(low[er], er, ec)[cross]] = True
        # each leaf, and each nonempty separator, becomes a front
        split = size > LEAF_SIZE
        pivots = act[sep[act] | ~split[lab]]
        has = np.bincount(label[pivots], minlength=nd) > 0
        ids = len(parent) + np.cumsum(has) - 1
        front[pivots] = ids[label[pivots]]
        parent.extend(dom_parent[has].tolist())
        # the two sides of each cut domain are the next level's domains
        dom_parent = np.where(has, ids, dom_parent)[split].repeat(2)
        label[pivots] = -1
        act = act[label[act] >= 0]
        label[act] = 2 * (np.cumsum(split) - 1)[label[act]] + ~low[act]
        keep = label[er] == label[ec]
        keep &= label[er] >= 0
        er, ec = er[keep], ec[keep]
    return _assemble_plan(cols, front, np.array(parent, dtype=np.int64))


def _distinct(keys):
    """Sorted distinct values of keys; by sorting, which beats numpy.unique's
    hashing on these arrays."""
    keys = np.sort(keys)
    new = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return keys[new]


def _assemble_plan(cols, front, parent):
    """The FrontalPlan of a dissection given as each unknown's front and each
    front's parent, fronts numbered top-down (parents first)."""
    n, nf = len(cols), len(parent)
    # postorder: children before parents, each subtree contiguous
    below = [[] for _ in range(nf)]
    for f in range(nf - 1, -1, -1):
        if parent[f] >= 0:
            below[parent[f]].append(f)
    order, stack = [], [f for f in range(nf - 1, -1, -1) if parent[f] < 0]
    while stack:
        f = stack.pop()
        order.append(f)
        stack.extend(below[f])
    order = np.array(order[::-1], dtype=np.int64)
    rank = np.empty(nf, dtype=np.int64)
    rank[order] = np.arange(nf)
    parent = np.where(parent[order] >= 0, rank[parent[order]], -1)
    front = rank[front]
    perm = np.argsort(front, kind="stable")
    pos = np.empty(n, dtype=np.int64)
    pos[perm] = np.arange(n)
    start = np.r_[0, np.cumsum(np.bincount(front, minlength=nf))]
    of = front[perm]                    # position -> front

    # boundaries, children first: the positions past a front's pivots that
    # its pivots read or are read by, and those of its children's boundaries
    rr = pos.repeat(cols.shape[1])
    cc = pos[cols.ravel()]
    lo = np.minimum(rr, cc)
    f = of[lo]
    hi = np.maximum(rr, cc)
    out = hi >= start[f + 1]
    order = np.argsort(f[out], kind="stable")
    reads = np.split(hi[out][order], np.searchsorted(f[out][order], np.arange(1, nf)))
    children = [[] for _ in range(nf)]
    bnd = []
    for k in range(nf):
        b = np.concatenate([reads[k]] + [bnd[c] for c in children[k]])
        bnd.append(_distinct(b[b >= start[k + 1]]))
        if parent[k] >= 0:
            children[parent[k]].append(k)
    lens = [len(b) for b in bnd]
    bf, bp = np.arange(nf).repeat(lens), np.concatenate(bnd)
    bkey, bptr = bf * n + bp, np.r_[0, np.cumsum(lens)]
    nsep = np.diff(start)
    size = nsep + np.diff(bptr)

    def local(f, p, out):
        """Index of position p in front f's matrix (pivots, then boundary);
        out marks the p past f's pivots."""
        i = p - start[f]
        i[out] = nsep[f[out]] + np.searchsorted(bkey, f[out] * n + p[out]) - bptr[f[out]]
        return i

    # each read-table entry lands in the front of its first pivot
    flat = local(f, rr, out & (rr == hi)) * size[f] + local(f, cc, out & (cc == hi))
    entries = np.argsort(f, kind="stable")
    offsets = np.r_[0, np.cumsum(np.bincount(f, minlength=nf))]

    up = parent[bf] >= 0
    ext = np.zeros(len(bkey), dtype=np.int64)
    ext[up] = local(parent[bf[up]], bp[up], bp[up] >= start[parent[bf[up]] + 1])
    extend = tuple(np.split(ext, bptr[1:-1]))
    return FrontalPlan(perm, start, parent, tuple(bnd), entries, flat[entries], offsets, extend)


class FrontalLU:
    """LU factor of one matrix on a FrontalPlan: per front, its pivot range,
    its boundary, the inverse of its pivot block, and its lower and upper
    off-diagonal blocks (the lower one times that inverse)."""

    def __init__(self, perm, fronts):
        self.perm, self.fronts = perm, fronts

    def solve(self, b):
        y = b[self.perm]
        for piv, bnd, _, lower, _ in self.fronts:
            y[bnd] -= lower @ y[piv]
        for piv, bnd, inv, _, upper in reversed(self.fronts):
            y[piv] = inv @ (y[piv] - upper @ y[bnd])
        x = np.empty_like(y)
        x[self.perm] = y
        return x


def factorize(plan, data):
    """Multifrontal LU (Duff & Reid, ACM TOMS 9, 1983) of the matrix with
    values data on the plan's read table.  Pivots are static across fronts
    and partial within each front's pivot block, which LAPACK inverts;
    numpy.linalg.LinAlgError if a pivot block is singular."""
    vals = data.ravel()[plan.entries]
    fronts, updates = [], [[] for _ in range(plan.n_fronts)]
    for k in range(plan.n_fronts):
        piv, bnd = slice(plan.start[k], plan.start[k + 1]), plan.bnd[k]
        p = piv.stop - piv.start
        m = p + len(bnd)
        own = slice(plan.offsets[k], plan.offsets[k + 1])
        # reads of the same unknown by one row add up
        F = np.bincount(plan.flat[own], weights=vals[own], minlength=m * m).reshape(m, m)
        for child, S in updates[k]:
            ix = plan.extend[child]
            F[np.ix_(ix, ix)] += S
        updates[k] = None
        inv = np.linalg.inv(F[:p, :p])
        upper = F[:p, p:].copy()
        lower = F[p:, :p] @ inv
        fronts.append((piv, bnd, inv, lower, upper))
        if plan.parent[k] >= 0:
            updates[plan.parent[k]].append((k, F[p:, p:] - lower @ upper))
    return FrontalLU(plan.perm, fronts)


def check_limits(**limits):
    """ConfigError naming the first solver limit (tol, max_iter, dt_init,
    dt_min) that is not a finite number > 0."""
    for name, value in limits.items():
        if not (value > 0 and math.isfinite(value)):
            raise ConfigError(f"{name} must be finite and > 0, got {value!r}")


def damped_newton(x0, eval_fn, contract, tol, max_iter):
    """Chord Newton iteration on a flat unknown vector.

    eval_fn(x) -> Evaluation is the JetContract contract or a wrapper of
    it; J is contract's fd_jacobian.  Returns (x, SolveReport); raises
    NonconvergenceError with a SolveFailure (last iterate, partial report)
    whose cause is "inadmissible_start" (after the one start evaluation;
    a start residual with a non-finite max norm is refused before it is
    recorded), "singular", "line_search" or "max_iter".
    """
    x = np.asarray(x0, dtype=float).copy()
    report = SolveReport()

    def fail(cause, message):
        report.message = message
        return NonconvergenceError(message, SolveFailure(cause, x, report))

    ev = eval_fn(x)
    rnorm = float(np.abs(ev.residual).max())
    if not math.isfinite(rnorm):
        raise fail("inadmissible_start", "start residual is not finite")
    report.residual_history.append(rnorm)
    report.cone_margin_history.append(ev.cone_margin)
    report.aux_history.append(ev.aux)
    if not ev.admissible:
        raise fail("inadmissible_start", "start point is not admissible")
    lu, reason = None, "start"
    while rnorm > tol:
        if report.iterations >= max_iter:
            raise fail("max_iter", f"no convergence in {max_iter} iterations")
        chord = lu is not None
        if not chord:
            try:
                lu = factorize(contract.window.plan, fd_jacobian(x, contract))
            except np.linalg.LinAlgError as exc:
                raise fail("singular", f"singular Jacobian: {exc}")
            report.factorizations += 1
            report.refactor_reasons.append(reason)
        step = lu.solve(-ev.residual)
        if chord and not np.abs(step).max() <= CHORD_THETA * report.step_norm_history[-1]:
            lu, reason = None, "contraction"
            continue
        accepted = _line_search(x, step, ev, eval_fn, 1 if chord else MAX_BACKTRACKS)
        if accepted is None:
            if not chord:
                raise fail("line_search", "line search found no admissible decreasing step")
            lu, reason = None, "chord_rejected"
            continue
        x, ev, s, halvings = accepted
        if s < 1.0:
            lu, reason = None, "damped"
        rnorm = float(np.abs(ev.residual).max())
        report.iterations += 1
        report.residual_history.append(rnorm)
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
