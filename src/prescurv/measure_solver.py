"""Solver for the curvature-measure equation on starshaped surfaces.

The unknown is the radial function rho over S^2; the equation at every
grid node is

    F(A) = u^p * phi(X),        F = sigma_k  (or sigma_k/sigma_l),

with A the second fundamental form, u = <X, nu> the support value and phi
a positive density given as a polynomial in the components of x = X/|X|.
Solutions are found by damped Newton constrained to the Gamma_k cone and
continued from the round-sphere start along phi_t = 1 - t + t*phi.

The quotient operator and exponents p > 1 are accepted as experiments:
runs may legitimately fail to continue, and the failure (with its partial
trace) is the recorded outcome.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    NonconvergenceError,
    SolveFailure,
    StartRadiusError,
)
from .mat2 import pencil_sigmas
from .newton_core import Evaluation, JetContract, check_limits, damped_newton
from .polynomials import Poly3
from .sphere_geometry import RadialField, radial_forms, radial_geometry, radial_jet
from .symmfunc import OperatorSpec, cone_margin, sigma

SURFACE_DIM = 2  # the discretized solver targets radial graphs over S^2

# Continuation step control: the next dt is dt * sqrt(THETA_TARGET / Theta),
# clipped to [DT_SHRINK, DT_GROWTH], Theta the corrector's observed contraction
THETA_TARGET = 0.25
DT_GROWTH = 4.0
DT_SHRINK = 0.5


def check_order(op):
    """ConfigError unless the operator order k lies in 1..SURFACE_DIM."""
    if not 1 <= op.k <= SURFACE_DIM:
        raise ConfigError(f"operator order k={op.k} out of range for "
                          f"surfaces of dimension {SURFACE_DIM}")


def check_exponent(op, p):
    """ConfigError unless the exponent p is finite and nonzero and k + p != 0
    for the operator's homogeneity k."""
    if not math.isfinite(p):
        raise ConfigError(f"exponent p must be finite, got {p!r}")
    if p == 0.0:
        raise ConfigError("exponent p must be nonzero (the support-power "
                          "gradient bound degenerates at p = 0)")
    if op.homogeneity + p == 0.0:
        raise ConfigError("k + p = 0 leaves the round-sphere start equation "
                          "without a positive root")


@dataclass
class MeasureProblem:
    op: OperatorSpec
    p: float
    phi: Poly3
    grid: object  # SphericalGrid
    phi_vals: np.ndarray = field(init=False, repr=False, compare=False)  # read-only

    def __post_init__(self):
        check_exponent(self.op, self.p)
        check_order(self.op)
        if self.p > 1.0:
            warnings.warn("p > 1 is outside the guaranteed existence range; "
                          "continuation is allowed to fail", stacklevel=2)
        if self.op.kind == "quotient":
            warnings.warn("quotient operator is experimental; continuation is "
                          "allowed to fail", stacklevel=2)
        with np.errstate(over="ignore", invalid="ignore"):  # the check below catches both
            phi_vals = self.phi.eval_unit_vectors(self.grid.nodes)
        if not np.all((phi_vals > 0.0) & np.isfinite(phi_vals)):
            raise ConfigError("phi must be finite and positive at every grid node")
        phi_vals.flags.writeable = False
        self.phi_vals = phi_vals


@dataclass
class HomotopyStep:
    t: float
    newton_iters: int                 # accepted Newton corrections
    factorizations: int               # Jacobians built and factored
    refactor_reasons: list            # why each factorization was made
    final_residual: float
    min_cone_margin: float
    min_u: float
    contraction: float | None = None  # Theta of the corrector; None below two Newton steps
    dt_factor: float | None = None    # factor the step put on dt; None outside the step control
    predicted: bool = False           # corrector started from the secant predictor, not u_t


@dataclass
class HomotopyTrace:
    steps: list = field(default_factory=list)       # accepted HomotopySteps
    rejections: list = field(default_factory=list)  # (t_attempted, dt, reason)
    success: bool = False


@dataclass
class HomotopySchedule:
    dt_init: float = 0.1
    dt_min: float = 1e-4
    newton_tol: float = 1e-9
    newton_max_iter: int = 30

    def __post_init__(self):
        check_limits(tol=self.newton_tol, max_iter=self.newton_max_iter,
                     dt_init=self.dt_init, dt_min=self.dt_min)


@dataclass
class BoundsReport:
    rho_min: float
    rho_max: float
    u_min: float
    sigma1_max: float
    phi_min: float
    phi_max: float
    homogeneity: int
    residual_max: float
    verified: bool


def initial_sphere_radius(op, p, n=SURFACE_DIM):
    """Radius r of the round sphere solving F(1/r, ..., 1/r) = r^p.

    For F = sigma_k the scalar equation is C(n,k) r^{-k} = r^p, so
    r = C(n,k)^{1/(k+p)}; the quotient replaces C(n,k) by C(n,k)/C(n,l)
    and k by k - l.
    """
    if not 1 <= op.k <= n:
        raise StartRadiusError(f"operator order k={op.k} out of range 1..{n}")
    coeff = math.comb(n, op.k)
    if op.kind == "quotient":
        coeff = coeff / math.comb(n, op.l)
    expo = op.homogeneity + p
    if expo == 0.0:
        raise StartRadiusError("degenerate exponent k + p = 0: no positive root")
    return float(coeff ** (1.0 / expo))


def _evaluate_jet(jet, prob, phi_vals):
    """Residual plus admissibility data, node by node from the radial_jet;
    never raises inside the solver.  A complex jet (complex step) keeps the
    residual analytic; admissibility and aux read real parts.  Overflow
    and division by zero raise no warning: a non-finite residual entry
    reads 1e30."""
    rho = jet[0].real
    if np.any(rho <= 0.0) or not np.all(np.isfinite(jet[0])):
        return Evaluation(np.full(rho.size, 1e30), False, np.full(rho.shape, -math.inf),
                          {"u_min": -math.inf})
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        _, u, metric, b = radial_forms(jet)
        sig = pencil_sigmas(metric, b)
        margin = cone_margin(s.real for s in sig[1:prob.op.k + 1])
        u_min = float(u.real.min())
        admissible = float(margin.min()) > 0.0 and u_min > 0.0
        res = prob.op.value_on_sigmas(sig) - u**prob.p * phi_vals
        res = np.where(np.isfinite(res), res, 1e30)
        aux = {"u_min": u_min, "res_norm2": float(np.linalg.norm(res.real))}
    return Evaluation(res.ravel(), admissible, margin, aux)


def _jet_contract(prob, phi_vals):
    """JetContract of _evaluate_jet on the flat unknowns rho."""
    grid = prob.grid
    return JetContract(lambda x: radial_jet(grid, x.reshape(grid.n_theta, grid.n_phi)),
                       lambda jet: _evaluate_jet(jet, prob, phi_vals),
                       ("sphere", grid.n_theta, grid.n_phi), grid.column_groups)


def residual(field, prob):
    """Per-node residual F(A) - u^p phi(X); errors on inadmissible input."""
    if field.grid is not prob.grid:
        raise ConfigError("field and problem use different grids")
    ev = _jet_contract(prob, prob.phi_vals)(field.rho.ravel())
    if not ev.admissible:
        raise ev.outside_cone(prob.op.k)
    return ev.residual.reshape(field.grid.n_theta, field.grid.n_phi)


def newton_solve(start, prob, tol=1e-10, max_iter=30):
    """Damped Newton from an admissible start field.

    Returns (RadialField, SolveReport); raises NonconvergenceError with
    damped_newton's SolveFailure.
    """
    contract = _jet_contract(prob, prob.phi_vals)
    x, report = damped_newton(start.rho.ravel(), contract, contract, tol, max_iter)
    return RadialField(prob.grid, x.reshape(start.rho.shape)), report


def _phi_at_t(prob, t):
    """Samples of the interpolated data phi_t = 1 - t + t*phi on the grid."""
    terms = [(1.0 - t, (0, 0, 0))] + [(t * c, pw) for c, pw in prob.phi.terms]
    return Poly3(tuple(terms)).eval_unit_vectors(prob.grid.nodes)


def _contraction(report):
    """Theta = |du_1| / |du_0| (max norms, before damping) of a corrector's
    first two Newton corrections; None when it took fewer than two."""
    norms = report.step_norm_history
    return norms[1] / norms[0] if len(norms) >= 2 else None


def _dt_factor(theta):
    """Step-size factor sqrt(THETA_TARGET / Theta), clipped to
    [DT_SHRINK, DT_GROWTH]; the full growth when Theta is unknown or 0."""
    if not theta:
        return DT_GROWTH
    return min(max(math.sqrt(THETA_TARGET / theta), DT_SHRINK), DT_GROWTH)


def _secant(rho, rho_prev, ratio):
    """Secant predictor u_t + ratio (u_t - u_prev), ratio = dt / dt_prev."""
    return rho + ratio * (rho - rho_prev)


def homotopy_solve(prob, schedule=None):
    """Continuation from the round-sphere start at t = 0 up to t = 1.

    Predictor-corrector (Allgower & Georg, Introduction to Numerical
    Continuation Methods, SIAM 2003, ch. 2 and 6).  From the second step
    on, the Newton corrector at t + dt starts from the secant predictor
    through the last two accepted solutions, and only its phi_t samples
    differ; a predicted rho that is not admissible costs one vetoed
    evaluation and is dropped for u_t, which is no rejection.  The next dt
    is dt * clip(sqrt(THETA_TARGET / Theta), DT_SHRINK, DT_GROWTH), with
    Theta the contraction of the corrector's first two Newton steps
    (Deuflhard, Newton Methods for Nonlinear Problems, Springer 2004).  A
    failed corrector halves dt; below schedule.dt_min a NonconvergenceError
    with cause "step_underflow" carries the partial trace (the expected
    outcome for out-of-theory parameters such as p > 1), as does a failed
    corrector at t = 0.  The last step lands on t = 1 exactly.
    """
    sched = schedule or HomotopySchedule()
    limits = (sched.newton_tol, sched.newton_max_iter)
    trace = HomotopyTrace()
    grid = prob.grid
    rho = np.full((grid.n_theta, grid.n_phi), initial_sphere_radius(prob.op, prob.p))

    def solve_at(t, start, fallback=None):
        """Corrector at t from rho start, or from fallback if start is inadmissible."""
        contract = _jet_contract(prob, _phi_at_t(prob, t))
        predicted = fallback is not None
        try:
            x, rep = damped_newton(start.ravel(), contract, contract, *limits)
        except NonconvergenceError as exc:
            if not predicted or exc.diagnostics.cause != "inadmissible_start":
                raise
            predicted = False
            x, rep = damped_newton(fallback.ravel(), contract, contract, *limits)
        step = HomotopyStep(
            t=t, newton_iters=rep.iterations, factorizations=rep.factorizations,
            refactor_reasons=rep.refactor_reasons, final_residual=rep.final_residual,
            min_cone_margin=min(rep.cone_margin_history),
            min_u=min(a["u_min"] for a in rep.aux_history),
            contraction=_contraction(rep), predicted=predicted)
        trace.steps.append(step)
        return x.reshape(start.shape), step

    try:
        rho, _ = solve_at(0.0, rho)
    except NonconvergenceError as exc:
        exc.diagnostics.trace, exc.diagnostics.t = trace, 0.0
        raise

    t, dt = 0.0, sched.dt_init
    prev = None     # (t, rho) of the accepted step before t
    while t < 1.0:
        t_try = t + dt
        if t_try > 1.0 - 0.5 * sched.dt_min:
            t_try = 1.0     # float sums of dt stop a rounding error short of 1
        start, fallback = rho, None
        if prev is not None:
            start, fallback = _secant(rho, prev[1], (t_try - t) / (t - prev[0])), rho
        try:
            rho_try, step = solve_at(t_try, start, fallback)
        except NonconvergenceError as exc:
            trace.rejections.append((t_try, dt, str(exc)))
            dt *= 0.5
            if dt < sched.dt_min:
                raise NonconvergenceError(
                    f"continuation stalled at t = {t:.6f} (step underflow)",
                    SolveFailure("step_underflow", rho.ravel(),
                                 exc.diagnostics.report, trace, t))
            continue
        step.dt_factor = _dt_factor(step.contraction)
        prev = (t, rho)
        rho, t = rho_try, t_try
        dt *= step.dt_factor
    trace.success = True
    return RadialField(grid, rho), trace


def verify_apriori_bounds(field, prob, residual_tol=1e-8):
    """Bound report for a computed field; labeled unverified when the
    residual shows it is not a solution at the stated tolerance."""
    geo = radial_geometry(field)
    ev = _jet_contract(prob, prob.phi_vals)(field.rho.ravel())
    res_max = float(np.abs(ev.residual).max())
    lam = geo.principal
    return BoundsReport(
        rho_min=float(field.rho.min()),
        rho_max=float(field.rho.max()),
        u_min=float(geo.u.min()),
        sigma1_max=float(sigma(lam, 1).max()),
        phi_min=float(prob.phi_vals.min()),
        phi_max=float(prob.phi_vals.max()),
        homogeneity=prob.op.homogeneity,
        residual_max=res_max,
        verified=bool(ev.admissible and res_max <= residual_tol),
    )


@dataclass
class UniquenessProbe:
    converged: list
    max_distance: float
    distances: np.ndarray
    complete: bool


def uniqueness_probe(prob, starts, tol=1e-10, max_iter=40):
    """Solve from several starts; small pairwise distances evidence the
    uniqueness of the admissible solution at desk scale."""
    fields, converged = [], []
    for start in starts:
        try:
            out, _ = newton_solve(start, prob, tol=tol, max_iter=max_iter)
            fields.append(out)
            converged.append(True)
        except NonconvergenceError:
            fields.append(None)
            converged.append(False)
    m = len(starts)
    dist = np.full((m, m), np.nan)
    best = 0.0
    for i in range(m):
        for j in range(i, m):
            if fields[i] is not None and fields[j] is not None:
                d = float(np.abs(fields[i].rho - fields[j].rho).max())
                dist[i, j] = dist[j, i] = d
                best = max(best, d)
    return UniquenessProbe(converged=converged, max_distance=best,
                           distances=dist, complete=all(converged))
