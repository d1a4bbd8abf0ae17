"""Dirichlet solver for the prescribed-curvature graph equation.

On a planar rectangle with exact Dirichlet data the unknown height g
satisfies, node by node,

    sigma_k(lambda) = H(x, g) * (1 + |Dg|^2)^{-q/2},

where lambda are the principal curvatures of the graph {(x, g(x))} with
respect to the upward normal (-Dg, 1)/w.  The sign is fixed so the upper
hemisphere cap g = sqrt(R^2 - |x|^2) has lambda = (1/R, 1/R); admissible
spectra then live in Gamma_k for positive right-hand sides.

Verification is by manufactured solutions: a closed-form surface is pushed
through the operator to define H, making it the exact solution.  The
interior curvature-bound probe tabulates sup|A| ratios across q; boundary
|A| uses one-sided stencils and is probe-only, never part of the solve.

Extension point (not implemented): quotient operators sigma_k/sigma_l on
graphs.  The residual and admissibility plumbing would carry over, but the
right-hand-side structure is untested territory and deliberately left out.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConstructionError, NonconvergenceError
from .mat2 import pencil_sigmas, shape_operator, sym2
from .newton_core import Evaluation, JetContract, damped_newton, window_weights
from .symmfunc import cone_margin

GRAPH_DIM = 2


# ---------------------------------------------------------------------------
# grid


@dataclass(frozen=True)
class RectGrid:
    a: float
    b: float
    c: float
    d: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise ValueError("need at least 4 nodes per axis")
        if not (self.b > self.a and self.d > self.c):
            raise ValueError("empty rectangle")

    @property
    def hx(self):
        return (self.b - self.a) / (self.nx - 1)

    @property
    def hy(self):
        return (self.d - self.c) / (self.ny - 1)

    @property
    def x1(self):
        return self.a + self.hx * np.arange(self.nx)

    @property
    def x2(self):
        return self.c + self.hy * np.arange(self.ny)

    def meshes(self):
        return np.meshgrid(self.x1, self.x2, indexing="ij")

    def boundary_mask(self):
        m = np.zeros((self.nx, self.ny), dtype=bool)
        m[0, :] = m[-1, :] = m[:, 0] = m[:, -1] = True
        return m


def _d1(f, axis, h):
    """First derivative on the full grid: centered interior, second-order
    one-sided at the two edges (reporting only)."""
    f = np.moveaxis(f, axis, 0)
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2 * h)
    out[0] = (-3 * f[0] + 4 * f[1] - f[2]) / (2 * h)
    out[-1] = (3 * f[-1] - 4 * f[-2] + f[-3]) / (2 * h)
    return np.moveaxis(out, 0, axis)


def _d2(f, axis, h):
    f = np.moveaxis(f, axis, 0)
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - 2 * f[1:-1] + f[:-2]) / h**2
    out[0] = (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / h**2
    out[-1] = (2 * f[-1] - 5 * f[-2] + 4 * f[-3] - f[-4]) / h**2
    return np.moveaxis(out, 0, axis)


# ---------------------------------------------------------------------------
# problem data


class GraphRHS:
    """Right-hand-side data H: polynomial in (x1, x2, g) or fixed samples."""

    def __init__(self, poly=None, samples=None):
        if (poly is None) == (samples is None):
            raise ConfigError("H must be given either as a polynomial or as samples")
        self.poly = poly
        self.samples = None if samples is None else np.asarray(samples, dtype=float)
        if self.samples is not None and not np.all(self.samples > 0.0):
            raise ConfigError("sampled H must be positive everywhere")

    def interior(self, grid, g_int):
        """H at the interior nodes, g_int the heights there (real or complex)."""
        if self.samples is not None:
            return self.samples[1:-1, 1:-1]
        X1, X2 = grid.meshes()
        return self.poly(X1[1:-1, 1:-1], X2[1:-1, 1:-1], g_int)


def _check_order(k):
    if not 1 <= k <= GRAPH_DIM:
        raise ConfigError(f"k={k} out of range for {GRAPH_DIM}-dimensional graphs")


@dataclass
class GraphProblem:
    grid: RectGrid
    k: int
    q: float
    H: GraphRHS
    boundary: np.ndarray  # full (nx, ny) array; only the boundary ring is used

    def __post_init__(self):
        _check_order(self.k)
        if not math.isfinite(self.q):
            raise ConfigError("q must be finite")
        if self.q > 1.0:
            warnings.warn("q > 1 is outside the interior curvature-bound "
                          "hypothesis; runs may fail", stacklevel=2)
        self.boundary = np.asarray(self.boundary, dtype=float)
        if self.boundary.shape != (self.grid.nx, self.grid.ny):
            raise ConfigError("boundary array must cover the full grid")
        ring = self.boundary.copy()
        ring[1:-1, 1:-1] = 0.0
        if not np.all(np.isfinite(ring)):
            raise ConfigError("boundary data must be finite on the boundary ring")


@dataclass
class GraphField:
    """Height samples on the full grid; boundary entries are the Dirichlet data."""

    grid: RectGrid
    g: np.ndarray

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=float)
        if self.g.shape != (self.grid.nx, self.grid.ny):
            raise ValueError("g shape does not match the grid")


# ---------------------------------------------------------------------------
# pointwise shape


def _graph_forms(p1, p2, h11, h12, h22):
    """w, metric I + Dg Dg^T and second fundamental form -D2g/w of a graph
    (cap-positive convention) from Dg = (p1, p2) and the entries h_ij of
    D2g, the forms as entry triples (f11, f12, f22) for pencil_sigmas; real
    or complex input."""
    w = np.sqrt(1.0 + p1**2 + p2**2)
    return w, (1.0 + p1**2, p1 * p2, 1.0 + p2**2), (-h11 / w, -h12 / w, -h22 / w)


def _entries(Dg, D2g):
    """(p1, p2, h11, h12, h22) of derivatives stacked as (..., 2) and (..., 2, 2)."""
    return Dg[..., 0], Dg[..., 1], D2g[..., 0, 0], D2g[..., 0, 1], D2g[..., 1, 1]


def graph_shape(Dg, D2g):
    """Principal curvatures and |A| of a graph point from its derivatives.

    Dg has shape (..., 2), D2g shape (..., 2, 2).  Curvatures are the
    shape_operator eigenvalues of the forms of _graph_forms, stacked to
    (..., 2, 2).  Reporting only: the solve works on pencil_sigmas of the
    same forms.
    """
    _, G, b = _graph_forms(*_entries(np.asarray(Dg, dtype=float),
                                     np.asarray(D2g, dtype=float)))
    _, lam = shape_operator(sym2(*G), sym2(*b))
    return lam, np.sqrt(np.sum(lam**2, axis=-1))


def full_grid_shape(field):
    """Principal curvatures and |A| at every node of the field's grid, from _d1
    and _d2 (one-sided on the boundary ring); reporting only."""
    grid, g = field.grid, field.g
    Dg = np.stack([_d1(g, 0, grid.hx), _d1(g, 1, grid.hy)], axis=-1)
    mixed = _d1(_d1(g, 0, grid.hx), 1, grid.hy)
    return graph_shape(Dg, sym2(_d2(g, 0, grid.hx), mixed, _d2(g, 1, grid.hy)))


def _interior_jet(x, prob):
    """The 2-jet (g, g_x, g_y, g_xx, g_xy, g_yy) at the interior nodes from
    centred stencils on the unknowns x (real or complex) inside the
    Dirichlet ring."""
    grid = prob.grid
    hx, hy = grid.hx, grid.hy
    g = prob.boundary.astype(x.dtype)
    g[1:-1, 1:-1] = x.reshape(grid.nx - 2, grid.ny - 2)
    gx = (g[2:, 1:-1] - g[:-2, 1:-1]) / (2 * hx)
    gy = (g[1:-1, 2:] - g[1:-1, :-2]) / (2 * hy)
    gxx = (g[2:, 1:-1] - 2 * g[1:-1, 1:-1] + g[:-2, 1:-1]) / hx**2
    gyy = (g[1:-1, 2:] - 2 * g[1:-1, 1:-1] + g[1:-1, :-2]) / hy**2
    gxy = (g[2:, 2:] - g[2:, :-2] - g[:-2, 2:] + g[:-2, :-2]) / (4 * hx * hy)
    return g[1:-1, 1:-1], gx, gy, gxx, gxy, gyy


def _evaluate_jet(jet, prob):
    """Residual plus admissibility data, node by node from the
    _interior_jet.  A complex jet (complex step) keeps the residual
    analytic; admissibility and aux read real parts.  Only the heights g
    (the unknowns; GraphProblem checks the Dirichlet ring) are checked
    finite: finite heights that overflow in the jets give a non-finite
    residual, with no warning, which damped_newton refuses at the start
    and its line search rejects."""
    g = jet[0]
    if not np.all(np.isfinite(g)):
        return Evaluation(np.full(g.size, 1e30), False, np.full(g.shape, -math.inf), {})
    with np.errstate(over="ignore", invalid="ignore"):
        w, G, b = _graph_forms(*jet[1:])
        sig = pencil_sigmas(G, b)
        margin = cone_margin(s.real for s in sig[1:prob.k + 1])
        # mean curvature (k = 1) is elliptic on every graph, so the cone gate
        # only applies to the genuinely fully nonlinear orders
        admissible = float(margin.min()) > 0.0 if prob.k >= 2 else True
        H_int = prob.H.interior(prob.grid, g)
        res = sig[prob.k] - H_int * w ** (-prob.q)
        aux = {"H_min": float(H_int.real.min()), "res_norm2": float(np.linalg.norm(res.real))}
    return Evaluation(res.ravel(), admissible, margin, aux)


def graph_residual(field, prob):
    """Per-interior-node residual sigma_k(lambda) - H w^{-q}.

    Boundary entries of the field are replaced by the problem's Dirichlet
    data; inadmissible interior spectra raise with the offending nodes.
    """
    ev = _jet_contract(prob)(field.g[1:-1, 1:-1].ravel())
    if not ev.admissible:
        raise ev.outside_cone(prob.k, offset=1)  # full-grid indices
    if ev.aux["H_min"] <= 0.0:
        raise ConfigError("H must stay positive on the working range")
    return ev.residual.reshape(prob.grid.nx - 2, prob.grid.ny - 2)


# ---------------------------------------------------------------------------
# manufactured solutions


class CapSolution:
    """Upper-hemisphere cap g = g0 + sqrt(R^2 - |x - c|^2), tilt optional."""

    def __init__(self, radius, center=(0.0, 0.0), offset=0.0, tilt=(0.0, 0.0)):
        self.R = float(radius)
        self.center = (float(center[0]), float(center[1]))
        self.offset = float(offset)
        self.tilt = (float(tilt[0]), float(tilt[1]))

    def height(self, x1, x2):
        r2 = (x1 - self.center[0]) ** 2 + (x2 - self.center[1]) ** 2
        if np.any(r2 >= self.R**2):
            raise ConstructionError("cap domain exceeds its radius")
        return (self.offset + np.sqrt(self.R**2 - r2)
                + self.tilt[0] * x1 + self.tilt[1] * x2)

    def derivatives(self, x1, x2):
        u1, u2 = x1 - self.center[0], x2 - self.center[1]
        s = np.sqrt(self.R**2 - u1**2 - u2**2)
        Dg = np.stack([-u1 / s + self.tilt[0], -u2 / s + self.tilt[1]], axis=-1)
        D2g = np.empty(np.shape(s) + (2, 2))
        D2g[..., 0, 0] = -1.0 / s - u1 * u1 / s**3
        D2g[..., 0, 1] = -u1 * u2 / s**3
        D2g[..., 1, 0] = D2g[..., 0, 1]
        D2g[..., 1, 1] = -1.0 / s - u2 * u2 / s**3
        return Dg, D2g


class ParaboloidSolution:
    """g = g0 + alpha |x - c|^2; admissible in Gamma_k only for alpha < 0
    under the cap-positive sign convention (the surface must bend the same
    way as the cap)."""

    def __init__(self, alpha, center=(0.0, 0.0), offset=0.0):
        self.alpha = float(alpha)
        self.center = (float(center[0]), float(center[1]))
        self.offset = float(offset)

    def height(self, x1, x2):
        return (self.offset + self.alpha * ((x1 - self.center[0]) ** 2
                                            + (x2 - self.center[1]) ** 2))

    def derivatives(self, x1, x2):
        u1, u2 = x1 - self.center[0], x2 - self.center[1]
        Dg = np.stack([2 * self.alpha * u1, 2 * self.alpha * u2], axis=-1)
        D2g = np.zeros(np.shape(u1) + (2, 2))
        D2g[..., 0, 0] = 2 * self.alpha
        D2g[..., 1, 1] = 2 * self.alpha
        return Dg, D2g


def manufactured_H(solution, k, q, grid):
    """Push an exact solution through the operator: H := sigma_k(lambda) w^q.

    With this H the given surface solves the equation exactly, so the solver
    can be verified against it.  Raises when the surface is inadmissible
    anywhere on the grid, or not finite (a NaN margin fails the > 0 test),
    and when H itself is not finite (w^q overflows); computed under
    np.errstate, so neither prints a numpy warning first.
    """
    _check_order(k)
    X1, X2 = grid.meshes()
    with np.errstate(over="ignore", invalid="ignore"):
        w, G, b = _graph_forms(*_entries(*solution.derivatives(X1, X2)))
        sig = pencil_sigmas(G, b)
        inside = np.all(cone_margin(sig[1:k + 1]) > 0.0)
        H = sig[k] * w**q
    if not inside:
        raise ConstructionError(f"manufactured surface leaves Gamma_{k} on the domain")
    if not np.all(np.isfinite(H)):
        raise ConstructionError(f"manufactured H = sigma_{k} w^q is not finite on the "
                                f"domain (q = {q!r})")
    return H


def exact_field(solution, grid):
    X1, X2 = grid.meshes()
    return GraphField(grid, solution.height(X1, X2))


def manufactured_start(solution, grid, amplitude=1e-2):
    """Newton start for a manufactured problem: the exact heights plus the
    bump amplitude * sin(pi s) sin(pi t), with s, t the rectangle's unit
    coordinates; the bump vanishes on the boundary up to rounding."""
    X1, X2 = grid.meshes()
    bump = (amplitude * np.sin(math.pi * (X1 - grid.a) / (grid.b - grid.a))
            * np.sin(math.pi * (X2 - grid.c) / (grid.d - grid.c)))
    return GraphField(grid, solution.height(X1, X2) + bump)


def manufactured_problem(solution, grid, k, q):
    """Dirichlet problem solved exactly by the given surface; raises
    ConstructionError when the surface does not cover the grid (checked
    first) or leaves Gamma_k on it."""
    boundary = exact_field(solution, grid).g
    return GraphProblem(grid, k, q, GraphRHS(samples=manufactured_H(solution, k, q, grid)),
                        boundary)


# ---------------------------------------------------------------------------
# solver


def _interior_neighbors(grid):
    """Read table of the interior unknowns: row (i, j) lists the interior
    nodes of its 3x3 stencil; a read that falls on the Dirichlet ring is
    data, not an unknown, and repeats the row's own index instead."""
    mx, my = grid.nx - 2, grid.ny - 2
    d = np.array([-1, 0, 1])
    i = np.arange(mx)[:, None, None, None]
    j = np.arange(my)[None, :, None, None]
    ci, cj = i + d[:, None], j + d
    inside = (ci >= 0) & (ci < mx) & (cj >= 0) & (cj < my)
    return np.where(inside, ci * my + cj, i * my + j).reshape(mx * my, 9)


def _jet_window(grid):
    """Window of _interior_jet on _interior_neighbors: each D_m as centred
    weights on its slots (row-major over the 3x3 block, the node itself in
    slot 4); a read of the Dirichlet ring is the constant c_m's and weighs
    nothing."""
    cols = _interior_neighbors(grid)
    inside = cols != np.arange(len(cols))[:, None]
    inside[:, 4] = True
    hx, hy = grid.hx, grid.hy
    weights = [([4], [1.0]), ([1, 7], [-0.5 / hx, 0.5 / hx]), ([3, 5], [-0.5 / hy, 0.5 / hy]),
               ([1, 4, 7], [1 / hx**2, -2 / hx**2, 1 / hx**2]),
               ([0, 2, 6, 8], [c / (4 * hx * hy) for c in (1, -1, -1, 1)]),
               ([3, 4, 5], [1 / hy**2, -2 / hy**2, 1 / hy**2])]
    return window_weights(cols, (grid.nx - 2, grid.ny - 2),
                          [(np.array(slots), inside[:, slots] * np.array(c)) for slots, c in weights])


def _jet_contract(prob):
    """JetContract of _evaluate_jet on the flat interior unknowns; the
    window's weights hold the spacing, so its key is the whole grid."""
    grid = prob.grid
    return JetContract(lambda x: _interior_jet(x, prob),
                       lambda jet: _evaluate_jet(jet, prob),
                       ("rect", grid), lambda: _jet_window(grid))


def dirichlet_newton_solve(start, prob, tol=1e-10, max_iter=30):
    """Damped Newton on the interior unknowns, boundary held at the data.

    Same contract as the sphere solver: exact Jacobian from the jet, chord
    steps, Armijo backtracking, cone veto; NonconvergenceError with
    damped_newton's SolveFailure.
    """
    contract = _jet_contract(prob)
    x, report = damped_newton(start.g[1:-1, 1:-1].ravel(), contract, contract, tol, max_iter)
    g = prob.boundary.copy()
    g[1:-1, 1:-1] = x.reshape(prob.grid.nx - 2, prob.grid.ny - 2)
    return GraphField(prob.grid, g), report


# ---------------------------------------------------------------------------
# interior curvature-bound probe


@dataclass
class CurvatureBoundProbe:
    sup_interior_A: float
    sup_boundary_A: float
    ratio: float
    q: float
    k: int
    grid_shape: tuple


def curvature_bound_probe(A, prob):
    """sup|A| over interior and boundary nodes and their bound ratio, from
    |A| at every node of prob.grid (full_grid_shape)."""
    grid = prob.grid
    mask = grid.boundary_mask()
    sup_int = float(A[~mask].max())
    sup_bnd = float(A[mask].max())
    return CurvatureBoundProbe(
        sup_interior_A=sup_int,
        sup_boundary_A=sup_bnd,
        ratio=sup_int / (1.0 + sup_bnd),
        q=prob.q,
        k=prob.k,
        grid_shape=(grid.nx, grid.ny),
    )


@dataclass
class CampaignRow:
    q: float
    nx: int
    ny: int
    sup_int_A: float
    sup_bnd_A: float
    ratio: float
    converged: bool


def bound_probe_row(prob, start, tol=1e-9, max_iter=40):
    """Solve one manufactured problem and tabulate its curvature ratios; a
    nonconvergent solve is recorded, not raised (q > 1 exploration is
    expected to be allowed to fail)."""
    grid = prob.grid
    try:
        sol, _ = dirichlet_newton_solve(start, prob, tol=tol, max_iter=max_iter)
    except NonconvergenceError:
        return CampaignRow(prob.q, grid.nx, grid.ny, math.nan, math.nan, math.nan, False)
    probe = curvature_bound_probe(full_grid_shape(sol)[1], prob)
    return CampaignRow(prob.q, grid.nx, grid.ny, probe.sup_interior_A,
                       probe.sup_boundary_A, probe.ratio, True)


def bound_probe_campaign(qs, grid_sizes, k=2, radius=2.0, bounds=(-1.0, 1.0, -1.0, 1.0),
                         perturbation=1e-2, tol=1e-9, max_iter=40):
    """Solve the cap-manufactured problem across q and grids; tabulate the
    interior/boundary curvature ratios with bound_probe_row."""
    cap = CapSolution(radius)
    grids = [RectGrid(*bounds, nx, ny) for nx, ny in grid_sizes]
    return [bound_probe_row(manufactured_problem(cap, grid, k, q),
                            manufactured_start(cap, grid, perturbation), tol, max_iter)
            for q in qs for grid in grids]
