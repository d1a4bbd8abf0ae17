"""Radial graphs X(x) = rho(x) x over the unit sphere S^2.

Discretization: staggered latitude-longitude grid (colatitude nodes at
(i+1/2) pi/n_theta, no node on a pole), periodic longitude, and cross-pole
ghost rows: the ghost at colatitude -theta_j is the row at +theta_j shifted
by half a revolution.  Scalar fields extend through the pole with parity +1;
longitude-frame vector components flip sign (parity -1).  All geometry is
read off radial_jet's six arrays per node (rho, its gradient and covariant
Hessian in the orthonormal frame); no frame vector or normal is stored.

Sign convention: the second fundamental form is oriented so that the round
sphere of radius r with outward normal has principal curvatures +1/r.  With
a positive right-hand side this makes near-round admissible spectra live in
the Gamma_k cone, which is what the continuation solver needs.

Pole rows of some covariant-Hessian components are one order less accurate
than the interior (the classic lat-lon pole penalty), so aggregate health
numbers are taken in the quadrature-weighted L2 norm (field_norm) as well
as the plain max; structure_equation_residuals reports both.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import StarshapednessError
from .mat2 import shape_operator, sym2
from .newton_core import window_weights
from .reporting import format_rows, write_csv


# ---------------------------------------------------------------------------
# grid


@dataclass(frozen=True)
class SphericalGrid:
    n_theta: int
    n_phi: int
    theta: np.ndarray          # (n_theta,) colatitudes
    phi: np.ndarray            # (n_phi,) longitudes
    nodes: np.ndarray          # (n_theta, n_phi, 3) unit vectors
    weights: np.ndarray        # (n_theta, n_phi), sum exactly 4 pi

    @property
    def dtheta(self):
        return math.pi / self.n_theta

    @property
    def dphi(self):
        return 2.0 * math.pi / self.n_phi

    @property
    def pole_shift(self):
        return self.n_phi // 2

    @property
    def n_nodes(self):
        return self.n_theta * self.n_phi

    @property
    def sin_theta(self):
        return np.sin(self.theta)[:, None]

    @property
    def cos_theta(self):
        return np.cos(self.theta)[:, None]

    # -- ghost extension and difference stencils ---------------------------

    def extend(self, f, rows, parity=1):
        """Append ``rows`` cross-pole ghost rows above and below ``f`` (integer f stays int)."""
        shift = self.pole_shift
        top = parity * np.roll(f[rows - 1::-1], shift, axis=1)
        bot = parity * np.roll(f[:self.n_theta - rows - 1:-1], shift, axis=1)
        return np.concatenate([top, f, bot], axis=0)

    def d_phi(self, f, order=2):
        h = self.dphi
        if order == 2:
            return (np.roll(f, -1, axis=1) - np.roll(f, 1, axis=1)) / (2 * h)
        return (-np.roll(f, -2, axis=1) + 8 * np.roll(f, -1, axis=1)
                - 8 * np.roll(f, 1, axis=1) + np.roll(f, 2, axis=1)) / (12 * h)

    def d_phiphi(self, f, order=2):
        h = self.dphi
        if order == 2:
            return (np.roll(f, -1, axis=1) - 2 * f + np.roll(f, 1, axis=1)) / h**2
        return (-np.roll(f, -2, axis=1) + 16 * np.roll(f, -1, axis=1) - 30 * f
                + 16 * np.roll(f, 1, axis=1) - np.roll(f, 2, axis=1)) / (12 * h**2)

    def d_theta(self, f, order=2, parity=1.0):
        h = self.dtheta
        if order == 2:
            ext = self.extend(f, 1, parity)
            return (ext[2:] - ext[:-2]) / (2 * h)
        ext = self.extend(f, 2, parity)
        return (-ext[4:] + 8 * ext[3:-1] - 8 * ext[1:-3] + ext[:-4]) / (12 * h)

    def d_thetatheta(self, f, order=2, parity=1.0):
        h = self.dtheta
        if order == 2:
            ext = self.extend(f, 1, parity)
            return (ext[2:] - 2 * ext[1:-1] + ext[:-2]) / h**2
        ext = self.extend(f, 2, parity)
        return (-ext[4:] + 16 * ext[3:-1] - 30 * ext[2:-2]
                + 16 * ext[1:-3] - ext[:-4]) / (12 * h**2)

    # -- read table and jet operators for the Jacobian ----------------------

    def stencil_neighbors(self):
        """Flat-index read table of the jet: row i lists every node the
        second-order stencils of radial_jet at node i read (the node itself
        included, in the centre slot), in row-major order over the 3x3 block.
        Pole rows read their cross-pole ghost columns; with n_phi >= 8 the
        nine reads are always distinct."""
        ext = self.extend(np.arange(self.n_nodes).reshape(self.n_theta, self.n_phi), 1)
        reads = [np.roll(ext[1 + di:self.n_theta + 1 + di], -dj, axis=1)
                 for di in (-1, 0, 1) for dj in (-1, 0, 1)]
        return np.stack(reads, axis=-1).reshape(self.n_nodes, 9)

    # the Jacobian window; bench/tracing.py times its build by wrapping this
    # name, which it kept from the column colouring that the window replaced
    def column_groups(self):
        """Window of radial_jet: each D_m as closed-form weights on the slots
        of stencil_neighbors (row-major over the 3x3 block, the node itself
        in slot 4), whose cross-pole reads carry the ghost rows of extend."""
        def per_node(row_values):
            return np.repeat(row_values, self.n_phi)[:, None]

        ht, hp, s = self.dtheta, self.dphi, self.sin_theta[:, 0]
        st, ct, one = per_node(s), per_node(self.cos_theta[:, 0]), np.ones((self.n_nodes, 1))
        # sin theta of the rows above and below: rho_;12 differentiates rho_2
        # = rho_phi / sin theta across the pole with odd parity, so a ghost
        # row divides by -sin theta
        s_up, s_down = per_node(np.r_[-s[0], s[:-1]]), per_node(np.r_[s[1:], -s[-1]])
        c2 = 1 / (4 * ht * hp)
        weights = [
            ([4], one),
            ([1, 7], one * [-0.5 / ht, 0.5 / ht]),
            ([3, 5], [-0.5 / hp, 0.5 / hp] / st),
            ([1, 4, 7], one * [1 / ht**2, -2 / ht**2, 1 / ht**2]),
            ([0, 2, 6, 8], np.hstack([c2 / s_up, -c2 / s_up, -c2 / s_down, c2 / s_down])),
            ([1, 3, 4, 5, 7], np.hstack([-0.5 * ct / (ht * st), [1, -2, 1] / (hp * st)**2,
                                         0.5 * ct / (ht * st)])),
        ]
        return window_weights(self.stencil_neighbors(), (self.n_theta, self.n_phi),
                              [(np.array(slots), w) for slots, w in weights])


def build_grid(n_theta, n_phi):
    """Staggered latitude-longitude grid with cross-pole ghost pairing.

    n_phi must be even so the ghost of column j is column j + n_phi/2.
    Quadrature weights are the midpoint-rule weights rescaled so they sum
    to 4 pi exactly.
    """
    if n_phi % 2 != 0:
        raise ValueError("n_phi must be even (cross-pole ghost pairing)")
    if n_theta < 8 or n_phi < 8:
        raise ValueError("grid too coarse: need n_theta >= 8 and n_phi >= 8")
    theta = (np.arange(n_theta) + 0.5) * math.pi / n_theta
    phi = np.arange(n_phi) * 2.0 * math.pi / n_phi
    st, ct = np.sin(theta)[:, None], np.cos(theta)[:, None]
    sp, cp = np.sin(phi)[None, :], np.cos(phi)[None, :]
    nodes = np.stack([st * cp, st * sp, ct * np.ones_like(sp)], axis=-1)
    w = st * np.ones_like(sp)
    weights = w * (4.0 * math.pi / w.sum())
    for arr in (theta, phi, nodes, weights):
        arr.flags.writeable = False
    return SphericalGrid(n_theta, n_phi, theta, phi, nodes, weights)


# ---------------------------------------------------------------------------
# fields


@dataclass(frozen=True)
class RadialField:
    """Samples of the radial function rho > 0 on a spherical grid."""

    grid: SphericalGrid
    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        if rho.shape != (self.grid.n_theta, self.grid.n_phi):
            raise ValueError("rho shape does not match the grid")
        if not np.all(np.isfinite(rho)):
            raise StarshapednessError("rho contains non-finite samples")
        if np.any(rho <= 0.0):
            raise StarshapednessError("rho must be positive everywhere (starshapedness)")
        rho = rho.copy()
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)

    @classmethod
    def constant(cls, grid, value):
        return cls(grid, np.full((grid.n_theta, grid.n_phi), float(value)))


def radial_jet(grid, rho, order=2):
    """The 2-jet (rho, rho_1, rho_2, rho_;11, rho_;12, rho_;22) of rho on S^2
    in the orthonormal frame, by stencils of the given order (2 or 4).

    rho_1 = rho_theta and rho_2 = rho_phi / sin theta; the rho_;ij are the
    covariant Hessian.  The mixed component is d_theta(rho_2) with odd
    cross-pole parity, which keeps it second-order accurate up to the pole
    rows.  rho may be real or complex.
    """
    st = grid.sin_theta
    d1 = grid.d_theta(rho, order)
    d2 = grid.d_phi(rho, order) / st
    return (rho, d1, d2, grid.d_thetatheta(rho, order), grid.d_theta(d2, order, parity=-1.0),
            grid.d_phiphi(rho, order) / st**2 + (grid.cos_theta / st) * d1)


def radial_forms(jet):
    """Fundamental forms of the radial graph X = rho x from its radial_jet.

    Returns (w, u, metric, b) in the orthonormal sphere frame, outward
    normal, the forms as entry triples (f11, f12, f22) for pencil_sigmas:
        w     = sqrt(rho^2 + |grad rho|^2)
        u     = rho^2 / w
        g_ij  = rho^2 delta_ij + rho_i rho_j
        b_ij  = (rho^2 delta_ij + 2 rho_i rho_j - rho rho_;ij) / w
    Only analytic operations, node by node, so a complex jet (complex-step
    differentiation) passes through unchanged.
    """
    rho, d1, d2, h11, h12, h22 = jet
    w = np.sqrt(rho**2 + d1**2 + d2**2)
    u = rho**2 / w
    metric = (rho**2 + d1**2, d1 * d2, rho**2 + d2**2)
    winv = 1.0 / w
    b = ((rho**2 + 2 * d1 * d1 - rho * h11) * winv,
         (2 * d1 * d2 - rho * h12) * winv,
         (rho**2 + 2 * d2 * d2 - rho * h22) * winv)
    return w, u, metric, b


@dataclass(frozen=True)
class SurfaceGeometry:
    """Per-node geometry of the radial graph: immutable once built."""

    field: RadialField
    X: np.ndarray              # (nt, np, 3) positions
    u: np.ndarray              # (nt, np) support values <X, normal>
    metric: np.ndarray         # (nt, np, 2, 2) induced metric, sphere frame
    principal: np.ndarray      # (nt, np, 2) principal curvatures, ascending
    grad_rho: np.ndarray       # (nt, np, 2)
    w: np.ndarray              # (nt, np) sqrt(rho^2 + |grad rho|^2)
    b_form: np.ndarray         # (nt, np, 2, 2) second fundamental form, sphere frame

    @property
    def grid(self):
        return self.field.grid


def radial_geometry(field):
    """All geometric quantities of the radial graph X = rho x.

    Forms as in radial_forms, stacked to (..., 2, 2).  Principal
    curvatures are the eigenvalues of g^{-1/2} b g^{-1/2}; the round sphere
    rho = r gives lambda = +1/r exactly (stencils annihilate constants),
    which fixes the orientation convention.
    """
    grid, rho = field.grid, field.rho
    jet = radial_jet(grid, rho)
    w, u, metric, b = radial_forms(jet)
    metric, b = sym2(*metric), sym2(*b)
    grad = np.stack(jet[1:3], axis=-1)
    if np.any(u <= 0.0):
        bad = np.argwhere(u <= 0.0)
        raise StarshapednessError(f"support function u <= 0 at node(s) {bad[:5].tolist()}")
    X = rho[..., None] * grid.nodes
    _, principal = shape_operator(metric, b)
    geo = SurfaceGeometry(field, X, u, metric, principal, grad, w, b)
    for arr in (X, u, metric, principal, grad, w, b):
        arr.flags.writeable = False
    return geo


# ---------------------------------------------------------------------------
# structure-equation health checks


@dataclass(frozen=True)
class StructureResiduals:
    """Per-node residual norms of the discrete structure equations.

    gauss:   | <Hess X, normal> + b |_F  per node (Gauss formula, normal part)
    support: | grad u - b g^{-1} <grad X, X> |  per node
    Derivatives of rho and u are re-evaluated with independent fourth-order
    stencils, so both residuals vanish to round-off on constant fields and
    decay at the second-order rate on smooth ones.
    """

    gauss: np.ndarray
    support: np.ndarray
    max_gauss: float
    max_support: float
    l2_gauss: float
    l2_support: float


def field_norm(grid, values):
    """Quadrature-weighted L2 norm of a per-node field, normalised by the area 4 pi."""
    values = np.abs(np.asarray(values, dtype=float))
    return float(np.sqrt((grid.weights * values**2).sum() / (4.0 * math.pi)))


def structure_equation_residuals(geom):
    grid = geom.grid
    rho = geom.field.rho
    jet4 = radial_jet(grid, rho, order=4)
    winv = 1.0 / geom.w
    # normal projection of the sphere-covariant Hessian of X, fourth order:
    # (rho rho_;ij - rho_i d_j - rho_j d_i - delta_ij rho^2) times 1/w
    cross = np.stack(jet4[1:3], axis=-1)[..., :, None] * geom.grad_rho[..., None, :]  # rho_i d_j
    proj = (rho[..., None, None] * sym2(*jet4[3:]) - cross - np.swapaxes(cross, -1, -2)
            - np.eye(2) * (rho**2)[..., None, None]) * winv[..., None, None]
    r1 = proj + geom.b_form
    gauss = np.sqrt(np.sum(r1**2, axis=(-2, -1)))

    # support identity: grad u = b g^{-1} <grad X, X>, with <X_m, X> = rho rho_m
    u = geom.u
    du = np.stack([grid.d_theta(u, order=4), grid.d_phi(u, order=4) / grid.sin_theta],
                  axis=-1)
    ginv = np.linalg.inv(geom.metric)
    t = rho[..., None] * geom.grad_rho
    rhs = np.einsum("...il,...lm,...m->...i", geom.b_form, ginv, t)
    r2 = du - rhs
    support = np.sqrt(np.sum(r2**2, axis=-1))

    return StructureResiduals(
        gauss=gauss,
        support=support,
        max_gauss=float(gauss.max()),
        max_support=float(support.max()),
        l2_gauss=field_norm(grid, gauss),
        l2_support=field_norm(grid, support),
    )


# ---------------------------------------------------------------------------
# closed-form test bodies

def ellipsoid_radial_field(grid, a, b, c):
    """Radial function of the ellipsoid x^2/a^2 + y^2/b^2 + z^2/c^2 = 1;
    ValueError unless the axes a, b, c are finite and nonzero and each
    1 / a^2 (ellipsoid_principal_curvatures' entries) is finite and nonzero."""
    if not all(math.isfinite(v) and v != 0.0 for v in (a, b, c)):
        raise ValueError(f"axes must be finite and nonzero, got {[a, b, c]}")
    x = grid.nodes
    # an overflow leaves rho 0 and an underflow leaves it inf: RadialField refuses both
    with np.errstate(over="ignore", divide="ignore"):
        rho = ((x[..., 0] / a) ** 2 + (x[..., 1] / b) ** 2 + (x[..., 2] / c) ** 2) ** -0.5
        inv_sq = 1.0 / np.square([a, b, c])
    field = RadialField(grid, rho)   # first, so a tiny axis still fails as rho 0
    if not np.all(np.isfinite(inv_sq) & (inv_sq != 0.0)):
        raise ValueError(f"axes must have finite nonzero 1/a^2, got {[a, b, c]}")
    return field


def ellipsoid_principal_curvatures(points, a, b, c):
    """Closed-form principal curvatures of the ellipsoid at surface points.

    Shape operator of a level set {h = 1}: project Hess h / |grad h| onto
    the tangent plane; for the ellipsoid the nonzero eigenvalues of that
    projected matrix are the principal curvatures (positive, outward
    normal convention).
    """
    p = np.asarray(points, dtype=float)
    D = np.diag([1.0 / a**2, 1.0 / b**2, 1.0 / c**2])
    N = p @ D
    nrm = np.linalg.norm(N, axis=-1)
    normal = N / nrm[..., None]
    P = np.eye(3) - np.einsum("...i,...j->...ij", normal, normal)
    M = P @ (D / nrm[..., None, None]) @ P
    eig = np.linalg.eigvalsh(M)
    return eig[..., 1:]  # drop the zero eigenvalue along the normal


# ---------------------------------------------------------------------------
# grid transfer and comparison

def restrict_to_coarse(fine_field, coarse_grid):
    """Interpolate a fine-grid field to the nodes of a coarser grid.

    Requires nested longitudes (fine n_phi a multiple of coarse n_phi);
    colatitudes of staggered grids never coincide, so values are moved by
    1-D Lagrange interpolation in colatitude along the matching longitude
    columns.  Cross-pole ghost rows extend the columns near the poles; six
    points keep the transfer error far below second-order differences.
    """
    fg = fine_field.grid
    if fg.n_phi % coarse_grid.n_phi != 0:
        raise ValueError("fine longitude count must be a multiple of the coarse one")
    stencil = 6
    # contiguous, so the weighted sums below round as on a freshly built array
    ext = np.ascontiguousarray(
        fg.extend(fine_field.rho, stencil)[:, ::fg.n_phi // coarse_grid.n_phi])
    # ghost colatitudes: -theta_j above the north pole, 2 pi - theta_j past south
    theta_ext = np.concatenate([
        -fg.theta[stencil - 1::-1],
        fg.theta,
        2.0 * math.pi - fg.theta[:fg.n_theta - stencil - 1:-1],
    ])
    out = np.empty((coarse_grid.n_theta, coarse_grid.n_phi))
    for it, th in enumerate(coarse_grid.theta):
        base = int(np.searchsorted(theta_ext, th))
        lo = min(max(base - stencil // 2, 0), len(theta_ext) - stencil)
        ts = theta_ext[lo:lo + stencil]
        weights = np.ones(stencil)
        for i in range(stencil):
            for j in range(stencil):
                if i != j:
                    weights[i] *= (th - ts[j]) / (ts[i] - ts[j])
        out[it] = weights @ ext[lo:lo + stencil]
    return out


def field_difference(coarse_field, fine_field):
    """field_norm of the difference between solutions on nested grids."""
    interp = restrict_to_coarse(fine_field, coarse_field.grid)
    return field_norm(coarse_field.grid, coarse_field.rho - interp)


# ---------------------------------------------------------------------------
# exports

def export_obj(geom, path):
    """Write the surface as a Wavefront OBJ (quads split into triangles)."""
    nt, np_ = geom.grid.n_theta, geom.grid.n_phi
    ix = np.arange(1, nt * np_ + 1).reshape(nt, np_)       # 1-based vertex numbers
    a, b = ix[:-1], np.roll(ix, -1, axis=1)[:-1]    # each quad's (i, j) and (i, j + 1)
    faces = np.stack([a, b, b + np_, a, b + np_, a + np_], axis=-1).reshape(-1, 3)
    with open(path, "w") as fh:
        for tag, cols in (("v", geom.X.reshape(-1, 3)), ("f", faces)):
            fh.writelines(format_rows([[tag] * len(cols), *cols.T], sep=" "))


def export_csv(geom, op, path):
    """Per-node CSV: theta, phi, rho, u, lambda1, lambda2, sigma_k."""
    lam = geom.principal
    write_csv(path, ["theta", "phi", "rho", "u", "lambda1", "lambda2", "sigma_k"],
              [(*np.meshgrid(geom.grid.theta, geom.grid.phi, indexing="ij"), geom.field.rho,
                geom.u, lam[..., 0], lam[..., 1], op.value_on_spectrum(lam))])
