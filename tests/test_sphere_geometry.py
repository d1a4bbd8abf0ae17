import math

import numpy as np
import pytest

from prescurv.errors import StarshapednessError
from prescurv.sphere_geometry import (
    RadialField,
    build_grid,
    ellipsoid_principal_curvatures,
    ellipsoid_radial_field,
    export_csv,
    export_obj,
    field_norm,
    radial_geometry,
    restrict_to_coarse,
    structure_equation_residuals,
    tangential_derivatives,
)
from prescurv.symmfunc import OperatorSpec


def smooth_field(grid):
    x = grid.nodes
    rho = 2.0 + 0.3 * x[..., 2] + 0.2 * x[..., 0] * x[..., 1] + 0.15 * x[..., 0]
    return RadialField(grid, rho)


def test_grid_counts_and_weights():
    g = build_grid(8, 8)
    assert g.n_nodes == 64
    assert g.weights.sum() == pytest.approx(4 * math.pi, rel=1e-12)
    g = build_grid(16, 32)
    assert g.n_nodes == 512
    assert np.abs(np.linalg.norm(g.nodes, axis=-1) - 1.0).max() < 1e-14
    assert np.sin(g.theta).min() > 0.0  # staggering keeps nodes off the poles


def test_grid_rejects_odd_longitude_count():
    with pytest.raises(ValueError):
        build_grid(8, 7)


def test_radial_field_positivity_guard():
    g = build_grid(8, 8)
    rho = np.ones((8, 8))
    rho[3, 4] = -0.5
    with pytest.raises(StarshapednessError):
        RadialField(g, rho)


def test_constant_field_derivatives_vanish():
    g = build_grid(12, 24)
    grad, hess = tangential_derivatives(g, RadialField.constant(g, 3.7).rho)
    assert np.abs(grad).max() < 1e-12
    assert np.abs(hess).max() < 1e-12


def test_degree_one_harmonic_hessian():
    # Hess(x3) on the sphere equals -x3 * identity; rho = 2 + 0.3 x3 shifts it
    errs = []
    for n in (16, 32):
        g = build_grid(n, 2 * n)
        x3 = g.nodes[..., 2]
        grad, hess = tangential_derivatives(g, RadialField(g, 2.0 + 0.3 * x3).rho)
        target = -0.3 * x3[..., None, None] * np.eye(2)
        errs.append(np.abs(hess - target).max())
    assert errs[1] < errs[0]
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)


def test_round_sphere_geometry_exact():
    g = build_grid(32, 64)
    for r in (0.5, 1.0, 2.0):
        geo = radial_geometry(RadialField.constant(g, r))
        assert np.abs(geo.u - r).max() <= 1e-12
        assert np.abs(geo.principal - 1.0 / r).max() <= 1e-10
        assert np.abs(np.linalg.norm(geo.nu, axis=-1) - 1.0).max() <= 1e-12
        assert np.abs(geo.nu - g.nodes).max() <= 1e-12


def test_round_sphere_equation_residual_root():
    # sigma_2 of a round sphere of radius r is r^{-2}; with p = 1 and unit
    # density the radial equation residual r^{-2} - r vanishes only at r = 1
    g = build_grid(16, 32)
    for r, expect in ((1.0, 0.0), (2.0, 2.0**-2 - 2.0)):
        geo = radial_geometry(RadialField.constant(g, r))
        s2 = geo.principal[..., 0] * geo.principal[..., 1]
        res = s2 - geo.u
        assert np.abs(res - expect).max() < 1e-12


def test_support_identity_against_independent_normal():
    # u = rho^2 / w must agree with <X, nu> computed from discrete tangents
    errs = []
    for n in (16, 32):
        g = build_grid(n, 2 * n)
        geo = radial_geometry(smooth_field(g))
        tX = np.stack([g.d_theta(geo.X[..., k]) for k in range(3)], axis=-1)
        pX = np.stack([g.d_phi(geo.X[..., k]) for k in range(3)], axis=-1)
        nu = np.cross(tX, pX)
        nu /= np.linalg.norm(nu, axis=-1, keepdims=True)
        sgn = np.sign(np.sum(nu * g.nodes, axis=-1))
        u_ind = np.sum(geo.X * nu, axis=-1) * sgn
        errs.append(np.abs(geo.u - u_ind).max())
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.4)


def test_rotation_equivariance_under_longitude_shift():
    g = build_grid(12, 24)
    f = smooth_field(g)
    k = 5
    shifted = RadialField(g, np.roll(f.rho, k, axis=1))
    a = radial_geometry(f)
    b = radial_geometry(shifted)
    assert np.abs(np.roll(a.u, k, axis=1) - b.u).max() < 1e-13
    assert np.abs(np.roll(a.principal, k, axis=1) - b.principal).max() < 1e-13


def test_ellipsoid_curvature_convergence():
    # mild enough that 16 colatitude rows already sit in the asymptotic range
    a, b, c = 1.15, 1.0, 0.9
    errs_l2 = []
    errs_sampled = []
    for n in (16, 32, 64):
        g = build_grid(n, 2 * n)
        geo = radial_geometry(ellipsoid_radial_field(g, a, b, c))
        lam_exact = np.sort(
            ellipsoid_principal_curvatures(geo.X.reshape(-1, 3), a, b, c), axis=-1
        ).reshape(geo.principal.shape)
        diff = np.linalg.norm(geo.principal - lam_exact, axis=-1)
        errs_l2.append(field_norm(g, diff))
        keep = np.abs(np.cos(g.theta)) <= 0.8
        errs_sampled.append(diff[keep].max())
    for e in (errs_l2, errs_sampled):
        order1 = math.log2(e[0] / e[1])
        order2 = math.log2(e[1] / e[2])
        assert order1 >= 1.8 and order2 >= 1.8


def test_structure_residuals_exact_on_round_sphere():
    g = build_grid(16, 32)
    sr = structure_equation_residuals(radial_geometry(RadialField.constant(g, 1.7)))
    assert sr.max_gauss <= 1e-10
    assert sr.max_support <= 1e-10


def test_structure_residuals_second_order_on_smooth_field():
    vals = []
    for n in (16, 32, 64):
        g = build_grid(n, 2 * n)
        sr = structure_equation_residuals(radial_geometry(smooth_field(g)))
        vals.append((sr.l2_gauss, sr.l2_support))
    for idx in range(2):
        order = math.log2(vals[1][idx] / vals[2][idx])
        assert order >= 1.8


def test_structure_residuals_flag_rough_input():
    g = build_grid(16, 32)
    rng = np.random.default_rng(0)
    rough = RadialField(g, 1.0 + 0.1 * rng.random((16, 32)))
    smooth = smooth_field(g)
    sr_rough = structure_equation_residuals(radial_geometry(rough))
    sr_smooth = structure_equation_residuals(radial_geometry(smooth))
    assert sr_rough.max_gauss > 100 * sr_smooth.max_gauss


def test_restrict_to_coarse_accuracy():
    def rho_fn(x):
        return 2.0 + 0.3 * x[..., 2] + 0.2 * x[..., 0] * x[..., 1]

    fine = build_grid(32, 64)
    coarse = build_grid(16, 32)
    interp = restrict_to_coarse(RadialField(fine, rho_fn(fine.nodes)), coarse)
    assert np.abs(interp - rho_fn(coarse.nodes)).max() < 1e-6


def test_exports(tmp_path):
    g = build_grid(8, 8)
    geo = radial_geometry(smooth_field(g))
    obj_path = tmp_path / "surface.obj"
    csv_path = tmp_path / "solution.csv"
    export_obj(geo, obj_path)
    export_csv(geo, OperatorSpec("sigma_k", k=2), csv_path)
    lines = obj_path.read_text().splitlines()
    assert sum(1 for ln in lines if ln.startswith("v ")) == g.n_nodes
    assert sum(1 for ln in lines if ln.startswith("f ")) == 2 * (g.n_theta - 1) * g.n_phi
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "theta,phi,rho,u,lambda1,lambda2,sigma_k"
    assert len(rows) == 1 + g.n_nodes
    first = [float(v) for v in rows[1].split(",")]
    assert first[2] == pytest.approx(geo.field.rho[0, 0])


def loop_obj(geom):
    """The OBJ text as the vertex and face loops wrote it before the columns."""
    nt, np_ = geom.grid.n_theta, geom.grid.n_phi
    out = [f"v {x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in geom.X.reshape(-1, 3).tolist()]
    for i in range(nt - 1):
        for j in range(np_):
            a = i * np_ + j + 1
            b = i * np_ + (j + 1) % np_ + 1
            c = (i + 1) * np_ + (j + 1) % np_ + 1
            d = (i + 1) * np_ + j + 1
            out += [f"f {a} {b} {c}\n", f"f {a} {c} {d}\n"]
    return "".join(out)


def test_obj_export_matches_loop_reference(tmp_path):
    geo = radial_geometry(smooth_field(build_grid(8, 12)))
    export_obj(geo, tmp_path / "surface.obj")
    assert (tmp_path / "surface.obj").read_text() == loop_obj(geo)
