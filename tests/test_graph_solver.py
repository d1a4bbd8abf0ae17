import math

import numpy as np
import pytest

from prescurv import graph_solver
from prescurv.errors import ConeViolationError, ConfigError, ConstructionError
from prescurv.graph_solver import (
    CapSolution,
    GraphField,
    GraphProblem,
    GraphRHS,
    ParaboloidSolution,
    RectGrid,
    bound_probe_campaign,
    bound_probe_row,
    curvature_bound_probe,
    dirichlet_newton_solve,
    exact_field,
    full_grid_shape,
    graph_residual,
    graph_shape,
    manufactured_H,
    manufactured_problem,
    manufactured_start,
)
from prescurv.polynomials import Poly3

CAP = CapSolution(2.0)
SQUARE = (-1.0, 1.0, -1.0, 1.0)


def cap_problem(n, k=2, q=0.0):
    grid = RectGrid(*SQUARE, n, n)
    return manufactured_problem(CAP, grid, k, q)


def perturbed_cap_start(grid, amp=1e-2):
    X1, X2 = grid.meshes()
    bump = amp * np.sin(math.pi * (X1 + 1) / 2) * np.sin(math.pi * (X2 + 1) / 2)
    return GraphField(grid, exact_field(CAP, grid).g + bump)



def test_manufactured_start_is_exact_surface_plus_bump():
    grid = RectGrid(*SQUARE, 9, 11)
    start = manufactured_start(CAP, grid)
    assert np.array_equal(start.g, perturbed_cap_start(grid).g)
    mask = grid.boundary_mask()
    assert np.allclose(start.g[mask], exact_field(CAP, grid).g[mask], rtol=0, atol=1e-17)

def test_graph_shape_cap_apex():
    lam, A = graph_shape(np.zeros(2), -0.5 * np.eye(2))
    np.testing.assert_allclose(lam, [0.5, 0.5], atol=1e-15)
    assert A == pytest.approx(math.sqrt(0.5))


def test_graph_shape_plane():
    lam, A = graph_shape(np.array([0.7, -1.2]), np.zeros((2, 2)))
    np.testing.assert_allclose(lam, [0.0, 0.0], atol=1e-15)
    assert A == 0.0


def test_graph_shape_cap_off_center():
    Dg, D2g = CAP.derivatives(np.array(1.0), np.array(0.0))  # |x| = R/2
    lam, _ = graph_shape(Dg, D2g)
    np.testing.assert_allclose(lam, [0.5, 0.5], atol=1e-12)


def test_manufactured_cap_constant_H_at_q0():
    grid = RectGrid(*SQUARE, 17, 17)
    H = manufactured_H(CAP, 2, 0.0, grid)
    np.testing.assert_allclose(H, 0.25, atol=1e-13)


def test_manufactured_q_scaling():
    grid = RectGrid(*SQUARE, 17, 17)
    H0 = manufactured_H(CAP, 2, 0.0, grid)
    H1 = manufactured_H(CAP, 2, 1.0, grid)
    X1, X2 = grid.meshes()
    Dg, _ = CAP.derivatives(X1, X2)
    w = np.sqrt(1.0 + Dg[..., 0] ** 2 + Dg[..., 1] ** 2)
    np.testing.assert_allclose(H1, H0 * w, atol=1e-13)


def test_manufactured_rejects_inadmissible_surface():
    grid = RectGrid(*SQUARE, 17, 17)
    with pytest.raises(ConstructionError):
        manufactured_H(ParaboloidSolution(0.25), 2, 0.0, grid)  # bends the wrong way


def test_residual_on_exact_cap_refines_at_second_order():
    errs = []
    for n in (17, 33):
        prob = cap_problem(n, k=2, q=1.0)
        res = graph_residual(exact_field(CAP, prob.grid), prob)
        errs.append(np.abs(res).max())
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.35)


def test_flat_field_cone_error_for_k2():
    grid = RectGrid(*SQUARE, 17, 17)
    prob = GraphProblem(grid, 2, 0.0, GraphRHS(poly=Poly3.constant(1.0)),
                        np.zeros((17, 17)))
    with pytest.raises(ConeViolationError):
        graph_residual(GraphField(grid, np.zeros((17, 17))), prob)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_trial_heights_are_vetoed(bad):
    prob = cap_problem(9)
    x = prob.boundary[1:-1, 1:-1].ravel().copy()
    x[10] = bad
    ev = graph_solver._jet_contract(prob)(x)
    assert not ev.admissible
    assert np.all(ev.residual == 1e30)
    assert ev.cone_margin == -math.inf


def test_flat_field_mean_curvature_residual():
    grid = RectGrid(*SQUARE, 17, 17)
    prob = GraphProblem(grid, 1, 0.7, GraphRHS(poly=Poly3.constant(1.0)),
                        np.zeros((17, 17)))
    res = graph_residual(GraphField(grid, np.zeros((17, 17))), prob)
    np.testing.assert_allclose(res, -1.0, atol=1e-14)


def test_newton_recovers_manufactured_cap():
    prob = cap_problem(33, k=2, q=1.0)
    sol, rep = dirichlet_newton_solve(perturbed_cap_start(prob.grid), prob, tol=1e-10)
    assert rep.converged
    assert min(rep.cone_margin_history) > 0.0
    assert np.abs(sol.g - exact_field(CAP, prob.grid).g).max() < 2e-4
    # Dirichlet ring untouched
    np.testing.assert_array_equal(sol.g[0, :], prob.boundary[0, :])


def test_newton_zero_iterations_from_exact_solution():
    prob = cap_problem(17, k=2, q=0.0)
    start = exact_field(CAP, prob.grid)
    # the exact cap solves the discrete equation only to O(h^2); ask for that
    res0 = np.abs(graph_residual(start, prob)).max()
    sol, rep = dirichlet_newton_solve(start, prob, tol=res0 * 1.01)
    assert rep.iterations == 0
    np.testing.assert_array_equal(sol.g, start.g)


def test_converged_start_costs_one_evaluation(monkeypatch):
    prob = cap_problem(17, k=2, q=0.0)
    start = exact_field(CAP, prob.grid)
    res0 = np.abs(graph_residual(start, prob)).max()
    calls = 0
    evaluate = graph_solver._evaluate_jet

    def counted(*args):
        nonlocal calls
        calls += 1
        return evaluate(*args)

    monkeypatch.setattr(graph_solver, "_evaluate_jet", counted)
    _, rep = dirichlet_newton_solve(start, prob, tol=res0 * 1.01)
    assert (rep.iterations, rep.factorizations, calls) == (0, 0, 1)


def test_recovery_order_across_refinements():
    errs = []
    for n in (17, 33, 65):
        prob = cap_problem(n, k=2, q=0.0)
        sol, _ = dirichlet_newton_solve(perturbed_cap_start(prob.grid), prob, tol=1e-10)
        errs.append(np.abs(sol.g - exact_field(CAP, prob.grid).g).max())
    assert math.log2(errs[0] / errs[1]) >= 1.8
    assert math.log2(errs[1] / errs[2]) >= 1.8


def test_newton_iterations_bounded_under_refinement():
    # an exact Jacobian keeps the Jacobian count, and the chord corrections
    # on each factor, bounded at every resolution
    for n in (33, 65, 129):
        prob = cap_problem(n, k=2, q=0.5)
        _, rep = dirichlet_newton_solve(perturbed_cap_start(prob.grid), prob, tol=1e-10,
                                        max_iter=60)
        assert rep.factorizations <= 4
        assert rep.iterations <= 8


def test_symmetric_problem_gives_symmetric_solution():
    prob = cap_problem(25, k=2, q=0.5)
    sol, _ = dirichlet_newton_solve(perturbed_cap_start(prob.grid), prob, tol=1e-11)
    assert np.abs(sol.g - sol.g.T).max() < 1e-9


def test_probe_on_exact_cap():
    prob = cap_problem(33, k=2, q=0.0)
    probe = curvature_bound_probe(full_grid_shape(exact_field(CAP, prob.grid))[1], prob)
    expected_A = math.sqrt(2.0) / 2.0
    assert probe.sup_interior_A == pytest.approx(expected_A, rel=1e-3)
    # boundary stencils are one-sided: same order, bigger constant
    assert probe.sup_boundary_A == pytest.approx(expected_A, rel=1e-2)
    assert probe.ratio == pytest.approx(expected_A / (1 + expected_A), rel=1e-2)


def test_near_flat_mean_curvature_solution():
    grid = RectGrid(*SQUARE, 17, 17)
    prob = GraphProblem(grid, 1, 0.0, GraphRHS(poly=Poly3.constant(0.01)),
                        np.zeros((17, 17)))
    sol, rep = dirichlet_newton_solve(GraphField(grid, np.zeros((17, 17))), prob,
                                      tol=1e-11)
    probe = curvature_bound_probe(full_grid_shape(sol)[1], prob)
    assert probe.sup_interior_A < 0.05  # tiny data, nearly flat surface


def test_tilted_cap_manufactured_recovery():
    # shearing the cap with a linear term leaves it admissible but makes
    # the curvature field genuinely nonconstant
    tilted = CapSolution(2.0, tilt=(0.2, -0.1))
    errs = []
    for n in (17, 33):
        grid = RectGrid(*SQUARE, n, n)
        prob = manufactured_problem(tilted, grid, 2, 0.5)
        assert prob.H.samples.std() > 1e-3
        X1, X2 = grid.meshes()
        bump = 1e-2 * np.sin(math.pi * (X1 + 1) / 2) * np.sin(math.pi * (X2 + 1) / 2)
        start = GraphField(grid, exact_field(tilted, grid).g + bump)
        sol, _ = dirichlet_newton_solve(start, prob, tol=1e-10)
        errs.append(np.abs(sol.g - exact_field(tilted, grid).g).max())
    assert math.log2(errs[0] / errs[1]) >= 1.8


def test_campaign_ratio_stability():
    rows = bound_probe_campaign([-0.5, 0.5], [(17, 17), (33, 33)])
    assert all(r.converged for r in rows)
    for q in (-0.5, 0.5):
        ratios = [r.ratio for r in rows if r.q == q]
        assert abs(ratios[1] - ratios[0]) / ratios[0] <= 0.10


def test_bound_probe_row_records_inadmissible_start():
    prob = cap_problem(9, q=0.5)
    row = bound_probe_row(prob, manufactured_start(CAP, prob.grid, 10.0))
    assert not row.converged
    assert math.isnan(row.ratio)


def test_problem_validation():
    grid = RectGrid(*SQUARE, 17, 17)
    with pytest.raises(ConfigError):
        GraphProblem(grid, 3, 0.0, GraphRHS(poly=Poly3.constant(1.0)),
                     np.zeros((17, 17)))
    with pytest.warns(UserWarning):
        GraphProblem(grid, 2, 1.5, GraphRHS(poly=Poly3.constant(1.0)),
                     np.zeros((17, 17)))
    with pytest.raises(ConfigError):
        GraphRHS(poly=Poly3.constant(1.0), samples=np.ones((17, 17)))
    with pytest.raises(ConfigError):
        GraphRHS(samples=-np.ones((17, 17)))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_problem_rejects_non_finite_boundary_ring(bad):
    # the ring is the Dirichlet data; interior entries are never read
    grid = RectGrid(*SQUARE, 9, 9)
    rhs = GraphRHS(poly=Poly3.constant(1.0))
    inside = np.zeros((9, 9))
    inside[4, 4] = bad
    GraphProblem(grid, 2, 0.0, rhs, inside)
    for node in [(0, 4), (8, 8), (4, 0), (3, 8)]:
        ring = np.zeros((9, 9))
        ring[node] = bad
        with pytest.raises(ConfigError, match="boundary data must be finite"):
            GraphProblem(grid, 2, 0.0, rhs, ring)
