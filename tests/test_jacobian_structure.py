"""Jacobian structure: read tables, jet weights, windows and frontal plans.

The read-table oracle is the element-by-element loop that the numpy
builder replaced.  The closed-form jet weights must reproduce the array
stencils the residuals use, since the Jacobian is sum_m diag(dR/dj_m) D_m
gathered onto the window.  Every frontal plan must be a nested dissection
of its read table, and its LU must solve the real Jacobians as SuperLU
does; scipy, imported by these tests alone, is the oracle.
"""

import numpy as np
import pytest

from conftest import dense_jacobian
from prescurv import graph_solver, measure_solver, newton_core
from prescurv.graph_solver import (
    CapSolution,
    RectGrid,
    _interior_jet,
    _jet_window,
    dirichlet_newton_solve,
    manufactured_problem,
    manufactured_start,
)
from prescurv.measure_solver import MeasureProblem, newton_solve
from prescurv.newton_core import factorize, fd_jacobian
from prescurv.polynomials import Poly3
from prescurv.sphere_geometry import RadialField, SphericalGrid, build_grid, radial_jet
from prescurv.symmfunc import OperatorSpec

SPHERE_SHAPES = [(8, 16), (32, 64), (64, 128)]
GRAPH_SIZES = [9, 17]
TILT = Poly3(((1.0, (0, 0, 0)), (0.2, (0, 0, 1))))


def loop_sphere_neighbors(grid):
    nt, np_, shift = grid.n_theta, grid.n_phi, grid.pole_shift
    table = np.empty((nt * np_, 9), dtype=np.int64)
    for i in range(nt):
        for j in range(np_):
            entries = []
            for di in (-1, 0, 1):
                r = i + di
                if r < 0:
                    r, jc = 0, (j + shift) % np_
                elif r >= nt:
                    r, jc = nt - 1, (j + shift) % np_
                else:
                    jc = j
                for dj in (-1, 0, 1):
                    entries.append(r * np_ + (jc + dj) % np_)
            table[i * np_ + j] = entries
    return table


def rect_grid(nx, ny=None):
    return RectGrid(-1.0, 1.0, -1.0, 1.0, nx, ny or nx)


def jet_cases():
    """(window, x, jets(x) - jets(0)) per grid: a random field, so the
    sphere's pole rows see rho_;12 of odd parity with no symmetry to hide a
    sign, and a random Dirichlet ring, which the weights must leave out."""
    rng = np.random.default_rng(7)
    for shape in SPHERE_SHAPES:
        grid = build_grid(*shape)
        x = rng.standard_normal(grid.n_nodes)
        yield (f"sphere-{shape[0]}x{shape[1]}", grid.column_groups(), x,
               radial_jet(grid, x.reshape(shape)))
    for n in GRAPH_SIZES:
        grid = rect_grid(n)
        prob = manufactured_problem(CapSolution(2.0), grid, 2, 0.5)
        prob.boundary = rng.standard_normal((n, n))
        x = rng.standard_normal((n - 2) ** 2)
        jets = _interior_jet(x, prob)
        ring = _interior_jet(np.zeros_like(x), prob)
        yield f"graph-{n}", _jet_window(grid), x, [j - c for j, c in zip(jets, ring)]


CASES = {name: case for name, *case in jet_cases()}


def own_reads(cols):
    """Off-centre reads that repeat the row's own index: the graph's ring."""
    repeat = cols == np.arange(len(cols))[:, None]
    repeat[:, cols.shape[1] // 2] = False
    return repeat


@pytest.mark.parametrize("shape", SPHERE_SHAPES[:2], ids=str)
def test_sphere_read_table_matches_loop(shape):
    grid = build_grid(*shape)
    np.testing.assert_array_equal(grid.stencil_neighbors(), loop_sphere_neighbors(grid))


@pytest.mark.parametrize("name", list(CASES))
def test_jet_operators_match_array_stencils(name):
    window, x, jets = CASES[name]
    assert len(window.weights) == len(jets) == 6
    if name.startswith("sphere"):
        # the pole rows, rho_;12's odd-parity ghosts among them
        nphi = int(name.split("x")[1])
        edge = np.r_[:nphi, -nphi:0]
    else:
        edge = np.flatnonzero(own_reads(window.cols).any(axis=1))
    assert edge.size
    for (slots, w), jet in zip(window.weights, jets):
        jet = np.ravel(jet)
        err = (w * x[window.cols[:, slots]]).sum(axis=1) - jet
        assert np.abs(err).max() <= 1e-13 * np.abs(jet).max()
        assert np.abs(err[edge]).max() <= 1e-13 * np.abs(jet).max()


@pytest.mark.parametrize("name", list(CASES))
def test_window_carries_each_operator_on_its_slots(name):
    window, _, _ = CASES[name]
    cols = window.cols
    # value; gradient; Hessian 11, 12, 22 (the graph's g_xy is the 4-corner cross)
    assert [slots.size for slots, _ in window.weights] == [
        1, 2, 2, 3, 4, 5 if name[0] == "s" else 3]
    for slots, w in window.weights:
        assert w.shape == (len(cols), slots.size)
        if name.startswith("graph"):
            # ring reads repeat the row's own index and carry no weight
            assert not w[own_reads(cols)[:, slots]].any()
        else:
            assert np.all(w != 0)


def round_sphere_case():
    grid = build_grid(8, 16)
    prob = MeasureProblem(OperatorSpec("sigma_k", k=2), 1.0, Poly3(((1.0, (0, 0, 0)),)), grid)
    return grid.stencil_neighbors(), np.full(grid.n_nodes, 1.2), measure_solver._jet_contract(
        prob, prob.phi_vals)


def graph_case():
    grid = rect_grid(9)
    prob = manufactured_problem(CapSolution(2.0), grid, 2, 0.5)
    return (_jet_window(grid).cols, prob.boundary[1:-1, 1:-1].ravel(),
            graph_solver._jet_contract(prob))


@pytest.mark.parametrize("case", [round_sphere_case, graph_case], ids=["round-sphere", "graph"])
def test_jacobian_pattern_is_the_read_table(case):
    # the Jacobian is one value per read, zeros kept (on the round sphere
    # d/d rho_2 and d/d rho_;12 vanish at every node, and on the graph ring
    # reads weigh nothing), so its structure, and the frontal plan, depend on
    # the read table alone
    cols, x, contract = case()
    data = fd_jacobian(x, contract)
    assert data.shape == cols.shape
    assert (data == 0).any()
    reads = np.zeros((len(cols), len(cols)), dtype=bool)
    reads[np.arange(len(cols)).repeat(cols.shape[1]), cols.ravel()] = True
    assert not dense_jacobian(cols, data)[~reads].any()


def count_builds(monkeypatch, owner, name):
    monkeypatch.setattr(newton_core, "_WINDOWS", {})
    calls = []
    build = getattr(owner, name)

    def counted(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_sphere_pattern_is_built_once_per_grid(monkeypatch):
    builds = count_builds(monkeypatch, SphericalGrid, "column_groups")
    grid = build_grid(8, 16)
    prob = MeasureProblem(OperatorSpec("sigma_k", k=2), 1.0, TILT, grid)
    for _ in range(2):
        _, rep = newton_solve(RadialField.constant(grid, 1.05), prob)
        assert rep.iterations > 0
    # a fresh grid object of the same shape shares the window
    other = MeasureProblem(prob.op, prob.p, prob.phi, build_grid(8, 16))
    newton_solve(RadialField.constant(grid, 1.05), other)
    assert len(builds) == 1
    phi_vals = prob.phi_vals
    assert (measure_solver._jet_contract(prob, phi_vals).window
            is measure_solver._jet_contract(other, phi_vals).window)


def test_graph_pattern_is_built_once_per_grid(monkeypatch):
    builds = count_builds(monkeypatch, graph_solver, "_jet_window")
    cap = CapSolution(2.0)
    grid = rect_grid(9)
    prob = manufactured_problem(cap, grid, 2, 0.5)
    for _ in range(2):
        _, rep = dirichlet_newton_solve(manufactured_start(cap, grid), prob)
        assert rep.iterations > 0
    assert len(builds) == 1
    assert (graph_solver._jet_contract(prob).window
            is graph_solver._jet_contract(manufactured_problem(cap, rect_grid(9), 2, 0.5)).window)
    # the window's weights hold the spacing: another domain gets its own
    other = manufactured_problem(cap, RectGrid(-0.5, 0.5, -0.5, 0.5, 9, 9), 2, 0.5)
    dirichlet_newton_solve(manufactured_start(cap, other.grid), other)
    assert len(builds) == 2


def test_residual_only_calls_build_no_window(monkeypatch):
    # residuals, bound reports and the homotopy's constant-data check only
    # evaluate; the window is built for the first Jacobian on a grid
    sphere_builds = count_builds(monkeypatch, SphericalGrid, "column_groups")
    graph_builds = count_builds(monkeypatch, graph_solver, "_jet_window")
    grid = build_grid(8, 16)
    prob = MeasureProblem(OperatorSpec("sigma_k", k=2), 1.0, TILT, grid)
    field = RadialField.constant(grid, 1.05)
    measure_solver.residual(field, prob)
    measure_solver.verify_apriori_bounds(field, prob)
    flat = MeasureProblem(prob.op, prob.p, Poly3(((1.0, (0, 0, 0)),)), grid)
    assert measure_solver.homotopy_solve(flat)[1].success
    cap = CapSolution(2.0)
    graph = manufactured_problem(cap, rect_grid(9), 2, 0.5)
    graph_solver.graph_residual(manufactured_start(cap, graph.grid), graph)
    assert sphere_builds == graph_builds == []
    fd_jacobian(field.rho.ravel(), measure_solver._jet_contract(prob, prob.phi_vals))
    assert len(sphere_builds) == 1


# ---------------------------------------------------------------------------
# frontal plans and their LU


def sphere_jacobian(n_theta):
    """Window, Jacobian values and residual of the tilted sigma_2 problem on
    the n x 2n sphere at a smooth admissible non-round state."""
    grid = build_grid(n_theta, 2 * n_theta)
    prob = MeasureProblem(OperatorSpec("sigma_k", k=2), 1.0, TILT, grid)
    phi_vals = prob.phi_vals
    nd = grid.nodes
    x = (1.0 + 0.04 * nd[..., 0] - 0.03 * nd[..., 1] * nd[..., 2]).ravel()
    contract = measure_solver._jet_contract(prob, phi_vals)
    return contract.window, fd_jacobian(x, contract), contract(x).residual


def graph_jacobian(nx, ny):
    """The same for the cap problem at its perturbed manufactured start."""
    cap = CapSolution(2.0)
    prob = manufactured_problem(cap, rect_grid(nx, ny), 2, 0.5)
    x = manufactured_start(cap, prob.grid).g[1:-1, 1:-1].ravel()
    contract = graph_solver._jet_contract(prob)
    return contract.window, fd_jacobian(x, contract), contract(x).residual


JACOBIANS = {"sphere-8x16": lambda: sphere_jacobian(8),
             "sphere-16x32": lambda: sphere_jacobian(16),
             "sphere-64x128": lambda: sphere_jacobian(64),
             "graph-4x4": lambda: graph_jacobian(4, 4),
             "graph-9x9": lambda: graph_jacobian(9, 9),
             "graph-17x9": lambda: graph_jacobian(17, 9),
             "graph-65x65": lambda: graph_jacobian(65, 65)}


def subtree_starts(plan):
    """First front of each front's subtree (postorder keeps subtrees contiguous)."""
    first = np.arange(plan.n_fronts)
    for k in range(plan.n_fronts):
        if plan.parent[k] >= 0:
            first[plan.parent[k]] = min(first[plan.parent[k]], first[k])
    return first


@pytest.mark.parametrize("name", list(JACOBIANS))
def test_plan_is_a_nested_dissection_of_its_reads(name):
    window = JACOBIANS[name]()[0]
    plan, cols = window.plan, window.cols
    n = len(cols)
    np.testing.assert_array_equal(np.sort(plan.perm), np.arange(n))
    assert plan.start[0] == 0 and plan.start[-1] == n and np.all(np.diff(plan.start) > 0)
    children_first = (plan.parent > np.arange(plan.n_fronts)) | (plan.parent == -1)
    assert children_first.all()
    if n > newton_core.LEAF_SIZE:
        assert plan.n_fronts > 1
    assert np.diff(plan.start).max() <= max(newton_core.LEAF_SIZE, n // 2)
    # every read, the phi wrap and the cross-pole pairs among them, stays
    # within one root-to-leaf path: no read links two sibling subtrees
    pos = np.empty(n, dtype=np.int64)
    pos[plan.perm] = np.arange(n)
    front = np.searchsorted(plan.start, pos, side="right") - 1
    fr, fc = front.repeat(cols.shape[1]), front[cols.ravel()]
    lo, hi = np.minimum(fr, fc), np.maximum(fr, fc)
    assert np.all(subtree_starts(plan)[hi] <= lo)
    # and each front's boundary is exactly what its subtree reads above it
    first = subtree_starts(plan)
    pr, pc = pos.repeat(cols.shape[1]), pos[cols.ravel()]
    for k in range(plan.n_fronts):
        inside = (pr >= plan.start[first[k]]) & (pr < plan.start[k + 1])
        above = np.union1d(pc[inside & (pc >= plan.start[k + 1])],
                           pr[(pc >= plan.start[first[k]]) & (pc < plan.start[k + 1])
                              & (pr >= plan.start[k + 1])])
        np.testing.assert_array_equal(plan.bnd[k], above)


def test_sphere_root_separator_holds_the_wrap_and_the_poles():
    # the first cut splits the sphere along a meridian: it must take in
    # the columns next to phi = 0 (wrap reads) and the pole rows of one side
    # (cross-pole reads), or the two halves would still be linked
    grid = build_grid(16, 32)
    plan = grid.column_groups().plan
    root = plan.perm[plan.start[-2]:]
    i, j = np.divmod(root, grid.n_phi)
    assert {0, grid.n_theta - 1} <= set(i.tolist())
    assert 0 in set(j.tolist())


def superlu_solve(window, data, b):
    from scipy.sparse import csc_array
    from scipy.sparse.linalg import splu

    cols = window.cols
    J = csc_array((data.ravel(), (np.arange(len(cols)).repeat(cols.shape[1]), cols.ravel())),
                  shape=(len(cols),) * 2)
    return J, splu(J).solve(b)


def backward_error(J, x, b):
    return np.abs(J @ x - b).max() / (abs(J).sum(axis=1).max() * np.abs(x).max()
                                      + np.abs(b).max())


@pytest.mark.parametrize("name", list(JACOBIANS))
def test_frontal_solve_matches_superlu(name):
    window, data, residual = JACOBIANS[name]()
    x = factorize(window.plan, data).solve(-residual)
    J, ref = superlu_solve(window, data, -residual)
    assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()
    assert backward_error(J, x, -residual) <= 10 * backward_error(J, ref, -residual)
