"""Jacobian structure: read tables, jet operators, windows and the pattern.

The read-table oracle is the element-by-element loop that the numpy
builder replaced.  The jet operators D_m must reproduce the array stencils
the residuals use, and the window must carry each D_m exactly, since the
Jacobian is sum_m diag(dR/dj_m) D_m gathered onto it.
"""

import numpy as np
import pytest

from prescurv import graph_solver, measure_solver, newton_core
from prescurv.graph_solver import (
    CapSolution,
    RectGrid,
    _interior_jet,
    _interior_neighbors,
    _jet_operators,
    dirichlet_newton_solve,
    manufactured_problem,
    manufactured_start,
)
from prescurv.measure_solver import MeasureProblem, newton_solve
from prescurv.newton_core import fd_jacobian, window_weights
from prescurv.polynomials import Poly3
from prescurv.sphere_geometry import RadialField, SphericalGrid, build_grid, radial_jet
from prescurv.symmfunc import OperatorSpec

SPHERE_SHAPES = [(8, 16), (32, 64), (64, 128)]
GRAPH_SIZES = [9, 17]


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


def rect_grid(n):
    return RectGrid(-1.0, 1.0, -1.0, 1.0, n, n)


def jet_cases():
    """(read table, D_m, x, jets(x) - jets(0)) per grid: a random field, so
    the sphere's pole rows see rho_;12 of odd parity with no symmetry to hide
    a sign, and a random Dirichlet ring, which D_m must leave out."""
    rng = np.random.default_rng(7)
    for shape in SPHERE_SHAPES:
        grid = build_grid(*shape)
        x = rng.standard_normal(grid.n_nodes)
        yield (f"sphere-{shape[0]}x{shape[1]}", grid.stencil_neighbors(), grid.jet_operators(),
               x, radial_jet(grid, x.reshape(shape)))
    for n in GRAPH_SIZES:
        grid = rect_grid(n)
        prob = manufactured_problem(CapSolution(2.0), grid, 2, 0.5)
        prob.boundary = rng.standard_normal((n, n))
        x = rng.standard_normal((n - 2) ** 2)
        jets = _interior_jet(x, prob)
        ring = _interior_jet(np.zeros_like(x), prob)
        yield (f"graph-{n}", _interior_neighbors(grid), _jet_operators(grid), x,
               [j - c for j, c in zip(jets, ring)])


CASES = {name: case for name, *case in jet_cases()}


@pytest.mark.parametrize("shape", SPHERE_SHAPES[:2], ids=str)
def test_sphere_read_table_matches_loop(shape):
    grid = build_grid(*shape)
    np.testing.assert_array_equal(grid.stencil_neighbors(), loop_sphere_neighbors(grid))


@pytest.mark.parametrize("name", list(CASES))
def test_jet_operators_match_array_stencils(name):
    _, operators, x, jets = CASES[name]
    assert len(operators) == len(jets) == 6
    for D, jet in zip(operators, jets):
        jet = np.ravel(jet)
        assert np.abs(D @ x - jet).max() <= 1e-13 * np.abs(jet).max()
        if name.startswith("sphere"):
            # the pole rows, rho_;12's odd-parity ghosts among them
            nphi = int(name.split("x")[1])
            pole = np.r_[:nphi, -nphi:0]
            assert np.abs((D @ x - jet)[pole]).max() <= 1e-13 * np.abs(jet).max()


@pytest.mark.parametrize("name", list(CASES))
def test_window_carries_each_operator_on_its_slots(name):
    cols, operators, x, _ = CASES[name]
    got_cols, weights = window_weights(cols, operators)
    assert got_cols is cols
    # value; gradient; Hessian 11, 12, 22 (the graph's g_xy is the 4-corner cross)
    assert [slots.size for slots, _ in weights] == [1, 2, 2, 3, 4, 5 if name[0] == "s" else 3]
    for D, (slots, w) in zip(operators, weights):
        assert w.shape == (len(cols), slots.size)
        np.testing.assert_allclose((w * x[cols[:, slots]]).sum(axis=1), D @ x,
                                   rtol=0, atol=1e-12 * np.abs(D @ x).max())
    if name.startswith("graph"):
        # ring reads repeat the row's own index and carry no weight: the
        # diagonal sits in the centre slot alone
        rows = np.arange(len(cols))[:, None]
        for slots, w in weights:
            repeat = (cols[:, slots] == rows) & (slots != 4)
            assert not w[repeat].any()


def read_table_pattern(cols):
    """CSC indices and indptr of one entry per distinct read."""
    n = len(cols)
    rows = np.repeat(np.arange(n), cols.shape[1])
    c, indices = np.divmod(np.unique(cols.ravel() * n + rows), n)
    return indices, np.r_[0, np.cumsum(np.bincount(c, minlength=n))]


def round_sphere_case():
    grid = build_grid(8, 16)
    prob = MeasureProblem(OperatorSpec("sigma_k", k=2), 1.0, Poly3(((1.0, (0, 0, 0)),)), grid)
    return grid.stencil_neighbors(), np.full(grid.n_nodes, 1.2), measure_solver._jet_contract(
        prob, prob.phi_values())


def graph_case():
    grid = rect_grid(9)
    prob = manufactured_problem(CapSolution(2.0), grid, 2, 0.5)
    return (_interior_neighbors(grid), prob.boundary[1:-1, 1:-1].ravel(),
            graph_solver._jet_contract(prob))


@pytest.mark.parametrize("case", [round_sphere_case, graph_case], ids=["round-sphere", "graph"])
def test_jacobian_pattern_is_the_read_table(case):
    # on the round sphere d/d rho_2 and d/d rho_;12 vanish at every node, and
    # on the graph ring reads add zeros; the pattern keeps every read anyway,
    # so SuperLU always orders the same matrix structure
    cols, x, contract = case()
    J = fd_jacobian(x, contract)
    assert (J.data == 0).any()
    indices, indptr = read_table_pattern(cols)
    np.testing.assert_array_equal(J.indices, indices)
    np.testing.assert_array_equal(J.indptr, indptr)


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
    prob = MeasureProblem(OperatorSpec("sigma_k", k=2), 1.0,
                          Poly3(((1.0, (0, 0, 0)), (0.2, (0, 0, 1)))), grid)
    for _ in range(2):
        _, rep = newton_solve(RadialField.constant(grid, 1.05), prob)
        assert rep.iterations > 0
    # a fresh grid object of the same shape shares the window
    other = MeasureProblem(prob.op, prob.p, prob.phi, build_grid(8, 16))
    newton_solve(RadialField.constant(grid, 1.05), other)
    assert len(builds) == 1
    phi_vals = prob.phi_values()
    assert (measure_solver._jet_contract(prob, phi_vals).window
            is measure_solver._jet_contract(other, phi_vals).window)


def test_graph_pattern_is_built_once_per_grid(monkeypatch):
    builds = count_builds(monkeypatch, graph_solver, "_jet_operators")
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
