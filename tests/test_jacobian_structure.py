"""Jacobian structure: read tables, column groups and the per-shape pattern.

The oracles are the element-by-element loops that the numpy builders
replaced; the groups must come out identical, since the payloads are
pinned to them.
"""

import numpy as np
import pytest

from prescurv import graph_solver, measure_solver, newton_core
from prescurv.graph_solver import (
    CapSolution,
    RectGrid,
    _interior_neighbors,
    dirichlet_newton_solve,
    manufactured_problem,
    manufactured_start,
)
from prescurv.measure_solver import MeasureProblem, newton_solve
from prescurv.newton_core import greedy_groups, jacobian_pattern
from prescurv.polynomials import Poly3
from prescurv.sphere_geometry import RadialField, build_grid
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


def loop_greedy_groups(neigh):
    """Greedy colouring over sets of reads, one column at a time."""
    n = len(neigh)
    reads = [set() for _ in range(n)]     # reads[c] = rows that read column c
    for row in range(n):
        for c in set(neigh[row]):
            reads[c].add(row)
    color = np.full(n, -1, dtype=int)
    ncolors = 0
    for c in range(n):
        used = set()
        for row in reads[c]:
            for other in set(neigh[row]):
                if color[other] >= 0:
                    used.add(color[other])
        k = 0
        while k in used:
            k += 1
        color[c] = k
        ncolors = max(ncolors, k + 1)
    return [np.nonzero(color == k)[0] for k in range(ncolors)]


def rect_grid(n):
    return RectGrid(-1.0, 1.0, -1.0, 1.0, n, n)


def read_tables():
    for shape in SPHERE_SHAPES:
        yield f"sphere-{shape[0]}x{shape[1]}", build_grid(*shape).stencil_neighbors()
    for n in GRAPH_SIZES:
        yield f"graph-{n}", _interior_neighbors(rect_grid(n))


TABLES = dict(read_tables())


def assert_same_groups(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("shape", SPHERE_SHAPES[:2], ids=str)
def test_sphere_read_table_matches_loop(shape):
    grid = build_grid(*shape)
    np.testing.assert_array_equal(grid.stencil_neighbors(), loop_sphere_neighbors(grid))


@pytest.mark.parametrize("name", list(TABLES))
def test_greedy_groups_match_loop_oracle(name):
    neigh = TABLES[name]
    assert_same_groups(greedy_groups(neigh), loop_greedy_groups(neigh))


@pytest.mark.parametrize("n", GRAPH_SIZES)
def test_graph_groups_are_residue_classes_mod_three(n):
    # the 3x3 tiling the graph solver used before it shared the colouring
    m = n - 2
    want = [np.array([i * m + j for i in range(ri, m, 3) for j in range(rj, m, 3)])
            for ri in range(3) for rj in range(3)]
    assert_same_groups(greedy_groups(_interior_neighbors(rect_grid(n))), want)


@pytest.mark.parametrize("name", list(TABLES))
def test_groups_are_structurally_orthogonal(name):
    neigh = TABLES[name]
    n = len(neigh)
    groups = greedy_groups(neigh)
    seen = np.zeros(n, dtype=int)
    for grp in groups:
        seen[grp] += 1
    assert np.all(seen == 1)
    pattern = jacobian_pattern(neigh, groups)
    dense = np.zeros((n, n), dtype=bool)
    dense[np.repeat(np.arange(n), neigh.shape[1]), neigh.ravel()] = True
    assert pattern.indices.size == dense.sum()
    for grp, rows, slots in pattern.fills:
        # every residual row meets at most one column of the group
        assert np.unique(rows).size == rows.size
        np.testing.assert_array_equal(np.sort(rows), np.flatnonzero(dense[:, grp].any(axis=1)))
    covered = np.sort(np.concatenate([slots for _, _, slots in pattern.fills]))
    np.testing.assert_array_equal(covered, np.arange(pattern.indices.size))


def count_builds(monkeypatch):
    monkeypatch.setattr(newton_core, "_PATTERNS", {})
    calls = []
    build = newton_core.jacobian_pattern

    def counted(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(newton_core, "jacobian_pattern", counted)
    return calls


def test_sphere_pattern_is_built_once_per_grid(monkeypatch):
    builds = count_builds(monkeypatch)
    grid = build_grid(8, 16)
    prob = MeasureProblem(OperatorSpec("sigma_k", k=2), 1.0,
                          Poly3(((1.0, (0, 0, 0)), (0.2, (0, 0, 1)))), grid)
    for _ in range(2):
        _, rep = newton_solve(RadialField.constant(grid, 1.05), prob)
        assert rep.iterations > 0
    # a fresh grid object of the same shape shares the pattern
    newton_solve(RadialField.constant(grid, 1.05),
                 MeasureProblem(prob.op, prob.p, prob.phi, build_grid(8, 16)))
    assert len(builds) == 1
    assert measure_solver._jacobian_pattern(grid) is measure_solver._jacobian_pattern(
        build_grid(8, 16))


def test_graph_pattern_is_built_once_per_grid(monkeypatch):
    builds = count_builds(monkeypatch)
    cap = CapSolution(2.0)
    grid = rect_grid(9)
    prob = manufactured_problem(cap, grid, 2, 0.5)
    for _ in range(2):
        _, rep = dirichlet_newton_solve(manufactured_start(cap, grid), prob)
        assert rep.iterations > 0
    assert len(builds) == 1
    assert graph_solver._jacobian_pattern(grid) is graph_solver._jacobian_pattern(rect_grid(9))
