import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse

import prescurv
from prescurv.errors import NonconvergenceError
from prescurv.graph_solver import (
    CapSolution,
    GraphProblem,
    GraphRHS,
    RectGrid,
    _rect_groups,
    dirichlet_boundary_from,
    exact_field,
    manufactured_H,
)
from prescurv.graph_solver import _soft_evaluate as graph_evaluate
from prescurv.measure_solver import MeasureProblem, _grid_groups
from prescurv.measure_solver import _soft_evaluate as sphere_evaluate
from prescurv.newton_core import (
    Evaluation,
    SolveReport,
    damped_newton,
    fd_jacobian,
    jacobian_pattern,
    newton_step,
)
from prescurv.polynomials import Poly3
from prescurv.sphere_geometry import build_grid
from prescurv.symmfunc import OperatorSpec

_SQRT_EPS = math.sqrt(np.finfo(float).eps)


def sphere_case():
    """8x16 sphere, tilted data, smooth admissible non-round state."""
    g = build_grid(8, 16)
    prob = MeasureProblem(OperatorSpec("sigma_k", k=2), 1.0,
                          Poly3(((1.0, (0, 0, 0)), (0.2, (0, 0, 1)))), g)
    phi_vals = prob.phi_values()
    nd = g.nodes
    x = (1.0 + 0.04 * nd[..., 0] - 0.03 * nd[..., 1] * nd[..., 2]).ravel()
    groups, reads = _grid_groups(g)
    return x, (lambda v: sphere_evaluate(v, prob, phi_vals)), groups, reads


def graph_case():
    """9x9 cap problem at a perturbed interior state."""
    cap = CapSolution(2.0)
    grid = RectGrid(-1.0, 1.0, -1.0, 1.0, 9, 9)
    prob = GraphProblem(grid, 2, 0.5, GraphRHS(samples=manufactured_H(cap, 2, 0.5, grid)),
                        dirichlet_boundary_from(cap, grid))
    X1, X2 = grid.meshes()
    g = exact_field(cap, grid).g + 0.01 * np.cos(math.pi * X1 / 2) * np.cos(math.pi * X2 / 2)
    x = g[1:-1, 1:-1].ravel()
    groups, reads = _rect_groups(prob.grid)
    return x, (lambda v: graph_evaluate(v, prob)), groups, reads


def brute_force_jacobian(x, eval_fn):
    res0 = eval_fn(x).residual
    J = np.empty((res0.size, x.size))
    for j in range(x.size):
        e = _SQRT_EPS * (1.0 + abs(x[j]))
        xp = x.copy()
        xp[j] += e
        J[:, j] = (eval_fn(xp).residual - res0) / e
    return J


@pytest.mark.parametrize("case", [sphere_case, graph_case], ids=["sphere", "graph"])
def test_sparse_jacobian_matches_column_by_column_differences(case):
    x, eval_fn, groups, reads = case()
    ev = eval_fn(x)
    assert ev.admissible
    J = fd_jacobian(x, ev.residual, eval_fn, jacobian_pattern(groups, reads))
    assert scipy.sparse.issparse(J)
    assert J.format == "csc"
    assert J.nnz <= 9 * x.size
    ref = brute_force_jacobian(x, eval_fn)
    assert np.abs(J.toarray() - ref).max() <= 1e-12 * np.abs(ref).max()


def test_sparse_newton_step_matches_dense_solve():
    x, eval_fn, groups, reads = sphere_case()
    r = eval_fn(x).residual
    J = fd_jacobian(x, r, eval_fn, jacobian_pattern(groups, reads))
    step = newton_step(J, r)
    dense = np.linalg.solve(J.toarray(), -r)
    assert np.linalg.norm(step - dense) <= 1e-10 * np.linalg.norm(dense)


def test_singular_jacobian_raises_with_report_and_state():
    # the residual ignores x[2], so the Jacobian has an empty column
    def eval_fn(v):
        return Evaluation(np.array([v[0] ** 2 - 1.0, v[1] - 2.0, v[0] - v[1]]),
                          True, 1.0, {})

    x0 = np.array([2.0, 1.0, 5.0])
    groups = [np.array([c]) for c in range(3)]
    reads = [{0, 1, 2}] * 3
    with pytest.raises(NonconvergenceError, match="singular Jacobian") as info:
        damped_newton(x0, eval_fn, groups, reads, tol=1e-12, max_iter=5)
    report, x = info.value.diagnostics
    assert isinstance(report, SolveReport)
    assert report.iterations == 0
    np.testing.assert_array_equal(x, x0)


def test_package_import_loads_no_scipy():
    # scipy.sparse.linalg alone takes about 0.3 s to import; the solvers
    # defer it to the first Newton step
    src = os.path.dirname(os.path.dirname(prescurv.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, prescurv.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
