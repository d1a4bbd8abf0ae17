import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse

import prescurv
from prescurv import newton_core
from prescurv.errors import NonconvergenceError
from prescurv.graph_solver import (
    CapSolution,
    GraphProblem,
    GraphRHS,
    RectGrid,
    exact_field,
    manufactured_H,
)
from prescurv.graph_solver import _jacobian_pattern as graph_pattern
from prescurv.graph_solver import _soft_evaluate as graph_evaluate
from prescurv.measure_solver import MeasureProblem
from prescurv.measure_solver import _jacobian_pattern as sphere_pattern
from prescurv.measure_solver import _soft_evaluate as sphere_evaluate
from prescurv.newton_core import (
    COMPLEX_STEP,
    Evaluation,
    SolveReport,
    damped_newton,
    factorize,
    fd_jacobian,
    jacobian_pattern,
)
from prescurv.polynomials import Poly3
from prescurv.sphere_geometry import build_grid
from prescurv.symmfunc import OperatorSpec

_CBRT_EPS = np.finfo(float).eps ** (1.0 / 3.0)


def sphere_case():
    """8x16 sphere, tilted data, smooth admissible non-round state."""
    g = build_grid(8, 16)
    prob = MeasureProblem(OperatorSpec("sigma_k", k=2), 1.0,
                          Poly3(((1.0, (0, 0, 0)), (0.2, (0, 0, 1)))), g)
    phi_vals = prob.phi_values()
    nd = g.nodes
    x = (1.0 + 0.04 * nd[..., 0] - 0.03 * nd[..., 1] * nd[..., 2]).ravel()
    return x, (lambda v: sphere_evaluate(v, prob, phi_vals)), sphere_pattern(g)


def graph_case(H=None):
    """9x9 cap problem at a perturbed interior state."""
    cap = CapSolution(2.0)
    grid = RectGrid(-1.0, 1.0, -1.0, 1.0, 9, 9)
    H = H or GraphRHS(samples=manufactured_H(cap, 2, 0.5, grid))
    prob = GraphProblem(grid, 2, 0.5, H, exact_field(cap, grid).g)
    X1, X2 = grid.meshes()
    g = exact_field(cap, grid).g + 0.01 * np.cos(math.pi * X1 / 2) * np.cos(math.pi * X2 / 2)
    x = g[1:-1, 1:-1].ravel()
    return x, (lambda v: graph_evaluate(v, prob)), graph_pattern(grid)


def poly_graph_case():
    """The 9x9 cap state under a polynomial H(x1, x2, g) that depends on g."""
    return graph_case(GraphRHS(poly=Poly3(((0.05, (0, 0, 0)), (0.1, (0, 0, 1)),
                                           (0.02, (2, 0, 1)), (-0.01, (0, 1, 0))))))


def column_jacobian(x, eval_fn, derivative):
    """Dense Jacobian, one column at a time: derivative(eval_fn, x, j)."""
    return np.column_stack([derivative(eval_fn, x, j) for j in range(x.size)])


def complex_step_column(eval_fn, x, j):
    xp = x.astype(complex)
    xp[j] += 1j * COMPLEX_STEP
    return eval_fn(xp).residual.imag / COMPLEX_STEP


def central_difference_column(eval_fn, x, j):
    e = _CBRT_EPS * (1.0 + abs(x[j]))
    xp, xm = x.copy(), x.copy()
    xp[j] += e
    xm[j] -= e
    return (eval_fn(xp).residual - eval_fn(xm).residual) / (2 * e)


@pytest.mark.parametrize("case", [sphere_case, graph_case], ids=["sphere", "graph"])
def test_sparse_jacobian_matches_column_by_column_differences(case):
    x, eval_fn, pattern = case()
    ev = eval_fn(x)
    assert ev.admissible
    J = fd_jacobian(x, eval_fn, pattern)
    assert scipy.sparse.issparse(J)
    assert J.format == "csc"
    assert J.nnz <= 9 * x.size
    ref = column_jacobian(x, eval_fn, complex_step_column)
    assert np.abs(J.toarray() - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("case", [sphere_case, graph_case, poly_graph_case],
                         ids=["sphere", "graph", "graph-poly-H"])
def test_jacobian_matches_central_differences(case):
    # central differences carry an O(h^2) truncation error well below the
    # bound; forward differences are about 3e-7 off and do not pass
    x, eval_fn, pattern = case()
    assert eval_fn(x).admissible
    J = fd_jacobian(x, eval_fn, pattern).toarray()
    ref = column_jacobian(x, eval_fn, central_difference_column)
    assert np.abs(J - ref).max() <= 1e-7 * np.abs(ref).max()


def test_sparse_newton_step_matches_dense_solve():
    x, eval_fn, pattern = sphere_case()
    r = eval_fn(x).residual
    J = fd_jacobian(x, eval_fn, pattern)
    step = factorize(J).solve(-r)
    dense = np.linalg.solve(J.toarray(), -r)
    assert np.linalg.norm(step - dense) <= 1e-10 * np.linalg.norm(dense)


def test_report_records_step_norms_and_backtracks():
    x, eval_fn, pattern = sphere_case()
    x_exact, _ = damped_newton(x, eval_fn, pattern, tol=1e-12, max_iter=20)
    # three times as far from the solution, the first full step overshoots
    _, rep = damped_newton(x_exact + 3.0 * (x - x_exact), eval_fn, pattern,
                           tol=1e-12, max_iter=20)
    assert rep.iterations == len(rep.step_norm_history) == len(rep.backtrack_history)
    assert rep.backtrack_history[0] >= 1
    assert rep.step_history == [0.5 ** b for b in rep.backtrack_history]
    norms = rep.step_norm_history
    assert all(b < a for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 1e-6


def overshoot_case():
    """The 8x16 sphere state moved three times as far from its solution:
    the first full Newton step overshoots and is damped."""
    x, eval_fn, pattern = sphere_case()
    x_exact, _ = damped_newton(x, eval_fn, pattern, tol=1e-12, max_iter=20)
    return x_exact + 3.0 * (x - x_exact), eval_fn, pattern


def test_damped_step_drops_the_factor():
    x, eval_fn, pattern = overshoot_case()
    _, rep = damped_newton(x, eval_fn, pattern, tol=1e-12, max_iter=20)
    # every damped step but a last one is followed by a fresh factor
    damped = sum(s < 1.0 for s in rep.step_history[:-1])
    assert damped >= 1
    assert rep.refactor_reasons.count("damped") == damped


def test_every_factorization_records_its_reason(monkeypatch):
    jacobians = 0
    jacobian = newton_core.fd_jacobian

    def counted(*args):
        nonlocal jacobians
        jacobians += 1
        return jacobian(*args)

    monkeypatch.setattr(newton_core, "fd_jacobian", counted)
    x, eval_fn, pattern = overshoot_case()
    jacobians = 0
    _, rep = damped_newton(x, eval_fn, pattern, tol=1e-12, max_iter=20)
    assert rep.converged
    assert jacobians == rep.factorizations == len(rep.refactor_reasons)
    assert rep.refactor_reasons[0] == "start"
    assert set(rep.refactor_reasons) == {"start", "damped", "contraction"}
    # chord steps: more corrections than factors, each accepted undamped
    # chord step at most CHORD_THETA times the step before it
    assert rep.iterations > rep.factorizations
    norms = rep.step_norm_history
    chord = [b <= newton_core.CHORD_THETA * a for a, b in zip(norms, norms[1:])]
    assert sum(chord) >= rep.iterations - rep.factorizations


def test_vetoed_chord_trial_refactors_instead_of_failing():
    x, eval_fn, pattern = sphere_case()
    x_ref, ref = damped_newton(x, eval_fn, pattern, tol=1e-12, max_iter=20)
    assert all(s == 1.0 for s in ref.step_history)     # no backtracking trials
    # so the first real evaluation straight after another real one (and
    # not after a complex-step Jacobian) is the first chord trial
    last_real = False
    vetoed = 0

    def vetoing(v):
        nonlocal last_real, vetoed
        ev = eval_fn(v)
        real = not np.iscomplexobj(v)
        if real and last_real and not vetoed:
            vetoed += 1
            ev = Evaluation(ev.residual, False, ev.margin, ev.aux)
        last_real = real
        return ev

    x_out, rep = damped_newton(x, vetoing, pattern, tol=1e-12, max_iter=20)
    assert vetoed == 1
    assert rep.converged
    assert "chord_rejected" not in ref.refactor_reasons
    assert rep.refactor_reasons.count("chord_rejected") == 1
    assert rep.factorizations == len(rep.refactor_reasons)
    assert all(s == 1.0 for s in rep.step_history)
    assert np.abs(x_out - x_ref).max() <= 1e-10


def test_inadmissible_start_raises_cone_violation():
    x, eval_fn, pattern = sphere_case()
    calls = 0

    def vetoed(v):
        nonlocal calls
        calls += 1
        ev = eval_fn(v)
        return Evaluation(ev.residual, False, ev.margin, ev.aux)

    with pytest.raises(NonconvergenceError) as info:
        damped_newton(x, vetoed, pattern, tol=1e-12, max_iter=20)
    assert info.value.diagnostics.cause == "inadmissible_start"
    assert calls == 1


def test_singular_jacobian_raises_with_report_and_state():
    # the residual ignores x[2], so the Jacobian has an empty column
    def eval_fn(v):
        return Evaluation(np.array([v[0] ** 2 - 1.0, v[1] - 2.0, v[0] - v[1]]),
                          True, 1.0, {})

    x0 = np.array([2.0, 1.0, 5.0])
    pattern = jacobian_pattern(np.tile(np.arange(3), (3, 1)),
                               [np.array([c]) for c in range(3)])
    with pytest.raises(NonconvergenceError, match="singular Jacobian") as info:
        damped_newton(x0, eval_fn, pattern, tol=1e-12, max_iter=5)
    failure = info.value.diagnostics
    assert isinstance(failure.report, SolveReport)
    assert failure.report.iterations == 0
    np.testing.assert_array_equal(failure.x, x0)


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
