import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import prescurv
from conftest import dense_jacobian
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
from prescurv.graph_solver import _jet_contract as graph_contract
from prescurv.measure_solver import MeasureProblem
from prescurv.measure_solver import _jet_contract as sphere_contract
from prescurv.newton_core import (
    COMPLEX_STEP,
    Evaluation,
    JetContract,
    SolveReport,
    damped_newton,
    factorize,
    fd_jacobian,
    window_weights,
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
    phi_vals = prob.phi_vals
    nd = g.nodes
    x = (1.0 + 0.04 * nd[..., 0] - 0.03 * nd[..., 1] * nd[..., 2]).ravel()
    contract = sphere_contract(prob, phi_vals)
    return x, contract, contract


def graph_case(H=None):
    """9x9 cap problem at a perturbed interior state."""
    cap = CapSolution(2.0)
    grid = RectGrid(-1.0, 1.0, -1.0, 1.0, 9, 9)
    H = H or GraphRHS(samples=manufactured_H(cap, 2, 0.5, grid))
    prob = GraphProblem(grid, 2, 0.5, H, exact_field(cap, grid).g)
    X1, X2 = grid.meshes()
    g = exact_field(cap, grid).g + 0.01 * np.cos(math.pi * X1 / 2) * np.cos(math.pi * X2 / 2)
    x = g[1:-1, 1:-1].ravel()
    contract = graph_contract(prob)
    return x, contract, contract


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
    x, eval_fn, contract = case()
    ev = eval_fn(x)
    assert ev.admissible
    data = fd_jacobian(x, contract)
    assert data.shape == (x.size, 9)
    ref = column_jacobian(x, eval_fn, complex_step_column)
    J = dense_jacobian(contract.window.cols, data)
    assert np.abs(J - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("case", [sphere_case, graph_case, poly_graph_case],
                         ids=["sphere", "graph", "graph-poly-H"])
def test_jacobian_matches_central_differences(case):
    # central differences carry an O(h^2) truncation error well below the
    # bound; forward differences are about 3e-7 off and do not pass
    x, eval_fn, contract = case()
    assert eval_fn(x).admissible
    J = dense_jacobian(contract.window.cols, fd_jacobian(x, contract))
    ref = column_jacobian(x, eval_fn, central_difference_column)
    assert np.abs(J - ref).max() <= 1e-7 * np.abs(ref).max()


def test_sparse_newton_step_matches_dense_solve():
    x, eval_fn, contract = sphere_case()
    r = eval_fn(x).residual
    data = fd_jacobian(x, contract)
    step = factorize(contract.window.plan, data).solve(-r)
    dense = np.linalg.solve(dense_jacobian(contract.window.cols, data), -r)
    assert np.linalg.norm(step - dense) <= 1e-10 * np.linalg.norm(dense)


def test_report_records_step_norms_and_backtracks():
    x, eval_fn, contract = sphere_case()
    x_exact, _ = damped_newton(x, eval_fn, contract, tol=1e-12, max_iter=20)
    # three times as far from the solution, the first full step overshoots
    _, rep = damped_newton(x_exact + 3.0 * (x - x_exact), eval_fn, contract,
                           tol=1e-12, max_iter=20)
    assert rep.iterations == len(rep.step_norm_history) == len(rep.backtrack_history)
    assert rep.backtrack_history[0] >= 1
    norms = rep.step_norm_history
    assert all(b < a for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 1e-6


def overshoot_case():
    """The 8x16 sphere state moved three times as far from its solution:
    the first full Newton step overshoots and is damped."""
    x, eval_fn, contract = sphere_case()
    x_exact, _ = damped_newton(x, eval_fn, contract, tol=1e-12, max_iter=20)
    return x_exact + 3.0 * (x - x_exact), eval_fn, contract


def test_damped_step_drops_the_factor():
    x, eval_fn, contract = overshoot_case()
    _, rep = damped_newton(x, eval_fn, contract, tol=1e-12, max_iter=20)
    # every damped step but a last one is followed by a fresh factor
    damped = sum(b > 0 for b in rep.backtrack_history[:-1])
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
    x, eval_fn, contract = overshoot_case()
    jacobians = 0
    _, rep = damped_newton(x, eval_fn, contract, tol=1e-12, max_iter=20)
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


def test_vetoed_chord_trial_refactors_instead_of_failing(monkeypatch):
    x, eval_fn, contract = sphere_case()
    x_ref, ref = damped_newton(x, eval_fn, contract, tol=1e-12, max_iter=20)
    assert not any(ref.backtrack_history)     # no backtracking trials
    # so the first evaluation straight after another evaluation (and not
    # after a Jacobian, which evaluates the contract, not eval_fn) is the
    # first chord trial
    after_jacobian = True       # the start evaluation is no chord trial
    vetoed = 0
    jacobian = newton_core.fd_jacobian

    def marked(*args):
        nonlocal after_jacobian
        after_jacobian = True
        return jacobian(*args)

    def vetoing(v):
        nonlocal after_jacobian, vetoed
        ev = eval_fn(v)
        if not after_jacobian and not vetoed:
            vetoed += 1
            ev = Evaluation(ev.residual, False, ev.margin, ev.aux)
        after_jacobian = False
        return ev

    monkeypatch.setattr(newton_core, "fd_jacobian", marked)
    x_out, rep = damped_newton(x, vetoing, contract, tol=1e-12, max_iter=20)
    assert vetoed == 1
    assert rep.converged
    assert "chord_rejected" not in ref.refactor_reasons
    assert rep.refactor_reasons.count("chord_rejected") == 1
    assert rep.factorizations == len(rep.refactor_reasons)
    assert not any(rep.backtrack_history)
    assert np.abs(x_out - x_ref).max() <= 1e-10


def test_inadmissible_start_raises_cone_violation():
    x, eval_fn, contract = sphere_case()
    calls = 0

    def vetoed(v):
        nonlocal calls
        calls += 1
        ev = eval_fn(v)
        return Evaluation(ev.residual, False, ev.margin, ev.aux)

    with pytest.raises(NonconvergenceError) as info:
        damped_newton(x, vetoed, contract, tol=1e-12, max_iter=20)
    assert info.value.diagnostics.cause == "inadmissible_start"
    assert calls == 1


def test_nonfinite_start_residual_is_refused_unrecorded():
    # NaN > tol is false, so a NaN start norm used to end the solve as converged
    x, eval_fn, contract = graph_case()

    def nan_start(v):
        ev = eval_fn(v)
        return Evaluation(np.full_like(ev.residual, math.nan), True, ev.margin, ev.aux)

    with pytest.raises(NonconvergenceError) as info:
        damped_newton(x, nan_start, contract, tol=1e-12, max_iter=20)
    failure = info.value.diagnostics
    assert failure.cause == "inadmissible_start"
    assert failure.report.residual_history == []
    assert not failure.report.converged


def test_outside_cone_names_nan_margin_nodes():
    # a NaN margin is not > 0, so its node is outside the cone too
    ev = Evaluation(np.zeros(3), False, np.array([1.0, np.nan, -1.0]), {})
    err = ev.outside_cone(2, offset=10)
    assert err.nodes == [[11], [12]]
    assert "at 2 node(s), first [[11], [12]]" in str(err)


def test_vetoed_trials_fail_the_line_search():
    # the start is admissible and every trial is vetoed: the fresh Newton
    # step is halved MAX_BACKTRACKS times, then the solve fails at x0
    x, eval_fn, contract = sphere_case()
    calls = 0

    def start_only(v):
        nonlocal calls
        calls += 1
        ev = eval_fn(v)
        return ev if calls == 1 else Evaluation(ev.residual, False, ev.margin, ev.aux)

    with pytest.raises(NonconvergenceError, match="line search") as info:
        damped_newton(x, start_only, contract, tol=1e-12, max_iter=20)
    failure = info.value.diagnostics
    assert failure.cause == "line_search"
    assert calls == 1 + newton_core.MAX_BACKTRACKS
    assert failure.report.factorizations == 1 and failure.report.iterations == 0
    np.testing.assert_array_equal(failure.x, x)


def assert_singular_failure(x0, jets, residual, cols, shape, weights):
    contract = JetContract(jets, lambda jet: Evaluation(residual(jet), True, 1.0, {}),
                           object(), lambda: window_weights(cols, shape, weights))
    with pytest.raises(NonconvergenceError, match="singular Jacobian") as info:
        damped_newton(x0, contract, contract, tol=1e-12, max_iter=5)
    failure = info.value.diagnostics
    assert failure.cause == "singular"
    assert isinstance(failure.report, SolveReport)
    assert failure.report.iterations == 0
    assert failure.report.factorizations == 0
    np.testing.assert_array_equal(failure.x, x0)
    return contract.window.plan


def test_singular_jacobian_raises_with_report_and_state():
    # pointwise in the jet (x0, x1, x0), (0, 0, x1): the residual ignores
    # x[2], so the Jacobian has an empty column
    def jets(v):
        return [np.array([v[0], v[1], v[0]]), np.array([0.0, 0.0, v[1]])]

    def residual(jet):
        return np.array([jet[0][0] ** 2 - 1.0, jet[0][1] - 2.0, jet[0][2] - jet[1][2]])

    # every row reads every unknown, its own in the centre slot
    cols = np.array([[1, 0, 2], [0, 1, 2], [0, 2, 1]])
    weights = [(np.array([0, 1]), np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])),
               (np.array([2]), np.array([[0.0], [0.0], [1.0]]))]
    plan = assert_singular_failure(np.array([2.0, 1.0, 5.0]), jets, residual, cols, (1, 3),
                                   weights)
    assert plan.n_fronts == 1


def test_singular_pivot_in_a_separator_front_raises():
    # a chain of unknowns, residual x_i - 1 except at a node s of the root
    # separator, whose residual x_{s+1} - x_{s-1} leaves column s empty: the
    # leaves factor, and the zero pivot shows only in the separator's front
    n = 3 * newton_core.LEAF_SIZE
    cols = np.clip(np.arange(n)[:, None] + [-1, 0, 1], 0, n - 1)
    plan = newton_core.frontal_plan(cols, (1, n))
    root = plan.n_fronts - 1
    assert (plan.parent == root).sum() == 2         # a separator, not a leaf
    s = int(plan.perm[plan.start[root]])
    assert 0 < s < n - 1

    def jets(v):
        return [v, v[cols[:, 2]] - v[cols[:, 0]]]

    def residual(jet):
        return np.where(np.arange(n) == s, jet[1], jet[0] - 1.0)

    weights = [(np.array([1]), np.ones((n, 1))), (np.array([0, 2]), np.ones((n, 2)) * [-1, 1])]
    x0 = np.linspace(0.5, 1.5, n)
    assert_singular_failure(x0, jets, residual, cols, (1, n), weights)


def test_solves_load_no_scipy(tmp_path):
    # with scipy unimportable, a homotopy and a graph solve run through the
    # CLI and leave no scipy module loaded
    src = os.path.dirname(os.path.dirname(prescurv.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    sphere = {"mode": "solve-measure", "problem": {
        "operator": {"kind": "sigma_k", "k": 2}, "p": 1.0,
        "phi": [[1.0, 0, 0, 0], [0.2, 0, 0, 1]], "grid": [16, 32]},
        "solver": {"method": "homotopy"}}
    graph = {"mode": "solve-graph", "problem": {
        "domain": [-1, 1, -1, 1], "grid": [17, 17], "k": 2, "q": 0.5,
        "H": {"kind": "manufactured", "surface": {"kind": "cap", "radius": 2.0}},
        "boundary": {"kind": "surface"}}, "solver": {"tol": 1e-10, "perturb_start": 0.01}}
    paths = []
    for name, config in (("sphere", sphere), ("graph", graph)):
        paths.append(str(tmp_path / f"{name}.json"))
        with open(paths[-1], "w") as fh:
            json.dump(config, fh)
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from prescurv import cli\n"
            f"for i, path in enumerate({paths!r}):\n"
            f"    code = cli.run(cli.parse_config(path), {str(tmp_path)!r} + f'/out{{i}}', quiet=True)\n"
            "    assert code == 0, (path, code)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
            "             and sys.modules[m] is not None))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
