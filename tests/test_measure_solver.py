import functools
import math
import warnings

import numpy as np
import pytest

from conftest import dense_jacobian
from prescurv import measure_solver
from prescurv.errors import (
    ConeViolationError,
    ConfigError,
    NonconvergenceError,
    StartRadiusError,
)
from prescurv.measure_solver import (
    HomotopySchedule,
    HomotopyTrace,
    MeasureProblem,
    _jet_contract,
    homotopy_solve,
    initial_sphere_radius,
    newton_solve,
    residual,
    uniqueness_probe,
    verify_apriori_bounds,
)
from prescurv.newton_core import ARMIJO_C, MAX_BACKTRACKS, SolveReport, factorize, fd_jacobian
from prescurv.polynomials import Poly3
from prescurv.sphere_geometry import RadialField, build_grid, field_difference
from prescurv.symmfunc import OperatorSpec

SIGMA2 = OperatorSpec("sigma_k", k=2)
PHI_TILT = Poly3(((1.0, (0, 0, 0)), (0.2, (0, 0, 1))))


def make_problem(grid, p=1.0, phi=None, op=SIGMA2):
    return MeasureProblem(op, p, phi or Poly3.constant(1.0), grid)


@functools.cache
def tilted_homotopy(n):
    """Homotopy to the tilted density on the n x 2n grid, solved once per
    test session (callers only read it)."""
    return homotopy_solve(make_problem(build_grid(n, 2 * n), phi=PHI_TILT))


def full_newton(x0, eval_fn, contract, tol, max_iter):
    """Oracle: the damped Newton loop with a fresh Jacobian and factor at
    every correction."""
    x = np.asarray(x0, dtype=float).copy()
    report = SolveReport()
    ev = eval_fn(x)
    if not ev.admissible:
        raise ConeViolationError("start point is not admissible")
    rnorm = float(np.abs(ev.residual).max())
    report.residual_history.append(rnorm)
    report.cone_margin_history.append(ev.cone_margin)
    report.aux_history.append(ev.aux)
    while rnorm > tol:
        if report.iterations >= max_iter:
            report.message = f"no convergence in {max_iter} iterations"
            raise NonconvergenceError(report.message, diagnostics=(report, x))
        step = factorize(contract.window.plan, fd_jacobian(x, contract)).solve(-ev.residual)
        report.factorizations += 1
        f0 = float(ev.residual @ ev.residual)
        s = 1.0
        accepted = None
        for halvings in range(MAX_BACKTRACKS):
            trial = x + s * step
            ev_trial = eval_fn(trial)
            f_trial = float(ev_trial.residual @ ev_trial.residual)
            if ev_trial.admissible and f_trial <= (1.0 - 2.0 * ARMIJO_C * s) * f0:
                accepted = (trial, ev_trial, s)
                break
            s *= 0.5
        if accepted is None:
            report.message = "line search found no admissible decreasing step"
            raise NonconvergenceError(report.message, diagnostics=(report, x))
        x, ev, s = accepted
        rnorm = float(np.abs(ev.residual).max())
        report.iterations += 1
        report.residual_history.append(rnorm)
        report.step_norm_history.append(float(np.abs(step).max()))
        report.backtrack_history.append(halvings)
        report.cone_margin_history.append(ev.cone_margin)
        report.aux_history.append(ev.aux)
    report.converged = True
    return x, report


def test_initial_sphere_radius_values():
    assert initial_sphere_radius(SIGMA2, 1.0, n=2) == pytest.approx(1.0)
    assert initial_sphere_radius(SIGMA2, 1.0, n=3) == pytest.approx(3.0 ** (1 / 3))
    assert initial_sphere_radius(OperatorSpec("sigma_k", k=1), 1.0, n=3) == pytest.approx(math.sqrt(3.0))
    # quotient sigma_2/sigma_1 on S^2: (1/2) r^{-1} = r^p
    q = OperatorSpec("quotient", k=2, l=1)
    assert initial_sphere_radius(q, 1.0, n=2) == pytest.approx(0.5 ** 0.5)


def test_initial_sphere_radius_degenerate_exponent():
    with pytest.raises(StartRadiusError):
        initial_sphere_radius(OperatorSpec("sigma_k", k=2), -2.0, n=2)


def test_problem_invariants():
    g = build_grid(8, 16)
    with pytest.raises(ConfigError):
        make_problem(g, p=0.0)
    with pytest.raises(ConfigError):
        MeasureProblem(SIGMA2, 1.0, Poly3(((1.0, (0, 0, 0)), (-2.0, (0, 0, 1)))), g)
    with pytest.warns(UserWarning):
        make_problem(g, p=1.5)
    with pytest.warns(UserWarning):
        make_problem(g, op=OperatorSpec("quotient", k=2, l=1))


def test_residual_on_round_spheres():
    g = build_grid(16, 32)
    prob = make_problem(g)
    assert np.abs(residual(RadialField.constant(g, 1.0), prob)).max() <= 1e-10
    res2 = residual(RadialField.constant(g, 2.0), prob)
    assert np.abs(res2 - (2.0 ** -2 - 2.0)).max() <= 1e-12


def test_residual_rejects_inadmissible_field():
    g = build_grid(12, 24)
    prob = make_problem(g)
    x3 = g.nodes[..., 2]
    bumpy = RadialField(g, 1.0 + 0.3 * (2 * x3**2 - 1.0))  # sigma_2 < 0 somewhere
    with pytest.raises(ConeViolationError) as err:
        residual(bumpy, prob)
    assert len(err.value.nodes) > 0


def test_newton_converges_to_unit_sphere():
    g = build_grid(12, 24)
    prob = make_problem(g)
    sol, rep = newton_solve(RadialField.constant(g, 1.2), prob, tol=1e-10)
    assert rep.converged
    assert np.abs(sol.rho - 1.0).max() < 1e-9
    # admissibility held at every accepted iterate
    assert min(rep.cone_margin_history) > 0.0
    assert min(a["u_min"] for a in rep.aux_history) > 0.0


def test_newton_zero_iterations_at_solution():
    g = build_grid(12, 24)
    prob = make_problem(g)
    sol, rep = newton_solve(RadialField.constant(g, 1.0), prob, tol=1e-10)
    assert rep.iterations == 0
    assert np.array_equal(sol.rho, np.ones_like(sol.rho))


def test_converged_start_costs_one_evaluation(monkeypatch):
    g = build_grid(8, 16)
    calls = 0
    evaluate = measure_solver._evaluate_jet

    def counted(*args):
        nonlocal calls
        calls += 1
        return evaluate(*args)

    monkeypatch.setattr(measure_solver, "_evaluate_jet", counted)
    _, rep = newton_solve(RadialField.constant(g, 1.0), make_problem(g), tol=1e-10)
    assert (rep.iterations, rep.factorizations, calls) == (0, 0, 1)


def test_newton_rejects_inadmissible_start():
    g = build_grid(12, 24)
    prob = make_problem(g)
    x3 = g.nodes[..., 2]
    bad = RadialField(g, 1.0 + 0.3 * (2 * x3**2 - 1.0))
    with pytest.raises(NonconvergenceError) as info:
        newton_solve(bad, prob)
    assert info.value.diagnostics.cause == "inadmissible_start"


def test_accepted_steps_decrease_residual_two_norm():
    g = build_grid(12, 24)
    prob = make_problem(g, phi=PHI_TILT)
    _, rep = newton_solve(RadialField.constant(g, 1.1), prob, tol=1e-10)
    norms = [a["res_norm2"] for a in rep.aux_history]
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_jacobian_matches_directional_differences():
    g = build_grid(8, 16)
    prob = make_problem(g, phi=PHI_TILT)
    phi_vals = prob.phi_vals
    rng = np.random.default_rng(4)
    # smooth random admissible state: low-order polynomial wiggles
    nd = g.nodes
    coef = 0.05 * rng.standard_normal(6)
    bumps = (coef[0] * nd[..., 0] + coef[1] * nd[..., 1] + coef[2] * nd[..., 2]
             + coef[3] * nd[..., 0] * nd[..., 1] + coef[4] * nd[..., 0] * nd[..., 2]
             + coef[5] * nd[..., 1] * nd[..., 2])
    x = (1.0 + bumps).ravel()
    contract = _jet_contract(prob, phi_vals)
    assert contract(x).admissible
    J = dense_jacobian(contract.window.cols, fd_jacobian(x, contract))
    v = rng.standard_normal(g.n_nodes)
    h = 1e-6
    fd = (contract(x + h * v).residual - contract(x - h * v).residual) / (2 * h)
    num = np.linalg.norm(J @ v - fd)
    den = np.linalg.norm(fd)
    assert num / den < 1e-5


def test_homotopy_constant_density_is_trivial():
    g = build_grid(12, 24)
    sol, trace = homotopy_solve(make_problem(g))
    assert trace.success
    # every phi_t is the same problem: the ordinary steps, none corrected,
    # and dt grows by the full factor after each
    assert [s.t for s in trace.steps] == pytest.approx([0.0, 0.1, 0.5, 1.0])
    assert trace.steps[-1].t == 1.0
    assert all(s.newton_iters == 0 and s.factorizations == 0 for s in trace.steps)
    assert not trace.rejections
    assert np.abs(sol.rho - 1.0).max() < 1e-9


def test_homotopy_tilted_density_completes():
    g = build_grid(12, 24)
    prob = make_problem(g, phi=PHI_TILT)
    sol, trace = homotopy_solve(prob)
    assert trace.success
    ts = [s.t for s in trace.steps]
    assert ts[-1] == 1.0
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert all(s.min_cone_margin > 0 and s.min_u > 0 for s in trace.steps)
    assert np.abs(residual(sol, prob)).max() <= 1e-8
    # solution genuinely non-round
    assert sol.rho.max() - sol.rho.min() > 0.05


def test_homotopy_lands_exactly_on_one():
    # float sums of dt fall short of 1 by a rounding error unless snapped
    prob = make_problem(build_grid(8, 16), phi=PHI_TILT)
    for dt_init in (0.1, 0.3, 0.7):
        _, trace = homotopy_solve(prob, HomotopySchedule(dt_init=dt_init))
        ts = [s.t for s in trace.steps]
        assert ts[-1] == 1.0
        assert not any(1.0 - 1e-12 < t < 1.0 for t in ts)


def test_homotopy_completes_at_64x128():
    # the pole-row Jacobian entries scale like 1/(h sin theta)^2; only an
    # exact Jacobian lets the continuation leave t = 0 at this resolution
    _, trace = tilted_homotopy(64)
    assert trace.success
    assert trace.steps[-1].t == 1.0
    assert not trace.rejections
    # Jacobians (each factored once) and chord corrections stay bounded
    assert sum(s.factorizations for s in trace.steps) <= 10
    assert sum(s.newton_iters for s in trace.steps) <= 20


def test_homotopy_newton_iterations_at_32x64():
    _, trace = tilted_homotopy(32)
    assert trace.steps[-1].t == 1.0
    assert sum(s.factorizations for s in trace.steps) <= 10
    assert sum(s.newton_iters for s in trace.steps) <= 20


def test_chord_homotopy_factors_at_most_four_times_at_64x128():
    _, trace = tilted_homotopy(64)
    assert sum(s.factorizations for s in trace.steps) <= 4
    for s in trace.steps:
        assert len(s.refactor_reasons) == s.factorizations


def test_chord_homotopy_matches_full_newton_at_32x64(monkeypatch):
    sol, trace = tilted_homotopy(32)
    monkeypatch.setattr(measure_solver, "damped_newton", full_newton)
    ref, ref_trace = homotopy_solve(make_problem(build_grid(32, 64), phi=PHI_TILT))
    assert [s.t for s in trace.steps] == [s.t for s in ref_trace.steps] == [0.0, 0.1, 0.5, 1.0]
    assert np.abs(sol.rho - ref.rho).max() <= 1e-10
    assert (sum(s.factorizations for s in trace.steps)
            < sum(s.factorizations for s in ref_trace.steps))


def test_homotopy_step_records_control_data():
    _, trace = homotopy_solve(make_problem(build_grid(16, 32), phi=PHI_TILT))
    first, *rest = trace.steps
    assert (first.t, first.dt_factor, first.predicted) == (0.0, None, False)
    # the corrector at the first step has no earlier solution to extrapolate
    assert not rest[0].predicted and all(s.predicted for s in rest[1:])
    for s in rest:
        assert 0.5 <= s.dt_factor <= 4.0
        if s.contraction is not None:
            assert s.dt_factor == min(max(math.sqrt(0.25 / s.contraction), 0.5), 4.0)
    ts = [s.t for s in trace.steps]
    dts = [b - a for a, b in zip(ts, ts[1:])]
    for s, dt, dt_next in zip(rest, dts, dts[1:-1]):
        assert dt_next == pytest.approx(dt * s.dt_factor)


def test_homotopy_inadmissible_prediction_falls_back_to_u_t(monkeypatch):
    prob = make_problem(build_grid(12, 24), phi=PHI_TILT)
    ref, ref_trace = homotopy_solve(prob)
    x3 = prob.grid.nodes[..., 2]
    # a predictor that dents the surface far enough to leave Gamma_2, or
    # to make rho negative, must not cost a rejected step
    for dent in (0.6, 3.0):
        monkeypatch.setattr(measure_solver, "_secant",
                            lambda rho, prev, ratio: rho * (1.0 - dent * x3**8))
        sol, trace = homotopy_solve(prob)
        assert trace.success
        assert not trace.rejections
        assert not any(s.predicted for s in trace.steps)
        assert np.abs(residual(sol, prob)).max() <= 1e-8
        assert np.abs(sol.rho - ref.rho).max() <= 1e-8
    assert any(s.predicted for s in ref_trace.steps)


def test_homotopy_samples_phi_once_per_corrector(monkeypatch):
    # the problem samples phi once; each corrector samples only its phi_t
    calls = []
    sample = Poly3.eval_unit_vectors
    monkeypatch.setattr(Poly3, "eval_unit_vectors",
                        lambda poly, x: calls.append(poly) or sample(poly, x))
    _, trace = homotopy_solve(make_problem(build_grid(8, 16), phi=PHI_TILT))
    assert len(trace.steps) > 1
    assert len(calls) == 1 + len(trace.steps) + len(trace.rejections)


def test_step_underflow_carries_last_accepted_state():
    # every corrector past t = 0 needs more than one Newton step
    g = build_grid(8, 16)
    with pytest.raises(NonconvergenceError, match="step underflow") as info:
        homotopy_solve(make_problem(g, phi=PHI_TILT), HomotopySchedule(newton_max_iter=1))
    failure = info.value.diagnostics
    assert (failure.cause, failure.t) == ("step_underflow", 0.0)
    # dt = 0.1 halves ten times to 0.1 / 2**10 < dt_min = 1e-4
    assert len(failure.trace.rejections) == 10
    assert [s.t for s in failure.trace.steps] == [0.0]
    np.testing.assert_array_equal(failure.x, np.full(g.n_theta * g.n_phi, 1.0))
    assert failure.report.iterations == 1


def test_failed_first_corrector_carries_the_trace(monkeypatch):
    radius = measure_solver.initial_sphere_radius
    monkeypatch.setattr(measure_solver, "initial_sphere_radius",
                        lambda op, p: 1.5 * radius(op, p))
    with pytest.raises(NonconvergenceError) as info:
        homotopy_solve(make_problem(build_grid(8, 16), phi=PHI_TILT),
                       HomotopySchedule(newton_max_iter=2))
    failure = info.value.diagnostics
    assert (failure.cause, failure.t) == ("max_iter", 0.0)
    assert isinstance(failure.trace, HomotopyTrace)
    assert not failure.trace.steps and not failure.trace.success
    assert failure.report.iterations == 2


@pytest.mark.parametrize("key, value", [("newton_tol", -1.0), ("newton_tol", math.nan),
                                        ("newton_max_iter", 0), ("dt_init", 0.0),
                                        ("dt_init", -0.5), ("dt_min", 0.0),
                                        ("dt_min", math.inf)])
def test_schedule_rejects_limits_that_are_not_positive(key, value):
    with pytest.raises(ConfigError, match="must be finite and > 0"):
        HomotopySchedule(**{key: value})


def test_homotopy_solutions_depend_on_p():
    g = build_grid(8, 16)
    s1, _ = homotopy_solve(make_problem(g, p=1.0, phi=PHI_TILT))
    s2, _ = homotopy_solve(make_problem(g, p=0.5, phi=PHI_TILT))
    assert np.abs(s1.rho - s2.rho).max() > 1e-3


def test_homotopy_solution_grid_convergence():
    sols = {}
    for n in (8, 16, 32):
        g = build_grid(n, 2 * n)
        sols[n], _ = homotopy_solve(make_problem(g, phi=PHI_TILT))
    d1 = field_difference(sols[8], sols[16])
    d2 = field_difference(sols[16], sols[32])
    assert math.log2(d1 / d2) >= 1.8


def test_zonal_symmetry_inherited():
    g = build_grid(12, 24)
    sol, _ = homotopy_solve(make_problem(g, phi=PHI_TILT))
    assert np.abs(sol.rho - sol.rho[:, :1]).max() < 1e-9


def test_bounds_report_round_sphere():
    g = build_grid(16, 32)
    prob = make_problem(g)
    rep = verify_apriori_bounds(RadialField.constant(g, 1.0), prob)
    assert rep.rho_min == rep.rho_max == pytest.approx(1.0)
    assert rep.u_min == pytest.approx(1.0)
    assert rep.sigma1_max == pytest.approx(2.0)
    assert rep.verified
    rep2 = verify_apriori_bounds(RadialField.constant(g, 1.5), prob)
    assert not rep2.verified  # non-solution stays labeled unverified


def test_uniqueness_probe_round_problem():
    g = build_grid(12, 24)
    prob = make_problem(g)
    probe = uniqueness_probe(prob, [RadialField.constant(g, 0.8),
                                    RadialField.constant(g, 1.3)])
    assert probe.complete
    assert probe.max_distance <= 1e-8
    same = uniqueness_probe(prob, [RadialField.constant(g, 1.0),
                                   RadialField.constant(g, 1.0)])
    assert same.max_distance == 0.0


def test_uniqueness_probe_tilted_problem_distinct_start_shapes():
    from prescurv.sphere_geometry import ellipsoid_radial_field

    g = build_grid(12, 24)
    prob = make_problem(g, p=1.0, phi=PHI_TILT)
    starts = [RadialField.constant(g, 1.0),
              ellipsoid_radial_field(g, 1.1, 1.0, 0.95)]
    probe = uniqueness_probe(prob, starts, tol=1e-10, max_iter=40)
    assert probe.complete
    assert probe.max_distance <= 1e-6


def test_uniqueness_probe_records_a_start_that_fails():
    # the round sphere of radius 1 solves the problem at once; the radius-3
    # start needs more than the one correction allowed
    g = build_grid(8, 16)
    probe = uniqueness_probe(make_problem(g), [RadialField.constant(g, 1.0),
                                               RadialField.constant(g, 3.0)], max_iter=1)
    assert probe.converged == [True, False]
    assert not probe.complete
    assert probe.distances[0, 0] == probe.max_distance == 0.0
    assert np.isnan(probe.distances[[0, 1, 1], [1, 0, 1]]).all()


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_trial_rho_not_positive_and_finite_is_vetoed(bad):
    g = build_grid(8, 16)
    prob = make_problem(g)
    x = np.ones(g.n_nodes)
    x[5] = bad
    ev = _jet_contract(prob, prob.phi_vals)(x)
    assert not ev.admissible
    assert np.all(ev.residual == 1e30)
    assert ev.cone_margin == ev.aux["u_min"] == -math.inf


def test_dt_factor_grows_fully_without_a_contraction():
    assert measure_solver._dt_factor(None) == measure_solver.DT_GROWTH
    assert measure_solver._dt_factor(0.0) == measure_solver.DT_GROWTH
    assert measure_solver._dt_factor(measure_solver.THETA_TARGET) == 1.0
    assert measure_solver._dt_factor(100.0) == measure_solver.DT_SHRINK


def test_quotient_operator_t0_solve():
    g = build_grid(12, 24)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        prob = make_problem(g, op=OperatorSpec("quotient", k=2, l=1))
    r0 = initial_sphere_radius(prob.op, prob.p)
    assert np.abs(residual(RadialField.constant(g, r0), prob)).max() < 1e-12
    sol, rep = newton_solve(RadialField.constant(g, 0.9 * r0), prob, tol=1e-10)
    assert np.abs(sol.rho - r0).max() < 1e-8
