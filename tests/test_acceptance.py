"""Acceptance suite: one test per criterion, one printed line per criterion.

Lines are printed immediately (visible with -s) and registered with the
conftest terminal-summary hook so they also appear after captured runs,
green or red.  Every tolerance is pinned here; nothing is deferred to
later calibration.
"""

import hashlib
import math
import time

import numpy as np
import pytest

import conftest

from prescurv.graph_solver import (
    CapSolution,
    GraphField,
    RectGrid,
    bound_probe_campaign,
    dirichlet_newton_solve,
    exact_field,
    manufactured_problem,
)
from prescurv.inequality_lab import (
    SampleConfig,
    check_ivochkina_condition,
    run_campaign,
)
from prescurv.measure_solver import (
    HomotopySchedule,
    MeasureProblem,
    homotopy_solve,
    uniqueness_probe,
    verify_apriori_bounds,
)
from prescurv.polynomials import Poly3
from prescurv.sphere_geometry import (
    RadialField,
    build_grid,
    field_difference,
    radial_geometry,
    structure_equation_residuals,
)
from prescurv.symmfunc import (
    OperatorSpec,
    in_gamma_k,
    operator_value_grad,
    sigma,
    sigma_grad,
    sigma_hess_dir,
    sigma_subset_oracle,
)

SIGMA2 = OperatorSpec("sigma_k", k=2)
PHI_TILT = Poly3(((1.0, (0, 0, 0)), (0.2, (0, 0, 1))))


def _announce(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    line = (f"[ACCEPTANCE {num:02d}] {name}: {status} ({detail}; {elapsed:.1f}s "
            f"of {budget:.0f}s budget)")
    print(line, flush=True)
    conftest.ACCEPTANCE_LINES.append(line)


def _finish(num, name, ok, detail, t0, budget):
    elapsed = time.time() - t0
    ok = ok and elapsed < budget
    _announce(num, name, ok, detail, elapsed, budget)
    assert ok, f"criterion {num}: {detail} (elapsed {elapsed:.1f}s, budget {budget}s)"


def test_criterion_01_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        lam = rng.uniform(-2.0, 2.0, size=n)
        for l in range(n + 1):
            a = sigma(lam, l)
            b = sigma_subset_oracle(lam, l)
            worst = max(worst, abs(a - b) / (1.0 + abs(b)))
    ok = worst <= 1e-12
    _finish(1, "sigma recurrence vs subset enumeration", ok,
            f"worst rel err {worst:.2e} <= 1e-12", t0, 5.0)


def test_criterion_02_derivative_consistency():
    t0 = time.time()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        # normalized admissible point and unit direction: keeps the finite
        # difference oracle itself inside the 1e-6 comparison band
        lam = rng.uniform(0.3, 2.5, size=n)
        lam /= np.abs(lam).max()
        l = int(rng.integers(1, n + 1))
        g = sigma_grad(lam, l)
        h = 1e-5
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd = (sigma(lam + e, l) - sigma(lam - e, l)) / (2 * h)
            worst = max(worst, abs(g[i] - fd) / (1.0 + abs(fd)))
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        A = Q @ np.diag(lam) @ Q.T
        A = 0.5 * (A + A.T)
        op = OperatorSpec("sigma_k", k=l)
        _, grad = operator_value_grad(A, op)
        M = rng.normal(size=(n, n))
        B = 0.5 * (M + M.T)
        B /= np.sqrt(np.sum(B * B))
        fd = (op.value_on_spectrum(np.linalg.eigvalsh(A + h * B))
              - op.value_on_spectrum(np.linalg.eigvalsh(A - h * B))) / (2 * h)
        worst = max(worst, abs(float(np.sum(grad * B)) - fd) / (1.0 + abs(fd)))
        # quadratic form vs Richardson-extrapolated second differences
        if l >= 2:
            def d2(step):
                return (sigma(np.linalg.eigvalsh(A + step * B), l)
                        - 2.0 * sigma(np.linalg.eigvalsh(A), l)
                        + sigma(np.linalg.eigvalsh(A - step * B), l)) / step**2

            fd2 = (4.0 * d2(5e-3) - d2(1e-2)) / 3.0
            val = sigma_hess_dir(A, B, l)
            worst = max(worst, abs(val - fd2) / (1.0 + abs(fd2)))
    ok = worst <= 1e-6
    _finish(2, "derivatives vs finite differences", ok,
            f"worst rel err {worst:.2e} <= 1e-6", t0, 10.0)


def test_criterion_03_round_sphere_exactness():
    t0 = time.time()
    grid = build_grid(32, 64)
    k, p = 2, 1.0
    worst_u = worst_lam = worst_res = 0.0
    for r in (0.5, 0.8, 1.0, 1.7, 2.5):
        field = RadialField.constant(grid, r)
        geo = radial_geometry(field)
        worst_u = max(worst_u, float(np.abs(geo.u - r).max()))
        worst_lam = max(worst_lam, float(np.abs(geo.principal - 1.0 / r).max()))
        prob = MeasureProblem(SIGMA2, p, Poly3.constant(1.0), grid)
        ev_res = sigma(geo.principal, k) - geo.u**p
        closed = math.comb(2, k) * r**-k - r**p
        worst_res = max(worst_res, float(np.abs(ev_res - closed).max()))
    ok = worst_u <= 1e-12 and worst_lam <= 1e-10 and worst_res <= 1e-13
    _finish(3, "round-sphere exactness", ok,
            f"u err {worst_u:.1e}, lambda err {worst_lam:.1e}, residual err "
            f"{worst_res:.1e}", t0, 5.0)


def test_criterion_04_continuity_anchor_and_uniqueness():
    t0 = time.time()
    grid = build_grid(24, 48)
    prob = MeasureProblem(SIGMA2, 1.0, Poly3.constant(1.0), grid)
    sol, trace = homotopy_solve(prob, HomotopySchedule(newton_tol=1e-10))
    dev = float(np.abs(sol.rho - 1.0).max())
    probe = uniqueness_probe(prob, [RadialField.constant(grid, 0.8),
                                    RadialField.constant(grid, 1.3)],
                             tol=1e-10)
    ok = (trace.success and dev <= 1e-8 and probe.complete
          and probe.max_distance <= 1e-8)
    _finish(4, "t=0 anchor and uniqueness probe", ok,
            f"homotopy dev {dev:.1e}, start-to-start distance "
            f"{probe.max_distance:.1e} <= 1e-8", t0, 60.0)


def test_criterion_05_nontrivial_existence():
    t0 = time.time()
    details = []
    ok = True
    for p in (0.5, 1.0):
        sols = {}
        for n in (8, 16, 32):
            grid = build_grid(n, 2 * n)
            prob = MeasureProblem(SIGMA2, p, PHI_TILT, grid)
            field, trace = homotopy_solve(prob, HomotopySchedule(newton_tol=1e-9))
            bounds = verify_apriori_bounds(field, prob, residual_tol=1e-8)
            lam_ok = bool(np.all(in_gamma_k(radial_geometry(field).principal, 2)[0]))
            ok &= trace.success and bounds.residual_max <= 1e-8
            ok &= lam_ok and bounds.u_min > 0.0
            sols[n] = field
        d1 = field_difference(sols[8], sols[16], "l2")
        d2 = field_difference(sols[16], sols[32], "l2")
        order = math.log2(d1 / d2)
        ok &= order >= 1.8
        details.append(f"p={p}: order {order:.2f}")
    _finish(5, "tilted-density existence runs", ok, "; ".join(details), t0, 600.0)


def test_criterion_06_graph_manufactured_recovery():
    t0 = time.time()
    cap = CapSolution(2.0)
    details = []
    ok = True
    for q in (-1.0, 0.0, 1.0):
        errs = []
        for n in (17, 33, 65):
            grid = RectGrid(-1.0, 1.0, -1.0, 1.0, n, n)
            prob = manufactured_problem(cap, grid, 2, q)
            X1, X2 = grid.meshes()
            bump = 1e-2 * np.sin(math.pi * (X1 + 1) / 2) * np.sin(math.pi * (X2 + 1) / 2)
            start = GraphField(grid, exact_field(cap, grid).g + bump)
            sol, rep = dirichlet_newton_solve(start, prob, tol=1e-10, max_iter=40)
            ok &= min(rep.cone_margin_history) > 0.0  # every iterate admissible
            errs.append(float(np.abs(sol.g - exact_field(cap, grid).g).max()))
        o1 = math.log2(errs[0] / errs[1])
        o2 = math.log2(errs[1] / errs[2])
        ok &= o1 >= 1.8 and o2 >= 1.8
        details.append(f"q={q:+.0f}: orders {o1:.2f},{o2:.2f}")
    _finish(6, "manufactured-cap recovery", ok, "; ".join(details), t0, 300.0)


def test_criterion_07_bound_probe_stability():
    t0 = time.time()
    rows = bound_probe_campaign([-1.0, -0.5, 0.0, 0.5, 1.0],
                                [(17, 17), (33, 33)], tol=1e-10)
    ok = all(r.converged for r in rows)
    worst_change = 0.0
    for q in (-1.0, -0.5, 0.0, 0.5, 1.0):
        ratios = [r.ratio for r in rows if r.q == q]
        worst_change = max(worst_change, abs(ratios[1] - ratios[0]) / ratios[0])
    ok &= worst_change <= 0.10
    # regime consistency: whenever a q in (0, 1] run succeeds, the q <= 0
    # runs with the same data must succeed as well
    for grid in ((17, 17), (33, 33)):
        pos_ok = any(r.converged for r in rows
                     if 0.0 < r.q <= 1.0 and (r.nx, r.ny) == grid)
        neg_ok = all(r.converged for r in rows
                     if r.q <= 0.0 and (r.nx, r.ny) == grid)
        ok &= (not pos_ok) or neg_ok
    _finish(7, "interior-bound ratio stability in q", ok,
            f"worst grid-to-grid ratio change {worst_change:.2%} <= 10%",
            t0, 600.0)


def test_criterion_08_inequality_campaign():
    t0 = time.time()
    alphas = (0.25, 0.5, 1.0, 2.0)  # includes 1/(1-p) for p in {-1, 0.5}
    hard_total = 0
    implication_total = 0
    pairs = [(n, k) for n in range(2, 7) for k in range(2, n + 1)]
    for (n, k) in pairs:
        cfg = SampleConfig(n=n, k=k, alpha_list=alphas, sample_count=10000,
                           seed=20240199)
        summary = run_campaign(cfg)
        hard_total += len(summary.hard_failures)
        implication_total += len(summary.implication_violations)
    # determinism: identical config reruns produce byte-identical records
    import os
    import tempfile

    from prescurv.inequality_lab import write_campaign_csv

    digests = []
    cfg_small = SampleConfig(n=3, k=2, alpha_list=alphas, sample_count=300,
                             seed=20240199)
    for _ in range(2):
        s = run_campaign(cfg_small)
        with tempfile.NamedTemporaryFile(suffix=".csv", delete=False) as fh:
            path = fh.name
        write_campaign_csv([s], cfg_small, path)
        digests.append(hashlib.sha256(open(path, "rb").read()).hexdigest())
        os.unlink(path)
    ok = hard_total == 0 and implication_total == 0 and digests[0] == digests[1]
    _finish(8, "inequality campaign over (n,k)", ok,
            f"{len(pairs)} pairs x 10k samples: {hard_total} hard failures, "
            f"{implication_total} implication violations, rerun "
            f"{'identical' if digests[0] == digests[1] else 'DIFFERS'}",
            t0, 300.0)


def test_criterion_09_ivochkina_boundary():
    t0 = time.time()
    holds = {q: check_ivochkina_condition(2, q, p_box=3.0, grid=33).holds
             for q in (-1.0, -0.5, 0.0, 0.5, 1.0)}
    ok = (holds[-1.0] and holds[-0.5] and holds[0.0]
          and not holds[0.5] and not holds[1.0])
    _finish(9, "gradient-condition boundary in q", ok,
            f"holds={ {q: holds[q] for q in sorted(holds)} }", t0, 30.0)


def test_criterion_10_structure_equation_consistency():
    t0 = time.time()
    vals = []
    for n in (16, 32, 64):
        grid = build_grid(n, 2 * n)
        x = grid.nodes
        rho = 2.0 + 0.3 * x[..., 2] + 0.2 * x[..., 0] * x[..., 1] + 0.15 * x[..., 0]
        sr = structure_equation_residuals(radial_geometry(RadialField(grid, rho)))
        vals.append(sr.l2_gauss)
    o1 = math.log2(vals[0] / vals[1])
    o2 = math.log2(vals[1] / vals[2])
    ok = o1 >= 1.8 and o2 >= 1.8
    _finish(10, "structure-equation residual decay", ok,
            f"orders {o1:.2f}, {o2:.2f} >= 1.8", t0, 60.0)
