"""Dirichlet graph equation: manufactured verification and the q-sweep probe.

Run:  python demos/graph_equation_walkthrough.py
"""

import math

import numpy as np

from prescurv.graph_solver import (
    CapSolution,
    GraphProblem,
    GraphRHS,
    RectGrid,
    bound_probe_campaign,
    dirichlet_boundary_from,
    dirichlet_newton_solve,
    exact_field,
    manufactured_H,
    manufactured_start,
)

cap = CapSolution(2.0)

print("=== manufactured solution: recover a sphere cap ===")
prev = None
for n in (17, 33):
    grid = RectGrid(-1, 1, -1, 1, n, n)
    prob = GraphProblem(grid, 2, 1.0,
                        GraphRHS(samples=manufactured_H(cap, 2, 1.0, grid)),
                        dirichlet_boundary_from(cap, grid))
    sol, rep = dirichlet_newton_solve(manufactured_start(cap, grid), prob, tol=1e-10)
    err = np.abs(sol.g - exact_field(cap, grid).g).max()
    order = "" if prev is None else f"   order {math.log2(prev / err):.2f}"
    print(f"grid {n:2d}x{n:2d}: {rep.iterations} Newton iterations on "
          f"{rep.factorizations} factorization(s), "
          f"recovery error {err:.3e}{order}")
    prev = err

print("\n=== interior curvature-bound probe across q ===")
print("q      grid    sup_int|A|  sup_bnd|A|  ratio")
for r in bound_probe_campaign([-1.0, -0.5, 0.0, 0.5, 1.0], [(17, 17), (33, 33)]):
    print(f"{r.q:+4.1f}  {r.nx:2d}x{r.ny:<2d}   {r.sup_int_A:.6f}    "
          f"{r.sup_bnd_A:.6f}  {r.ratio:.6f}")
print("(the ratio sup_int/(1+sup_bnd) barely moves under refinement: the "
      "interior bound is discretization-stable)")
