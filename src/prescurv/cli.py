"""Command line front end: JSON config in, CSV/OBJ/JSON artifacts out.

    prescurv <mode> --config cfg.json --out outdir [--seed N] [--quiet]

Modes: solve-measure, solve-graph, verify-inequalities, convergence-study.
Config parsing is strict (unknown keys are errors) and problem invariants
are enforced at parse time.  Exit codes: 0 success, 1 usage or config
error, 2 solver nonconvergence, 3 mathematical hard failure in a
verification campaign.
"""

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import ConfigError, NonconvergenceError
from .graph_solver import (
    CapSolution,
    GraphField,
    GraphProblem,
    GraphRHS,
    ParaboloidSolution,
    RectGrid,
    bound_probe_campaign,
    curvature_bound_probe,
    dirichlet_boundary_from,
    dirichlet_newton_solve,
    exact_field,
    graph_shape,
    manufactured_H,
    manufactured_start,
    _d1,
    _d2,
)
from .inequality_lab import (
    SampleConfig,
    check_ivochkina_condition,
    run_campaign,
    write_campaign_csv,
)
from .measure_solver import (
    HomotopySchedule,
    MeasureProblem,
    homotopy_solve,
    initial_sphere_radius,
    newton_solve,
    verify_apriori_bounds,
)
from .polynomials import Poly3
from .reporting import sha256_file, utc_now, write_csv, write_json, write_manifest
from .sphere_geometry import (
    RadialField,
    build_grid,
    ellipsoid_principal_curvatures,
    ellipsoid_radial_field,
    export_csv,
    export_obj,
    field_difference,
    field_norm,
    radial_geometry,
    structure_equation_residuals,
)
from .symmfunc import OperatorSpec

MODES = ("solve-measure", "solve-graph", "verify-inequalities", "convergence-study")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NONCONVERGENCE = 2
EXIT_HARD_FAILURE = 3


# ---------------------------------------------------------------------------
# strict parsing helpers


def _check_keys(d, allowed, path):
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {unknown}; allowed {sorted(allowed)}")


def _require(d, key, path):
    if key not in d:
        raise ConfigError(f"{path}: missing required key {key!r}")
    return d[key]


def _build_poly(entries, path):
    try:
        return Poly3.from_list(entries)
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"{path}: bad monomial list ({exc})")


def _build_operator(d, path):
    _check_keys(d, {"kind", "k", "l"}, path)
    kind = d.get("kind", "sigma_k")
    try:
        return OperatorSpec(kind=kind, k=int(_require(d, "k", path)), l=int(d.get("l", 0)))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")


def _build_surface(d, path):
    _check_keys(d, {"kind", "radius", "center", "offset", "tilt", "alpha"}, path)
    kind = _require(d, "kind", path)
    if kind == "cap":
        return CapSolution(_require(d, "radius", path),
                           center=d.get("center", (0.0, 0.0)),
                           offset=d.get("offset", 0.0),
                           tilt=d.get("tilt", (0.0, 0.0)))
    if kind == "paraboloid":
        return ParaboloidSolution(_require(d, "alpha", path),
                                  center=d.get("center", (0.0, 0.0)),
                                  offset=d.get("offset", 0.0))
    raise ConfigError(f"{path}: unknown surface kind {kind!r}")


@dataclass
class RunConfig:
    mode: str
    seed: int
    echo: dict
    payload: object


@dataclass
class MeasureRun:
    problem: MeasureProblem
    method: str
    tol: float
    max_iter: int
    dt_init: float
    dt_min: float
    start_radius: float


@dataclass
class GraphRun:
    problem: GraphProblem
    surface: object      # exact solution when manufactured, else None
    start: GraphField
    tol: float
    max_iter: int


@dataclass
class InequalityRun:
    configs: list
    ivochkina: list
    write_records: bool


@dataclass
class StudyRun:
    kind: str
    params: dict


def parse_config(path, mode=None, seed_override=None):
    """Load and validate a run configuration; nested problem invariants are
    enforced here so bad configs fail before any computation starts."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed JSON at line {exc.lineno}: {exc.msg}")
    _check_keys(raw, {"mode", "seed", "problem", "solver"}, "config")
    cfg_mode = _require(raw, "mode", "config")
    if cfg_mode not in MODES:
        raise ConfigError(f"config: unknown mode {cfg_mode!r}; expected one of {MODES}")
    if mode is not None and mode != cfg_mode:
        raise ConfigError(f"command line mode {mode!r} does not match config mode {cfg_mode!r}")
    seed = int(raw.get("seed", 0)) if seed_override is None else int(seed_override)
    problem = _require(raw, "problem", "config")
    solver = raw.get("solver", {})
    builder = {
        "solve-measure": _parse_measure,
        "solve-graph": _parse_graph,
        "verify-inequalities": _parse_inequalities,
        "convergence-study": _parse_study,
    }[cfg_mode]
    payload = builder(problem, solver, seed)
    return RunConfig(mode=cfg_mode, seed=seed, echo=raw, payload=payload)


def _parse_measure(problem, solver, seed):
    _check_keys(problem, {"operator", "p", "phi", "grid"}, "problem")
    _check_keys(solver, {"method", "tol", "max_iter", "dt_init", "dt_min",
                         "start_radius"}, "solver")
    op = _build_operator(_require(problem, "operator", "problem"), "problem.operator")
    p = float(_require(problem, "p", "problem"))
    phi = _build_poly(_require(problem, "phi", "problem"), "problem.phi")
    grid_spec = _require(problem, "grid", "problem")
    try:
        grid = build_grid(int(grid_spec[0]), int(grid_spec[1]))
    except (ValueError, TypeError, IndexError) as exc:
        raise ConfigError(f"problem.grid: {exc}")
    try:
        prob = MeasureProblem(op, p, phi, grid)
    except ConfigError as exc:
        raise ConfigError(f"problem: {exc}")
    method = solver.get("method", "homotopy")
    if method not in ("homotopy", "newton"):
        raise ConfigError("solver.method must be 'homotopy' or 'newton'")
    return MeasureRun(
        problem=prob,
        method=method,
        tol=float(solver.get("tol", 1e-9)),
        max_iter=int(solver.get("max_iter", 30)),
        dt_init=float(solver.get("dt_init", 0.1)),
        dt_min=float(solver.get("dt_min", 1e-4)),
        start_radius=float(solver.get("start_radius", 0.0)),
    )


def _parse_graph(problem, solver, seed):
    _check_keys(problem, {"domain", "grid", "k", "q", "H", "boundary"}, "problem")
    _check_keys(solver, {"tol", "max_iter", "perturb_start"}, "solver")
    domain = _require(problem, "domain", "problem")
    grid_spec = _require(problem, "grid", "problem")
    try:
        grid = RectGrid(float(domain[0]), float(domain[1]), float(domain[2]),
                        float(domain[3]), int(grid_spec[0]), int(grid_spec[1]))
    except (ValueError, TypeError, IndexError) as exc:
        raise ConfigError(f"problem.domain/grid: {exc}")
    k = int(_require(problem, "k", "problem"))
    q = float(_require(problem, "q", "problem"))
    H_spec = _require(problem, "H", "problem")
    _check_keys(H_spec, {"kind", "terms", "surface"}, "problem.H")
    H_kind = _require(H_spec, "kind", "problem.H")
    if H_kind == "poly":
        raise ConfigError("problem: polynomial-H runs need a manufactured "
                          "surface start; supply H.kind = 'manufactured'")
    if H_kind != "manufactured":
        raise ConfigError("problem.H.kind must be 'poly' or 'manufactured'")
    surface = _build_surface(_require(H_spec, "surface", "problem.H"),
                             "problem.H.surface")
    rhs = GraphRHS(samples=manufactured_H(surface, k, q, grid))
    bnd_spec = _require(problem, "boundary", "problem")
    _check_keys(bnd_spec, {"kind", "terms"}, "problem.boundary")
    if _require(bnd_spec, "kind", "problem.boundary") == "surface":
        boundary = dirichlet_boundary_from(surface, grid)
    elif bnd_spec["kind"] == "poly":
        bpoly = _build_poly(_require(bnd_spec, "terms", "problem.boundary"),
                            "problem.boundary.terms")
        X1, X2 = grid.meshes()
        boundary = bpoly(X1, X2, np.zeros_like(X1))
    else:
        raise ConfigError("problem.boundary.kind must be 'surface' or 'poly'")
    prob = GraphProblem(grid, k, q, rhs, boundary)
    start = manufactured_start(surface, grid, float(solver.get("perturb_start", 1e-2)))
    return GraphRun(problem=prob, surface=surface, start=start,
                    tol=float(solver.get("tol", 1e-9)),
                    max_iter=int(solver.get("max_iter", 40)))


def _parse_inequalities(problem, solver, seed):
    _check_keys(problem, {"pairs", "alpha_list", "sample_count", "spectrum_box",
                          "direction_scale", "ivochkina", "write_records"},
                "problem")
    _check_keys(solver, set(), "solver")
    pairs = _require(problem, "pairs", "problem")
    alpha = tuple(float(a) for a in problem.get("alpha_list", (0.25, 0.5, 1.0, 2.0)))
    count = int(problem.get("sample_count", 1000))
    box = tuple(problem.get("spectrum_box", (-1.0, 2.0)))
    scale = tuple(problem.get("direction_scale", (-1.0, 1.0)))
    configs = []
    for pair in pairs:
        try:
            configs.append(SampleConfig(n=int(pair[0]), k=int(pair[1]),
                                        alpha_list=alpha, sample_count=count,
                                        seed=seed, spectrum_box=box,
                                        direction_scale=scale))
        except ValueError as exc:
            raise ConfigError(f"problem.pairs {pair}: {exc}")
    ivo = []
    for entry in problem.get("ivochkina", []):
        _check_keys(entry, {"k", "q", "p_box", "grid"}, "problem.ivochkina[]")
        ivo.append({"k": int(_require(entry, "k", "ivochkina")),
                    "q": float(_require(entry, "q", "ivochkina")),
                    "p_box": float(entry.get("p_box", 3.0)),
                    "grid": int(entry.get("grid", 33))})
    return InequalityRun(configs=configs, ivochkina=ivo,
                         write_records=bool(problem.get("write_records", True)))


_STUDY_KINDS = ("ellipsoid-curvature", "structure-equations", "measure-homotopy",
                "graph-manufactured", "graph-bound-probe")


def _parse_study(problem, solver, seed):
    _check_keys(problem, {"kind", "grids", "ellipsoid", "rho", "operator", "p",
                          "phi", "k", "q", "q_list", "surface", "domain",
                          "radius"}, "problem")
    _check_keys(solver, {"tol", "max_iter"}, "solver")
    kind = _require(problem, "kind", "problem")
    if kind not in _STUDY_KINDS:
        raise ConfigError(f"problem.kind must be one of {_STUDY_KINDS}")
    grids = _require(problem, "grids", "problem")
    if not grids:
        raise ConfigError("problem.grids must list at least one grid")
    params = dict(problem)
    params["solver"] = dict(solver)
    return StudyRun(kind=kind, params=params)


# ---------------------------------------------------------------------------
# mode runners


def _order_cell(prev, cur):
    if prev is None or prev < 1e-13 or cur < 1e-13:
        return "n/a"
    return f"{math.log2(prev / cur):.3f}"


def _partial_newton(exc):
    """Newton block of a failed solve, from the (report, x) that its error
    carries."""
    rep, _ = exc.diagnostics
    return {**_newton_counts(rep), "residual_history": rep.residual_history,
            "message": rep.message}


def _newton_counts(rep):
    """Corrections, factorizations and refactor reasons of a SolveReport."""
    return {"iterations": rep.iterations, "factorizations": rep.factorizations,
            "refactor_reasons": rep.refactor_reasons}


def _run_measure(run, out_dir, quiet, echo=None):
    exit_code = EXIT_OK
    payload = {"mode": "solve-measure", "config_echo": echo}
    field = None
    if run.method == "homotopy":
        sched = HomotopySchedule(dt_init=run.dt_init, dt_min=run.dt_min,
                                 newton_tol=run.tol, newton_max_iter=run.max_iter)
        try:
            field, trace = homotopy_solve(run.problem, sched)
        except NonconvergenceError as exc:
            trace = exc.diagnostics
            exit_code = EXIT_NONCONVERGENCE
            payload["error"] = str(exc)
        if trace is not None:
            payload["homotopy"] = {
                "success": bool(getattr(trace, "success", False)),
                "steps": [vars(s) for s in getattr(trace, "steps", [])],
                "rejections": [list(r) for r in getattr(trace, "rejections", [])],
            }
    else:
        r0 = run.start_radius or initial_sphere_radius(run.problem.op, run.problem.p)
        try:
            field, report = newton_solve(RadialField.constant(run.problem.grid, r0),
                                         run.problem, tol=run.tol,
                                         max_iter=run.max_iter)
            payload["newton"] = {**_newton_counts(report),
                                 "residual_history": report.residual_history}
        except NonconvergenceError as exc:
            exit_code = EXIT_NONCONVERGENCE
            payload["error"] = str(exc)
            payload["newton"] = _partial_newton(exc)
    if field is not None:
        bounds = verify_apriori_bounds(field, run.problem, residual_tol=max(run.tol, 1e-8))
        payload["bounds"] = vars(bounds)
        geo = radial_geometry(field)
        export_csv(geo, run.problem.op, os.path.join(out_dir, "solution.csv"))
        export_obj(geo, os.path.join(out_dir, "surface.obj"))
        if not quiet:
            print(f"solve-measure: residual_max={bounds.residual_max:.3e} "
                  f"verified={bounds.verified}")
    write_json(os.path.join(out_dir, "report.json"), payload)
    return exit_code


def _graph_solution_csv(field, prob, path):
    grid = prob.grid
    g = field.g
    Dg = np.stack([_d1(g, 0, grid.hx), _d1(g, 1, grid.hy)], axis=-1)
    D2g = np.empty(g.shape + (2, 2))
    D2g[..., 0, 0] = _d2(g, 0, grid.hx)
    D2g[..., 1, 1] = _d2(g, 1, grid.hy)
    mixed = _d1(_d1(g, 0, grid.hx), 1, grid.hy)
    D2g[..., 0, 1] = mixed
    D2g[..., 1, 0] = mixed
    lam, A = graph_shape(Dg, D2g)
    X1, X2 = grid.meshes()
    columns = (X1, X2, g, lam[..., 0], lam[..., 1], A)
    write_csv(path, ["x1", "x2", "g", "lambda1", "lambda2", "A_norm"],
              zip(*(c.ravel().tolist() for c in columns)))


def _run_graph(run, out_dir, quiet, echo=None):
    exit_code = EXIT_OK
    payload = {"mode": "solve-graph", "config_echo": echo}
    field = None
    try:
        field, report = dirichlet_newton_solve(run.start, run.problem,
                                               tol=run.tol, max_iter=run.max_iter)
        payload["newton"] = {**_newton_counts(report),
                             "residual_history": report.residual_history,
                             "min_cone_margin": min(report.cone_margin_history)}
    except NonconvergenceError as exc:
        exit_code = EXIT_NONCONVERGENCE
        payload["error"] = str(exc)
        payload["newton"] = _partial_newton(exc)
    if field is not None:
        probe = curvature_bound_probe(field, run.problem)
        payload["probe"] = vars(probe)
        write_json(os.path.join(out_dir, "probe.json"), vars(probe))
        _graph_solution_csv(field, run.problem, os.path.join(out_dir, "solution.csv"))
        if run.surface is not None:
            err = float(np.abs(field.g - exact_field(run.surface, run.problem.grid).g).max())
            payload["manufactured_error_max"] = err
        if not quiet:
            print(f"solve-graph: ratio={probe.ratio:.6f}")
    write_json(os.path.join(out_dir, "report.json"), payload)
    return exit_code


def _run_inequalities(run, out_dir, quiet, echo=None):
    summaries = []
    clean = True
    for cfg in run.configs:
        s = run_campaign(cfg)
        clean &= s.clean
        summaries.append(s)
        if not quiet:
            print(f"campaign n={cfg.n} k={cfg.k}: "
                  f"{'clean' if s.clean else 'HARD FAILURES'}")
    if run.write_records and any(s.margin.size for s in summaries):
        widest = max(run.configs, key=lambda cfg: cfg.n)
        write_campaign_csv(summaries, widest, os.path.join(out_dir, "campaign.csv"))
    ivo_results = []
    for entry in run.ivochkina:
        rep = check_ivochkina_condition(entry["k"], entry["q"], entry["p_box"],
                                        entry["grid"])
        ivo_results.append(vars(rep))
        if not quiet:
            print(f"ivochkina k={entry['k']} q={entry['q']}: holds={rep.holds} "
                  f"worst={rep.worst_margin:.5f}")
    summary_payload = {
        "config_echo": echo,
        "clean": clean,
        "campaigns": [{
            "n": s.cfg.n, "k": s.cfg.k,
            "sample_count": s.cfg.sample_count,
            "seed": s.cfg.seed,
            "counts": {f"{kind}/{status}": v for (kind, status), v in sorted(s.counts.items())},
            "worst_margins": {f"{kind}/alpha={a:g}": m
                              for (kind, a), m in sorted(s.worst_margins.items())},
            "hard_failures": [list(h) for h in s.hard_failures],
            "implication_violations": [list(v) for v in s.implication_violations],
        } for s in summaries],
        "ivochkina": ivo_results,
    }
    write_json(os.path.join(out_dir, "summary.json"), summary_payload)
    return EXIT_OK if clean else EXIT_HARD_FAILURE


def _run_study(run, out_dir, quiet, echo=None):
    kind = run.kind
    params = run.params
    rows = []
    exit_code = EXIT_OK
    try:
        if kind == "ellipsoid-curvature":
            a, b, c = params.get("ellipsoid", (1.15, 1.0, 0.9))
            header = ["n_theta", "n_phi", "err_l2", "order_l2",
                      "err_offpole", "order_offpole"]
            prev = (None, None)
            for nt, nph in params["grids"]:
                grid = build_grid(int(nt), int(nph))
                geo = radial_geometry(ellipsoid_radial_field(grid, a, b, c))
                lam_exact = np.sort(ellipsoid_principal_curvatures(
                    geo.X.reshape(-1, 3), a, b, c), axis=-1).reshape(geo.principal.shape)
                diff = np.linalg.norm(geo.principal - lam_exact, axis=-1)
                e_l2 = field_norm(grid, diff, "l2")
                keep = np.abs(np.cos(grid.theta)) <= 0.8
                e_s = float(diff[keep].max())
                rows.append((nt, nph, e_l2, _order_cell(prev[0], e_l2),
                             e_s, _order_cell(prev[1], e_s)))
                prev = (e_l2, e_s)
        elif kind == "structure-equations":
            rho_poly = _build_poly(params.get("rho", [[2.0, 0, 0, 0], [0.3, 0, 0, 1],
                                                      [0.2, 1, 1, 0]]), "problem.rho")
            header = ["n_theta", "n_phi", "gauss_l2", "order_gauss",
                      "support_l2", "order_support"]
            prev = (None, None)
            for nt, nph in params["grids"]:
                grid = build_grid(int(nt), int(nph))
                f = RadialField(grid, rho_poly.eval_unit_vectors(grid.nodes))
                sr = structure_equation_residuals(radial_geometry(f))
                rows.append((nt, nph, sr.l2_gauss, _order_cell(prev[0], sr.l2_gauss),
                             sr.l2_support, _order_cell(prev[1], sr.l2_support)))
                prev = (sr.l2_gauss, sr.l2_support)
        elif kind == "measure-homotopy":
            op = _build_operator(params["operator"], "problem.operator")
            phi = _build_poly(params["phi"], "problem.phi")
            p = float(params["p"])
            tol = float(params["solver"].get("tol", 1e-9))
            header = ["n_theta", "n_phi", "residual_max", "diff_to_prev_l2", "order"]
            sols = []
            prev_diff = None
            for nt, nph in params["grids"]:
                grid = build_grid(int(nt), int(nph))
                prob = MeasureProblem(op, p, phi, grid)
                sched = HomotopySchedule(newton_tol=tol)
                field, _ = homotopy_solve(prob, sched)
                res_max = verify_apriori_bounds(field, prob).residual_max
                if sols:
                    d = field_difference(sols[-1], field, "l2")
                    rows.append((nt, nph, res_max, d, _order_cell(prev_diff, d)))
                    prev_diff = d
                else:
                    rows.append((nt, nph, res_max, "n/a", "n/a"))
                sols.append(field)
        elif kind == "graph-manufactured":
            surface = _build_surface(params.get("surface", {"kind": "cap", "radius": 2.0}),
                                     "problem.surface")
            k = int(params.get("k", 2))
            q = float(params.get("q", 0.0))
            dom = params.get("domain", (-1.0, 1.0, -1.0, 1.0))
            tol = float(params["solver"].get("tol", 1e-10))
            header = ["nx", "ny", "err_max", "order"]
            prev = None
            for nx, ny in params["grids"]:
                grid = RectGrid(float(dom[0]), float(dom[1]), float(dom[2]),
                                float(dom[3]), int(nx), int(ny))
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    prob = GraphProblem(grid, k, q,
                                        GraphRHS(samples=manufactured_H(surface, k, q, grid)),
                                        dirichlet_boundary_from(surface, grid))
                sol, _ = dirichlet_newton_solve(manufactured_start(surface, grid), prob,
                                                tol=tol)
                err = float(np.abs(sol.g - exact_field(surface, grid).g).max())
                rows.append((nx, ny, err, _order_cell(prev, err)))
                prev = err
        elif kind == "graph-bound-probe":
            qs = [float(q) for q in params.get("q_list", (-1.0, -0.5, 0.0, 0.5, 1.0))]
            header = ["q", "nx", "ny", "sup_int_A", "sup_bnd_A", "ratio", "converged"]
            campaign = bound_probe_campaign(
                qs, [(int(a), int(b)) for a, b in params["grids"]],
                k=int(params.get("k", 2)), radius=float(params.get("radius", 2.0)))
            rows = [(r.q, r.nx, r.ny, r.sup_int_A, r.sup_bnd_A, r.ratio, r.converged)
                    for r in campaign]
            if not all(r.converged for r in campaign):
                exit_code = EXIT_NONCONVERGENCE
    except NonconvergenceError as exc:
        exit_code = EXIT_NONCONVERGENCE
        if not quiet:
            print(f"study aborted: {exc}", file=sys.stderr)
    write_csv(os.path.join(out_dir, "study.csv"), header, rows)
    if not quiet:
        for row in rows:
            print(",".join(str(v) for v in row))
    return exit_code


# ---------------------------------------------------------------------------
# entry point


def run(run_config, out_dir, config_path=None, quiet=False):
    """Dispatch a parsed RunConfig and emit artifacts plus the manifest."""
    os.makedirs(out_dir, exist_ok=True)
    started = utc_now()
    runner = {
        "solve-measure": _run_measure,
        "solve-graph": _run_graph,
        "verify-inequalities": _run_inequalities,
        "convergence-study": _run_study,
    }[run_config.mode]
    code = runner(run_config.payload, out_dir, quiet, echo=run_config.echo)
    input_hashes = {}
    if config_path is not None and os.path.exists(config_path):
        input_hashes["config"] = sha256_file(config_path)
    write_manifest(out_dir, run_config.echo, input_hashes, started)
    return code


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; the exit-code
    contract reserves 2 for nonconvergence, so remap usage to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def main(argv=None):
    parser = _Parser(
        prog="prescurv",
        description="Prescribed-curvature solvers and verification lab")
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument("--version", action="version", version=__version__)
    args = parser.parse_args(argv)
    try:
        run_config = parse_config(args.config, mode=args.mode, seed_override=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return run(run_config, args.out, config_path=args.config, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
