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
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass

import numpy as np

from . import __version__
from .errors import ConfigError, NonconvergenceError, SamplingError
from .graph_solver import (
    CapSolution,
    GraphField,
    GraphProblem,
    ParaboloidSolution,
    RectGrid,
    bound_probe_row,
    curvature_bound_probe,
    dirichlet_newton_solve,
    exact_field,
    full_grid_shape,
    manufactured_problem,
    manufactured_start,
)
from .inequality_lab import (
    SampleConfig,
    check_ivochkina_args,
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
from .newton_core import check_limits
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


def _int(value, path):
    """An integral JSON number as an int (int() would truncate 2.9 and take "3")."""
    if type(value) not in (int, float) or type(value) is float and not value.is_integer():
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return int(value)


def _float(value, path):
    """A JSON number as a float (float() would take "12" and true).  Whether
    it must be finite or positive is left to the check that names the rule."""
    if type(value) not in (int, float):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _floats(value, path):
    """The numbers of a JSON list (tuple() would split "12" into digits)."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{path}: expected a list of numbers, got {value!r}")
    return tuple(_float(v, f"{path}[{i}]") for i, v in enumerate(value))


def _float_pair(value, path):
    """The two numbers of a center or a tilt."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{path}: expected two numbers, got {value!r}")
    return _floats(value, path)


def _int_pair(value, path):
    """The two integers of a grid or a pair."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{path}: expected two integers, got {value!r}")
    return [_int(v, f"{path}[{i}]") for i, v in enumerate(value)]


@contextmanager
def _config_path(path):
    """Raise a bad value met in the block as a ConfigError at path; ConfigErrors pass."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"{path}: {exc}")


def _build_poly(entries, path):
    """[[coef, i, j, k], ...] with a number coef and integral powers."""
    if not isinstance(entries, (list, tuple)):
        raise ConfigError(f"{path}: expected a list of [coef, i, j, k] monomials, "
                          f"got {entries!r}")
    for m, entry in enumerate(entries):
        if not isinstance(entry, (list, tuple)) or len(entry) != 4:
            raise ConfigError(f"{path}[{m}]: expected [coef, i, j, k], got {entry!r}")
        _float(entry[0], f"{path}[{m}][0]")
        for q in (1, 2, 3):
            _int(entry[q], f"{path}[{m}][{q}]")
    with _config_path(f"{path}: bad monomial list"):
        return Poly3.from_list(entries)


def _build_operator(d, path):
    _check_keys(d, {"kind", "k", "l"}, path)
    if d.get("kind", "sigma_k") == "sigma_k":
        _check_keys(d, {"kind", "k"}, f"{path} (kind 'sigma_k')")
    with _config_path(path):
        return OperatorSpec(kind=d.get("kind", "sigma_k"), k=_int(_require(d, "k", path),
                            f"{path}.k"), l=_int(d.get("l", 0), f"{path}.l"))


def _build_surface(d, path):
    _check_keys(d, {"kind", "radius", "center", "offset", "tilt", "alpha"}, path)
    kind = _require(d, "kind", path)
    center = _float_pair(d.get("center", (0.0, 0.0)), f"{path}.center")
    offset = _float(d.get("offset", 0.0), f"{path}.offset")
    if kind == "cap":
        _check_keys(d, {"kind", "radius", "center", "offset", "tilt"}, f"{path} (kind 'cap')")
        return CapSolution(_float(_require(d, "radius", path), f"{path}.radius"),
                           center=center, offset=offset,
                           tilt=_float_pair(d.get("tilt", (0.0, 0.0)), f"{path}.tilt"))
    if kind == "paraboloid":
        _check_keys(d, {"kind", "alpha", "center", "offset"}, f"{path} (kind 'paraboloid')")
        return ParaboloidSolution(_float(_require(d, "alpha", path), f"{path}.alpha"),
                                  center=center, offset=offset)
    raise ConfigError(f"{path}: unknown surface kind {kind!r}")


def _sphere_grid(spec, path):
    with _config_path(path):
        return build_grid(*_int_pair(spec, path))


def _rect_grid(domain, spec, path):
    with _config_path(path):
        return RectGrid(*_floats(domain, "problem.domain"), *_int_pair(spec, path))


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
    schedule: HomotopySchedule  # its Newton tol and max_iter also drive method "newton"
    start_radius: float


@dataclass
class GraphRun:
    problem: GraphProblem
    surface: object      # exact solution of the problem; None under poly boundary data
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
    cases: list  # built by _parse_study, one per study.csv row


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
        raise ConfigError(f"config: unknown mode {cfg_mode!r}; expected one of {tuple(MODES)}")
    if mode is not None and mode != cfg_mode:
        raise ConfigError(f"command line mode {mode!r} does not match config mode {cfg_mode!r}")
    seed = _int(raw.get("seed", 0) if seed_override is None else seed_override, "config.seed")
    problem = _require(raw, "problem", "config")
    solver = raw.get("solver", {})
    with _config_path("problem"):
        payload = MODES[cfg_mode][0](problem, solver, seed)
    return RunConfig(mode=cfg_mode, seed=seed, echo=raw, payload=payload)


def _measure_problem(problem, grid):
    """MeasureProblem from a config's operator, p and phi on a built grid."""
    op = _build_operator(_require(problem, "operator", "problem"), "problem.operator")
    p = _float(_require(problem, "p", "problem"), "problem.p")
    phi = _build_poly(_require(problem, "phi", "problem"), "problem.phi")
    return MeasureProblem(op, p, phi, grid)


def _homotopy_schedule(solver):
    """HomotopySchedule from a solver block; absent keys keep its defaults."""
    d = HomotopySchedule()
    return HomotopySchedule(dt_init=_float(solver.get("dt_init", d.dt_init), "solver.dt_init"),
                            dt_min=_float(solver.get("dt_min", d.dt_min), "solver.dt_min"),
                            newton_tol=_float(solver.get("tol", d.newton_tol), "solver.tol"),
                            newton_max_iter=_int(solver.get("max_iter", d.newton_max_iter),
                                                 "solver.max_iter"))


def _manufactured_run(surface, grid, k, q, path, tol, max_iter, perturb_start=1e-2):
    """GraphRun of the surface's manufactured problem; its faults are config errors at path."""
    check_limits(tol=tol, max_iter=max_iter)
    with _config_path(path):
        prob = manufactured_problem(surface, grid, k, q)
    return GraphRun(prob, surface, manufactured_start(surface, grid, perturb_start),
                    tol, max_iter)


def _parse_measure(problem, solver, seed):
    _check_keys(problem, {"operator", "p", "phi", "grid"}, "problem")
    _check_keys(solver, {"method", "tol", "max_iter", "dt_init", "dt_min",
                         "start_radius"}, "solver")
    grid = _sphere_grid(_require(problem, "grid", "problem"), "problem.grid")
    prob = _measure_problem(problem, grid)
    method = solver.get("method", "homotopy")
    if method not in ("homotopy", "newton"):
        raise ConfigError("solver.method must be 'homotopy' or 'newton'")
    _check_keys(solver, {"method", "tol", "max_iter"} | (
        {"dt_init", "dt_min"} if method == "homotopy" else {"start_radius"}),
        f"solver (method {method!r})")
    # 0: the round-sphere radius
    start_radius = _float(solver.get("start_radius", 0.0), "solver.start_radius")
    if not (start_radius >= 0.0 and math.isfinite(start_radius)):
        raise ConfigError(f"solver.start_radius must be finite and >= 0, got {start_radius!r}")
    return MeasureRun(problem=prob, method=method, schedule=_homotopy_schedule(solver),
                      start_radius=start_radius)


def _parse_graph(problem, solver, seed):
    _check_keys(problem, {"domain", "grid", "k", "q", "H", "boundary"}, "problem")
    _check_keys(solver, {"tol", "max_iter", "perturb_start"}, "solver")
    grid = _rect_grid(_require(problem, "domain", "problem"),
                      _require(problem, "grid", "problem"), "problem.domain/grid")
    k = _int(_require(problem, "k", "problem"), "problem.k")
    q = _float(_require(problem, "q", "problem"), "problem.q")
    H_spec = _require(problem, "H", "problem")
    _check_keys(H_spec, {"kind", "terms", "surface"}, "problem.H")
    H_kind = _require(H_spec, "kind", "problem.H")
    if H_kind == "poly":
        raise ConfigError("problem: polynomial-H runs need a manufactured "
                          "surface start; supply H.kind = 'manufactured'")
    if H_kind != "manufactured":
        raise ConfigError("problem.H.kind must be 'poly' or 'manufactured'")
    _check_keys(H_spec, {"kind", "surface"}, "problem.H (kind 'manufactured')")
    surface = _build_surface(_require(H_spec, "surface", "problem.H"),
                             "problem.H.surface")
    perturb = _float(solver.get("perturb_start", 1e-2), "solver.perturb_start")
    if not math.isfinite(perturb):
        raise ConfigError(f"solver.perturb_start must be finite, got {perturb!r}")
    run = _manufactured_run(surface, grid, k, q, "problem.H.surface",
                            _float(solver.get("tol", 1e-9), "solver.tol"),
                            _int(solver.get("max_iter", 40), "solver.max_iter"), perturb)
    bnd_spec = _require(problem, "boundary", "problem")
    _check_keys(bnd_spec, {"kind", "terms"}, "problem.boundary")
    if _require(bnd_spec, "kind", "problem.boundary") == "poly":
        bpoly = _build_poly(_require(bnd_spec, "terms", "problem.boundary"),
                            "problem.boundary.terms")
        X1, X2 = grid.meshes()
        run.problem.boundary = bpoly(X1, X2, np.zeros_like(X1))
        run.surface = None
    elif bnd_spec["kind"] != "surface":
        raise ConfigError("problem.boundary.kind must be 'surface' or 'poly'")
    else:
        _check_keys(bnd_spec, {"kind"}, "problem.boundary (kind 'surface')")
    return run


def _parse_inequalities(problem, solver, seed):
    _check_keys(problem, {"pairs", "alpha_list", "sample_count", "spectrum_box",
                          "direction_scale", "ivochkina", "write_records"},
                "problem")
    _check_keys(solver, set(), "solver")
    pairs = _require(problem, "pairs", "problem")
    if not isinstance(pairs, list):
        raise ConfigError(f"problem.pairs: expected a list of [n, k] pairs, got {pairs!r}")
    # the fields every pair shares are checked alone, so their faults name their key
    shared = {"alpha_list": (0.25, 0.5, 1.0, 2.0), "sample_count": 1000,
              "spectrum_box": (-1.0, 2.0), "direction_scale": (-1.0, 1.0)}
    for key, default in shared.items():
        with _config_path(f"problem.{key}"):
            value = problem.get(key, default)
            shared[key] = (_int(value, f"problem.{key}") if key == "sample_count"
                           else _floats(value, f"problem.{key}"))
            SampleConfig(**{key: shared[key]})
    configs = []
    for pair in pairs:
        with _config_path(f"problem.pairs {pair}"):
            n, k = _int_pair(pair, f"problem.pairs {pair}")
            configs.append(SampleConfig(n=n, k=k, seed=seed, **shared))
    ivo = []
    for i, entry in enumerate(problem.get("ivochkina", [])):
        path = f"problem.ivochkina[{i}]"
        _check_keys(entry, {"k", "q", "p_box", "grid"}, path)
        with _config_path(path):
            k, q, p_box, grid = (_int(_require(entry, "k", path), f"{path}.k"),
                                 _float(_require(entry, "q", path), f"{path}.q"),
                                 _float(entry.get("p_box", 3.0), f"{path}.p_box"),
                                 _int(entry.get("grid", 33), f"{path}.grid"))
            check_ivochkina_args(k, q, p_box, grid)
            ivo.append({"k": k, "q": q, "p_box": p_box, "grid": grid})
    write_records = problem.get("write_records", True)
    if type(write_records) is not bool:
        raise ConfigError(f"problem.write_records: expected true or false, "
                          f"got {write_records!r}")
    return InequalityRun(configs=configs, ivochkina=ivo, write_records=write_records)


# kind: (problem keys besides kind and grids, solver keys, study.csv header);
# the geometry kinds solve nothing and take no solver block, and each
# "order..." column is filled in by _with_orders
_STUDIES = {
    "ellipsoid-curvature": ({"ellipsoid"}, set(),
                            ["n_theta", "n_phi", "err_l2", "order_l2",
                             "err_offpole", "order_offpole"]),
    "structure-equations": ({"rho"}, set(),
                            ["n_theta", "n_phi", "gauss_l2", "order_gauss",
                             "support_l2", "order_support"]),
    "measure-homotopy": ({"operator", "p", "phi"}, {"tol", "max_iter"},
                         ["n_theta", "n_phi", "residual_max", "diff_to_prev_l2", "order"]),
    "graph-manufactured": ({"surface", "k", "q", "domain"}, {"tol", "max_iter"},
                           ["nx", "ny", "err_max", "order"]),
    "graph-bound-probe": ({"q_list", "k", "radius"}, {"tol", "max_iter"},
                          ["q", "nx", "ny", "sup_int_A", "sup_bnd_A", "ratio", "converged"]),
}


def _parse_study(problem, solver, seed):
    """StudyRun with a ready case per grid (per q and grid for the probe)."""
    kind = problem.get("kind") if isinstance(problem, dict) else None
    if kind not in _STUDIES:
        raise ConfigError(f"problem.kind must be one of {tuple(_STUDIES)}")
    problem_keys, solver_keys = _STUDIES[kind][:2]
    _check_keys(problem, {"kind", "grids"} | problem_keys, "problem")
    _check_keys(solver, solver_keys, "solver")
    specs = list(enumerate(_require(problem, "grids", "problem")))
    if not specs:
        raise ConfigError("problem.grids must list at least one grid")
    if kind.startswith("graph"):
        domain = problem.get("domain", (-1.0, 1.0, -1.0, 1.0))
        grids = [_rect_grid(domain, spec, f"problem.grids[{i}]") for i, spec in specs]
    else:
        grids = [_sphere_grid(spec, f"problem.grids[{i}]") for i, spec in specs]
    if kind == "ellipsoid-curvature":
        axes = _floats(problem.get("ellipsoid", (1.15, 1.0, 0.9)), "problem.ellipsoid")
        return StudyRun(kind, [(ellipsoid_radial_field(grid, *axes), axes) for grid in grids])
    if kind == "structure-equations":
        rho = _build_poly(problem.get("rho", [[2.0, 0, 0, 0], [0.3, 0, 0, 1],
                                              [0.2, 1, 1, 0]]), "problem.rho")
        return StudyRun(kind, [RadialField(grid, rho.eval_unit_vectors(grid.nodes))
                               for grid in grids])
    if kind == "measure-homotopy":
        for i in range(1, len(grids)):  # each rung is compared with the one before
            if grids[i].n_phi % grids[i - 1].n_phi:
                raise ConfigError(f"problem.grids[{i}]: n_phi must be a multiple of the "
                                  "previous grid's (nested longitudes)")
        schedule = _homotopy_schedule(solver)
        return StudyRun(kind, [MeasureRun(_measure_problem(problem, grid), "homotopy",
                                          schedule, 0.0) for grid in grids])
    # graph-manufactured: the probe's solve at one q, on any surface, with a tighter tol
    if kind == "graph-manufactured":
        surface = _build_surface(problem.get("surface", {"kind": "cap", "radius": 2.0}),
                                 "problem.surface")
        qs = [_float(problem.get("q", 0.0), "problem.q")]
        path, tol, max_iter = "problem.surface", 1e-10, 30
    else:
        surface = CapSolution(_float(problem.get("radius", 2.0), "problem.radius"))
        qs = _floats(problem.get("q_list", (-1.0, -0.5, 0.0, 0.5, 1.0)), "problem.q_list")
        path, tol, max_iter = "problem.radius", 1e-9, 40
    k, tol, max_iter = (_int(problem.get("k", 2), "problem.k"),
                        _float(solver.get("tol", tol), "solver.tol"),
                        _int(solver.get("max_iter", max_iter), "solver.max_iter"))
    return StudyRun(kind, [_manufactured_run(surface, grid, k, q, path, tol, max_iter)
                           for q in qs for grid in grids])


# ---------------------------------------------------------------------------
# mode runners


def _newton_block(rep):
    """report.json block of a SolveReport; a failed solve adds its message."""
    block = {"iterations": rep.iterations, "factorizations": rep.factorizations,
             "refactor_reasons": rep.refactor_reasons,
             "residual_history": rep.residual_history}
    if not rep.converged:
        block["message"] = rep.message
    return block


def _record_failure(payload, exc):
    """Write a NonconvergenceError into payload (its message, the failure's
    cause and t, the partial newton and homotopy blocks it carries) and
    return the nonconvergence exit code."""
    failure = exc.diagnostics
    payload["error"] = str(exc)
    payload["failure"] = {"cause": failure.cause, "t": failure.t}
    payload["newton"] = _newton_block(failure.report)
    if failure.trace is not None:
        payload["homotopy"] = asdict(failure.trace)
    return EXIT_NONCONVERGENCE


def _run_measure(run, out_dir, quiet, echo=None):
    payload = {"mode": "solve-measure", "config_echo": echo}
    sched = run.schedule
    try:
        if run.method == "homotopy":
            field, trace = homotopy_solve(run.problem, sched)
            payload["homotopy"] = asdict(trace)
        else:
            r0 = run.start_radius or initial_sphere_radius(run.problem.op, run.problem.p)
            field, report = newton_solve(RadialField.constant(run.problem.grid, r0),
                                         run.problem, tol=sched.newton_tol,
                                         max_iter=sched.newton_max_iter)
            payload["newton"] = _newton_block(report)
    except NonconvergenceError as exc:
        exit_code = _record_failure(payload, exc)
    else:
        exit_code = EXIT_OK
        bounds = verify_apriori_bounds(field, run.problem,
                                       residual_tol=max(sched.newton_tol, 1e-8))
        payload["bounds"] = vars(bounds)
        geo = radial_geometry(field)
        export_csv(geo, run.problem.op, os.path.join(out_dir, "solution.csv"))
        export_obj(geo, os.path.join(out_dir, "surface.obj"))
        if not quiet:
            print(f"solve-measure: residual_max={bounds.residual_max:.3e} "
                  f"verified={bounds.verified}")
    write_json(os.path.join(out_dir, "report.json"), payload)
    return exit_code


def _graph_solution_csv(field, path):
    lam, A = full_grid_shape(field)
    write_csv(path, ["x1", "x2", "g", "lambda1", "lambda2", "A_norm"],
              [(*field.grid.meshes(), field.g, lam[..., 0], lam[..., 1], A)])


def _run_graph(run, out_dir, quiet, echo=None):
    payload = {"mode": "solve-graph", "config_echo": echo}
    try:
        field, report = dirichlet_newton_solve(run.start, run.problem,
                                               tol=run.tol, max_iter=run.max_iter)
    except NonconvergenceError as exc:
        exit_code = _record_failure(payload, exc)
    else:
        exit_code = EXIT_OK
        payload["newton"] = {**_newton_block(report),
                             "min_cone_margin": min(report.cone_margin_history)}
        probe = curvature_bound_probe(field, run.problem)
        payload["probe"] = vars(probe)
        write_json(os.path.join(out_dir, "probe.json"), vars(probe))
        _graph_solution_csv(field, os.path.join(out_dir, "solution.csv"))
        if run.surface is not None:
            payload["manufactured_error_max"] = float(
                np.abs(field.g - exact_field(run.surface, field.grid).g).max())
        if not quiet:
            print(f"solve-graph: ratio={probe.ratio:.6f}")
    write_json(os.path.join(out_dir, "report.json"), payload)
    return exit_code


def _run_inequalities(run, out_dir, quiet, echo=None):
    summaries = []
    clean = True
    for cfg in run.configs:
        try:
            s = run_campaign(cfg)
        except SamplingError as exc:    # a box that Gamma_k barely meets
            print(f"config error: problem.spectrum_box: {exc}", file=sys.stderr)
            return EXIT_USAGE
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


def _study_rows(run):
    """Raw study.csv rows, one per case; _with_orders adds the order cells."""
    prev = None  # measure-homotopy: the solution on the grid before
    for case in run.cases:
        if run.kind == "ellipsoid-curvature":
            field, axes = case
            geo = radial_geometry(field)
            lam_exact = np.sort(ellipsoid_principal_curvatures(
                geo.X.reshape(-1, 3), *axes), axis=-1).reshape(geo.principal.shape)
            diff = np.linalg.norm(geo.principal - lam_exact, axis=-1)
            keep = np.abs(np.cos(field.grid.theta)) <= 0.8
            yield (field.grid.n_theta, field.grid.n_phi, field_norm(field.grid, diff),
                   float(diff[keep].max()))
        elif run.kind == "structure-equations":
            sr = structure_equation_residuals(radial_geometry(case))
            yield (case.grid.n_theta, case.grid.n_phi, sr.l2_gauss, sr.l2_support)
        elif run.kind == "measure-homotopy":
            field, _ = homotopy_solve(case.problem, case.schedule)
            res_max = verify_apriori_bounds(field, case.problem).residual_max
            diff = "n/a" if prev is None else field_difference(prev, field)
            yield (field.grid.n_theta, field.grid.n_phi, res_max, diff)
            prev = field
        elif run.kind == "graph-manufactured":
            sol, _ = dirichlet_newton_solve(case.start, case.problem,
                                            tol=case.tol, max_iter=case.max_iter)
            yield (sol.grid.nx, sol.grid.ny,
                   float(np.abs(sol.g - exact_field(case.surface, sol.grid).g).max()))
        else:
            yield astuple(bound_probe_row(case.problem, case.start, case.tol, case.max_iter))


def _with_orders(header, raw_rows):
    """Raw rows with the header's "order..." cells inserted: the observed
    order log2(prev / cur) of the column before, prev its value one row up;
    "n/a" on the first row, after a non-number or at the round-off floor."""
    rows = []
    for raw in raw_rows:
        row = list(raw)
        for i, name in enumerate(header):
            if name.startswith("order"):
                prev, cur = (rows[-1][i - 1] if rows else None), row[i - 1]
                defined = isinstance(prev, float) and min(prev, cur) >= 1e-13
                row.insert(i, f"{math.log2(prev / cur):.3f}" if defined else "n/a")
        rows.append(tuple(row))
    return rows


def _run_study(run, out_dir, quiet, echo=None):
    raw, exit_code = [], EXIT_OK
    try:
        for row in _study_rows(run):
            raw.append(row)
    except NonconvergenceError as exc:
        exit_code = EXIT_NONCONVERGENCE
        if not quiet:
            print(f"study aborted: {exc}", file=sys.stderr)
    if run.kind == "graph-bound-probe" and not all(row[-1] for row in raw):
        exit_code = EXIT_NONCONVERGENCE
    header = _STUDIES[run.kind][2]
    rows = _with_orders(header, raw)
    write_csv(os.path.join(out_dir, "study.csv"), header, [list(zip(*rows))])
    if not quiet:
        for row in rows:
            print(",".join(str(v) for v in row))
    return exit_code


# ---------------------------------------------------------------------------
# entry point

# mode: (parser of its problem and solver blocks, runner of the parsed payload)
MODES = {
    "solve-measure": (_parse_measure, _run_measure),
    "solve-graph": (_parse_graph, _run_graph),
    "verify-inequalities": (_parse_inequalities, _run_inequalities),
    "convergence-study": (_parse_study, _run_study),
}


def run(run_config, out_dir, config_path=None, quiet=False):
    """Dispatch a parsed RunConfig and emit artifacts plus the manifest."""
    os.makedirs(out_dir, exist_ok=True)
    started = utc_now()
    runner = MODES[run_config.mode][1]
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
    parser.add_argument("mode", choices=tuple(MODES))
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
