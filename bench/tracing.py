"""Traced run: spans around the public functions of each prescurv module.

The wrappers are installed from outside the package, by rebinding module
attributes (every module that imported the same function object gets the
wrapper), so the program carries no tracing code.  Spans are kept in
memory and written once the run has ended.  A layer's self time is its
span's duration minus the durations of its direct child spans.

A name that the program no longer defines is skipped, and every metric
built on it is left out of the result instead of failing the run.
"""

import json
import sys
import time

# span name -> (module, attribute) of the function it times
SPANS = {
    "cli.parse": ("prescurv.cli", "parse_config"),
    "cli.run": ("prescurv.cli", "run"),
    "measure_solver.homotopy_solve": ("prescurv.measure_solver", "homotopy_solve"),
    "measure_solver.newton_solve": ("prescurv.measure_solver", "newton_solve"),
    "newton_core.fd_jacobian": ("prescurv.newton_core", "fd_jacobian"),
    "sphere_geometry.radial_geometry": ("prescurv.sphere_geometry", "radial_geometry"),
    "graph_solver.dirichlet_newton_solve": ("prescurv.graph_solver",
                                            "dirichlet_newton_solve"),
    "graph_solver.graph_shape": ("prescurv.graph_solver", "graph_shape"),
    "inequality_lab.run_campaign": ("prescurv.inequality_lab", "run_campaign"),
    "inequality_lab.sample_gamma_k": ("prescurv.inequality_lab", "sample_gamma_k"),
    "inequality_lab.sample_rng": ("prescurv.inequality_lab", "sample_rng"),
    "inequality_lab.draw_direction": ("prescurv.inequality_lab", "draw_direction"),
    "inequality_lab.check_ivochkina_condition": ("prescurv.inequality_lab",
                                                 "check_ivochkina_condition"),
    "reporting.write_csv": ("prescurv.reporting", "write_csv"),
    "reporting.write_json": ("prescurv.reporting", "write_json"),
    "reporting.write_manifest": ("prescurv.reporting", "write_manifest"),
    "reporting.export_csv": ("prescurv.sphere_geometry", "export_csv"),
    "reporting.export_obj": ("prescurv.sphere_geometry", "export_obj"),
}
WRITERS = ("reporting.write_csv", "reporting.write_json", "reporting.write_manifest",
           "reporting.export_csv", "reporting.export_obj")
# damped_newton is wrapped per importing module, so that the evaluation
# callable each solver hands it gets its own span
NEWTON_CALLERS = {"prescurv.measure_solver": "measure_solver.eval",
                  "prescurv.graph_solver": "graph_solver.eval"}
NEWTON = "newton_core.damped_newton"
COLOURING = "sphere_geometry.column_groups"
CONE_TESTS = "inequality_lab.in_gamma_k"


class Tracer:
    """Span recorder: each span is [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self.totals = {}
        self.present = set()
        self._stack = []

    def wrap(self, name, fn, on_call=None, on_result=None, on_error=None):
        self.present.add(name)

        def traced(*args, **kwargs):
            if on_call is not None:
                args = on_call(args)
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def count_inside(self, name, parent, fn):
        """Count calls of fn made directly inside a span named parent."""
        self.present.add(name)

        def counted(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][0] == parent:
                self.add(name, 1)
            return fn(*args, **kwargs)

        return counted

    def add(self, name, value):
        self.totals[name] = self.totals.get(name, 0) + value

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def _rebind(old, new):
    """Point every prescurv module attribute bound to old at new."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "prescurv" or mod is None:
            continue
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)


def _second(out):
    """The report or trace of a (solution, report) result."""
    return out[1] if isinstance(out, tuple) and len(out) > 1 else None


def _failure_report(exc):
    diag = getattr(exc, "diagnostics", None)
    return diag[0] if isinstance(diag, tuple) else diag


def install(tracer):
    """Wrap every traced name that the loaded program still defines."""

    def iterations(rep):
        tracer.add("newton_iterations", getattr(rep, "iterations", 0))

    def steps(trace):
        tracer.add("steps_accepted", len(getattr(trace, "steps", [])))
        tracer.add("steps_rejected", len(getattr(trace, "rejections", [])))

    def jacobian_size(args):
        tracer.add("jacobian_bytes", 8 * args[0].size ** 2)
        return args

    hooks = {
        "newton_core.fd_jacobian": dict(on_call=jacobian_size),
        "measure_solver.homotopy_solve": dict(
            on_result=lambda out: steps(_second(out)),
            on_error=lambda exc: steps(getattr(exc, "diagnostics", None))),
    }
    for name, (mod_name, attr) in SPANS.items():
        fn = getattr(sys.modules.get(mod_name), attr, None)
        if fn is not None:
            _rebind(fn, tracer.wrap(name, fn, **hooks.get(name, {})))

    for mod_name, eval_name in NEWTON_CALLERS.items():
        mod = sys.modules.get(mod_name)
        fn = getattr(mod, "damped_newton", None)
        if fn is None:
            continue
        tracer.present.add(eval_name)

        def wrap_eval(args, eval_name=eval_name):
            if len(args) < 2:
                return args
            return (args[0], tracer.wrap(eval_name, args[1])) + tuple(args[2:])

        setattr(mod, "damped_newton", tracer.wrap(
            NEWTON, fn, on_call=wrap_eval,
            on_result=lambda out: iterations(_second(out)),
            on_error=lambda exc: iterations(_failure_report(exc))))

    grid_cls = getattr(sys.modules.get("prescurv.sphere_geometry"), "SphericalGrid", None)
    if getattr(grid_cls, "column_groups", None) is not None:
        grid_cls.column_groups = tracer.wrap(COLOURING, grid_cls.column_groups)

    lab = sys.modules.get("prescurv.inequality_lab")
    if getattr(lab, "in_gamma_k", None) is not None:
        lab.in_gamma_k = tracer.count_inside(CONE_TESTS, "inequality_lab.sample_gamma_k",
                                             lab.in_gamma_k)


def layer_metrics(tracer, written_bytes):
    """Per-layer metrics of one traced worker, keyed by BENCHMARK.json name."""
    spans = tracer.spans
    incl = {}
    self_t = {}
    calls = {}
    child = [0.0] * len(spans)
    direct_evals = 0
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
            if name.endswith(".eval") and spans[parent][0] == NEWTON:
                direct_evals += 1
    for i, (name, start, end, _) in enumerate(spans):
        incl[name] = incl.get(name, 0.0) + (end - start)
        self_t[name] = self_t.get(name, 0.0) + (end - start - child[i])
        calls[name] = calls.get(name, 0) + 1
    have = tracer.present.__contains__
    t = tracer.totals
    out = {}

    def put(metric, value, *needs):
        if all(have(n) for n in needs):
            out[metric] = value

    def ratio(num, den):
        return num / den if den else 0.0

    newton_calls = calls.get(NEWTON, 0)
    trials = direct_evals - newton_calls
    put("newton_core.iterations", t.get("newton_iterations", 0), NEWTON)
    put("newton_core.jacobian_s", incl.get("newton_core.fd_jacobian", 0.0),
        "newton_core.fd_jacobian")
    put("newton_core.jacobian_evals", calls.get("newton_core.fd_jacobian", 0),
        "newton_core.fd_jacobian")
    put("newton_core.jacobian_mb", t.get("jacobian_bytes", 0) / 1e6,
        "newton_core.fd_jacobian")
    put("newton_core.solve_s", self_t.get(NEWTON, 0.0), NEWTON)
    put("newton_core.trial_evals", trials, NEWTON)
    put("newton_core.trial_accept_ratio", ratio(t.get("newton_iterations", 0), trials),
        NEWTON)
    hom = "measure_solver.homotopy_solve"
    put("measure_solver.steps_accepted", t.get("steps_accepted", 0), hom)
    put("measure_solver.steps_rejected", t.get("steps_rejected", 0), hom)
    put("measure_solver.control_s", self_t.get(hom, 0.0), hom)
    put("measure_solver.eval_s", incl.get("measure_solver.eval", 0.0),
        NEWTON, "measure_solver.eval")
    geo = "sphere_geometry.radial_geometry"
    put("sphere_geometry.geometry_s", incl.get(geo, 0.0), geo)
    put("sphere_geometry.geometry_calls", calls.get(geo, 0), geo)
    put("sphere_geometry.colouring_s", incl.get(COLOURING, 0.0), COLOURING)
    put("graph_solver.eval_s", incl.get("graph_solver.eval", 0.0),
        NEWTON, "graph_solver.eval")
    put("graph_solver.shape_s", incl.get("graph_solver.graph_shape", 0.0),
        "graph_solver.graph_shape")
    samp = "inequality_lab.sample_gamma_k"
    attempts = t.get(CONE_TESTS, 0)
    put("inequality_lab.sample_s", incl.get(samp, 0.0), samp)
    put("inequality_lab.sample_attempts", attempts, samp, CONE_TESTS)
    put("inequality_lab.sample_accept_ratio", ratio(calls.get(samp, 0), attempts),
        samp, CONE_TESTS)
    put("inequality_lab.rng_s", incl.get("inequality_lab.sample_rng", 0.0),
        "inequality_lab.sample_rng")
    put("inequality_lab.direction_s", incl.get("inequality_lab.draw_direction", 0.0),
        "inequality_lab.draw_direction")
    put("inequality_lab.kernel_s", self_t.get("inequality_lab.run_campaign", 0.0),
        "inequality_lab.run_campaign")
    put("reporting.write_s", sum(self_t.get(w, 0.0) for w in WRITERS))
    put("reporting.written_mb", written_bytes / 1e6)
    put("cli.self_s", self_t.get("cli.run", 0.0), "cli.run")
    put("cli.parse_s", incl.get("cli.parse", 0.0), "cli.parse")
    return out
