"""The names the traced benchmark run (bench/tracing.py) binds to.

The tracer wraps program functions by module attribute and drops every
metric whose name no longer resolves, so a rename in src/ silently thins
the traced result.  These tests read bench/tracing.py without importing it
as a package module and check each name it relies on.
"""

import importlib
import inspect
import json
import os
import runpy
import subprocess
import sys

import prescurv
from prescurv import graph_solver, inequality_lab, measure_solver, newton_core
from prescurv.cli import parse_config
from prescurv.polynomials import Poly3
from prescurv.sphere_geometry import SphericalGrid, build_grid
from prescurv.symmfunc import OperatorSpec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACING = os.path.join(ROOT, "bench", "tracing.py")


def tracing_names():
    return runpy.run_path(TRACING)


def test_every_traced_span_resolves():
    for span, (mod_name, attr) in tracing_names()["SPANS"].items():
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), span


def test_wrapped_names_exist():
    assert callable(SphericalGrid.column_groups)
    assert callable(inequality_lab.in_gamma_k)
    for mod_name in tracing_names()["NEWTON_CALLERS"]:
        assert importlib.import_module(mod_name).damped_newton is newton_core.damped_newton
    assert measure_solver.damped_newton is graph_solver.damped_newton


def test_traced_call_signatures():
    # the tracer sizes the Jacobian from fd_jacobian's first argument and
    # wraps the evaluation callable passed second to damped_newton
    assert list(inspect.signature(newton_core.fd_jacobian).parameters)[0] == "x"
    assert list(inspect.signature(newton_core.damped_newton).parameters)[:2] == [
        "x0", "eval_fn"]


def traced_metrics(run_code=""):
    """Layer metrics of a fresh process that installs the tracer after
    importing prescurv.cli and then executes run_code."""
    src = os.path.dirname(os.path.dirname(prescurv.__file__))
    code = ("import json, runpy; import prescurv.cli\n"
            f"t = runpy.run_path({TRACING!r}); tr = t['Tracer'](); t['install'](tr)\n"
            f"{run_code}\nprint(json.dumps(t['layer_metrics'](tr, 0)))")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_installed_tracer_reports_every_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    declared.discard("trace.overhead_s")    # measured by bench/run.py, not the tracer
    assert set(traced_metrics()) == declared


def test_traced_lab_campaign_counts_every_sampler_cone_test(tmp_path, monkeypatch):
    # sample_attempts counts the in_gamma_k calls made inside sample_gamma_k,
    # so a sampler that stops calling in_gamma_k reports no attempts
    samples = 20
    config = tmp_path / "lab.json"
    config.write_text(json.dumps({
        "mode": "verify-inequalities", "seed": 3,
        "problem": {"pairs": [[3, 2], [5, 3]], "sample_count": samples,
                    "alpha_list": [1.0]}}))
    metrics = traced_metrics(
        f"prescurv.cli.run(prescurv.cli.parse_config({str(config)!r}), "
        f"{str(tmp_path / 'out')!r}, quiet=True)")
    calls = 0
    cone_test = inequality_lab.in_gamma_k

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return cone_test(*args, **kwargs)

    monkeypatch.setattr(inequality_lab, "in_gamma_k", counted)
    configs = parse_config(str(config)).payload.configs
    for cfg in configs:
        for i in range(samples):
            inequality_lab.sample_gamma_k(cfg, inequality_lab.sample_rng(cfg, i))
    assert metrics["inequality_lab.sample_attempts"] == calls
    assert calls >= samples * len(configs)
    assert metrics["inequality_lab.sample_accept_ratio"] == samples * len(configs) / calls


def test_traced_homotopy_counts_factorizations_and_corrections():
    # jacobian_evals counts fd_jacobian calls and iterations the accepted
    # corrections; with chord steps they differ, and each must match the
    # SolveReport counts that the homotopy trace carries
    metrics = traced_metrics(
        "from prescurv import measure_solver as ms\n"
        "from prescurv.polynomials import Poly3\n"
        "from prescurv.sphere_geometry import build_grid\n"
        "from prescurv.symmfunc import OperatorSpec\n"
        "ms.homotopy_solve(ms.MeasureProblem(OperatorSpec('sigma_k', k=2), 1.0, "
        "Poly3(((1.0, (0, 0, 0)), (0.2, (0, 0, 1)))), build_grid(16, 32)))")
    _, trace = measure_solver.homotopy_solve(measure_solver.MeasureProblem(
        OperatorSpec("sigma_k", k=2), 1.0, Poly3(((1.0, (0, 0, 0)), (0.2, (0, 0, 1)))),
        build_grid(16, 32)))
    assert not trace.rejections
    factorizations = sum(s.factorizations for s in trace.steps)
    corrections = sum(s.newton_iters for s in trace.steps)
    assert corrections > factorizations > 0
    assert metrics["newton_core.jacobian_evals"] == factorizations
    assert metrics["newton_core.iterations"] == corrections
