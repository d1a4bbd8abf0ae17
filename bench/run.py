"""Benchmark of prescurv through its CLI entry, one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs as many whole rounds of one workload (see workloads.py) as fit in S
seconds, and at least two.  Each round is a fresh worker process
(worker.py) that calls ``prescurv.cli.parse_config`` and
``prescurv.cli.run`` with the BLAS thread count fixed.  After each round the
outputs are checked apart from the program (checks.py); an operation is one
CLI run, and it fails when its exit code is not 0 or a check on its output
does not hold.

--trace 0 reports the end-to-end metrics, medians over the run:
    wall_s       first parsed config to the return of cli.run
    setup_s      process start to the first parsed config; besides the
                 rounds' own, SETUP_SAMPLES set-up-only workers are timed
    peak_rss_mb  peak resident set of the worker
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of the traced ones (tracing.py) and the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Outputs go to .bench_out/ at the
root of the checkout.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

MIN_ROUNDS = 2
SETUP_SAMPLES = 5
BUDGET_S = 160           # a run stops starting rounds that would end past this
WORKER_TIMEOUT_S = 150

import checks  # noqa: E402  (after the thread count is fixed for numpy)
from workloads import WORKLOADS  # noqa: E402

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {"_s": "s", "_mb": "MB", "_ratio": "ratio"}


def environment():
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": version("scipy"),
            "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count()}


class Worker:
    """Spawns worker.py on a job and reads its result line."""

    def __init__(self, work_dir):
        self.work_dir = work_dir
        self.env = dict(os.environ)
        self.env.pop("PYTHONPATH", None)

    def run(self, runs, setup_only=False, trace=False, timeout=WORKER_TIMEOUT_S):
        job = os.path.join(self.work_dir, "job.json")
        spans = os.path.join(self.work_dir, "spans.jsonl")
        with open(job, "w") as fh:
            json.dump({"src": SRC, "runs": runs, "setup_only": setup_only,
                       "trace": trace, "spans": spans}, fh)
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), job],
                                  env=self.env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, "worker timed out"
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return None, (proc.stderr.strip().splitlines() or ["no output"])[-1]
        result = json.loads(lines[-1])
        result["setup_s"] = result["parsed_at"] - spawned
        return result, None


def make_configs(workload, seed, work_dir):
    paths = []
    for i, cfg in enumerate(WORKLOADS[workload](seed)):
        path = os.path.join(work_dir, f"config{i}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=1)
        paths.append(path)
    return paths


def check_round(workload, out_dirs, codes, seed, state):
    """Problems of each operation of one round (one list per CLI run)."""
    problems, digests = [], []
    for out_dir, code in zip(out_dirs, codes):
        probs, files = checks.manifest(out_dir) if code == 0 else ([f"exit code {code}"], {})
        problems.append(probs)
        digests.append(files)
    try:
        _check_outputs(workload, out_dirs, codes, digests, seed, state, problems)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems[-1].append(f"output unreadable: {exc!r}")
    return problems


def _check_outputs(workload, out_dirs, codes, digests, seed, state, problems):
    if workload == "sphere-homotopy":
        if codes[0] == 0:
            probs, state["figures"] = checks.sphere(out_dirs[0])
            problems[0] += probs
    elif workload == "graph-dirichlet" and all(c == 0 for c in codes):
        # a rung that exited non-zero is already counted; no order without it
        errors = [checks.graph_error(d) for d in out_dirs]
        for i, probs in enumerate(checks.graph_orders(errors), start=1):
            problems[i] += probs
        state["figures"] = {"max_errors": errors}
    elif workload == "lab-campaign" and codes[0] == 0:
        # Payloads must be byte-identical across the rounds of a run, so the
        # full check of the first round's output holds for the later ones.
        if "payload" not in state:
            probs, state["figures"] = checks.lab(out_dirs[0], seed)
            state["payload"] = (digests[0], probs)
        first, probs = state["payload"]
        problems[0] += probs if digests[0] == first else [
            "payload files differ from the run's first round"]


def run_workload(workload, seed, seconds, trace):
    """Rounds of one workload; prints progress and returns the result object,
    or None when not even a set-up-only worker runs."""
    work_dir = os.path.join(OUT, workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    configs = make_configs(workload, seed, work_dir)
    round_dir = os.path.join(work_dir, "round")
    out_dirs = [os.path.join(round_dir, f"op{i}") for i in range(len(configs))]
    worker = Worker(work_dir)

    # warm-up: fills the bytecode and file caches; not timed
    _, err = worker.run([[configs[0], out_dirs[0]]], setup_only=True)
    if err:
        print(f"bench: set-up failed: {err}", file=sys.stderr)
        return None
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            res, err = worker.run([[configs[0], out_dirs[0]]], setup_only=True)
            if res:
                setups.append(res["setup_s"])

    started = time.monotonic()
    walls = {False: [], True: []}
    rss, layers = [], []
    attempted = failed = 0
    wrong_output = False
    state = {}
    n_round = 0
    while True:
        elapsed = time.monotonic() - started
        per_round = elapsed / n_round if n_round else 0.0
        if n_round >= MIN_ROUNDS:
            if elapsed + per_round > BUDGET_S:
                break
            # stop before a round that would end past --seconds
            if elapsed + per_round > seconds and (walls[True] or not trace):
                break
        traced = bool(trace) and n_round % 2 == 1
        shutil.rmtree(round_dir, ignore_errors=True)
        os.makedirs(round_dir)
        res, err = worker.run([[c, d] for c, d in zip(configs, out_dirs)], trace=traced,
                              timeout=max(1.0, BUDGET_S - elapsed))
        n_round += 1
        attempted += len(configs)
        if res is None:
            failed += len(configs)
            print(f"round {n_round}: worker failed: {err}", flush=True)
            continue
        walls[traced].append(res["wall_s"])
        if traced:
            layers.append(res["layers"])
        else:
            setups.append(res["setup_s"])
            rss.append(res["peak_rss_mb"])
        problems = check_round(workload, out_dirs, res["codes"], seed, state)
        for code, probs in zip(res["codes"], problems):
            if probs:
                failed += 1
                wrong_output |= code == 0
                print(f"round {n_round}: " + "; ".join(probs), flush=True)
        print(f"round {n_round}{' (traced)' if traced else ''}: wall_s={res['wall_s']:.4f} "
              f"checks={json.dumps(state.get('figures'))}", flush=True)

    metrics = {}
    if not trace:
        values = {"wall_s": walls[False], "setup_s": setups, "peak_rss_mb": rss}
        for name, vals in values.items():
            if vals:
                metrics[name] = {"value": statistics.median(vals), "unit": UNITS[name]}
                print(f"{workload} {name}: {statistics.median(vals):.4f} {UNITS[name]} "
                      f"(median of {len(vals)})")
    elif layers:
        for name in layers[0]:
            value = statistics.median(lay[name] for lay in layers)
            unit = next((u for suffix, u in LAYER_UNITS.items() if name.endswith(suffix)),
                        "count")
            metrics[name] = {"value": value, "unit": unit}
            print(f"{workload} {name}: {value:.6g} {unit}")
        if walls[False]:
            overhead = statistics.median(walls[True]) - statistics.median(walls[False])
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
            print(f"{workload} tracing overhead: {overhead:.4f} s (traced wall_s "
                  f"{statistics.median(walls[True]):.4f} s, untraced "
                  f"{statistics.median(walls[False]):.4f} s); spans in "
                  f"{os.path.relpath(os.path.join(work_dir, 'spans.jsonl'), ROOT)}")
    print(f"{workload} attempted={attempted} failed={failed}", flush=True)
    return {"correct": not wrong_output, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "prescurv", "cli.py")):
        print(f"bench: no prescurv sources under {SRC}", file=sys.stderr)
        return 2
    print("env: " + json.dumps(environment()), flush=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        if results[name] is None:
            return 2
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        # one object for all workloads; metric names carry the workload
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
