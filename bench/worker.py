"""One benchmark worker: a fresh process that runs a workload through the CLI.

    python3 bench/worker.py JOB.json

JOB.json holds the source directory to import ``prescurv`` from, the
``[config path, output directory]`` pairs to run in order, and the flags
``setup_only`` and ``trace``.  The worker parses the first config with
``prescurv.cli.parse_config``; a setup-only worker stops there.  Otherwise
it runs every config through ``prescurv.cli.run`` (parsing the later ones
inside the timed span) and prints, as its last line, one JSON object:

    parsed_at    CLOCK_MONOTONIC reading right after the first parse
    wall_s       first parsed config to the return of the last cli.run
    codes        exit code of each cli.run
    peak_rss_mb  peak resident set of this process, read before exit
    layers       per-layer metrics (traced workers only)

The BLAS thread count is fixed by the parent through the environment.
"""

import json
import os
import resource
import sys
import time


def _dir_bytes(path):
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    from prescurv import cli

    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    runs = job["runs"]
    cfg = cli.parse_config(runs[0][0])
    result = {"parsed_at": time.clock_gettime(time.CLOCK_MONOTONIC)}
    if job["setup_only"]:
        print(json.dumps(result))
        return 0
    codes = []
    start = time.perf_counter()
    for i, (cfg_path, out_dir) in enumerate(runs):
        if i:
            cfg = cli.parse_config(cfg_path)
        codes.append(cli.run(cfg, out_dir, config_path=cfg_path, quiet=True))
    result["wall_s"] = time.perf_counter() - start
    result["codes"] = codes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer is not None:
        written = sum(_dir_bytes(out_dir) for _, out_dir in runs)
        result["layers"] = tracing.layer_metrics(tracer, written)
        tracer.write(job["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
