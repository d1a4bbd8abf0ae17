"""Run-to-run spread of the end-to-end metrics, as the bounds are set from.

    python3 bench/spread.py --workload NAME [--seeds 1 2 ...] [--seconds S]

Runs bench/run.py once per seed, one run at a time, and prints for each
end-to-end metric the median and the distance between the first and
third quartiles (statistics.quantiles, n=4) as a share of the median,
next to the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    values, failures = {}, []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failures.append((result["failed"], result["attempted"], result["correct"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.4f}" for k, v in values.items()),
              flush=True)
    print(f"failed/attempted/correct per run: {failures}")
    for metric in spec["end_to_end"]:
        vals = values.get(metric["name"], [])
        if len(vals) < 2:
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"{metric['name']}: median {statistics.median(vals):.4f} {metric['unit']}, "
              f"quartile spread {(q3 - q1) / statistics.median(vals):.4f} "
              f"(bound {metric['bound']}), n={len(vals)}")


if __name__ == "__main__":
    main()
