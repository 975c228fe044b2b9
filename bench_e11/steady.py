"""Steadiness check: every workload, interleaved by seed, against the bounds.

Usage, from the repository root::

    python3 bench_e11/steady.py --seeds 10 [--first-seed 1]

Runs ``run.py --trace 0`` once per (seed, workload), for every workload
of ``BENCHMARK.json`` and its ``run_seconds``, seeds in the outer loop so
that slow drift on the host spreads over every workload alike.
For each workload and end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (Q3 - Q1) / median, next to the metric's ``bound`` from
``BENCHMARK.json``.  A spread above its bound is flagged ``OVER``, one
above a third of it ``>1/3``; ``setup_s`` is reported but not flagged,
since only its median is held to the bound.  Exits 1 if any run was
incorrect or any spread is over its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def main(argv=None) -> int:
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {w: {m: [] for m in bounds} for w in workloads}
    bad_runs = 0
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for w in workloads:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", w, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=REPO, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if out.returncode == 0 \
                and lines else None
            if result is None or not result["correct"] or result["failed"]:
                bad_runs += 1
                print(f"{w} seed {seed}: FAILED RUN\n{out.stdout[-2000:]}"
                      f"{out.stderr[-2000:]}", flush=True)
                continue
            for m in bounds:
                values[w][m].append(result["metrics"][m]["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{m}={result['metrics'][m]['value']:.4g}" for m in bounds),
                flush=True)
    over = 0
    print(f"\n{'workload':14} {'metric':19} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7} {'bound':>6}")
    for w in workloads:
        for m, bound in bounds.items():
            vals = values[w][m]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if m != "setup_s":
                if spread > bound:
                    flag, over = "OVER", over + 1
                elif spread > bound / 3:
                    flag = ">1/3"
            print(f"{w:14} {m:19} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{spread:7.3f} {bound:6.2f} {flag}")
    return 1 if bad_runs or over else 0


if __name__ == "__main__":
    sys.exit(main())
