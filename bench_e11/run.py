"""E11: the served-path benchmark of the session service.

Usage, from the repository root::

    python3 bench_e11/run.py --workload small-churn --seed 1 --seconds 10 \\
        --trace 0

``--trace 0`` drives a real ``python -m repro serve`` subprocess over TCP
and reports the end-to-end metrics; ``--trace 1`` replays a fixed-length
script down the in-process layer ladder with spans around every layer's
public calls and reports the per-layer metrics.  Either way the last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``bench_e11/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)

#: shard workers of the served run (never more than the cores).
MAX_SHARDS = 2


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("small-churn", "large-program", "aging-session"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(REPO, "src", "repro", "__init__.py")):
        print("bench_e11: no repro sources under src/ next to the benchmark",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(REPO, "src"))
    sys.path.insert(0, HERE)
    from served import become_subreaper
    from workloads import build

    nproc = os.cpu_count() or 1
    shards = max(1, min(MAX_SHARDS, nproc))
    work = os.path.join(REPO, ".bench_e11_work", f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    become_subreaper()
    try:
        if args.trace:
            from ladder import trace_run
            result = trace_run(REPO, work, args.workload, args.seed, shards)
            shares = {k.replace("share.", "").replace("_share", ""): v
                      for k, (v, _u) in result["metrics"].items()
                      if k.startswith("share.") or k == "unattributed_share"}
            print(f"# {args.workload} seed {args.seed}: share of a served "
                  "write by layer: "
                  + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
        else:
            from e2e import Run
            workload = build(args.workload, args.seed, args.seconds,
                             nconn=shards)
            run = Run(REPO, work, workload, args.seconds, shards)
            metrics = run.run()
            print(f"# {args.workload} seed {args.seed}: "
                  + json.dumps(run.report, sort_keys=True))
            result = {"gate": run.gate, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    gate = result["gate"]
    for problem in gate.problems:
        print(f"# FAILED: {problem}")
    print(json.dumps({
        "correct": gate.failed == 0 and gate.attempted > 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
