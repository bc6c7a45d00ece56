"""groupnet benchmark: run workloads, each in a process of its own.

    python3 bench/run.py --workload sparse-large --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  Each workload runs in a fresh child
process with every BLAS/OpenMP pool pinned to one thread, so the child is
the only source of load and uses one core.  setup_s is timed from just
before the child starts to the moment its inputs are loaded.  The last
stdout line is one JSON object with the keys correct, attempted, failed
and metrics (end-to-end metrics with --trace 0, per-layer ones with
--trace 1); it is also written to bench/out/.  --workload all runs every
workload in turn and prints one line each.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def run_workload(name, seed, seconds, trace) -> dict:
    """Run one workload in a child process; returns its result object or
    exits non-zero without one."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", str(OUT_DIR)]
    started = time.monotonic()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env) as child:
        try:
            stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            sys.exit(f"bench: {name} ran past {CHILD_TIMEOUT_S} s")
    lines = stdout.decode().strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.exit(f"bench: {name} exited with code {child.returncode}")
    result = json.loads(lines[-1])
    setup_s = result.pop("setup_done") - started
    if not trace:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": result["metrics"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="measure whole rounds for about this many "
                             "seconds (at least one round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    OUT_DIR.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        line = json.dumps(result)
        path = OUT_DIR / f"result-{name}-{args.seed}-trace{args.trace}.json"
        path.write_text(line + "\n", encoding="utf-8")
        print(line, flush=True)


if __name__ == "__main__":
    main()
