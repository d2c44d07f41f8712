"""Benchmark for qsvtsim: one workload per call, run in fresh child processes.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep_cold --seed 0 --seconds 20 --trace 0

Workloads: sweep_cold, frontier, estimate_mix (see README.md).  With
--trace 0 the last stdout line holds the end-to-end metrics; with --trace 1
it holds the per-layer metrics of a traced run and the tracing overhead.
The children see OPENBLAS/OMP/MKL thread counts of one; set-up is timed in
SETUPS children and reported as their median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep_cold", "frontier", "estimate_mix")
SETUPS = 3
DEADLINE_S = 170.0
ONE_THREAD = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def _child(args, env, deadline, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, capture_output=True,
                          text=True, timeout=max(deadline - t0, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{args.workload}: child process exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def main(argv=None):
    deadline = time.monotonic() + DEADLINE_S
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must lie in [1, 60]")

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "qsvtsim", "__init__.py")):
        sys.exit(f"no qsvtsim sources under {src}; run from the root of a checkout")
    env = dict(os.environ, PYTHONPATH=src, **ONE_THREAD)

    setups = []
    if not args.trace:
        for _ in range(SETUPS - 1):
            setups.append(_child(args, env, deadline, setup_only=True)[1]["setup_s"])
    lines, result = _child(args, env, deadline)
    metrics = result["metrics"]
    if not args.trace:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.9g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
