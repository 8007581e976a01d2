"""rewardlab benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; rewardlab is imported from ./src.
Every measurement runs in a fresh interpreter (perfbench/worker.py) with BLAS
pinned to one thread. Set-up time is the median over several fresh
interpreters, after one untimed interpreter has warmed the bytecode and file
caches; half of them run before the measured interpreter and half after it,
so the median spans the host's speed over the whole run. The last line of
standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under ``--trace 0`` and the per-layer metrics of
the traced run under ``--trace 1``. The line before it carries the run
details (environment, input and report digests, named metrics). Exits
non-zero without a result when the checkout has no rewardlab source or a
measurement fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("registry", "decide", "solve-large")
SETUP_REPEATS = 6  # timed set-ups on each side of the measured run
TIME_LIMIT_S = 170.0  # the whole run, all interpreters included
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def _worker(env, args, timeout):
    """Run the worker in a fresh interpreter and return its last stdout line as JSON."""
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], env=env, capture_output=True,
                              text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out after {exc.timeout:.0f}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description="rewardlab benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rewardlab", "__init__.py")):
        print(f"error: no rewardlab source under {src}; run from a checkout root", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    env = dict(os.environ, **PINNED, PYTHONPATH=src, PYTHONHASHSEED="0")
    # Start-up is measured with bytecode caches, as an installed CLI has them,
    # whatever the caller's setting.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    start = time.monotonic()
    try:
        setups = []

        def time_setups(count):
            for _ in range(count):
                left = TIME_LIMIT_S - (time.monotonic() - start)
                doc = _worker(env, common + ["--setup-only"], timeout=min(30.0, left))
                setups.append(doc["setup_s"])

        if not args.trace:
            # This interpreter writes bytecode caches; it is not timed.
            _worker(env, common + ["--setup-only"], timeout=30)
            time_setups(SETUP_REPEATS)
        result = _worker(env, common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                         timeout=TIME_LIMIT_S - 30 - (time.monotonic() - start))
        if not args.trace:
            time_setups(SETUP_REPEATS)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    details = result["details"]
    if not args.trace:
        setups.append(result["setup_s"])
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
        details["setup_samples_s"] = setups
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
