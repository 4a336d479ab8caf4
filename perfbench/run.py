"""Benchmark entry point: one workload, one fresh worker process, one result.

Run from the repository root:

    python3 perfbench/run.py --workload small_n --seed 1 --seconds 30 --trace 0

With --trace 0 it first times SETUP_REPEATS fresh set-up processes, then
runs the workload untraced in a worker process with BLAS/OpenMP threads
pinned to 1, and prints the end-to-end metrics.  With --trace 1 the worker
runs one untraced pass, then traced passes, and the per-layer metrics are
printed instead.  The line before the last is a report with every metric
named in README.md, the environment and the failures against the
known-failure ledger; the last line is the result object.

This file uses only the standard library, so it can refuse to run, with a
non-zero exit, where the program's source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time

from statistics import median

from metrics import PINNED_ENV, unexpected_failures

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("small_n", "large_n", "limit_tables")
SETUP_REPEATS = 5
DEADLINE_S = 170.0

# metric -> (unit, better); the gated ones are END_TO_END
REPORTED = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "mc_trials_per_s": ("1/s", "higher"),
    "kernel_points_per_s": ("1/s", "higher"),
    "limit_points_per_s": ("1/s", "higher"),
    "table_points_per_s": ("1/s", "higher"),
    "rk_evals_per_s": ("1/s", "higher"),
    "charfn_points_per_s": ("1/s", "higher"),
    "check_points_per_s": ("1/s", "higher"),
    "failed_frac": ("ratio", "lower"),
    "ok_frac": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
END_TO_END = ("setup_s", "wall_s", "table_points_per_s", "rk_evals_per_s",
              "check_points_per_s", "ok_frac", "peak_rss_mb")


def git_commit(root: str):
    """The checked-out commit read from .git, or None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref)) as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest(package: str) -> str:
    """sha256 over the program's .py files, for checkouts without .git."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def worker_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env.pop("SPHEFAFFIAN_THREADS", None)
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.perf_counter()
    root = os.getcwd()
    package = os.path.join(root, "src", "sphefaffian")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"error: no program source at {package}; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "ledger.json")) as fh:
        ledger = json.load(fh)["known_failures"]

    env = worker_env()
    worker = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload]
    out_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        setups = []
        if args.trace == 0:
            for i in range(SETUP_REPEATS):
                # a fresh directory per probe, as a first CLI call would see
                probe_dir = os.path.join(out_dir, f"setup{i}")
                os.mkdir(probe_dir)
                spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
                probe = subprocess.run([*worker, "--setup-probe", "--out-dir", probe_dir],
                                       env=env, stdout=subprocess.PIPE, text=True,
                                       timeout=DEADLINE_S - (time.perf_counter() - start))
                if probe.returncode != 0:
                    print(f"error: set-up probe exited {probe.returncode}", file=sys.stderr)
                    return 1
                setups.append(float(probe.stdout.split()[-1]) - spawned)
        proc = subprocess.run(
            [*worker, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out-dir", out_dir],
            env=env, stdout=subprocess.PIPE, text=True,
            timeout=DEADLINE_S - (time.perf_counter() - start),
        )
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {DEADLINE_S:g} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        print(f"error: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    unexpected = unexpected_failures(result["failures"], ledger)
    env_record = {
        "nproc": os.cpu_count(),
        "git_commit": git_commit(root),
        "src_sha256": source_digest(package),
        **result["env"],
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env_record, "passes": result["passes"],
        "pass_wall_s": result["pass_wall_s"],
        "attempted": result["attempted"], "failed": result["failed"],
        "failures": [{"family": f, "N": n, "cause": c, "count": k,
                      "known": [f, n, c, k] not in unexpected}
                     for f, n, c, k in result["failures"]],
    }
    if args.trace == 0:
        values = dict(result["summary"], setup_s=median(setups),
                      peak_rss_mb=result["peak_rss_mb"])
        report["metrics"] = {k: {"value": v, "unit": REPORTED[k][0], "better": REPORTED[k][1]}
                             for k, v in values.items()}
        report["setup_samples_s"] = setups
        metrics = {k: {"value": values[k], "unit": REPORTED[k][0]} for k in END_TO_END}
    else:
        metrics = result["layers"]
        for key in ("probed", "errors_by_type", "untraced_wall_s", "traced_wall_s"):
            report[key] = result[key]
    bad = [k for k, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        print(f"error: non-finite metrics {bad}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not unexpected, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
