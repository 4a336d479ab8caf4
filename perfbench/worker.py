"""One workload in one fresh process; prints its result as a JSON line.

run.py starts it with metrics.PINNED_ENV set; it is set again here before
numpy is imported, in case the worker is started by hand.  The program is
imported from ./src of the current directory.

    python3 perfbench/worker.py --workload small_n --seed 1 --seconds 30 \
        --trace 0 --out-dir DIR
    python3 perfbench/worker.py --workload small_n --setup-probe --out-dir DIR
"""

import os
import sys

from metrics import PINNED_ENV  # standard library only

os.environ.update(PINNED_ENV)
os.environ.pop("SPHEFAFFIAN_THREADS", None)
sys.path.insert(1, os.path.join(os.getcwd(), "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from statistics import median  # noqa: E402

import sphefaffian  # noqa: E402
import workloads  # noqa: E402
from metrics import op_counts, run_summary  # noqa: E402


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pinned_env": {v: os.environ.get(v) for v in (*PINNED_ENV, "SPHEFAFFIAN_THREADS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only import and warm up, for timing a fresh process")
    args = ap.parse_args(argv)

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(sphefaffian.__file__).startswith(src + os.sep):
        print(f"error: imported {sphefaffian.__file__}, not the program under {src}",
              file=sys.stderr)
        return 2
    workloads.warm_up(args.workload, args.out_dir)
    if args.setup_probe:
        # the monotonic clock is system-wide, so run.py can subtract its
        # own spawn time without waiting for this process to exit
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0

    ctx = workloads.Context(args.seed, args.out_dir)
    ops = workloads.WORKLOADS[args.workload](ctx)
    executor = workloads.Executor(ops)
    result = {"env": environment()}
    if args.trace == 0:
        passes = executor.run_for(args.seconds)
        result["summary"] = run_summary(passes)
    else:
        import layers
        from tracing import Tracer

        # a first untraced pass fills caches and verifies every output; then
        # traced and untraced passes alternate, so both see the same machine
        start = time.perf_counter()
        warm = executor.run_pass()
        tracer = Tracer()
        timed = executor.run_for(args.seconds - (time.perf_counter() - start), (tracer, None))
        traced, untraced = timed[0::2], timed[1::2]
        traced_s = median([sum(r.seconds for r in p) for p in traced])
        untraced_s = median([sum(r.seconds for r in p) for p in untraced])
        overhead = 100.0 * (traced_s / untraced_s - 1.0)
        flat = [r for p in traced for r in p]
        values, probed = layers.layer_metrics(tracer, len(traced), flat, overhead,
                                              args.out_dir)
        result["layers"] = {k: {"value": v, "unit": layers.unit_of(k)}
                            for k, v in values.items()}
        result["probed"] = probed
        result["errors_by_type"] = {f"{layer}.{kind}": n / len(traced)
                                    for (layer, kind), n in sorted(tracer.errors.items())}
        result["untraced_wall_s"] = untraced_s
        result["traced_wall_s"] = traced_s
        passes = [warm, *timed]
    result["passes"] = len(passes)
    result["pass_wall_s"] = [sum(r.seconds for r in p) for p in passes]
    result["attempted"], result["failed"] = op_counts(passes)
    result["failures"] = workloads.failures(passes, ops)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
