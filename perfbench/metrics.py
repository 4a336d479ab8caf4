"""Metric arithmetic for the benchmark: pure functions over plain data.

Nothing here imports numpy or the program, so the tests can feed it
synthetic op results, spans and CLI files, and run.py can use it before it
knows whether the program is there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import median

# set in every workload process before numpy is imported
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# op kinds; each maps to the throughput metric that counts its work
KINDS = ("mc", "kernel", "limit", "rk", "charfn", "check")
TABLE_KINDS = ("kernel", "limit")


@dataclass(frozen=True)
class OpResult:
    """One execution of one op.

    seconds covers only the program call; verification is not timed.
    work counts the op's units (points, trials, evaluations) and is 0 for
    a failed op, so sums of work are goodput.
    """

    name: str
    kind: str
    family: str
    seconds: float
    work: int
    cause: str | None = None  # None when the op succeeded

    @property
    def ok(self) -> bool:
        return self.cause is None


def goodput(work: float, seconds: float) -> float:
    """Work units of successful ops per second of all ops of the phase."""
    if seconds <= 0:
        raise ValueError(f"phase took no time ({seconds!r} s)")
    return work / seconds


def failed_frac(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("no op attempted")
    return failed / attempted


def pass_summary(results) -> dict:
    """Per-pass end-to-end numbers from the op results of one pass.

    Throughputs are goodput: the work of ops that succeeded, over the
    time of every op of that kind.  A kind absent from the pass is absent
    from the summary.
    """
    results = list(results)
    out = {"wall_s": sum(r.seconds for r in results)}
    seconds = {k: 0.0 for k in KINDS}
    work = {k: 0 for k in KINDS}
    present = set()
    for r in results:
        seconds[r.kind] += r.seconds
        work[r.kind] += r.work
        present.add(r.kind)
    names = {
        "mc": "mc_trials_per_s",
        "kernel": "kernel_points_per_s",
        "limit": "limit_points_per_s",
        "rk": "rk_evals_per_s",
        "charfn": "charfn_points_per_s",
        "check": "check_points_per_s",
    }
    for kind in KINDS:
        if kind in present:
            out[names[kind]] = goodput(work[kind], seconds[kind])
    tables = [k for k in TABLE_KINDS if k in present]
    if tables:
        out["table_points_per_s"] = goodput(
            sum(work[k] for k in tables), sum(seconds[k] for k in tables)
        )
    failed = sum(1 for r in results if not r.ok)
    out["failed_frac"] = failed_frac(failed, len(results))
    out["ok_frac"] = 1.0 - out["failed_frac"]
    return out


def median_pass(passes) -> list:
    """One synthetic pass whose ops take their median seconds and work.

    Every pass runs the same ops on the same inputs, so each op has one
    sample per pass.  Taking the median per op, not per pass, filters a
    slow spell of the machine that hits different ops in different passes.
    An op counts as failed when it failed in most passes.
    """
    merged = []
    for runs in zip(*passes):
        failed = sum(1 for r in runs if not r.ok)
        cause = next((r.cause for r in runs if not r.ok), None) if 2 * failed > len(runs) else None
        merged.append(OpResult(name=runs[0].name, kind=runs[0].kind, family=runs[0].family,
                               seconds=median(r.seconds for r in runs),
                               work=median(r.work for r in runs) if cause is None else 0,
                               cause=cause))
    return merged


def run_summary(passes) -> dict:
    """End-to-end numbers of a run: pass_summary of its median pass."""
    return pass_summary(median_pass(passes))


def op_counts(passes) -> tuple:
    """(attempted, failed) of a run, each op of the list counted once.

    Every pass runs the same ops on the same inputs, so a failing op fails
    in every pass.  Counting it once per pass would tie both totals to how
    many passes fit into the run, a matter of machine speed, not of the
    program.  An op that failed in any pass counts as failed.
    """
    failed = {}
    for results in passes:
        for r in results:
            failed[r.name] = failed.get(r.name, False) or not r.ok
    return len(failed), sum(failed.values())


# -- spans ---------------------------------------------------------------------

@dataclass(frozen=True)
class Span:
    """A timed call of a wrapped program function.

    parent is the index of the enclosing span in the same list, or None.
    units carries a per-call count where one matters (trials of a sample).
    """

    name: str
    tag: str | None
    start: float
    end: float
    parent: int | None
    op: str | None
    units: int = 1

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Self time of each span: its duration minus what its children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.duration - covered(children[i], s.start, s.end) for i, s in enumerate(spans)]


# -- CLI output files ------------------------------------------------------------

def parse_cli_csv(text: str):
    """Split a CLI CSV into (metadata dict, header list, float rows).

    The CLI writes '# key=value' metadata lines, one header line, then
    comma-separated numbers.
    """
    meta = {}
    header = None
    rows = []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(tok) for tok in line.split(",")])
    if header is None:
        raise ValueError("CSV has no header line")
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"row {row!r} does not match header {header!r}")
    return meta, header, rows


def grid_len(spec: str) -> int:
    """Number of points of a lo:hi:step grid spec, endpoints included."""
    lo, hi, step = (float(tok) for tok in spec.split(":"))
    return int(math.floor((hi - lo) / step + 0.5)) + 1


def rel_diff(a: complex, b: complex) -> float:
    """|a - b| relative to the larger magnitude; 0 when both vanish, nan
    when either is nan (compare with `not rel_diff(a, b) <= tol`)."""
    denom = max(abs(a), abs(b))
    return 0.0 if denom == 0 else abs(a - b) / denom


# -- known failures --------------------------------------------------------------

def ledger_explains(entry: dict, family: str, N, cause: str) -> bool:
    """True when a ledger entry covers a failure of (op family, N, cause)."""
    if entry["family"] != family or cause not in entry["causes"]:
        return False
    min_n = entry.get("min_N")
    return min_n is None or (N is not None and N >= min_n)


def unexpected_failures(failures, ledger) -> list:
    """The [family, N, cause, count] failures that no ledger entry explains."""
    return [f for f in failures
            if not any(ledger_explains(e, f[0], f[1], f[2]) for e in ledger)]
