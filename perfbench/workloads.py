"""The benchmark's three workloads as fixed op lists built from a seed.

Each op drives a coarse public entry point: ``cli.main(argv)`` for tables,
linear statistics and Monte Carlo, and the scalar library functions for
two-route check points and k-point intensities.  Every program function is
looked up on its module at call time, so a traced run sees the calls
through the wrappers of ``tracing``.

An op has a ``run`` (timed, the program's work), a ``verify`` (untimed,
raises OpFailure when an output is wrong, returns the op's work units), a
``digest`` (a fingerprint that later passes must reproduce) and the
``outputs`` it writes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import zlib
from dataclasses import dataclass
from statistics import median
from time import perf_counter
from typing import Callable

import numpy as np

from metrics import OpResult, grid_len, parse_cli_csv, rel_diff
from sphefaffian import cdi, cli, finitekernel, limits, linstat
from sphefaffian.limits import LimitKernelSpec
from sphefaffian.linstat import RadialStatistic
from sphefaffian.params import EnsembleParams, Strong

# Strong(a=1, b=1, p=1): n = 2N, L = N, zoom point in the bulk
STRONG = Strong(a=1.0, b=1.0, p=1.0)
STRONG_ARGS = ["--regime", "strong", "--a", "1", "--b", "1", "--p", "1"]
W_POINT = 0.1 + 0.0j  # the CLI's default --w-point

# the CLI's default tolerances of `check`, plus the origin two-form rule
TOL = {"sop": 1e-10, "cdi": 1e-8, "beta": 1e-9, "ode": 1e-6, "origin_forms": 1e-8}
ROW_TOL = 1e-9  # seeded table rows against the scalar function
VERIFY_ROWS = 8
MC_SIGMAS = 4.0

LIMIT_SPECS = {
    "strong-bulk": LimitKernelSpec("strong_bulk"),
    "strong-edge": LimitKernelSpec("strong_edge"),
    "weak": LimitKernelSpec("weak", rho=2.0),
    "origin": LimitKernelSpec("origin", L=2.0),
}
LIMIT_ARGS = {"weak": ["--rho", "2"], "origin": ["--L", "2"]}


class OpFailure(Exception):
    """An op failed a check; cause names the failure for the ledger."""

    def __init__(self, cause: str):
        super().__init__(cause)
        self.cause = cause


@dataclass(frozen=True)
class Op:
    name: str
    kind: str  # mc | kernel | limit | rk | charfn | check
    family: str  # ledger key, e.g. "check.sop" or "table.limit.weak"
    N: int | None
    run: Callable[[], object]
    verify: Callable[[object], int]
    digest: Callable[[object], bytes]
    outputs: tuple = ()  # files the op writes; removed before each run


class Context:
    """Seeded inputs and the output directory of one workload process."""

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.rng = np.random.default_rng(seed)
        self.sop_systems = {}

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def rows_rng(self, op_name: str) -> np.random.Generator:
        return np.random.default_rng([self.seed, zlib.crc32(op_name.encode())])


# -- CLI ops -----------------------------------------------------------------------

_ERROR_KIND = re.compile(r"^error \(([^)]*)\)", re.MULTILINE)


def run_cli(argv) -> None:
    """cli.main in-process with its console output captured; raises on non-zero exit."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    if rc != 0:
        kind = _ERROR_KIND.search(err.getvalue())
        raise OpFailure(f"exit{rc}" + (f":{kind.group(1)}" if kind else ""))


def _cli_op(name, kind, family, N, argv, verify, outputs) -> Op:
    def digest(_result) -> bytes:
        h = hashlib.sha256()
        for p in outputs:
            with open(p, "rb") as fh:
                h.update(fh.read())
        return h.digest()

    return Op(name, kind, family, N, lambda: run_cli(argv), verify, digest, tuple(outputs))


def _read_table(path: str, expected_rows: int):
    with open(path) as fh:
        _meta, header, rows = parse_cli_csv(fh.read())
    if len(rows) != expected_rows:
        raise OpFailure("wrong_rows")
    if not all(math.isfinite(v) for row in rows for v in row):
        raise OpFailure("nonfinite")
    return header, rows


def _check_rows(ctx, op_name, rows, scalar) -> None:
    """Compare seeded rows (re_z, im_z, re_val, im_val) with the scalar route."""
    rng = ctx.rows_rng(op_name)
    picks = rng.choice(len(rows), size=min(VERIFY_ROWS, len(rows)), replace=False)
    for i in picks:
        re_z, im_z, re_v, im_v = rows[i]
        expect = complex(scalar(complex(re_z, im_z)))
        if not rel_diff(complex(re_v, im_v), expect) <= ROW_TOL:
            raise OpFailure("mismatch")


def kernel_table(ctx: Context, N: int, grid: str) -> Op:
    name = f"table.kernel.N{N}"
    out = ctx.path(name)
    params = STRONG.params_at(N)

    def verify(_):
        _, rows = _read_table(out + ".csv", grid_len(grid) ** 2)
        _check_rows(ctx, name, rows,
                    lambda z: finitekernel.rescaled_kernel(params, STRONG, z, W_POINT))
        return len(rows)

    argv = ["kernel", *STRONG_ARGS, "--N", str(N), "--grid", grid, "--out", out]
    return _cli_op(name, "kernel", "table.kernel", N, argv, verify, [out + ".csv"])


def r1_table(ctx: Context, N: int, grid: str) -> Op:
    name = f"table.r1.N{N}"
    out = ctx.path(name)
    params = STRONG.params_at(N)

    def verify(_):
        _, rows = _read_table(out + ".csv", grid_len(grid) ** 2)
        if any(row[3] != 0.0 for row in rows):
            raise OpFailure("mismatch")
        _check_rows(ctx, name, rows, lambda z: finitekernel.rescaled_r1(params, STRONG, z))
        return len(rows)

    argv = ["kernel", *STRONG_ARGS, "--N", str(N), "--r1", "--grid", grid, "--out", out]
    return _cli_op(name, "kernel", "table.r1", N, argv, verify, [out + ".csv"])


def compare_table(ctx: Context, sizes, grid: str) -> Op:
    """--compare: sup over the grid of |exp(z^2+w^2) K_N - kappa| per N.

    Verified by checking that seeded grid points never exceed the reported
    sup, which re-evaluates both the finite-N and the limiting kernel.
    """
    name = "table.compare"
    out = ctx.path(name)
    spec = LimitKernelSpec("strong_bulk")  # p = 1 lies in the bulk of Strong(1, 1, 1)
    n = grid_len(grid)
    lo = float(grid.split(":")[0])
    step = float(grid.split(":")[2])

    def verify(_):
        with open(out + ".compare.json") as fh:
            payload = json.load(fh)
        sups = payload["sup_error"]
        if payload["N"] != list(sizes) or len(sups) != len(sizes):
            raise OpFailure("wrong_rows")
        if not all(math.isfinite(s) and s >= 0 for s in sups):
            raise OpFailure("nonfinite")
        rng = ctx.rows_rng(name)
        for _ in range(VERIFY_ROWS):
            i, j = rng.integers(n, size=2)
            z = complex(lo + i * step, lo + j * step)
            limit = limits.kappa(spec, z, W_POINT)
            for size, sup in zip(sizes, sups):
                kn = np.exp(z * z + W_POINT * W_POINT) * finitekernel.rescaled_kernel(
                    STRONG.params_at(size), STRONG, z, W_POINT)
                if not abs(kn - limit) <= sup * (1 + ROW_TOL):
                    raise OpFailure("mismatch")
        return n * n * len(sizes)

    argv = ["kernel", *STRONG_ARGS, "--N", "10", "--compare",
            "--N-list", ",".join(str(s) for s in sizes), "--grid", grid, "--out", out]
    return _cli_op(name, "kernel", "table.compare", max(sizes), argv, verify,
                   [out + ".compare.json"])


def limit_table(ctx: Context, limit: str, grid: str) -> Op:
    name = f"table.limit.{limit}"
    out = ctx.path(name)
    spec = LIMIT_SPECS[limit]

    def verify(_):
        _, rows = _read_table(out + ".csv", grid_len(grid) ** 2)
        _check_rows(ctx, name, rows, lambda z: limits.kappa(spec, z, W_POINT))
        return len(rows)

    argv = ["kernel", "--N", "1", "--limit", limit, *LIMIT_ARGS.get(limit, []),
            "--grid", grid, "--out", out]
    return _cli_op(name, "limit", name, None, argv, verify, [out + ".csv"])


def mc_op(ctx: Context, N: int, trials: int) -> Op:
    """linstat --trials at n = 2N, L = N; the MC mean must sit within
    MC_SIGMAS standard errors of exact_mean.  The standard error uses the
    exact finite-N variance, because a sample variance from a handful of
    trials makes the 4-sigma rule fire far more often than its nominal rate.
    """
    name = f"mc.N{N}"
    out = ctx.path(name)
    seed = int(ctx.rng.integers(2**31))

    def verify(_):
        with open(out + ".json") as fh:
            payload = json.load(fh)
        with open(out + ".samples.csv") as fh:
            _, _, rows = parse_cli_csv(fh.read())
        if len(rows) != trials:
            raise OpFailure("wrong_rows")
        values = [payload[k] for k in ("exact_mean", "exact_variance", "mc_mean")]
        if not all(math.isfinite(v) for v in values) or not all(
                math.isfinite(v) for row in rows for v in row):
            raise OpFailure("nonfinite")
        mean, var, mc_mean = values
        if abs(mc_mean - mean) > MC_SIGMAS * math.sqrt(var / trials):
            raise OpFailure("mc_mean")
        return trials

    argv = ["linstat", "--b", "r2", "--N", str(N), "--n", str(2 * N), "--L", str(N),
            "--trials", str(trials), "--seed", str(seed), "--out", out]
    return _cli_op(name, "mc", "mc", N, argv, verify, [out + ".json", out + ".samples.csv"])


def charfn_op(ctx: Context, N: int, grid: str) -> Op:
    name = f"charfn.N{N}"
    out = ctx.path(name)
    params = STRONG.params_at(N)
    stat = RadialStatistic.r_squared()

    def verify(_):
        _, rows = _read_table(out + ".charfn.csv", grid_len(grid))
        if any(abs(complex(re_p, im_p)) > 1 + ROW_TOL for _, re_p, im_p in rows):
            raise OpFailure("out_of_range")
        rng = ctx.rows_rng(name)
        for i in rng.choice(len(rows), size=min(VERIFY_ROWS, len(rows)), replace=False):
            k, re_p, im_p = rows[i]
            expect = linstat.char_function(params, stat, k)
            if not rel_diff(complex(re_p, im_p), expect) <= ROW_TOL:
                raise OpFailure("mismatch")
        return len(rows)

    argv = ["linstat", "--b", "r2", "--regime", "strong", "--a", "1", "--b-param", "1",
            "--N", str(N), "--charfn", "--k", grid, "--out", out]
    return _cli_op(name, "charfn", "charfn", N, argv, verify, [out + ".charfn.csv"])


# -- scalar ops ----------------------------------------------------------------------

def _value_digest(value) -> bytes:
    return repr(value).encode()


def _rk_verify(r1_of, points):
    """R_k must be finite and, being an intensity, not below zero by more
    than rounding relative to the product of the one-point intensities."""

    def verify(value):
        if not math.isfinite(value):
            raise OpFailure("nonfinite")
        scale = math.prod(abs(r1_of([p])) for p in points) if len(points) > 1 else abs(value)
        if not value >= -1e-9 * scale:
            raise OpFailure("negative")
        return 1

    return verify


def rk_ops(ctx: Context, N: int, per_k: int):
    """correlation_rk at points inside the droplet annulus (|zeta| in 0.8..1.3)."""
    params = STRONG.params_at(N)
    ops = []
    for k in (1, 2, 3):
        for i in range(per_k):
            r = ctx.rng.uniform(0.8, 1.3, size=k)
            theta = ctx.rng.uniform(0.2, math.pi - 0.2, size=k)
            pts = [complex(a * math.cos(t), a * math.sin(t)) for a, t in zip(r, theta)]
            ops.append(Op(
                f"rk.N{N}.k{k}.{i}", "rk", "rk", N,
                lambda pts=pts: finitekernel.correlation_rk(params, pts),
                _rk_verify(lambda q: finitekernel.correlation_rk(params, q), pts),
                _value_digest,
            ))
    return ops


def limit_rk_ops(ctx: Context, per_k: int):
    ops = []
    for label, spec in LIMIT_SPECS.items():
        for k in (1, 2, 3):
            for i in range(per_k):
                pts = [complex(ctx.rng.uniform(-1, 1),
                               ctx.rng.choice((-1.0, 1.0)) * ctx.rng.uniform(0.1, 1.0))
                       for _ in range(k)]
                ops.append(Op(
                    f"rk.{label}.k{k}.{i}", "rk", "limit_rk", None,
                    lambda spec=spec, pts=pts: limits.limit_rk(spec, pts),
                    _rk_verify(lambda q, spec=spec: limits.limit_rk(spec, q), pts),
                    _value_digest,
                ))
    return ops


def _tolerance(kind: str):
    def verify(residual):
        if not residual <= TOL[kind]:  # also catches nan
            raise OpFailure("tolerance")
        return 1

    return verify


def _complex_pair(rng, scale):
    return (complex(rng.normal(scale=scale), rng.normal(scale=scale)),
            complex(rng.normal(scale=scale), rng.normal(scale=scale)))


def check_ops(ctx: Context, N: int, points: int):
    """SOP, CDI and beta cross-check points at n = 2N, L = N, drawn from the
    same distributions as the CLI's `check` subcommands."""
    params = STRONG.params_at(N)
    systems = ctx.sop_systems

    def build_system():
        systems.pop(N, None)  # a failed build must not leave last pass's system
        systems[N] = finitekernel.skew_op_system(params)
        return systems[N]

    def sop(z, e):
        system = systems.get(N)
        if system is None:
            raise OpFailure("no_system")
        return rel_diff(finitekernel.skew_kernel_tilde(params, z, e),
                        finitekernel.skew_kernel_via_sop(system, z, e))

    def beta(z, e):
        t1 = cdi.cdi_rhs(params, z, e)
        t2 = cdi.cdi_rhs_beta_form(params, z, e)
        pairs = ((t1.term1, t2.term1), (t1.term2, t2.term2), (t1.term3, t2.term3))
        diffs = [rel_diff(a, b) for a, b in pairs]
        return math.nan if any(math.isnan(d) for d in diffs) else max(diffs)

    ops = [Op(f"check.sop_system.N{N}", "check", "check.sop_system", N, build_system,
              lambda _s: 0, lambda s: repr(s.norms).encode())]
    for i in range(points):
        z, e = _complex_pair(ctx.rng, 0.5)
        ops.append(Op(f"check.sop.N{N}.{i}", "check", "check.sop", N,
                      lambda z=z, e=e: sop(z, e), _tolerance("sop"), _value_digest))
    for i in range(points):
        z, e = _complex_pair(ctx.rng, 0.4)
        ops.append(Op(f"check.cdi.N{N}.{i}", "check", "check.cdi", N,
                      lambda z=z, e=e: cdi.cdi_residual(params, z, e),
                      _tolerance("cdi"), _value_digest))
    for i in range(points):
        z = complex(ctx.rng.uniform(0.05, 0.5), ctx.rng.uniform(-0.05, 0.05))
        e = complex(ctx.rng.uniform(0.05, 0.5), ctx.rng.uniform(-0.05, 0.05))
        ops.append(Op(f"check.beta.N{N}.{i}", "check", "check.beta", N,
                      lambda z=z, e=e: beta(z, e), _tolerance("beta"), _value_digest))
    return ops


def limit_check_ops(ctx: Context, ode_points: int, origin_points: int):
    """ODE residuals of all four limit kernels, and the origin kernel's
    Mittag-Leffler form against its incomplete-gamma form."""

    def ode(spec, z, w):
        r, diag = limits.ode_residual(spec, z, w)
        return max(r, diag)

    def origin_forms(L, z, w):
        return rel_diff(limits.kappa(LimitKernelSpec("origin", L=L), z, w),
                        limits.kappa_origin_gamma_form(L, z, w))

    ops = []
    for label, spec in LIMIT_SPECS.items():
        for i in range(ode_points):
            z = complex(ctx.rng.uniform(-0.7, 0.7), ctx.rng.uniform(-0.6, 0.6))
            w = complex(ctx.rng.uniform(-0.7, 0.7), ctx.rng.uniform(-0.6, 0.6))
            ops.append(Op(f"check.ode.{label}.{i}", "check", "check.ode", None,
                          lambda spec=spec, z=z, w=w: ode(spec, z, w),
                          _tolerance("ode"), _value_digest))
    for L in (0.0, 0.5, 1.0, 2.0):
        for i in range(origin_points):
            z = complex(ctx.rng.uniform(-1, 1), ctx.rng.uniform(-1, 1))
            w = complex(ctx.rng.uniform(-1, 1), ctx.rng.uniform(-1, 1))
            ops.append(Op(f"check.origin_forms.L{L:g}.{i}", "check", "check.origin_forms",
                          None, lambda L=L, z=z, w=w: origin_forms(L, z, w),
                          _tolerance("origin_forms"), _value_digest))
    return ops


# -- running ops ---------------------------------------------------------------------

class Executor:
    """Runs an op list pass after pass, closed loop, one op at a time.

    The first successful execution of an op is verified in full; later
    executions must reproduce its digest byte for byte, which both checks
    determinism and keeps verification from dominating long runs.
    """

    def __init__(self, ops):
        self.ops = ops
        self.first = {}  # op name -> (digest, work)

    def _verify(self, op, out) -> int:
        digest = op.digest(out)
        seen = self.first.get(op.name)
        if seen is None:
            work = op.verify(out)
            self.first[op.name] = (digest, work)
            return work
        if seen[0] != digest:
            raise OpFailure("nondeterministic")
        return seen[1]

    def run_pass(self, tracer=None):
        """One pass over the op list; with a tracer, installed for the pass."""
        if tracer is None:
            return self._run_ops(None)
        with tracer:
            return self._run_ops(tracer)

    def _run_ops(self, tracer):
        results = []
        for op in self.ops:
            # overwriting a just-written file makes ext4 flush it on close
            # (auto_da_alloc), which would charge disk writeback to the op
            for path in op.outputs:
                if os.path.exists(path):
                    os.remove(path)
            if tracer is not None:
                tracer.start_op(op.name)
            start = perf_counter()
            try:
                out = op.run()
                cause = None
            except OpFailure as exc:
                cause = exc.cause
            except Exception as exc:  # a failed op is counted, never retried
                cause = type(exc).__name__
            seconds = perf_counter() - start
            work = 0
            if cause is None:
                if tracer is not None:
                    tracer.enabled = False
                try:
                    work = self._verify(op, out)
                except OpFailure as exc:
                    cause = exc.cause
                except Exception as exc:
                    cause = f"verify:{type(exc).__name__}"
                finally:
                    if tracer is not None:
                        tracer.enabled = True
            results.append(OpResult(name=op.name, kind=op.kind, family=op.family,
                                    seconds=seconds, work=work if cause is None else 0,
                                    cause=cause))
        return results

    def run_for(self, seconds: float, tracers=(None,)):
        """Passes, cycling through `tracers` (None: untraced), until the next
        pass would end past `seconds` by more than half; at least one pass
        per entry of `tracers`."""
        start = perf_counter()
        passes, lengths = [], []
        while True:
            t = perf_counter()
            passes.append(self.run_pass(tracers[len(passes) % len(tracers)]))
            lengths.append(perf_counter() - t)
            if (len(passes) >= len(tracers)
                    and perf_counter() - start + 0.5 * median(lengths) >= seconds):
                return passes


def failures(passes, ops):
    """[family, N, cause, count] for every failed (op family, N, cause);
    count is the number of ops of the list that failed that way in some
    pass, as metrics.op_counts counts them."""
    by_name = {op.name: op for op in ops}
    failed = {(r.name, r.cause) for results in passes for r in results if not r.ok}
    counts = {}
    for name, cause in failed:
        key = (by_name[name].family, by_name[name].N, cause)
        counts[key] = counts.get(key, 0) + 1
    return [[f, n, c, k] for (f, n, c), k in sorted(counts.items(), key=str)]


# -- the workloads -----------------------------------------------------------------------

def small_n(ctx: Context):
    """Many cheap calls at N <= 100: per-call overhead and trial loops dominate."""
    return [
        mc_op(ctx, 50, trials=120),
        kernel_table(ctx, 25, "-2:2:0.05"),
        kernel_table(ctx, 100, "-2:2:0.1"),
        r1_table(ctx, 50, "-1:1:0.05"),
        compare_table(ctx, (25, 50, 100), "-1:1:0.25"),
        *rk_ops(ctx, 50, per_k=20),
        charfn_op(ctx, 60, "0:2:0.05"),
        *(op for N in (5, 25, 60) for op in check_ops(ctx, N, points=40)),
    ]


def large_n(ctx: Context):
    """Few expensive calls at N = 100..1600: the O(N^2) kernel mesh, the
    Python Haar loop and per-degree quad dominate, and second routes fail."""
    return [
        mc_op(ctx, 200, trials=4),
        kernel_table(ctx, 400, "-1:1:0.25"),
        kernel_table(ctx, 1600, "-0.5:0.5:0.5"),
        *rk_ops(ctx, 400, per_k=8),
        charfn_op(ctx, 200, "0:2:0.2"),
        *(op for N in (100, 200, 400) for op in check_ops(ctx, N, points=40)),
    ]


def limit_tables(ctx: Context):
    """The N-free limiting kernels: adaptive quad over scalar erfc and
    Mittag-Leffler integrands; the sampler and finitekernel stay idle."""
    return [
        limit_table(ctx, "strong-edge", "-1:1:0.1"),
        limit_table(ctx, "weak", "-2:2:0.05"),
        limit_table(ctx, "origin", "-2:2:0.05"),
        limit_table(ctx, "strong-bulk", "-2:2:0.05"),
        *limit_rk_ops(ctx, per_k=8),
        *limit_check_ops(ctx, ode_points=15, origin_points=10),
    ]


WORKLOADS = {"small_n": small_n, "large_n": large_n, "limit_tables": limit_tables}


# -- set-up ------------------------------------------------------------------------------

def warm_up(workload: str, out_dir: str) -> None:
    """One tiny call per op kind the workload uses: the lazy imports and
    first-call costs a user pays on every fresh CLI process."""
    small = EnsembleParams(N=3, n=6.0, L=3.0)
    path = os.path.join(out_dir, "warmup")
    if workload in ("small_n", "large_n"):
        run_cli(["linstat", "--b", "r2", "--N", "3", "--n", "6", "--L", "3",
                 "--trials", "2", "--out", path])
        run_cli(["linstat", "--b", "r2", "--N", "3", "--n", "6", "--L", "3",
                 "--charfn", "--k", "0:0.5:0.5", "--out", path])
        run_cli(["kernel", *STRONG_ARGS, "--N", "5", "--grid", "0:0.5:0.5", "--out", path])
        finitekernel.correlation_rk(small, [0.5 + 0.5j])
        system = finitekernel.skew_op_system(small)
        finitekernel.skew_kernel_via_sop(system, 0.3 + 0.1j, 0.2 - 0.1j)
        finitekernel.skew_kernel_tilde(small, 0.3 + 0.1j, 0.2 - 0.1j)
        cdi.cdi_residual(small, 0.3 + 0.1j, 0.2 - 0.1j)
        cdi.cdi_rhs_beta_form(small, 0.3 + 0.01j, 0.2 - 0.01j)
    else:
        run_cli(["kernel", "--N", "1", "--limit", "strong-edge", "--grid", "0:0.5:0.5",
                 "--out", path])
        limits.limit_rk(LIMIT_SPECS["origin"], [0.3 + 0.3j])
        limits.ode_residual(LIMIT_SPECS["weak"], 0.2 + 0.1j, -0.1 + 0.2j)
        limits.kappa_origin_gamma_form(1.0, 0.2 + 0.1j, -0.1 + 0.2j)
