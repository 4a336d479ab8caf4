"""Per-layer metrics of a traced run, and the probes that fill the gaps.

Each metric is computed from the spans, counters and op results of the
traced passes.  A per-call time whose function the workload never calls
at the named size (the sampler on limit_tables, N1600 on small_n, ...)
is measured by a small probe call instead, under its own tracer, so every
workload reports every metric; the report lists which values came from
probes.  Counts are never probed: a count of zero is a measurement.
"""

from __future__ import annotations

import itertools
import os
from time import perf_counter

import numpy as np

import workloads
from metrics import self_times
from sphefaffian import cdi, finitekernel, limits, linstat, sampler
from sphefaffian import pfaffian as pfaffian_mod
from sphefaffian.linstat import RadialStatistic
from sphefaffian.params import EnsembleParams
from tracing import Tracer

PROBE_SECONDS = 0.05
PROBE_MAX_CALLS = 20

_Z, _E = 0.3 + 0.2j, 0.1 - 0.15j
_P25 = workloads.STRONG.params_at(25)
_P50 = workloads.STRONG.params_at(50)
_R2 = RadialStatistic.r_squared()


def _sample(N):
    return lambda _out: sampler.sample_ensemble(
        EnsembleParams(N=N, n=2.0 * N, L=float(N)), trials=1, seed=0)


def _kernel(N):
    return lambda _out: finitekernel.rescaled_kernel(
        workloads.STRONG.params_at(N), workloads.STRONG, _Z, workloads.W_POINT)


def _rk(k):
    pts = [0.9 + 0.5j, -0.4 + 1.0j, 0.2 + 1.1j][:k]
    return lambda _out: finitekernel.correlation_rk(_P50, pts)


def _kappa(label):
    return lambda _out: limits.kappa(workloads.LIMIT_SPECS[label], _Z, workloads.W_POINT)


def _charfn(N):
    return lambda _out: linstat.char_function(workloads.STRONG.params_at(N), _R2, 0.5)


def _skew6():
    a = np.random.default_rng(0).standard_normal((6, 6))
    return a - a.T


def _mc_stat(_out):
    batch = sampler.sample_ensemble(EnsembleParams(N=5, n=10.0, L=5.0), trials=4, seed=0)
    return linstat.mc_linear_statistic(batch, _R2)


def _cli(argv):
    # a fresh output name per call: overwriting a just-written file makes
    # ext4 flush it on close, which would be timed as CLI self time
    calls = itertools.count()
    return lambda out: workloads.run_cli(
        [*argv, "--out", os.path.join(out, f"probe{next(calls)}")])


PROBES = {
    "sample.N50": _sample(50),
    "sample.N200": _sample(200),
    **{f"kernel.N{N}": _kernel(N) for N in (25, 100, 400, 1600)},
    "r1": lambda _out: finitekernel.rescaled_r1(_P50, workloads.STRONG, _Z),
    "tilde": lambda _out: finitekernel.skew_kernel_tilde(_P25, _Z, _E),
    "dzeta": lambda _out: finitekernel.skew_kernel_tilde_dzeta(_P25, _Z, _E),
    "sop": lambda _out: finitekernel.skew_kernel_via_sop(
        finitekernel.skew_op_system(_P25), _Z, _E),
    "op_system": lambda _out: finitekernel.skew_op_system(_P25),
    **{f"rk.k{k}": _rk(k) for k in (1, 2, 3)},
    "pfaffian": lambda _out: pfaffian_mod.pfaffian(_skew6()),
    "cdi_residual": lambda _out: cdi.cdi_residual(_P25, _Z, _E),
    "cdi_rhs": lambda _out: cdi.cdi_rhs(_P25, _Z, _E),
    "cdi_beta": lambda _out: cdi.cdi_rhs_beta_form(_P25, 0.3 + 0.01j, 0.2 - 0.01j),
    "limiting_f": lambda _out: cdi.limiting_f(workloads.STRONG, _Z, _E),
    "erfc_c": lambda _out: limits.erfc_c(1.7 + 0.4j),
    "erf_c": lambda _out: limits.erf_c(0.3 + 0.2j),
    "mittag_leffler": lambda _out: limits.mittag_leffler(2.0, 5.0, 0.5 + 0.2j),
    "inc_gamma_entire_part": lambda _out: cdi.inc_gamma_entire_part(2.0, 0.5 + 0.2j),
    "reg_inc_beta": lambda _out: cdi.reg_inc_beta(0.3 + 0.01j, 4.0, 6.0),
    **{f"kappa.{label}": _kappa(label) for label in workloads.LIMIT_SPECS},
    "limit_rk": lambda _out: limits.limit_rk(workloads.LIMIT_SPECS["origin"], [0.3 + 0.4j]),
    "ode": lambda _out: limits.ode_residual(workloads.LIMIT_SPECS["weak"], _Z, _E),
    "gamma_form": lambda _out: limits.kappa_origin_gamma_form(2.0, _Z, _E),
    "charfn.N60": _charfn(60),
    "charfn.N200": _charfn(200),
    "exact_mean": lambda _out: linstat.exact_mean(_P50, _R2),
    "exact_variance": lambda _out: linstat.exact_variance(_P50, _R2),
    "mc_stat": _mc_stat,
    "cli.kernel": _cli(["kernel", *workloads.STRONG_ARGS, "--N", "5", "--grid", "0:0.5:0.5"]),
    "cli.linstat": _cli(["linstat", "--b", "r2", "--N", "3", "--n", "6", "--L", "3",
                         "--trials", "2"]),
}

# metric name -> (rule, source, tag, probe); rules:
#   ms / us          mean inclusive time of spans `source` (with `tag`)
#   self_ms          mean self time of spans `source` (with `tag`)
#   self_ms_per_unit self time of spans `source` per unit (trial)
#   calls            spans `source` per traced pass
#   counter_calls    calls of counter `source` per traced pass
#   counter_us       mean inclusive microseconds of counter `source`
#   errors           exceptions first escaping layer `source`, per traced pass
#   passed           successful ops of family `source`, per traced pass
#   overhead         traced pass time against the untraced pass, in percent
_SPEC = []


def _add(name, rule, source=None, tag=None, probe=None):
    _SPEC.append((name, rule, source, tag, probe))


for _N in (50, 200):
    for _fn in ("haar_symplectic_unitary", "wishart_inv_sqrt", "ginibre_quaternion"):
        _add(f"sampler.{_fn}.ms_per_call.N{_N}", "ms", f"sampler.{_fn}", f"N{_N}",
             f"sample.N{_N}")
    _add(f"sampler.sample_ensemble.self_ms_per_trial.N{_N}", "self_ms_per_unit",
         "sampler.sample_ensemble", f"N{_N}", f"sample.N{_N}")
_add("sampler.errors_per_pass", "errors", "sampler")
for _N in (25, 100, 400, 1600):
    _add(f"finitekernel.rescaled_kernel.ms_per_call.N{_N}", "ms",
         "finitekernel.rescaled_kernel", f"N{_N}", f"kernel.N{_N}")
for _fn, _probe in (("rescaled_r1", "r1"), ("skew_kernel_tilde", "tilde"),
                    ("skew_kernel_tilde_dzeta", "dzeta"), ("skew_kernel_via_sop", "sop"),
                    ("skew_op_system", "op_system")):
    _add(f"finitekernel.{_fn}.ms_per_call", "ms", f"finitekernel.{_fn}", None, _probe)
for _k in (1, 2, 3):
    _add(f"finitekernel.correlation_rk.ms_per_call.k{_k}", "ms",
         "finitekernel.correlation_rk", f"k{_k}", f"rk.k{_k}")
_add("finitekernel.errors_per_pass", "errors", "finitekernel")
_add("pfaffian.pfaffian.calls_per_pass", "calls", "pfaffian.pfaffian")
_add("pfaffian.pfaffian.us_per_call", "us", "pfaffian.pfaffian", None, "pfaffian")
_add("pfaffian.errors_per_pass", "errors", "pfaffian")
for _fn, _probe in (("cdi_residual", "cdi_residual"), ("cdi_rhs", "cdi_rhs"),
                    ("cdi_rhs_beta_form", "cdi_beta"), ("limiting_f", "limiting_f")):
    _add(f"cdi.{_fn}.ms_per_call", "ms", f"cdi.{_fn}", None, _probe)
for _kind in ("sop", "cdi", "beta", "ode", "origin_forms"):
    _add(f"cdi.checks.passed_per_pass.{_kind}", "passed", f"check.{_kind}")
_add("cdi.errors_per_pass", "errors", "cdi")
for _fn in ("erfc_c", "erf_c", "mittag_leffler", "inc_gamma_entire_part", "reg_inc_beta"):
    _add(f"specfun.{_fn}.calls_per_pass", "counter_calls", f"specfun.{_fn}")
    _add(f"specfun.{_fn}.us_per_call", "counter_us", f"specfun.{_fn}", None, _fn)
_add("specfun.errors_per_pass", "errors", "specfun")
for _kind in ("strong_bulk", "strong_edge", "weak", "origin"):
    _add(f"limits.kappa.ms_per_call.{_kind}", "ms", "limits.kappa", _kind,
         f"kappa.{_kind.replace('_', '-')}")
for _fn, _probe in (("limit_rk", "limit_rk"), ("ode_residual", "ode"),
                    ("kappa_origin_gamma_form", "gamma_form")):
    _add(f"limits.{_fn}.ms_per_call", "ms", f"limits.{_fn}", None, _probe)
_add("limits.quad.calls_per_pass", "counter_calls", "limits.quad")
_add("limits.errors_per_pass", "errors", "limits")
for _N in (60, 200):
    _add(f"linstat.char_function.ms_per_call.N{_N}", "ms", "linstat.char_function",
         f"N{_N}", f"charfn.N{_N}")
for _fn, _probe in (("exact_mean", "exact_mean"), ("exact_variance", "exact_variance"),
                    ("mc_linear_statistic", "mc_stat")):
    _add(f"linstat.{_fn}.ms_per_call", "ms", f"linstat.{_fn}", None, _probe)
_add("linstat.quad.calls_per_pass", "counter_calls", "linstat.quad")
_add("linstat.errors_per_pass", "errors", "linstat")
for _cmd in ("kernel", "linstat"):
    _add(f"cli.{_cmd}.self_ms_per_call", "self_ms", "cli.main", _cmd, f"cli.{_cmd}")
_add("cli.errors_per_pass", "errors", "cli")
_add("trace.overhead_pct", "overhead")

SPEC = tuple(_SPEC)
UNITS = {"ms": "ms", "us": "us", "self_ms": "ms", "self_ms_per_unit": "ms",
         "calls": "count", "counter_calls": "count", "counter_us": "us",
         "errors": "count", "passed": "count", "overhead": "%"}
NAMES = tuple(name for name, *_ in SPEC)


def unit_of(name: str) -> str:
    rule = next(r for n, r, *_ in SPEC if n == name)
    return UNITS[rule]


def _measure(rule, source, tag, tracer, passes, results):
    """The metric's value from one tracer, or None when it saw no call."""
    if rule in ("ms", "us", "self_ms", "self_ms_per_unit", "calls"):
        idx = [i for i, s in enumerate(tracer.spans)
               if s.name == source and (tag is None or s.tag == tag)]
        if rule == "calls":
            return len(idx) / passes
        if not idx:
            return None
        if rule in ("ms", "us"):
            scale = 1e3 if rule == "ms" else 1e6
            return scale * sum(tracer.spans[i].duration for i in idx) / len(idx)
        selfs = self_times(tracer.spans)
        total = sum(selfs[i] for i in idx)
        if rule == "self_ms":
            return 1e3 * total / len(idx)
        return 1e3 * total / sum(tracer.spans[i].units for i in idx)
    if rule == "counter_calls":
        return tracer.counters[source].calls / passes
    if rule == "counter_us":
        c = tracer.counters[source]
        return 1e6 * c.seconds / c.calls if c.calls else None
    if rule == "errors":
        if source == "cli":  # exit 3 is returned, exit 2 raised: count both as exits
            n = sum(1 for r in results if r.cause and r.cause.startswith("exit"))
        else:
            n = sum(v for (layer, _), v in tracer.errors.items() if layer == source)
        return n / passes
    if rule == "passed":
        return sum(1 for r in results if r.ok and r.family == source) / passes
    raise ValueError(f"unknown rule {rule!r}")


def _probe(key: str, out_dir: str) -> Tracer:
    tracer = Tracer()
    with tracer:
        start = perf_counter()
        calls = 0
        while calls < PROBE_MAX_CALLS and (calls == 0 or perf_counter() - start < PROBE_SECONDS):
            PROBES[key](out_dir)
            calls += 1
    return tracer


def layer_metrics(tracer: Tracer, passes: int, results, overhead_pct: float, out_dir: str):
    """(metrics, probed names) for one traced run.

    results are the traced passes' op results, each carrying its family.
    """
    values = {}
    probed = []
    probe_cache = {}
    for name, rule, source, tag, probe in SPEC:
        if rule == "overhead":
            values[name] = overhead_pct
            continue
        value = _measure(rule, source, tag, tracer, passes, results)
        if value is None:
            if probe not in probe_cache:
                probe_cache[probe] = _probe(probe, out_dir)
            value = _measure(rule, source, tag, probe_cache[probe], 1, ())
            probed.append(name)
        values[name] = value
    return values, probed
