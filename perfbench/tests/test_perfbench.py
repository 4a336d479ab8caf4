"""Tests of the benchmark's own arithmetic, tracing and output parsing."""

import json
import os

import pytest

import layers
import metrics
import run
import tracing
import workloads
from metrics import OpResult, Span

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _r(kind, seconds, work, cause=None, family="f"):
    return OpResult(name=f"{kind}.{seconds}", kind=kind, family=family,
                    seconds=seconds, work=work, cause=cause)


# -- end-to-end arithmetic ---------------------------------------------------------------

def test_goodput_counts_successful_work_over_all_time():
    results = [
        _r("kernel", 1.0, 100),
        _r("kernel", 1.0, 0, cause="exit3:QuadratureError"),
        _r("limit", 2.0, 50),
        _r("check", 0.5, 1),
        _r("check", 0.5, 0, cause="tolerance"),
    ]
    s = metrics.pass_summary(results)
    assert s["wall_s"] == pytest.approx(5.0)
    assert s["kernel_points_per_s"] == pytest.approx(50.0)
    assert s["limit_points_per_s"] == pytest.approx(25.0)
    assert s["table_points_per_s"] == pytest.approx(150.0 / 4.0)
    assert s["check_points_per_s"] == pytest.approx(1.0)
    assert s["failed_frac"] == pytest.approx(2 / 5)
    assert s["ok_frac"] == pytest.approx(3 / 5)
    assert "mc_trials_per_s" not in s


def test_failed_frac_and_goodput_reject_empty_input():
    with pytest.raises(ValueError):
        metrics.failed_frac(0, 0)
    with pytest.raises(ValueError):
        metrics.goodput(3, 0.0)


def test_run_summary_takes_per_op_medians():
    def run(name, seconds, cause=None):
        return OpResult(name=name, kind="rk", family="rk", seconds=seconds,
                        work=0 if cause else 10, cause=cause)

    # a slow spell hits op a in pass 1 and op b in pass 2: per-op medians
    # drop both, per-pass medians would keep one
    passes = [[run("a", 9.0), run("b", 1.0), run("c", 1.0, "tolerance")],
              [run("a", 1.0), run("b", 9.0), run("c", 1.0)],
              [run("a", 1.0), run("b", 1.0), run("c", 1.0, "tolerance")]]
    s = metrics.run_summary(passes)
    assert s["wall_s"] == 3.0
    assert s["rk_evals_per_s"] == pytest.approx(20 / 3.0)
    assert s["failed_frac"] == pytest.approx(1 / 3)


def test_op_counts_do_not_grow_with_passes():
    def run(name, cause=None):
        return OpResult(name=name, kind="check", family="check.x", seconds=1.0,
                        work=0 if cause else 1, cause=cause)

    one = [run("a"), run("b", "tolerance"), run("c")]
    flaky = [run("a"), run("b", "tolerance"), run("c", "nondeterministic")]
    # a run that fits more passes reports the same counts
    assert metrics.op_counts([one]) == (3, 1)
    assert metrics.op_counts([one] * 7) == (3, 1)
    # an op that fails in any pass counts once
    assert metrics.op_counts([one, flaky, one]) == (3, 2)


# -- spans and counters ------------------------------------------------------------------

def test_self_time_subtracts_union_of_children():
    spans = [
        Span("a", None, 0.0, 10.0, None, "op"),
        Span("b", None, 1.0, 3.0, 0, "op"),
        Span("c", None, 2.0, 4.0, 0, "op"),  # overlaps b: union 1..4
        Span("d", None, 1.5, 2.5, 1, "op"),  # grandchild, inside b
        Span("e", None, 9.0, 12.0, 0, "op"),  # sticks out of a: clipped to 9..10
    ]
    selfs = metrics.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(3.0)


def test_covered_merges_and_clips():
    assert metrics.covered([(0, 1), (0.5, 2), (3, 4)], 0, 10) == pytest.approx(3.0)
    assert metrics.covered([(-5, 1), (9, 20)], 0, 10) == pytest.approx(2.0)
    assert metrics.covered([], 0, 1) == 0.0


def test_layer_rules_on_synthetic_tracer():
    t = tracing.Tracer()
    t.spans = [
        Span("sampler.sample_ensemble", "N50", 0.0, 1.0, None, "op", units=4),
        Span("sampler.haar_symplectic_unitary", "N50", 0.1, 0.5, 0, "op"),
        Span("sampler.haar_symplectic_unitary", "N200", 2.0, 3.0, None, "op"),
        Span("cli.main", "kernel", 5.0, 6.0, None, "op"),
        Span("limits.kappa", "weak", 5.2, 5.6, 3, "op"),
    ]
    t.counters["specfun.erfc_c"].calls = 8
    t.counters["specfun.erfc_c"].seconds = 4e-5
    t.errors = {("limits", "QuadratureError"): 2}
    results = [_r("limit", 1.0, 0, cause="exit3:QuadratureError", family="table.limit.weak"),
               _r("check", 1.0, 1, family="check.ode")]

    def m(rule, source, tag=None):
        return layers._measure(rule, source, tag, t, 2, results)

    assert m("ms", "sampler.haar_symplectic_unitary", "N50") == pytest.approx(400.0)
    assert m("self_ms_per_unit", "sampler.sample_ensemble", "N50") == pytest.approx(150.0)
    assert m("self_ms", "cli.main", "kernel") == pytest.approx(600.0)
    assert m("ms", "limits.kappa", "strong_edge") is None
    assert m("calls", "sampler.haar_symplectic_unitary") == 1.0
    assert m("counter_calls", "specfun.erfc_c") == 4.0
    assert m("counter_us", "specfun.erfc_c") == pytest.approx(5.0)
    assert m("counter_us", "specfun.mittag_leffler") is None
    assert m("errors", "limits") == 1.0
    assert m("errors", "cli") == 0.5
    assert m("passed", "check.ode") == 0.5


def test_counters_do_not_count_recursion_twice():
    from sphefaffian import limits, specfun

    with tracing.Tracer() as t:
        specfun.erfc_c(-2.0 + 0.1j)  # recurses through specfun.erfc_c
        limits.erfc_c(0.5)
        limits.erf_c(2.5 + 0.0j)  # erf_c calls erfc_c for |Re z| > 1.5
    assert t.counters["specfun.erfc_c"].calls == 3
    assert t.counters["specfun.erf_c"].calls == 1
    assert t.counters["specfun.erfc_c"].seconds > 0


def test_spans_nest_through_module_lookups():
    from sphefaffian import cdi

    params = workloads.STRONG.params_at(5)
    with tracing.Tracer() as t:
        t.start_op("probe")
        cdi.cdi_residual(params, 0.3 + 0.1j, 0.2 - 0.1j)
    names = [s.name for s in t.spans]
    root = names.index("cdi.cdi_residual")
    children = {s.name for s in t.spans if s.parent == root}
    assert children == {"finitekernel.skew_kernel_tilde_dzeta", "cdi.cdi_rhs"}
    assert all(s.op == "probe" for s in t.spans)
    selfs = metrics.self_times(t.spans)
    assert 0 <= selfs[root] <= t.spans[root].duration


def test_chained_exception_counts_once():
    t = tracing.Tracer()
    inner = ValueError("inner")
    t._record_error("limits", inner)
    try:
        raise RuntimeError("outer") from inner
    except RuntimeError as outer:
        t._record_error("limits", outer)  # same layer: replaces the first type
        t._record_error("cli", outer)  # outer layer: not counted again
    t._record_error("limits", inner)
    assert t.errors == {("limits", "RuntimeError"): 1}


def _originals():
    import importlib

    return {(m, a): getattr(importlib.import_module(f"sphefaffian.{m}"), a)
            for m, a in tracing.target_attributes()}


def test_install_and_uninstall_restore_every_attribute():
    before = _originals()
    t = tracing.Tracer()
    with t:
        during = _originals()
        assert all(during[k] is not before[k] for k in before)
    assert _originals() == before
    with pytest.raises(RuntimeError):
        with t:
            t.install()
    assert _originals() == before


def test_untraced_run_installs_no_wrappers(tmp_path):
    before = _originals()
    ctx = workloads.Context(3, str(tmp_path))
    ops = [workloads.kernel_table(ctx, 5, "-0.5:0.5:0.5"),
           *workloads.check_ops(ctx, 5, points=2),
           *workloads.limit_check_ops(ctx, ode_points=1, origin_points=1)[:2]]
    results = workloads.Executor(ops).run_pass()
    assert all(r.ok for r in results), [r.cause for r in results if not r.ok]
    after = _originals()
    for key, fn in before.items():
        assert after[key] is fn, key
        assert not hasattr(after[key], "__wrapped__"), key


# -- the executor --------------------------------------------------------------------------

def test_executor_counts_failures_and_checks_determinism():
    calls = {"n": 0}

    def drifting():
        calls["n"] += 1
        return calls["n"]

    def raising():
        raise ZeroDivisionError

    ops = [
        workloads.Op("drift", "check", "check.x", 5, drifting, lambda v: 1,
                     workloads._value_digest),
        workloads.Op("raise", "check", "check.y", 60, raising, lambda v: 1,
                     workloads._value_digest),
        workloads.Op("tol", "check", "check.z", 5, lambda: 1.0,
                     workloads._tolerance("sop"), workloads._value_digest),
    ]
    ex = workloads.Executor(ops)
    first, second = ex.run_pass(), ex.run_pass()
    assert [r.cause for r in first] == [None, "ZeroDivisionError", "tolerance"]
    assert [r.cause for r in second] == ["nondeterministic", "ZeroDivisionError", "tolerance"]
    assert [r.work for r in first] == [1, 0, 0]
    assert workloads.failures([first, second], ops) == [
        ["check.x", 5, "nondeterministic", 1],
        ["check.y", 60, "ZeroDivisionError", 1],
        ["check.z", 5, "tolerance", 1],
    ]
    assert metrics.op_counts([first, second]) == (3, 3)


# -- CLI files and the ledger ---------------------------------------------------------------

def test_parse_cli_csv_splits_metadata_header_and_rows():
    text = "# version=0.1.0\n# grid=-1:1:1\nre_z,im_z,re_val,im_val\n-1,0,0.5,1e-3\n1,0,2,-3\n"
    meta, header, rows = metrics.parse_cli_csv(text)
    assert meta == {"version": "0.1.0", "grid": "-1:1:1"}
    assert header == ["re_z", "im_z", "re_val", "im_val"]
    assert rows == [[-1.0, 0.0, 0.5, 1e-3], [1.0, 0.0, 2.0, -3.0]]
    with pytest.raises(ValueError):
        metrics.parse_cli_csv("a,b\n1,2,3\n")
    with pytest.raises(ValueError):
        metrics.parse_cli_csv("# only=meta\n")


@pytest.mark.parametrize("spec, n", [("-2:2:0.05", 81), ("-0.5:0.5:0.5", 3),
                                     ("0:2:0.2", 11), ("-1:1:0.1", 21)])
def test_grid_len_matches_cli_axis(spec, n):
    from sphefaffian.cli import _parse_grid

    assert metrics.grid_len(spec) == n == len(_parse_grid(spec))


def test_cli_outputs_parse(tmp_path):
    out = str(tmp_path / "k")
    workloads.run_cli(["kernel", *workloads.STRONG_ARGS, "--N", "5", "--grid", "0:0.5:0.5",
                       "--out", out])
    with open(out + ".csv") as fh:
        meta, header, rows = metrics.parse_cli_csv(fh.read())
    assert meta["command"] == "kernel" and len(rows) == 4 and len(header) == 4
    workloads.run_cli(["linstat", "--b", "r2", "--N", "3", "--n", "6", "--L", "3",
                       "--trials", "3", "--out", out])
    with open(out + ".json") as fh:
        payload = json.load(fh)
    assert {"exact_mean", "exact_variance", "mc_mean", "mc_se_mean"} <= set(payload)
    with pytest.raises(workloads.OpFailure) as exc:
        workloads.run_cli(["kernel", "--N", "1", "--limit", "weak", "--grid", "0:0:1"])
    assert exc.value.cause == "exit2"


def test_nan_never_passes_a_check():
    import math

    assert metrics.rel_diff(0.0, 0.0) == 0.0
    assert metrics.rel_diff(1.0, 1.5) == pytest.approx(1 / 3)
    assert math.isnan(metrics.rel_diff(complex(math.nan, 0), 1.0))
    with pytest.raises(workloads.OpFailure):
        workloads._tolerance("cdi")(math.nan)
    with pytest.raises(workloads.OpFailure):
        workloads._rk_verify(lambda q: math.nan, [1j, 2j])(0.5)


def test_ledger_matching():
    ledger = [{"family": "check.sop", "min_N": 25, "causes": ["tolerance"]},
              {"family": "table.limit.weak", "min_N": None, "causes": ["exit3:QuadratureError"]}]
    failures = [["check.sop", 60, "tolerance", 3], ["check.sop", 5, "tolerance", 1],
                ["check.sop", 60, "OverflowError", 1],
                ["table.limit.weak", None, "exit3:QuadratureError", 2]]
    assert metrics.unexpected_failures(failures, ledger) == [
        ["check.sop", 5, "tolerance", 1], ["check.sop", 60, "OverflowError", 1]]


def test_committed_ledger_is_well_formed():
    with open(os.path.join(BENCH, "ledger.json")) as fh:
        entries = json.load(fh)["known_failures"]
    assert entries
    for e in entries:
        assert {"family", "min_N", "causes", "defect"} <= set(e)


# -- BENCHMARK.json --------------------------------------------------------------------------

def test_benchmark_json_matches_the_code():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    assert list(e2e) == list(run.END_TO_END)
    for name, m in e2e.items():
        assert (m["unit"], m["better"]) == run.REPORTED[name]
        assert 0 < m["bound"] <= 0.25
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert list(per_layer) == list(layers.NAMES)
    assert all(per_layer[n] == layers.unit_of(n) for n in per_layer)
