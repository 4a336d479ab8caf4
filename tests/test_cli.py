import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sphefaffian
from sphefaffian import cdi, finitekernel, limits
from sphefaffian.cli import main
from sphefaffian.limits import LimitKernelSpec
from sphefaffian.params import EnsembleParams


def run_cli(args, cwd):
    return main(args)


class TestSample:
    def test_writes_expected_rows(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main([
            "sample", "--N", "6", "--n", "12", "--L", "6",
            "--trials", "4", "--seed", "7", "--out", "eig",
        ])
        assert rc == 0
        lines = (tmp_path / "eig.csv").read_text().splitlines()
        data = [ln for ln in lines if not ln.startswith("#") and not ln.startswith("trial")]
        assert len(data) == 6 * 4
        meta = json.loads((tmp_path / "eig.meta.json").read_text())
        assert meta["seed"] == 7 and meta["N"] == 6

    def test_byte_identical_reruns(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for name in ("a", "b"):
            rc = main([
                "sample", "--N", "5", "--n", "10", "--L", "0",
                "--trials", "3", "--seed", "3", "--out", name,
            ])
            assert rc == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_sphere_output(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main([
            "sample", "--N", "4", "--n", "8", "--L", "2",
            "--trials", "2", "--seed", "1", "--sphere", "--out", "s",
        ])
        assert rc == 0
        head = [ln for ln in (tmp_path / "s.sphere.csv").read_text().splitlines()
                if not ln.startswith("#")][0]
        assert head == "trial,re,im,theta,phi"

    def test_weak_parameter_shortcut(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main([
            "sample", "--N", "12", "--n-over-N-sq", "--rho", "2.0",
            "--trials", "1", "--seed", "0", "--out", "w",
        ])
        assert rc == 0
        meta = json.loads((tmp_path / "w.meta.json").read_text())
        assert float(meta["n"]) == 36.0 and float(meta["L"]) == 24.0

    def test_missing_n_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--N", "4", "--trials", "1", "--seed", "0"])
        assert exc.value.code == 2

    def test_invalid_parameters_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["sample", "--N", "4", "--n", "4", "--trials", "1", "--seed", "0"])
        assert rc == 2  # n = N rejected


class TestKernel:
    def test_finite_table(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main([
            "kernel", "--regime", "strong", "--a", "1", "--b", "1", "--p", "1",
            "--N", "10", "--grid", "-0.5:0.5:0.5", "--out", "k",
        ])
        assert rc == 0
        rows = [ln for ln in (tmp_path / "k.csv").read_text().splitlines()
                if not ln.startswith("#")]
        assert rows[0] == "re_z,im_z,re_val,im_val"
        assert len(rows) - 1 == 9

    def test_limit_table(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main([
            "kernel", "--N", "1", "--limit", "origin", "--L", "2",
            "--grid", "-0.4:0.4:0.4", "--out", "lim",
        ])
        assert rc == 0
        assert (tmp_path / "lim.csv").exists()

    def test_weak_limit_table_through_former_quadrature_failure(self, tmp_path, monkeypatch):
        # the 2x2 grid holds z = -0.1-1.75i, where adaptive quad on the weak
        # kernel's Wronskian integral raised QuadratureError (exit 3)
        monkeypatch.chdir(tmp_path)
        rc = main([
            "kernel", "--N", "1", "--limit", "weak", "--rho", "2",
            "--grid=-1.75:-0.1:1.65", "--out", "weak",
        ])
        assert rc == 0
        rows = [ln.split(",") for ln in (tmp_path / "weak.csv").read_text().splitlines()
                if not ln.startswith("#")][1:]
        assert len(rows) == 4
        assert any(abs(complex(float(r[0]), float(r[1])) - (-0.1 - 1.75j)) < 1e-12 for r in rows)
        assert all(math.isfinite(float(v)) for row in rows for v in row)

    def test_r1_table(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main([
            "kernel", "--regime", "strong", "--a", "1", "--b", "1", "--p", "1",
            "--N", "8", "--r1", "--grid", "-0.4:0.4:0.4", "--out", "r1",
        ])
        assert rc == 0
        rows = [ln for ln in (tmp_path / "r1.csv").read_text().splitlines()
                if not ln.startswith("#")]
        assert len(rows) - 1 == 9

    def test_pole_on_grid_exits_3(self, tmp_path, monkeypatch):
        # origin regime at N=2, b=1, L=0 has sqrt(N delta) = 2, so the grid
        # point z = 2i maps to zeta = i, a kernel pole -> numerical failure
        monkeypatch.chdir(tmp_path)
        rc = main([
            "kernel", "--regime", "origin", "--L", "0", "--b", "1",
            "--N", "2", "--grid", "-2:2:2", "--out", "pole",
        ])
        assert rc == 3

    def test_compare_summary(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main([
            "kernel", "--regime", "strong", "--a", "1", "--b", "1", "--p", "1",
            "--N", "10", "--compare", "--N-list", "10,20",
            "--grid", "-0.4:0.4:0.4", "--out", "cmp",
        ])
        assert rc == 0
        payload = json.loads((tmp_path / "cmp.compare.json").read_text())
        assert payload["N"] == [10, 20]
        assert payload["sup_error"][0] > payload["sup_error"][1]

    def test_compare_nan_point_is_reported(self, tmp_path, monkeypatch):
        # a NaN kernel value at one grid point must not drop out of the sup
        kernel = finitekernel.rescaled_kernel

        def nan_at_origin(params, regime, z, w):
            return math.nan if z == 0 else kernel(params, regime, z, w)

        monkeypatch.setattr(finitekernel, "rescaled_kernel", nan_at_origin)
        monkeypatch.chdir(tmp_path)
        rc = main([
            "kernel", "--regime", "strong", "--a", "1", "--b", "1", "--p", "1",
            "--N", "10", "--compare", "--N-list", "10,20",
            "--grid", "-0.4:0.4:0.4", "--out", "cmp",
        ])
        assert rc == 0
        payload = json.loads((tmp_path / "cmp.compare.json").read_text())
        assert all(math.isnan(e) for e in payload["sup_error"])
        assert payload["monotone"] is False


class TestCheck:
    def test_cdi_passes(self, capsys):
        rc = main(["check", "cdi", "--N", "3", "--n", "6", "--L", "1"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["max_residual"] < 1e-8

    def test_sop_equiv_passes(self):
        rc = main(["check", "sop-equiv", "--N", "5", "--n", "9", "--L", "2.5"])
        assert rc == 0

    def test_beta_passes(self):
        rc = main(["check", "beta", "--N", "4", "--n", "9", "--L", "1.5"])
        assert rc == 0

    def test_beta_passes_at_large_n(self):
        # the hypergeometric incomplete beta missed 1e-9 here (2.25e-9)
        rc = main(["check", "beta", "--N", "400", "--n", "800", "--L", "400"])
        assert rc == 0

    def test_ode_passes(self):
        rc = main(["check", "ode", "--variant", "weak", "--rho", "2"])
        assert rc == 0

    def test_impossible_tolerance_exits_4(self):
        rc = main(["check", "cdi", "--N", "3", "--n", "6", "--L", "1", "--tol", "1e-30"])
        assert rc == 4


class TestLinstat:
    def test_constant_statistic_reports_zero_variance(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main([
            "linstat", "--N", "4", "--n", "9", "--L", "1",
            "--b", "const:3", "--out", "ls",
        ])
        assert rc == 0
        payload = json.loads((tmp_path / "ls.json").read_text())
        assert payload["asymptotic_variance"] == 0.0
        assert payload["exact_mean"] == pytest.approx(12.0, rel=1e-9)

    def test_charfn_sweep(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main([
            "linstat", "--N", "3", "--n", "7", "--L", "0.5",
            "--b", "r2", "--charfn", "--k", "0:0.4:0.2", "--out", "cf",
        ])
        assert rc == 0
        rows = [ln for ln in (tmp_path / "cf.charfn.csv").read_text().splitlines()
                if not ln.startswith("#")]
        assert rows[0] == "k,re_P,im_P"
        assert len(rows) - 1 == 3

    def test_regime_flags_match_spec_example(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main([
            "linstat", "--b", "r2", "--regime", "strong", "--a", "1",
            "--b-param", "1", "--N", "10", "--trials", "5", "--seed", "2",
            "--out", "lr",
        ])
        assert rc == 0
        payload = json.loads((tmp_path / "lr.json").read_text())
        assert "mc_mean" in payload
        rows = [ln for ln in (tmp_path / "lr.samples.csv").read_text().splitlines()
                if not ln.startswith("#")]
        assert rows[0] == "trial,B"
        assert len(rows) - 1 == 5


@pytest.mark.parametrize("argv", [
    ["kernel", "--N", "1", "--limit", "strong-bulk", "--w-point", "0.1"],
    ["kernel", "--N", "1", "--limit", "strong-bulk", "--w-point", "a,b"],
    ["kernel", "--N", "1", "--limit", "strong-bulk", "--w-point", "1,2,3"],
    ["kernel", "--N", "10", "--regime", "strong", "--compare", "--N-list", "5,x"],
    ["linstat", "--N", "4", "--n", "9", "--b", "const:abc"],
    ["kernel", "--N", "1", "--limit", "strong-bulk", "--grid", "0:0.5:nan"],
    ["kernel", "--N", "1", "--limit", "strong-bulk", "--grid", "0:inf:0.5"],
    ["kernel", "--N", "1", "--limit", "strong-bulk", "--grid", "0:1:1e-300"],
    ["sample", "--N", "4", "--n-over-N-sq", "--rho", "0", "--trials", "1"],
    ["check", "ode", "--variant", "no-such-limit"],
])
def test_malformed_values_exit_2(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_check_exit_codes_fuzz(capsys):
    # seeded draws of `check sop-equiv` and `check cdi` up to N = 400 with valid
    # and invalid n, L: every run ends in a documented exit code, never a traceback
    rng = np.random.default_rng(2024)
    for _ in range(200):
        what = str(rng.choice(["sop-equiv", "cdi"]))
        N = int(rng.integers(1, 401))
        n, L = N + rng.uniform(0.01, 3 * N), rng.uniform(0, 2 * N)
        if rng.random() < 0.3:
            n = float(rng.choice([N - rng.uniform(0, N), math.nan, math.inf]))
        if rng.random() < 0.3:
            L = float(rng.choice([-rng.uniform(0.01, 5), math.nan, math.inf]))
        argv = ["check", what, "--N", str(N), f"--n={n!r}", f"--L={L!r}"]
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        capsys.readouterr()
        assert rc in (0, 2, 3, 4), argv


@pytest.mark.parametrize("argv,module,name,nan_result,key", [
    (["check", "cdi", "--N", "3", "--n", "6", "--L", "1"],
     "sphefaffian.cdi", "cdi_residual", math.nan, "max_residual"),
    (["check", "ode", "--variant", "weak", "--rho", "2"],
     "sphefaffian.limits", "ode_residual", (math.nan, math.nan), "max_residual"),
    (["check", "sop-equiv", "--N", "5", "--n", "9", "--L", "2.5"],
     "sphefaffian.finitekernel", "route_gap", math.nan, "max_relative_error"),
    (["check", "beta", "--N", "4", "--n", "9", "--L", "1.5"],
     "sphefaffian.cdi", "reg_inc_beta", (0.0, math.nan), "max_relative_error"),
], ids=["cdi", "ode", "sop-equiv", "beta"])
def test_nan_residual_fails_the_check(argv, module, name, nan_result, key, monkeypatch, capsys):
    # the builtin max drops a NaN (max(0.0, nan) is 0.0): a NaN residual must
    # fail the check instead of reading as a perfect pass
    monkeypatch.setattr(f"{module}.{name}", lambda *_a, **_k: nan_result)
    assert main(argv) == 4
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    assert math.isnan(report[key])


_KEYS = ["version", "check", "passed"]

# the README's four checks: argv, report keys, the library residual of a
# (z, w) pair, the number of points, and the per-point module function a NaN
# is patched into (for beta the beta form's terms: reg_inc_beta runs six
# times per point)
_README_CHECKS = {
    "cdi": (["check", "cdi", "--N", "3", "--n", "6", "--L", "1"],
            _KEYS + ["max_residual", "tolerance"],
            lambda z, w: cdi.cdi_residual(EnsembleParams(3, 6.0, 1.0), z, w), 25,
            cdi, "cdi_residual", math.nan),
    "ode": (["check", "ode", "--variant", "weak", "--rho", "2"],
            _KEYS + ["variant", "max_residual", "tolerance"],
            lambda z, w: max(limits.ode_residual(LimitKernelSpec("weak", rho=2.0), z, w)), 36,
            limits, "ode_residual", (math.nan, math.nan)),
    "sop-equiv": (["check", "sop-equiv", "--N", "5", "--n", "9", "--L", "2.5"],
                  _KEYS + ["max_relative_error", "tolerance"],
                  lambda z, w: finitekernel.route_gap(
                      finitekernel.skew_op_system(EnsembleParams(5, 9.0, 2.5)), z, w), 20,
                  finitekernel, "route_gap", math.nan),
    "beta": (["check", "beta", "--N", "4", "--n", "9", "--L", "1.5"],
             _KEYS + ["max_relative_error", "tolerance"],
             lambda z, w: cdi.beta_gap(EnsembleParams(4, 9.0, 1.5), z, w), 15,
             cdi, "_log_beta_terms", [(0.0, math.nan)] * 3),
}


@pytest.mark.parametrize("what", list(_README_CHECKS))
class TestCheckReport:
    def test_keys_end_with_worst_point_and_nonfinite(self, what, capsys):
        argv, keys, *_ = _README_CHECKS[what]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report) == keys + ["worst_point", "nonfinite"]
        assert report["nonfinite"] == 0

    def test_worst_point_gives_the_reported_maximum(self, what, capsys):
        argv, keys, residual, *_ = _README_CHECKS[what]
        main(argv)
        report = json.loads(capsys.readouterr().out)
        zr, zi, wr, wi = report["worst_point"]
        assert residual(complex(zr, zi), complex(wr, wi)) == report[keys[-2]]

    def test_nan_on_every_other_point_is_counted(self, what, monkeypatch, capsys):
        argv, keys, _, count, module, name, nan_result = _README_CHECKS[what]
        real, calls = getattr(module, name), []

        def every_other(subject, z, w):
            calls.append((z, w))
            return nan_result if len(calls) % 2 else real(subject, z, w)

        monkeypatch.setattr(module, name, every_other)
        assert main(argv) == 4
        report = json.loads(capsys.readouterr().out)
        assert len(calls) == count
        assert report["nonfinite"] == (count + 1) // 2
        assert math.isnan(report[keys[-2]])
        z, w = calls[0]  # the first NaN is the worst point
        assert report["worst_point"] == [z.real, z.imag, w.real, w.imag]


class TestEntryPoint:
    def test_console_script_runs(self):
        # the child imports the package the tests import, from a checkout too
        src = str(Path(sphefaffian.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "sphefaffian.cli", "check", "sop-equiv",
             "--N", "3", "--n", "6", "--L", "1"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
