"""Command-line interface: sampling, kernel tables, identity checks and
linear-statistics experiments, with CSV/JSON output for external plotting.

Exit codes: 0 success, 2 parameter validation, 3 numerical failure,
4 an identity/residual check exceeded its tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import __version__, cdi, finitekernel, limits
from .errors import SphefaffianError
from .params import EnsembleParams, Origin, Strong, Weak, droplet

FORMAT_SIG = "%.17g"


def _fmt(x: float) -> str:
    return FORMAT_SIG % x


def _meta_header(meta: dict) -> str:
    lines = [f"# {k}={v}" for k, v in meta.items()]
    return "\n".join(lines) + "\n"


def _write_csv(path: str, meta: dict, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(_meta_header(meta))
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _base_meta(args, params: EnsembleParams | None = None) -> dict:
    meta = {"version": __version__, "command": args.command}
    if getattr(args, "seed", None) is not None:
        meta["seed"] = args.seed
    if params is not None:
        geo = droplet(params)
        meta.update(
            N=params.N, n=_fmt(params.n), L=_fmt(params.L),
            r1=_fmt(geo.r1), r2=_fmt(geo.r2),
        )
    return meta


def _params_from_args(args, need_int: bool = False) -> EnsembleParams:
    if getattr(args, "n_over_N_sq", False):
        if not args.rho:
            raise SystemExit2("--n-over-N-sq requires a nonzero --rho")
        n = args.N * args.N / (args.rho * args.rho)
        L = n - args.N
        if need_int:
            n, L = round(n), round(L)
        return EnsembleParams(N=args.N, n=float(n), L=float(L))
    if getattr(args, "regime", None):
        reg = _regime_from_args(args)
        pa = reg.params_at(args.N)
        if need_int:
            pa = EnsembleParams(N=pa.N, n=float(round(pa.n)), L=float(round(pa.L)))
        return pa
    if args.n is None:
        raise SystemExit2("missing --n (or a regime specification)")
    return EnsembleParams(N=args.N, n=float(args.n), L=float(args.L))


def _regime_from_args(args):
    kind = args.regime
    if kind == "strong":
        return Strong(a=args.a, b=args.b_regime, p=args.p)
    if kind == "weak":
        if args.rho is None:
            raise SystemExit2("weak regime requires --rho")
        return Weak(rho=args.rho)
    if kind == "origin":
        return Origin(L=float(args.L), b=args.b_regime)
    raise SystemExit2(f"unknown regime {kind!r}")


class SystemExit2(SystemExit):
    def __init__(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


def _parse_grid(spec: str):
    try:
        lo, hi, step = (float(tok) for tok in spec.split(":"))
    except ValueError as exc:
        raise SystemExit2(f"bad grid spec {spec!r}, expected lo:hi:step") from exc
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
        raise SystemExit2(f"bad grid spec {spec!r}")
    try:
        return np.arange(lo, hi + 0.5 * step, step)
    except ValueError as exc:  # more points than an array can hold
        raise SystemExit2(f"bad grid spec {spec!r}: {exc}") from exc


def _parse_point(spec: str) -> complex:
    try:
        x, y = (float(tok) for tok in spec.split(","))
    except ValueError as exc:
        raise SystemExit2(f"bad point {spec!r}, expected re,im") from exc
    return complex(x, y)


def _parse_stat(spec: str):
    from .linstat import RadialStatistic

    if spec == "r2":
        return RadialStatistic.r_squared()
    if spec == "r":
        return RadialStatistic.radius()
    if spec.startswith("const:"):
        try:
            return RadialStatistic.constant(float(spec.split(":", 1)[1]))
        except ValueError as exc:
            raise SystemExit2(f"bad constant statistic {spec!r}") from exc
    raise SystemExit2(f"unknown statistic {spec!r} (use r2, r, or const:<value>)")


# -- subcommands --------------------------------------------------------------

def cmd_sample(args) -> int:
    from .sampler import sample_ensemble, to_sphere

    params = _params_from_args(args, need_int=True)
    batch = sample_ensemble(params, trials=args.trials, seed=args.seed)
    meta = _base_meta(args, params)
    meta["trials"] = args.trials
    out = args.out or "eigenvalues"
    rows = []
    for t, lam in enumerate(batch.eigen_pairs):
        for z in lam:
            rows.append((t, float(z.real), float(z.imag)))
    _write_csv(out + ".csv", meta, ["trial", "re", "im"], rows)
    _write_json(out + ".meta.json", meta)
    if args.sphere:
        srows = []
        for t, lam in enumerate(batch.eigen_pairs):
            for z in lam:
                p = to_sphere(z)
                srows.append((t, float(z.real), float(z.imag), p.theta, p.phi))
        _write_csv(out + ".sphere.csv", meta, ["trial", "re", "im", "theta", "phi"], srows)
    print(f"wrote {len(rows)} eigenvalues over {args.trials} trials to {out}.csv")
    return 0


def _grid_values(axis, f):
    """(x, y, f(x + iy)) over the square grid axis x axis, row by row."""
    return [(float(x), float(y), f(complex(x, y))) for x in axis for y in axis]


def cmd_kernel(args) -> int:
    from .finitekernel import rescaled_kernel, rescaled_r1
    from .limits import kappa

    axis = _parse_grid(args.grid)
    w = _parse_point(args.w_point)
    meta = {"version": __version__, "command": "kernel", "grid": args.grid,
            "w_point": args.w_point}
    out = args.out or "kernel"

    if args.limit:
        spec = _named_limit_spec("--limit", args.limit, args)
        meta["limit"] = args.limit
        what, f = "limit-kernel", lambda z: kappa(spec, z, w)
    else:
        regime = _regime_from_args(args)
        if args.compare:
            try:
                ns = [int(tok) for tok in args.N_list.split(",")]
            except ValueError as exc:
                raise SystemExit2(f"bad --N-list {args.N_list!r}") from exc
            spec = _limit_spec_for(regime)
            sups = []
            for n_size in ns:
                params = regime.params_at(n_size)
                errs = _grid_values(axis, lambda z: abs(
                    np.exp(z * z + w * w) * rescaled_kernel(params, regime, z, w)
                    - kappa(spec, z, w)))
                sups.append(_worst([e for _, _, e in errs]))
            payload = {"meta": meta, "N": ns, "sup_error": sups,
                       "monotone": all(a > b for a, b in zip(sups, sups[1:]))}
            _write_json(out + ".compare.json", payload)
            print(json.dumps(payload["sup_error"]))
            return 0
        params = regime.params_at(args.N)
        meta.update(_base_meta(args, params))
        if args.r1:
            what, f = "rescaled one-point", lambda z: rescaled_r1(params, regime, z)
        else:
            what, f = "finite-N kernel", lambda z: rescaled_kernel(params, regime, z, w)
    rows = [(x, y, float(v.real), float(v.imag)) for x, y, v in _grid_values(axis, f)]
    _write_csv(out + ".csv", meta, ["re_z", "im_z", "re_val", "im_val"], rows)
    print(f"wrote {len(rows)} {what} values to {out}.csv")
    return 0


# CLI limit names and the LimitKernelSpec kinds they select
_LIMIT_KINDS = {"strong-bulk": "strong_bulk", "strong-edge": "strong_edge",
                "weak": "weak", "origin": "origin"}


def _named_limit_spec(flag: str, name: str, args):
    from .limits import LimitKernelSpec

    kind = _LIMIT_KINDS.get(name)
    if kind is None:
        raise SystemExit2(f"unknown {flag} {name!r} (use one of {', '.join(_LIMIT_KINDS)})")
    if kind == "weak":
        if not args.rho:
            raise SystemExit2(f"{flag} {name} needs its parameter (--rho)")
        return LimitKernelSpec(kind, rho=args.rho)
    if kind == "origin":
        return LimitKernelSpec(kind, L=float(args.L))
    return LimitKernelSpec(kind)


def _limit_spec_for(regime):
    from .limits import LimitKernelSpec

    if isinstance(regime, Strong):
        return LimitKernelSpec("strong_edge" if regime.at_edge else "strong_bulk")
    if isinstance(regime, Weak):
        return LimitKernelSpec("weak", rho=regime.rho)
    return LimitKernelSpec("origin", L=regime.L)


def _worst(residuals) -> float:
    """Largest residual, NaN if any is NaN (the builtin max drops a NaN)."""
    return float(np.max(residuals, initial=0.0))


def _drawn(seed: int, count: int, coord):
    """count (z, w) pairs from default_rng(seed), each coordinate one coord(rng)."""
    rng = np.random.default_rng(seed)
    return [(coord(rng), coord(rng)) for _ in range(count)]


# Each check's setup(args) returns (points, residual) with residual(z, w) a
# float; residuals look their library function up on its module at call time.

def _check_cdi(args):
    params = _params_from_args(args)
    points = _drawn(0, 25, lambda r: r.normal(scale=0.4) + 1j * r.normal(scale=0.4))
    return points, lambda z, w: cdi.cdi_residual(params, z, w)


def _check_ode(args):
    spec = _named_limit_spec("--variant", args.variant, args)
    grid = [complex(x, y) for x in (-0.6, 0.2, 0.7) for y in (-0.5, 0.4)]
    points = [(z, w) for z in grid for w in grid]
    return points, lambda z, w: _worst(limits.ode_residual(spec, z, w))


def _check_sop_equiv(args):
    system = finitekernel.skew_op_system(_params_from_args(args))
    points = _drawn(1, 20, lambda r: r.normal(scale=0.5) + 1j * r.normal(scale=0.5))
    return points, lambda z, w: finitekernel.route_gap(system, z, w)


def _check_beta(args):
    params = _params_from_args(args)
    points = _drawn(2, 15, lambda r: r.uniform(0.05, 0.5) + 1j * r.uniform(-0.05, 0.05))
    return points, lambda z, w: cdi.beta_gap(params, z, w)


# check name -> (setup, default tolerance, report key of the worst residual)
_CHECKS = {
    "cdi": (_check_cdi, 1e-8, "max_residual"),
    "ode": (_check_ode, 1e-6, "max_residual"),
    "sop-equiv": (_check_sop_equiv, 1e-10, "max_relative_error"),
    "beta": (_check_beta, 1e-9, "max_relative_error"),
}


def cmd_check(args) -> int:
    setup, tol, key = _CHECKS[args.what]
    report = {"version": __version__, "check": args.what, "passed": True}
    if args.what == "ode":
        report["variant"] = args.variant
    points, residual = setup(args)
    residuals = np.array([residual(z, w) for z, w in points], dtype=float)
    report[key] = worst = _worst(residuals)
    report["tolerance"] = args.tol if args.tol is not None else tol
    report["passed"] = worst <= report["tolerance"]
    z, w = points[int(np.argmax(residuals))]  # the first NaN if there is one
    report["worst_point"] = [z.real, z.imag, w.real, w.imag]
    report["nonfinite"] = int(np.count_nonzero(~np.isfinite(residuals)))

    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if report["passed"] else 4


def cmd_linstat(args) -> int:
    from .linstat import (
        asymptotic_mean,
        asymptotic_variance,
        char_function,
        exact_mean,
        exact_variance,
        mc_linear_statistic,
    )
    from .sampler import sample_ensemble

    stat = _parse_stat(args.b)
    params = _params_from_args(args, need_int=args.trials > 0 and not args.charfn)
    out = args.out or "linstat"
    meta = _base_meta(args, params)
    meta["statistic"] = stat.label

    if args.charfn:
        axis = _parse_grid(args.k)
        rows = []
        for k in axis:
            v = char_function(params, stat, float(k))
            rows.append((float(k), float(v.real), float(v.imag)))
        _write_csv(out + ".charfn.csv", meta, ["k", "re_P", "im_P"], rows)
        print(f"wrote {len(rows)} characteristic-function values to {out}.charfn.csv")
        return 0

    payload = {
        "meta": meta,
        "asymptotic_mean": asymptotic_mean(params, stat),
        "asymptotic_variance": asymptotic_variance(params, stat),
        "exact_mean": exact_mean(params, stat),
        "exact_variance": exact_variance(params, stat),
    }
    if args.trials > 0:
        batch = sample_ensemble(params, trials=args.trials, seed=args.seed)
        s = mc_linear_statistic(batch, stat)
        payload.update(
            mc_mean=s.mean, mc_variance=s.variance,
            mc_se_mean=s.se_mean, mc_se_variance=s.se_variance,
        )
        _write_csv(
            out + ".samples.csv", meta, ["trial", "B"],
            [(t, float(v)) for t, v in enumerate(s.samples)],
        )
    _write_json(out + ".json", payload)
    print(json.dumps({k: v for k, v in payload.items() if k != "meta"}, indent=2))
    return 0


_NEG_GRID = re.compile(r"^-\d+(\.\d*)?([:,]-?\d+(\.\d*)?)*$")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sphefaffian",
        description="Induced spherical symplectic ensemble: sampling, kernels, checks.",
    )
    # let grid specs like -2:2:0.1 pass as option values, not flags
    ap._negative_number_matcher = _NEG_GRID
    sub = ap.add_subparsers(dest="command", required=True)

    def add_params(p, with_regime=True, regime_b_flag="--b"):
        p.add_argument("--N", type=int, required=True)
        p.add_argument("--n", type=float, default=None)
        p.add_argument("--L", type=float, default=0.0)
        p.add_argument("--rho", type=float, default=None)
        if with_regime:
            p.add_argument("--regime", choices=["strong", "weak", "origin"], default=None)
            p.add_argument("--a", type=float, default=1.0)
            p.add_argument(regime_b_flag, dest="b_regime", type=float, default=1.0)
            p.add_argument("--p", type=float, default=1.0)

    ps = sub.add_parser("sample", help="sample the quaternion matrix model")
    add_params(ps, with_regime=False)
    ps.add_argument("--n-over-N-sq", dest="n_over_N_sq", action="store_true",
                    help="set n = N^2/rho^2, L = n - N (weak regime parameters)")
    ps.add_argument("--trials", type=int, default=100)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--sphere", action="store_true",
                    help="also write stereographic (theta, phi) coordinates")
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=cmd_sample)

    pk = sub.add_parser("kernel", help="tabulate finite-N or limiting kernels")
    add_params(pk)
    pk.add_argument("--limit", choices=list(_LIMIT_KINDS), default=None)
    pk.add_argument("--grid", default="-1:1:0.25")
    pk.add_argument("--w-point", dest="w_point", default="0.1,0.0")
    pk.add_argument("--r1", action="store_true",
                    help="tabulate the rescaled one-point intensity instead")
    pk.add_argument("--compare", action="store_true",
                    help="sup-error vs the limit over --N-list sizes")
    pk.add_argument("--N-list", dest="N_list", default="25,50,100")
    pk.add_argument("--out", default=None)
    pk.set_defaults(func=cmd_kernel)

    pc = sub.add_parser("check", help="run identity/residual self-checks")
    pc.add_argument("what", choices=list(_CHECKS))
    pc.add_argument("--N", type=int, default=3)
    pc.add_argument("--n", type=float, default=6.0)
    pc.add_argument("--L", type=float, default=1.0)
    pc.add_argument("--variant", default="strong-bulk")
    pc.add_argument("--rho", type=float, default=None)
    pc.add_argument("--tol", type=float, default=None)
    pc.add_argument("--out", default=None)
    pc.set_defaults(func=cmd_check)

    pl = sub.add_parser("linstat", help="linear statistics: exact, asymptotic, Monte Carlo")
    add_params(pl, regime_b_flag="--b-param")
    pl.add_argument("--b", dest="b", default="r2",
                    help="statistic: r2, r, or const:<value>")
    pl.add_argument("--trials", type=int, default=0)
    pl.add_argument("--seed", type=int, default=0)
    pl.add_argument("--charfn", action="store_true")
    pl.add_argument("--k", default="0:1:0.05")
    pl.add_argument("--out", default=None)
    pl.set_defaults(func=cmd_linstat)

    for parser in (ps, pk, pc, pl):
        parser._negative_number_matcher = _NEG_GRID
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except SphefaffianError as exc:
        kind = exc.__class__.__name__
        print(f"error ({kind}): {exc}", file=sys.stderr)
        # parameter/domain problems exit 2, numerical failures exit 3
        return 2 if isinstance(exc, ValueError) else 3
    except OverflowError as exc:
        print(f"error (overflow): {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
