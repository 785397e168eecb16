"""Command-line front end: spectra, band constants, resonances, quasimodes.

Every run that writes files also writes a JSON manifest capturing the full
argument vector and resolved solver parameters; replaying the manifest's
argv reproduces the output bytes exactly (fixed float formatting, fixed row
order, no timestamps in data files). Exit codes: 0 success, 2 usage or
validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import NumericalError, ValidationError
from .fields import FieldSpec, load_spec, make_profile
from .radial import (RadialGrid, anharmonic_levels, check_ceiling,
                     dirichlet_disk_levels, fiber_levels,
                     island_neumann_levels, sector_sweep, well_levels)
from .stepband import StepParams, analyze_band
from .quasimode import build_quasimode, quasimode_residual, tz_crossover, tz_window
from .cscale import Window, find_resonances
from .levels import ExpansionParams, compare

FMT = "{:.14e}"  # 15 significant digits, locale-independent


def _fmt(x: float) -> str:
    return FMT.format(float(x))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _float_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty number list")
    return values


def _m_range(text: str) -> range:
    try:
        lo, hi = (int(tok) for tok in text.split(":"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad sector range {text!r}; expected MIN:MAX") from exc
    if hi < lo:
        raise argparse.ArgumentTypeError("sector range MAX must be >= MIN")
    return range(lo, hi + 1)


def _window(text: str) -> Window:
    try:
        a, b, c, d = (float(tok) for tok in text.split(":"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad window {text!r}; expected REMIN:REMAX:IMMIN:IMMAX") from exc
    return Window(re_min=a, re_max=b, im_min=c, im_max=d)


def _emit(args, command: str, lines: list[str], params: dict,
          json_blobs: dict | None = None,
          diagnostics: dict | None = None) -> None:
    """Write CSV (+ optional JSON files) and the manifest, or print to stdout.

    Diagnostics go to the manifest only, so the data files stay
    byte-identical under replay."""
    if not args.out:
        for line in lines:
            print(line)
        if json_blobs:
            for blob in json_blobs.values():
                print(json.dumps(blob, indent=2, sort_keys=True))
        return
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    manifest_name = out.name + ".manifest.json"
    body = "# manifest=" + manifest_name + "\n" + "\n".join(lines) + "\n"
    out.write_text(body)
    outputs = [out.name]
    if json_blobs:
        for suffix, blob in json_blobs.items():
            path = out.with_name(out.name + "." + suffix + ".json")
            path.write_text(json.dumps(blob, indent=2, sort_keys=True) + "\n")
            outputs.append(path.name)
    manifest = {
        "command": command,
        "argv": list(args._argv),
        "package": "magres",
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "params": params,
        "outputs": outputs,
    }
    if diagnostics is not None:
        manifest["diagnostics"] = diagnostics
    (out.parent / manifest_name).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def cmd_spectrum(args) -> int:
    spec = load_spec(args.field)
    profile = make_profile(spec)
    grid = RadialGrid(args.rmax, args.grid_n)
    rows = sector_sweep(profile, args.b, args.m, grid, k=args.levels)
    check_ceiling(profile, args.b, args.m, grid, rows[-1][0])
    lines = ["m,index,eigenvalue,b_or_h,gridN,r_max"]
    for lam, m, n in sorted(rows, key=lambda t: (t[1], t[2])):
        lines.append(f"{m},{n},{_fmt(lam)},{_fmt(args.b)},"
                     f"{grid.N},{_fmt(grid.r_max)}")
    params = {"field": str(args.field), "b": args.b, "levels": args.levels,
              "m": [args.m.start, args.m.stop - 1],
              "grid_n": args.grid_n, "rmax": args.rmax,
              "field_spec": {"kind": spec.kind, "params": dict(spec.params),
                             "R0": spec.R0}}
    _emit(args, "spectrum", lines, params)
    return 0


def cmd_band(args) -> int:
    if len(args.bracket) != 2:
        raise ValidationError("--bracket takes exactly two numbers LO,HI")
    factor = 2 if args.resolution == "2x" else 1
    params_obj = StepParams(a=args.a, L=args.L, N=args.grid_n * factor,
                            validation_mode=True)
    lo, hi = args.bracket
    table, zeta, beta, sc = analyze_band(params_obj, (lo, hi))
    lines = ["a,xi,mu"]
    for xi, mu in table:
        lines.append(f"{_fmt(args.a)},{_fmt(xi)},{_fmt(mu)}")
    constants = {"a": args.a, "L": params_obj.L, "N": params_obj.N,
                 "beta": beta, "zeta": zeta}
    if sc is not None:
        constants.update({"mu2": sc.mu2, "phi0": sc.phi0, "phi0p": sc.phi0p,
                          "C1": sc.C1, "C2": sc.C2})
    else:
        constants["note"] = ("validation-mode field strength: C1/C2 are "
                             "defined only for a in (-1, 0)")
    params = {"a": args.a, "L": args.L, "grid_n": args.grid_n,
              "resolution": args.resolution, "bracket": [lo, hi]}
    _emit(args, "band", lines, params, json_blobs={"constants": constants})
    return 0


def cmd_resonances(args) -> int:
    if args.theta1 == args.theta2:
        raise ValidationError("theta1 and theta2 must differ")
    spec = load_spec(args.field)
    profile = make_profile(spec)
    grid = RadialGrid(args.rmax, args.grid_n)
    lines = ["m,h,theta1,theta2,reZ,imZ,drift,gridN"]
    lowest = []  # (h, z) of the lowest resonance per h
    slices = []  # per h: the certified spectral slice of each (theta, m)
    for h in args.h:
        if args.window is not None:
            win = args.window
        else:
            win = Window(0.5 * h, 1.5 * h, -0.5 * h, -1e-12)
        rs = find_resonances(profile, h, args.m, win,
                             theta_pair=(args.theta1, args.theta2),
                             grid=grid, R1=args.r1, T0=args.t0, tol=args.tol)
        for r in rs:
            lines.append(f"{r.m},{_fmt(h)},{_fmt(args.theta1)},"
                         f"{_fmt(args.theta2)},{_fmt(r.z.real)},"
                         f"{_fmt(r.z.imag)},{_fmt(r.drift)},{grid.N}")
        centre, radius = rs.disk
        slices.append({"h": h, "centre": [centre.real, centre.imag],
                       "radius": radius,
                       "counts": [{"theta": theta, "m": m, "count": len(vals)}
                                  for (theta, m), vals in rs.spectra.items()]})
        if len(rs):
            z0 = min(rs, key=lambda r: r.z.real).z
            lowest.append((h, z0))
    if len(lowest) >= 3:
        x = np.array([1.0 / h for h, _ in lowest])
        y = np.array([math.log(abs(z.imag)) for _, z in lowest])
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (slope * x + intercept)
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot else 1.0
        lines.append(f"# fit_points={len(lowest)} logim_vs_invh_slope="
                     f"{_fmt(slope)} r2={_fmt(r2)}")
    params = {"field": str(args.field), "h": list(args.h),
              "theta": [args.theta1, args.theta2], "r1": args.r1,
              "t0": args.t0, "grid_n": args.grid_n, "rmax": args.rmax,
              "m": [args.m.start, args.m.stop - 1], "tol": args.tol,
              "window": None if args.window is None else
              [args.window.re_min, args.window.re_max,
               args.window.im_min, args.window.im_max],
              "field_spec": {"kind": spec.kind, "params": dict(spec.params),
                             "R0": spec.R0}}
    _emit(args, "resonances", lines, params,
          diagnostics={"slices": slices})
    return 0


def cmd_quasimode(args) -> int:
    grid = RadialGrid(args.rmax, args.grid_n)
    spec = FieldSpec("constant_disk", {"r0": args.rmax}, R0=args.rmax)
    profile = make_profile(spec)
    q = build_quasimode(args.n, args.m, args.b, args.r0, args.delta, grid)
    res, norm = quasimode_residual(q, profile)
    lines = ["model,n,m,b,r0,delta,norm_defect,residual",
             f"landau,{args.n},{args.m},{_fmt(args.b)},{_fmt(args.r0)},"
             f"{_fmt(args.delta)},{_fmt(1.0 - norm)},{_fmt(res)}"]
    blobs = None
    if args.tz_c is not None:
        h = 1.0 / args.b
        w = tz_window((2 * args.n + 1) * h, h, args.tz_c, args.r0)
        star = tz_crossover(args.tz_c, args.r0)
        blobs = {"window": {"E": w.E, "h": w.h, "c": w.c, "r0": w.r0,
                            "half_width": w.half_width, "depth": w.depth,
                            "S": w.S, "R": w.R, "crossover_h": star}}
    params = {"n": args.n, "m": args.m, "b": args.b, "r0": args.r0,
              "delta": args.delta, "grid_n": args.grid_n, "rmax": args.rmax,
              "tz_c": args.tz_c}
    _emit(args, "quasimode", lines, params, json_blobs=blobs)
    return 0


def _compare_direct(args) -> tuple[list, list]:
    """(direct rows, expansion params) for the chosen model and sweep."""
    direct = []
    expans = []
    if args.model in ("landau", "anharmonic"):
        if args.model == "landau":
            extras = {}
            kind, params, R0 = "constant_disk", {"r0": args.rmax}, args.rmax
        else:
            extras = {"gamma": args.gamma,
                      "lambdas": tuple(anharmonic_levels(args.gamma, args.n))}
            kind, params, R0 = "anharmonic", {"gamma": args.gamma}, 1.0
        grid = RadialGrid(args.rmax, args.grid_n)
        profile = make_profile(FieldSpec(kind, params, R0=R0))
        for h in args.h:
            vals = fiber_levels(profile, 0, h, grid, k=args.n + 1,
                                convention="h")
            direct.append((args.model, args.n, h, float(vals[args.n])))
            expans.append(ExpansionParams(model=args.model, n=args.n, h=h,
                                          **extras))
    elif args.model == "well":
        for h in args.h:
            vals = well_levels(args.b0, h, args.n)
            direct.append(("well", args.n, h, float(vals[args.n])))
            expans.append(ExpansionParams(model="well", n=args.n, h=h,
                                          b0=args.b0, detH=1.0, trSqrtH=2.0))
    elif args.model == "island":
        ells = tuple(float(x) for x in dirichlet_disk_levels(args.rho1, args.n))
        for b in args.b:
            h = 1.0 / b
            vals = island_neumann_levels(args.rho1, args.rho2, b, args.n)
            direct.append(("island", args.n, h,
                           float(vals[args.n]) * h * h))
            expans.append(ExpansionParams(model="island", n=args.n, h=h,
                                          ells=ells))
    else:
        raise ValidationError(
            f"no direct solver for model {args.model!r}: the step interface "
            f"needs 2D geometry data this tool does not compute")
    return direct, expans


def cmd_compare(args) -> int:
    if args.model == "island":
        if args.b is None:
            raise ValidationError("--b B1,B2,... is required for island")
        if len(args.b) < 3:
            raise ValidationError("need at least three field values")
    else:
        if args.h is None:
            raise ValidationError("--h H1,H2,... is required for this model")
        if len(args.h) < 3:
            raise ValidationError("need at least three h values")
    direct, expans = _compare_direct(args)
    report = compare(direct, expans)
    lines = list(report.csv_lines())
    params = {"model": args.model, "n": args.n,
              "h": args.h, "b": args.b, "gamma": args.gamma, "b0": args.b0,
              "rho1": args.rho1, "rho2": args.rho2,
              "grid_n": args.grid_n, "rmax": args.rmax}
    _emit(args, "compare", lines, params)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magres",
        description="Spectra and resonances of 2D magnetic Laplacians "
                    "with radial fields")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, grid_n, rmax=None):
        p.add_argument("--grid-n", type=_positive_int, default=grid_n,
                       help=f"grid points (default {grid_n})")
        if rmax is not None:
            p.add_argument("--rmax", type=float, default=rmax,
                           help=f"truncation radius (default {rmax})")
        p.add_argument("--out", default=None,
                       help="output CSV path (manifest written alongside); "
                            "stdout when omitted")

    p = sub.add_parser("spectrum", help="radial fiber eigenvalues")
    p.add_argument("--field", required=True, help="field config JSON path")
    p.add_argument("--b", type=float, default=1.0, help="field scale")
    p.add_argument("--levels", type=_positive_int, default=3,
                   help="levels per sector")
    p.add_argument("--m", type=_m_range, default=range(0, 1),
                   help="sector range MIN:MAX (default 0:0)")
    common(p, 4000, 20.0)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("band", help="magnetic-step band constants")
    p.add_argument("--a", type=float, required=True,
                   help="left field strength in [-1, 1]")
    p.add_argument("--L", type=float, default=12.0, help="half-length")
    p.add_argument("--resolution", choices=["1x", "2x"], default="1x")
    p.add_argument("--bracket", type=_float_list, default=[-4.0, 1.0],
                   help="scan bracket LO,HI (default -4,1)")
    common(p, 4800)
    p.set_defaults(func=cmd_band)

    p = sub.add_parser("resonances", help="theta-robust complex eigenvalues")
    p.add_argument("--field", required=True, help="field config JSON path")
    p.add_argument("--h", type=_float_list, required=True,
                   help="semiclassical parameters H1,H2,...")
    p.add_argument("--m", type=_m_range, default=range(0, 1),
                   help="sector range MIN:MAX (default 0:0)")
    p.add_argument("--window", type=_window, default=None,
                   help="REMIN:REMAX:IMMIN:IMMAX (default [0.5h,1.5h] x "
                        "[-0.5h,-1e-12] per h)")
    p.add_argument("--theta1", type=float, default=0.5)
    p.add_argument("--theta2", type=float, default=0.6)
    p.add_argument("--r1", type=float, default=1.5,
                   help="deformation start radius")
    p.add_argument("--t0", type=float, default=6.0,
                   help="full-rotation radius")
    p.add_argument("--tol", type=float, default=1e-5,
                   help="relative pairing tolerance")
    common(p, 3000, 18.0)
    p.set_defaults(func=cmd_resonances)

    p = sub.add_parser("quasimode", help="cutoff Landau quasimode report")
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--b", type=float, default=25.0)
    p.add_argument("--r0", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=0.2)
    p.add_argument("--tz-c", type=float, default=None,
                   help="emit a resonance window with this decay constant")
    common(p, 4000, 20.0)
    p.set_defaults(func=cmd_quasimode)

    p = sub.add_parser("compare", help="expansion vs direct computation")
    p.add_argument("--model", required=True,
                   choices=["landau", "anharmonic", "step", "well", "island"])
    p.add_argument("--n", type=int, default=0, help="level index")
    p.add_argument("--h", type=_float_list, default=None)
    p.add_argument("--b", type=_float_list, default=None,
                   help="island field strengths B1,B2,...")
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--b0", type=float, default=1.0)
    p.add_argument("--rho1", type=float, default=1.0)
    p.add_argument("--rho2", type=float, default=1.5)
    common(p, 3000, 12.0)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = list(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
