"""Command-line front end: spectra, band constants, resonances, quasimodes.

Every run that writes files also writes a JSON manifest capturing the full
argument vector and resolved solver parameters; replaying the manifest's
argv reproduces the output bytes exactly (fixed float formatting, fixed row
order, no timestamps in data files). Exit codes: 0 success, 2 usage or
validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import NumericalError, ValidationError
from .fields import FieldSpec, load_spec, make_profile, spec_config
from .radial import (RadialGrid, Work, _anharmonic_ladder, _island_ladder,
                     _well_ladder, check_ceiling, dirichlet_disk_levels,
                     fiber_levels, sector_sweep)
from .stepband import StepParams, analyze_band
from .quasimode import build_quasimode, quasimode_residual, tz_crossover, tz_window
from .cscale import PAIR_TOL, Window, continuum_motion, find_resonances
from .levels import ExpansionParams, compare

FMT = "{:.14e}"  # 15 significant digits, locale-independent
COMPARE_GRID_N, COMPARE_RMAX = 3000, 12.0  # landau and anharmonic grid


def _fmt(x: float) -> str:
    return FMT.format(float(x))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _bounded_int(text: str) -> int:
    value = int(text)
    if abs(value) > 2 ** 53:  # sectors and levels enter float arithmetic
        raise argparse.ArgumentTypeError(
            "expected an integer within +-2**53, where floats hold "
            "integers exactly")
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
        lo, hi = (_bounded_int(tok) for tok in text.split(":"))
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


def _params(args, **extra) -> dict:
    """The manifest's params: every parsed flag but --out, a sector range
    as [lo, hi] and a window as its four numbers, then `extra`."""
    params = {}
    for key, value in vars(args).items():
        if key in ("command", "func", "out", "_argv"):
            continue
        if isinstance(value, range):
            value = [value.start, value.stop - 1]
        elif isinstance(value, Window):
            value = [value.re_min, value.re_max, value.im_min, value.im_max]
        params[key] = value
    params.update(extra)
    return params


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
    rows, work = sector_sweep(profile, args.b, args.m, grid, args.levels)
    check_ceiling(profile, args.b, args.m, grid, rows[-1][0])
    lines = ["m,index,eigenvalue,b_or_h,gridN,r_max"]
    for lam, m, n in sorted(rows, key=lambda t: (t[1], t[2])):
        lines.append(f"{m},{n},{_fmt(lam)},{_fmt(args.b)},"
                     f"{grid.N},{_fmt(grid.r_max)}")
    _emit(args, "spectrum", lines,
          _params(args, field_spec=spec_config(spec)),
          diagnostics={"work": asdict(work)})
    return 0


def cmd_band(args) -> int:
    if len(args.bracket) != 2:
        raise ValidationError("--bracket takes exactly two numbers LO,HI")
    params_obj = StepParams(a=args.a, L=args.L, N=args.grid_n)
    work = Work()
    table, zeta, beta, sc, params_obj = analyze_band(
        params_obj, tuple(args.bracket), work)
    lines = ["a,xi,mu"]
    for xi, mu in table:
        lines.append(f"{_fmt(args.a)},{_fmt(xi)},{_fmt(mu)}")
    constants = {"a": args.a, "L": params_obj.L, "N": params_obj.N,
                 "beta": beta, "zeta": zeta}
    if sc is not None:
        constants.update({"mu2": sc.mu2, "phi0": sc.phi0, "phi0p": sc.phi0p,
                          "C1": sc.C1, "C2": sc.C2})
    else:
        constants["note"] = ("no interface constants at this a: C1/C2 "
                             "are defined only for a in (-1, 0)")
    _emit(args, "band", lines, _params(args),
          json_blobs={"constants": constants},
          diagnostics={"work": asdict(work)})
    return 0


def cmd_resonances(args) -> int:
    if len(set(args.h)) < len(args.h) or not all(0.0 < h < math.inf
                                                 for h in args.h):
        raise ValidationError("--h needs distinct values, each positive and "
                              "finite")
    spec = load_spec(args.field)
    profile = make_profile(spec)
    grid = RadialGrid(args.rmax, args.grid_n)
    lines = ["m,h,theta1,theta2,reZ,imZ,drift,gridN"]
    lowest = []  # (h, z) of the lowest resonance per h
    slices = []  # per h: each (theta, m) slice and each sector's motion
    for h in args.h:
        if args.window is not None:
            win = args.window
        elif -0.5 * h < -1e-12:
            win = Window(0.5 * h, 1.5 * h, -0.5 * h, -1e-12)
        else:
            raise ValidationError(
                f"the default window [0.5h, 1.5h] x [-0.5h, -1e-12] is "
                f"empty at h = {h:g} (it is for h <= 2e-12); give one with "
                f"--window")
        rs = find_resonances(profile, h, args.m, win,
                             theta_pair=(args.theta1, args.theta2),
                             grid=grid, R1=args.r1, T0=args.t0, tol=args.tol)
        for r in rs:
            lines.append(f"{r.m},{_fmt(h)},{_fmt(args.theta1)},"
                         f"{_fmt(args.theta2)},{_fmt(r.z.real)},"
                         f"{_fmt(r.z.imag)},{_fmt(r.drift)},{grid.N}")
        t1, t2 = rs.theta_pair
        motion = [{"m": m, "motion": continuum_motion(
                       rs.spectra[(t1, m)], rs.spectra[(t2, m)], rs.radius)}
                  for m in args.m]
        slices.append({"h": h, "radius": rs.radius,
                       "counts": [{"theta": theta, "m": m, "count": len(vals),
                                   **asdict(rs.work[(theta, m)])}
                                  for (theta, m), vals in rs.spectra.items()],
                       "continuum_motion": motion})
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
    _emit(args, "resonances", lines,
          _params(args, field_spec=spec_config(spec)),
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
    _emit(args, "quasimode", lines, _params(args), json_blobs=blobs)
    return 0


def _ladder_record(key: str, value: float, ladder) -> tuple:
    """The manifest diagnostics of one ladder sweep: how it was certified,
    and the work it took."""
    return ({key: value, "solved": ladder.solved,
             "certified": ladder.certified, "fallback": ladder.fallback,
             "margin": ladder.margin, "shift": ladder.shift,
             "r_max": ladder.r_max},
            {key: value, **asdict(ladder.work)})


def _compare_pairs(args) -> tuple:
    """(expansion params, direct value) per sweep value of the model, and
    the diagnostics of each ladder solved for them."""
    if args.model in ("landau", "anharmonic"):
        grid = RadialGrid(args.rmax, args.grid_n)
        if args.model == "landau":
            extras, (m, k), ladders = {}, (0, args.n), []
            kind, params, R0 = "constant_disk", {"r0": args.rmax}, args.rmax
        else:  # level n of sector m and index k there is Lambda_n
            ladder = _anharmonic_ladder(args.gamma, args.n)
            extras = {"gamma": args.gamma, "lambdas": tuple(ladder.levels)}
            m, k = ladder.homes[args.n]
            ladders = [_ladder_record("gamma", args.gamma, ladder)]
            kind, params, R0 = "anharmonic", {"gamma": args.gamma}, 1.0
        profile = make_profile(FieldSpec(kind, params, R0=R0))
        return [(ExpansionParams(model=args.model, n=args.n, h=h, **extras),
                 fiber_levels(profile, m, h, grid, k=k + 1,
                              convention="h")[k])
                for h in args.h], ladders
    pairs, ladders = [], []
    if args.model == "well":
        for h in args.h:
            ladder = _well_ladder(args.b0, h, args.n)
            pairs.append((ExpansionParams(model="well", n=args.n, h=h,
                                          b0=args.b0, detH=1.0, trSqrtH=2.0),
                          ladder.levels[args.n]))
            ladders.append(_ladder_record("h", h, ladder))
        return pairs, ladders
    ells = tuple(float(x) for x in dirichlet_disk_levels(args.rho1, args.n))
    for b in args.b:
        h = 1.0 / b
        ladder = _island_ladder(args.rho1, args.rho2, b, args.n)
        pairs.append((ExpansionParams(model="island", n=args.n, h=h,
                                      ells=ells),
                      float(ladder.levels[args.n]) * h * h))
        ladders.append(_ladder_record("b", b, ladder))
    return pairs, ladders


def cmd_compare(args) -> int:
    if args.model == "step":
        raise ValidationError(
            "no direct solver for model 'step': the step interface needs 2D "
            "geometry data this tool does not compute")
    if args.model in ("landau", "anharmonic"):
        if args.grid_n is None:
            args.grid_n = COMPARE_GRID_N
        if args.rmax is None:
            args.rmax = COMPARE_RMAX
    elif args.grid_n is not None or args.rmax is not None:
        raise ValidationError(
            "--grid-n and --rmax apply to landau and anharmonic only: the "
            "well and island ladders solve on grids their model fixes")
    flag = "--b" if args.model == "island" else "--h"
    sweep = args.b if args.model == "island" else args.h
    if sweep is None:
        raise ValidationError(f"{flag} is required for model {args.model}")
    if len(set(sweep)) < 3 or not all(0.0 < x < math.inf for x in sweep):
        raise ValidationError(f"{flag} needs at least three distinct "
                              f"values, each positive and finite")
    pairs, records = _compare_pairs(args)
    report = compare(pairs)
    _emit(args, "compare", list(report.csv_lines()), _params(args),
          diagnostics={"ladders": [sweep for sweep, _ in records],
                       "work": [work for _, work in records]})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magres",
        description="Spectra and resonances of 2D magnetic Laplacians "
                    "with radial fields")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, grid_n, rmax=None, scope=""):
        """--grid-n, --rmax (unless rmax is None) and --out. Scoped grid
        flags default to None, which the command resolves."""
        p.add_argument("--grid-n", type=_positive_int,
                       default=None if scope else grid_n,
                       help=f"grid points{scope} (default {grid_n})")
        if rmax is not None:
            p.add_argument("--rmax", type=float,
                           default=None if scope else rmax,
                           help=f"truncation radius{scope} (default {rmax})")
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
                   help="left field strength in [-1, 0) or (0, 1]")
    p.add_argument("--L", type=float, default=12.0, help="half-length")
    p.add_argument("--bracket", type=_float_list, default=(-4.0, 1.0),
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
    p.add_argument("--tol", type=float, default=PAIR_TOL,
                   help="relative pairing tolerance, in (0, 1)")
    common(p, 3000, 18.0)
    p.set_defaults(func=cmd_resonances)

    p = sub.add_parser("quasimode", help="cutoff Landau quasimode report")
    p.add_argument("--n", type=_bounded_int, default=0)
    p.add_argument("--m", type=_bounded_int, default=0)
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
    common(p, COMPARE_GRID_N, COMPARE_RMAX,
           scope=", landau and anharmonic only")
    p.set_defaults(func=cmd_compare)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use: no command changes its defaults
    (they are immutable: None, numbers, strings, tuples and ranges)."""
    return build_parser()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parser().parse_args(argv)
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
