import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import magres
import magres.cli as cli
import magres.quasimode as quasimode
import magres.radial as radial
import magres.stepband as stepband
from magres.cli import build_parser, main
from magres.cscale import PAIR_TOL
from magres.errors import TruncationError
from magres.radial import MAX_GRID_N

from conftest import FROZEN


def test_parser_rejects_malformed_arguments(disk_config):
    parser = build_parser()
    for argv in (["spectrum", "--field", "x.json", "--grid-n", "0"],
                 ["spectrum", "--field", "x.json", "--m", "3"],
                 ["spectrum", "--field", "x.json", "--m", "4:2"],
                 ["resonances", "--field", "x.json", "--h", "a,b"],
                 ["resonances", "--field", "x.json", "--h", "0.2",
                  "--window", "1:2:3"],
                 ["band"],
                 ["band", "--a", "-0.5", "--resolution", "2x"]):
        with pytest.raises(SystemExit) as err:
            parser.parse_args(argv)
        assert err.value.code == 2


def test_spectrum_stdout(anh_config, capsys):
    rc = main(["spectrum", "--field", str(anh_config), "--b", "1.0",
               "--levels", "2", "--m", "0:1", "--grid-n", "800",
               "--rmax", "12"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "m,index,eigenvalue,b_or_h,gridN,r_max"
    assert len(lines) == 5  # two sectors, two levels each
    lam00 = float(lines[1].split(",")[2])
    assert lam00 == pytest.approx(FROZEN["anharmonic_gamma2_ladder"][0],
                                  abs=1e-4)


def test_spectrum_files_and_manifest(anh_config, tmp_path):
    out = tmp_path / "runs" / "spec.csv"
    argv = ["spectrum", "--field", str(anh_config), "--levels", "1",
            "--grid-n", "800", "--rmax", "12", "--out", str(out)]
    assert main(argv) == 0
    body = out.read_text().splitlines()
    assert body[0] == "# manifest=spec.csv.manifest.json"
    assert body[1] == "m,index,eigenvalue,b_or_h,gridN,r_max"
    manifest = json.loads((tmp_path / "runs"
                           / "spec.csv.manifest.json").read_text())
    assert manifest["command"] == "spectrum"
    assert manifest["argv"] == argv
    assert manifest["package"] == "magres"
    assert manifest["outputs"] == ["spec.csv"]
    assert manifest["params"]["field_spec"]["kind"] == "anharmonic"


def test_spectrum_unconfined_field_fails(disk_config, tmp_path):
    # AB tail decays at infinity: no confinement, the ceiling check trips
    rc = main(["spectrum", "--field", str(disk_config), "--grid-n", "800",
               "--rmax", "12"])
    assert rc == 3


def test_spectrum_levels_beyond_grid_is_input_error(anh_config):
    assert main(["spectrum", "--field", str(anh_config), "--levels", "5000",
                 "--grid-n", "64"]) == 2


def test_spectrum_missing_config(tmp_path):
    rc = main(["spectrum", "--field", str(tmp_path / "nope.json")])
    assert rc == 2


@pytest.mark.parametrize("config,extra", [
    ({"kind": "anharmonic", "params": {"gamma": 400}, "R0": 1.0}, []),
    ({"kind": "well_radial", "params": {"b0": 1e300}, "R0": 1.0}, []),
    ({"kind": "constant_disk", "params": {"r0": 1.0}, "R0": 1.0},
     ["--b", "1e200"]),
], ids=["anharmonic-gamma400", "well-b0-1e300", "disk-b-1e200"])
def test_spectrum_overflowing_potential_is_numerical(config, extra, tmp_path,
                                                     capsys):
    path = tmp_path / "field.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["spectrum", "--field", str(path), *extra]) == 3
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err


@pytest.mark.parametrize("m", ["0:0", "1:1"])
def test_resonances_overflowing_scale_is_numerical(m, disk_config, capsys):
    # h^2 and (h m - alpha)^2 overflow: a singular factorization, no warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["resonances", "--field", str(disk_config),
                     "--h", "1e300", "--m", m, "--grid-n", "480"]) == 3
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err


_extreme = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 1.0, -1.0,
                     True, False]),
    st.floats(min_value=-1e300, max_value=1e300),
    st.floats(min_value=1e-300, max_value=1e300))
_kinds = {"constant_disk": ("r0",), "anharmonic": ("gamma",),
          "well_radial": ("b0",), "island_annular": ("rho1", "rho2")}
_configs = st.sampled_from(sorted(_kinds)).flatmap(
    lambda kind: st.fixed_dictionaries({
        "kind": st.just(kind),
        "params": st.fixed_dictionaries(
            {name: _extreme for name in _kinds[kind]}),
        "R0": _extreme}))
_CONFINED = {"kind": "anharmonic", "params": {"gamma": 2}, "R0": 1.0}


@settings(max_examples=60, deadline=None)
@example(config=_CONFINED)
@example(config={"kind": "well_radial",  # the inverse-iteration solve
                 "params": {"b0": 3.5017051689555115e+96},  # underflows
                 "R0": 3.5017051689555115e+96})
@example(config={"kind": "island_annular",  # r^2 - rho1^2 overflows
                 "params": {"rho1": 1.3407807929942597e+154,  # inside r < rho1
                            "rho2": 1.34078079299426e+154},
                 "R0": 1.34078079299426e+154})
@given(config=_configs)
def test_spectrum_field_fuzz_keeps_exit_contract(config, tmp_path_factory):
    """Field configs of extreme finite numbers and booleans exit 0, 2 or 3,
    never 1, print nothing unless they succeed and raise no warnings. The
    grid (N = 128, so the N/2 refinement grid exists) holds a confined
    field's levels."""
    path = tmp_path_factory.mktemp("fuzz") / "field.json"
    path.write_text(json.dumps(config))
    out = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out):
        warnings.simplefilter("always")
        rc = main(["spectrum", "--field", str(path), "--grid-n", "128",
                   "--rmax", "4"])
    assert rc in (0, 2, 3)
    assert [str(w.message) for w in caught] == []
    lines = out.getvalue().splitlines()
    if rc == 0:
        assert lines[0] == "m,index,eigenvalue,b_or_h,gridN,r_max"
        assert len(lines) == 4  # three levels of sector 0
    else:
        assert lines == []
    if config == _CONFINED:
        assert rc == 0


def test_band_files_and_determinism(tmp_path):
    out1 = tmp_path / "one" / "band.csv"
    out2 = tmp_path / "two" / "band.csv"
    argv = ["band", "--a", "-0.5", "--grid-n", "1600", "--bracket=-2,0"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    body = out1.read_text().splitlines()
    assert body[1] == "a,xi,mu"
    assert len(body) == 2 + 41  # 0.05-spaced scan of [-2, 0]
    consts = json.loads((tmp_path / "one"
                         / "band.csv.constants.json").read_text())
    ref = FROZEN["step_minus05"]
    assert consts["beta"] == pytest.approx(ref["beta"], abs=1e-6)
    assert consts["zeta"] == pytest.approx(ref["zeta"], abs=1e-4)
    assert consts["C1"] == pytest.approx(ref["C1"], rel=1e-3)
    assert consts["C2"] == pytest.approx(ref["C2"], rel=1e-3)
    # replaying the manifest argv reproduces the bytes
    manifest = json.loads((tmp_path / "one"
                           / "band.csv.manifest.json").read_text())
    out3 = tmp_path / "three" / "band.csv"
    replay = [tok if tok != str(out1) else str(out3)
              for tok in manifest["argv"]]
    assert main(replay) == 0
    assert out3.read_bytes() == out1.read_bytes()


def test_band_scans_once(monkeypatch, tmp_path):
    ground = stepband._ground
    grids = []

    def counting(*args, **kwargs):
        grids.append(args[0].N)
        return ground(*args, **kwargs)
    monkeypatch.setattr(stepband, "_ground", counting)
    assert main(["band", "--a", "-0.5", "--out",
                 str(tmp_path / "band.csv")]) == 0
    # one 101-point scan, a few Newton steps on the slope and four slope
    # points for mu''; each refined band value is two solves (N and N/2)
    assert len(grids) <= 240
    assert grids.count(4800) == grids.count(2400)


def test_band_manifest_records_work(tmp_path):
    """band writes its factorizations, refused shifts and solves, summed
    over the scan and the Newton search with its curvature solves, as
    diagnostics.work; they repeat exactly on a rerun. Every predicted
    point keeps the default run at most 290 factorizations, refused ones
    included, and 460 solves (308 and 488 with the first five scan points
    and the Newton points unseeded, 469 and 637 with the quadratic seeds,
    699 factorizations unseeded)."""
    works = []
    for name in ("one", "two"):
        out = tmp_path / name / "band.csv"
        assert main(["band", "--a", "-0.5", "--out", str(out)]) == 0
        manifest = out.with_name("band.csv.manifest.json")
        works.append(json.loads(manifest.read_text())["diagnostics"]["work"])
    work = works[0]
    assert works[1] == work
    assert set(work) == {"bisections", "factorizations", "refused",
                         "solves"}
    assert work["bisections"] == 0
    assert 0 < work["factorizations"] + work["refused"] <= 290
    assert work["factorizations"] <= work["solves"] <= 460


def test_band_work_counts_every_factorization(tmp_path, monkeypatch):
    """Every dpttrf call of a band run is in its diagnostics.work, as a
    used factorization or a refused shift (the step band's shifts count
    no level below them, so each is one call)."""
    factor, calls = radial.dpttrf, []

    def counting(*args):
        calls.append(1)
        return factor(*args)
    monkeypatch.setattr(radial, "dpttrf", counting)
    out = tmp_path / "band.csv"
    assert main(["band", "--a", "-0.5", "--out", str(out)]) == 0
    manifest = out.with_name("band.csv.manifest.json")
    work = json.loads(manifest.read_text())["diagnostics"]["work"]
    assert work["factorizations"] + work["refused"] == len(calls)


def test_band_bracket_governs_constants(tmp_path):
    out = tmp_path / "band.csv"
    assert main(["band", "--a", "-0.5", "--grid-n", "1600",
                 "--bracket=-1.53,0.21", "--out", str(out)]) == 0
    c = json.loads((tmp_path / "band.csv.constants.json").read_text())
    c1 = (1.0 / 3.0) * (1.0 - 1.0 / c["a"]) * c["zeta"] * c["phi0"] \
        * c["phi0p"]
    assert c["C1"] == pytest.approx(c1, rel=1e-14, abs=0.0)


def test_band_plateau_rounding_is_no_minimum(tmp_path):
    """At a = -0.1 the line grows to L = 40.5, N = 16200, and the scan's
    plateau at |a| dips by 1e-17 at xi = -1.95, against certified row
    errors near 1e-9: only the minimum at xi = -0.55 counts."""
    out = tmp_path / "band.csv"
    assert main(["band", "--a", "-0.1", "--out", str(out)]) == 0
    c = json.loads((tmp_path / "band.csv.constants.json").read_text())
    assert (c["L"], c["N"]) == (40.5, 16200)
    assert c["beta"] == pytest.approx(0.0992270, abs=1e-7)
    assert c["zeta"] == pytest.approx(-0.566051, abs=1e-6)
    assert c["C1"] == pytest.approx(0.00868, abs=1e-5)


@pytest.mark.parametrize("a, message", [
    ("-0.05", "end potential"),
    ("-0.02", "lies below its neighbours by no more than the rows' "
              "certified error")])
def test_band_unresolved_small_field_is_numerical(a, message, capsys):
    """Closer to a = 0 the band fails numerically (exit 3), never as a
    bracket to widen: at -0.05 the grown line's end check, at -0.02 an
    interior scan minimum below the certificate's resolution."""
    assert main(["band", "--a", a]) == 3
    assert message in capsys.readouterr().err


def test_band_note_outside_interface_range(tmp_path):
    """a = -1 has no C1/C2; the sidecar says why, naming the range."""
    out = tmp_path / "band.csv"
    assert main(["band", "--a", "-1", "--grid-n", "400", "--bracket=-2,0",
                 "--out", str(out)]) == 0
    c = json.loads((tmp_path / "band.csv.constants.json").read_text())
    assert "C1" not in c and "C2" not in c
    assert c["note"] == ("no interface constants at this a: C1/C2 are "
                         "defined only for a in (-1, 0)")


def test_band_flat_field_exit(tmp_path):
    assert main(["band", "--a", "1.0", "--grid-n", "1600",
                 "--bracket=-1,1"]) == 3


@pytest.mark.parametrize("L", ["1e300", "1e-300"])
def test_band_length_without_finite_grid_is_input_error(L, capsys):
    # L^2 overflows, or 1/step^2 does: the grid cannot be built
    assert main(["band", "--a", "-0.5", "--L", L]) == 2
    assert capsys.readouterr().out == ""


def test_band_bad_bracket(monkeypatch):
    assert main(["band", "--a", "-0.5", "--bracket", "1.0"]) == 2
    # reversed, narrower than two scan steps, unbounded, overflowing
    for bracket in ("1,-1", "0,0.01", "-inf,1", "-1e307,1e307"):
        assert main(["band", "--a", "-0.5", "--grid-n", "64",
                     "--bracket=" + bracket]) == 2

    def no_solve(*args, **kwargs):
        raise AssertionError("a bracket beyond the scan cap was solved")
    monkeypatch.setattr(stepband, "_ground", no_solve)
    # wider than MAX_SCAN_STEPS steps: rejected before any solve
    for bracket in ("-200,0", "-1e300,1e300"):
        assert main(["band", "--a", "-0.5", "--grid-n", "64",
                     "--bracket=" + bracket]) == 2


def test_resonances_files_and_fit(disk_config, tmp_path):
    out = tmp_path / "res.csv"
    rc = main(["resonances", "--field", str(disk_config),
               "--h", "0.25,0.2,0.15", "--grid-n", "800",
               "--out", str(out)])
    assert rc == 0
    body = out.read_text().splitlines()
    assert body[1] == "m,h,theta1,theta2,reZ,imZ,drift,gridN"
    rows = [line.split(",") for line in body[2:-1]]
    assert len(rows) == 3
    for row, h in zip(rows, (0.25, 0.2, 0.15)):
        z = complex(float(row[4]), float(row[5]))
        assert float(row[1]) == pytest.approx(h)
        assert z.imag < 0.0
        assert z == pytest.approx(FROZEN["disk_resonances"][h], abs=1e-4)
        assert float(row[6]) <= 1e-5 * (1.0 + abs(z))
    fit = body[-1]
    assert fit.startswith("# fit_points=3 ")
    slope = float(fit.split("logim_vs_invh_slope=")[1].split()[0])
    r2 = float(fit.split("r2=")[1])
    assert slope < 0.0
    assert r2 >= 0.95


def test_resonances_readme_bytes(disk_config, capsys):
    """The README resonances example, byte for byte as the certified
    slices give it."""
    assert main(["resonances", "--field", str(disk_config),
                 "--h", "0.25,0.2,0.15", "--grid-n", "3000"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "m,h,theta1,theta2,reZ,imZ,drift,gridN",
        "0,2.50000000000000e-01,5.00000000000000e-01,6.00000000000000e-01,"
        "1.93454555700235e-01,-6.09975468158859e-02,4.62893230411068e-09,"
        "3000",
        "0,2.00000000000000e-01,5.00000000000000e-01,6.00000000000000e-01,"
        "1.70396862880314e-01,-2.73534545691121e-02,1.57733421631919e-09,"
        "3000",
        "0,1.50000000000000e-01,5.00000000000000e-01,6.00000000000000e-01,"
        "1.38968606890627e-01,-6.82734265443934e-03,3.28252987240376e-10,"
        "3000",
        "# fit_points=3 logim_vs_invh_slope=-8.22388589186629e-01 "
        "r2=9.99901724397977e-01"]


@pytest.mark.parametrize("h", ["1e-13", "2e-12"])
def test_resonances_tiny_h_needs_a_window(h, disk_config, capsys):
    """For h <= 2e-12 the default window [0.5h, 1.5h] x [-0.5h, -1e-12] is
    empty: a usage error that names --window, before any slice."""
    assert main(["resonances", "--field", str(disk_config), "--h", h,
                 "--grid-n", "480"]) == 2
    err = capsys.readouterr().err
    assert "default window" in err and "h <= 2e-12" in err
    assert "--window" in err


def test_resonances_replay_is_byte_identical(disk_config, tmp_path):
    out1 = tmp_path / "one" / "res.csv"
    assert main(["resonances", "--field", str(disk_config),
                 "--h", "0.25,0.2", "--grid-n", "480",
                 "--out", str(out1)]) == 0
    manifest = json.loads((tmp_path / "one"
                           / "res.csv.manifest.json").read_text())
    assert manifest["outputs"] == ["res.csv"]
    out2 = tmp_path / "two" / "res.csv"
    replay = [tok if tok != str(out1) else str(out2)
              for tok in manifest["argv"]]
    assert main(replay) == 0
    assert out2.read_bytes() == out1.read_bytes()


def test_resonances_manifest_records_slices(disk_config, tmp_path):
    out = tmp_path / "res.csv"
    assert main(["resonances", "--field", str(disk_config),
                 "--h", "0.25,0.2", "--m", "0:1", "--grid-n", "480",
                 "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "res.csv.manifest.json").read_text())
    slices = manifest["diagnostics"]["slices"]
    assert [s["h"] for s in slices] == [0.25, 0.2]
    for s, h in zip(slices, (0.25, 0.2)):
        assert "centre" not in s  # every slice disk lies about the origin
        # the disk holds the window and its pairing tolerance, no more
        corner = abs(complex(1.5 * h, -0.5 * h))
        assert s["radius"] == corner + PAIR_TOL * (1.0 + corner)
        assert sorted((c["theta"], c["m"]) for c in s["counts"]) == \
            [(0.5, 0), (0.5, 1), (0.6, 0), (0.6, 1)]
        assert all(c["count"] > 0 for c in s["counts"])
        # the smallest continuum displacement of each sector, from the
        # slices already held: null when no point qualifies
        assert [c["m"] for c in s["continuum_motion"]] == [0, 1]
        for c in s["continuum_motion"]:
            assert c["motion"] is None or c["motion"] >= 0.0


def test_resonances_manifest_records_slice_work(disk_config, tmp_path):
    """Each slice's final Arnoldi k, contour points and Arnoldi solves sit
    next to its count, repeat exactly on a rerun and leave the CSV bytes
    alone."""
    records = []
    for run in ("one", "two"):
        out = tmp_path / run / "res.csv"
        assert main(["resonances", "--field", str(disk_config),
                     "--h", "0.25,0.2", "--grid-n", "480",
                     "--out", str(out)]) == 0
        manifest = json.loads(out.with_name("res.csv.manifest.json")
                              .read_text())
        records.append((out.read_bytes(), manifest["diagnostics"]))
    assert records[0] == records[1]
    for s in records[0][1]["slices"]:
        for c in s["counts"]:
            assert set(c) == {"theta", "m", "count", "k", "contour_points",
                              "solves"}
            assert c["k"] > c["count"] > 0 and c["contour_points"] > 0
            assert c["solves"] > 2 * c["k"]  # the first basis has 2k + 1


def test_resonances_no_false_incomplete_slice(disk_config):
    """A window centred at 0.5 - 0.025i, with the slice disk about that
    centre, drew a contour whose first steps the unfound continuum points
    outran, and its winding aliased (44 counted, 77 found) to a false
    "slice incomplete". The disk about the origin certifies the slice."""
    assert main(["resonances", "--field", str(disk_config), "--h", "0.1",
                 "--grid-n", "600",
                 "--window=0.45:0.55:-0.05:-1e-12"]) == 0


@pytest.mark.parametrize("flags", [["--theta1", "0"],
                                   ["--theta1", "0.1",
                                    "--window=-0.5:0.5:-0.3:-0.01"]])
def test_resonances_rejects_pairing_before_any_slice(disk_config, flags,
                                                     monkeypatch):
    """An angle outside (0, THETA_MAX], or a window that a rotated
    continuum ray meets, exits 2 before the first slice is solved."""
    def no_slice(*args, **kwargs):
        raise AssertionError("a slice was solved for an unpairable input")
    monkeypatch.setattr("magres.cscale._spectrum_slice", no_slice)
    assert main(["resonances", "--field", str(disk_config),
                 "--h", "0.25,0.2,0.15", *flags]) == 2


def test_resonances_arnoldi_failure_exit(disk_config, monkeypatch):
    def stalled(state, *args):  # maxiter reached
        state.update(ido=99, info=1)
    monkeypatch.setattr("magres.cscale.znaupd_wrap", stalled)
    assert main(["resonances", "--field", str(disk_config), "--h", "0.25",
                 "--grid-n", "480"]) == 3


def test_resonances_bad_tolerance(disk_config):
    for tol in ("0", "-1e-5", "nan", "inf"):
        assert main(["resonances", "--field", str(disk_config), "--h", "0.25",
                     "--grid-n", "480", "--tol=" + tol]) == 2


def test_resonances_equal_angles(disk_config):
    assert main(["resonances", "--field", str(disk_config), "--h", "0.2",
                 "--theta1", "0.5", "--theta2", "0.5"]) == 2


_RES_DEFAULTS = {"window": None, "theta1": 0.5, "theta2": 0.6, "tol": 1e-5,
                 "m": "0:0"}
_res_bad = [0.0, -0.0, -0.25, 0.25, 1e300, -1e300, 1e-300, math.nan,
            math.inf, -math.inf]


@st.composite
def _res_flags(draw):
    """Resonance flags, valid but for at most two drawn from extremes, so
    that most draws reach a solve: --h lists with repeats, zeros,
    negatives, nan, inf and extreme magnitudes, windows, angles and
    tolerances."""
    broken = draw(st.sets(st.sampled_from(
        ["h", "window", "theta1", "theta2", "tol"]), max_size=2))
    pool = st.sampled_from(_res_bad)

    def pick(name, good, bad=pool):
        return draw(bad if name in broken else good)
    return {"h": pick("h", st.lists(st.sampled_from([0.2, 0.25, 0.3]),
                                    min_size=1, max_size=3, unique=True),
                      st.lists(pool, min_size=1, max_size=3)),
            "window": pick("window", st.sampled_from(
                [None, (0.1, 0.4, -0.2, -1e-12), (0.15, 0.35, -0.1, -1e-6)]),
                st.tuples(*[pool] * 4)),
            "theta1": pick("theta1", st.sampled_from([0.5, 0.4])),
            "theta2": pick("theta2", st.sampled_from([0.6, 0.7])),
            "tol": pick("tol", st.sampled_from([1e-5, 1e-3])),
            "m": draw(st.sampled_from(["0:0", "0:1", "-1:1"]))}


@settings(max_examples=40, deadline=None)
@example(flags={"h": [0.25, 0.25, 0.25], **_RES_DEFAULTS})  # one h to fit
@example(flags={"h": [0.25], **{**_RES_DEFAULTS,
                                "window": (0.1, math.inf, -1.0, 0.0)}})
@example(flags={"h": [0.25], **{**_RES_DEFAULTS, "tol": 1e300}})
@example(flags={"h": [0.25], **{**_RES_DEFAULTS, "tol": 0.25}})
@given(flags=_res_flags())
def test_resonances_fuzz_keeps_exit_contract(flags, tmp_path_factory):
    """Resonance flags exit 0, 2 or 3, never 1, print nothing unless they
    succeed, raise no warnings and write under 1 kB to stderr. A non-finite
    number anywhere, or a pairing tolerance of 1 or more, is an input error
    (exit 2)."""
    h, window = flags["h"], flags["window"]
    path = tmp_path_factory.mktemp("fuzz") / "disk.json"
    path.write_text(json.dumps({"kind": "constant_disk",
                                "params": {"r0": 1.0}, "R0": 1.0}))
    argv = ["resonances", "--field", str(path), "--grid-n", "128",
            "--h=" + ",".join(repr(x) for x in h), f"--m={flags['m']}"]
    argv += [f"--{name}={flags[name]!r}" for name in ("theta1", "theta2",
                                                      "tol")]
    if window is not None:
        argv.append("--window=" + ":".join(repr(x) for x in window))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse refused a flag
            rc = exc.code
    assert rc in (0, 2, 3)
    assert [str(w.message) for w in caught] == []
    assert len(err.getvalue()) < 1024
    lines = out.getvalue().splitlines()
    if rc == 0:
        assert lines[0] == "m,h,theta1,theta2,reZ,imZ,drift,gridN"
    else:
        assert lines == []
    numbers = [*h, *(window or ()), flags["theta1"], flags["theta2"],
               flags["tol"]]
    if not all(math.isfinite(x) for x in numbers) or flags["tol"] >= 1.0:
        assert rc == 2
    if flags == {"h": [0.25], **{**_RES_DEFAULTS, "tol": 0.25}}:
        assert rc == 3  # every eigenvalue near the window pairs with many


def test_quasimode_report(tmp_path):
    out = tmp_path / "q.csv"
    rc = main(["quasimode", "--b", "25", "--r0", "1.0", "--delta", "0.2",
               "--tz-c", "0.2", "--out", str(out)])
    assert rc == 0
    body = out.read_text().splitlines()
    assert body[1] == "model,n,m,b,r0,delta,norm_defect,residual"
    row = body[2].split(",")
    assert row[0] == "landau"
    assert 0.0 < float(row[6]) < 1e-3  # norm defect at b = 25
    assert float(row[7]) > 0.0
    w = json.loads((tmp_path / "q.csv.window.json").read_text())
    assert w["h"] == pytest.approx(0.04)
    assert w["R"] == pytest.approx(w["S"] ** 2, rel=1e-12)
    assert w["crossover_h"] == pytest.approx(0.01111171536983885, rel=1e-9)
    assert main(["quasimode", "--delta", "1.5"]) == 2


@pytest.mark.parametrize("argv", [
    ["--tz-c", "nan"],
    ["--r0", "nan", "--tz-c", "0.2"],
    ["--b", "inf"],
    ["--b", "nan"],
    ["--r0", "nan"],
], ids=["tz-c-nan", "r0-nan-tz-c", "b-inf", "b-nan", "r0-nan"])
def test_quasimode_non_finite_input_is_input_error(argv, capsys):
    assert main(["quasimode", *argv]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("c", ["1e-320", "5e-324"])
def test_quasimode_underflowing_crossover_is_input_error(c, capsys):
    # the crossover h underflows to nan or 0 below the smallest float
    assert main(["quasimode", "--tz-c", c]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["--n", "100000", "--r0", "1"],
    ["--n", "1000000", "--r0", "1"],
    ["--n", "1000"],
    ["--n", "250", "--grid-n", "1000", "--r0", "2"],
], ids=["n-1e5", "n-1e6", "n-quarter-default-N", "n-quarter-N1000"])
def test_quasimode_level_beyond_grid_is_input_error(argv, monkeypatch,
                                                    capsys):
    """A level n >= N/4 exits 2 before the n-step Laguerre recurrence: L_n
    has n sign changes, more than the grid resolves."""
    def no_work(*args, **kwargs):
        raise AssertionError("an unresolved level reached the recurrence")
    monkeypatch.setattr(quasimode, "laguerre", no_work)
    assert main(["quasimode", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "N/4" in captured.err
    assert "Traceback" not in captured.err


_BIG = "1" + "0" * 400


@pytest.mark.parametrize("argv", [
    ["spectrum", "--field", "x.json", f"--m={_BIG}:{_BIG}"],
    ["resonances", "--field", "x.json", "--h", "0.2", f"--m=-{_BIG}:0"],
    ["quasimode", "--m", _BIG],
    ["quasimode", "--n", _BIG],
    ["quasimode", "--m", str(-2 ** 53 - 1)],
], ids=["spectrum-m", "resonances-m", "quasimode-m", "quasimode-n",
        "quasimode-m-2pow53"])
def test_integer_beyond_float_range_is_input_error(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "2**53" in captured.err


@pytest.mark.parametrize("m", ["300", "2000"])
def test_quasimode_high_sector_stays_finite(m, capsys):
    # formed apart, r^|m| overflows on this grid where e^{-b r^2/4} (and at
    # m = 2000 the normalization constant) underflows
    assert main(["quasimode", "--m", m, "--r0", "19"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    norm_defect, residual = float(row[6]), float(row[7])
    assert math.isfinite(norm_defect) and abs(norm_defect) < 1e-3
    assert math.isfinite(residual) and residual >= 0.0


def test_compare_well_cli(tmp_path):
    out = tmp_path / "cmp.csv"
    rc = main(["compare", "--model", "well", "--h", "0.1,0.05,0.025",
               "--out", str(out)])
    assert rc == 0
    body = out.read_text().splitlines()
    assert body[1] == ("model,n,h,expansion,direct,diff,"
                       "ratio_to_expected,observed_order")
    assert len(body) == 5
    diffs = [abs(float(line.split(",")[5])) for line in body[2:]]
    assert 4.0 <= diffs[0] / diffs[1] <= 16.0
    assert 4.0 <= diffs[1] / diffs[2] <= 16.0


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_run(tmp_path, monkeypatch):
    """Every command of the README's `magres` block, its `\\` continuations
    joined, exits 0 in a fresh directory that holds the README's two field
    files, and writes its CSV and manifest. Each subcommand has one."""
    text = README.read_text()
    fields = {"anh.json": "anharmonic", "disk.json": "constant_disk"}
    for name, kind in fields.items():
        body = next(b for b in text.split("```json\n")[1:]
                    if f'"kind": "{kind}"' in b).split("```")[0]
        (tmp_path / name).write_text(body)
    block = next(b for b in text.split("```sh\n")[1:]
                 if "\nmagres " in b).split("```")[0]
    commands = [line.split()[1:] for line in
                block.replace("\\\n", " ").splitlines()
                if line.startswith("magres ")]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
        out = tmp_path / argv[argv.index("--out") + 1]
        assert out.is_file() and out.with_name(
            out.name + ".manifest.json").is_file(), argv
    assert sorted(argv[0] for argv in commands) == [
        "band", "compare", "quasimode", "resonances", "spectrum"]


def test_compare_well_readme_bytes(capsys):
    """The README well sweep, byte for byte as the solve of every sector of
    the cap gives it with levels refined by certified inverse iteration."""
    assert main(["compare", "--model", "well", "--h", "0.1,0.05,0.025"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "model,n,h,expansion,direct,diff,ratio_to_expected,observed_order",
        "well,0,1.00000000000000e-01,1.40000000000000e-01,"
        "1.16284955980154e-01,-2.37150440198464e-02,2.37150440198464e+01,"
        "2.07815351731524e+00",
        "well,0,5.00000000000000e-02,6.00000000000000e-02,"
        "5.44353875595482e-02,-5.56461244045185e-03,4.45168995236148e+01,"
        "2.07815351731524e+00",
        "well,0,2.50000000000000e-02,2.75000000000000e-02,"
        "2.61700024329651e-02,-1.32999756703489e-03,8.51198442902328e+01,"
        "2.07815351731524e+00"]


@pytest.mark.parametrize("sweep", ["2,1.5,1.2", "5,4,3"])
def test_compare_well_grows_r_max_past_a_failed_ceiling(sweep, tmp_path):
    """At h >= 2 the well ladder's r_max = 3 ceiling fails; the ladder is
    solved again at r_max = 4.5, which the manifest records, and a value
    whose ladder holds at r_max = 3 keeps it."""
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--model", "well", "--h", sweep,
                 "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "cmp.csv.manifest.json").read_text())
    radii = {d["h"]: d["r_max"] for d in manifest["diagnostics"]["ladders"]}
    assert radii == {h: 4.5 if h >= 2 else 3.0
                     for h in map(float, sweep.split(","))}


@pytest.mark.parametrize("argv", [
    ["--model", "well", "--n", "1", "--h", "0.1,0.05,0.025"],
    ["--model", "island", "--b", "25,50,100"],
    ["--model", "anharmonic", "--n", "1", "--h", "0.1,0.05,0.025"],
    ["--model", "landau", "--h", "0.1,0.05,0.025"]])
def test_compare_manifest_records_each_ladder_sweep(argv, tmp_path, capsys):
    """diagnostics.ladders holds, per sweep value (per gamma for the
    anharmonic ladder, none for landau), how its ladder was certified; the
    CSV is the one printed without --out."""
    assert main(["compare", *argv]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "cmp.csv"
    assert main(["compare", *argv, "--out", str(out)]) == 0
    assert out.read_text().split("\n", 1)[1] == printed
    manifest = json.loads((tmp_path / "cmp.csv.manifest.json").read_text())
    ladders = manifest["diagnostics"]["ladders"]
    key = {"well": "h", "island": "b", "anharmonic": "gamma"}.get(argv[1])
    values = {"h": [0.1, 0.05, 0.025], "b": [25.0, 50.0, 100.0],
              "gamma": [2.0], None: []}[key]
    assert [d[key] for d in ladders] == values
    n = int(argv[argv.index("--n") + 1]) if "--n" in argv else 0
    for d in ladders:
        assert set(d) == {key, "solved", "certified", "fallback", "margin",
                          "shift", "r_max"}
        assert sorted(d["solved"] + d["certified"]) == list(
            radial.default_m_range(n))
        assert set(d["fallback"]) <= set(d["solved"])
        assert d["margin"] > 0 and d["shift"] > d["margin"]


def test_compare_argument_rules(monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("an input error reached a solve")
    for name in ("fiber_levels", "_anharmonic_ladder", "_well_ladder",
                 "_island_ladder", "dirichlet_disk_levels"):
        monkeypatch.setattr(cli, name, no_solve)
    well, island = "--h=0.1,0.05,0.025", "--b=25,50,100"
    for argv in (["--model", "step", well],
                 ["--model", "island", well],  # islands sweep --b
                 ["--model", "well", "--h=0.1,0.05"],
                 ["--model", "well", "--h=0.1,0.05,0.05"],
                 # h = 1/b: a field strength must be positive and finite
                 *(["--model", "island", "--b=" + bs]
                   for bs in ("0,1,2", "25,-50,100", "25,50,-0.0",
                              "nan,25,50", "inf,25,50")),
                 # the well and island ladders solve on grids their model
                 # fixes
                 *(["--model", model, sweep, flag]
                   for model, sweep in (("well", well), ("island", island))
                   for flag in ("--grid-n=64", "--rmax=0.5"))):
        assert main(["compare", *argv]) == 2, argv
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err


def test_compare_anharmonic_solves_the_sector_of_its_level(capsys):
    """Lambda_1 of the gamma = 2 ladder lives in sector m = 1, so the direct
    value at each h is that sector's ground level, equal to the expansion
    Lambda_1 h^{3/2} up to the grids' error (the field is homogeneous)."""
    assert main(["compare", "--model", "anharmonic", "--n", "1",
                 "--h", "0.1,0.05,0.025"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3
    for row in rows:
        expansion, direct = float(row[3]), float(row[4])
        assert abs(direct - expansion) <= 1e-8 * expansion, row


@pytest.mark.parametrize("model", ["anharmonic", "well", "island"])
def test_compare_level_index_beyond_ladder_grid_is_input_error(
        model, monkeypatch, capsys):
    """n + 1 >= N/2 of the ladder grid exits 2 before any sector list or
    Bessel zero."""
    def no_work(*args, **kwargs):
        raise AssertionError("an out-of-range index reached the ladder")
    for name in ("sector_sweep", "_solve_sectors", "jn_zeros"):
        monkeypatch.setattr(radial, name, no_work)
    sweep = "--b=25,50,100" if model == "island" else "--h=0.1,0.05,0.025"
    for n in ("1499", "1000000"):
        assert main(["compare", "--model", model, "--n", n, sweep]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "level index" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("rho1", ["nan", "inf", "0", "-1"])
def test_compare_island_radius_must_be_finite_and_positive(rho1, capsys):
    assert main(["compare", "--model", "island", f"--rho1={rho1}",
                 "--b=25,50,100"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err


@pytest.mark.parametrize("grid_n", ["4000000000000", "1" + "0" * 400])
@pytest.mark.parametrize("command", ["spectrum", "band", "resonances",
                                     "quasimode", "compare"])
def test_huge_grid_is_input_error(command, grid_n, anh_config, disk_config,
                                  capsys):
    """N beyond MAX_GRID_N exits 2 before any allocation."""
    argv = {"spectrum": ["--field", str(anh_config)],
            "band": ["--a", "-0.5"],
            "resonances": ["--field", str(disk_config), "--h", "0.25"],
            "quasimode": [],
            "compare": ["--model", "landau", "--h", "0.1,0.05,0.025"]}[command]
    assert main([command, *argv, "--grid-n", grid_n]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert str(MAX_GRID_N) in captured.err


def test_manifest_params_are_the_parsed_flags(anh_config, disk_config,
                                              tmp_path):
    """Every flag but --out is recorded once, under its parser dest; a
    field run adds the resolved field_spec."""
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    runs = {
        "spectrum": ["--field", str(anh_config), "--levels", "1",
                     "--grid-n", "800", "--rmax", "12"],
        "band": ["--a", "-0.5", "--grid-n", "400", "--bracket=-2,0"],
        "resonances": ["--field", str(disk_config), "--h", "0.25",
                       "--grid-n", "480"],
        "quasimode": ["--b", "16"],
        "compare": ["--model", "landau", "--h", "0.1,0.05,0.025"],
    }
    assert set(runs) == set(subparsers)
    for name, argv in runs.items():
        out = tmp_path / name / "out.csv"
        assert main([name, *argv, "--out", str(out)]) == 0
        manifest = json.loads(
            (out.parent / "out.csv.manifest.json").read_text())
        dests = {a.dest for a in subparsers[name]._actions} - {"help", "out"}
        assert set(manifest["params"]) - {"field_spec"} == dests, name
    # compare records the grid it solved on, and none for the well
    assert manifest["params"]["grid_n"] == 3000
    assert manifest["params"]["rmax"] == 12.0
    out = tmp_path / "well" / "out.csv"
    assert main(["compare", "--model", "well", "--h", "0.1,0.05,0.025",
                 "--out", str(out)]) == 0
    params = json.loads(
        (out.parent / "out.csv.manifest.json").read_text())["params"]
    assert params["grid_n"] is None and params["rmax"] is None


@pytest.mark.parametrize("argv", [
    ["spectrum", "--field", None, "--rmax", "1e-150", "--grid-n", "256"],
    ["resonances", "--field", None, "--h", "0.25", "--t0", "inf"],
    ["resonances", "--field", None, "--h", "0.25", "--t0", "1e308"],
    ["resonances", "--field", None, "--h", "0.25", "--r1", "1e-300",
     "--t0", "2e-300"],
    ["compare", "--model", "island", "--rho1", "1e-300", "--rho2", "1",
     "--b", "5,6,7"]],
    ids=["spectrum-dr", "resonances-t0-inf", "resonances-t0-1e308",
         "resonances-ramp-1e-300", "compare-rho1"])
def test_scale_beyond_float_range_is_input_error(argv, disk_config, capsys):
    """A grid whose 1 / (r dr^2) underflows, a deformation whose 2 T0 is
    infinite or whose ramp 1 / (T0 - R1)^2 overflows and an island hole
    whose 1 / rho1^2 overflows exit 2 before any arithmetic: no warning,
    no traceback."""
    argv = [str(disk_config) if tok is None else tok for tok in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "Warning" not in captured.err and "Traceback" not in captured.err


def _run_fuzzed(argv) -> tuple:
    """(exit code, stdout, stderr) of main(argv), argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse refused a flag
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _assert_exit_contract(rc, out, err, header):
    """Exit 0, 2 or 3 and no traceback; a success prints its CSV under
    header with no nan or infinity, a failure prints nothing."""
    assert rc in (0, 2, 3)
    assert "Traceback" not in err
    if rc:
        assert out == ""
    else:
        assert out.splitlines()[0] == header
        assert "nan" not in out.lower() and "inf" not in out.lower(), out


_EXTREMES = [0.0, -1.0, 1e-300, 1e300, -1e300, math.nan, math.inf]


@st.composite
def _flags(draw, pools: dict):
    """Flags drawn from their (good, bad) pools: every flag good but at
    most two, so that most draws reach a solve."""
    broken = draw(st.sets(st.sampled_from(sorted(pools)), max_size=2))
    return {name: draw(st.sampled_from(pools[name][name in broken]))
            for name in pools}


_BAND_FLAGS = {"a": ([-0.5, -0.3, -1.0, 0.5, 1.0], _EXTREMES),
               "L": ([12.0, 6.0, 3.0], _EXTREMES),
               "bracket": (["-2,0", "-4,1", "-1,1"],
                           ["0,-2", "-2,-2", "-2", "-1e300,0", "nan,0",
                            "-2,inf"]),
               "grid_n": (["64", "128"], ["0", "100", "63"])}
_QUASIMODE_FLAGS = {"n": ([0, 1, 5], [100, 300]),
                    "m": ([0, 1, -3], [300, -2000]),
                    "b": ([25.0, 16.0], _EXTREMES),
                    "r0": ([1.0, 2.0], [20.0, 200.0, *_EXTREMES]),
                    "delta": ([0.2, 0.5], [0.0, 1.0, math.nan]),
                    "tz_c": ([None, 0.2], _EXTREMES),
                    "rmax": ([20.0, 5.0], [200.0, *_EXTREMES]),
                    "grid_n": ([4000, 1000], [64])}
_BAND_SMALL = {"a": -0.5, "L": 12.0, "bracket": "-2,0", "grid_n": "64"}
# inside r0, e^{-b r^2/4} L_n(b r^2/2) is 0 * inf here: exit 3, not nan
_NAN_REPORTS = [{"n": n, "m": 0, "b": 25.0, "r0": r0, "delta": 0.2,
                 "tz_c": None, "rmax": r0, "grid_n": 4000}
                for n, r0 in ((300, 20.0), (100, 200.0))]


@settings(max_examples=40, deadline=None)
@example(flags=_BAND_SMALL)
@given(flags=_flags(_BAND_FLAGS))
def test_band_fuzz_keeps_exit_contract(flags):
    """Band flags of extreme, non-finite and malformed values on small
    grids exit 0, 2 or 3, never 1 or with a traceback, and a successful
    run prints finite numbers only."""
    argv = ["band", f"--a={flags['a']!r}", f"--L={flags['L']!r}",
            f"--bracket={flags['bracket']}", f"--grid-n={flags['grid_n']}"]
    rc, out, err = _run_fuzzed(argv)
    _assert_exit_contract(rc, out, err, "a,xi,mu")
    if flags == _BAND_SMALL:
        assert rc == 0


@settings(max_examples=60, deadline=None)
@example(flags=_NAN_REPORTS[0])
@example(flags=_NAN_REPORTS[1])
@given(flags=_flags(_QUASIMODE_FLAGS))
def test_quasimode_fuzz_keeps_exit_contract(flags):
    """Quasimode flags of extreme and non-finite values exit 0, 2 or 3,
    never 1 or with a traceback, and a successful report is finite: a
    level whose Laguerre factor overflows inside r0 exits 3."""
    argv = ["quasimode"] + [f"--{name.replace('_', '-')}={value!r}"
                            for name, value in flags.items()
                            if value is not None]
    rc, out, err = _run_fuzzed(argv)
    _assert_exit_contract(rc, out, err,
                          "model,n,m,b,r0,delta,norm_defect,residual")
    if flags in _NAN_REPORTS:
        assert rc == 3


_sweep_values = st.sampled_from([0.0, -0.0, -0.1, math.nan, math.inf,
                                 -math.inf, 1e300, 1e-300, 0.1, 0.05, 0.025,
                                 25.0, 50.0])
_README_SWEEP = [0.1, 0.05, 0.025]


@settings(max_examples=80, deadline=None)
@example(model="landau", n=0, sweep=_README_SWEEP)
@example(model="island", n=0, sweep=[0.0, 1.0, 2.0])  # h = 1/b
@example(model="landau", n=0, sweep=[0.1, 0.1, 0.1])  # no order to fit
@example(model="island", n=0, sweep=[1e-300, 25.0, 50.0])  # h^2 overflows
@example(model="well", n=0, sweep=[1e-300, 0.1, 0.05])  # h^3 underflows
@given(model=st.sampled_from(["landau", "anharmonic", "well", "island"]),
       n=st.sampled_from([-1, 0, 1]),
       sweep=st.lists(_sweep_values, min_size=1, max_size=4))
def test_compare_fuzz_keeps_exit_contract(model, n, sweep):
    """Sweeps with zeros, negatives, repeats, nan, inf and extreme
    magnitudes exit 0, 2 or 3, never 1, print nothing unless they succeed
    and raise no warnings."""
    flag = "--b=" if model == "island" else "--h="
    argv = ["compare", "--model", model, f"--n={n}",
            flag + ",".join(repr(x) for x in sweep)]
    out = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out):
        warnings.simplefilter("always")
        rc = main(argv)
    assert rc in (0, 2, 3)
    assert [str(w.message) for w in caught] == []
    lines = out.getvalue().splitlines()
    if rc == 0:
        assert lines[0] == ("model,n,h,expansion,direct,diff,"
                            "ratio_to_expected,observed_order")
        assert len(lines) == 1 + len(sweep)
    else:
        assert lines == []
    if model == "landau" and sweep == _README_SWEEP:
        assert rc == 0


def test_cli_import_leaves_scipy_optimize_unloaded():
    src = str(Path(magres.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, magres.cli; print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"


def test_band_loads_no_sparse_or_special_functions(tmp_path):
    """SciPy's sparse and special-function modules are imported only by
    the commands that use them."""
    code = ("import sys\n"
            "import magres.cli\n"
            f"assert magres.cli.main(['band', '--a', '-0.5', '--grid-n', "
            f"'64', '--out', {str(tmp_path / 'band.csv')!r}]) == 0\n"
            "print([m for m in ('scipy.sparse', 'scipy.sparse.linalg', "
            "'scipy.special') if m in sys.modules])\n")
    src = str(Path(magres.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_resonances_loads_no_sparse(disk_config, tmp_path):
    """`resonances` drives ARPACK without `scipy.sparse`."""
    argv = ["resonances", "--field", str(disk_config), "--h", "0.25",
            "--grid-n", "480", "--out", str(tmp_path / "r.csv")]
    code = ("import sys\n"
            "import magres.cli\n"
            f"assert magres.cli.main({argv!r}) == 0\n"
            "print([m for m in ('scipy.sparse', 'scipy.sparse.linalg') "
            "if m in sys.modules])\n")
    src = str(Path(magres.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_entry_point():
    src = str(Path(magres.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "magres.cli",
                           "quasimode", "--b", "16"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == \
        "model,n,m,b,r0,delta,norm_defect,residual"


def test_band_grows_L_while_its_end_check_fails(monkeypatch, tmp_path):
    """At a = -0.25 the default L = 12 fails the end check; the band grows
    to L = 18 at the same step (N = 7200) and meets the frozen L = 16
    constants. With no growth left the end check stands."""
    out = tmp_path / "band.csv"
    assert main(["band", "--a", "-0.25", "--out", str(out)]) == 0
    c = json.loads((tmp_path / "band.csv.constants.json").read_text())
    ref = FROZEN["step_minus025"]
    assert (c["L"], c["N"]) == (18.0, 7200)
    assert c["beta"] == pytest.approx(ref["beta"], abs=1e-6)
    assert c["zeta"] == pytest.approx(ref["zeta"], abs=1e-5)
    for key in ("mu2", "C1", "C2"):
        assert c[key] == pytest.approx(ref[key], rel=1e-3)
    monkeypatch.setattr(stepband, "R_MAX_GROWTHS", 0)
    with pytest.raises(TruncationError, match="enlarge L"):
        stepband.analyze_band(stepband.StepParams(a=-0.25, N=1600))


def test_manifests_record_the_eigensolver_work(anh_config, tmp_path):
    """compare records, per ladder, the coarse bisections (one per block
    of levels and grid), factorizations and solves; spectrum records the
    same totals."""
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--model", "well", "--n", "1",
                 "--h", "0.1,0.05,0.025", "--out", str(out)]) == 0
    diag = json.loads((tmp_path / "cmp.csv.manifest.json").read_text()
                      )["diagnostics"]
    assert [w["h"] for w in diag["work"]] == [0.1, 0.05, 0.025]
    for sweep, work in zip(diag["ladders"], diag["work"]):
        assert work["bisections"] >= 2 * len(sweep["solved"])
        # each certified sector is one factorization per grid
        assert work["factorizations"] >= 2 * len(sweep["certified"])
        assert work["solves"] >= 2 * 2 * len(sweep["solved"])
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--field", str(anh_config), "--levels", "2",
                 "--m", "0:2", "--grid-n", "800", "--rmax", "12",
                 "--out", str(out)]) == 0
    work = json.loads((tmp_path / "spec.csv.manifest.json").read_text()
                      )["diagnostics"]["work"]
    assert set(work) == {"bisections", "factorizations", "refused",
                         "solves"}
    assert work["bisections"] == 3 * 2 * 2
    assert work["solves"] >= work["factorizations"] - work["refused"] >= 12


@pytest.mark.parametrize("argv", [
    ["spectrum", "--field", None, "--b", "1e200"],
    ["compare", "--model", "landau", "--h", "0.1,0.05,0.025",
     "--rmax", "1e300"]], ids=["spectrum", "compare-landau"])
def test_non_finite_fiber_is_numerical_failure(argv, disk_config, capsys):
    """A potential that overflows to inf gives a fiber with non-finite
    entries: exit 3, no traceback."""
    argv = [str(disk_config) if tok is None else tok for tok in argv]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "non-finite entries" in err and "Traceback" not in err


def test_refinement_at_its_iteration_cap_exits_3(monkeypatch, anh_config):
    monkeypatch.setattr(radial, "MAX_SOLVES", 2)
    assert main(["spectrum", "--field", str(anh_config), "--grid-n", "800",
                 "--rmax", "12"]) == 3
