import json
import math
import subprocess
import sys

import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from magres.cli import build_parser, main

from conftest import FROZEN


@pytest.fixture()
def anh_config(tmp_path):
    p = tmp_path / "anh.json"
    p.write_text(json.dumps({"kind": "anharmonic",
                             "params": {"gamma": 2.0}, "R0": 1.0}))
    return p


@pytest.fixture()
def disk_config(tmp_path):
    p = tmp_path / "disk.json"
    p.write_text(json.dumps({"kind": "constant_disk",
                             "params": {"r0": 1.0}, "R0": 1.0}))
    return p


def test_parser_rejects_malformed_arguments(disk_config):
    parser = build_parser()
    for argv in (["spectrum", "--field", "x.json", "--grid-n", "0"],
                 ["spectrum", "--field", "x.json", "--m", "3"],
                 ["spectrum", "--field", "x.json", "--m", "4:2"],
                 ["resonances", "--field", "x.json", "--h", "a,b"],
                 ["resonances", "--field", "x.json", "--h", "0.2",
                  "--window", "1:2:3"],
                 ["band"]):
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
    solve = sla.eigh_tridiagonal
    callers = []

    def counting(*args, **kwargs):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return solve(*args, **kwargs)
    monkeypatch.setattr(sla, "eigh_tridiagonal", counting)
    assert main(["band", "--a", "-0.5", "--out",
                 str(tmp_path / "band.csv")]) == 0
    # one 101-point scan, the minimizer refinement and the constants;
    # each refined band value is two solves (N and N/2)
    assert callers.count("magres.stepband") <= 310


def test_band_bracket_governs_constants(tmp_path):
    out = tmp_path / "band.csv"
    assert main(["band", "--a", "-0.5", "--grid-n", "1600",
                 "--bracket=-1.53,0.21", "--out", str(out)]) == 0
    c = json.loads((tmp_path / "band.csv.constants.json").read_text())
    c1 = (1.0 / 3.0) * (1.0 - 1.0 / c["a"]) * c["zeta"] * c["phi0"] \
        * c["phi0p"]
    assert c["C1"] == pytest.approx(c1, rel=1e-14, abs=0.0)


def test_band_flat_field_exit(tmp_path):
    assert main(["band", "--a", "1.0", "--grid-n", "1600",
                 "--bracket=-1,1"]) == 3


def test_band_bad_bracket():
    assert main(["band", "--a", "-0.5", "--bracket", "1.0"]) == 2
    # reversed, narrower than two scan steps, unbounded, overflowing
    for bracket in ("1,-1", "0,0.01", "-inf,1", "-1e307,1e307"):
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
        centre = complex(*s["centre"])
        assert centre == pytest.approx(complex(h, -0.25 * h), abs=1e-11)
        # the disk covers |z| <= 2 max|window corner|
        assert s["radius"] >= abs(centre) + 2.0 * abs(complex(1.5 * h,
                                                              -0.5 * h))
        assert sorted((c["theta"], c["m"]) for c in s["counts"]) == \
            [(0.5, 0), (0.5, 1), (0.6, 0), (0.6, 1)]
        assert all(c["count"] > 0 for c in s["counts"])


def test_resonances_arnoldi_failure_exit(disk_config, monkeypatch):
    def stalled(A, k, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", [], [])
    monkeypatch.setattr(spla, "eigs", stalled)
    assert main(["resonances", "--field", str(disk_config), "--h", "0.25",
                 "--grid-n", "480"]) == 3


def test_resonances_bad_tolerance(disk_config):
    for tol in ("0", "-1e-5", "nan", "inf"):
        assert main(["resonances", "--field", str(disk_config), "--h", "0.25",
                     "--grid-n", "480", "--tol=" + tol]) == 2


def test_resonances_equal_angles(disk_config):
    assert main(["resonances", "--field", str(disk_config), "--h", "0.2",
                 "--theta1", "0.5", "--theta2", "0.5"]) == 2


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


def test_compare_argument_rules():
    assert main(["compare", "--model", "step", "--h", "0.1,0.05,0.025"]) == 2
    assert main(["compare", "--model", "island",
                 "--h", "0.1,0.05,0.025"]) == 2  # islands sweep --b
    assert main(["compare", "--model", "well", "--h", "0.1,0.05"]) == 2


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "magres.cli",
                           "quasimode", "--b", "16"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == \
        "model,n,m,b,r0,delta,norm_defect,residual"
