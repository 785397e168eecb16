"""The LAPACK and ARPACK loader: one set of routine objects whichever
import route loads them, the package-import fallback, the import budget
of the commands, and the exit-code contract of the routines' failures."""

import importlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import magres
import magres._lapack as _lapack
import magres.cscale as cscale
import magres.radial as radial
from magres.cli import main
from magres.cscale import (PAIR_TOL, assemble_scaled_fiber, complex_spectrum,
                           scaling_profile)
from magres.errors import NumericalError
from magres.radial import RadialGrid, assemble_fiber, eigs_lowest

ROUTINES = ("dpttrf", "dpttrs", "dstebz", "dstein", "zgttrf", "zgttrs",
            "zgeev", "zgeev_lwork")
ARPACK_ROUTINES = ("znaupd_wrap", "zneupd_wrap")
SRC = str(Path(magres.__file__).resolve().parents[1])
# run first in a process, this makes both file loads of `_lapack` fail
FAILED_LOAD = ("import importlib.util\n"
               "find_spec = importlib.util.find_spec\n"
               "importlib.util.find_spec = lambda name, *a: (\n"
               "    None if name == 'scipy' else find_spec(name, *a))\n")


def _python(code: str, cwd: Path) -> str:
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_routines_are_scipy_linalg_lapack_routines(tmp_path):
    """Loaded before `scipy.linalg` or after it, the extension is one
    module and every routine one object."""
    import scipy.linalg.lapack as lapack
    assert all(getattr(_lapack, n) is getattr(lapack, n) for n in ROUTINES)
    code = ("import sys\n"
            "import magres._lapack as L\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "assert L._lib is sys.modules['scipy.linalg._flapack']\n"
            "import scipy.linalg.lapack as S\n"
            f"print(all(getattr(L, n) is getattr(S, n) for n in {ROUTINES}))")
    assert _python(code, tmp_path) == "True"


def test_failed_load_falls_back_to_scipy_linalg_lapack(monkeypatch):
    import scipy.linalg.lapack as lapack
    find_spec = importlib.util.find_spec
    try:
        with monkeypatch.context() as mp:
            mp.delitem(sys.modules, _lapack.NAME, raising=False)
            mp.setattr(importlib.util, "find_spec", lambda name, *a: (
                None if name == "scipy" else find_spec(name, *a)))
            importlib.reload(_lapack)
            assert _lapack._lib is lapack
            assert all(getattr(_lapack, n) is getattr(lapack, n)
                       for n in ROUTINES)
    finally:
        importlib.reload(_lapack)
    assert _lapack._lib is sys.modules[_lapack.NAME]


def test_band_through_the_fallback_writes_the_same_bytes(tmp_path):
    """A process whose `_flapack` load fails runs `band` on
    `scipy.linalg.lapack` and writes the same CSV and sidecar."""
    argv = ["band", "--a", "-0.5", "--grid-n", "400", "--out", "band.csv"]
    code = (FAILED_LOAD +
            "import magres.cli, magres._lapack as L, scipy.linalg.lapack\n"
            "assert L._lib is scipy.linalg.lapack\n"
            f"print(magres.cli.main({argv!r}))")
    (tmp_path / "fallback").mkdir()
    assert _python(code, tmp_path / "fallback") == "0"
    assert main(argv[:-1] + [str(tmp_path / "band.csv")]) == 0
    for name in ("band.csv", "band.csv.constants.json"):
        assert (tmp_path / "fallback" / name).read_bytes() == \
            (tmp_path / name).read_bytes()


def test_arpack_routines_are_the_sparse_packages_routines(tmp_path):
    """Loaded before `scipy.sparse.linalg` or after it, `_arpacklib` is
    one module and every routine one object."""
    from scipy.sparse.linalg._eigen.arpack import arpack
    assert _lapack._arpack is arpack._arpacklib
    assert all(getattr(_lapack, n) is getattr(arpack._arpacklib, n)
               for n in ARPACK_ROUTINES)
    before = ("import sys\n"
              "import magres._lapack as L\n"
              "assert 'scipy.sparse' not in sys.modules\n"
              "assert L._arpack is sys.modules[L.ARPACK]\n"
              "from scipy.sparse.linalg._eigen.arpack import arpack\n")
    after = ("from scipy.sparse.linalg._eigen.arpack import arpack\n"
             "import magres._lapack as L\n")
    for code in (before, after):
        code += ("print(all(getattr(L, n) is getattr(arpack._arpacklib, n) "
                 f"for n in {ARPACK_ROUTINES}))")
        assert _python(code, tmp_path) == "True"


def test_failed_arpack_load_falls_back_to_the_package_import(tmp_path):
    code = (FAILED_LOAD +
            "import sys\n"
            "import magres._lapack as L\n"
            "assert 'scipy.sparse.linalg' in sys.modules\n"
            "from scipy.sparse.linalg._eigen.arpack import _arpacklib\n"
            "print(L._arpack is _arpacklib and all(getattr(L, n) is "
            f"getattr(_arpacklib, n) for n in {ARPACK_ROUTINES}))")
    assert _python(code, tmp_path) == "True"


def test_resonances_through_the_fallback_writes_the_same_bytes(
        tmp_path, disk_config):
    """A process whose extension loads fail runs `resonances` through the
    package imports and writes the same CSV and diagnostics."""
    argv = ["resonances", "--field", str(disk_config), "--h", "0.25",
            "--grid-n", "480", "--out", "r.csv"]
    code = (FAILED_LOAD +
            "import sys, magres.cli\n"
            "assert 'scipy.sparse.linalg' in sys.modules\n"
            f"print(magres.cli.main({argv!r}))")
    (tmp_path / "fallback").mkdir()
    assert _python(code, tmp_path / "fallback") == "0"
    assert main(argv[:-1] + [str(tmp_path / "r.csv")]) == 0
    assert (tmp_path / "fallback" / "r.csv").read_bytes() == \
        (tmp_path / "r.csv").read_bytes()
    manifests = [json.loads((d / "r.csv.manifest.json").read_text())
                 for d in (tmp_path / "fallback", tmp_path)]
    assert manifests[0]["diagnostics"] == manifests[1]["diagnostics"]


@pytest.mark.parametrize("argv", [
    ["band", "--a", "-0.5", "--grid-n", "400"],
    ["compare", "--model", "well", "--h", "0.1,0.05,0.025"],
    ["spectrum", "--field", "FIELD", "--b", "4", "--m=-3:3", "--levels",
     "2"],
    ["quasimode", "--b", "16", "--tz-c", "0.2"],
    ["resonances", "--field", "DISK", "--h", "0.25", "--grid-n", "480"],
], ids=lambda argv: argv[0])
def test_commands_leave_scipy_linalg_unloaded(argv, anh_config, disk_config,
                                              tmp_path):
    """No command loads `scipy.linalg`."""
    fields = {"FIELD": str(anh_config), "DISK": str(disk_config)}
    argv = [fields.get(a, a) for a in argv]
    code = ("import sys\n"
            "import magres.cli\n"
            f"assert magres.cli.main({argv + ['--out', 'out.csv']!r}) == 0\n"
            "print('scipy.linalg' in sys.modules)")
    assert _python(code, tmp_path) == "False"


def test_benchmark_warm_up_leaves_scipy_linalg_unloaded(tmp_path):
    """The real and the dense complex solve that warm a benchmark process
    up load no `scipy.linalg`."""
    code = ("import sys\n"
            "from magres.cscale import (assemble_scaled_fiber, "
            "complex_spectrum, scaling_profile)\n"
            "from magres.fields import FieldSpec, make_profile\n"
            "from magres.radial import RadialGrid, fiber_levels\n"
            "disk = make_profile(FieldSpec('constant_disk', {'r0': 1.0}, "
            "R0=1.0))\n"
            "grid = RadialGrid(18.0, 128)\n"
            "fiber_levels(disk, 0, 1.0, grid, 1)\n"
            "complex_spectrum(assemble_scaled_fiber(\n"
            "    disk, 0, 0.25, scaling_profile(0.5, 1.5, 6.0), grid))\n"
            "print('scipy.linalg' in sys.modules)")
    assert _python(code, tmp_path) == "False"


def _failing(routine):
    """`routine` with its LAPACK info replaced by 1."""
    def call(*args, **kwargs):
        return (*routine(*args, **kwargs)[:-1], 1)
    return call


@pytest.mark.parametrize("name", ["dstebz", "dstein"])
def test_bisection_failure_is_a_numerical_error(name, monkeypatch,
                                                anh_config, tmp_path,
                                                disk_profile):
    monkeypatch.setattr(radial, name, _failing(getattr(radial, name)))
    op = assemble_fiber(disk_profile, 0, 1.0, RadialGrid(18.0, 256))
    with pytest.raises(NumericalError, match="LAPACK info=1"):
        eigs_lowest(op, 2)
    assert main(["spectrum", "--field", str(anh_config), "--b", "4",
                 "--m=0:0", "--out", str(tmp_path / "s.csv")]) == 3


def test_dense_failure_is_a_numerical_error(monkeypatch, disk_profile,
                                            disk_config, tmp_path):
    monkeypatch.setattr(cscale, "zgeev", _failing(cscale.zgeev))
    op = assemble_scaled_fiber(disk_profile, 0, 0.25,
                               scaling_profile(0.5, 1.5, 6.0),
                               RadialGrid(18.0, 128))
    with pytest.raises(NumericalError, match="LAPACK info=1"):
        complex_spectrum(op)
    # a window this wide holds N/2 eigenvalues: the slice falls back to
    # the dense solve
    assert main(["resonances", "--field", str(disk_config), "--h", "0.25",
                 "--grid-n", "64", "--window", "1:20:-0.1:0",
                 "--out", str(tmp_path / "r.csv")]) == 3


def test_non_finite_dense_matrix_is_a_numerical_error(disk_profile):
    op = assemble_scaled_fiber(disk_profile, 0, 0.25,
                               scaling_profile(0.5, 1.5, 6.0),
                               RadialGrid(18.0, 128))
    diag = op.diag.copy()
    diag[5] = np.inf
    with pytest.raises(NumericalError, match="non-finite"):
        complex_spectrum(replace(op, diag=diag))


def test_robust_points_outside_the_window_are_not_continuum(disk_config,
                                                            tmp_path):
    """On the disk at N = 600 and h = 0.2, sector m = -1 holds the
    theta-robust point 0.5895 - 0.1659i; it moves by 1.8e-7, and the
    continuum by 1.2e-3. The window [0.62, 0.7] x [-0.2, -1e-12] leaves
    the point out, and its slice disk (radius 0.728) holds it."""
    out = tmp_path / "r.csv"
    assert main(["resonances", "--field", str(disk_config), "--h", "0.2",
                 "--grid-n", "600", "--m=-1:-1",
                 "--window=0.62:0.7:-0.2:-1e-12", "--out", str(out)]) == 0
    manifest = json.loads(out.with_name("r.csv.manifest.json").read_text())
    (s,) = manifest["diagnostics"]["slices"]
    assert s["radius"] > abs(0.5895 - 0.1659j)
    (c,) = s["continuum_motion"]
    assert c["m"] == -1
    assert c["motion"] >= 10.0 * PAIR_TOL * (1.0 + s["radius"])
