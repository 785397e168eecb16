"""The benchmark's seams into the package still exist.

`perfbench/run.py` warms up through public solvers and `perfbench/spans.py`
wraps named `magres` attributes (`TRACED`, `_parallel.pmap`, the profile
factories, `cscale.filter_resonances`, `cli._emit`). A rename or deletion
of any of them breaks the benchmark, not the package, so it is checked
here. Both files are loaded by path and only read.
"""

import importlib.util
import sys
from pathlib import Path

import scipy.linalg as sla

import magres

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEAMS = [("_parallel", "pmap"), ("stepband", "minimize_band"),
         ("stepband", "spectral_constants"), ("cscale", "complex_spectrum"),
         ("radial", "assemble_fiber")]


def _load(name, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _attributes():
    """(module name, attribute) -> value of every magres namespace and the
    two scipy.linalg solvers the tracer wraps."""
    found = {("scipy.linalg", name): getattr(sla, name)
             for name in ("eigh_tridiagonal", "eigvals")}
    for modname, mod in list(sys.modules.items()):
        if modname == "magres" or modname.startswith("magres."):
            found.update(((modname, attr), value)
                         for attr, value in vars(mod).items())
    return found


def test_benchmark_seams_wrap_and_restore(monkeypatch):
    run, spans = _load("run", monkeypatch), _load("spans", monkeypatch)
    run._warm_up()
    import magres.cli  # noqa: F401  every module the tracer wraps
    before = _attributes()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for mod, attr in [*spans.TRACED, *SEAMS]:
            orig = before[(f"magres.{mod}", attr)]
            assert getattr(getattr(magres, mod), attr).__wrapped__ is orig
    finally:
        tracer.uninstall()
    after = _attributes()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_benchmark_trace_sees_each_ladder(monkeypatch):
    """The tracer wraps the public ladder functions, and `compare` calls
    them: a traced well comparison over three h records three
    `radial.ladder` spans."""
    spans = _load("spans", monkeypatch)
    from magres import cli
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(["compare", "--model", "well",
                         "--h", "0.1,0.05,0.025"]) == 0
    finally:
        tracer.uninstall()
    assert [s.name for s in tracer.spans].count("radial.ladder") == 3
