"""The benchmark's seams into the package still exist.

`perfbench/run.py` warms up through public solvers and `perfbench/spans.py`
wraps named `magres` attributes (`TRACED`, `_parallel.pmap`, the profile
factories, `cscale.filter_resonances`, `cli._emit`). A rename or deletion
of any of them breaks the benchmark, not the package, so it is checked
here, and so is the exact solver work of a seed-0 `ladder_sweep` pass
(`perfbench/workloads.py`) and of each seed-0 `band_pipeline` command,
and so is that every `resonance_sweep` command of seeds 0-3 runs without
the dense solve, and the exact work of its slices. The files are loaded by
path and only read.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest
import scipy.linalg as sla

import magres
from magres import cscale

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


# diagnostics.work of each seed-0 ladder_sweep command, summed over its
# ladders and direct sector solves: (bisections, factorizations, refused,
# solves)
LADDER_SWEEP_WORK = {
    "spectrum": (14, 56, 0, 112),
    "compare-landau": (3, 14, 0, 24),
    "compare-well-n0": (3, 60, 0, 24),
    "compare-well-n1": (12, 114, 0, 96),
    "compare-anharmonic": (7, 50, 0, 56),
    "compare-island": (4, 92, 0, 31),
}


def test_ladder_sweep_work_is_pinned(monkeypatch, tmp_path):
    """Solver work repeats exactly, so the seed-0 ladder_sweep pass's
    manifest work, summed per command, is pinned: any change in
    bisections, factorizations, refused shifts or solves shows here
    without the benchmark. quasimode writes no work."""
    workloads = _load("workloads", monkeypatch)
    from magres.cli import main
    workload = workloads.build("ladder_sweep", 0, tmp_path / "in")
    workloads.write_inputs(workload, tmp_path / "in")
    got = {}
    for command in workload.commands:
        out = tmp_path / (command.label + ".csv")
        assert main([*command.argv, "--out", str(out)]) == 0
        diagnostics = json.loads(out.with_name(
            out.name + ".manifest.json").read_text()).get("diagnostics")
        if diagnostics is not None:
            works = diagnostics["work"]
            works = [works] if isinstance(works, dict) else works
            got[command.label] = tuple(
                sum(work[key] for work in works) for key in
                ("bisections", "factorizations", "refused", "solves"))
    assert got == LADDER_SWEEP_WORK


# diagnostics.work of each seed-0 band_pipeline command: (bisections,
# factorizations, refused, solves)
BAND_PIPELINE_WORK = {
    "band-default": (0, 261, 4, 439),
    "band-n1600": (0, 165, 4, 199),
    "band-de-gennes": (0, 229, 1, 428),
}


def test_band_pipeline_work_is_pinned(monkeypatch, tmp_path):
    """Band work repeats exactly, so the seed-0 band_pipeline pass's
    manifest work is pinned per command: any change in factorizations,
    refused shifts or solves of the scan and the Newton search shows here
    without the benchmark."""
    workloads = _load("workloads", monkeypatch)
    from magres.cli import main
    workload = workloads.build("band_pipeline", 0, tmp_path / "in")
    workloads.write_inputs(workload, tmp_path / "in")
    got = {}
    for command in workload.commands:
        out = tmp_path / (command.label + ".csv")
        assert main([*command.argv, "--out", str(out)]) == 0
        work = json.loads(out.with_name(out.name + ".manifest.json")
                          .read_text())["diagnostics"]["work"]
        got[command.label] = tuple(work[key] for key in (
            "bisections", "factorizations", "refused", "solves"))
    assert got == BAND_PIPELINE_WORK


# diagnostics.slices[].counts of each resonance_sweep command, summed over
# its slices: (k, contour_points, solves), by (seed, label)
RESONANCE_SWEEP_WORK = {
    (0, "resonances"): (108, 1652, 348),
    (0, "resonances-n1200"): (32, 551, 104),
    (1, "resonances"): (106, 1915, 340),
    (2, "resonances"): (108, 1599, 348),
    (3, "resonances"): (108, 1589, 348),
}


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_resonance_sweep_needs_no_dense_solve(seed, monkeypatch, tmp_path):
    """Every `resonance_sweep` command of seeds 0-3, and the seed-0
    anchor, passes its workload check with `complex_spectrum` failing:
    each spectral slice is certified without the dense solve. Slice work
    repeats exactly, so each command's manifest work is pinned: any change
    in Arnoldi k, contour points or solves shows here without the
    benchmark."""
    workloads = _load("workloads", monkeypatch)
    from magres.cli import main

    def dense(op):
        raise AssertionError("a resonance_sweep command ran the dense solve")
    monkeypatch.setattr(cscale, "complex_spectrum", dense)
    workload = workloads.build("resonance_sweep", seed, tmp_path / "in")
    workloads.write_inputs(workload, tmp_path / "in")
    commands = workload.commands + workload.anchors
    assert len(commands) == (2 if seed == 0 else 1)
    got = {}
    for command in commands:
        out = tmp_path / (command.label + ".csv")
        assert main([*command.argv, "--out", str(out)]) == 0
        assert command.check(out) == []
        slices = json.loads(out.with_name(out.name + ".manifest.json")
                            .read_text())["diagnostics"]["slices"]
        got[(seed, command.label)] = tuple(
            sum(count[key] for one in slices for count in one["counts"])
            for key in ("k", "contour_points", "solves"))
    assert got == {key: work for key, work in RESONANCE_SWEEP_WORK.items()
                   if key[0] == seed}
