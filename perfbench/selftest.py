"""Self-checks of the benchmark itself.

Run from the root of a checkout with

    python3 -m pytest perfbench/selftest.py

(the file name keeps it out of the package's own test collection). The
traced-run checks start `run.py` twice per workload and take a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402

EXACT_UNITS = ("count", "bytes")  # work counts: equal seeds, equal values
TRACE_SEED = 3


def _argvs(name, seed):
    return [c.argv for c in workloads.build(name, seed, Path("in")).commands]


@pytest.mark.parametrize("name", list(workloads.GENERATORS))
def test_seed_fixes_the_inputs(name):
    assert _argvs(name, 5) == _argvs(name, 5)
    assert _argvs(name, 5) != _argvs(name, 6)


def test_seed_zero_is_the_frozen_points():
    res = _argvs("resonance_sweep", 0)[0]
    assert res[res.index("--h") + 1] == "0.25,0.2,0.15"
    band = _argvs("band_pipeline", 0)
    assert [argv[argv.index("--a") + 1] for argv in band] == \
        ["-0.5", "-0.5", "-1"]
    ladder = {argv[0] + ":" + argv[2]: argv
              for argv in _argvs("ladder_sweep", 0)}
    assert ladder["compare:island"][-1] == "25.0,50.0,100.0,200.0"


def _traced(name):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(TRACE_SEED), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout.splitlines()[-2][-2000:]
    return result["metrics"]


# expected work per traced pass, fixed by the workload definitions
EXPECTED = {
    "resonance_sweep": {"cscale.dense_solves": 6},
    "ladder_sweep": {"cscale.dense_solves": 0},
    "band_pipeline": {"cscale.dense_solves": 0, "radial.tridiag_solves": 0},
}


@pytest.mark.parametrize("name", list(workloads.GENERATORS))
def test_work_counts_repeat_exactly(name):
    first, second = _traced(name), _traced(name)
    exact = sorted(k for k, v in first.items() if v["unit"] in EXACT_UNITS)
    assert "parallel.tasks" in exact and "cli.bytes_written" in exact
    for key in exact:
        assert first[key]["value"] == second[key]["value"], key
    for key, want in EXPECTED[name].items():
        assert first[key]["value"] == want, key
