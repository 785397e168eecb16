"""magres benchmark: drive the `magres` CLI in-process and report its cost.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload resonance_sweep --seed 0 \
        --seconds 30 --trace 0

Each workload is a closed loop: one caller in this process runs a pass of
generated `magres` commands through `magres.cli.main(argv)`, each command
after the previous one has finished, writing fresh outputs under
`.perfbench_work/`. Passes repeat until `--seconds` have elapsed (at least
three); every pass checks its outputs, and after the loop each command's
manifest argv is replayed once and must reproduce its files byte for byte.

--trace 0 prints the end-to-end metrics: setup_s (median over fresh
processes of importing magres.cli plus one tiny solve), pass_s and cpu_s
(median wall and process CPU seconds per pass) and peak_rss_mb (this
process's high-water mark). --trace 1 runs untraced passes, one traced pass
(see spans.py), one pass in a child process with MAGRES_THREADS=1 and one
with the default thread counts of magres and OpenBLAS, and prints the
per-layer metrics with the tracing overhead.

BLAS runs single-threaded (PINNED_ENV) in every measured process but the
default-threads child: pmap's workers each start a full set of OpenBLAS
threads, and that oversubscription turns any load elsewhere on a small
shared machine into a several-fold change of the pass time. The child
keeps its cost visible as parallel.default_threads_pass_s.

The last line of stdout is the result object; the line before it is the run
record (machine, BLAS, versions, workload notes, samples).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = Path(".perfbench_work")  # relative to ROOT, so manifests are too
SETUP_REPEATS = 5
MIN_PASSES = 3
MIN_UNTRACED_PASSES = 2
CHILD_TIMEOUT_S = 150
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SERIAL_ENV = {"MAGRES_THREADS": "1"}
THREAD_ENV = ("MAGRES_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
WORKLOADS = ("resonance_sweep", "ladder_sweep", "band_pipeline")


def _require_checkout() -> None:
    missing = [p for p in (SRC / "magres" / "cli.py",
                           ROOT / "tests" / "conftest.py",
                           ROOT / "tests" / "oracles.py") if not p.is_file()]
    if missing:
        print("perfbench: not a magres checkout, missing "
              + ", ".join(str(p.relative_to(ROOT)) for p in missing),
              file=sys.stderr)
        sys.exit(2)
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))


def _warm_up() -> None:
    """One tiny real and one tiny complex solve: LAPACK and BLAS threads up."""
    from magres.cscale import (assemble_scaled_fiber, complex_spectrum,
                               scaling_profile)
    from magres.fields import FieldSpec, make_profile
    from magres.radial import RadialGrid, fiber_levels

    disk = make_profile(FieldSpec("constant_disk", {"r0": 1.0}, R0=1.0))
    grid = RadialGrid(18.0, 128)
    fiber_levels(disk, 0, 1.0, grid, 1)
    complex_spectrum(assemble_scaled_fiber(
        disk, 0, 0.25, scaling_profile(0.5, 1.5, 6.0), grid))


# ------------------------------------------------------------ child modes

def child_setup() -> None:
    t0 = time.perf_counter()
    import magres.cli  # noqa: F401  the import is what is measured
    _warm_up()
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def child_pass(name: str, seed: int) -> None:
    from magres import cli

    _warm_up()
    with _WorkDir() as work:
        wl, tally = _prepare(name, seed, work)
        res = run_pass(cli, wl.commands, work / "out")
        check_pass(wl.commands, res, tally)
    print(json.dumps({"pass_s": res.wall, "attempted": tally.attempted,
                      "failed": tally.failed, "problems": tally.problems}))


def _child(argv: list, env_extra: dict | None = None,
           unset: tuple = ()) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in unset}
    env["PYTHONPATH"] = str(SRC)
    env.update(env_extra or {})
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve())]
                          + argv, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup() -> list:
    """setup_s of SETUP_REPEATS fresh processes, after one unmeasured one
    that leaves bytecode caches warm."""
    _child(["--child", "setup"])
    return [_child(["--child", "setup"])["setup_s"]
            for _ in range(SETUP_REPEATS)]


# ----------------------------------------------------------------- passes

@dataclass
class PassResult:
    wall: float
    cpu: float
    walls: list
    outs: list
    rcs: list


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: " + "; ".join(problems[:3]))


class _WorkDir:
    def __enter__(self) -> Path:
        WORK_ROOT.mkdir(exist_ok=True)
        self.path = Path(os.path.relpath(
            tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT), ROOT))
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only when no other run is using it
        except OSError:
            pass


def _prepare(name: str, seed: int, work: Path):
    import workloads

    wl = workloads.build(name, seed, work / "in")
    workloads.write_inputs(wl, work / "in")
    return wl, Tally()


def _invoke(cli, argv: list) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejected the argv
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # counted as a failed command; the loop goes on
        traceback.print_exc(file=sys.stderr)
        return 1


def run_pass(cli, commands: list, out_dir: Path) -> PassResult:
    """Run the commands one after another; only the commands are timed."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    outs = [out_dir / (cmd.label + ".csv") for cmd in commands]
    walls, rcs = [], []
    c0, t0 = time.process_time(), time.perf_counter()
    for cmd, out in zip(commands, outs):
        ts = time.perf_counter()
        rcs.append(_invoke(cli, cmd.argv + ["--out", str(out)]))
        walls.append(time.perf_counter() - ts)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return PassResult(wall, cpu, walls, outs, rcs)


def _problems(check, out: Path) -> list:
    try:
        return check(out)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def check_pass(commands: list, res: PassResult, tally: Tally) -> None:
    for cmd, out, rc in zip(commands, res.outs, res.rcs):
        tally.record(cmd.label, [f"exit code {rc}"] if rc != 0
                     else _problems(cmd.check, out))


def replay(cli, commands: list, res: PassResult, replay_dir: Path,
           tally: Tally) -> None:
    """Replay each manifest's argv into replay_dir; every file the manifest
    lists must come out byte for byte the same."""
    replay_dir.mkdir(parents=True)
    for cmd, out, rc in zip(commands, res.outs, res.rcs):
        if rc != 0:
            continue
        target = replay_dir / out.name

        def compare(_out, out=out, target=target) -> list:
            manifest = json.loads(
                out.with_name(out.name + ".manifest.json").read_text())
            argv = [str(target) if tok == str(out) else tok
                    for tok in manifest["argv"]]
            got = _invoke(cli, argv)
            if got != 0:
                return [f"replay exit code {got}"]
            return [f"{name} differs on replay"
                    for name in manifest["outputs"]
                    if (out.parent / name).read_bytes()
                    != (target.parent / name).read_bytes()]

        tally.record("replay:" + cmd.label, _problems(compare, out))


# ----------------------------------------------------------------- record

def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_record(wl, args) -> dict:
    import numpy
    import scipy

    import magres
    import workloads

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": wl.name, "seed": wl.seed, "seconds": args.seconds,
        "trace": args.trace, "why": workloads.WHY[wl.name],
        "note": workloads.REDUCED_N_NOTE if wl.name == "resonance_sweep"
        else None,
        "ranges": workloads.RANGES[wl.name],
        "loop": "closed: one caller, one command at a time",
        "commands": [c.argv for c in wl.commands],
        "anchors": [c.argv for c in wl.anchors],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "thread_note": "BLAS pinned to one thread in the measured process; "
                       "see parallel.default_threads_pass_s",
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "magres": magres.__version__,
        "commit": _git_commit(),
    }


# ------------------------------------------------------------------- main

def _loop(cli, wl, work: Path, tally: Tally, seconds: float,
          min_passes: int) -> list:
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        res = run_pass(cli, wl.commands, work / "out")
        check_pass(wl.commands, res, tally)
        passes.append(res)
    return passes


def measure(args) -> dict:
    """Run one benchmark run; returns the result object."""
    setup = measure_setup() if not args.trace else []
    from magres import cli

    _warm_up()
    with _WorkDir() as work:
        wl, tally = _prepare(args.workload, args.seed, work)
        passes = _loop(cli, wl, work, tally,
                       args.seconds / 2 if args.trace else args.seconds,
                       MIN_UNTRACED_PASSES if args.trace else MIN_PASSES)
        pass_s = statistics.median(p.wall for p in passes)
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                traced = run_pass(cli, wl.commands, work / "traced")
            finally:
                tracer.uninstall()
            check_pass(wl.commands, traced, tally)
            child_argv = ["--child", "pass", "--workload", wl.name,
                          "--seed", str(wl.seed)]
            serial = _child(child_argv, SERIAL_ENV)
            default = _child(child_argv, unset=THREAD_ENV)
            for label, res in (("serial", serial), ("default", default)):
                tally.attempted += res["attempted"]
                tally.failed += res["failed"]
                tally.problems += [f"{label} pass: " + p
                                   for p in res["problems"]]
        replay(cli, wl.commands, passes[-1], work / "replay", tally)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # after the peak is read: an anchor may solve a larger grid
        for cmd in wl.anchors:
            res = run_pass(cli, [cmd], work / "anchor")
            check_pass([cmd], res, tally)
        record = run_record(wl, args)

    if args.trace:
        metrics = {name: {"value": v, "unit": u}
                   for name, (v, u) in tracer.metrics().items()}
        metrics["parallel.serial_pass_s"] = {"value": serial["pass_s"],
                                             "unit": "s"}
        metrics["parallel.default_threads_pass_s"] = {
            "value": default["pass_s"], "unit": "s"}
        metrics["trace.overhead_frac"] = {"value": traced.wall / pass_s - 1.0,
                                          "unit": "ratio"}
        record["traced_pass_s"] = traced.wall
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "cpu_s": {"value": statistics.median(p.cpu for p in passes),
                      "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        record["setup_samples_s"] = setup
    record.update({
        "passes": len(passes),
        "pass_samples_s": [p.wall for p in passes],
        "cpu_samples_s": [p.cpu for p in passes],
        "command_median_s": {
            cmd.label: statistics.median(p.walls[i] for p in passes)
            for i, cmd in enumerate(wl.commands)},
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "problems": tally.problems,
    })
    for problem in tally.problems:
        print(problem, file=sys.stderr)
    print(json.dumps({"record": record}))
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "pass"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child is None:  # children inherit it, or run without on purpose
        os.environ.update(PINNED_ENV)
    _require_checkout()
    if args.child == "setup":
        child_setup()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.child == "pass":
        child_pass(args.workload, args.seed)
        return 0
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
