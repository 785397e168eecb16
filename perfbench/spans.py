"""Outside-in tracing of one magres pass.

`Tracer.install()` replaces module attributes with timing wrappers, without
touching the package's source: the SciPy eigensolvers the package reaches
through `scipy.linalg`, `pmap` (and each task it runs), the public
assembly, ladder, band, scaling, quasimode and comparison functions, the
`a(r)` callable of every profile the package builds, and `cli.main` /
`cli._emit`. A function imported by name into several modules is replaced
in every `magres` namespace that holds it. `uninstall()` restores all of
them.

Each span records its name, start, end, thread and parent span. A task run
by `pmap` on a worker thread gets the `pmap` span as its parent, so the
parent chain survives the thread pool. A span's self time is its duration
minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from itertools import count
from pathlib import Path

LADDERS = ("anharmonic_levels", "well_levels", "island_neumann_levels",
           "dirichlet_disk_levels")

# (module, attribute) -> span name; module names are relative to magres
TRACED = {
    ("radial", "assemble_fiber"): "radial.assemble_fiber",
    ("radial", "fiber_levels"): "radial.fiber_levels",
    ("radial", "sector_sweep"): "radial.sector_sweep",
    **{("radial", name): "radial.ladder" for name in LADDERS},
    ("stepband", "band_table"): "stepband.band_table",
    ("stepband", "minimize_band"): "stepband.minimize_band",
    ("stepband", "spectral_constants"): "stepband.spectral_constants",
    ("cscale", "find_resonances"): "cscale.find_resonances",
    ("cscale", "scaling_profile"): "cscale.scaling_profile",
    ("cscale", "assemble_scaled_fiber"): "cscale.assemble_scaled_fiber",
    ("cscale", "complex_spectrum"): "cscale.complex_spectrum",
    ("quasimode", "build_quasimode"): "quasimode.build_quasimode",
    ("quasimode", "quasimode_residual"): "quasimode.quasimode_residual",
    ("levels", "compare"): "levels.compare",
    ("cli", "main"): "cli.main",
}

@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple] = []

    # ------------------------------------------------------------ spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, args, kwargs, parent=None, info=None, sid=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            if sid is None:
                sid = next(self._ids)
        span = Span(sid, name, parent, threading.get_ident(), 0.0)
        stack.append(sid)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)
        if info is not None:
            span.info = info(args, kwargs, result)
        return result

    def wrap(self, name, fn, info=None):
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs, info=info)
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_caller(self, name, fn, info):
        """Span named after the magres module that made the call."""
        def wrapper(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            return self._call(name, fn, args, kwargs,
                              info=lambda a, k, r: {"caller": caller,
                                                    **info(a, k, r)})
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_pmap(self, pmap):
        def traced_pmap(fn, items):
            items = list(items)
            with self._lock:
                sid = next(self._ids)
            entry = time.perf_counter()

            def task(x):
                stack = self._stack()
                stack.append(sid)  # parent across the pool's threads
                try:
                    return self._call(
                        "parallel.task", fn, (x,), {}, parent=sid,
                        info=lambda a, k, r: {"entry": entry})
                finally:
                    stack.pop()

            return self._call("parallel.pmap", pmap, (task, items), {},
                              sid=sid)
        traced_pmap.__wrapped__ = pmap
        return traced_pmap

    def _wrap_profile_factory(self, factory):
        def traced_factory(*args, **kwargs):
            prof = factory(*args, **kwargs)
            return replace(prof, a=self.wrap("fields.a", prof.a))
        traced_factory.__wrapped__ = factory
        return traced_factory

    # ---------------------------------------------------------- install

    def _replace(self, mod, attr, new):
        self._undo.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def _replace_everywhere(self, orig, new):
        for modname, mod in list(sys.modules.items()):
            if modname != "magres" and not modname.startswith("magres."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._replace(mod, attr, new)

    def install(self) -> None:
        import importlib

        import scipy.linalg as sla

        mods = {name: importlib.import_module("magres." + name)
                for name in ("fields", "radial", "stepband", "cscale",
                             "quasimode", "levels", "_parallel", "cli")}
        self._replace(sla, "eigh_tridiagonal", self._wrap_caller(
            "scipy.eigh_tridiagonal", sla.eigh_tridiagonal, _tridiag_info))
        self._replace(sla, "eigvals", self._wrap_caller(
            "scipy.eigvals", sla.eigvals, _dense_info))
        for (mod, attr), name in TRACED.items():
            orig = getattr(mods[mod], attr)
            self._replace_everywhere(orig, self.wrap(name, orig))
        pmap = mods["_parallel"].pmap
        self._replace_everywhere(pmap, self._wrap_pmap(pmap))
        for factory in ("make_profile", "zero_profile"):
            orig = getattr(mods["fields"], factory)
            self._replace_everywhere(orig, self._wrap_profile_factory(orig))
        filt = mods["cscale"].filter_resonances
        self._replace_everywhere(filt, self.wrap(
            "cscale.filter_resonances", filt, _window_info))
        emit = mods["cli"]._emit
        self._replace_everywhere(emit, self.wrap("cli._emit", emit, _emit_info))

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, orig = self._undo.pop()
            setattr(mod, attr, orig)

    # ---------------------------------------------------------- metrics

    def metrics(self) -> dict:
        """Per-layer metrics of every span recorded so far, as
        name -> (value, unit)."""
        spans = self.spans
        by_id = {s.sid: s for s in spans}
        children: dict[int, list] = {}
        for s in spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)

        def named(name, caller=None):
            return [s for s in spans if s.name == name
                    and (caller is None or s.info.get("caller") == caller)]

        def total(ss):
            return sum(s.dur for s in ss)

        def self_time(s):
            return s.dur - _covered(s, children.get(s.sid, ()))

        dense = named("scipy.eigvals", "magres.cscale")
        computed = sum(s.info["n"] for s in dense)
        in_window = sum(s.info["in_window"]
                        for s in named("cscale.filter_resonances"))
        radial_solves = named("scipy.eigh_tridiagonal", "magres.radial")
        step_solves = named("scipy.eigh_tridiagonal", "magres.stepband")
        distinct = len({s.info["key"] for s in step_solves})
        top_minimize = [s for s in named("stepband.minimize_band")
                        if by_id.get(s.parent) is None
                        or by_id[s.parent].name != "stepband.spectral_constants"]
        pmaps = named("parallel.pmap")
        tasks = named("parallel.task")
        workers = {}
        for t in tasks:
            workers.setdefault(t.parent, set()).add(t.thread)
        busy = total(tasks)
        pmap_wall = total(pmaps)
        s, c, r = "s", "count", "ratio"
        return {
            "cscale.dense_solves": (len(dense), c),
            "cscale.dense_solve_s": (total(dense), s),
            "cscale.dense_bytes": (sum(16 * s_.info["n"] ** 2 for s_ in dense),
                                   "bytes"),
            "cscale.useful_ratio": (in_window / computed if computed else 0.0,
                                    r),
            "cscale.assemble_s": (total(named("cscale.assemble_scaled_fiber")),
                                  s),
            "cscale.filter_s": (total(named("cscale.filter_resonances")), s),
            "cscale.profile_check_s": (total(named("cscale.scaling_profile")),
                                       s),
            "fields.a_calls": (len(named("fields.a")), c),
            "fields.a_s": (total(named("fields.a")), s),
            "radial.assemble_calls": (len(named("radial.assemble_fiber")), c),
            "radial.assemble_s": (total(named("radial.assemble_fiber")), s),
            "radial.tridiag_solves": (len(radial_solves), c),
            "radial.tridiag_s": (total(radial_solves), s),
            "radial.ladder_s": (sum(self_time(x)
                                    for x in named("radial.ladder")), s),
            "stepband.raw_solves": (len(step_solves), c),
            "stepband.solve_s": (total(step_solves), s),
            "stepband.scan_s": (total(named("stepband.band_table")), s),
            "stepband.minimize_s": (total(top_minimize), s),
            "stepband.constants_s": (
                total(named("stepband.spectral_constants")), s),
            "stepband.distinct_ratio": (
                distinct / len(step_solves) if step_solves else 0.0, r),
            "parallel.pmap_calls": (len(pmaps), c),
            "parallel.tasks": (len(tasks), c),
            "parallel.workers": (max((len(v) for v in workers.values()),
                                     default=0), "threads"),
            "parallel.busy_s": (busy, s),
            "parallel.wait_s": (sum(t.start - t.info["entry"] for t in tasks),
                                s),
            "parallel.speedup": (busy / pmap_wall if pmap_wall else 0.0, r),
            "quasimode.build_s": (total(named("quasimode.build_quasimode")), s),
            "quasimode.residual_s": (
                total(named("quasimode.quasimode_residual")), s),
            "levels.compare_s": (total(named("levels.compare")), s),
            "cli.self_s": (sum(self_time(x) for x in named("cli.main")), s),
            "cli.emit_s": (total(named("cli._emit")), s),
            "cli.bytes_written": (sum(x.info["bytes"]
                                      for x in named("cli._emit")), "bytes"),
        }


def _covered(span: Span, kids) -> float:
    """Length of the part of span's interval covered by the union of kids."""
    ivals = sorted((max(k.start, span.start), min(k.end, span.end))
                   for k in kids)
    covered, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in ivals:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


def _tridiag_info(args, kwargs, result):
    diag = args[0] if args else kwargs["d"]
    # the diagonal carries the potential, so equal diagonals are equal
    # solves: (N, xi) for the step band, (m, scale) for a fiber
    return {"key": (len(diag), hashlib.sha1(diag.tobytes()).hexdigest())}


def _dense_info(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    return {"n": int(a.shape[0])}


def _window_info(args, kwargs, result):
    spec1, spec2, _tol, window = args[:4]
    return {"in_window": sum(1 for spec in (spec1, spec2) for z in spec
                             if window.contains(complex(z)))}


def _emit_info(args, kwargs, result):
    cli_args = args[0]
    if not cli_args.out:
        return {"bytes": 0}
    out = Path(cli_args.out)
    manifest = out.with_name(out.name + ".manifest.json")
    names = json.loads(manifest.read_text())["outputs"]
    return {"bytes": manifest.stat().st_size
            + sum((out.parent / n).stat().st_size for n in names)}
