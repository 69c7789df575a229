"""Per-layer host-time accounting for the traced run.

The traced run installs a timing wrapper on the public entry points of each
model layer (the table :data:`ENTRY_POINTS`), runs the workload again, and
reports call counts and *self* time per layer: a wrapper's inclusive time
minus the time spent in wrapped calls below it, kept on one stack.

Hot per-call entry points (``StreamingMultiprocessor.tick`` runs ~100k times
per cell) only bump counters in place.  Coarse units of work -- benchmark
ops, figures, cells (``run_scheme``) and launches (``GPU.launch``) -- are
also kept as spans in memory and written out once, at the end.

An entry point that no longer exists raises :class:`MissingEntryPoint`
naming it: the run fails rather than report a silent zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, slot, "module:qualname").  A slot collects calls and self time;
#: several entry points may share one.  ``@workloads`` / ``@schedulers``
#: expand to the method on every class of the matching registry.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("workloads", "build", "repro.workloads.base:Workload.build"),
    ("workloads", "build", "@workloads:build"),
    ("simt", "execute", "repro.simt.executor:FunctionalExecutor.execute"),
    ("trace", "replay", "repro.trace.replay:TraceExecutor.execute"),
    ("trace", "load", "repro.trace.store:load_program"),
    ("trace", "store", "repro.trace.store:store_program"),
    ("trace", "record", "repro.trace.recorder:TraceRecorder.record"),
    ("gpu", "launch", "repro.gpu.gpu:GPU.launch"),
    ("sm", "tick", "repro.sm.sm:StreamingMultiprocessor.tick"),
    ("sm", "wake", "repro.sm.sm:StreamingMultiprocessor.next_wake_time"),
    ("sm", "lsu", "repro.sm.lsu:LoadStoreUnit.issue"),
    ("sm", "dispatch", "repro.sm.dispatcher:BlockDispatcher.try_dispatch"),
    ("scheduling", "select", "repro.scheduling.base:WarpScheduler.select"),
    ("scheduling", "select", "@schedulers:select"),
    ("core", "cpl", "repro.core.cpl:CriticalityPredictor.on_issue"),
    ("core", "cpl", "repro.core.cpl:CriticalityPredictor.on_branch"),
    ("core", "cacp", "repro.core.cacp:CACPPolicy.way_range"),
    ("core", "cacp", "repro.core.cacp:CACPPolicy.choose_way"),
    ("core", "cacp", "repro.core.cacp:CACPPolicy.on_fill"),
    ("core", "cacp", "repro.core.cacp:CACPPolicy.on_hit"),
    ("core", "cacp", "repro.core.cacp:CACPPolicy.on_evict"),
    ("memory", "hierarchy", "repro.memory.hierarchy:MemoryHierarchy.access"),
    ("memory", "l1", "repro.memory.cache:Cache.access"),
    ("memory", "l2", "repro.memory.l2:BankedL2.access"),
    ("memory", "dram", "repro.memory.dram:DRAMModel.access"),
    ("memory", "mshr", "repro.memory.mshr:MSHRFile.lookup"),
    ("feedback", "publish", "repro.feedback.channel:FeedbackChannel.publish"),
    ("experiments", "run_scheme", "repro.experiments.runner:run_scheme"),
    ("experiments", "oracle", "repro.experiments.runner:build_oracle"),
    ("experiments", "cache_io", "repro.experiments.result_cache:load"),
    ("experiments", "cache_io", "repro.experiments.result_cache:store"),
    ("stats", "observer", "repro.stats.reuse:ReuseDistanceProfiler.on_access"),
    ("stats", "observer", "repro.stats.accuracy:CriticalityAccuracyTracker.on_issue"),
    ("stats", "observer", "repro.experiments.fig12:PriorityTraceObserver.on_issue"),
)

#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("workloads.build_calls", "count"),
    ("workloads.build_s", "s"),
    ("simt.execute_calls", "count"),
    ("simt.execute_s", "s"),
    ("trace.replay_s", "s"),
    ("trace.load_s", "s"),
    ("trace.store_s", "s"),
    ("trace.record_s", "s"),
    ("trace.bytes_written", "bytes"),
    ("gpu.launches", "count"),
    ("gpu.loop_self_s", "s"),
    ("gpu.skip_jumps", "count"),
    ("gpu.cycles_skipped", "cycles"),
    ("sm.tick_calls", "count"),
    ("sm.tick_self_s", "s"),
    ("sm.issue_per_tick", "winst/tick"),
    ("sm.wake_calls", "count"),
    ("sm.lsu_s", "s"),
    ("sm.lines_per_mem_inst", "lines/inst"),
    ("sm.dispatch_s", "s"),
    ("scheduling.select_calls", "count"),
    ("scheduling.select_s", "s"),
    ("core.cpl_calls", "count"),
    ("core.cpl_s", "s"),
    ("core.cacp_calls", "count"),
    ("core.cacp_s", "s"),
    ("memory.hierarchy_calls", "count"),
    ("memory.hierarchy_s", "s"),
    ("memory.l1_calls", "count"),
    ("memory.l1_s", "s"),
    ("memory.l2_calls", "count"),
    ("memory.l2_s", "s"),
    ("memory.dram_calls", "count"),
    ("memory.dram_s", "s"),
    ("memory.l1_hit_rate", "ratio"),
    ("memory.l2_hit_rate", "ratio"),
    ("memory.dram_accesses", "count"),
    ("memory.mshr_merge_rate", "ratio"),
    ("feedback.publish_calls", "count"),
    ("feedback.publish_s", "s"),
    ("experiments.cells_requested", "count"),
    ("experiments.cells_simulated", "count"),
    ("experiments.dedupe_ratio", "ratio"),
    ("experiments.cache_hit_rate", "ratio"),
    ("experiments.cache_io_s", "s"),
    ("stats.observer_calls", "count"),
    ("stats.observer_s", "s"),
    ("cli.processes", "count"),
    ("cli.import_s", "s"),
    ("host.cpu_s", "s"),
    ("host_ref_s", "s"),
    ("trace_overhead_pct", "%"),
)


class MissingEntryPoint(LookupError):
    """A wrapped entry point is gone from the program."""


def _registry_classes(kind: str) -> List[type]:
    if kind == "workloads":
        from repro.workloads.registry import WORKLOADS as registry
    elif kind == "schedulers":
        from repro.scheduling.registry import SCHEDULERS as registry
    else:
        raise MissingEntryPoint(f"@{kind}")
    classes = []
    for factory in registry.values():
        cls = getattr(factory, "func", factory)  # functools.partial
        if isinstance(cls, type) and cls not in classes:
            classes.append(cls)
    return classes


def _defining_class(cls: type, attr: str) -> Optional[type]:
    return next((k for k in cls.__mro__ if attr in vars(k)), None)


def resolve(spec: str) -> List[Tuple[object, str, Callable]]:
    """``[(owner, attribute, function)]`` for one entry-point spec.

    ``owner`` is the module or the class that defines the attribute, so
    patching it reaches every subclass that inherits it.
    """
    if spec.startswith("@"):
        kind, attr = spec[1:].split(":")
        targets = []
        for cls in _registry_classes(kind):
            owner = _defining_class(cls, attr)
            if owner is None:
                raise MissingEntryPoint(f"{cls.__module__}.{cls.__qualname__}.{attr}")
            targets.append((owner, attr, vars(owner)[attr]))
        return targets
    module_name, qualname = spec.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        raise MissingEntryPoint(spec) from None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise MissingEntryPoint(spec)
    if isinstance(owner, type):
        owner = _defining_class(owner, attr)
    fn = None if owner is None else vars(owner).get(attr)
    if not callable(fn):
        raise MissingEntryPoint(spec)
    return [(owner, attr, fn)]


class Tracer:
    """Installs the wrappers, accumulates counters, and keeps spans."""

    def __init__(self) -> None:
        #: slot -> [calls, self seconds]
        self.slots: Dict[str, List[float]] = {}
        #: Wrapped-call child time, innermost last; the root collects all.
        self._stack: List[float] = [0.0]
        self.spans: List[dict] = []
        self._open: List[int] = []
        self.op_id: Optional[str] = None
        self.lines = 0
        self.mshr_merges = 0
        self.bytes_written = 0
        self.cells: List[bool] = []
        self.cells_simulated = 0
        self.cache_loads = 0
        self.cache_hits = 0
        self.results: List[object] = []
        self._l2_depth = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def open_span(self, name: str) -> None:
        parent = self._open[-1] if self._open else None
        self._open.append(len(self.spans))
        self.spans.append({"name": name, "start": time.perf_counter(),
                           "end": None, "parent": parent, "op": self.op_id})

    def close_span(self) -> None:
        self.spans[self._open.pop()]["end"] = time.perf_counter()

    def write_spans(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))

    # -- wrappers ----------------------------------------------------------
    def _timed(self, fn: Callable, slot: List[float]) -> Callable:
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                slot[0] += 1
                slot[1] += elapsed - stack.pop()
                stack[-1] += elapsed
        return wrapper

    def _timed_post(self, fn: Callable, slot: List[float],
                    before: Optional[Callable], after: Callable) -> Callable:
        """Like :meth:`_timed`, with hooks around the call (coarse or
        result-inspecting entry points only)."""
        timed = self._timed(fn, slot)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            ok = False
            try:
                out = timed(*args, **kwargs)
                ok = True
                return out
            finally:
                after(args, out if ok else None)
        return wrapper

    def _l1_access(self, fn: Callable, slot: List[float]) -> Callable:
        """``Cache.access`` is the L1 unless it is the L2's tag lookup,
        whose time then stays in the L2's self time."""
        timed = self._timed(fn, slot)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._l2_depth:
                return fn(*args, **kwargs)
            return timed(*args, **kwargs)
        return wrapper

    def _make_wrapper(self, key: str, fn: Callable, slot: List[float]) -> Callable:
        if key == "memory.l1":
            return self._l1_access(fn, slot)
        if key == "memory.l2":
            def enter(_args):
                self._l2_depth += 1

            def leave(_args, _out):
                self._l2_depth -= 1
            return self._timed_post(fn, slot, enter, leave)
        if key == "memory.mshr":
            def merged(_args, out):
                if out is not None:
                    self.mshr_merges += 1
            return self._timed_post(fn, slot, None, merged)
        if key == "sm.lsu":
            def lines(_args, out):
                if out is not None:
                    self.lines += out[1]
            return self._timed_post(fn, slot, None, lines)
        if key == "trace.store":
            def written(_args, out):
                if out is not None:
                    self.bytes_written += Path(out).stat().st_size
            return self._timed_post(fn, slot, None, written)
        if key == "experiments.cache_io" and fn.__name__ == "load":
            def loaded(_args, out):
                self.cache_loads += 1
                self.cache_hits += out is not None
            return self._timed_post(fn, slot, None, loaded)
        if key == "experiments.run_scheme":
            def cell_in(args):
                self.cells.append(False)
                self.open_span("cell " + "/".join(map(str, args[:2])))

            def cell_out(_args, _out):
                self.close_span()
                self.cells_simulated += self.cells.pop()
            return self._timed_post(fn, slot, cell_in, cell_out)
        if key == "gpu.launch":
            def launch_in(_args):
                if self.cells:
                    self.cells[-1] = True
                self.open_span("launch")

            def launch_out(_args, out):
                self.close_span()
                if out is not None:
                    self.results.append(out)
            return self._timed_post(fn, slot, launch_in, launch_out)
        return self._timed(fn, slot)

    def install(self) -> None:
        """Resolve every entry point, then wrap them all (all or nothing)."""
        from repro.cli import FIGURES

        for number in FIGURES:
            importlib.import_module(f"repro.experiments.fig{number:02d}")
        plan: Dict[int, Tuple[object, str, Callable, str]] = {}
        for layer, slot, spec in ENTRY_POINTS:
            for owner, attr, fn in resolve(spec):
                plan.setdefault(id(fn), (owner, attr, fn, f"{layer}.{slot}"))
        for owner, attr, fn, key in plan.values():
            slot = self.slots.setdefault(key, [0, 0.0])
            wrapper = self._make_wrapper(key, fn, slot)
            self._patch(owner, attr, wrapper)
            if not isinstance(owner, type):
                # Module functions are also bound by name elsewhere
                # (``from .runner import run_scheme``, package re-exports).
                for module in list(sys.modules.values()):
                    if (getattr(module, "__name__", "").startswith("repro")
                            and module is not owner
                            and vars(module).get(attr) is fn):
                        self._patch(module, attr, wrapper)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- report ------------------------------------------------------------
    def metrics(self, extra: Dict[str, float]) -> Dict[str, float]:
        """Every :data:`PER_LAYER` metric; ``extra`` supplies the ones the
        wrappers cannot see (child processes, host clocks, overhead)."""
        def calls(key):
            return self.slots[key][0]

        def self_s(key):
            return self.slots[key][1]

        winst = sum(r.warp_instructions for r in self.results)
        l1_acc = sum(r.l1_stats.accesses for r in self.results)
        l2_acc = sum(r.l2_stats.accesses for r in self.results)
        lsu_calls = calls("sm.lsu")
        mshr_calls = calls("memory.mshr")
        requested = calls("experiments.run_scheme")
        out = {
            "workloads.build_calls": calls("workloads.build"),
            "workloads.build_s": self_s("workloads.build"),
            "simt.execute_calls": calls("simt.execute"),
            "simt.execute_s": self_s("simt.execute"),
            "trace.replay_s": self_s("trace.replay"),
            "trace.load_s": self_s("trace.load"),
            "trace.store_s": self_s("trace.store"),
            "trace.record_s": self_s("trace.record"),
            "trace.bytes_written": self.bytes_written,
            "gpu.launches": calls("gpu.launch"),
            "gpu.loop_self_s": self_s("gpu.launch"),
            "gpu.skip_jumps": sum(r.skip_jumps for r in self.results),
            "gpu.cycles_skipped": sum(r.cycles_skipped for r in self.results),
            "sm.tick_calls": calls("sm.tick"),
            "sm.tick_self_s": self_s("sm.tick"),
            "sm.issue_per_tick": winst / calls("sm.tick") if calls("sm.tick") else 0.0,
            "sm.wake_calls": calls("sm.wake"),
            "sm.lsu_s": self_s("sm.lsu"),
            "sm.lines_per_mem_inst": self.lines / lsu_calls if lsu_calls else 0.0,
            "sm.dispatch_s": self_s("sm.dispatch"),
            "scheduling.select_calls": calls("scheduling.select"),
            "scheduling.select_s": self_s("scheduling.select"),
            "core.cpl_calls": calls("core.cpl"),
            "core.cpl_s": self_s("core.cpl"),
            "core.cacp_calls": calls("core.cacp"),
            "core.cacp_s": self_s("core.cacp"),
            "memory.l1_hit_rate": (sum(r.l1_stats.hits for r in self.results) / l1_acc
                                   if l1_acc else 0.0),
            "memory.l2_hit_rate": (sum(r.l2_stats.hits for r in self.results) / l2_acc
                                   if l2_acc else 0.0),
            "memory.dram_accesses": sum(r.dram_accesses for r in self.results),
            "memory.mshr_merge_rate": self.mshr_merges / mshr_calls if mshr_calls else 0.0,
            "feedback.publish_calls": calls("feedback.publish"),
            "feedback.publish_s": self_s("feedback.publish"),
            "experiments.cells_requested": requested,
            "experiments.cells_simulated": self.cells_simulated,
            "experiments.dedupe_ratio": self.cells_simulated / requested if requested else 0.0,
            "experiments.cache_hit_rate": (self.cache_hits / self.cache_loads
                                           if self.cache_loads else 0.0),
            "experiments.cache_io_s": self_s("experiments.cache_io"),
            "stats.observer_calls": calls("stats.observer"),
            "stats.observer_s": self_s("stats.observer"),
        }
        for part in ("hierarchy", "l1", "l2", "dram"):
            out[f"memory.{part}_calls"] = calls(f"memory.{part}")
            out[f"memory.{part}_s"] = self_s(f"memory.{part}")
        out.update(extra)
        return {name: out[name] for name, _unit in PER_LAYER}
