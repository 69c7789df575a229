"""Performance instrumentation for simulator runs.

Backs ``python -m repro profile`` and ``tools/profile_run.py``: wall-clock
timing (best-of-N, cache-bypassed) plus optional cProfile hot-spot listings,
and a side-by-side comparison of the two issue cores (``event`` vs
``scan``).  The headline throughput metric is **simulated cycles per host
second**, which is what the perf-regression smoke benchmark tracks.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import sys
import time
from typing import Dict, Optional, TextIO, Tuple

from ..config import GPUConfig
from ..stats.counters import RunResult
from . import runner


def timed_run(
    workload: str,
    scheme: str,
    scale: float = 1.0,
    config: Optional[GPUConfig] = None,
    core: Optional[str] = None,
) -> Tuple[RunResult, float]:
    """Run one cell with every cache bypassed; return (result, seconds).

    ``core`` selects the issue core ("event"/"scan"); ``None`` keeps the
    config's default.  Uses CPU time (``process_time``) so measurements are
    stable on loaded machines.
    """
    cfg = config or GPUConfig.default_sim()
    if core is not None:
        cfg = cfg.with_issue_core(core)
    start = time.process_time()
    result = runner.run_scheme(
        workload, scheme, scale=scale, config=cfg,
        use_cache=False, persistent=False,
    )
    return result, time.process_time() - start


def throughput(
    workload: str,
    scheme: str,
    scale: float = 1.0,
    config: Optional[GPUConfig] = None,
    core: Optional[str] = None,
    repeats: int = 3,
) -> Dict[str, float]:
    """Best-of-``repeats`` throughput for one cell.

    Returns ``{"cycles", "seconds", "cycles_per_second"}``.
    """
    best = float("inf")
    cycles = 0.0
    for _ in range(repeats):
        result, seconds = timed_run(workload, scheme, scale, config, core)
        cycles = result.cycles
        if seconds < best:
            best = seconds
    return {
        "cycles": cycles,
        "seconds": best,
        "cycles_per_second": cycles / best if best > 0 else 0.0,
    }


def stall_breakdown(
    workload: str,
    scheme: str,
    scale: float = 1.0,
    config: Optional[GPUConfig] = None,
    n: int = 3,
):
    """Top-``n`` stall reasons for one cell as ``(name, cycles, share)``.

    One events-on run through :func:`repro.obs.harness.record_stalls`;
    ``share`` is the fraction of total warp-cycles (issue + all stalls),
    the paper's Fig 2c denominator.  Stall attribution is identical across
    issue cores, device clocks, and shard counts (the event stream is part
    of the bit-identical timing contract), so one recording serves every
    column of a comparison.
    """
    from ..obs.harness import record_stalls

    _result, acct = record_stalls(workload, scheme, scale=scale, config=config)
    return acct.top_reasons(n)


def compare_cores(
    workload: str,
    scheme: str,
    scale: float = 1.0,
    config: Optional[GPUConfig] = None,
    repeats: int = 3,
) -> Dict[str, Dict[str, float]]:
    """Measure both issue cores on one cell; adds an ``event_speedup`` key
    and the cell's top-3 stall reasons (``"stalls"``)."""
    event = throughput(workload, scheme, scale, config, "event", repeats)
    scan = throughput(workload, scheme, scale, config, "scan", repeats)
    speedup = (scan["seconds"] / event["seconds"]) if event["seconds"] > 0 else 0.0
    return {"event": event, "scan": scan,
            "event_speedup": {"wall": speedup},
            "stalls": stall_breakdown(workload, scheme, scale, config)}


def _component_of(filename: str) -> str:
    """Map a profiled filename onto a coarse simulator component.

    ``repro`` sources aggregate by subpackage (``repro.sm``,
    ``repro.memory``, ...); everything else (stdlib, numpy) lands in
    ``other``.
    """
    marker = "repro" + ("/" if "/" in filename else "\\")
    idx = filename.rfind(marker)
    if idx < 0:
        return "other"
    parts = filename[idx:].replace("\\", "/").split("/")
    if len(parts) >= 3:
        return f"repro.{parts[1]}"
    return "repro"


def _component_breakdown(profiler: cProfile.Profile) -> Dict[str, float]:
    """Aggregate a profile's self-time (tottime) by simulator component."""
    stats = pstats.Stats(profiler)
    totals: Dict[str, float] = {}
    for (filename, _lineno, _func), entry in stats.stats.items():
        tottime = entry[2]
        comp = _component_of(filename)
        totals[comp] = totals.get(comp, 0.0) + tottime
    return totals


def compare_clocks(
    workload: str,
    scheme: str,
    scale: float = 1.0,
    config: Optional[GPUConfig] = None,
    repeats: int = 3,
    clocks: Tuple[str, ...] = ("cycle", "skip"),
) -> Dict[str, Dict]:
    """Measure the per-cycle and time-skipping clocks on one cell.

    For each clock: best-of-``repeats`` wall/CPU throughput plus one
    profiled run aggregated into a per-component self-time breakdown
    (``repro.sm``, ``repro.memory``, ...).  The returned dict maps each
    clock name to ``{"throughput": ..., "components": ...}`` and carries a
    ``"speedup"`` entry (first clock's wall time over the last's — i.e.
    how much the skip clock wins with the default pair).  Results are
    bit-identical across clocks by contract, so the comparison is purely
    about wall time.
    """
    base = config or GPUConfig.default_sim()
    report: Dict[str, Dict] = {}
    for clock in clocks:
        cfg = base.with_clock(clock)
        tp = throughput(workload, scheme, scale, cfg, None, repeats)
        profiler = cProfile.Profile()
        profiler.enable()
        result = runner.run_scheme(
            workload, scheme, scale=scale, config=cfg,
            use_cache=False, persistent=False,
        )
        profiler.disable()
        tp["cycles_skipped"] = result.cycles_skipped
        tp["skip_jumps"] = float(result.skip_jumps)
        report[clock] = {
            "throughput": tp,
            "components": _component_breakdown(profiler),
        }
    first, last = clocks[0], clocks[-1]
    first_s = report[first]["throughput"]["seconds"]
    last_s = report[last]["throughput"]["seconds"]
    report["speedup"] = {"wall": first_s / last_s if last_s > 0 else 0.0}
    report["stalls"] = stall_breakdown(workload, scheme, scale, base)
    return report


def profile_run(
    workload: str,
    scheme: str,
    scale: float = 1.0,
    config: Optional[GPUConfig] = None,
    core: Optional[str] = None,
    sort: str = "cumulative",
    top: int = 25,
    stream: Optional[TextIO] = None,
) -> Tuple[RunResult, float]:
    """cProfile one cell and print the ``top`` hottest entries to ``stream``."""
    out = stream if stream is not None else sys.stdout
    profiler = cProfile.Profile()
    start = time.process_time()
    profiler.enable()
    cfg = config or GPUConfig.default_sim()
    if core is not None:
        cfg = cfg.with_issue_core(core)
    result = runner.run_scheme(
        workload, scheme, scale=scale, config=cfg,
        use_cache=False, persistent=False,
    )
    profiler.disable()
    seconds = time.process_time() - start
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats(sort).print_stats(top)
    print(buffer.getvalue(), file=out)
    cps = result.cycles / seconds if seconds > 0 else 0.0
    print(
        f"{workload} x {scheme} (core={cfg.issue_core}): "
        f"{result.cycles:.0f} cycles in {seconds:.2f}s CPU "
        f"-> {cps:,.0f} cycles/s",
        file=out,
    )
    return result, seconds
