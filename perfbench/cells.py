"""The simulation workloads: ``paper_cells`` and ``wide_replay``.

Both run (workload x scheme) cells through ``runner.run_scheme`` in this
process, with the result cache bypassed, and check each cell's simulated
counters.  Scales are floats on purpose: the result and trace cache keys
hash ``16`` and ``16.0`` differently.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from typing import Dict, List, Optional, Tuple

#: The Table 2 workloads x these schemes, on ``GPUConfig.default_sim()``.
PAPER_SCHEMES: Tuple[str, ...] = ("gto", "cawa")
PAPER_SCALE = 0.5

#: (workload, scale, SMs): the wide-device cells replayed under the trace
#: frontend and the skip clock.
WIDE_CELLS: Tuple[Tuple[str, float, int], ...] = (
    ("strcltr_mid", 16.0, 64),
    ("synthetic_memstress", 64.0, 160),
)
WIDE_SCHEMES: Tuple[str, ...] = ("gto", "cawa")
#: The scheme the set-up records each wide trace under.
RECORD_SCHEME = "gto"

#: Counters that do not depend on the schedule: a replay under any scheme
#: must reproduce the recording's values.
FUNCTIONAL_COUNTERS = ("warp_instructions", "thread_instructions")


def paper_workloads() -> List[str]:
    from repro.workloads import NON_SENS_WORKLOADS, SENS_WORKLOADS

    return list(SENS_WORKLOADS) + list(NON_SENS_WORKLOADS)


def counters(result) -> Dict[str, object]:
    """The simulated counters pinned per cell."""
    finish = sorted(
        (block.block_id, warp.warp_id_in_block, block.dispatch_cycle, warp.execution_time)
        for block in result.blocks
        for warp in block.warps
    )
    return {
        "cycles": result.cycles,
        "warp_instructions": result.warp_instructions,
        "thread_instructions": result.thread_instructions,
        "l1_hits": result.l1_stats.hits,
        "l1_misses": result.l1_stats.misses,
        "l2_hits": result.l2_stats.hits,
        "l2_misses": result.l2_stats.misses,
        "dram_accesses": result.dram_accesses,
        "finish_digest": hashlib.sha256(repr(finish).encode()).hexdigest()[:16],
    }


class Cell:
    """One (workload, scheme) cell and how to run it."""

    def __init__(self, workload: str, scheme: str, scale: float, config,
                 seed: Optional[int]) -> None:
        self.workload = workload
        self.scheme = scheme
        self.scale = float(scale)
        self.config = config
        self.kwargs = {} if seed is None else {"seed": seed}
        self.key = f"{workload}@{self.scale!r}x{config.num_sms}/{scheme}"

    def run(self, scheme: Optional[str] = None):
        from repro.experiments import runner

        return runner.run_scheme(
            self.workload, scheme or self.scheme, self.scale, config=self.config,
            check=True, use_cache=False, persistent=False, **self.kwargs,
        )

    def cache_key(self) -> str:
        from repro.core.cawa import apply_scheme
        from repro.experiments import result_cache

        fingerprint = apply_scheme(self.config, self.scheme).fingerprint()
        return result_cache.cache_key(self.workload, self.scheme, self.scale, fingerprint)


def paper_cells(seed: Optional[int]) -> List[Cell]:
    from repro.config import GPUConfig

    config = GPUConfig.default_sim()
    return [Cell(name, scheme, PAPER_SCALE, config, seed)
            for name in paper_workloads() for scheme in PAPER_SCHEMES]


def wide_cells(seed: Optional[int]) -> List[Cell]:
    from repro.config import GPUConfig

    cells = []
    for name, scale, sms in WIDE_CELLS:
        config = GPUConfig.default_sim(num_sms=sms).with_frontend("trace").with_clock("skip")
        cells.extend(Cell(name, scheme, scale, config, seed) for scheme in WIDE_SCHEMES)
    return cells


def record_wide(cells: List[Cell], clock,
                traced: bool = False) -> Tuple[Dict[str, Dict[str, object]], float]:
    """Set-up of ``wide_replay``: record each workload's trace once.

    On a trace miss ``run_scheme`` executes the cell with a recorder
    attached (NumPy verifier on) and stores the trace, so the timed pass
    is replay only.  Returns the recording runs' counters per workload and
    their normalised seconds on ``clock``.
    """
    recorded, seconds = {}, 0.0
    for cell in cells:
        if cell.workload not in recorded:
            with clock.op(sample_inside=not traced) as op:
                recorded[cell.workload] = counters(cell.run(RECORD_SCHEME))
            seconds += op.seconds
    return recorded, seconds


def check_cell(cell: Cell, got: Dict[str, object], reference: Optional[Dict],
               recorded: Optional[Dict]) -> List[str]:
    """Mismatches of one cell's counters (empty when it is correct).

    ``reference`` holds the pinned counters (default seed only);
    ``recorded`` the wide set-up recording of the cell's workload.
    """
    problems = []
    if reference is not None:
        pinned = reference.get(cell.key)
        if pinned is None:
            problems.append(f"{cell.key}: no reference counters")
        elif pinned != got:
            diff = {k: (pinned.get(k), got.get(k)) for k in got if pinned.get(k) != got[k]}
            problems.append(f"{cell.key}: counters differ from reference {diff}")
    if recorded is not None:
        rec = recorded[cell.workload]
        names = rec if cell.scheme == RECORD_SCHEME else FUNCTIONAL_COUNTERS
        diff = {k: (rec[k], got[k]) for k in names if rec[k] != got[k]}
        if diff:
            problems.append(f"{cell.key}: replay differs from recording {diff}")
    return problems


#: Reads of each cell's stored result; the median is its warm time.
WARM_READS = 100


class CellRun:
    """One cell of a pass: its result (or error), and normalised host
    times."""

    def __init__(self, cell: Cell, result: object, wall: float, seconds: float) -> None:
        self.cell = cell
        self.result = result
        self.wall = wall
        self.seconds = seconds
        self.warm_s = 0.0
        self.warm_ok = True


def timed_pass(cells: List[Cell], clock, tracer=None, warm: bool = False,
               deadline: Optional[float] = None) -> List[CellRun]:
    """Run every cell once, timing each on ``clock`` (a
    :class:`hostclock.HostClock`); with a ``deadline`` (a
    ``time.perf_counter()`` value), start no cell after it.

    With a :class:`layers.Tracer`, each cell is one op and one span.
    Each pass starts without decoded traces in memory, as a new process
    would, so every pass pays the same trace decode.

    ``warm`` also serves each cell from disk right after it ran: its result
    is stored in the run's result cache and read back :data:`WARM_READS`
    times, outside the cell's timing.
    """
    from repro.trace import store

    store._PROGRAM_MEMO.clear()
    out = []
    for cell in cells:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.op_id = cell.key
            tracer.open_span(f"op {cell.key}")
        with clock.op(sample_inside=tracer is None) as op:
            try:
                result = cell.run()
            except Exception as exc:  # a failed op: reported by the caller
                result = exc
        if tracer is not None:
            tracer.close_span()
        out.append(CellRun(cell, result, op.wall, op.seconds))
        if warm and not isinstance(result, Exception):
            out[-1].warm_s, out[-1].warm_ok = _warm_reads(cell, result, clock)
    return out


def _warm_reads(cell: Cell, result, clock) -> Tuple[float, bool]:
    """Store ``result``, then time reading it back; ``(normalised median s,
    all equal)``."""
    from repro.experiments import result_cache

    key = cell.cache_key()
    result_cache.store(key, result)
    expected = counters(result)
    times, ok = [], True
    # A read that a yardstick sample lands in is an outlier the median drops.
    with clock.op() as op:
        for _ in range(WARM_READS):
            t0 = time.perf_counter()
            loaded = result_cache.load(key)
            times.append(time.perf_counter() - t0)
            ok = ok and loaded is not None and counters(loaded) == expected
    return statistics.median(times) * op.factor, ok
