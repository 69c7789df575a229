#!/usr/bin/env python3
"""Benchmark of the CAWA simulator, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_cells --seed 0 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md``):

* ``paper_cells``  -- the 12 Table-2 workloads x {gto, cawa} on the default
  device, execute frontend and cycle clock, caches bypassed;
* ``wide_replay``  -- two wide-device cells x {gto, cawa}, traces recorded
  in set-up, the timed pass is trace replay under the skip clock;
* ``reproduce``    -- every ``python -m repro figure N`` and ``tables``,
  cold then warm on one fresh result cache.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` repeats the
workload with timing wrappers on each layer's entry points and reports the
per-layer metrics.  The last line of stdout is one JSON object.  Every run
works in its own fresh directory under ``perfbench/.work/`` (its own
``REPRO_CACHE_DIR``) and removes it on exit.  The process pins itself to
one CPU, and every timing is normalised to a nominal host by the yardstick
loop in ``hostclock.py``.

``--write-reference`` (seed 0 only) pins this run's simulated counters or
figure text as the reference the checks compare against.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
sys.path.insert(0, str(HERE))

import cells  # noqa: E402
import hostclock  # noqa: E402
import layers  # noqa: E402
import reproduce  # noqa: E402

#: ``--seed`` value that runs the workloads at their own default seeds, the
#: only inputs with pinned reference counters.  Any other value reaches the
#: workloads as their ``seed`` keyword.
DEFAULT_SEED = 0
#: Child interpreters timed per run for ``setup_s``; the median is kept.
IMPORT_PROBES = 7
IMPORT_PROBE = "import repro.cli, repro.experiments.runner"

#: The gated end-to-end metrics, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("warm_s", "s"),
    ("sim_winst_per_s", "winst/s"),
    ("sim_cycles_per_s", "cycles/s"),
    ("peak_rss_mb", "MiB"),
)
#: Reported beside them, not gated: ``failed_op_share`` is already the
#: result's ``failed``/``attempted`` and is 0 on a correct program;
#: ``paper_gap_pp`` is deterministic and pinned by the fig 9 output check.
REPORT_ONLY = (
    ("failed_op_share", "share"),
    ("paper_gap_pp", "pp"),
)


def cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Run:
    """State of one benchmark run: counts, checks, clocks, metrics."""

    def __init__(self, args, work: Path) -> None:
        self.args = args
        self.work = work
        self.default_seed = args.seed == DEFAULT_SEED
        self.seed: Optional[int] = None if self.default_seed else args.seed
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.notes: List[str] = []
        self.clock = hostclock.HostClock()
        self.children = 0
        self.op_times: List[float] = []
        self.tracer: Optional[layers.Tracer] = None

    def op(self, problems: List[str]) -> None:
        """Count one operation; any problem makes it a failed one."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def reference(self, name: str):
        """The pinned reference for this workload (default seed only)."""
        if not self.default_seed or self.args.write_reference:
            return None
        path = REFERENCE / f"{name}.json"
        return json.loads(path.read_text()) if path.is_file() else {}

    def cache_dir(self, name: str) -> Path:
        """A fresh result cache for this run; the package reads the
        variable at call time."""
        path = self.work / name
        path.mkdir()
        os.environ["REPRO_CACHE_DIR"] = str(path)
        return path

    def setup_imports(self) -> float:
        """Median normalised time of a child interpreter starting and
        importing the package: what every ``python -m repro`` pays first."""
        env = reproduce.child_env(SRC, self.work / "probe-cache")
        times = []
        for _ in range(IMPORT_PROBES):
            with self.clock.op(sample_inside=False) as op:
                subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=self.work,
                               check=True)
            times.append(op.seconds)
            self.children += 1
        self.metrics["cli.import_s"] = statistics.median(times)
        return statistics.median(times)

    def repeat(self, one_pass: Callable[[], float]) -> float:
        """Run ``one_pass`` once, then again while another fits in
        ``--seconds`` of wall time; returns the median pass time."""
        start = time.perf_counter()
        times = [one_pass()]
        while not self.args.trace:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(times) > self.args.seconds:
                break
            times.append(one_pass())
        return statistics.median(times)


# -- workloads ------------------------------------------------------------


def _cells_workload(run: Run, name: str, cell_list: List[cells.Cell],
                    recorded: Optional[Dict]) -> None:
    """Timed cells, output checks and metrics shared by the cell workloads.

    Every cell runs once; then the cells run again in order, as far as
    ``--seconds`` of wall time lasts.  A cell's time is the median of its
    runs, and ``run_s`` is the sum over the cells: the time of one pass.
    """
    reference = run.reference(name)
    measured: Dict[str, object] = {}
    runs: Dict[str, List[cells.CellRun]] = {cell.key: [] for cell in cell_list}

    def check(out: List[cells.CellRun]) -> None:
        for c in out:
            key = c.cell.key
            if isinstance(c.result, Exception):
                run.op([f"{key}: {type(c.result).__name__}: {c.result}"])
                continue
            got = cells.counters(c.result)
            measured[key] = got
            run.op(cells.check_cell(c.cell, got, reference, recorded))
            if not runs[key]:
                run.op([] if c.warm_ok else [f"{key}: result read back from disk differs"])
            else:
                c.result = None  # the first run's result stands for the cell
            runs[key].append(c)

    cpu0 = cpu_s()
    start = time.perf_counter()
    # Results are served from disk after the one full pass only: how many
    # cells the last, partial pass reaches depends on the host.
    check(cells.timed_pass(cell_list, run.clock, warm=True))
    # Peak memory of one pass over every cell, whatever the extra runs reach.
    run.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    deadline = start + run.args.seconds
    while not run.args.trace and time.perf_counter() < deadline:
        check(cells.timed_pass(cell_list, run.clock, deadline=deadline))
    run.metrics["host.cpu_s"] = cpu_s() - cpu0
    done = [samples for samples in runs.values() if samples]
    if not done:
        return

    def per_pass(attr: str) -> float:
        return sum(statistics.median(getattr(c, attr) for c in samples) for samples in done)

    run.op_times = [statistics.median(c.seconds for c in samples) for samples in done]
    run_s = per_pass("seconds")
    run.metrics["run_s"] = run_s
    run.metrics["run_wall_s"] = per_pass("wall")
    run.metrics["warm_s"] = sum(samples[0].warm_s for samples in done)
    run.metrics["sim_winst_per_s"] = sum(s[0].result.warp_instructions for s in done) / run_s
    run.metrics["sim_cycles_per_s"] = sum(s[0].result.cycles for s in done) / run_s
    if run.args.write_reference:
        (REFERENCE / f"{name}.json").write_text(json.dumps(measured, indent=1, sort_keys=True) + "\n")

    if run.args.trace:
        if run.tracer is None:
            run.tracer = layers.Tracer()
        tracer = run.tracer
        tracer.install()
        try:
            out = cells.timed_pass(cell_list, run.clock, tracer)
        finally:
            tracer.uninstall()
        traced_s = sum(c.seconds for c in out)
        for c in out:
            got = None if isinstance(c.result, Exception) else cells.counters(c.result)
            run.op([] if got == measured.get(c.cell.key) else
                   [f"{c.cell.key}: traced counters differ from untraced"])
        run.metrics["trace_overhead_pct"] = (traced_s / run_s - 1.0) * 100.0


def paper_cells(run: Run) -> None:
    run.metrics["setup_s"] = run.setup_imports()
    run.cache_dir("cache")
    _cells_workload(run, "paper_cells", cells.paper_cells(run.seed), None)
    run.notes.append("every cell runs its workload's NumPy verifier; "
                     + ("counters checked against the pinned reference" if run.default_seed
                        else "no pinned counters at this seed"))


def wide_replay(run: Run) -> None:
    import_s = run.setup_imports()
    cell_list = cells.wide_cells(run.seed)
    run.cache_dir("cache")
    # The traced run records under the wrappers, so the trace layer's
    # recording and store costs are seen; its set-up time is not a set-up
    # figure then.
    tracer = layers.Tracer() if run.args.trace else None
    if tracer is not None:
        tracer.install()
        tracer.open_span("setup")
    try:
        recorded, record_s = cells.record_wide(cell_list, run.clock, traced=tracer is not None)
    except Exception as exc:  # a failed op: reported below
        run.op([f"recording: {type(exc).__name__}: {exc}"])
        return
    finally:
        if tracer is not None:
            tracer.close_span()
            tracer.uninstall()
    run.tracer = tracer
    if not run.args.trace:
        run.metrics["setup_s"] = import_s + record_s
    _cells_workload(run, "wide_replay", cell_list, recorded)
    run.notes.append("replays are checked against the set-up recording"
                     + (" and the pinned reference" if run.default_seed else ""))


def reproduce_workload(run: Run) -> None:
    run.metrics["setup_s"] = run.setup_imports()
    reference = run.reference("reproduce")
    if reference is not None:
        if reference.get("scale") != reproduce.SCALE:
            run.op([f"reference is for scale {reference.get('scale')}, not {reproduce.SCALE}"])
        reference = reference.get("outputs", {})
    run.notes.append(f"figures at scale {reproduce.SCALE} and the program's own seed 7 "
                     "(`repro figure` has no seed flag); stdout checked against "
                     + ("the pinned reference" if reference is not None else "the cold pass"))
    if run.args.trace:
        _reproduce_traced(run, reference)
        return
    cold_out: Dict[str, object] = {}
    warm_times: List[float] = []
    work: List[Tuple[float, int]] = []

    def one_pass() -> float:
        cache = run.cache_dir(f"cache{len(warm_times)}")
        cold_s, cold = reproduce.run_pass(SRC, cache, run.work, run.clock)
        work.append(reproduce.cached_work(cache))
        warm_s, warm = reproduce.run_pass(SRC, cache, run.work, run.clock)
        warm_times.append(warm_s)
        for outputs in (cold, warm):
            for name, out in outputs.items():
                run.op(reproduce.check_outputs({name: out}, reference))
        for name in cold:
            if cold[name] != warm[name]:
                run.op([f"{name}: warm stdout differs from cold"])
        cold_out.update(cold)
        return cold_s

    cpu0 = cpu_s()
    run_s = run.repeat(one_pass)
    run.metrics["host.cpu_s"] = cpu_s() - cpu0
    run.metrics["run_s"] = run_s
    run.metrics["warm_s"] = statistics.median(warm_times)
    cycles, winst = work[-1]
    run.metrics["sim_winst_per_s"] = winst / run_s
    run.metrics["sim_cycles_per_s"] = cycles / run_s
    run.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    gap = reproduce.paper_gap_pp(cold_out)
    if gap is None:
        run.op(["figure 9: no CAWA Sens mean speedup in its output"])
    else:
        run.metrics["paper_gap_pp"] = gap
    if run.args.write_reference:
        outputs = {k: v for k, v in cold_out.items() if isinstance(v, str)}
        (REFERENCE / "reproduce.json").write_text(json.dumps(
            {"scale": reproduce.SCALE, "outputs": outputs}, indent=1, sort_keys=True) + "\n")


def _reproduce_traced(run: Run, reference) -> None:
    """Wrappers cannot reach child processes, so the traced run calls
    ``repro.cli.main`` in this process: untraced first, as the baseline for
    the overhead and the outputs, then traced.  Each pass is cold then warm
    on its own fresh cache."""
    passes = []
    for label in ("untraced", "traced"):
        tracer = layers.Tracer()
        if label == "traced":
            run.tracer = tracer
            tracer.install()
        try:
            cache = run.cache_dir(f"cache-{label}")
            for phase in ("cold", "warm"):
                seconds, outputs = reproduce.run_pass_in_process(cache, tracer, phase, run.clock)
                passes.append((label, phase, seconds, outputs))
        finally:
            tracer.uninstall()
    base = passes[0][3]
    for label, phase, _seconds, outputs in passes:
        for name, out in outputs.items():
            problems = reproduce.check_outputs({name: out}, reference)
            if label == "traced" and out != base.get(name):
                problems.append(f"{name}: traced {phase} stdout differs from untraced")
            run.op(problems)
    run.metrics["trace_overhead_pct"] = (passes[2][2] / passes[0][2] - 1.0) * 100.0
    run.metrics["host.cpu_s"] = cpu_s()
    gap = reproduce.paper_gap_pp(base)
    if gap is not None:
        run.metrics["paper_gap_pp"] = gap
    # The untraced run starts one ``python -m repro`` per command and pass.
    run.children += 2 * len(reproduce.commands())


WORKLOADS = {
    "paper_cells": paper_cells,
    "wide_replay": wide_replay,
    "reproduce": reproduce_workload,
}


# -- report ---------------------------------------------------------------


def report(run: Run) -> dict:
    """Print the human-readable report; return the result object."""
    name = run.args.workload
    m = run.metrics
    m["failed_op_share"] = run.failed / run.attempted if run.attempted else 1.0
    m["host_ref_s"] = run.clock.median_s()
    print(f"perfbench {name}  seed={run.args.seed}  trace={run.args.trace}")
    for note in run.notes:
        print(f"  note: {note}")
    for metric, unit in END_TO_END + REPORT_ONLY:
        if metric in m:
            gated = "" if (metric, unit) in END_TO_END else "  (not gated)"
            print(f"  {metric:<18} {m[metric]:>16.6g} {unit}{gated}")
        elif metric == "paper_gap_pp":
            print(f"  {metric:<18} {'n/a':>16} (reproduce only)")
    samples = run.clock.samples
    print(f"  host_ref_s         {m['host_ref_s']:>16.6g} s  (yardstick median, host drift "
          f"diagnostic; n={len(samples)} min={min(samples):.4f} max={max(samples):.4f}; "
          f"nominal {hostclock.NOMINAL_S} s)")
    print(f"  timed_wall_s       {run.clock.wall_s:>16.6g} s  (raw wall of every timed op; "
          "the timings above are normalised to the nominal host)")
    if "run_wall_s" in m:
        print(f"  run_wall_s         {m['run_wall_s']:>16.6g} s  (raw wall of one pass, summed "
              "per-cell medians)")
    if "host.cpu_s" in m:
        print(f"  host.cpu_s         {m['host.cpu_s']:>16.6g} s  (CPU of the measured passes, "
              "this process + children)")
    if run.op_times:
        # The highest percentile with at least ten samples beyond it.
        n = len(run.op_times)
        line = f"  op_s               n={n} median={statistics.median(run.op_times):.4f} s"
        if n > 10:
            pct = 100 * (n - 10) // n
            line += f" p{pct}={statistics.quantiles(run.op_times, n=100)[pct - 1]:.4f} s"
        print(line + "  (per cell, median of its runs)")
    if run.tracer is not None:
        print(f"  trace_overhead_pct {m['trace_overhead_pct']:>16.6g} %")
    for problem in run.problems[:20]:
        print(f"  FAILED: {problem}")
    if run.args.trace:
        if run.tracer is None:
            chosen = {}
        else:
            extra = {k: m[k] for k in ("cli.import_s", "host.cpu_s", "host_ref_s",
                                       "trace_overhead_pct")}
            extra["cli.processes"] = run.children
            chosen = run.tracer.metrics(extra)
            for metric, unit in layers.PER_LAYER:
                print(f"  {metric:<30} {chosen[metric]:>16.6g} {unit}")
        units = dict(layers.PER_LAYER)
    else:
        chosen = {k: m[k] for k, _unit in END_TO_END if k in m}
        units = dict(END_TO_END)
    return {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in chosen.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.write_reference and args.seed != DEFAULT_SEED:
        parser.error(f"--write-reference needs --seed {DEFAULT_SEED}")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache-unset")
    os.environ.pop("REPRO_DISK_CACHE", None)
    sys.path.insert(0, str(SRC))
    hostclock.pin_to_one_cpu()
    run = Run(args, work)
    try:
        WORKLOADS[args.workload](run)
        if run.tracer is not None:
            run.tracer.write_spans(HERE / ".work" / f"spans-{args.workload}-{args.seed}.json")
        result = report(run)
    except layers.MissingEntryPoint as exc:
        print(f"perfbench: traced entry point no longer exists: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
