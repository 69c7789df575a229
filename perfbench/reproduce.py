"""The ``reproduce`` workload: every paper figure and the tables, as a user
regenerates them, cold and then warm on one fresh result cache.

Each command is a separate ``python -m repro`` process, one after another,
started through ``child.py``, which samples the yardstick inside it.
The ``repro figure`` CLI has no seed flag, so this workload always runs at
the program's own seeds, whatever ``--seed`` the benchmark gets.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: One reduced scale for every figure (a float: cache keys hash 1 and 1.0
#: differently).  0.15 is the smallest scale every workload builds at.
SCALE = 0.15
FIGURES = (1, 2, 3, 4, 9, 10, 11, 12, 13, 14, 15, 16, 17)
#: Starts ``python -m repro`` with yardstick samples taken inside it.
CHILD = Path(__file__).resolve().parent / "child.py"
#: The paper's Fig 9 headline: CAWA's Sens-mean speedup over RR, in %.
PAPER_CAWA_SENS_PCT = 23.0

_FIG9_CAWA = re.compile(r"^Sens\s+cawa\s+mean speedup: \S+ \(([+-]?[0-9.]+)%\)", re.M)


def commands() -> List[Tuple[str, List[str]]]:
    """``[(name, argv)]`` in the order a full reproduction runs them."""
    out = [(f"figure {n}", ["figure", str(n), "--scale", repr(SCALE)]) for n in FIGURES]
    out.append(("tables", ["tables"]))
    return out


def child_env(src: Path, cache_dir: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.pop("REPRO_DISK_CACHE", None)
    return env


def run_pass(src: Path, cache_dir: Path, cwd: Path, clock) -> Tuple[float, Dict[str, object]]:
    """One pass over :func:`commands`, each in its own process, each timed
    on ``clock`` (a :class:`hostclock.HostClock`) with the yardstick
    samples its process took (``child.py``).

    Returns ``(normalised seconds, {name: stdout | error text})``; a
    command that exits non-zero maps to an ``Exception`` carrying its
    stderr tail.
    """
    env = child_env(src, cache_dir)
    samples = cwd / "child-samples.json"
    env["PERFBENCH_SAMPLES"] = str(samples)
    outputs: Dict[str, object] = {}
    seconds = 0.0
    for name, argv in commands():
        samples.unlink(missing_ok=True)
        with clock.op(sample_inside=False) as op:
            proc = subprocess.run([sys.executable, str(CHILD), *argv], env=env, cwd=cwd,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            if samples.is_file():
                op.inside.extend(json.loads(samples.read_text()))
        seconds += op.seconds
        if proc.returncode == 0:
            outputs[name] = proc.stdout
        else:
            outputs[name] = RuntimeError(f"{name} exited {proc.returncode}: {proc.stderr[-400:]}")
    return seconds, outputs


def run_pass_in_process(cache_dir: Path, tracer, phase: str,
                        clock) -> Tuple[float, Dict[str, object]]:
    """:func:`run_pass` through ``repro.cli.main`` in this process, so the
    traced run's wrappers see the work.  The runner's per-process memos are
    cleared between commands, as a fresh process would start without them.
    """
    from repro import cli
    from repro.experiments import runner
    from repro.trace import store

    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    outputs: Dict[str, object] = {}
    seconds = 0.0
    for name, argv in commands():
        for memo in (runner._CACHE, runner._ORACLE_CACHE, store._PROGRAM_MEMO):
            memo.clear()
        buffer = io.StringIO()
        tracer.op_id = f"{phase} {name}"
        tracer.open_span(name)
        try:
            with clock.op(sample_inside=False) as op, contextlib.redirect_stdout(buffer):
                code = cli.main(argv)
            outputs[name] = buffer.getvalue() if code == 0 else RuntimeError(f"{name} returned {code}")
        except Exception as exc:  # counted as a failed op
            outputs[name] = exc
        finally:
            seconds += op.seconds
            tracer.close_span()
    return seconds, outputs


def check_outputs(outputs: Dict[str, object], reference: Optional[Dict[str, str]]) -> List[str]:
    """Mismatches against the pinned stdout of every command."""
    problems = []
    for name, out in outputs.items():
        if isinstance(out, Exception):
            problems.append(str(out))
        elif reference is not None and reference.get(name) != out:
            problems.append(f"{name}: stdout differs from reference")
    return problems


def cached_work(cache_dir: Path) -> Tuple[float, int]:
    """Simulated ``(cycles, warp instructions)`` summed over the result
    entries a pass wrote (figs 2, 3 and 12 and oracle runs are not cached,
    so they are not counted)."""
    from repro.stats.counters import result_from_dict

    cycles, winst = 0.0, 0
    for path in sorted(cache_dir.glob("*.json")):
        result = result_from_dict(json.loads(path.read_text()))
        cycles += result.cycles
        winst += result.warp_instructions
    return cycles, winst


def paper_gap_pp(outputs: Dict[str, object]) -> Optional[float]:
    """|fig 9 Sens-mean CAWA speedup over RR - the paper's +23%|, in pp."""
    text = outputs.get("figure 9")
    match = _FIG9_CAWA.search(text) if isinstance(text, str) else None
    return abs(float(match.group(1)) - PAPER_CAWA_SENS_PCT) if match else None
