"""Tests of the benchmark itself.

Run from the repo root::

    PYTHONPATH=src python -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import cells  # noqa: E402
import hostclock  # noqa: E402
import layers  # noqa: E402
import reproduce  # noqa: E402
import run as bench  # noqa: E402


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_scales_are_floats():
    # Cache keys hash 16 and 16.0 differently: an int scale would miss the
    # result cache and re-record the trace.
    assert isinstance(cells.PAPER_SCALE, float)
    assert all(isinstance(scale, float) for _name, scale, _sms in cells.WIDE_CELLS)
    assert isinstance(reproduce.SCALE, float)
    from repro.config import GPUConfig

    config = GPUConfig.default_sim()
    as_int = cells.Cell("bfs", "gto", 1, config, None)
    assert as_int.scale == 1.0 and isinstance(as_int.scale, float)
    assert as_int.cache_key() == cells.Cell("bfs", "gto", 1.0, config, None).cache_key()


def test_host_clock_samples_inside_an_op_and_leaves_them_out():
    clock = hostclock.HostClock()
    handler = signal.getsignal(signal.SIGALRM)
    with clock.op() as op:
        end = time.perf_counter() + 0.6
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is handler
    inside = len(clock.samples) - 2  # the opening and one closing sample
    assert inside >= 1
    assert op.wall < 0.6 - inside * 0.5 * min(clock.samples)
    assert op.seconds == pytest.approx(op.wall * op.factor)
    with clock.op(sample_inside=False) as quiet:
        time.sleep(0.3)
    assert quiet.wall >= 0.3 and len(clock.samples) == inside + 3


def test_every_entry_point_resolves():
    for _layer, _slot, spec in layers.ENTRY_POINTS:
        assert layers.resolve(spec), spec


def test_missing_entry_point_names_itself():
    with pytest.raises(layers.MissingEntryPoint, match="GPU.no_such_loop"):
        layers.resolve("repro.gpu.gpu:GPU.no_such_loop")
    with pytest.raises(layers.MissingEntryPoint, match="repro.no_such_module"):
        layers.resolve("repro.no_such_module:f")


def test_tracer_counts_layers_and_restores_entry_points(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    from repro.gpu.gpu import GPU
    from repro.experiments import runner

    originals = (GPU.launch, runner.run_scheme)
    cell = cells.Cell("bfs", "cawa", 0.25, cells.paper_cells(None)[0].config, None)
    untraced = cells.counters(cell.run())
    tracer = layers.Tracer()
    tracer.install()
    try:
        traced = cells.counters(cell.run())
    finally:
        tracer.uninstall()
    assert (GPU.launch, runner.run_scheme) == originals
    assert traced == untraced
    extra = {"cli.processes": 0, "cli.import_s": 0.0, "host.cpu_s": 0.0,
             "host_ref_s": 0.0, "trace_overhead_pct": 0.0}
    metrics = tracer.metrics(extra)
    assert list(metrics) == [name for name, _unit in layers.PER_LAYER]
    for name in ("gpu.launches", "sm.tick_calls", "scheduling.select_calls",
                 "core.cpl_calls", "memory.l1_calls", "simt.execute_calls",
                 "workloads.build_calls", "experiments.cells_simulated"):
        assert metrics[name] > 0, name
    assert metrics["gpu.launches"] == metrics["experiments.cells_requested"] == 1
    assert all(span["end"] is not None for span in tracer.spans)


def _snapshot(path: Path):
    if not path.exists():
        return None
    return sorted((str(p.relative_to(path)), p.stat().st_size, p.stat().st_mtime_ns)
                  for p in path.rglob("*"))


def test_full_run_is_correct_and_leaves_the_repo_cache_alone():
    repo_cache = ROOT / ".repro_cache"
    before = _snapshot(repo_cache)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide_replay",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
        env={k: v for k, v in os.environ.items() if k != "REPRO_CACHE_DIR"},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert set(result["metrics"]) == {name for name, _unit in bench.END_TO_END}
    assert _snapshot(repo_cache) == before
    assert not list((HERE / ".work").glob("wide_replay-*"))


def test_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_cells", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
