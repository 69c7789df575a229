"""Golden-counter oracle: paper cells against their pinned counters.

Every paper figure runs (workload x scheme) cells on
``GPUConfig.default_sim()``.  The benchmark pins the simulated counters of
the 12 Table-2 workloads x {gto, cawa} at scale 0.5 in
``perfbench/reference/paper_cells.json``: cycles, warp and thread
instructions, L1/L2 hits and misses, DRAM accesses, and a digest of the
per-warp finish times.  This test reads that file (never writes it), so
the repo keeps one copy of the pins, and checks that the program still
produces them bit for bit.  A host-speed refactor of the issue path must
leave every one of these numbers unchanged.

Tier 1 runs four workloads (bfs, kmeans, needle, backprop) x both
schemes; ``-m slow`` runs the other 16 cells.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.config import GPUConfig
from repro.experiments import runner
from repro.workloads import NON_SENS_WORKLOADS, SENS_WORKLOADS

_ROOT = Path(__file__).resolve().parents[1]
_PINS = _ROOT / "perfbench" / "reference" / "paper_cells.json"
_CELLS_PY = _ROOT / "perfbench" / "cells.py"

SCALE = 0.5
SCHEMES = ("gto", "cawa")
TIER1_WORKLOADS = ("bfs", "kmeans", "needle", "backprop")


def _load_cells_module():
    """The benchmark's cell module, for its one definition of the pinned
    counters (it imports only the standard library at module level)."""
    spec = importlib.util.spec_from_file_location("_perfbench_cells", _CELLS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_cells = _load_cells_module()


def _params():
    workloads = list(SENS_WORKLOADS) + list(NON_SENS_WORKLOADS)
    out = []
    for name in workloads:
        marks = () if name in TIER1_WORKLOADS else (pytest.mark.slow,)
        for scheme in SCHEMES:
            out.append(pytest.param(name, scheme, marks=marks, id=f"{name}-{scheme}"))
    return out


@pytest.fixture(scope="module")
def pins():
    return json.loads(_PINS.read_text())


def test_tier1_workloads_are_paper_workloads():
    workloads = set(SENS_WORKLOADS) | set(NON_SENS_WORKLOADS)
    assert set(TIER1_WORKLOADS) <= workloads


@pytest.mark.parametrize("workload,scheme", _params())
def test_cell_matches_pinned_counters(pins, workload, scheme):
    config = GPUConfig.default_sim()
    key = f"{workload}@{SCALE!r}x{config.num_sms}/{scheme}"
    assert key in pins, f"no pinned counters for {key}"
    result = runner.run_scheme(
        workload, scheme, SCALE, config=config, check=True,
        use_cache=False, persistent=False,
    )
    got = _cells.counters(result)
    pinned = pins[key]
    diff = {k: (pinned.get(k), got[k]) for k in got if pinned.get(k) != got[k]}
    assert not diff, f"{key}: (pinned, got) {diff}"
