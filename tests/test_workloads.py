"""Functional verification of every Table 2 workload.

Each workload's kernel must produce results that match its NumPy reference
implementation, under both the baseline scheduler and the full CAWA scheme
(scheduling must never change architectural results).
"""

import numpy as np
import pytest

from repro import GPU, GPUConfig, apply_scheme
from repro.workloads import (
    NON_SENS_WORKLOADS,
    SENS_WORKLOADS,
    make_workload,
    workload_names,
)

#: Scale factors chosen so each run stays under ~1s.
FAST_SCALE = {
    "bfs": 0.25,
    "b+tree": 0.25,
    "heartwall": 0.5,
    "kmeans": 0.25,
    "needle": 0.5,
    "srad_1": 0.5,
    "strcltr_small": 0.5,
    "backprop": 0.25,
    "particle": 0.5,
    "pathfinder": 0.25,
    "strcltr_mid": 0.5,
    "tpacf": 0.5,
    "synthetic_imbalance": 1.0,
    "synthetic_divergence": 1.0,
    "synthetic_memstress": 1.0,
}


@pytest.mark.parametrize("name", workload_names(include_synthetic=True))
def test_workload_verifies_under_baseline(name):
    gpu = GPU(GPUConfig.default_sim())
    wl = make_workload(name, scale=FAST_SCALE[name])
    result = wl.run(gpu, scheme="rr", check=True)  # raises on mismatch
    assert result.cycles > 0
    assert result.thread_instructions > 0


@pytest.mark.parametrize("name", ["bfs", "kmeans", "needle", "pathfinder"])
def test_workload_verifies_under_cawa(name):
    gpu = GPU(apply_scheme(GPUConfig.default_sim(), "cawa"))
    wl = make_workload(name, scale=FAST_SCALE[name])
    wl.run(gpu, scheme="cawa", check=True)


def test_srad_builds_and_verifies_at_small_scale():
    # Scale 0.1 gives 6 image rows, too few for the 8x8 noise patches;
    # the workload clamps to 9 rows instead of failing to build.
    wl = make_workload("srad_1", scale=0.1)
    assert wl.rows == 9
    result = wl.run(GPU(GPUConfig.default_sim()), scheme="rr", check=True)
    assert result.thread_instructions > 0


class TestRegistry:
    def test_table2_categories(self):
        for name in SENS_WORKLOADS:
            assert make_workload(name).category == "Sens", name
        for name in NON_SENS_WORKLOADS:
            assert make_workload(name).category == "Non-sens", name

    def test_table2_has_twelve_workloads(self):
        assert len(SENS_WORKLOADS) + len(NON_SENS_WORKLOADS) == 12

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_workload("matrixmul")

    def test_workloads_are_seeded(self):
        a = make_workload("bfs", scale=0.25)
        b = make_workload("bfs", scale=0.25)
        ga, gb = GPU(GPUConfig.default_sim()), GPU(GPUConfig.default_sim())
        ra = a.run(ga, check=False)
        rb = b.run(gb, check=False)
        assert ra.cycles == rb.cycles
        assert ra.thread_instructions == rb.thread_instructions


class TestCriticalityStructure:
    def test_imbalance_workload_creates_disparity(self):
        from repro.stats.disparity import max_block_disparity

        gpu = GPU(GPUConfig.default_sim())
        wl = make_workload("synthetic_imbalance")
        result = wl.run(gpu)
        assert max_block_disparity(result) > 0.1

    def test_divergence_workload_diverges(self):
        gpu = GPU(GPUConfig.default_sim())
        make_workload("synthetic_divergence").run(gpu)
        assert sum(sm.stats.divergent_branches for sm in gpu.sms) > 0

    def test_memstress_workload_misses(self):
        gpu = GPU(GPUConfig.default_sim())
        result = make_workload("synthetic_memstress").run(gpu)
        assert result.l1_stats.miss_rate > 0.5

    def test_bfs_unbalanced_has_more_disparity_than_balanced(self):
        from repro.stats.disparity import mean_block_disparity

        g1 = GPU(GPUConfig.default_sim())
        r1 = make_workload("bfs", scale=0.5, balanced=False).run(g1)
        g2 = GPU(GPUConfig.default_sim())
        r2 = make_workload("bfs", scale=0.5, balanced=True).run(g2)
        assert mean_block_disparity(r1) > 0.0
        assert mean_block_disparity(r2) > 0.0
