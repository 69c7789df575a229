"""CAWA through the FeedbackChannel must bit-match the hand-wired coupling.

``feedback='direct'`` binds the CPL predictor's ``is_critical`` onto the
SM (and through it the CACP L1 policy) at construction time, exactly as
the pre-channel code did; ``feedback='channel'`` (the default) routes the
same bound method through the per-SM FeedbackChannel.  The two wirings
must be *bit-identical* — cycles, instruction totals, the full cache
trace (including CACP's ``critical_hits``), and every per-warp execution
time — on every CAWA-family scheme.  A fast subset runs in tier 1; the
full (scheme x frontend x clock) grid is marked ``slow``.
"""

import pytest

from repro import trace as trace_mod
from repro.config import GPUConfig
from repro.core.cawa import apply_scheme
from repro.experiments.runner import run_scheme

#: Every scheme whose L1 policy consumes criticality verdicts, plus the
#: scheduler-only half of the design as a control.
CAWA_SCHEMES = ["cawa", "cawa+bypass", "cawa+mshr", "gto+cacp", "gcaws"]
SCALE = 0.25
WORKLOAD = "backprop"

_PROGRAMS = {}


def _program(workload, scale=SCALE):
    key = (workload, scale)
    if key not in _PROGRAMS:
        _, program = trace_mod.record_workload(
            workload, scale=scale, config=GPUConfig.default_sim()
        )
        _PROGRAMS[key] = program
    return _PROGRAMS[key]


def _signature(result):
    """Everything that must not drift between the two wirings."""
    return (
        result.cycles,
        result.warp_instructions,
        result.thread_instructions,
        result.l1_stats.accesses,
        result.l1_stats.hits,
        result.l1_stats.misses,
        result.l1_stats.bypasses,
        result.l1_stats.critical_hits,
        result.l2_stats.accesses,
        result.l2_stats.misses,
        result.dram_accesses,
        tuple(tuple(block.warp_execution_times()) for block in result.blocks),
    )


def _run(scheme, feedback, frontend="execute", clock="cycle",
         workload=WORKLOAD, scale=SCALE):
    base = GPUConfig.default_sim().with_feedback(feedback).with_clock(clock)
    if frontend == "execute":
        return run_scheme(workload, scheme, scale=scale, config=base,
                          use_cache=False, persistent=False)
    cfg = apply_scheme(base.with_frontend("trace"), scheme)
    return trace_mod.replay_program(
        _program(workload, scale), cfg, scheme=scheme
    )[-1]


def _assert_wiring_parity(scheme, **modes):
    channel = _run(scheme, "channel", **modes)
    direct = _run(scheme, "direct", **modes)
    assert _signature(channel) == _signature(direct), (
        f"channel/direct divergence on {scheme} ({modes or 'defaults'})"
    )


class TestWiringParityFast:
    """Tier-1 subset: the full coordinated design on both frontends."""

    @pytest.mark.parametrize("scheme", ["cawa", "gcaws"])
    def test_execute_frontend(self, scheme):
        _assert_wiring_parity(scheme)

    def test_trace_frontend(self):
        _assert_wiring_parity("cawa", frontend="trace")

    def test_skip_clock(self):
        _assert_wiring_parity("cawa", clock="skip")


@pytest.mark.slow
class TestWiringParityFullGrid:
    """Every CAWA-family scheme x frontend x clock."""

    @pytest.mark.parametrize("clock", ["cycle", "skip"])
    @pytest.mark.parametrize("frontend", ["execute", "trace"])
    @pytest.mark.parametrize("scheme", CAWA_SCHEMES)
    def test_grid_cell(self, scheme, frontend, clock):
        _assert_wiring_parity(scheme, frontend=frontend, clock=clock)
