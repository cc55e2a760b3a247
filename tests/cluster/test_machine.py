"""Unit tests for the machine description."""

import math

import numpy as np
import pytest

from repro.cluster.machine import (
    CoreSpec,
    FrequencyLadder,
    MachineSpec,
    NodeSpec,
    paper_machine,
)


class TestFrequencyLadder:
    def test_default_matches_paper_platform(self):
        ladder = FrequencyLadder()
        assert ladder.fmin_ghz == pytest.approx(1.2)
        assert ladder.fmax_ghz == pytest.approx(2.3)

    def test_steps_are_inclusive_and_ascending(self):
        steps = FrequencyLadder().steps
        assert steps[0] == pytest.approx(1.2)
        assert steps[-1] == pytest.approx(2.3)
        assert list(steps) == sorted(steps)

    def test_default_step_count(self):
        # 1.2 .. 2.3 by 0.1 = 12 speeds
        assert len(FrequencyLadder().steps) == 12

    def test_clamp_snaps_to_nearest(self):
        ladder = FrequencyLadder()
        assert ladder.clamp(1.24) == pytest.approx(1.2)
        assert ladder.clamp(1.26) == pytest.approx(1.3)
        assert ladder.clamp(99.0) == pytest.approx(2.3)
        assert ladder.clamp(0.1) == pytest.approx(1.2)

    def test_steps_are_built_once(self):
        ladder = FrequencyLadder()
        assert ladder.steps is ladder.steps

    @pytest.mark.parametrize(
        "ladder",
        [
            FrequencyLadder(),
            FrequencyLadder(fmin_ghz=1.2, fmax_ghz=2.35, fstep_ghz=0.1),
            FrequencyLadder(fmin_ghz=0.8, fmax_ghz=3.0, fstep_ghz=0.25),
            FrequencyLadder(fmin_ghz=1.5, fmax_ghz=1.5),
            FrequencyLadder(fmin_ghz=1.0, fmax_ghz=1.000002, fstep_ghz=1e-7),
        ],
        ids=repr,
    )
    def test_clamp_matches_the_linear_scan(self, ladder):
        """The bisection returns exactly what the nearest-step scan
        (lowest step on ties) returned, over a dense sweep that includes
        every step, both sides of every midpoint and non-finite input."""
        def scan(f):
            return min(ladder.steps, key=lambda s: abs(s - f))

        steps = ladder.steps
        sweep = list(np.linspace(-1.0, 5.0, 6001))
        sweep += list(steps)
        sweep += [(a + b) / 2 for a, b in zip(steps, steps[1:])]
        sweep += [
            s + d for s in steps for d in (1e-12, -1e-12, 0.05, -0.05)
        ]
        sweep += [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e17, -1e17]
        for f in sweep:
            got, want = ladder.clamp(f), scan(f)
            assert got == want and type(got) is type(want), f

    def test_contains(self):
        ladder = FrequencyLadder()
        assert 1.2 in ladder
        assert 2.3 in ladder
        assert 1.25 not in ladder

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            FrequencyLadder(fmin_ghz=2.3, fmax_ghz=1.2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            FrequencyLadder(fmin_ghz=0.0)
        with pytest.raises(ValueError):
            FrequencyLadder(fstep_ghz=0.0)


class TestCoreSpec:
    def test_compute_time_scales_inversely_with_frequency(self):
        core = CoreSpec()
        fast = core.compute_time(1e9, 2.3)
        slow = core.compute_time(1e9, 1.2)
        assert slow > fast
        assert slow / fast == pytest.approx(2.3 / 1.2)

    def test_kinds_have_distinct_rates(self):
        core = CoreSpec()
        spmv = core.compute_time(1e9, 2.3, kind="spmv")
        dense = core.compute_time(1e9, 2.3, kind="dense")
        factor = core.compute_time(1e9, 2.3, kind="factor")
        assert dense < spmv < factor

    def test_zero_flops_take_zero_time(self):
        assert CoreSpec().compute_time(0.0, 2.3) == 0.0

    def test_rejects_negative_flops(self):
        with pytest.raises(ValueError):
            CoreSpec().compute_time(-1.0, 2.3)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            CoreSpec().compute_time(1.0, 2.3, kind="quantum")

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError):
            CoreSpec(spmv_gflops=0.0)


class TestNodeAndMachine:
    def test_paper_platform_is_192_cores(self):
        m = paper_machine()
        assert m.nodes == 8
        assert m.node.cores == 24
        assert m.total_cores == 192

    def test_node_core_count(self):
        assert NodeSpec(sockets=2, cores_per_socket=12).cores == 24

    def test_with_nodes_for_grows_exactly(self):
        m = MachineSpec(nodes=1)
        grown = m.with_nodes_for(49)
        assert grown.total_cores >= 49
        assert grown.nodes == 3  # 24-core nodes

    def test_with_nodes_for_exact_fit(self):
        m = MachineSpec(nodes=1)
        assert m.with_nodes_for(24).nodes == 1
        assert m.with_nodes_for(25).nodes == 2

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            MachineSpec(nodes=0)

    def test_rejects_zero_rank_request(self):
        with pytest.raises(ValueError):
            MachineSpec().with_nodes_for(0)
