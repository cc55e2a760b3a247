"""Unit tests for the DVFS controller."""

import numpy as np
import pytest

from repro.power.dvfs import DvfsController, Governor


@pytest.fixture()
def ctl() -> DvfsController:
    return DvfsController(ncores=4)


class TestGovernors:
    def test_starts_at_fmax_performance(self, ctl):
        assert ctl.governor is Governor.PERFORMANCE
        assert np.allclose(ctl.frequencies, 2.3)

    def test_powersave_drops_everything(self, ctl):
        ctl.set_governor(Governor.POWERSAVE)
        assert np.allclose(ctl.frequencies, 1.2)

    def test_performance_restores_fmax(self, ctl):
        ctl.set_governor(Governor.POWERSAVE)
        ctl.set_governor(Governor.PERFORMANCE)
        assert np.allclose(ctl.frequencies, 2.3)

    def test_userspace_required_for_set_frequency(self, ctl):
        with pytest.raises(PermissionError):
            ctl.set_frequency(0, 1.5)
        ctl.set_governor(Governor.USERSPACE)
        assert ctl.set_frequency(0, 1.5) == pytest.approx(1.5)

    def test_ondemand_required_for_utilization(self, ctl):
        with pytest.raises(PermissionError):
            ctl.on_utilization(0, 0.5)


class TestUserspace:
    def test_set_frequency_snaps_to_ladder(self, ctl):
        ctl.set_governor(Governor.USERSPACE)
        assert ctl.set_frequency(1, 1.234) == pytest.approx(1.2)
        assert ctl.frequency_of(1) == pytest.approx(1.2)

    def test_per_core_independence(self, ctl):
        ctl.set_governor(Governor.USERSPACE)
        ctl.set_frequency(0, 1.2)
        assert ctl.frequency_of(0) == pytest.approx(1.2)
        assert ctl.frequency_of(1) == pytest.approx(2.3)

    def test_li_dvfs_schedule(self, ctl):
        """The Section-4.2 pattern: victim at f_max, rest at f_min."""
        ctl.set_governor(Governor.USERSPACE)
        ctl.set_all(1.2)
        ctl.set_frequency(2, 2.3)
        assert ctl.frequency_of(2) == pytest.approx(2.3)
        assert all(
            ctl.frequency_of(c) == pytest.approx(1.2) for c in (0, 1, 3)
        )

    def test_core_out_of_range(self, ctl):
        ctl.set_governor(Governor.USERSPACE)
        with pytest.raises(IndexError):
            ctl.set_frequency(7, 1.5)


class TestOndemand:
    def test_high_utilization_jumps_to_fmax(self, ctl):
        ctl.set_governor(Governor.ONDEMAND)
        ctl._apply(0, 1.2, 0.0)
        assert ctl.on_utilization(0, 0.99) == pytest.approx(2.3)

    def test_low_utilization_scales_down(self, ctl):
        ctl.set_governor(Governor.ONDEMAND)
        f = ctl.on_utilization(0, 0.1)
        assert f < 2.3

    def test_utilization_bounds(self, ctl):
        ctl.set_governor(Governor.ONDEMAND)
        with pytest.raises(ValueError):
            ctl.on_utilization(0, 1.5)


class TestTransitions:
    def test_transitions_are_logged(self, ctl):
        ctl.set_governor(Governor.USERSPACE)
        ctl.set_frequency(0, 1.2, time_s=1.0)
        ctl.set_frequency(0, 2.3, time_s=2.0)
        assert ctl.transition_count(0) == 2
        assert ctl.transitions[0].time_s == 1.0
        assert ctl.transitions[0].f_from_ghz == pytest.approx(2.3)
        assert ctl.transitions[0].f_to_ghz == pytest.approx(1.2)

    def test_noop_set_is_not_a_transition(self, ctl):
        ctl.set_governor(Governor.USERSPACE)
        ctl.set_frequency(0, 2.3)  # already there
        assert ctl.transition_count() == 0

    def test_count_all_cores(self, ctl):
        ctl.set_governor(Governor.USERSPACE)
        ctl.set_all(1.2)
        assert ctl.transition_count() == 4

    @pytest.mark.parametrize("f", [1.2, 1.26, 2.3, 0.3, 9.0])
    def test_set_all_logs_what_per_core_steps_log(self, f):
        """``set_all`` snaps once but records the same transitions, in
        core order, as applying the target core by core."""
        fast = DvfsController(ncores=6)
        slow = DvfsController(ncores=6)
        for c in (fast, slow):
            c.set_governor(Governor.USERSPACE)
            c.set_frequency(1, 1.5, time_s=0.5)
            c.set_frequency(4, f, time_s=0.5)
        fast.set_all(f, time_s=1.0)
        for core in range(slow.ncores):
            slow._apply(core, f, 1.0)
        assert fast.transitions == slow.transitions
        assert np.array_equal(fast.frequencies, slow.frequencies)
        assert all(type(t.core) is int for t in fast.transitions)

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            DvfsController(ncores=0)
