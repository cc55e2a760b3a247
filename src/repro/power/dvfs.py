"""DVFS controller mirroring the Linux CPUfreq interface.

The paper drives per-core frequencies through CPUfreq (Section 5.1) and
compares two governors (Section 5.3):

* ``ondemand`` — the OS policy: frequency tracks utilisation;
* ``userspace`` — explicit control, used by LI-DVFS/LSI-DVFS to pin the
  reconstructing core at f_max and every other core at f_min.

:class:`DvfsController` keeps one frequency per core, validates requested
frequencies against the ladder, and logs every transition (useful both
for tests and for explaining power traces).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.machine import FrequencyLadder


class Governor(enum.Enum):
    """CPUfreq governor."""

    PERFORMANCE = "performance"  # always f_max
    POWERSAVE = "powersave"      # always f_min
    ONDEMAND = "ondemand"        # tracks utilisation
    USERSPACE = "userspace"      # explicit set_frequency calls


@dataclass(frozen=True)
class Transition:
    """One frequency change on one core."""

    time_s: float
    core: int
    f_from_ghz: float
    f_to_ghz: float


#: Utilisation above which ``ondemand`` jumps to f_max (Linux default ~95%).
ONDEMAND_UP_THRESHOLD = 0.95


@dataclass
class DvfsController:
    """Per-core frequency control for ``ncores`` cores.

    All cores start at f_max under the ``performance`` governor, matching
    the paper's compute-phase configuration.
    """

    ncores: int
    ladder: FrequencyLadder = field(default_factory=FrequencyLadder)
    governor: Governor = Governor.PERFORMANCE
    transition_latency_s: float = 10e-6  # typical Haswell P-state switch

    def __post_init__(self) -> None:
        if self.ncores < 1:
            raise ValueError("need at least one core")
        self._freq = np.full(self.ncores, self.ladder.fmax_ghz)
        self.transitions: list[Transition] = []

    # ------------------------------------------------------------------
    def frequency_of(self, core: int) -> float:
        self._check(core)
        return float(self._freq[core])

    @property
    def frequencies(self) -> np.ndarray:
        v = self._freq.view()
        v.flags.writeable = False
        return v

    def set_governor(self, governor: Governor, *, time_s: float = 0.0) -> None:
        """Switch governor; fixed-policy governors apply immediately."""
        self.governor = governor
        if governor is Governor.PERFORMANCE:
            self.set_all(self.ladder.fmax_ghz, time_s=time_s)
        elif governor is Governor.POWERSAVE:
            self.set_all(self.ladder.fmin_ghz, time_s=time_s)

    def set_frequency(self, core: int, f_ghz: float, *, time_s: float = 0.0) -> float:
        """Pin ``core`` to ``f_ghz`` (snapped to the ladder).

        Only legal under the ``userspace`` governor, like CPUfreq's
        ``scaling_setspeed``.  Returns the actually applied frequency.
        """
        if self.governor is not Governor.USERSPACE:
            raise PermissionError(
                f"set_frequency requires the userspace governor, not {self.governor.value}"
            )
        return self._apply(core, f_ghz, time_s)

    def set_all(self, f_ghz: float, *, time_s: float = 0.0) -> None:
        """Move every core to ``f_ghz`` (snapped to the ladder once).

        Same transitions, in core order, as applying the target core by
        core."""
        target = self.ladder.clamp(f_ghz)
        freq = self._freq
        moved = np.flatnonzero(np.abs(target - freq) > 1e-12)
        if moved.size:
            self.transitions.extend(
                Transition(time_s, core, float(freq[core]), target)
                for core in moved.tolist()
            )
            freq[moved] = target

    def on_utilization(self, core: int, utilization: float, *, time_s: float = 0.0) -> float:
        """``ondemand`` policy step: scale with observed utilisation.

        High utilisation jumps straight to f_max; otherwise the governor
        picks the lowest frequency that keeps predicted utilisation below
        the threshold (the Linux ondemand heuristic).
        """
        if self.governor is not Governor.ONDEMAND:
            raise PermissionError("on_utilization requires the ondemand governor")
        if not 0.0 <= utilization <= 1.0:
            raise ValueError("utilization must be in [0, 1]")
        if utilization >= ONDEMAND_UP_THRESHOLD:
            target = self.ladder.fmax_ghz
        else:
            cur = self.frequency_of(core)
            needed = utilization * cur / ONDEMAND_UP_THRESHOLD
            candidates = [f for f in self.ladder.steps if f >= needed]
            target = candidates[0] if candidates else self.ladder.fmax_ghz
        return self._apply(core, target, time_s)

    def transition_count(self, core: int | None = None) -> int:
        if core is None:
            return len(self.transitions)
        return sum(1 for t in self.transitions if t.core == core)

    # ------------------------------------------------------------------
    def _apply(self, core: int, f_ghz: float, time_s: float) -> float:
        self._check(core)
        target = self.ladder.clamp(f_ghz)
        current = float(self._freq[core])
        if abs(target - current) > 1e-12:
            self.transitions.append(Transition(time_s, core, current, target))
            self._freq[core] = target
        return target

    def _check(self, core: int) -> None:
        if not 0 <= core < self.ncores:
            raise IndexError(f"core {core} out of range [0, {self.ncores})")
