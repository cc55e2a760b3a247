"""Machine description: nodes, sockets, cores, and DVFS frequency ladders.

Mirrors the paper's experimental platform (Section 5.1): 8 dual-socket
nodes, two 12-core Xeon E5-2670v3 per node, per-core DVFS from 1.2 GHz to
2.3 GHz in 0.1 GHz steps.  All values are configurable; the defaults are
the paper's.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property


#: Default DVFS limits of the Xeon E5-2670v3 (paper, Section 5.1), in GHz.
DEFAULT_FMIN_GHZ = 1.2
DEFAULT_FMAX_GHZ = 2.3
DEFAULT_FSTEP_GHZ = 0.1


@dataclass(frozen=True)
class FrequencyLadder:
    """Discrete set of CPU frequencies a core may run at.

    Frequencies are stored in GHz.  The ladder is inclusive of both
    endpoints, e.g. the default ladder is ``1.2, 1.3, ..., 2.3``.
    """

    fmin_ghz: float = DEFAULT_FMIN_GHZ
    fmax_ghz: float = DEFAULT_FMAX_GHZ
    fstep_ghz: float = DEFAULT_FSTEP_GHZ

    def __post_init__(self) -> None:
        if self.fmin_ghz <= 0 or self.fmax_ghz <= 0:
            raise ValueError("frequencies must be positive")
        if self.fmin_ghz > self.fmax_ghz:
            raise ValueError("fmin must not exceed fmax")
        if self.fstep_ghz <= 0:
            raise ValueError("frequency step must be positive")

    # ``steps`` is read on every DVFS transition, so it is built once
    # per ladder.  ``cached_property`` writes the instance ``__dict__``
    # directly, which a frozen dataclass permits, and the fields it
    # derives from are immutable.
    @cached_property
    def steps(self) -> tuple[float, ...]:
        """All available frequencies, ascending, in GHz."""
        out = []
        # Use integer stepping to avoid float accumulation drift.
        nsteps = int(round((self.fmax_ghz - self.fmin_ghz) / self.fstep_ghz))
        for i in range(nsteps + 1):
            out.append(round(self.fmin_ghz + i * self.fstep_ghz, 6))
        if out[-1] < self.fmax_ghz - 1e-9:
            out.append(self.fmax_ghz)
        return tuple(out)

    def clamp(self, f_ghz: float) -> float:
        """Snap ``f_ghz`` to the nearest available ladder step.

        Ties go to the lowest step.  Along the ascending ladder the
        distance ``|s - f|`` never rises below ``f`` and never falls
        above it, so the nearest step brackets ``f`` and is found by
        bisection; equal distances can only run leftwards from the step
        just below ``f``, and that run is walked to its first step.
        """
        steps = self.steps
        i = bisect_left(steps, f_ghz)
        if i < len(steps) and (
            i == 0 or abs(steps[i] - f_ghz) < abs(steps[i - 1] - f_ghz)
        ):
            return steps[i]
        j = i - 1
        d = abs(steps[j] - f_ghz)
        while j > 0 and abs(steps[j - 1] - f_ghz) == d:
            j -= 1
        return steps[j]

    def __contains__(self, f_ghz: float) -> bool:
        return any(abs(f_ghz - s) < 1e-9 for s in self.steps)


@dataclass(frozen=True)
class CoreSpec:
    """A single CPU core.

    Effective rates at ``ladder.fmax_ghz`` per workload kind:

    * ``spmv_gflops`` — streaming sparse matrix-vector products
      (memory-bound, hence far below peak);
    * ``dense_gflops`` — dense BLAS-1/2 work (dots, axpys);
    * ``factor_gflops`` — sparse factorization (LU/QR): irregular,
      fill-allocating, latency-bound — the slowest of the three, which
      is why the paper's prior-work LI/LSI constructions are expensive
      ("LU factorization requires a large amount of memory [24], and
      incurs high time and energy costs", Section 4.1).

    Rates scale linearly with frequency, matching the paper's DVFS
    assumption that compute phases slow proportionally with the clock.
    """

    ladder: FrequencyLadder = field(default_factory=FrequencyLadder)
    spmv_gflops: float = 2.0
    dense_gflops: float = 4.0
    factor_gflops: float = 0.5

    def __post_init__(self) -> None:
        if min(self.spmv_gflops, self.dense_gflops, self.factor_gflops) <= 0:
            raise ValueError("compute rates must be positive")

    def rate_gflops(self, kind: str) -> float:
        try:
            return {
                "spmv": self.spmv_gflops,
                "dense": self.dense_gflops,
                "factor": self.factor_gflops,
            }[kind]
        except KeyError:
            raise ValueError(f"unknown workload kind {kind!r}") from None

    def compute_time(self, flops: float, f_ghz: float, *, kind: str = "spmv") -> float:
        """Seconds to execute ``flops`` of ``kind`` work at ``f_ghz``."""
        if flops < 0:
            raise ValueError("flops must be non-negative")
        rate = self.rate_gflops(kind) * 1e9
        scale = f_ghz / self.ladder.fmax_ghz
        if scale <= 0:
            raise ValueError("frequency must be positive")
        return flops / (rate * scale)


@dataclass(frozen=True)
class NodeSpec:
    """A compute node: ``sockets`` sockets of ``cores_per_socket`` cores."""

    sockets: int = 2
    cores_per_socket: int = 12
    core: CoreSpec = field(default_factory=CoreSpec)
    dram_gb: float = 128.0

    def __post_init__(self) -> None:
        if self.sockets < 1 or self.cores_per_socket < 1:
            raise ValueError("node must have at least one socket and core")

    @property
    def cores(self) -> int:
        return self.sockets * self.cores_per_socket


@dataclass(frozen=True)
class MachineSpec:
    """A cluster of identical nodes.

    The paper's platform is ``MachineSpec(nodes=8)`` with the default
    :class:`NodeSpec`: 8 x 24 = 192 cores.
    """

    nodes: int = 8
    node: NodeSpec = field(default_factory=NodeSpec)

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError("machine must have at least one node")

    @property
    def total_cores(self) -> int:
        return self.nodes * self.node.cores

    def with_nodes_for(self, ranks: int) -> "MachineSpec":
        """A machine with just enough identical nodes to host ``ranks``
        one-rank-per-core processes."""
        if ranks < 1:
            raise ValueError("ranks must be positive")
        need = -(-ranks // self.node.cores)  # ceil division
        return MachineSpec(nodes=need, node=self.node)


def paper_machine() -> MachineSpec:
    """The experimental platform of Section 5.1 (8 nodes, 192 cores)."""
    return MachineSpec()
