"""Pure statistics behind the benchmark's metrics.

Nothing here touches a process, a socket or the clock, so the rules the
metrics rest on (tail percentile, the max-rate rule, span self time) are
unit-tested on synthetic data in ``e2ebench/tests``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

#: A tail percentile is only reported where at least this many samples
#: lie beyond it; with fewer samples the percentile drops accordingly.
MIN_BEYOND = 10


def median(values) -> float:
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no values")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


def nearest_rank(sorted_xs, q: float) -> float:
    """The ``q`` quantile of already-sorted samples (nearest rank)."""
    if not sorted_xs:
        raise ValueError("quantile of no samples")
    # round first: 1 - 10/n times n must not ceil past the exact rank
    idx = max(0, math.ceil(round(q * len(sorted_xs), 9)) - 1)
    return sorted_xs[min(idx, len(sorted_xs) - 1)]


def supported_percentile(n: int, target: float = 0.99) -> float | None:
    """Highest percentile ``<= target`` with ``MIN_BEYOND`` samples above.

    ``n`` samples put ``floor(n * (1 - q))`` of them beyond the ``q``
    quantile, so the rule caps ``q`` at ``1 - MIN_BEYOND / n``; ``None``
    when ``n`` cannot support any tail percentile at all.
    """
    if n <= MIN_BEYOND:
        return None
    return min(target, 1.0 - MIN_BEYOND / n)


@dataclass(frozen=True)
class Tail:
    """A median and the highest supported tail percentile of one sample."""

    n: int
    p50: float
    q: float | None
    tail: float

    def describe(self, unit: str) -> str:
        q = "n/a" if self.q is None else f"p{100 * self.q:.4g}"
        return (
            f"p50 {self.p50:.4f} {unit}, {q} {self.tail:.4f} {unit} "
            f"(n={self.n})"
        )


def tail_stats(samples, target: float = 0.99) -> Tail:
    """Median and supported tail of ``samples``; failures enter as inf."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    q = supported_percentile(len(xs), target)
    tail = nearest_rank(xs, q) if q is not None else xs[-1]
    return Tail(n=len(xs), p50=median(xs), q=q, tail=tail)


# ----------------------------------------------------------------------
# open-loop phases and the max-rate rule
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PhaseVerdict:
    """What the max-rate rule needs to know about one fixed-rate phase."""

    rate: float
    tail_ms: float            # supported tail latency, inf if failures reach it
    limit_ms: float           # the latency limit the tail must meet
    backlog: int              # requests due but unfinished at the last due time
    backlog_limit: int
    generator_ok: bool        # the load generator kept its own schedule

    @property
    def meets(self) -> bool:
        return (
            self.generator_ok
            and self.backlog <= self.backlog_limit
            and self.tail_ms <= self.limit_ms
        )


def backlog_limit(rate: float, limit_ms: float, connections: int) -> int:
    """Requests that may legitimately be in flight at ``rate``.

    By Little's law a phase whose latency meets ``limit_ms`` holds about
    ``rate * limit`` requests in flight; more than that (or than the
    connections can carry) at the end of the phase means the queue grew.
    """
    return max(connections, math.ceil(rate * limit_ms / 1e3))


def max_rate(phases) -> float:
    """Highest fixed rate whose phase meets the limit with no growing
    backlog and a healthy generator; 0 when none does."""
    passing = [p.rate for p in phases if p.meets]
    return max(passing) if passing else 0.0


# ----------------------------------------------------------------------
# span trees: self time and residual
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Span:
    """One timed call at a layer boundary (times in seconds)."""

    name: str
    layer: str
    start: float
    end: float
    parent: int | None = None   # index of the enclosing span
    ident: str = ""             # cell label or request id


def _depths(spans) -> list[int]:
    depth: list[int] = []
    for s in spans:
        depth.append(0 if s.parent is None else depth[s.parent] + 1)
    return depth


def self_times(spans, wall_start: float, wall_end: float):
    """Attribute the wall interval to layers; returns ``(per_layer, residual)``.

    Every instant of ``[wall_start, wall_end]`` goes to the innermost
    span open at that instant (deepest, then latest started), so a
    span's self time is its duration minus what its children cover and
    concurrent spans are never counted twice.  Time no span covers is
    the residual, hence ``sum(per_layer) + residual == wall`` up to
    float rounding.  Spans must be listed parents-first.
    """
    depth = _depths(spans)
    events = []
    for i, s in enumerate(spans):
        lo = min(max(s.start, wall_start), wall_end)
        hi = min(max(s.end, wall_start), wall_end)
        if hi > lo:
            events.append((lo, 1, i))
            events.append((hi, 0, i))
    events.sort()
    per_layer: dict[str, float] = {}
    residual = 0.0
    open_heap: list[tuple] = []
    closed: set[int] = set()
    t = wall_start
    for when, is_open, i in events:
        while open_heap and open_heap[0][2] in closed:
            heapq.heappop(open_heap)
        if when > t:
            if open_heap:
                layer = spans[open_heap[0][2]].layer
                per_layer[layer] = per_layer.get(layer, 0.0) + (when - t)
            else:
                residual += when - t
            t = when
        if is_open:
            heapq.heappush(open_heap, (-depth[i], -spans[i].start, i))
        else:
            closed.add(i)
    residual += wall_end - t
    return per_layer, residual


def iqr_share(values) -> float:
    """Interquartile distance as a share of the median, from
    ``statistics.quantiles(values, n=4)``: the run-to-run spread each
    end-to-end metric's bound is checked against."""
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
