"""The serve-mixed workload: ``repro serve`` under open-loop load.

The server runs in its own process at its default workers and LRU
size; the load comes from this process (:mod:`loadgen`).  Three fixed
Poisson rates follow each other over one warmed server.  Most requests
hit the warmed key set (LRU, some store reads); 5% are fresh analytic
cells (micro-batcher, horizon probe, store write) and 2% fresh
simulated cells, which are CPU-bound in the server's thread pool: the
head-of-line case.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import loadgen
import procs
import stats

#: The fixed open-loop rates (requests/s), lightest first.
RATES = (("light", 20.0), ("nominal", 40.0), ("heavy", 70.0))
#: The latency limit on each rate's supported tail percentile: the
#: server's own default latency SLO (99% of requests within 100 ms).
LIMIT_MS = 100.0
#: The generator is healthy while its own p99 lateness stays under this
#: share of the latency limit.
LATE_SHARE = 0.1
#: Server spawns per run; ``setup_s`` is their median.
SETUP_SPAWNS = 5
#: Requests kept per phase and kind for the correctness check.
SAMPLE = {"hot": 2, "analytic": 2, "sim": 1}


@dataclass
class Phase:
    name: str
    rate: float
    schedule: list
    outcomes: list
    metrics_before: dict = field(default_factory=dict)
    metrics_after: dict = field(default_factory=dict)

    @property
    def latencies_ms(self) -> list[float]:
        return [o.latency * 1e3 if o.ok else math.inf for o in self.outcomes]

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    @property
    def span_s(self) -> float:
        """First due time to last completion."""
        return max(o.done for o in self.outcomes) - min(o.due for o in self.outcomes)

    def verdict(self, connections: int) -> stats.PhaseVerdict:
        tail = stats.tail_stats(self.latencies_ms)
        late = stats.tail_stats([o.late * 1e3 for o in self.outcomes])
        return stats.PhaseVerdict(
            rate=self.rate,
            tail_ms=tail.tail,
            limit_ms=LIMIT_MS,
            backlog=loadgen.backlog_at_end(self.outcomes),
            backlog_limit=stats.backlog_limit(self.rate, LIMIT_MS, connections),
            generator_ok=late.tail <= LATE_SHARE * LIMIT_MS,
        )


def sample_bodies(schedules) -> list[bytes]:
    """The first requests of each kind in each phase: the keys whose
    every 200 body is checked against a lone in-process solve."""
    keep: list[bytes] = []
    for schedule in schedules:
        taken = dict.fromkeys(SAMPLE, 0)
        for req in schedule:
            if taken[req.kind] < SAMPLE[req.kind] and req.body not in keep:
                keep.append(req.body)
                taken[req.kind] += 1
    return keep


def check_bodies(phases, keep, oracle_reports) -> list[str]:
    """Every kept 200 body must equal the oracle's canonical report."""
    want = dict(zip(keep, oracle_reports))
    problems = []
    checked = 0
    for phase in phases:
        for req, out in zip(phase.schedule, phase.outcomes):
            if req.body in want and out.ok:
                checked += 1
                if out.report != want[req.body]:
                    problems.append(
                        f"{phase.name}: body for {req.body.decode()} differs "
                        "from a lone in-process solve"
                    )
    if not checked:
        problems.append("no sampled request was answered")
    return problems


def warm(server: procs.Server) -> list[str]:
    """Request every hot key once (closed loop, untimed)."""
    reqs = [loadgen.Request(0.0, "hot", b) for b in loadgen.hot_bodies()]
    outs = loadgen.run_phase("127.0.0.1", server.port, reqs,
                             connections=procs.NPROC)
    bad = sum(1 for o in outs if not o.ok)
    return [f"{bad} warm-up requests failed"] if bad else []


def scrape(server: procs.Server) -> dict:
    status, body = server.get("/metrics")
    return procs.parse_prometheus(body.decode()) if status == 200 else {}


@dataclass
class Load:
    """What one loaded server run measured."""

    setups: list            # spawn -> first 200 from /healthz, per spawn
    phases: list            # one Phase per rate that ran
    keep: list              # bodies whose 200 responses were kept
    problems: list
    healthz_ms: list        # sequential /healthz round trips (traced runs)


def run_load(seed: int, seconds: float, run_dir: Path, *, rates=RATES,
             trace: bool = False, spawns: int = SETUP_SPAWNS) -> Load:
    """Spawn, warm and load the server."""
    cache_dir = run_dir / "serve-cache"     # per run: no state across runs
    store = run_dir / "serve-store"
    load = Load([], [], [], [], [])
    for i in range(spawns - 1):
        with procs.Server(store, cache_dir, run_dir / f"spawn-{i}") as srv:
            load.setups.append(srv.setup_s)
    phase_s = seconds / len(RATES)
    schedules = [
        loadgen.build_schedule(seed, idx, rate, phase_s)
        for idx, (_, rate) in enumerate(RATES)
    ]
    chosen = [(i, name, rate) for i, (name, rate) in enumerate(RATES)
              if (name, rate) in rates]
    load.keep = sample_bodies([schedules[i] for i, _, _ in chosen])
    if trace:
        # the traced pass replays every cell the server computes
        fresh = [r.body for i, _, _ in chosen for r in schedules[i] if r.kind != "hot"]
        load.keep += [b for b in dict.fromkeys(fresh) if b not in load.keep]
    with procs.Server(store, cache_dir, run_dir / "spawn-load") as srv:
        load.setups.append(srv.setup_s)
        load.problems += warm(srv)
        if trace:
            load.healthz_ms = healthz_probe(srv)
        for idx, name, rate in chosen:
            before = scrape(srv) if trace else {}
            outs = loadgen.run_phase("127.0.0.1", srv.port, schedules[idx],
                                     connections=procs.NPROC, keep=load.keep)
            after = scrape(srv) if trace else {}
            load.phases.append(
                Phase(name, rate, schedules[idx], outs, before, after)
            )
    return load


def healthz_probe(server: procs.Server, n: int = 50) -> list[float]:
    """Sequential ``/healthz`` round trips before the load, in ms."""
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        status, _ = server.get("/healthz")
        if status == 200:
            out.append((time.perf_counter() - t0) * 1e3)
    return out


def oracle(keep, run_dir: Path, trace: bool = False) -> dict:
    """Lone in-process solves of ``keep`` (the server's compute path)."""
    import json

    return procs.run_child(
        {"mode": "solve", "bodies": [json.loads(b) for b in keep],
         "store": str(run_dir / f"oracle-store-{int(trace)}"), "trace": trace},
        run_dir / f"oracle-{int(trace)}.json", run_dir / "serve-cache",
    )


def serve_mixed(seed: int, seconds: float, run_dir: Path) -> Load:
    load = run_load(seed, seconds, run_dir)
    load.problems += check_bodies(
        load.phases, load.keep, oracle(load.keep, run_dir)["reports"]
    )
    return load
