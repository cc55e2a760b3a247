"""Open-loop load generation for ``repro serve``.

The traffic is a pure function of the workload seed: arrival times,
request kinds and request bodies come from ``random.Random`` seeded
with a string, so the same seed sends byte-identical traffic.  The
client is one asyncio loop in the benchmark's own process, over at most
``connections`` keep-alive connections; the server runs in another
process, so the two never share an interpreter lock.

Requests are timed from when they were *due*, not when a connection
became free, so a stall shows in the latency of every request queued
behind it.  The generator's own lateness (dispatch time minus due time)
is recorded separately to tell a slow server from a slow client.
"""

from __future__ import annotations

import asyncio
import json
import random
import threading
import time
from dataclasses import dataclass

#: The warmed key set: analytic cells over mid-size matrices of the
#: suite, every cost-study scheme plus ESR and the FF baseline.  264
#: keys against the server's default 256-entry LRU, so the popular head
#: is served from the LRU and the tail partly from the result store.
HOT_MATRICES = ("Kuu", "bcsstk16", "ex15", "wathen100", "Andrews", "stencil5")
HOT_RANKS = (8, 16, 24, 32)
HOT_SCHEMES = (
    "FF", "RD", "F0", "FI", "LI", "LSI", "CR-D", "LI-DVFS", "LSI-DVFS",
    "CR-M", "ESR",
)
#: Zipf exponent of key popularity over the hot set.
ZIPF_S = 1.1

#: Fresh analytic cells: new seeds (so new horizon probes) on one
#: matrix, micro-batched and written to the store.
FRESH_ANALYTIC = {"matrix": "Kuu", "nranks": 16, "n_faults": 10,
                  "cr_interval": "young"}
FRESH_ANALYTIC_SCHEMES = ("LI", "LSI", "CR-D", "RD")
#: Fresh simulated cells: CPU-bound solves in the server's thread pool,
#: homogeneous in cost so the tail they form is steady across seeds.
FRESH_SIM = {"matrix": "wathen100", "nranks": 8, "n_faults": 2,
             "engine": "sim", "scheme": "LI"}

#: Shares of each phase's requests (exact counts, stratified positions).
ANALYTIC_SHARE = 0.05
SIM_SHARE = 0.02


def _body(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def hot_bodies() -> list[bytes]:
    """The warmed key set, in a fixed order."""
    return [
        _body({"matrix": m, "nranks": r, "n_faults": 10,
               "cr_interval": "young", "scheme": s})
        for m in HOT_MATRICES
        for r in HOT_RANKS
        for s in HOT_SCHEMES
    ]


@dataclass(frozen=True)
class Request:
    due: float      # seconds after the phase start
    kind: str       # "hot" | "analytic" | "sim"
    body: bytes


def _stratify(kinds: list, kind: str, count: int, rng) -> None:
    """Place ``count`` requests of ``kind`` one per equal stratum of the
    sequence, at a seeded spot in each: the share is exact and heavy
    requests never bunch up more than the strata allow."""
    n = len(kinds)
    for k in range(count):
        lo, hi = k * n // count, (k + 1) * n // count
        free = [i for i in range(lo, hi) if kinds[i] == "hot"]
        kinds[rng.choice(free)] = kind


def build_schedule(seed: int, phase: int, rate: float, duration_s: float):
    """Poisson arrivals at ``rate`` over ``duration_s`` with the mix above."""
    rng = random.Random(f"serve-mixed:{seed}:{phase}")
    dues = []
    t = rng.expovariate(rate)
    while t < duration_s:
        dues.append(t)
        t += rng.expovariate(rate)
    n = len(dues)
    kinds = ["hot"] * n
    _stratify(kinds, "sim", round(n * SIM_SHARE), rng)
    _stratify(kinds, "analytic", round(n * ANALYTIC_SHARE), rng)
    hot = hot_bodies()
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(hot))]
    # fresh seeds never collide with the hot set (seed 0) or between
    # phases and runs of different workload seeds
    fresh = (seed % 100_000) * 1_000_000 + phase * 100_000 + 1
    out = []
    for due, kind in zip(dues, kinds):
        if kind == "hot":
            body = rng.choices(hot, weights)[0]
        elif kind == "analytic":
            body = _body({**FRESH_ANALYTIC, "seed": fresh,
                          "scheme": rng.choice(FRESH_ANALYTIC_SCHEMES)})
            fresh += 1
        else:
            body = _body({**FRESH_SIM, "seed": fresh})
            fresh += 1
        out.append(Request(due, kind, body))
    return out


# ----------------------------------------------------------------------
# the client
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    due: float = 0.0        # absolute perf_counter time the request was due
    late: float = 0.0       # dispatch time minus due time
    done: float = 0.0       # absolute completion time
    status: int | None = None
    source: str = ""        # the server's cache tier ("lru", "store", ...)
    report: str | None = None   # canonical report JSON, when kept

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency(self) -> float:
        return self.done - self.due


async def _read_response(reader) -> tuple[int, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    return status, await reader.readexactly(length)


def _request_bytes(method: str, path: str, body: bytes = b"") -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode() + body


async def _drive(host, port, schedule, connections, timeout_s, keep):
    loop = asyncio.get_running_loop()
    loop_start = time.perf_counter() + 0.05
    outcomes = [Outcome() for _ in schedule]
    queue: asyncio.Queue = asyncio.Queue()

    def release(i: int) -> None:
        # runs on the loop: lateness covers the timer and a busy loop
        outcomes[i].late = time.perf_counter() - outcomes[i].due
        queue.put_nowait(i)

    def dispatcher() -> None:
        # a thread, because time.sleep wakes within microseconds where
        # the event loop's epoll timeout rounds up to whole milliseconds
        for i, req in enumerate(schedule):
            due = loop_start + req.due
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            outcomes[i].due = due
            loop.call_soon_threadsafe(release, i)
        for _ in range(connections):
            loop.call_soon_threadsafe(queue.put_nowait, None)

    async def connection():
        reader = writer = None
        while True:
            i = await queue.get()
            if i is None:
                break
            req, out = schedule[i], outcomes[i]
            try:
                if writer is None:
                    reader, writer = await asyncio.wait_for(
                        asyncio.open_connection(host, port), timeout_s
                    )
                writer.write(_request_bytes("POST", "/v1/solve", req.body))
                status, payload = await asyncio.wait_for(
                    _read_response(reader), timeout_s
                )
                out.status = status
                if status == 200:
                    doc = json.loads(payload)
                    out.source = doc.get("cache", "")
                    if req.body in keep:
                        out.report = json.dumps(doc["report"], sort_keys=True)
            except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError,
                    ValueError, KeyError):
                out.status = None
                if writer is not None:
                    writer.close()
                reader = writer = None
            out.done = time.perf_counter()
        if writer is not None:
            writer.close()

    thread = threading.Thread(target=dispatcher, name="e2ebench-dispatch")
    thread.start()
    try:
        await asyncio.gather(*(connection() for _ in range(connections)))
    finally:
        thread.join()
    return outcomes


def run_phase(host, port, schedule, *, connections, timeout_s=30.0, keep=()):
    """Send ``schedule`` open-loop; one :class:`Outcome` per request."""
    return asyncio.run(
        _drive(host, port, schedule, connections, timeout_s, frozenset(keep))
    )


def backlog_at_end(outcomes) -> int:
    """Requests due but unfinished at the instant the last one was due."""
    last_due = max(o.due for o in outcomes)
    return sum(1 for o in outcomes if o.done > last_due)
