"""The two campaign workloads, driven through ``python -m repro.cli``.

Both run the cost-study protocol (24 ranks, 10 faults, Young-interval
checkpoint/restart) with the iteration- and cost-study schemes plus ESR
over a mid-size slice of the suite covering its banded (Kuu, bcsstk16,
wathen100), irregular (ex15, Andrews) and stencil (stencil5) classes.
x104 and nd24k are left out: scipy's ``csr_matvec`` dominates their
cells and would hide every layer the repository owns.
"""

from __future__ import annotations

import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import procs
import stats

MATRICES = ("Kuu", "bcsstk16", "wathen100", "ex15", "Andrews", "stencil5")
SCHEMES = ("RD", "F0", "FI", "LI", "LSI", "CR-D", "LI-DVFS", "LSI-DVFS",
           "CR-M", "ESR")
GRID = {"matrices": MATRICES, "schemes": SCHEMES, "nranks": (24,),
        "fault_loads": (10,), "cr_interval": "young"}
#: The wide analytic grid stored beside the sim grid for campaign-resume:
#: cheap to fill, ~1.5 kB payloads, 1056 cells.
WIDE_GRID = {**GRID, "nranks": (8, 16, 24, 32), "fault_loads": (2, 5, 10, 20),
             "engines": ("analytic",)}

#: Grid seed of the warm-up campaign that fills the problem cache.
WARM_SEED = 0


def cli_args(grid: dict, seed: int, store: Path) -> list[str]:
    args = ["--matrices", *grid["matrices"], "--schemes", *grid["schemes"],
            "--ranks", *map(str, grid["nranks"]),
            "--faults", *map(str, grid["fault_loads"]),
            "--cr-interval", grid["cr_interval"], "--seeds", str(seed),
            "--workers", str(procs.NPROC), "--store", str(store)]
    if "engines" in grid:
        args += ["--engine", *grid["engines"]]
    return args


def spec_kwargs(grid: dict, seed: int) -> dict:
    return {**grid, "seeds": (seed,)}


def grid_seeds(workload: str, seed: int, count: int) -> list[int]:
    """Distinct grid seeds for ``count`` repetitions, from the workload seed."""
    rng = random.Random(f"{workload}:{seed}")
    out: list[int] = []
    while len(out) < count:
        s = rng.randrange(1, 1_000_000)
        if s not in out and s != WARM_SEED:
            out.append(s)
    return out


def warm_problem_cache(cache_dir: Path, scratch: Path) -> None:
    """Fill the on-disk problem cache once per checkout (untimed), as it
    is for a user sweeping new seeds over the paper's matrices."""
    marker = cache_dir / "e2ebench-warm"
    if marker.exists():
        return
    run = procs.run_cli_campaign(
        cli_args(GRID, WARM_SEED, scratch / "warm-store"), cache_dir,
        scratch / "warm.out",
    )
    if run.returncode != 0:
        raise RuntimeError("warm-up campaign failed:\n" + run.stdout[-2000:])
    marker.write_text("warm\n")


@dataclass
class Tally:
    """What the campaign repetitions of one run measured.

    This machine's speed comes and goes in episodes of a few seconds, so
    statistics that pool or average over repetitions are used where a
    median across repetitions would jump between a fast and a slow mode.
    """

    setups: list = field(default_factory=list)      # one per repetition
    rep_p50_ms: list = field(default_factory=list)  # one per repetition
    cells: int = 0
    busy_s: float = 0.0                             # sum of wall - set-up
    failed: int = 0
    cell_ms: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def add(self, runs, cell_ms) -> None:
        """Fold in one repetition: the CLI runs it made and their
        per-cell latencies.  Its set-up is the runs' mean set-up."""
        for run in runs:
            n, ran, cached, failed = run.summary()
            self.cells += n
            self.busy_s += run.wall_s - run.setup_s
            self.failed += failed
            if run.returncode != 0:
                self.problems.append(f"CLI exited {run.returncode}")
        self.setups.append(sum(r.setup_s for r in runs) / len(runs))
        if cell_ms:
            self.rep_p50_ms.append(stats.median(cell_ms))
        self.cell_ms.extend(cell_ms)

    def metrics(self) -> dict:
        if not self.cell_ms:
            # only a broken run gets here; report it instead of crashing
            self.problems.append("the CLI emitted no per-cell latency events")
        tail = stats.tail_stats(self.cell_ms or [0.0])
        p50s = self.rep_p50_ms or [0.0]
        return {
            "setup_s": stats.median(self.setups),
            "cells_per_s": self.cells / self.busy_s,
            "p50_ms": sum(p50s) / len(p50s),
            "p99_ms": tail.tail,
            "_tail": tail,
        }


def finished_cell_ms(run: procs.CliRun) -> list[float]:
    """Per-cell compute latency from the CLI's ``finished`` events."""
    return [
        doc["elapsed_s"] * 1e3
        for doc in run.events
        if doc["event"] == "finished" and "elapsed_s" in doc
    ]


def cached_cell_ms(run: procs.CliRun) -> list[float]:
    """Per-cell service time of a cached replay: the gaps between the
    timestamps the CLI put on successive ``cached`` events."""
    times = [doc["ts"] for doc in run.events if doc["event"] == "cached"]
    return [(b - a) * 1e3 for a, b in zip(times, times[1:])]


def _compare_stores(a: Path, b: Path) -> list[str]:
    """Byte-compare every stored payload of two result stores."""
    pa = {p.name: p for p in (a / "payloads").rglob("*.json")}
    pb = {p.name: p for p in (b / "payloads").rglob("*.json")}
    problems = []
    if set(pa) != set(pb):
        problems.append(f"stores hold different cells ({len(pa)} vs {len(pb)})")
    for name in sorted(set(pa) & set(pb)):
        if pa[name].read_bytes() != pb[name].read_bytes():
            problems.append(f"stored payload {name} differs serial vs parallel")
    return problems


# ----------------------------------------------------------------------
# campaign-cold
# ----------------------------------------------------------------------
def campaign_cold(seed: int, seconds: float, run_dir: Path, cache_dir: Path):
    """Fresh-store campaigns on new grid seeds until ``seconds`` elapse."""
    warm_problem_cache(cache_dir, run_dir)
    tally = Tally()
    seeds = grid_seeds("campaign-cold", seed, 64)
    t0 = time.perf_counter()
    first_store = None
    for rep, grid_seed in enumerate(seeds):
        if rep >= 2 and time.perf_counter() - t0 >= seconds:
            break
        store = run_dir / f"cold-{rep}"
        run = procs.run_cli_campaign(
            cli_args(GRID, grid_seed, store), cache_dir, run_dir / f"cold-{rep}.out"
        )
        tally.add([run], finished_cell_ms(run))
        _, ran, cached, failed = run.summary()
        if cached:
            tally.problems.append(f"cold run served {cached} cells from cache")
        if first_store is None:
            first_store = (store, grid_seed)
        else:
            shutil.rmtree(store, ignore_errors=True)
    # correctness: the first rep's store equals a serial in-process run
    store, grid_seed = first_store
    ref = run_dir / "cold-serial"
    out = procs.run_child(
        {"mode": "campaign", "spec": spec_kwargs(GRID, grid_seed),
         "store": str(ref), "workers": 1, "trace": False},
        run_dir / "cold-serial.json", cache_dir,
    )
    if out["failed"]:
        tally.problems.append(f"serial reference failed {out['failed']} cells")
    tally.problems += _compare_stores(store, ref)
    return tally


def campaign_cold_traced(seed: int, run_dir: Path, cache_dir: Path) -> dict:
    """Per-layer split of campaign-cold: the parallel CLI run once, then
    the same grid serially in-process, untraced and traced.  Each pass
    ends with a cached replay of its grid at ``max_workers=NPROC``, so
    store hits, payload decoding and the fleet drainer's shutdown are
    measured on this workload too."""
    warm_problem_cache(cache_dir, run_dir)
    grid_seed = grid_seeds("campaign-cold", seed, 1)[0]
    store = run_dir / "cold-cli"
    cli = procs.run_cli_campaign(
        cli_args(GRID, grid_seed, store), cache_dir, run_dir / "cold-cli.out"
    )
    manifest = procs.run_child(
        {"mode": "manifest", "store": str(store)}, run_dir / "m.json", cache_dir
    )
    passes = {}
    problems = []
    for traced in (False, True):
        ref = run_dir / f"cold-serial-{int(traced)}"
        out = _empty_pass()
        for step, workers in (("serial", 1), ("replay", procs.NPROC)):
            _merge_pass(out, procs.run_child(
                {"mode": "campaign", "spec": spec_kwargs(GRID, grid_seed),
                 "store": str(ref), "workers": workers, "trace": traced},
                run_dir / f"cold-{step}-{int(traced)}.json", cache_dir,
            ))
        if out["ran"] != len(GRID["matrices"]) * (len(GRID["schemes"]) + 1):
            problems.append(f"in-process pass ran {out['ran']} cells")
        passes[traced] = out
    problems += _compare_stores(store, run_dir / "cold-serial-1")
    cells, _, _, failed = cli.summary()
    return {"manifest": manifest, "untraced": passes[False],
            "traced": passes[True], "problems": problems,
            "attempted": cells, "failed": failed}


# ----------------------------------------------------------------------
# campaign-resume
# ----------------------------------------------------------------------
def _fill(seed: int, run_dir: Path, cache_dir: Path):
    """Fill one store with the cold grid and the wide analytic grid
    (untimed); returns the store, grid seed and reference tables."""
    warm_problem_cache(cache_dir, run_dir)
    grid_seed = grid_seeds("campaign-resume", seed, 1)[0]
    store = run_dir / "resume-store"
    tables = {}
    for name, grid in (("sim", GRID), ("analytic", WIDE_GRID)):
        run = procs.run_cli_campaign(
            cli_args(grid, grid_seed, store), cache_dir, run_dir / f"fill-{name}.out"
        )
        if run.returncode != 0:
            raise RuntimeError(f"filling the {name} grid failed")
        tables[name] = run.normalized_tables()
    return store, grid_seed, tables


def _check_resumed(run: procs.CliRun, table: str, problems: list) -> None:
    cells, ran, cached, failed = run.summary()
    if ran or failed or cached != cells:
        problems.append(f"resume ran {ran}, failed {failed} of {cells} cells")
    if run.normalized_tables() != table:
        problems.append("resumed normalized table differs from the cold run's")


def campaign_resume(seed: int, seconds: float, run_dir: Path, cache_dir: Path):
    """Re-run the identical commands against the complete store."""
    store, grid_seed, tables = _fill(seed, run_dir, cache_dir)
    tally = Tally()
    t0 = time.perf_counter()
    while len(tally.setups) < 2 or time.perf_counter() - t0 < seconds:
        runs, gaps = [], []
        for name, grid in (("sim", GRID), ("analytic", WIDE_GRID)):
            run = procs.run_cli_campaign(
                cli_args(grid, grid_seed, store), cache_dir,
                run_dir / f"resume-{name}.out",
            )
            _check_resumed(run, tables[name], tally.problems)
            runs.append(run)
            gaps += cached_cell_ms(run)
        tally.add(runs, gaps)
    return tally


def campaign_resume_traced(seed: int, run_dir: Path, cache_dir: Path) -> dict:
    """Per-layer split of campaign-resume: the CLI replay once, then the
    same cached grids in-process (``max_workers=NPROC``, so the fleet
    drainer runs), untraced and traced."""
    store, grid_seed, tables = _fill(seed, run_dir, cache_dir)
    problems: list = []
    attempted = failed = 0
    for name, grid in (("sim", GRID), ("analytic", WIDE_GRID)):
        run = procs.run_cli_campaign(
            cli_args(grid, grid_seed, store), cache_dir, run_dir / f"resume-{name}.out"
        )
        _check_resumed(run, tables[name], problems)
        cells, _, _, f = run.summary()
        attempted += cells
        failed += f
    manifest = procs.run_child(
        {"mode": "manifest", "store": str(store)}, run_dir / "m.json", cache_dir
    )
    passes = {}
    for traced in (False, True):
        out = _empty_pass()
        for name, grid in (("sim", GRID), ("analytic", WIDE_GRID)):
            part = procs.run_child(
                {"mode": "campaign", "spec": spec_kwargs(grid, grid_seed),
                 "store": str(store), "workers": procs.NPROC, "trace": traced},
                run_dir / f"resume-{name}-{int(traced)}.json", cache_dir,
            )
            _merge_pass(out, part)
        if out["ran"]:
            problems.append(f"in-process resume recomputed {out['ran']} cells")
        passes[traced] = out
    return {"manifest": manifest, "untraced": passes[False],
            "traced": passes[True], "problems": problems,
            "attempted": attempted, "failed": failed}


def _empty_pass() -> dict:
    return {"t0": 0.0, "t1": 0.0, "spans": [], "counts": {}, "cells": 0,
            "cache_hits": 0, "cache_misses": 0, "failed": 0, "ran": 0}


def _merge_pass(acc: dict, part: dict) -> None:
    """Concatenate two in-process passes on one timeline (the second's
    spans shifted to start where the first ended)."""
    shift = acc["t1"] - part["t0"]
    base = len(acc["spans"])
    for s in part.get("spans", []):
        parent = None if s[4] is None else s[4] + base
        acc["spans"].append([s[0], s[1], s[2] + shift, s[3] + shift, parent, s[5]])
    for k, v in part.get("counts", {}).items():
        acc["counts"][k] = acc["counts"].get(k, 0) + v
    acc["t1"] = acc["t1"] + (part["t1"] - part["t0"])
    for k in ("cells", "cache_hits", "cache_misses", "failed", "ran"):
        acc[k] += part.get(k, 0)
    acc["payload_bytes_per_cell"] = part["payload_bytes_per_cell"]

