"""In-process passes that run in a fresh interpreter.

``python e2ebench/child.py JOB.json`` reads one job, runs it inside the
program's own process (so the wrappers below can see every call) and
writes ``JOB.json.out``.  Jobs:

* ``campaign`` - ``run_campaign`` over a spec into a store.  The serial
  campaign-cold pass is the reference the parallel CLI run must equal
  byte for byte; the campaign-resume pass replays the cached grid.
* ``solve`` - the server's compute path for a list of ``/v1/solve``
  bodies: store miss, a lone ``Experiment(config).run(scheme)``, store
  write.  Its reports are the oracle for the server's 200 bodies.
* ``manifest`` - the latest persisted ``RunManifest`` of a store.

With ``"trace": true`` the public entry point of each layer is wrapped
in a span (name, layer, start, end, parent, cell id).  Spans stay in
memory and are written once, with the job's output, at the end.  The
program itself is not modified: the wrappers replace module and class
attributes in this process only.
"""

from __future__ import annotations

import json
import sys
import threading
import time


class Recorder:
    """Spans and counts of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack = threading.local()

    def _parents(self) -> list[int]:
        stack = getattr(self._stack, "ids", None)
        if stack is None:
            stack = self._stack.ids = []
        return stack

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn, name: str, layer: str, on_result=None):
        from repro.campaign.spec import CampaignCell

        spans = self.spans

        def traced(*args, **kwargs):
            parents = self._parents()
            parent = parents[-1] if parents else None
            ident = next(
                (a.label for a in args if isinstance(a, CampaignCell)),
                spans[parent][5] if parent is not None else "",
            )
            idx = len(spans)
            spans.append([name, layer, time.perf_counter(), None, parent, ident])
            parents.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][3] = time.perf_counter()
                parents.pop()
            if on_result is not None:
                on_result(args, result, spans[idx][3] - spans[idx][2])
            return result

        traced.__wrapped__ = fn
        return traced


def _rebind(original, replacement) -> None:
    """Point every loaded ``repro`` module attribute bound to
    ``original`` (``from x import f`` copies included) at
    ``replacement``."""
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("repro") or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(rec: Recorder) -> None:
    """Wrap the public entry point of each layer the benchmark reports."""
    import repro.cli  # noqa: F401  (load every module the CLI path binds)
    import repro.serve  # noqa: F401
    from repro.campaign import fleet, runner, serialize, spec, store
    from repro.engines.analytic import AnalyticEngine
    from repro.engines.sim import SimEngine
    from repro.harness.experiment import Experiment
    from repro.matrices import cache, suite

    def patch_fn(module, attr, layer, name=None, on_result=None):
        original = getattr(module, attr)
        _rebind(original, rec.wrap(original, name or attr, layer, on_result))

    def patch_method(cls, attr, layer, name, on_result=None):
        setattr(cls, attr, rec.wrap(getattr(cls, attr), name, layer, on_result))

    def on_get_entry(args, entry, dt):
        rec.count("store.hits" if entry is not None else "store.misses")

    ff_wall: dict = {}

    def on_sim_ff(args, report, dt):
        experiment = args[1]
        ff_wall[experiment.config] = dt
        _solve_counts(experiment, report)

    def on_sim_scheme(args, report, dt):
        experiment = args[1]
        _solve_counts(experiment, report)
        if experiment.config in ff_wall:
            rec.count("sim.recovery_extra_s", dt - ff_wall[experiment.config])
            rec.count("sim.recovery_extra_cells")

    def _solve_counts(experiment, report):
        n = experiment.a.shape[0]
        nnz = experiment.a.nnz
        it = report.iterations
        rec.count("core.iterations", it)
        rec.count("core.spmv_flop", 2.0 * nnz * it)
        # CSR SpMV traffic: values + column indices + row pointers,
        # one read of x and one write of y per product
        rec.count("core.spmv_bytes", it * (12.0 * nnz + 4.0 * (n + 1) + 16.0 * n))

    patch_method(spec.CampaignSpec, "cells", "spec", "spec.cells")
    patch_fn(store, "cell_key", "store", "store.cell_key")
    patch_method(store.ResultStore, "get_entry", "store", "store.get_entry",
                 on_get_entry)
    patch_method(store.ResultStore, "put", "store", "store.put")
    patch_fn(serialize, "report_from_dict", "serialize", "serialize.decode")
    patch_fn(serialize, "report_to_dict", "serialize", "serialize.encode")
    patch_method(runner.CampaignRunner, "run", "runner", "runner.run")
    patch_fn(runner, "execute_cell", "runner", "runner.execute_cell")
    patch_method(fleet.ChannelDrainer, "stop", "fleet", "fleet.drain_stop")
    patch_method(Experiment, "__init__", "harness", "harness.experiment_init")
    patch_fn(suite, "build", "matrices", "matrices.build")
    patch_fn(cache, "distributed_matrix", "matrices", "matrices.dmat")
    patch_fn(cache, "iteration_costs", "matrices", "matrices.costs")
    patch_method(SimEngine, "solve_fault_free", "sim", "sim.ff", on_sim_ff)
    patch_method(SimEngine, "solve_scheme", "sim", "sim.scheme", on_sim_scheme)
    patch_method(AnalyticEngine, "solve_fault_free", "analytic", "analytic.ff")
    patch_method(AnalyticEngine, "solve_scheme", "analytic", "analytic.scheme")


def _cache_totals() -> tuple[int, int]:
    from repro.matrices.cache import cache_stats

    stats = cache_stats().values()
    return sum(s["hits"] for s in stats), sum(s["misses"] for s in stats)


def run_campaign_job(job: dict) -> dict:
    from repro.campaign import CampaignSpec, ResultStore, run_campaign
    from repro.campaign import runner as runner_mod

    spec = CampaignSpec(**job["spec"])
    with ResultStore(job["store"]) as store:
        t0 = time.perf_counter()
        result = run_campaign(
            spec,
            store=store,
            max_workers=job["workers"],
            worker=runner_mod.execute_cell,
            heartbeat_interval_s=0.0,
        )
        t1 = time.perf_counter()
        payload_bytes = store.payload_bytes()
        entries = len(store)
    return {
        "t0": t0,
        "t1": t1,
        "cells": len(result.results),
        "ran": result.n_ran,
        "cached": result.n_cached,
        "failed": result.n_failed,
        "payload_bytes_per_cell": payload_bytes / max(1, entries),
    }


def run_solve_job(job: dict) -> dict:
    from repro.campaign import ResultStore
    from repro.campaign.serialize import report_to_dict
    from repro.harness.experiment import Experiment
    from repro.serve.app import parse_solve_request

    reports = []
    with ResultStore(job["store"]) as store:
        t0 = time.perf_counter()
        for body in job["bodies"]:
            cell = parse_solve_request(body)
            report = store.get(cell)
            if report is None:
                report = Experiment(cell.config).run(cell.scheme)
                store.put(cell, report)
            reports.append(
                json.dumps(report_to_dict(report), sort_keys=True)
            )
        t1 = time.perf_counter()
        payload_bytes = store.payload_bytes()
        entries = len(store)
    return {
        "t0": t0,
        "t1": t1,
        "cells": len(reports),
        "reports": reports,
        "payload_bytes_per_cell": payload_bytes / max(1, entries),
    }


def run_manifest_job(job: dict) -> dict:
    from repro.campaign import ResultStore

    with ResultStore(job["store"]) as store:
        m = store.latest_manifest()
    ok = [c for c in m.cells if c.status == "ran"]
    compute = sum(c.compute_s for c in ok)
    wasted = sum(c.wasted_s for c in m.cells)
    busy = sum(w.busy_s for w in m.worker_rows)
    return {
        "queue_wait_s": sum(c.queue_wait_s for c in m.cells) / max(1, len(m.cells)),
        "busy_frac": busy / (m.workers * m.wall_s) if m.wall_s > 0 else 0.0,
        "useful_frac": compute / (compute + wasted) if compute + wasted > 0 else 1.0,
        "retries": m.retries,
    }


JOBS = {
    "campaign": run_campaign_job,
    "solve": run_solve_job,
    "manifest": run_manifest_job,
}


def main(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        job = json.load(fh)
    rec = None
    if job.get("trace"):
        rec = Recorder()
        install(rec)
    hits0, misses0 = _cache_totals() if job["mode"] != "manifest" else (0, 0)
    out = JOBS[job["mode"]](job)
    if job["mode"] != "manifest":
        hits1, misses1 = _cache_totals()
        out["cache_hits"] = hits1 - hits0
        out["cache_misses"] = misses1 - misses0
    if rec is not None:
        out["spans"] = rec.spans
        out["counts"] = rec.counts
    with open(path + ".out", "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
