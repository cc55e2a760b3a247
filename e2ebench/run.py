"""End-to-end benchmark of the ``repro`` CLI and server.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload campaign-cold --seed 1 --seconds 30 --trace 0

Workloads:

* ``campaign-cold`` - ``repro campaign --workers <nproc>`` into fresh
  result stores on new grid seeds (problem cache warmed once).
* ``campaign-resume`` - the identical commands re-run against a store
  that already holds the sim grid and a wide analytic grid.
* ``serve-mixed`` - ``repro serve`` in its own process under open-loop
  Poisson load at three fixed rates.

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it runs the traced pass and reports the per-layer split
(see ``layers.py``).  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when an output
correctness check fails and 2 when the program is not there to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import campaigns
import layers
import procs
import serving
import stats

WORKLOADS = ("campaign-cold", "campaign-resume", "serve-mixed")
E2E_UNITS = {"setup_s": "s", "cells_per_s": "cells/s", "p50_ms": "ms",
             "p99_ms": "ms"}


def _say(line: str) -> None:
    print(line, flush=True)


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------
def _campaign_e2e(workload: str, tally: campaigns.Tally) -> dict:
    m = tally.metrics()
    tail = m.pop("_tail")
    attempted = tally.cells
    grid = campaigns.WIDE_GRID if workload == "campaign-resume" else campaigns.GRID
    _say(f"{workload}: {len(tally.setups)} repetitions, {attempted} cells")
    _say(f"  grid: {len(campaigns.MATRICES)} matrices x {len(campaigns.SCHEMES)} "
         f"schemes (+FF) at 24 ranks, 10 faults, young CR = 66 sim cells"
         + (f"; plus analytic {len(grid['nranks'])} rank counts x "
            f"{len(grid['fault_loads'])} fault loads = 1056 cells"
            if workload == "campaign-resume" else ""))
    _say(f"  setup_s = {m['setup_s']:.4f} s (median of {len(tally.setups)} repetitions)")
    _say(f"  cells_per_s = {m['cells_per_s']:.4f} cells/s")
    _say(f"  p50_ms = {m['p50_ms']:.4f} ms (per-repetition median, averaged)")
    _say(f"  per-cell latency pooled: {tail.describe('ms')}")
    _say(f"  failed_frac = {tally.failed / max(1, attempted):.4f} ratio "
         f"({tally.failed} of {attempted} cells)")
    return {"correct": not tally.problems, "problems": tally.problems,
            "attempted": attempted, "failed": tally.failed, "metrics": m}


def _serve_e2e(load: serving.Load) -> dict:
    verdicts = []
    all_lat = []
    attempted = failed = 0
    done = 0
    span = 0.0
    for ph in load.phases:
        lat = ph.latencies_ms
        all_lat += lat
        tail = stats.tail_stats(lat)
        late = stats.tail_stats([o.late * 1e3 for o in ph.outcomes])
        v = ph.verdict(procs.NPROC)
        verdicts.append(v)
        attempted += len(lat)
        failed += ph.failed
        done += len(lat) - ph.failed
        span += ph.span_s
        q = "n/a" if tail.q is None else f"p{100 * tail.q:.4g}"
        _say(f"  {ph.name} @ {ph.rate:g} req/s: p50_ms.{ph.name} = "
             f"{tail.p50:.4f} ms, p99_ms.{ph.name} = {tail.tail:.4f} ms "
             f"({q}, n={tail.n}); failed_frac.{ph.name} = "
             f"{ph.failed / len(lat):.4f} ratio; loadgen.late_ms_p99 = "
             f"{late.tail:.4f} ms; loadgen.backlog = {v.backlog} "
             f"(limit {v.backlog_limit}); generator "
             f"{'ok' if v.generator_ok else 'BEHIND (phase invalid)'}; "
             f"{'meets' if v.meets else 'misses'} the limit")
    tail = stats.tail_stats(all_lat)
    m = {"setup_s": stats.median(load.setups), "cells_per_s": done / span,
         "p50_ms": tail.p50, "p99_ms": tail.tail}
    _say(f"  max_rate_rps = {stats.max_rate(verdicts):g} req/s "
         f"(p99 limit {serving.LIMIT_MS:g} ms, no growing backlog)")
    _say(f"  setup_s = {m['setup_s']:.4f} s (median of {len(load.setups)} spawns)")
    _say(f"  cells_per_s = {m['cells_per_s']:.4f} cells/s (200s per second of load)")
    _say(f"  all rates: {tail.describe('ms')}")
    _say(f"  failed_frac = {failed / max(1, attempted):.4f} ratio "
         f"({failed} of {attempted} requests)")
    return {"correct": not load.problems, "problems": load.problems,
            "attempted": attempted, "failed": failed, "metrics": m}


def run_e2e(workload: str, seed: int, seconds: float, run_dir: Path) -> dict:
    cache_dir = procs.WORK / "cache"
    if workload == "campaign-cold":
        tally = campaigns.campaign_cold(seed, seconds, run_dir, cache_dir)
        return _campaign_e2e(workload, tally)
    if workload == "campaign-resume":
        tally = campaigns.campaign_resume(seed, seconds, run_dir, cache_dir)
        return _campaign_e2e(workload, tally)
    _say("serve-mixed:")
    return _serve_e2e(serving.serve_mixed(seed, seconds, run_dir))


# ----------------------------------------------------------------------
# --trace 1: the per-layer split
# ----------------------------------------------------------------------
def _span_stats(spans) -> dict[str, tuple[int, float]]:
    out: dict[str, tuple[int, float]] = {}
    for s in spans:
        n, total = out.get(s[0], (0, 0.0))
        out[s[0]] = (n + 1, total + (s[3] - s[2]))
    return out


def _pass_metrics(traced: dict, untraced: dict) -> dict:
    """Per-layer metrics of one traced in-process pass."""
    spans = traced.get("spans", [])
    counts = traced.get("counts", {})
    by = _span_stats(spans)

    def mean(name, scale):
        n, total = by.get(name, (0, 0.0))
        return total / n * scale if n else 0.0

    def total(name):
        return by.get(name, (0, 0.0))[1]

    def frac(a, b):
        return a / (a + b) if a + b else 0.0

    cells = max(1, traced["cells"])
    wall = traced["t1"] - traced["t0"]
    per_layer, residual = stats.self_times(
        [stats.Span(*s) for s in spans], traced["t0"], traced["t1"]
    )
    iters = counts.get("core.iterations", 0)
    sim_s = total("sim.ff") + total("sim.scheme")
    extra_cells = counts.get("sim.recovery_extra_cells", 0)
    m = {
        "spec.expand_ms": mean("spec.cells", 1e3),
        "store.cell_key_us": mean("store.cell_key", 1e6),
        "store.cell_key_calls_per_cell": by.get("store.cell_key", (0, 0))[0] / cells,
        "store.get_entry_ms": mean("store.get_entry", 1e3),
        "store.put_ms": mean("store.put", 1e3),
        "store.hit_frac": frac(counts.get("store.hits", 0), counts.get("store.misses", 0)),
        "store.payload_bytes_per_cell": traced.get("payload_bytes_per_cell", 0.0),
        "serialize.decode_ms": mean("serialize.decode", 1e3),
        "serialize.encode_ms": mean("serialize.encode", 1e3),
        "fleet.drain_stop_s": total("fleet.drain_stop"),
        "harness.experiment_init_ms": mean("harness.experiment_init", 1e3),
        "matrices.build_ms": mean("matrices.build", 1e3),
        "matrices.dmat_ms": mean("matrices.dmat", 1e3),
        "matrices.costs_ms": mean("matrices.costs", 1e3),
        "matrices.cache_hit_frac": frac(traced["cache_hits"], traced["cache_misses"]),
        "sim.ff_s": total("sim.ff"),
        "sim.scheme_s": total("sim.scheme"),
        "sim.recovery_extra_s": (
            counts.get("sim.recovery_extra_s", 0.0) / extra_cells if extra_cells else 0.0
        ),
        "core.iterations": iters,
        "core.us_per_iter": sim_s / iters * 1e6 if iters else 0.0,
        "core.spmv_gflop_computed": counts.get("core.spmv_flop", 0.0) / 1e9,
        "core.spmv_gb_computed": counts.get("core.spmv_bytes", 0.0) / 1e9,
        "analytic.scheme_ms": mean("analytic.scheme", 1e3),
        "analytic.ff_ms": mean("analytic.ff", 1e3),
    }
    for layer in layers.LAYERS:
        m[f"self_s.{layer}"] = per_layer.get(layer, 0.0)
    m["residual_s"] = residual
    m["trace.wall_s"] = wall
    m["trace.untraced_wall_s"] = untraced["t1"] - untraced["t0"]
    m["trace.overhead_s"] = wall - m["trace.untraced_wall_s"]
    return m


def _manifest_metrics(manifest: dict) -> dict:
    return {
        "runner.queue_wait_s": manifest["queue_wait_s"],
        "runner.busy_frac": manifest["busy_frac"],
        "runner.useful_frac": manifest["useful_frac"],
        "runner.retries": manifest["retries"],
    }


def _grown(before: dict, after: dict, metric: str, where=lambda labels: True):
    """Growth of each series of ``metric`` between two ``/metrics``
    scrapes, keyed by its labels (as a dict), filtered by ``where``."""
    out = []
    for (name, lab), value in after.items():
        labels = dict(lab)
        if name == metric and where(labels):
            out.append((labels, value - before.get((name, lab), 0.0)))
    return out


def _hist_quantile(before: dict, after: dict, name: str, endpoint: str,
                   q: float) -> float:
    """Quantile of a Prometheus histogram's growth between two scrapes,
    interpolated log-linearly inside the bucket that holds it."""
    grown = _grown(before, after, f"{name}_bucket",
                   lambda labels: labels.get("endpoint") == endpoint)
    cumulative = sorted((float(labels["le"]), n) for labels, n in grown)
    if not cumulative or cumulative[-1][1] <= 0:
        return 0.0
    target = q * cumulative[-1][1]
    lo, prev = 0.0, 0.0
    for bound, cum in cumulative:
        if cum >= target:
            if bound == float("inf"):
                return lo
            frac = (target - prev) / (cum - prev) if cum > prev else 1.0
            return bound * frac if lo <= 0 else lo * (bound / lo) ** frac
        lo, prev = bound, cum
    return lo


def _serve_layer_metrics(load: serving.Load) -> dict:
    ph = load.phases[0]

    def total(metric, where=lambda labels: True):
        return sum(n for _, n in _grown(ph.metrics_before, ph.metrics_after,
                                        metric, where))

    m = {}
    sources = {s: total("serve_solve_total", lambda labels, s=s: labels.get("source") == s)
               for s in ("lru", "store", "computed", "coalesced")}
    n_solve = sum(sources.values())
    for s, v in sources.items():
        m[f"serve.source_frac.{s}"] = v / n_solve if n_solve else 0.0
    batches = total("serve_batch_size_count")
    m["serve.batch_size_mean"] = total("serve_batch_size_sum") / batches if batches else 0.0
    server_p50 = _hist_quantile(ph.metrics_before, ph.metrics_after,
                                "serve_request_latency_s", "/v1/solve", 0.5) * 1e3
    m["serve.server_p50_ms"] = server_p50
    m["serve.outside_ms"] = stats.tail_stats(ph.latencies_ms).p50 - server_p50
    m["serve.errors"] = total("serve_errors_total") + total(
        "serve_requests_total",
        lambda labels: not labels.get("status", "").startswith("2"),
    )
    m["http.healthz_p50_ms"] = stats.median(load.healthz_ms)
    m["loadgen.late_ms_p99"] = stats.tail_stats([o.late * 1e3 for o in ph.outcomes]).tail
    m["loadgen.backlog"] = ph.verdict(procs.NPROC).backlog
    return m


def run_traced(workload: str, seed: int, seconds: float, run_dir: Path) -> dict:
    cache_dir = procs.WORK / "cache"
    metrics = {name: 0.0 for name, *_ in layers.ROWS}
    imp = procs.time_import("import repro.cli", cache_dir)
    floor = procs.time_import("import numpy, scipy.sparse", cache_dir)
    metrics["startup.import_s"] = stats.median(imp)
    metrics["startup.import_floor_s"] = stats.median(floor)
    if workload in ("campaign-cold", "campaign-resume"):
        fn = (campaigns.campaign_cold_traced if workload == "campaign-cold"
              else campaigns.campaign_resume_traced)
        out = fn(seed, run_dir, cache_dir)
        metrics.update(_pass_metrics(out["traced"], out["untraced"]))
        metrics.update(_manifest_metrics(out["manifest"]))
        problems = out["problems"]
        attempted, failed = out["attempted"], out["failed"]
    else:
        nominal = [r for r in serving.RATES if r[0] == "nominal"]
        load = serving.run_load(seed, seconds, run_dir, rates=nominal,
                                trace=True, spawns=1)
        passes = {t: serving.oracle(load.keep, run_dir, trace=t) for t in (False, True)}
        problems = load.problems + serving.check_bodies(
            load.phases, load.keep, passes[True]["reports"]
        )
        metrics.update(_pass_metrics(passes[True], passes[False]))
        metrics.update(_serve_layer_metrics(load))
        attempted, failed = len(load.phases[0].outcomes), load.phases[0].failed
    metrics["failed_frac"] = failed / max(1, attempted)
    reconciled = sum(metrics[f"self_s.{la}"] for la in layers.LAYERS) + metrics["residual_s"]
    _say(f"{workload} traced pass (per-layer metric, unit, should move, on):")
    for name, unit, _, target, where in layers.ROWS:
        _say(f"  {name} = {metrics[name]:.6g} {unit}   -> {target} [{where}]")
    _say(f"  reconciliation: sum(self_s.*) + residual_s = {reconciled:.6f} s; "
         f"trace.wall_s = {metrics['trace.wall_s']:.6f} s")
    if abs(reconciled - metrics["trace.wall_s"]) > 1e-6 * max(1.0, metrics["trace.wall_s"]):
        problems.append("layer self times do not reconcile to the traced wall")
    return {"correct": not problems, "problems": problems,
            "attempted": attempted, "failed": failed, "metrics": metrics}


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (procs.ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program to benchmark under {procs.ROOT / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    run_dir = procs.WORK / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = run_traced(args.workload, args.seed, args.seconds, run_dir)
            units = layers.UNITS
        else:
            result = run_e2e(args.workload, args.seed, args.seconds, run_dir)
            units = E2E_UNITS
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in result["problems"]:
        _say(f"CORRECTNESS FAILURE: {problem}")
    doc = {
        "correct": result["correct"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {k: {"value": float(result["metrics"][k]), "unit": u}
                    for k, u in units.items()},
    }
    print(json.dumps(doc), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
