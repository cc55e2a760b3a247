"""The per-layer metrics of the traced pass and what each should move.

Each row: (metric, unit, better, end-to-end metric it should move,
workload it shows on).  The traced pass reports every row on every
workload; a layer the workload does not exercise reports 0.

Conventions: ``*_ms``/``*_us`` of a wrapped call are its mean inclusive
duration per call; ``*_s`` of a wrapped call are totals over the pass;
``self_s.<layer>`` is the layer's self time (its spans minus their
children), and the self times plus ``residual_s`` add up to
``trace.wall_s``.
"""

from __future__ import annotations

LAYERS = ("runner", "spec", "store", "serialize", "fleet", "harness",
          "matrices", "sim", "analytic")

ROWS = [
    ("startup.import_s", "s", "lower", "setup_s", "all, most on campaign-resume"),
    ("startup.import_floor_s", "s", "lower", "setup_s", "all (numpy + scipy.sparse alone)"),
    ("spec.expand_ms", "ms", "lower", "setup_s", "campaign-resume"),
    ("store.cell_key_us", "us", "lower", "cells_per_s; p50_ms", "campaign-resume; serve-mixed"),
    ("store.cell_key_calls_per_cell", "count", "lower", "cells_per_s; p50_ms", "campaign-resume; serve-mixed"),
    ("store.get_entry_ms", "ms", "lower", "cells_per_s; p50_ms", "campaign-resume; serve-mixed"),
    ("store.put_ms", "ms", "lower", "cells_per_s; p50_ms", "campaign-cold; serve-mixed"),
    ("store.hit_frac", "ratio", "higher", "cells_per_s; p50_ms", "campaign-resume"),
    ("store.payload_bytes_per_cell", "bytes", "lower", "cells_per_s; p50_ms", "campaign-resume; serve-mixed"),
    ("serialize.decode_ms", "ms", "lower", "cells_per_s; p99_ms", "campaign-resume; serve-mixed"),
    ("serialize.encode_ms", "ms", "lower", "cells_per_s; p99_ms", "campaign-resume; serve-mixed"),
    ("runner.queue_wait_s", "s", "lower", "cells_per_s; failed_frac", "campaign-cold"),
    ("runner.busy_frac", "ratio", "higher", "cells_per_s; failed_frac", "campaign-cold"),
    ("runner.useful_frac", "ratio", "higher", "cells_per_s; failed_frac", "campaign-cold"),
    ("runner.retries", "count", "lower", "cells_per_s; failed_frac", "campaign-cold"),
    ("fleet.drain_stop_s", "s", "lower", "cells_per_s", "campaign-resume; campaign-cold (cached replay)"),
    ("harness.experiment_init_ms", "ms", "lower", "cells_per_s", "campaign-cold"),
    ("matrices.build_ms", "ms", "lower", "cells_per_s; p99_ms", "campaign-cold; serve-mixed"),
    ("matrices.dmat_ms", "ms", "lower", "cells_per_s; p99_ms", "campaign-cold; serve-mixed"),
    ("matrices.costs_ms", "ms", "lower", "cells_per_s; p99_ms", "campaign-cold; serve-mixed"),
    ("matrices.cache_hit_frac", "ratio", "higher", "cells_per_s; p99_ms", "campaign-cold; serve-mixed"),
    ("sim.ff_s", "s", "lower", "cells_per_s", "campaign-cold"),
    ("sim.scheme_s", "s", "lower", "cells_per_s", "campaign-cold"),
    ("sim.recovery_extra_s", "s", "lower", "cells_per_s", "campaign-cold"),
    ("core.iterations", "count", "lower", "cells_per_s (any change means the numerics changed)", "campaign-cold"),
    ("core.us_per_iter", "us", "lower", "cells_per_s", "campaign-cold"),
    ("core.spmv_gflop_computed", "GFLOP", "lower", "cells_per_s", "campaign-cold"),
    ("core.spmv_gb_computed", "GB", "lower", "cells_per_s", "campaign-cold"),
    ("analytic.scheme_ms", "ms", "lower", "p99_ms; max_rate_rps", "serve-mixed"),
    ("analytic.ff_ms", "ms", "lower", "p99_ms; max_rate_rps", "serve-mixed"),
    ("http.healthz_p50_ms", "ms", "lower", "p50_ms", "serve-mixed"),
    ("serve.source_frac.lru", "ratio", "higher", "p50_ms; p99_ms", "serve-mixed"),
    ("serve.source_frac.store", "ratio", "lower", "p50_ms; p99_ms", "serve-mixed"),
    ("serve.source_frac.computed", "ratio", "lower", "p50_ms; p99_ms", "serve-mixed"),
    ("serve.source_frac.coalesced", "ratio", "higher", "p50_ms; p99_ms", "serve-mixed"),
    ("serve.batch_size_mean", "count", "higher", "p99_ms; max_rate_rps", "serve-mixed"),
    ("serve.server_p50_ms", "ms", "lower", "p50_ms", "serve-mixed"),
    ("serve.outside_ms", "ms", "lower", "p50_ms", "serve-mixed"),
    ("serve.errors", "count", "lower", "failed_frac", "serve-mixed"),
    ("loadgen.late_ms_p99", "ms", "lower", "validity of max_rate_rps (not a claim target)", "serve-mixed"),
    ("loadgen.backlog", "count", "lower", "validity of max_rate_rps (not a claim target)", "serve-mixed"),
    ("failed_frac", "ratio", "lower", "failed_frac", "all"),
]
ROWS += [
    (f"self_s.{layer}", "s", "lower", "reconciliation: self times + residual = traced wall", "all")
    for layer in LAYERS
]
ROWS += [
    ("residual_s", "s", "lower", "reconciliation: traced wall not inside any layer span", "all"),
    ("trace.wall_s", "s", "lower", "traced wall of the in-process pass", "all"),
    ("trace.untraced_wall_s", "s", "lower", "the same pass untraced", "all"),
    ("trace.overhead_s", "s", "lower", "tracing overhead: traced minus untraced wall", "all"),
]

UNITS = {name: unit for name, unit, *_ in ROWS}
