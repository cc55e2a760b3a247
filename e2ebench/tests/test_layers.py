"""BENCHMARK.json, the per-layer table and the reconciliation agree."""

import json
import re
from pathlib import Path

import pytest

import layers
import run

BENCH = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_per_layer_entries_follow_the_layer_table():
    assert BENCH["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, *_ in layers.ROWS
    ]


def test_end_to_end_entries_are_the_ones_every_run_prints():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.E2E_UNITS


def test_names_are_unique_and_well_formed():
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert {w["name"] for w in BENCH["workloads"]} <= set(run.WORKLOADS)


def test_pass_metrics_reconcile_to_the_traced_wall():
    spans = [
        ["runner.run", "runner", 0.0, 9.0, None, ""],
        ["store.get_entry", "store", 1.0, 3.0, 0, "a"],
        ["store.cell_key", "store", 1.0, 1.5, 1, "a"],
        ["serialize.decode", "serialize", 2.0, 2.5, 1, "a"],
        ["sim.scheme", "sim", 4.0, 8.0, 0, "b"],
    ]
    traced = {"t0": 0.0, "t1": 10.0, "spans": spans, "cells": 2,
              "counts": {"core.iterations": 400}, "cache_hits": 3,
              "cache_misses": 1}
    m = run._pass_metrics(traced, {"t0": 0.0, "t1": 9.5})
    total = sum(m[f"self_s.{la}"] for la in layers.LAYERS) + m["residual_s"]
    assert total == pytest.approx(m["trace.wall_s"]) == pytest.approx(10.0)
    assert m["self_s.store"] == pytest.approx(1.5)
    assert m["self_s.serialize"] == pytest.approx(0.5)
    assert m["residual_s"] == pytest.approx(1.0)
    assert m["store.cell_key_calls_per_cell"] == pytest.approx(0.5)
    assert m["core.us_per_iter"] == pytest.approx(4.0 / 400 * 1e6)
    assert m["matrices.cache_hit_frac"] == pytest.approx(0.75)
    assert m["trace.overhead_s"] == pytest.approx(0.5)


def test_server_p50_interpolates_inside_the_histogram_bucket():
    def scrape(counts):
        return {
            ("serve_request_latency_s_bucket",
             (("endpoint", "/v1/solve"), ("le", le))): float(n)
            for le, n in zip(("0.0001", "0.001", "0.01", "+Inf"), counts)
        }

    before, after = scrape([5, 5, 5, 5]), scrape([15, 65, 105, 105])
    p50 = run._hist_quantile(before, after, "serve_request_latency_s",
                             "/v1/solve", 0.5)
    assert p50 == pytest.approx(1e-4 * 10 ** 0.8)
    assert run._hist_quantile(before, before, "serve_request_latency_s",
                              "/v1/solve", 0.5) == 0.0
