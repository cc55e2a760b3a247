"""The open-loop traffic is a pure function of the workload seed."""

import json

import pytest

import loadgen


def test_same_seed_sends_byte_identical_traffic():
    a = loadgen.build_schedule(7, 1, 50.0, 5.0)
    b = loadgen.build_schedule(7, 1, 50.0, 5.0)
    assert a == b
    assert [r.body for r in a] == [r.body for r in b]


def test_other_seeds_and_phases_differ():
    base = loadgen.build_schedule(7, 1, 50.0, 5.0)
    assert loadgen.build_schedule(8, 1, 50.0, 5.0) != base
    assert loadgen.build_schedule(7, 2, 50.0, 5.0) != base


def test_arrivals_are_ordered_and_inside_the_phase():
    sched = loadgen.build_schedule(3, 0, 90.0, 4.0)
    dues = [r.due for r in sched]
    assert dues == sorted(dues)
    assert 0.0 < dues[0] and dues[-1] < 4.0
    assert len(sched) == pytest.approx(360, rel=0.2)


def test_mix_shares_are_exact_counts():
    sched = loadgen.build_schedule(5, 0, 100.0, 10.0)
    n = len(sched)
    kinds = [r.kind for r in sched]
    assert kinds.count("sim") == round(n * loadgen.SIM_SHARE)
    assert kinds.count("analytic") == round(n * loadgen.ANALYTIC_SHARE)


def test_fresh_cells_are_fresh_and_hot_cells_are_warmed():
    sched = loadgen.build_schedule(5, 0, 100.0, 10.0)
    hot = set(loadgen.hot_bodies())
    fresh = [r.body for r in sched if r.kind != "hot"]
    assert len(set(fresh)) == len(fresh)
    assert not hot & set(fresh)
    assert all(r.body in hot for r in sched if r.kind == "hot")
    for body in fresh:
        assert json.loads(body)["seed"] != 0


def test_backlog_counts_requests_unfinished_at_the_last_due_time():
    outs = [
        loadgen.Outcome(due=0.0, done=0.5),
        loadgen.Outcome(due=1.0, done=2.5),
        loadgen.Outcome(due=2.0, done=2.1),
    ]
    assert loadgen.backlog_at_end(outs) == 2
