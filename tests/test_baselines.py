import math

import pytest

import reallocsched as rs
from reallocsched.verifier import replay

from conftest import chain_requests


def realloc(out):
    return out.record.reallocations


def test_naive_empty_insert_is_free():
    sched = rs.build_scheduler("naive", rs.Config(1, 1))
    out = sched.apply(rs.insert_request("a", 0, 2))
    assert realloc(out) == 0


def test_naive_displaces_longer_job():
    sched = rs.build_scheduler("naive", rs.Config(1, 1))
    sched.apply(rs.insert_request("long", 0, 4))
    sched.apply(rs.insert_request("long2", 0, 4))
    # [0,2) is now full; one longer job gets displaced, cascade length 1
    out = sched.apply(rs.insert_request("short", 0, 2))
    assert realloc(out) == 1


def test_naive_chain_cascades_exactly_t(rng):
    for t in (4, 6, 10):
        sched = rs.build_scheduler("naive", rs.Config(1, 1))
        res = replay(sched, chain_requests(t))
        assert res.error is None
        out = sched.apply(rs.insert_request("trigger", 0, 1))
        assert realloc(out) == t
        n, delta = out.record.n, out.record.delta
        assert realloc(out) <= min(math.ceil(math.log2(n)), math.ceil(math.log2(delta))) + 1


def test_naive_bound_on_random_aligned_feasible_traces(rng):
    for seed in range(5):
        trace = rs.gen_random_underallocated(
            30, 1, 2, seed, length=150, span_max=1024, aligned=True
        )
        sched = rs.build_scheduler("naive", rs.Config(1, 2))
        res = replay(sched, trace.requests, audit_level="invariants")
        assert res.error is None and not res.failures
        for rec in res.records:
            if rec.n == 0:
                continue
            bound = min(
                math.ceil(math.log2(max(rec.n, 2))),
                math.ceil(math.log2(max(rec.delta, 2))),
            ) + 1
            assert rec.reallocations <= bound


def test_naive_declares_infeasible():
    sched = rs.build_scheduler("naive", rs.Config(1, 1))
    sched.apply(rs.insert_request("a", 0, 1))
    with pytest.raises(rs.Infeasible):
        sched.apply(rs.insert_request("b", 0, 1))


def test_naive_fleet_migrates_at_most_one_per_delete():
    sched = rs.build_scheduler("naive", rs.Config(2, 1))
    for i in range(4):
        sched.apply(rs.insert_request(f"a{i}", 0, 64))
    out = sched.apply(rs.delete_request("a0"))
    assert out.record.migrations <= 1


def test_edf_repack_empty_insert_and_final_delete_free():
    sched = rs.build_scheduler("edf", rs.Config(1, 1))
    out = sched.apply(rs.insert_request("a", 0, 4))
    assert realloc(out) == 0
    out = sched.apply(rs.delete_request("a"))
    assert realloc(out) == 0


def test_edf_repack_toggle_moves_everything():
    eta = 10
    sched = rs.build_scheduler("edf", rs.Config(1, 1))
    for j in range(eta):
        sched.apply(rs.insert_request(f"b{j}", j, j + 2))
    out = sched.apply(rs.insert_request("lo", 0, 1))
    assert realloc(out) == eta  # every base job shifts to its later slot
    out = sched.apply(rs.delete_request("lo"))
    assert realloc(out) == eta  # and the repack shifts them all back


def test_edf_repack_raises_infeasible():
    sched = rs.build_scheduler("edf", rs.Config(1, 1))
    sched.apply(rs.insert_request("a", 0, 1))
    with pytest.raises(rs.Infeasible):
        sched.apply(rs.insert_request("b", 0, 1))


def test_edf_repack_infeasible_insert_leaves_no_trace():
    sched = rs.build_scheduler("edf", rs.Config(1, 1))
    sched.apply(rs.insert_request("a", 0, 1))
    with pytest.raises(rs.Infeasible):
        sched.apply(rs.insert_request("b", 0, 1))
    assert sched.snapshot().original_windows == {"a": (0, 1)}
    out = sched.apply(rs.insert_request("b", 1, 2))
    assert out.record.n == 2 and out.record.delta == 1
    assert {j: a.slot for j, a in sched.assignments().items()} == {"a": 0, "b": 1}


def test_baselines_produce_valid_schedules(rng):
    trace = rs.gen_random_underallocated(20, 2, 8, 3, length=100, aligned=True)
    for kind in ("naive", "edf"):
        sched = rs.build_scheduler(kind, rs.Config(2, 8))
        res = replay(sched, trace.requests)
        assert res.error is None
        failures = [
            f for f in rs.audit(sched.snapshot(), "invariants")
            if f.invariant == "validity"
        ]
        assert failures == []


def test_build_scheduler_rejects_unknown_kind():
    with pytest.raises(ValueError):
        rs.build_scheduler("mystery", rs.Config(1, 1))
