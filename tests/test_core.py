import pytest

import reallocsched as rs
from reallocsched.core import CostLedger, SpanMax, merge_moves


def A(job_id, machine, slot):
    return rs.Assignment(job_id, machine, slot)


def test_window_validation():
    with pytest.raises(ValueError):
        rs.Window(3, 3)
    with pytest.raises(ValueError):
        rs.Window(5, 2)
    with pytest.raises(ValueError):
        rs.Window(-1, 4)
    w = rs.Window(2, 6)
    assert w.span == 4
    assert 2 in w and 5 in w and 6 not in w


def test_request_validation():
    with pytest.raises(ValueError):
        rs.Request("insert", "a")
    with pytest.raises(ValueError):
        rs.Request("delete", "a", rs.Window(0, 1))
    with pytest.raises(ValueError):
        rs.Request("frobnicate", "a")


def test_config_validation():
    with pytest.raises(ValueError):
        rs.Config(0, 1)
    with pytest.raises(ValueError):
        rs.Config(1, 0)


def test_insert_with_one_shift_counts_one_reallocation():
    # the new job's own first placement is free; the shifted old job counts
    ledger = CostLedger()
    rec = ledger.record_request(
        "insert", "new",
        (("new", None, A("new", 0, 3)), ("old", A("old", 0, 3), A("old", 0, 7))),
        n=2, delta=8,
    )
    assert rec.reallocations == 1
    assert rec.migrations == 0


def test_delete_with_cross_machine_move_counts_one_migration():
    ledger = CostLedger()
    rec = ledger.record_request(
        "delete", "gone",
        (("gone", A("gone", 2, 1), None), ("mover", A("mover", 2, 0), A("mover", 0, 5))),
        n=1, delta=4,
    )
    assert rec.reallocations == 1
    assert rec.migrations == 1


def test_insert_into_empty_slot_is_free():
    ledger = CostLedger()
    rec = ledger.record_request(
        "insert", "solo", (("solo", None, A("solo", 0, 0)),), n=1, delta=1,
    )
    assert rec.reallocations == 0
    assert rec.migrations == 0


def test_migrations_never_exceed_reallocations():
    ledger = CostLedger()
    ledger.record_request("insert", "a", (("b", A("b", 0, 1), A("b", 1, 2)),), n=1, delta=2)
    ledger.record_request("insert", "c", (("d", A("d", 0, 1), A("d", 0, 2)),), n=2, delta=2)
    assert ledger.total_migrations <= ledger.total_reallocations
    assert len(ledger) == 2


def test_rebuild_costs_are_split_out():
    ledger = CostLedger()
    rec = ledger.record_request(
        "insert", "a", (),
        n=3, delta=4,
        rebuild_moved=(("b", A("b", 0, 1), A("b", 1, 9)),),
    )
    assert rec.rebuilt
    assert rec.reallocations == 0
    assert rec.rebuild_reallocations == 1
    assert rec.rebuild_migrations == 1


def test_merge_moves_nets_round_trips():
    moves = [
        ("a", A("a", 0, 1), A("a", 0, 2)),
        ("a", A("a", 0, 2), A("a", 0, 1)),  # back where it started
        ("b", None, A("b", 0, 5)),
        ("c", A("c", 0, 7), A("c", 0, 8)),
    ]
    merged = merge_moves(moves)
    assert [m[0] for m in merged] == ["b", "c"]


def test_ledger_csv_shape():
    ledger = CostLedger()
    ledger.record_request("insert", "a", (), n=1, delta=2)
    lines = ledger.to_csv().splitlines()
    assert lines[0].startswith("index,op,job_id")
    assert lines[1] == "0,insert,a,1,2,0,0,0,0,0"


def test_span_max_empty_is_zero():
    spans = SpanMax()
    assert spans.max() == 0
    spans.add(8)
    spans.remove(8)
    assert spans.max() == 0


def test_span_max_counts_repeated_spans():
    spans = SpanMax()
    for span in (4, 16, 16, 2, 16):
        spans.add(span)
    assert spans.max() == 16
    spans.remove(16)
    spans.remove(16)
    assert spans.max() == 16  # one copy is still live
    spans.remove(16)
    assert spans.max() == 4
    spans.remove(4)
    assert spans.max() == 2


def test_span_max_readds_span_with_stale_entry():
    spans = SpanMax()
    for span in (32, 8, 8):
        spans.add(span)
    spans.remove(32)  # count 0; its heap entry is now stale
    spans.add(32)     # live again beside the stale entry
    assert spans.max() == 32
    spans.remove(32)
    assert spans.max() == 8
    spans.add(32)
    spans.remove(32)
    spans.remove(8)
    assert spans.max() == 8
    spans.remove(8)
    assert spans.max() == 0


def test_span_max_heap_follows_live_distinct_spans():
    spans = SpanMax()
    for span in (3, 5, 7):
        spans.add(span)
    for i in range(10_000):
        spans.add(100 + i)
        spans.remove(100 + i)
        assert len(spans._heap) <= 2 * len(spans._count) + 1
    assert len(spans._count) == 3
    assert spans.max() == 7
    for span in (3, 5, 7):
        spans.remove(span)
    assert spans._heap == [] and spans.max() == 0
