import random

import pytest

import reallocsched as rs
from reallocsched.reservation import capacity_step

from conftest import aligned_multiset, single_machine_audit


def fresh(gamma=8, nstar=256):
    m = rs.MachineSchedule(gamma)
    m.rebuild([], nstar)
    return m


def realloc_count(moves):
    return sum(1 for _, old, new in moves if old is not None and new is not None)


def test_first_insert_sets_up_reservations():
    m = fresh()
    moves = m.insert("a", rs.AlignedWindow(0, 64))
    assert realloc_count(moves) == 0
    slot = m.assignments()["a"]
    assert 0 <= slot < 64
    snap = m.snapshot()
    # one group with x=1 over 2 intervals: 2x + 2 = 4 reservations, two per
    # interval, and with nothing else around all four are fulfilled
    assert snap.groups == {(64, 0): ("a",)}
    res = [snap.books[(1, i)].res[(64, 0)] for i in (0, 1)]
    assert res == [2, 2]
    assert m.fulfilled_profile() == {((0, 64), 0): 2, ((0, 64), 1): 2}


def test_short_job_displaces_long_job_one_reallocation():
    m = fresh()
    for i in range(5):
        m.insert(f"s{i}", rs.AlignedWindow(0, 8))
    m.insert("long", rs.AlignedWindow(0, 64))
    assert m.assignments()["long"] == 5
    # [4, 6) has slot 4 held by a level-0 job, so the new job lands on 5
    moves = m.insert("forcer", rs.AlignedWindow(4, 2))
    assert m.assignments()["forcer"] == 5
    assert realloc_count(moves) == 1  # the long job re-placed elsewhere
    assert m.assignments()["long"] in rs.AlignedWindow(0, 64)
    assert not single_machine_audit(m)


def test_insert_span_one_into_empty():
    m = fresh()
    moves = m.insert("one", rs.AlignedWindow(0, 1))
    assert moves == [("one", None, 0)]


def test_delete_only_job_leaves_empty_schedule():
    m = fresh()
    m.insert("a", rs.AlignedWindow(0, 64))
    moves = m.delete("a")
    assert realloc_count(moves) == 0
    assert len(m) == 0
    assert m.fulfilled_profile() == {}
    assert m.snapshot().books == {}


def test_delete_retracts_from_the_rightmost_heavy_intervals():
    m = fresh()
    for i in range(2):
        m.insert(f"a{i}", rs.AlignedWindow(0, 64))
    snap = m.snapshot()
    assert [snap.books[(1, i)].res[(64, 0)] for i in (0, 1)] == [3, 3]
    m.delete("a0")
    snap = m.snapshot()
    assert [snap.books[(1, i)].res[(64, 0)] for i in (0, 1)] == [2, 2]
    assert not single_machine_audit(m)


def test_deleting_lower_job_promotes_waitlisted_reservation_without_moves():
    m = rs.MachineSchedule(gamma=1)
    m.rebuild([], 256)
    # 15 level-0 jobs shrink interval 0's allowance to 17 slots
    for i in range(15):
        m.insert(f"z{i}", rs.AlignedWindow(2 * i, 2))
    # 20 same-window jobs: 21 reservations per interval > 17 capacity
    for i in range(20):
        m.insert(f"w{i}", rs.AlignedWindow(0, 64))
    book0 = m.snapshot().books[(1, 0)]
    assert book0.res[(64, 0)] == 21
    assert len(book0.bound) == 17
    moves = m.delete("z3")
    assert realloc_count(moves) == 0  # promotion moves no job
    assert len(m.snapshot().books[(1, 0)].bound) == 18
    assert not single_machine_audit(m, allow=("reservation-space",))


def test_reserve_steals_from_longer_window_and_moves_its_job():
    m = rs.MachineSchedule(gamma=1)
    m.rebuild([], 1024)
    # saturate the books of [0, 128): 2*62 + 4 = 128 reservations, 32/interval
    for i in range(62):
        m.insert(f"L{i}", rs.AlignedWindow(0, 128))
    moves = m.insert("short", rs.AlignedWindow(0, 64))
    # the shorter window's reservations preempt the longer window's slots;
    # per interval at most one same-level job moves, plus the placement
    assert realloc_count(moves) <= 3
    assert realloc_count(moves) >= 1
    assert not single_machine_audit(m, allow=("reservation-space",))
    snap = m.snapshot()
    assert snap.books[(1, 0)].res[(64, 0)] >= 1


def test_waitlisted_when_not_shorter():
    m = rs.MachineSchedule(gamma=1)
    m.rebuild([], 1024)
    for i in range(30):
        m.insert(f"s{i}", rs.AlignedWindow(0, 64))  # 32 reservations over 2 intervals
    for i in range(2):
        m.insert(f"t{i}", rs.AlignedWindow(32 * i, 32))  # level 0 pressure
    before = m.assignments()
    m.insert("big", rs.AlignedWindow(0, 256))
    # the long window cannot displace anything shorter
    after = m.assignments()
    moved = [j for j in before if before[j] != after[j]]
    assert moved == []
    assert not single_machine_audit(m, allow=("reservation-space",))


def test_move_swaps_with_higher_level_occupant():
    # Saturate [0, 128)'s first interval so a shorter window's reservation
    # must steal an occupied slot; the displaced job's only same-level-free
    # fulfilled slot holds a level-2 job, which swaps into the vacated slot.
    m = rs.MachineSchedule(gamma=1)
    m.rebuild([], 1024)
    for i in range(30):
        m.insert(f"W2_{i}", rs.AlignedWindow(0, 128))
    for i in range(15):
        m.insert(f"W1_{i}", rs.AlignedWindow(0, 64))
    m.insert("v1", rs.AlignedWindow(0, 512))
    m.insert("v2", rs.AlignedWindow(0, 512))
    before = m.assignments()
    assert before["v2"] == 46  # sits on the long window's spare fulfilled slot
    victim = next(j for j, s in before.items() if s == 0)
    moved = m.insert("W1_15", rs.AlignedWindow(0, 64))
    # the swap itself: the mover takes the level-2 job's slot, the level-2
    # job takes the vacated one
    assert (victim, 0, 46) in moved
    assert ("v2", 46, 0) in moved
    after = m.assignments()
    assert after[victim] == 46
    assert after["W1_15"] == 0
    assert not single_machine_audit(m, allow=("reservation-space",))


def test_displacement_cascades_across_levels():
    m = rs.MachineSchedule(gamma=1)
    m.rebuild([], 1024)
    m.insert("lvl1", rs.AlignedWindow(0, 64))
    assert m.assignments()["lvl1"] == 0
    m.insert("lvl2", rs.AlignedWindow(0, 512))
    slot2 = m.assignments()["lvl2"]
    m.insert("tiny", rs.AlignedWindow(0, 1))  # forces slot 0
    a = m.assignments()
    assert a["tiny"] == 0
    assert a["lvl1"] != 0
    assert not single_machine_audit(m)
    assert a["lvl2"] in rs.AlignedWindow(0, 512)
    assert slot2 != 0 or a["lvl2"] != slot2


def test_level0_cascade_is_short():
    m = fresh(gamma=1, nstar=64)
    # fill [0, 32) in a nested pattern: spans 2,4,...,32
    m.insert("a", rs.AlignedWindow(0, 2))
    m.insert("b", rs.AlignedWindow(0, 4))
    for i in range(2):
        m.insert(f"c{i}", rs.AlignedWindow(0, 8))
    for i in range(4):
        m.insert(f"d{i}", rs.AlignedWindow(0, 16))
    for i in range(23):
        m.insert(f"e{i}", rs.AlignedWindow(0, 32))
    moves = m.insert("trigger", rs.AlignedWindow(0, 1))
    assert realloc_count(moves) <= 5  # lg 32
    assert not single_machine_audit(m)


def test_level0_dead_end_raises_no_fulfilled_slot():
    m = fresh(gamma=1)
    m.insert("a", rs.AlignedWindow(0, 1))
    with pytest.raises(rs.NoFulfilledSlot) as exc:
        m.insert("b", rs.AlignedWindow(0, 1))
    assert exc.value.window == (0, 1)


def test_duplicate_and_unknown_ids():
    m = fresh()
    m.insert("a", rs.AlignedWindow(0, 8))
    with pytest.raises(rs.DuplicateJobId):
        m.insert("a", rs.AlignedWindow(0, 8))
    with pytest.raises(rs.UnknownJobId):
        m.delete("nope")


def test_capacity_step_examples():
    assert capacity_step(8, 9) == 16
    assert capacity_step(16, 3) == 8
    assert capacity_step(8, 5) == 8
    assert capacity_step(1, 0) == 1


def test_rebuild_retrims():
    m = rs.MachineSchedule(gamma=8)
    m.insert("a", rs.AlignedWindow(0, 4096))
    # nstar=1: trimmed to 16 slots, level 0
    assert m.assignments()["a"] < 16
    assert m.snapshot().jobs["a"].level == 0
    m.rebuild([("a", rs.AlignedWindow(0, 4096))], 512)  # trim bound 8192: full span again
    assert m.nstar == 512
    assert m.snapshot().jobs["a"].effective == (0, 4096)
    assert m.snapshot().jobs["a"].level == 2
    assert not single_machine_audit(m)


def test_fulfilled_profile_history_independent(rng):
    jobs = aligned_multiset(rng, 12, gamma=8)
    profiles = set()
    for _ in range(15):
        order = jobs[:]
        rng.shuffle(order)
        m = fresh(gamma=8, nstar=capacity_step(1, len(jobs)))
        for j in order:
            m.insert(j.id, rs.align_window(j.window))
        profiles.add(tuple(sorted(m.fulfilled_profile().items())))
    assert len(profiles) == 1


def test_random_ops_keep_every_invariant(rng):
    m = fresh(gamma=8, nstar=64)
    active = []
    for step in range(300):
        if not active or (len(active) < 40 and rng.random() < 0.6):
            jobs = [rs.Job(i, rs.AlignedWindow(s, p).as_window()) for i, (p, s) in active]
            span = rng.choice([8, 16, 32, 64, 128, 256, 512])
            start = rng.randrange(0, 4096 // span) * span
            cand = rs.Job(f"r{step}", rs.Window(start, start + span))
            if not rs.underallocated(jobs + [cand], 1, 8):
                continue
            m.insert(cand.id, rs.AlignedWindow(start, span))
            active.append((cand.id, (span, start)))
        else:
            jid, _ = active.pop(rng.randrange(len(active)))
            m.delete(jid)
        assert not single_machine_audit(m), f"step {step}"
