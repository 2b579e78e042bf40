import copy
import random

import pytest

import reallocsched as rs
from reallocsched import verifier
from reallocsched.alignment import level_of, level_threshold
from reallocsched.verifier import replay


def clean_snapshot():
    fleet = rs.Fleet(rs.Config(2, 8))
    for i in range(6):
        fleet.apply(rs.insert_request(f"a{i}", 0, 64))
    for i in range(3):
        fleet.apply(rs.insert_request(f"z{i}", 8 * i, 8 * i + 8))
    return fleet.snapshot()


def failed_invariants(snapshot, level="invariants"):
    return {f.invariant for f in rs.audit(snapshot, level)}


def failure_rows(snapshot, level="invariants"):
    """The audit's failures as (invariant, subject, detail), in order."""
    return [(f.invariant, f.subject, f.detail) for f in rs.audit(snapshot, level)]


def test_clean_state_audits_empty():
    snap = clean_snapshot()
    assert rs.audit(snap, "invariants") == []
    assert rs.audit(snap, "full-oracle") == []
    assert rs.audit(snap, "off") == []


def test_audit_does_not_mutate_the_snapshot():
    snap = clean_snapshot()
    frozen = copy.deepcopy(snap)
    rs.audit(snap, "full-oracle")
    assert snap == frozen


def test_two_jobs_in_one_slot_fires_validity():
    snap = clean_snapshot()
    machine = snap.machines[0]
    ids = sorted(machine.jobs)
    machine.jobs[ids[0]].slot = machine.jobs[ids[1]].slot
    assert "validity" in failed_invariants(snap)
    assert failure_rows(snap) == [
        ("validity", "machine 0 slot 2", "held by both a0 and a2"),
        ("validity", "machine 0 slot 1", "occupancy says a0 but the job is elsewhere"),
        ("validity", "machine 0 job a0", "job slot missing from the occupancy map"),
    ]


def test_job_outside_window_fires_validity():
    snap = clean_snapshot()
    machine = snap.machines[0]
    jid = sorted(machine.jobs)[0]
    old = machine.jobs[jid].slot
    del machine.occupancy[old]
    machine.jobs[jid].slot = 9999
    machine.occupancy[9999] = jid
    assert "validity" in failed_invariants(snap)
    assert failure_rows(snap) == [
        ("validity", "machine 0 job a0", "slot 9999 outside window [0, 64)"),
        ("job-binding", "machine 0 window [0, 64)",
         "job a0 sits at slot 9999 without a fulfilled reservation of its window"),
    ]


def test_missing_reservation_fires_invariant1():
    snap = clean_snapshot()
    machine = snap.machines[0]
    (key, book), = [
        (k, b) for k, b in machine.books.items() if k[1] == 0 and k[0] == 1
    ]
    wkey = sorted(book.res)[0]
    book.res[wkey] -= 1  # now 2x + 2^k fails
    assert "invariant1" in failed_invariants(snap)
    assert failure_rows(snap) == [
        ("allowance", "machine 0 interval L1[0]", "window (64, 0) holds 4 slots but 3 reservations"),
        ("priority", "machine 0 interval L1[0]",
         "window (64, 0) has 4 fulfilled, priority order dictates 3 (capacity 29)"),
        ("invariant1", "machine 0 window [0, 64)", "7 reservations for 3 jobs; expected 8"),
        ("invariant1", "machine 0 window [0, 64)",
         "interval position 0 holds 3 reservations, expected 4"),
    ]


def test_priority_violation_fires():
    snap = clean_snapshot()
    machine = snap.machines[0]
    book = machine.books[(1, 0)]
    # forge an extra reservation of a longer window and pretend it is
    # fulfilled while the short one waits
    slot, wkey = sorted(book.bound.items())[0]
    longer = (wkey[0] * 2, 0)
    book.res[longer] = book.res.get(longer, 0) + 1
    book.bound[slot] = longer
    fired = failed_invariants(snap)
    assert "priority" in fired or "invariant1" in fired
    assert failure_rows(snap) == [
        ("priority", "machine 0 interval L1[0]",
         "window (64, 0) has 3 fulfilled, priority order dictates 4 (capacity 29)"),
        ("job-binding", "machine 0 window [0, 64)",
         "job a0 sits at slot 1 without a fulfilled reservation of its window"),
    ]


def test_bound_slot_outside_allowance_fires():
    snap = clean_snapshot()
    machine = snap.machines[0]
    book = machine.books[(1, 0)]
    # bind a slot that a level-0 job occupies
    lvl0_slot = next(
        s for s, j in machine.occupancy.items() if machine.jobs[j].level == 0
    )
    wkey = sorted(book.res)[0]
    was = sorted(s for s, w in book.bound.items() if w == wkey)[0]
    del book.bound[was]
    book.bound[lvl0_slot] = wkey
    assert "allowance" in failed_invariants(snap)
    assert failure_rows(snap) == [
        ("allowance", "machine 0 interval L1[0]",
         "slot 0 is outside the allowance (level-0 job) yet bound"),
        ("job-binding", "machine 0 window [0, 64)",
         "job a0 sits at slot 1 without a fulfilled reservation of its window"),
    ]


def test_starved_group_fires_reservation_space():
    snap = clean_snapshot()
    machine = snap.machines[0]
    for key in sorted(machine.books):
        book = machine.books[key]
        for slot in sorted(book.bound):
            wkey = book.bound.pop(slot)
            book.res[wkey] -= 1  # keep arithmetic consistent, kill fulfillment
    fired = failed_invariants(snap)
    assert "reservation-space" in fired
    assert failure_rows(snap) == [
        ("invariant1", "machine 0 window [0, 64)", "0 reservations for 3 jobs; expected 8"),
        ("invariant1", "machine 0 window [0, 64)",
         "interval position 0 holds 0 reservations, expected 4"),
        ("invariant1", "machine 0 window [0, 64)",
         "interval position 1 holds 0 reservations, expected 4"),
        ("reservation-space", "machine 0 window [0, 64)", "only 0 fulfilled reservations for 3 jobs"),
    ] + [
        ("job-binding", "machine 0 window [0, 64)",
         f"job {jid} sits at slot {slot} without a fulfilled reservation of its window")
        for jid, slot in (("a0", 1), ("a2", 2), ("a4", 3))
    ]


def test_ghost_occupant_is_reported_not_raised():
    snap = clean_snapshot()
    machine = snap.machines[0]
    book = machine.books[(1, 0)]
    free = min(s for s in book.bound if s not in machine.occupancy)
    machine.occupancy[free] = "ghost"  # names a job the machine does not hold
    assert failure_rows(snap) == [
        ("validity", f"machine 0 slot {free}", "occupancy says ghost but the job is elsewhere"),
    ]
    # A second fault in the same book sends it through the per-slot checks.
    book.res[(64, 64)] = 1
    assert failure_rows(snap) == [
        ("validity", f"machine 0 slot {free}", "occupancy says ghost but the job is elsewhere"),
        ("allowance", "machine 0 interval L1[0]",
         "reserving window (64, 64) does not contain the interval"),
        ("priority", "machine 0 interval L1[0]",
         "window (64, 64) has 0 fulfilled, priority order dictates 1 (capacity 29)"),
    ]


def test_unbalanced_fleet_fires_balance():
    snap = clean_snapshot()
    m0, m1 = snap.machines
    jid = sorted(m0.jobs)[0]
    moved = m0.jobs.pop(jid)
    del m0.occupancy[moved.slot]
    free = max(m1.occupancy) + 1
    moved.slot = free
    m1.jobs[jid] = moved
    m1.occupancy[free] = jid
    fired = failed_invariants(snap)
    assert "balance" in fired
    assert failure_rows(snap) == [
        ("job-binding", "machine 0 window [0, 64)", "group member a0 is not placed"),
        ("balance", "window (0, 64)",
         "machine 0 holds 2 jobs of the window, expected 3 (extras on the earliest machines)"),
    ]


def test_full_oracle_catches_overallocation():
    fleet = rs.Fleet(rs.Config(1, 8))
    for i in range(4):
        fleet.apply(rs.insert_request(f"a{i}", 0, 8))  # feasible, but not 8-underallocated
    fired = failed_invariants(fleet.snapshot(), "full-oracle")
    assert "underallocated-global" in fired
    assert failure_rows(fleet.snapshot(), "full-oracle") == [
        ("underallocated-global", "active set",
         "original windows are not 8-underallocated on 1 machines"),
    ]


def test_replay_reports_error_index():
    reqs = [
        rs.insert_request("a", 0, 1),
        rs.insert_request("b", 0, 1),
    ]
    res = replay(rs.Fleet(rs.Config(1, 1)), reqs)
    assert res.error is not None
    index, exc = res.error
    assert index == 1
    assert isinstance(exc, rs.NoFulfilledSlot)


def test_replay_tags_failures_with_request_index():
    # an 8-underallocated trace audited at gamma 8 stays clean; force a
    # failure by auditing a deliberately overallocated trace instead
    reqs = [rs.insert_request(f"a{i}", 0, 8) for i in range(4)]
    res = replay(rs.Fleet(rs.Config(1, 8)), reqs, audit_level="full-oracle")
    assert res.failures
    assert all(f.request_index is not None for f in res.failures)


# -- differential check against the per-book scans the audit used to run ----
#
# The three functions below are the audit's earlier book and group checks,
# which rescanned the whole occupancy for every book and a book's bindings
# once per window.  Their only change is that an occupant missing from jobs
# is skipped instead of raising KeyError.


def _ref_lower_occupancy(machine, level, lo, hi):
    count = 0
    for slot, job_id in machine.occupancy.items():
        if lo <= slot < hi:
            job = machine.jobs.get(job_id)
            job_level = job.level if job is not None else None
            if job_level is not None and job_level < level:
                count += 1
    return count


def _ref_check_books(failures, mi, machine):
    fail = verifier._fail
    for (level, index), book in machine.books.items():
        size = level_threshold(level)
        lo, hi = index * size, (index + 1) * size
        subject = f"machine {mi} interval L{level}[{index}]"
        fulfilled = {}
        for slot, wkey in book.bound.items():
            fulfilled[wkey] = fulfilled.get(wkey, 0) + 1
            if not lo <= slot < hi:
                fail(failures, "allowance", subject, f"bound slot {slot} outside the interval")
            occ_id = machine.occupancy.get(slot)
            if occ_id is not None and occ_id in machine.jobs:
                occ_level = machine.jobs[occ_id].level
                if occ_level is not None and occ_level < level:
                    fail(failures, "allowance", subject,
                         f"slot {slot} is outside the allowance (level-{occ_level} job) yet bound")
        for wkey, count in fulfilled.items():
            if count > book.res.get(wkey, 0):
                fail(failures, "allowance", subject,
                     f"window {wkey} holds {count} slots but {book.res.get(wkey, 0)} reservations")
        for wkey in book.res:
            span, start = wkey
            if not (start <= lo and start + span >= hi):
                fail(failures, "allowance", subject,
                     f"reserving window {wkey} does not contain the interval")
        capacity = size - _ref_lower_occupancy(machine, level, lo, hi)
        remaining = capacity
        for wkey in sorted(book.res):
            expect = min(book.res[wkey], max(remaining, 0))
            remaining -= expect
            if fulfilled.get(wkey, 0) != expect:
                fail(failures, "priority", subject,
                     f"window {wkey} has {fulfilled.get(wkey, 0)} fulfilled, "
                     f"priority order dictates {expect} (capacity {capacity})")


def _ref_check_groups(failures, mi, machine):
    fail = verifier._fail
    for (span, start), members in machine.groups.items():
        wkey = (span, start)
        x = len(members)
        level = level_of(span)
        size = level_threshold(level)
        base = start // size
        count = span // size
        subject = f"machine {mi} window [{start}, {start + span})"
        totals = []
        fulfilled_total = 0
        for index in range(base, base + count):
            book = machine.books.get((level, index))
            if book is None:
                fail(failures, "invariant1", subject, f"interval {index} has no book")
                totals.append(0)
                continue
            totals.append(book.res.get(wkey, 0))
            fulfilled_total += sum(1 for w in book.bound.values() if w == wkey)
        if sum(totals) != 2 * x + count:
            fail(failures, "invariant1", subject,
                 f"{sum(totals)} reservations for {x} jobs; expected {2 * x + count}")
        q, r = divmod(2 * x, count)
        for pos, total in enumerate(totals):
            expect = q + 2 if pos < r else q + 1
            if total != expect:
                fail(failures, "invariant1", subject,
                     f"interval position {pos} holds {total} reservations, expected {expect}")
        if fulfilled_total < x + 1:
            fail(failures, "reservation-space", subject,
                 f"only {fulfilled_total} fulfilled reservations for {x} jobs")
        for job_id in members:
            snap = machine.jobs.get(job_id)
            if snap is None or snap.slot is None:
                fail(failures, "job-binding", subject, f"group member {job_id} is not placed")
                continue
            book = machine.books.get((level, snap.slot // size))
            if book is None or book.bound.get(snap.slot) != wkey:
                fail(failures, "job-binding", subject,
                     f"job {job_id} sits at slot {snap.slot} without a fulfilled "
                     f"reservation of its window")


def reference_rows(snapshot):
    """The invariants audit as it ran with the reference book and group checks."""
    failures = []
    for mi, machine in enumerate(snapshot.machines):
        verifier._check_validity(failures, mi, machine)
        verifier._check_windows(failures, mi, machine)
        _ref_check_books(failures, mi, machine)
        _ref_check_groups(failures, mi, machine)
    if snapshot.delegated:
        verifier._check_balance(failures, snapshot)
    return [(f.invariant, f.subject, f.detail) for f in failures]


def _pick_book(rng, machine, need_bound=False):
    keys = [k for k, b in machine.books.items() if b.bound or not need_bound]
    return machine.books[rng.choice(keys)] if keys else None


def _mutate(rng, machine):
    """Inject one fault into a machine snapshot; returns its name."""
    kind = rng.choice(("res", "drop-book", "bound-inside", "bound-outside",
                       "relabel", "move-job", "foreign-res", "ghost"))
    if kind == "res":
        book = _pick_book(rng, machine)
        if book is None or not book.res:
            return None
        wkey = rng.choice(sorted(book.res))
        book.res[wkey] += rng.choice((-1, 1))
    elif kind == "drop-book":
        if not machine.books:
            return None
        del machine.books[rng.choice(sorted(machine.books))]
    elif kind in ("bound-inside", "bound-outside"):
        book = _pick_book(rng, machine, need_bound=True)
        if book is None:
            return None
        size = level_threshold(book.level)
        lo = book.index * size
        slot = rng.choice(sorted(book.bound))
        if kind == "bound-inside":
            free = [s for s in range(lo, lo + size) if s not in book.bound]
            if not free:
                return None
            target = rng.choice(free)
        else:
            target = rng.choice((lo - 1 - rng.randrange(size), lo + size + rng.randrange(size)))
        book.bound[target] = book.bound.pop(slot)
    elif kind == "relabel":
        if not machine.jobs:
            return None
        job = machine.jobs[rng.choice(sorted(machine.jobs))]
        job.level = rng.choice([lv for lv in (0, 1, 2, None) if lv != job.level])
    elif kind == "move-job":
        if not machine.jobs:
            return None
        job = machine.jobs[rng.choice(sorted(machine.jobs))]
        lo, hi = job.window
        free = [s for s in range(lo, hi) if s not in machine.occupancy]
        if not free:
            return None
        del machine.occupancy[job.slot]
        job.slot = rng.choice(free)
        machine.occupancy[job.slot] = job.job_id
    elif kind == "foreign-res":
        book = _pick_book(rng, machine)
        if book is None:
            return None
        size = level_threshold(book.level)
        span = size << rng.randrange(4)
        start = (book.index * size // span + rng.choice((-1, 0, 0, 1))) * span
        if rng.random() < 0.75:  # else only bind a slot, with no reservation behind it
            book.res[(span, start)] = book.res.get((span, start), 0) + rng.randrange(1, 3)
        if rng.random() < 0.5 or (span, start) not in book.res:
            free = [s for s in range(book.index * size, (book.index + 1) * size)
                    if s not in book.bound]
            if free:
                book.bound[rng.choice(free)] = (span, start)
    else:
        book = _pick_book(rng, machine, need_bound=True)
        if book is None:
            return None
        free = [s for s in sorted(book.bound) if s not in machine.occupancy]
        slot = rng.choice(free) if free else max(machine.occupancy) + 1
        machine.occupancy[slot] = "ghost"
    return kind


@pytest.mark.parametrize("seed", range(6))
def test_audit_matches_reference_checks_on_faulted_snapshots(seed):
    rng = random.Random(seed)
    m = (1, 2, 4)[seed % 3]
    n_max = (12, 25, 50)[seed % 3]
    trace = rs.gen_random_underallocated(
        n_max, m, 192, seed=3000 + seed, length=2 * n_max + 40, span_max=4096
    )
    fleet = rs.Fleet(rs.Config(m, 192))
    kinds = set()
    faulted = 0
    for index, req in enumerate(trace.requests):
        fleet.apply(req)
        assert rs.audit(fleet.snapshot()) == []
        if index % 3:
            continue
        for _ in range(12):
            snap = fleet.snapshot()
            for _ in range(rng.choice((1, 1, 2, 3))):
                kinds.add(_mutate(rng, rng.choice(snap.machines)))
            expected = reference_rows(snap)
            assert failure_rows(snap) == expected
            faulted += bool(expected)
    assert kinds - {None} == {"res", "drop-book", "bound-inside", "bound-outside",
                              "relabel", "move-job", "foreign-res", "ghost"}
    assert faulted > 100
