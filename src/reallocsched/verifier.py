"""Cross-cutting audit engine, run between requests on snapshots (mutable
copies the caller owns; the audit only reads them): schedule validity,
reservation arithmetic, fulfillment priority, allowance consistency,
round-robin balance, and (at full-oracle level) brute-force feasibility and
underallocation checks.

The invariants audit costs O(jobs x levels + books + reservations) per
snapshot: each machine's occupancy and bindings are tallied once (_tally),
and the book and group checks read the tally."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .alignment import audit_counting_bound, is_power_of_two, level_of, level_threshold
from .core import Job, SchedulerError, Window
from .feasibility import edf_feasible, underallocated
from .fleet import FleetSnapshot
from .reservation import MachineSnapshot, WindowKey

#: Above this many active jobs, full-oracle audits degrade to invariants.
FULL_ORACLE_JOB_CAP = 500

_NO_SLOTS: frozenset[int] = frozenset()


@dataclass(frozen=True)
class AuditFailure:
    invariant: str
    subject: str
    detail: str
    request_index: int | None = None


def _fail(failures, invariant, subject, detail):
    failures.append(AuditFailure(invariant, subject, detail))


def _check_validity(failures, mi: int, machine: MachineSnapshot) -> None:
    seen_slots: dict[int, str] = {}
    for job_id, snap in machine.jobs.items():
        if snap.slot is None:
            _fail(failures, "validity", f"machine {mi} job {job_id}", "job has no slot")
            continue
        lo, hi = snap.window
        if not lo <= snap.slot < hi:
            _fail(
                failures, "validity", f"machine {mi} job {job_id}",
                f"slot {snap.slot} outside window [{lo}, {hi})",
            )
        if snap.slot in seen_slots:
            _fail(
                failures, "validity", f"machine {mi} slot {snap.slot}",
                f"held by both {seen_slots[snap.slot]} and {job_id}",
            )
        seen_slots[snap.slot] = job_id
    for slot, job_id in machine.occupancy.items():
        if job_id not in machine.jobs or machine.jobs[job_id].slot != slot:
            _fail(
                failures, "validity", f"machine {mi} slot {slot}",
                f"occupancy says {job_id} but the job is elsewhere",
            )
    for job_id, snap in machine.jobs.items():
        if snap.slot is not None and machine.occupancy.get(snap.slot) != job_id:
            _fail(
                failures, "validity", f"machine {mi} job {job_id}",
                "job slot missing from the occupancy map",
            )


def _check_windows(failures, mi: int, machine: MachineSnapshot) -> None:
    for job_id, snap in machine.jobs.items():
        if snap.aligned is None:
            continue
        a_start, a_span = snap.aligned
        if not is_power_of_two(a_span) or a_start % a_span:
            _fail(failures, "level", f"machine {mi} job {job_id}",
                  f"aligned window ({a_start}, span {a_span}) is not aligned")
        if snap.effective is None:
            continue
        e_start, e_span = snap.effective
        if e_start < a_start or e_start + e_span > a_start + a_span:
            _fail(failures, "level", f"machine {mi} job {job_id}",
                  "effective window escapes the aligned window")
        if snap.level is not None and level_of(e_span) != snap.level:
            _fail(failures, "level", f"machine {mi} job {job_id}",
                  f"span {e_span} is level {level_of(e_span)}, recorded {snap.level}")


def _tally(machine: MachineSnapshot):
    """One pass over the occupancy and one over each book's bindings.

    Returns (sizes, held, fulfilled): sizes maps each book level to its
    interval size; held and fulfilled are keyed by book key (level, index).
    held[key] is the set of the interval's slots that lower-level jobs
    occupy, i.e. the slots outside its allowance (missing when empty);
    fulfilled[key] counts the book's bound slots per window, in binding
    order.  O(jobs x levels + reservations)."""
    sizes = {level: level_threshold(level) for level in {lv for lv, _ in machine.books}}
    held: dict[tuple[int, int], set[int]] = {}
    if sizes:
        jobs = machine.jobs
        for slot, job_id in machine.occupancy.items():
            snap = jobs.get(job_id)
            if snap is None or snap.level is None:
                continue
            for level, size in sizes.items():
                if level > snap.level:
                    key = (level, slot // size)
                    slots = held.get(key)
                    if slots is None:
                        held[key] = {slot}
                    else:
                        slots.add(slot)
    fulfilled: dict[tuple[int, int], dict[WindowKey, int]] = {}
    for key, book in machine.books.items():
        counts = fulfilled[key] = {}
        for wkey in book.bound.values():
            counts[wkey] = counts.get(wkey, 0) + 1
    return sizes, held, fulfilled


def _priority_prefix(res: dict[WindowKey, int], lo: int, hi: int, capacity: int):
    """The fulfilled counts the shortest-window-first priority dictates
    (windows with none left out), or None when a reserving window does not
    contain the interval [lo, hi)."""
    expected = {}
    remaining = capacity
    for wkey in sorted(res):
        span, start = wkey
        if start > lo or start + span < hi:
            return None
        expect = min(res[wkey], max(remaining, 0))
        remaining -= expect
        if expect:
            expected[wkey] = expect
    return expected


def _check_books(failures, mi: int, machine: MachineSnapshot, sizes, held_by_book,
                 fulfilled_by_book) -> None:
    for key, book in machine.books.items():
        level, index = key
        size = sizes[level]
        lo, hi = index * size, (index + 1) * size
        held = held_by_book.get(key, _NO_SLOTS)
        fulfilled = fulfilled_by_book[key]
        capacity = size - len(held)
        # A clean book is settled by C-level operations over its slots; only
        # a faulty one runs the per-slot loops that word the failures.
        bound = book.bound
        if (
            not bound
            or (lo <= min(bound) and max(bound) < hi and bound.keys().isdisjoint(held))
        ) and fulfilled == _priority_prefix(book.res, lo, hi, capacity):
            continue
        subject = f"machine {mi} interval L{level}[{index}]"
        for slot in book.bound:
            if not lo <= slot < hi:
                _fail(failures, "allowance", subject, f"bound slot {slot} outside the interval")
            # An occupant missing from jobs is _check_validity's to report.
            occ = machine.jobs.get(machine.occupancy.get(slot))
            if occ is not None and occ.level is not None and occ.level < level:
                _fail(failures, "allowance", subject,
                      f"slot {slot} is outside the allowance (level-{occ.level} job) yet bound")
        for wkey, count in fulfilled.items():
            if count > book.res.get(wkey, 0):
                _fail(failures, "allowance", subject,
                      f"window {wkey} holds {count} slots but {book.res.get(wkey, 0)} reservations")
        for wkey in book.res:
            span, start = wkey
            if not (start <= lo and start + span >= hi):
                _fail(failures, "allowance", subject,
                      f"reserving window {wkey} does not contain the interval")
        # Fulfillment must be exactly the shortest-window-first prefix of the
        # reservation multiset under the allowance capacity.
        remaining = capacity
        for wkey in sorted(book.res):
            expect = min(book.res[wkey], max(remaining, 0))
            remaining -= expect
            if fulfilled.get(wkey, 0) != expect:
                _fail(failures, "priority", subject,
                      f"window {wkey} has {fulfilled.get(wkey, 0)} fulfilled, "
                      f"priority order dictates {expect} (capacity {capacity})")


def _check_groups(failures, mi: int, machine: MachineSnapshot, fulfilled_by_book) -> None:
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
            key = (level, index)
            book = machine.books.get(key)
            if book is None:
                _fail(failures, "invariant1", subject, f"interval {index} has no book")
                totals.append(0)
                continue
            totals.append(book.res.get(wkey, 0))
            fulfilled_total += fulfilled_by_book[key].get(wkey, 0)
        if sum(totals) != 2 * x + count:
            _fail(failures, "invariant1", subject,
                  f"{sum(totals)} reservations for {x} jobs; expected {2 * x + count}")
        q, r = divmod(2 * x, count)
        for pos, total in enumerate(totals):
            expect = q + 2 if pos < r else q + 1
            if total != expect:
                _fail(failures, "invariant1", subject,
                      f"interval position {pos} holds {total} reservations, expected {expect}")
        if fulfilled_total < x + 1:
            _fail(failures, "reservation-space", subject,
                  f"only {fulfilled_total} fulfilled reservations for {x} jobs")
        # Every job of the group must occupy a slot bound to this window.
        for job_id in members:
            snap = machine.jobs.get(job_id)
            if snap is None or snap.slot is None:
                _fail(failures, "job-binding", subject, f"group member {job_id} is not placed")
                continue
            book = machine.books.get((level, snap.slot // size))
            if book is None or book.bound.get(snap.slot) != wkey:
                _fail(failures, "job-binding", subject,
                      f"job {job_id} sits at slot {snap.slot} without a fulfilled "
                      f"reservation of its window")


def _check_balance(failures, snapshot: FleetSnapshot) -> None:
    m = snapshot.config.machines
    counts: dict[tuple[int, int], list[int]] = {}
    for mi, machine in enumerate(snapshot.machines):
        for snap in machine.jobs.values():
            key = snap.effective if snap.effective is not None else snap.window
            counts.setdefault(key, [0] * m)[mi] += 1
    for key, per_machine in sorted(counts.items()):
        n = sum(per_machine)
        q, r = divmod(n, m)
        for mi, c in enumerate(per_machine):
            expect = q + 1 if mi < r else q
            if c != expect:
                _fail(failures, "balance", f"window {key}",
                      f"machine {mi} holds {c} jobs of the window, expected {expect} "
                      f"(extras on the earliest machines)")
                break


def audit(
    snapshot: FleetSnapshot, level: str = "invariants", gamma: int | None = None
) -> list[AuditFailure]:
    """Run every structural check at the requested level; failures are
    returned as data, never raised.  Never mutates the snapshot."""
    if level == "off":
        return []
    if gamma is None:
        gamma = snapshot.config.gamma
    failures: list[AuditFailure] = []
    for mi, machine in enumerate(snapshot.machines):
        _check_validity(failures, mi, machine)
        _check_windows(failures, mi, machine)
        sizes, held, fulfilled = _tally(machine)
        _check_books(failures, mi, machine, sizes, held, fulfilled)
        _check_groups(failures, mi, machine, fulfilled)
    if snapshot.delegated:
        _check_balance(failures, snapshot)
    if level != "full-oracle":
        return failures

    originals = [
        Job(job_id, Window(lo, hi))
        for job_id, (lo, hi) in sorted(snapshot.original_windows.items())
    ]
    if originals and not underallocated(originals, snapshot.config.machines, gamma):
        _fail(failures, "underallocated-global", "active set",
              f"original windows are not {gamma}-underallocated on "
              f"{snapshot.config.machines} machines")
    per_machine_gamma = max(1, gamma // 24)
    effective_all: list[Job] = []
    for mi, machine in enumerate(snapshot.machines):
        jobs = [
            Job(job_id, Window(*snap.window)) for job_id, snap in sorted(machine.jobs.items())
        ]
        effective_all.extend(jobs)
        if not jobs:
            continue
        if not edf_feasible(jobs, 1).feasible:
            _fail(failures, "feasible-per-machine", f"machine {mi}",
                  "effective windows admit no single-machine schedule")
        if not underallocated(jobs, 1, per_machine_gamma):
            _fail(failures, "underallocated-per-machine", f"machine {mi}",
                  f"machine set is not {per_machine_gamma}-underallocated")
    if snapshot.kind == "reservation" and effective_all:
        bound_gamma = max(1, gamma // 4)
        if not audit_counting_bound(effective_all, snapshot.config.machines, bound_gamma):
            _fail(failures, "counting-bound", "active set",
                  f"some window overlaps more than m*span/{bound_gamma} jobs")
    return failures


@dataclass
class ReplayResult:
    records: list
    outcomes: list
    failures: list[AuditFailure]
    error: tuple[int, SchedulerError] | None = None
    downgraded: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and not self.failures


def replay(scheduler, requests, audit_level: str = "off") -> ReplayResult:
    """Feed requests through a scheduler facade, auditing between requests.

    Stops at the first scheduler error (surfaced with its request index).
    Full-oracle audits degrade to invariants while more than
    FULL_ORACLE_JOB_CAP jobs are active.
    """
    result = ReplayResult(records=[], outcomes=[], failures=[])
    for index, request in enumerate(requests):
        try:
            outcome = scheduler.apply(request)
        except SchedulerError as exc:
            result.error = (index, exc)
            return result
        result.records.append(outcome.record)
        result.outcomes.append(outcome)
        level = audit_level
        if level == "full-oracle" and outcome.record.n > FULL_ORACLE_JOB_CAP:
            level = "invariants"
            result.downgraded = True
        if level != "off":
            for failure in audit(scheduler.snapshot(), level):
                result.failures.append(dataclasses.replace(failure, request_index=index))
    return result
