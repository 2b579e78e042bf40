"""Single-machine reallocating scheduler with per-interval reservations.

Jobs are grouped by level (a tower-function partition of window spans).  A
level-l window W that currently holds x jobs keeps exactly 2x + 2^k
reservations spread round-robin over the 2^k level-l intervals it covers:
one pinned base reservation per interval plus two per job, with the
leftmost intervals holding the most.  Each interval fulfills reservations
out of its allowance (the slots not occupied by lower-level jobs), shortest
window first; the rest are waitlisted.  Scheduling is pecking-order: a job
may sit on, and displace, a higher-level job, never the other way around.

Insertion makes the window's two new reservations, then places the job into
a fulfilled slot free of same-level jobs.  Deletion retracts one
reservation from each of the two rightmost most-loaded intervals and frees
the slot, which may promote waitlisted reservations without moving anyone.
Movement happens only when a job loses the fulfilled slot it occupies; it
then relocates into another fulfilled slot of its own window, swapping the
two slots inside every enclosing higher-level interval so allowances are
unchanged.

Window spans are trimmed to at most 2 * gamma * nstar slots, where nstar is
a doubling/halving estimate of the active job count; every change of nstar
rebuilds the schedule from scratch (amortized O(1) moves per request).

All guarantees are conditional on the instance being sufficiently
underallocated.  When that precondition is violated the structure raises
NoFulfilledSlot rather than degrading; the schedule should be discarded
afterwards.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

from .alignment import (
    LEVEL_CAP,
    AlignedWindow,
    floor_power_of_two,
    level_of,
    level_threshold,
    trim_window,
)
from .core import DuplicateJobId, NoFulfilledSlot, UnknownJobId

# A window key orders by (span, start): exactly the fulfillment priority.
WindowKey = tuple[int, int]

# Machine-local movement: (job_id, old slot or None, new slot or None).
SlotMove = tuple[str, int | None, int | None]


def trim_bound(gamma: int, nstar: int) -> int:
    """The largest effective window span at capacity estimate nstar."""
    return 2 * gamma * nstar


def capacity_step(nstar: int, n: int) -> int:
    """Double nstar while n exceeds it; halve (floor 1) while n < nstar/4."""
    new = nstar
    while n > new:
        new *= 2
    while new > 1 and 4 * n < new:
        new //= 2
    return new


def displace_longer(jobs: dict, occ: dict[int, str], job, start: int, end: int):
    """Every slot of the job's window [start, end) is taken: give the job the
    leftmost slot whose occupant has the smallest span of at least twice the
    window's, and return that occupant, now without a slot.  Returns None,
    changing nothing, when no occupant is that long.  The level-0 cascade
    and the naive baseline share this rule; jobs expose job_id, slot and
    span."""
    span = end - start
    best_slot = None
    best_span = None
    for slot in range(start, end):
        vspan = jobs[occ[slot]].span
        if vspan >= 2 * span and (best_span is None or vspan < best_span):
            best_slot, best_span = slot, vspan
    if best_slot is None:
        return None
    victim = jobs[occ[best_slot]]
    victim.slot = None
    occ[best_slot] = job.job_id
    job.slot = best_slot
    return victim


@dataclass
class _ActiveJob:
    job_id: str
    aligned: AlignedWindow
    wkey: WindowKey  # effective (trimmed) window as (span, start)
    level: int
    slot: int | None = None

    @property
    def span(self) -> int:
        return self.wkey[0]


class _Book:
    """Reservation book of one level-l interval."""

    __slots__ = ("level", "index", "lo", "hi", "res", "bound", "by_window")

    def __init__(self, level: int, index: int):
        self.level = level
        self.index = index
        size = level_threshold(level)
        self.lo = index * size
        self.hi = self.lo + size
        self.res: dict[WindowKey, int] = {}  # total reservations per window
        self.bound: dict[int, WindowKey] = {}  # fulfilled slot -> window
        self.by_window: dict[WindowKey, list[int]] = {}  # window -> sorted fulfilled slots

    def fulfilled(self, wkey: WindowKey) -> int:
        return len(self.by_window.get(wkey, ()))


@dataclass
class JobSnap:
    job_id: str
    window: tuple[int, int]  # half-open range the job must occupy
    aligned: tuple[int, int] | None  # (start, span)
    effective: tuple[int, int] | None  # (start, span)
    level: int | None
    slot: int


@dataclass
class BookSnap:
    level: int
    index: int
    res: dict[WindowKey, int]
    bound: dict[int, WindowKey]


@dataclass
class MachineSnapshot:
    gamma: int
    nstar: int
    jobs: dict[str, JobSnap]
    occupancy: dict[int, str]
    groups: dict[WindowKey, tuple[str, ...]]
    books: dict[tuple[int, int], BookSnap]


class MachineSchedule:
    """One machine's schedule; mutated by one thread at a time."""

    def __init__(self, gamma: int):
        if gamma < 1:
            raise ValueError("gamma must be an integer >= 1")
        self.gamma = gamma
        self.nstar = 1
        self._jobs: dict[str, _ActiveJob] = {}
        self._occ: dict[int, str] = {}
        self._groups: dict[WindowKey, set[str]] = {}
        self._books: dict[tuple[int, int], _Book] = {}
        self._moves: list[SlotMove] = []

    # -- public surface ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._jobs)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._jobs

    def effective_window(self, aligned: AlignedWindow) -> AlignedWindow:
        return trim_window(aligned, trim_bound(self.gamma, self.nstar))

    def assignments(self) -> dict[str, int]:
        return {job_id: job.slot for job_id, job in self._jobs.items()}

    def insert(self, job_id: str, aligned: AlignedWindow) -> list[SlotMove]:
        """Insert an aligned job; returns every (job, old, new) slot change.

        The caller guarantees the active set stays sufficiently
        underallocated; a violated guarantee surfaces as NoFulfilledSlot.
        """
        if job_id in self._jobs:
            raise DuplicateJobId(f"job id {job_id!r} is already active")
        self._moves = []
        eff = self.effective_window(aligned)
        level = level_of(eff.span)
        if level > LEVEL_CAP:
            raise ValueError(f"effective span {eff.span} exceeds the supported scale")
        job = _ActiveJob(job_id, aligned, (eff.span, eff.start), level)
        self._jobs[job_id] = job
        if level == 0:
            self._insert_level0(job, None)
        else:
            self._insert_reserved(job)
        return self._moves

    def delete(self, job_id: str) -> list[SlotMove]:
        job = self._jobs.pop(job_id, None)
        if job is None:
            raise UnknownJobId(f"job id {job_id!r} is not active")
        self._moves = []
        self._note(job_id, job.slot, None)
        self._vacate(job)
        if job.level >= 1:
            members = self._groups[job.wkey]
            members.discard(job_id)
            if members:
                self._retract_two(job.wkey, job.level, x_old=len(members) + 1)
            else:
                del self._groups[job.wkey]
                self._dissolve(job.wkey, job.level)
        return self._moves

    def rebuild(self, items, nstar: int) -> None:
        """Re-insert `items` of (job_id, aligned window) into a fresh
        schedule trimmed for `nstar`, shortest effective span first so no
        insertion steals.  The only writer of nstar: the fleet owns the
        estimate and rebuilds every machine when it changes."""
        self.nstar = nstar
        self._jobs = {}
        self._occ = {}
        self._groups = {}
        self._books = {}
        cap = floor_power_of_two(trim_bound(self.gamma, nstar))
        order = sorted(items, key=lambda it: (min(it[1].span, cap), it[1].start, it[0]))
        for job_id, aligned in order:
            self.insert(job_id, aligned)
        self._moves = []

    def fulfilled_profile(self) -> dict[tuple[tuple[int, int], int], int]:
        """Canonical ((window start, span), interval index) -> fulfilled
        count; identical across insertion orders of the same job multiset."""
        prof: dict[tuple[tuple[int, int], int], int] = {}
        for (span, start), _members in self._groups.items():
            level = level_of(span)
            size = level_threshold(level)
            for index in range(start // size, (start + span) // size):
                book = self._books[(level, index)]
                prof[((start, span), index)] = book.fulfilled((span, start))
        return prof

    def snapshot(self) -> MachineSnapshot:
        jobs = {
            job_id: JobSnap(
                job_id=job_id,
                window=(job.wkey[1], job.wkey[1] + job.wkey[0]),
                aligned=(job.aligned.start, job.aligned.span),
                effective=(job.wkey[1], job.wkey[0]),
                level=job.level,
                slot=job.slot,
            )
            for job_id, job in self._jobs.items()
        }
        books = {
            key: BookSnap(b.level, b.index, dict(b.res), dict(b.bound))
            for key, b in self._books.items()
        }
        groups = {w: tuple(sorted(ids)) for w, ids in self._groups.items()}
        return MachineSnapshot(
            gamma=self.gamma,
            nstar=self.nstar,
            jobs=jobs,
            occupancy=dict(self._occ),
            groups=groups,
            books=books,
        )

    # -- reservation machinery ---------------------------------------------

    def _note(self, job_id: str, old: int | None, new: int | None) -> None:
        self._moves.append((job_id, old, new))

    def _book(self, level: int, index: int) -> _Book:
        book = self._books.get((level, index))
        if book is None:
            book = self._books[(level, index)] = _Book(level, index)
        return book

    def _insert_reserved(self, job: _ActiveJob) -> None:
        wkey = job.wkey
        span, start = wkey
        size = level_threshold(job.level)
        base = start // size
        count = span // size
        members = self._groups.get(wkey)
        if members is None:
            members = self._groups[wkey] = set()
            for index in range(base, base + count):
                self._reserve(self._book(job.level, index), wkey)
        x_old = len(members)
        # Two new reservations go to the leftmost intervals holding the
        # fewest of this window's reservations.  r = 2x mod 2^k is even, so
        # positions r and r+1 both exist.
        r = (2 * x_old) % count
        self._reserve(self._book(job.level, base + r), wkey)
        self._reserve(self._book(job.level, base + r + 1), wkey)
        members.add(job.job_id)
        self._place(job, None)

    def _reserve(self, book: _Book, wkey: WindowKey) -> None:
        """Add one reservation for wkey in this interval, fulfilling it when
        allowed by the shortest-window-first priority."""
        book.res[wkey] = book.res.get(wkey, 0) + 1
        self._grant(book, wkey)

    def _grant(self, book: _Book, wkey: WindowKey) -> bool:
        """Bind one more slot for wkey if priority permits: use a free
        allowance slot, or steal from the longest fulfilled window.  Returns
        False when the reservation stays waitlisted."""
        free = self._free_slot(book)
        if free is not None:
            self._bind(book, wkey, free)
            return True
        victim = self._longest_bound(book)
        if victim is None or victim <= wkey:
            return False
        slot = self._steal_slot(book, victim)
        self._unbind(book, victim, slot)
        self._bind(book, wkey, slot)
        mover = self._same_level_occupant(book, slot)
        if mover is not None:
            self._move(mover)
        return True

    def _free_slot(self, book: _Book) -> int | None:
        """Leftmost unassigned slot of the interval's allowance."""
        for slot in range(book.lo, book.hi):
            if slot in book.bound:
                continue
            occ_id = self._occ.get(slot)
            if occ_id is None or self._jobs[occ_id].level >= book.level:
                return slot
        return None

    def _longest_bound(self, book: _Book) -> WindowKey | None:
        longest = None
        for wkey, slots in book.by_window.items():
            if slots and (longest is None or wkey > longest):
                longest = wkey
        return longest

    def _steal_slot(self, book: _Book, wkey: WindowKey) -> int:
        """Pick which of wkey's fulfilled slots to surrender: prefer one that
        holds no same-level job, so nothing has to move."""
        slots = book.by_window[wkey]
        for slot in slots:
            if self._same_level_occupant(book, slot) is None:
                return slot
        return slots[0]

    def _same_level_occupant(self, book: _Book, slot: int) -> _ActiveJob | None:
        occ_id = self._occ.get(slot)
        if occ_id is None:
            return None
        job = self._jobs[occ_id]
        return job if job.level == book.level else None

    def _bind(self, book: _Book, wkey: WindowKey, slot: int) -> None:
        book.bound[slot] = wkey
        insort(book.by_window.setdefault(wkey, []), slot)

    def _unbind(self, book: _Book, wkey: WindowKey, slot: int) -> None:
        del book.bound[slot]
        book.by_window[wkey].remove(slot)

    def _refulfill(self, book: _Book) -> None:
        """Promote waitlisted reservations (shortest window first) into free
        allowance slots; never moves a job."""
        while True:
            wkey = None
            for w, total in book.res.items():
                if total > book.fulfilled(w) and (wkey is None or w < wkey):
                    wkey = w
            if wkey is None:
                return
            free = self._free_slot(book)
            if free is None:
                return
            self._bind(book, wkey, free)

    def _shrink(self, book: _Book, slot: int) -> None:
        """Slot left this interval's allowance; re-home or waitlist the
        reservation bound there."""
        wkey = book.bound.pop(slot, None)
        if wkey is None:
            return
        book.by_window[wkey].remove(slot)
        self._grant(book, wkey)

    def _find_home(self, job: _ActiveJob) -> int | None:
        """Leftmost fulfilled slot of the job's window free of same-level
        jobs (it may hold a higher-level job)."""
        span, start = job.wkey
        size = level_threshold(job.level)
        for index in range(start // size, (start + span) // size):
            book = self._books[(job.level, index)]
            for slot in book.by_window.get(job.wkey, ()):
                occ_id = self._occ.get(slot)
                if occ_id is None or self._jobs[occ_id].level != job.level:
                    return slot
        return None

    def _place(self, job: _ActiveJob, displaced_from: int | None) -> None:
        slot = self._find_home(job)
        if slot is None:
            span, start = job.wkey
            raise NoFulfilledSlot(
                f"window [{start}, {start + span}) has no fulfilled slot free "
                f"of level-{job.level} jobs; the instance is not sufficiently "
                f"underallocated",
                window=(start, start + span),
            )
        displaced = self._occupy(slot, job)
        self._note(job.job_id, displaced_from, slot)
        if displaced is not None:
            self._place(displaced, displaced_from=slot)

    def _occupy(self, slot: int, job: _ActiveJob) -> _ActiveJob | None:
        """Put the job into the slot, displacing at most one strictly
        higher-level occupant; shrink the allowances that lose the slot."""
        prev = None
        occ_id = self._occ.get(slot)
        if occ_id is not None:
            prev = self._jobs[occ_id]
            assert prev.level > job.level, "pecking order violated"
            prev.slot = None
        self._occ[slot] = job.job_id
        job.slot = slot
        # The slot was in allowances up to the displaced job's level (or all
        # levels if it was empty); those books lose it now.
        hi = prev.level if prev is not None else LEVEL_CAP
        for level in range(job.level + 1, hi + 1):
            book = self._books.get((level, slot // level_threshold(level)))
            if book is not None:
                self._shrink(book, slot)
        return prev

    def _vacate(self, job: _ActiveJob) -> None:
        """Free the job's slot; enclosing allowances grow and may promote
        one waitlisted reservation each, moving nothing."""
        slot = job.slot
        del self._occ[slot]
        job.slot = None
        for level in range(job.level + 1, LEVEL_CAP + 1):
            book = self._books.get((level, slot // level_threshold(level)))
            if book is not None:
                self._refulfill(book)

    def _move(self, job: _ActiveJob) -> None:
        """The job lost the fulfilled slot it occupies: relocate it into
        another fulfilled slot of its window, swapping the two slots inside
        every enclosing higher-level interval (net-zero allowance change).
        If the target held a higher-level job, that job takes the vacated
        slot; no further recursion."""
        old = job.slot
        new = self._find_home(job)
        if new is None:
            span, start = job.wkey
            raise NoFulfilledSlot(
                f"window [{start}, {start + span}) has no fulfilled slot to "
                f"move a displaced job into; the instance is not sufficiently "
                f"underallocated",
                window=(start, start + span),
            )
        higher_id = self._occ.get(new)
        self._occ[new] = job.job_id
        job.slot = new
        self._note(job.job_id, old, new)
        if higher_id is not None:
            higher = self._jobs[higher_id]
            self._occ[old] = higher_id
            higher.slot = old
            self._note(higher_id, new, old)
        else:
            del self._occ[old]
        # Both slots lie inside the job's window, hence inside one interval
        # at every higher level: swap their bindings there.
        for level in range(job.level + 1, LEVEL_CAP + 1):
            size = level_threshold(level)
            assert old // size == new // size
            book = self._books.get((level, old // size))
            if book is None:
                continue
            b_old = book.bound.pop(old, None)
            b_new = book.bound.pop(new, None)
            if b_old is not None:
                book.by_window[b_old].remove(old)
            if b_new is not None:
                book.by_window[b_new].remove(new)
            if b_old is not None:
                self._bind(book, b_old, new)
            if b_new is not None:
                self._bind(book, b_new, old)

    # -- deletion helpers ---------------------------------------------------

    def _retract_two(self, wkey: WindowKey, level: int, x_old: int) -> None:
        """Remove one reservation from each of the two rightmost intervals
        holding the most of this window's reservations."""
        span, start = wkey
        size = level_threshold(level)
        base = start // size
        count = span // size
        r = (2 * x_old) % count
        positions = (r - 1, r - 2) if r >= 2 else (count - 1, count - 2)
        for pos in positions:
            book = self._books[(level, base + pos)]
            bound_slots = book.by_window.get(wkey, [])
            if book.res[wkey] > len(bound_slots):
                book.res[wkey] -= 1  # a waitlisted reservation; nothing moves
                continue
            slot = next(
                (s for s in bound_slots if self._same_level_occupant(book, s) is None),
                bound_slots[0],
            )
            self._unbind(book, wkey, slot)
            book.res[wkey] -= 1
            mover = self._same_level_occupant(book, slot)
            if mover is not None:
                self._move(mover)
            self._refulfill(book)

    def _dissolve(self, wkey: WindowKey, level: int) -> None:
        """The window's last job left: retract everything, promoting other
        windows' waitlisted reservations into the freed slots."""
        span, start = wkey
        size = level_threshold(level)
        for index in range(start // size, (start + span) // size):
            book = self._books[(level, index)]
            del book.res[wkey]
            for slot in list(book.by_window.get(wkey, ())):
                self._unbind(book, wkey, slot)
            book.by_window.pop(wkey, None)
            self._refulfill(book)
            if not book.res:
                del self._books[(level, index)]

    # -- level 0: bounded naive cascade --------------------------------------

    def _insert_level0(self, job: _ActiveJob, displaced_from: int | None) -> None:
        """Spans <= 32 cascade the naive way: take a slot free of level-0
        jobs (preferring a truly empty one), else displace a level-0 job of
        at least twice the span and reinsert it.  At most lg 32 = 5 steps."""
        span, start = job.wkey
        end = start + span
        target = None
        fallback = None
        for slot in range(start, end):
            occ_id = self._occ.get(slot)
            if occ_id is None:
                target = slot
                break
            if fallback is None and self._jobs[occ_id].level >= 1:
                fallback = slot
        if target is None:
            target = fallback
        if target is not None:
            displaced = self._occupy(target, job)
            self._note(job.job_id, displaced_from, target)
            if displaced is not None:
                self._place(displaced, displaced_from=target)
            return
        victim = displace_longer(self._jobs, self._occ, job, start, end)
        if victim is None:
            raise NoFulfilledSlot(
                f"window [{start}, {end}) is full of jobs with span < "
                f"{2 * span}; the instance is not sufficiently underallocated",
                window=(start, end),
            )
        self._note(job.job_id, displaced_from, job.slot)
        self._insert_level0(victim, displaced_from=job.slot)
