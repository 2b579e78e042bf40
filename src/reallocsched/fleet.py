"""Multi-machine facade: aligns incoming windows, delegates jobs round-robin
per window across machines (at most one migration per request), and keeps a
single global capacity estimate so trimming is consistent fleet-wide."""

from __future__ import annotations

from dataclasses import dataclass

from .alignment import AlignedWindow, align_window, trim_window
from .core import (
    Assignment,
    Config,
    CostLedger,
    DuplicateJobId,
    Move,
    Request,
    RequestRecord,
    SpanMax,
    UnknownJobId,
    Window,
    merge_moves,
)
from .reservation import MachineSchedule, MachineSnapshot, capacity_step, trim_bound

WindowKey = tuple[int, int]  # (span, start) of the effective aligned window


@dataclass
class FleetSnapshot:
    kind: str
    config: Config
    nstar: int
    machines: list[MachineSnapshot]
    #: Original (as-submitted) windows, for oracle-level audits.
    original_windows: dict[str, tuple[int, int]]
    #: True when the scheduler maintains the per-window round-robin balance.
    delegated: bool = True


@dataclass(frozen=True)
class RequestOutcome:
    index: int
    request: Request
    moved: tuple[Move, ...]
    rebuild_moved: tuple[Move, ...]
    record: RequestRecord


@dataclass(slots=True)
class _FleetJob:
    window: Window
    aligned: AlignedWindow
    machine: int
    wkey: WindowKey  # set on insert, refreshed by every capacity rebuild

    # Pickled as constructor arguments: the default state of a slotted
    # object is a fresh dict per job, which the pickler keeps until the dump
    # ends (+9 MB resident after pickling a 6000-job fleet).
    def __reduce__(self):
        return _FleetJob, (self.window, self.aligned, self.machine, self.wkey)


class Fleet:
    """The reservation scheduler's public facade.

    apply(request) -> RequestOutcome; snapshot() and ledger() expose state
    for auditing.  Requests are processed strictly sequentially.
    """

    kind = "reservation"

    def __init__(self, config: Config):
        self.config = config
        self.nstar = 1
        self.machines = [MachineSchedule(config.gamma) for _ in range(config.machines)]
        self.jobs: dict[str, _FleetJob] = {}
        # Original spans of self.jobs, for the ledger's delta column.
        self._spans = SpanMax()
        # Delegation-ordered member ids, per window per machine; a window's
        # round-robin position is its total member count modulo m.
        self.members: dict[WindowKey, list[list[str]]] = {}
        self._ledger = CostLedger()

    # -- public surface ----------------------------------------------------

    def ledger(self) -> CostLedger:
        return self._ledger

    def apply(self, request: Request) -> RequestOutcome:
        if request.op == "insert":
            moved = self._insert(request.job_id, request.window)
        else:
            moved = self._delete(request.job_id)
        nstar_before = self.nstar
        rebuild_moved = self._capacity_sync()
        record = self._ledger.record_request(
            request.op,
            request.job_id,
            moved,
            n=len(self.jobs),
            delta=self._spans.max(),
            rebuild_moved=rebuild_moved,
            rebuilt=self.nstar != nstar_before,
        )
        return RequestOutcome(record.index, request, moved, rebuild_moved, record)

    def assignments(self) -> dict[str, Assignment]:
        out: dict[str, Assignment] = {}
        for mi, machine in enumerate(self.machines):
            for job_id, slot in machine.assignments().items():
                out[job_id] = Assignment(job_id, mi, slot)
        return out

    def snapshot(self) -> FleetSnapshot:
        return FleetSnapshot(
            kind=self.kind,
            config=self.config,
            nstar=self.nstar,
            machines=[m.snapshot() for m in self.machines],
            original_windows={
                job_id: (j.window.start, j.window.end) for job_id, j in self.jobs.items()
            },
        )

    # -- request handling ----------------------------------------------------

    def _trim_bound(self) -> int:
        return trim_bound(self.config.gamma, self.nstar)

    def _lift(self, machine: int, slot_moves) -> list[Move]:
        out: list[Move] = []
        for job_id, old, new in slot_moves:
            out.append((
                job_id,
                None if old is None else Assignment(job_id, machine, old),
                None if new is None else Assignment(job_id, machine, new),
            ))
        return out

    def _insert(self, job_id: str, window: Window) -> tuple[Move, ...]:
        if job_id in self.jobs:
            raise DuplicateJobId(f"job id {job_id!r} is already active")
        aligned = align_window(window)
        eff = trim_window(aligned, self._trim_bound())
        wkey = (eff.span, eff.start)
        mi = sum(map(len, self.members.get(wkey, ()))) % self.config.machines
        slot_moves = self.machines[mi].insert(job_id, aligned)
        self.jobs[job_id] = _FleetJob(window, aligned, mi, wkey)
        self._spans.add(window.span)
        lists = self.members.setdefault(
            wkey, [[] for _ in range(self.config.machines)]
        )
        lists[mi].append(job_id)
        return merge_moves(self._lift(mi, slot_moves))

    def _delete(self, job_id: str) -> tuple[Move, ...]:
        job = self.jobs.pop(job_id, None)
        if job is None:
            raise UnknownJobId(f"job id {job_id!r} is not active")
        self._spans.remove(job.window.span)
        wkey = job.wkey
        mi = job.machine
        moves = self._lift(mi, self.machines[mi].delete(job_id))
        self.members[wkey][mi].remove(job_id)
        n_new = sum(map(len, self.members[wkey]))
        if n_new == 0:
            del self.members[wkey]
            return merge_moves(moves)
        # Rebalance: extras sit on the earliest machines, so the machine at
        # the round-robin position of the post-delete count is the unique
        # possible donor.  One job migrates, or none if the deletion already
        # landed there.
        donor = n_new % self.config.machines
        if donor != mi:
            mover = self.members[wkey][donor][-1]  # most recently delegated
            moves += self._lift(donor, self.machines[donor].delete(mover))
            moves += self._lift(mi, self.machines[mi].insert(mover, self.jobs[mover].aligned))
            self.members[wkey][donor].pop()
            self.members[wkey][mi].append(mover)
            self.jobs[mover].machine = mi
        return merge_moves(moves)

    def _capacity_sync(self) -> tuple[Move, ...]:
        new = capacity_step(self.nstar, len(self.jobs))
        if new == self.nstar:
            return ()
        before = self.assignments()
        self.nstar = new
        bound = self._trim_bound()
        # Canonical re-delegation: group by trimmed window, delegate each
        # group round-robin in sorted-id order so extras land on the
        # earliest machines.
        grouped: dict[WindowKey, list[str]] = {}
        for job_id, job in self.jobs.items():
            eff = trim_window(job.aligned, bound)
            grouped.setdefault((eff.span, eff.start), []).append(job_id)
        self.members = {}
        per_machine: list[list[tuple[str, AlignedWindow]]] = [
            [] for _ in range(self.config.machines)
        ]
        for wkey in sorted(grouped):
            ids = sorted(grouped[wkey])
            lists = self.members.setdefault(
                wkey, [[] for _ in range(self.config.machines)]
            )
            for pos, job_id in enumerate(ids):
                mi = pos % self.config.machines
                job = self.jobs[job_id]
                lists[mi].append(job_id)
                per_machine[mi].append((job_id, job.aligned))
                job.machine, job.wkey = mi, wkey
        for mi, machine in enumerate(self.machines):
            machine.rebuild(per_machine[mi], new)
        after = self.assignments()
        moves: list[Move] = []
        for job_id in sorted(before):
            if before[job_id] != after[job_id]:
                moves.append((job_id, before[job_id], after[job_id]))
        return tuple(moves)
