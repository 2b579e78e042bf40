"""Core domain types: windows, jobs, assignments, requests, cost accounting."""

from __future__ import annotations

import csv
import heapq
import io
from dataclasses import dataclass, field


class SchedulerError(Exception):
    """Base class for scheduling failures."""


class NoFulfilledSlot(SchedulerError):
    """No fulfilled, same-level-free slot exists for a window.

    Signals that the slack (underallocation) precondition of the caller was
    violated; carries the offending window for diagnosis.
    """

    def __init__(self, message: str, *, window=None, detail: str | None = None):
        super().__init__(message)
        self.window = window
        self.detail = detail


class Infeasible(SchedulerError):
    """The active job set admits no valid schedule."""


class UnknownJobId(SchedulerError):
    """Delete targeted a job id that is not active."""


class DuplicateJobId(SchedulerError):
    """Insert targeted a job id that is already active."""


class InstanceTooLarge(SchedulerError):
    """Instance exceeds the enumeration guard of a brute-force oracle."""


class TraceFormatError(SchedulerError):
    """A trace file or trace line could not be parsed."""


@dataclass(frozen=True, order=True)
class Window:
    """Half-open slot range [start, end); a unit job occupies one slot of it."""

    start: int
    end: int

    def __post_init__(self):
        if self.start < 0:
            raise ValueError(f"window start must be >= 0, got {self.start}")
        if self.end <= self.start:
            raise ValueError(f"window end must exceed start: [{self.start}, {self.end})")

    @property
    def span(self) -> int:
        return self.end - self.start

    def __contains__(self, slot: object) -> bool:
        return isinstance(slot, int) and self.start <= slot < self.end


@dataclass(frozen=True)
class Job:
    id: str
    window: Window


@dataclass(frozen=True)
class Assignment:
    """A (machine, slot) pair currently holding a job."""

    job_id: str
    machine: int
    slot: int


@dataclass(frozen=True)
class Request:
    op: str  # "insert" | "delete"
    job_id: str
    window: Window | None = None

    def __post_init__(self):
        if self.op not in ("insert", "delete"):
            raise ValueError(f"unknown request op {self.op!r}")
        if self.op == "insert" and self.window is None:
            raise ValueError("insert request needs a window")
        if self.op == "delete" and self.window is not None:
            raise ValueError("delete request carries no window")


def insert_request(job_id: str, start: int, end: int) -> Request:
    return Request("insert", job_id, Window(start, end))


def delete_request(job_id: str) -> Request:
    return Request("delete", job_id)


@dataclass(frozen=True)
class Config:
    machines: int = 1
    gamma: int = 1

    def __post_init__(self):
        if self.machines < 1:
            raise ValueError("machine count must be >= 1")
        if self.gamma < 1:
            raise ValueError("gamma must be an integer >= 1")


# One entry of a moved-set: (job_id, assignment before, assignment after).
# The inserted job's first placement has old=None; a deleted job's removal
# has new=None; neither counts toward reallocation cost.
Move = tuple[str, Assignment | None, Assignment | None]


def merge_moves(moves: list[Move]) -> tuple[Move, ...]:
    """Net consecutive relocations of the same job within one request.

    Keeps the first `old` and the last `new`; drops jobs that ended where
    they started.
    """
    net: dict[str, list[Assignment | None]] = {}
    for job_id, old, new in moves:
        if job_id in net:
            net[job_id][1] = new
        else:
            net[job_id] = [old, new]
    out = []
    for job_id, (old, new) in net.items():
        if old == new:
            continue
        out.append((job_id, old, new))
    out.sort(key=lambda m: m[0])
    return tuple(out)


def _count_costs(moved: tuple[Move, ...]) -> tuple[int, int]:
    realloc = 0
    migr = 0
    for _, old, new in moved:
        if old is None or new is None:
            continue  # first placement / removal is free
        if (old.machine, old.slot) != (new.machine, new.slot):
            realloc += 1
            if old.machine != new.machine:
                migr += 1
    return realloc, migr


class SpanMax:
    """Largest span in a multiset of spans under add and remove, in O(log d)
    amortized per change for d distinct live spans: a live count per span
    plus a lazy max-heap of distinct spans.  Entries of spans whose count
    fell to zero are dropped when they reach the top, and the heap is
    rebuilt from the live spans once such stale entries outnumber the live
    ones, so its size follows the live distinct spans."""

    __slots__ = ("_count", "_heap")

    def __init__(self):
        self._count: dict[int, int] = {}
        self._heap: list[int] = []  # negated spans, live or stale

    def add(self, span: int) -> None:
        count = self._count.get(span, 0)
        self._count[span] = count + 1
        if count == 0:
            heapq.heappush(self._heap, -span)
            self._compact()

    def remove(self, span: int) -> None:
        count = self._count[span] - 1
        if count:
            self._count[span] = count
        else:
            del self._count[span]
            self._compact()

    def max(self) -> int:
        """The largest live span, or 0 when there is none."""
        heap = self._heap
        while heap and -heap[0] not in self._count:
            heapq.heappop(heap)
        return -heap[0] if heap else 0

    def _compact(self) -> None:
        if len(self._heap) > 2 * len(self._count):
            self._heap = [-span for span in self._count]
            heapq.heapify(self._heap)


@dataclass(frozen=True)
class RequestRecord:
    """Per-request cost snapshot: n and max-span after the request, plus the
    reallocation/migration counts, with rebuild-attributed movement split out."""

    index: int
    op: str
    job_id: str
    n: int
    delta: int
    reallocations: int
    migrations: int
    rebuild_reallocations: int = 0
    rebuild_migrations: int = 0
    rebuilt: bool = False


CSV_FIELDS = (
    "index", "op", "job_id", "n", "delta", "reallocations", "migrations",
    "rebuild_reallocations", "rebuild_migrations", "rebuilt",
)


@dataclass
class CostLedger:
    rows: list[RequestRecord] = field(default_factory=list)

    def record_request(
        self,
        op: str,
        job_id: str,
        moved: tuple[Move, ...],
        *,
        n: int,
        delta: int,
        rebuild_moved: tuple[Move, ...] = (),
        rebuilt: bool | None = None,
    ) -> RequestRecord:
        realloc, migr = _count_costs(moved)
        r_realloc, r_migr = _count_costs(rebuild_moved)
        rec = RequestRecord(
            index=len(self.rows),
            op=op,
            job_id=job_id,
            n=n,
            delta=delta,
            reallocations=realloc,
            migrations=migr,
            rebuild_reallocations=r_realloc,
            rebuild_migrations=r_migr,
            rebuilt=bool(rebuild_moved) if rebuilt is None else rebuilt,
        )
        self.rows.append(rec)
        return rec

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def total_reallocations(self) -> int:
        return sum(r.reallocations + r.rebuild_reallocations for r in self.rows)

    @property
    def total_migrations(self) -> int:
        return sum(r.migrations + r.rebuild_migrations for r in self.rows)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        for r in self.rows:
            writer.writerow([
                r.index, r.op, r.job_id, r.n, r.delta, r.reallocations,
                r.migrations, r.rebuild_reallocations, r.rebuild_migrations,
                int(r.rebuilt),
            ])
        return buf.getvalue()
