"""Reference schedulers sharing the fleet facade: the naive cascading
pecking-order scheduler (logarithmic cost per request on aligned feasible
instances) and a from-scratch EDF repacker (no cost guarantee; exists to
make the lower-bound adversaries observable)."""

from __future__ import annotations

from .alignment import AlignedWindow, level_of
from .core import (
    Assignment,
    Config,
    CostLedger,
    DuplicateJobId,
    Infeasible,
    Job,
    Request,
    SpanMax,
    UnknownJobId,
    Window,
    merge_moves,
)
from .feasibility import edf_feasible
from .fleet import Fleet, FleetSnapshot, RequestOutcome
from .reservation import JobSnap, MachineSnapshot, SlotMove, displace_longer


class _NaiveJob:
    __slots__ = ("job_id", "aligned", "slot")

    def __init__(self, job_id: str, aligned: AlignedWindow):
        self.job_id = job_id
        self.aligned = aligned
        self.slot: int | None = None

    @property
    def span(self) -> int:
        return self.aligned.span


class NaiveMachine:
    """Greedy cascade on one machine: place into any empty window slot, else
    displace a job of at least twice the span and reinsert it.  Cascades
    climb through strictly increasing spans, so cost is logarithmic on
    aligned feasible instances."""

    def __init__(self, gamma: int = 1):
        self.gamma = gamma
        self.nstar = 1
        self._jobs: dict[str, _NaiveJob] = {}
        self._occ: dict[int, str] = {}
        self._moves: list[SlotMove] = []

    def __len__(self) -> int:
        return len(self._jobs)

    def assignments(self) -> dict[str, int]:
        return {job_id: job.slot for job_id, job in self._jobs.items()}

    def insert(self, job_id: str, aligned: AlignedWindow) -> list[SlotMove]:
        if job_id in self._jobs:
            raise DuplicateJobId(f"job id {job_id!r} is already active")
        self._moves = []
        job = _NaiveJob(job_id, aligned)
        self._jobs[job_id] = job
        self._settle(job, None)
        return self._moves

    def delete(self, job_id: str) -> list[SlotMove]:
        job = self._jobs.pop(job_id, None)
        if job is None:
            raise UnknownJobId(f"job id {job_id!r} is not active")
        del self._occ[job.slot]
        return [(job_id, job.slot, None)]

    def _settle(self, job: _NaiveJob, displaced_from: int | None) -> None:
        w = job.aligned
        for slot in range(w.start, w.end):
            if slot not in self._occ:
                self._occ[slot] = job.job_id
                job.slot = slot
                self._moves.append((job.job_id, displaced_from, slot))
                return
        # Full window: displace the leftmost victim of the smallest span at
        # least twice ours.  No such victim means the instance is infeasible,
        # since everything in the window is stuck inside it.
        victim = displace_longer(self._jobs, self._occ, job, w.start, w.end)
        if victim is None:
            raise Infeasible(
                f"window [{w.start}, {w.end}) is full and holds no job of span "
                f">= {2 * w.span}; the instance is infeasible"
            )
        self._moves.append((job.job_id, displaced_from, job.slot))
        self._settle(victim, displaced_from=job.slot)

    def snapshot(self) -> MachineSnapshot:
        jobs = {
            job_id: JobSnap(
                job_id=job_id,
                window=(job.aligned.start, job.aligned.end),
                aligned=(job.aligned.start, job.aligned.span),
                effective=(job.aligned.start, job.aligned.span),
                level=level_of(job.aligned.span),
                slot=job.slot,
            )
            for job_id, job in self._jobs.items()
        }
        return MachineSnapshot(
            gamma=self.gamma,
            nstar=self.nstar,
            jobs=jobs,
            occupancy=dict(self._occ),
            groups={},
            books={},
        )


class NaiveFleet(Fleet):
    """Round-robin delegation over naive machines; windows are aligned but
    never trimmed, and there is no capacity rebuild."""

    kind = "naive"

    def __init__(self, config: Config):
        super().__init__(config)
        self.machines = [NaiveMachine(config.gamma) for _ in range(config.machines)]

    def _trim_bound(self) -> int:  # aligned spans pass through untrimmed
        return 1 << 62

    def _capacity_sync(self):
        return ()


class EdfRepackScheduler:
    """Recomputes the whole EDF schedule after every request.  Brittle by
    design: a single request can move every active job."""

    kind = "edf-repack"

    def __init__(self, config: Config):
        self.config = config
        self.jobs: dict[str, Window] = {}
        self._spans = SpanMax()  # spans of self.jobs, for the delta column
        self._assign: dict[str, Assignment] = {}
        self._ledger = CostLedger()

    def ledger(self) -> CostLedger:
        return self._ledger

    def assignments(self) -> dict[str, Assignment]:
        return dict(self._assign)

    def apply(self, request: Request) -> RequestOutcome:
        if request.op == "insert":
            if request.job_id in self.jobs:
                raise DuplicateJobId(f"job id {request.job_id!r} is already active")
            self.jobs[request.job_id] = request.window
            self._spans.add(request.window.span)
        else:
            if request.job_id not in self.jobs:
                raise UnknownJobId(f"job id {request.job_id!r} is not active")
            self._spans.remove(self.jobs.pop(request.job_id).span)
        verdict = edf_feasible(
            [Job(job_id, w) for job_id, w in self.jobs.items()], self.config.machines
        )
        if not verdict.feasible:
            raise Infeasible(f"no feasible schedule after {request.op} {request.job_id}")
        new_assign = {a.job_id: a for a in verdict.witness}
        moves = []
        for job_id in sorted(set(self._assign) | set(new_assign)):
            old = self._assign.get(job_id)
            new = new_assign.get(job_id)
            if old != new:
                moves.append((job_id, old, new))
        self._assign = new_assign
        moved = merge_moves(moves)
        record = self._ledger.record_request(
            request.op,
            request.job_id,
            moved,
            n=len(self.jobs),
            delta=self._spans.max(),
        )
        return RequestOutcome(record.index, request, moved, (), record)

    def snapshot(self) -> FleetSnapshot:
        machines = []
        for mi in range(self.config.machines):
            jobs = {}
            occ = {}
            for job_id, a in self._assign.items():
                if a.machine != mi:
                    continue
                w = self.jobs[job_id]
                jobs[job_id] = JobSnap(
                    job_id=job_id,
                    window=(w.start, w.end),
                    aligned=None,
                    effective=None,
                    level=None,
                    slot=a.slot,
                )
                occ[a.slot] = job_id
            machines.append(
                MachineSnapshot(
                    gamma=self.config.gamma,
                    nstar=1,
                    jobs=jobs,
                    occupancy=occ,
                    groups={},
                    books={},
                )
            )
        return FleetSnapshot(
            kind=self.kind,
            config=self.config,
            nstar=1,
            machines=machines,
            original_windows={j: (w.start, w.end) for j, w in self.jobs.items()},
            delegated=False,
        )


def build_scheduler(kind: str, config: Config):
    """Facade factory shared by the CLI and the generators."""
    if kind == "reservation":
        return Fleet(config)
    if kind == "naive":
        return NaiveFleet(config)
    if kind in ("edf", "edf-repack"):
        return EdfRepackScheduler(config)
    raise ValueError(f"unknown scheduler kind {kind!r}")
