"""The benchmark's workloads.  Each one is set up from a seed, then served in
rounds by a single caller that sends the next request only after
`Fleet.apply` returns (a closed loop, one client).

A round is a list of requests followed by a ledger export.  Inputs for a
round are built before its clock starts; `serve` and `end_round` are the
timed work.
"""

from __future__ import annotations

import hashlib
import pickle
from contextlib import nullcontext

from reallocsched import core, feasibility, fleet, reservation, traces, verifier
from reallocsched.core import Config, Job, Window, delete_request, insert_request

from gen import ChurnGenerator


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def trace_targets() -> list[tuple]:
    """(owner, attribute, span name[, count]) for every traced entry point.
    Names are patched where they are bound, so the alignment helpers are
    wrapped inside `fleet` and `reservation` as well."""

    def relocations(moves) -> int:
        return sum(1 for _, old, new in moves if old is not None and new is not None)

    return [
        (fleet.Fleet, "apply", "fleet.apply"),
        (fleet.Fleet, "snapshot", "fleet.snapshot"),
        (fleet, "align_window", "alignment.align"),
        (fleet, "trim_window", "alignment.trim"),
        (fleet, "merge_moves", "core.merge"),
        (reservation.MachineSchedule, "insert", "reservation.insert", relocations),
        (reservation.MachineSchedule, "delete", "reservation.delete", relocations),
        (reservation.MachineSchedule, "rebuild", "reservation.rebuild"),
        (reservation.MachineSchedule, "snapshot", "reservation.snapshot"),
        (reservation, "trim_window", "alignment.trim"),
        (core.CostLedger, "record_request", "core.record"),
        (core.CostLedger, "to_csv", "core.csv"),
        (verifier, "audit", "verifier.audit"),
        (traces, "gen_random_underallocated", "traces.gen"),
        (traces, "read_trace", "traces.read"),
        (traces, "underallocated", "feasibility.underallocated"),
        (feasibility, "underallocated", "feasibility.underallocated"),
    ]


def round_trip(requests) -> list:
    """Serialize and parse the requests the way trace files are served."""
    return traces.read_trace(traces.write_trace(traces.Trace(list(requests)))).requests


class Workload:
    name = ""
    why = ""
    #: A timed phase ends only after a whole pass of this many rounds.
    ROUNDS_PER_PASS = 1
    #: Whether a round can be served again with the same result.
    INDEPENDENT_ROUNDS = False

    def __init__(self, seed: int, tracer=None):
        self.seed = seed
        self.tracer = tracer
        self.applied = 0
        self.fleet: fleet.Fleet | None = None

    def span(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    def apply(self, request):
        if self.tracer is not None:
            self.tracer.request = self.applied
        self.applied += 1
        return self.fleet.apply(request)

    def setup(self) -> str:
        """Build the inputs and any warm state; returns their digest."""
        raise NotImplementedError

    def next_round(self, index: int) -> list:
        raise NotImplementedError

    def round_key(self, index: int) -> int:
        """Rounds with one key serve the same requests from the same state,
        so they must leave the same ledger."""
        return index

    def serve(self, request) -> int:
        """Serve one request; returns the number of audit failures."""
        self.apply(request)
        return 0

    def end_round(self) -> tuple[str, list]:
        """Export the round's ledger; returns its CSV and the rows the round added."""
        raise NotImplementedError


class AuditedMix(Workload):
    """The C01 suite, served as `reallocsched run --audit invariants --csv`
    serves it: each request is applied, snapshotted and audited, and each
    trace ends with a CSV export of its ledger."""

    name = "audited-mix"
    why = ("C01 mix: random unaligned traces, m 1/2/4, n_max 12-200, gamma 192; each "
           "request applied, snapshotted and audited, so verifier and snapshot dominate")
    # A pass is one trace for each (m, n_max) pair, so every pass serves the
    # same mix, and a timed phase ends on a pass boundary.  Set-up makes
    # seven passes, about the size of the C01 suite.
    ROUNDS_PER_PASS = 15
    TRACES = 7 * ROUNDS_PER_PASS
    INDEPENDENT_ROUNDS = True
    MACHINES = (1, 2, 4)
    N_MAX = (12, 25, 50, 100, 200)
    GAMMA = 192

    def setup(self) -> str:
        self.inputs = []
        texts = []
        for i in range(self.TRACES):
            m = self.MACHINES[i % len(self.MACHINES)]
            n_max = self.N_MAX[i % len(self.N_MAX)]
            trace = traces.gen_random_underallocated(
                n_max, m, self.GAMMA, seed=1000 * self.seed + i,
                length=2 * n_max + 40, span_max=4096,
            )
            text = traces.write_trace(trace)
            texts.append(text)
            self.inputs.append((m, traces.read_trace(text).requests))
        return sha256("".join(texts))

    def next_round(self, index: int) -> list:
        m, requests = self.inputs[index % self.TRACES]
        self.fleet = fleet.Fleet(Config(m, self.GAMMA))
        return requests

    def round_key(self, index: int) -> int:
        return index % self.TRACES

    def serve(self, request) -> int:
        self.apply(request)
        return len(verifier.audit(self.fleet.snapshot(), "invariants"))

    def end_round(self) -> tuple[str, list]:
        ledger = self.fleet.ledger()
        return ledger.to_csv(), ledger.rows


class Churn(Workload):
    """Fill to `TARGET` aligned jobs in setup, then churn half inserts and
    half deletes within 1 % of that size (`gen.BAND`).  The band keeps nstar
    fixed, so no rebuild falls in the timed phase.  A CSV export of the
    round's ledger rows closes each round.

    With `RESTORE`, set-up also draws one pass of churn, and every pass
    replays it from the filled fleet, unpickled before the pass's clock
    starts.  Otherwise the churn stream goes on from pass to pass, and time
    per request drifts up as the live jobs come to be scattered over the
    heap: on churn-large the O(n) scan over them took twice as long after
    10 000 requests as right after the fill."""

    MACHINES = GAMMA = HORIZON = SPAN_MIN = SPAN_MAX = TARGET = NSTAR = 0
    ROUND = 250
    # 1000 requests a pass, so each pass's p99 has ten samples above it.
    ROUNDS_PER_PASS = 4
    RESTORE = False

    def setup(self) -> str:
        self.gen = ChurnGenerator(
            seed=self.seed, machines=self.MACHINES, gamma=self.GAMMA,
            horizon=self.HORIZON, span_min=self.SPAN_MIN, span_max=self.SPAN_MAX,
        )
        with self.span("traces.gen"):
            fill = self._requests(self.gen.fill(self.TARGET))
        self.fleet = fleet.Fleet(Config(self.MACHINES, self.GAMMA))
        for request in round_trip(fill):
            self.apply(request)
        if self.fleet.nstar != self.NSTAR:
            raise RuntimeError(f"{self.name}: nstar {self.fleet.nstar} after the fill, "
                               f"expected {self.NSTAR}")
        active = [Job(j, Window(s, s + w)) for j, (s, w) in self.gen.active.items()]
        if not feasibility.underallocated(active, self.MACHINES, self.GAMMA):
            raise RuntimeError(f"{self.name}: the filled job set is not underallocated")
        ledger = self.fleet.ledger()
        self._seen = len(ledger)
        if self.RESTORE:
            self.pass_rounds = [self._requests(self.gen.churn(self.ROUND, self.TARGET))
                                for _ in range(self.ROUNDS_PER_PASS)]
            self.filled = pickle.dumps(self.fleet, pickle.HIGHEST_PROTOCOL)
        return sha256(ledger.to_csv())

    @staticmethod
    def _requests(ops) -> list:
        return [insert_request(j, a, d) if op == "insert" else delete_request(j)
                for op, j, a, d in ops]

    def next_round(self, index: int) -> list:
        if not self.RESTORE:
            return self._requests(self.gen.churn(self.ROUND, self.TARGET))
        if index % self.ROUNDS_PER_PASS == 0:
            self.fleet = None  # at most one fleet alive besides the pickle
            self.fleet = pickle.loads(self.filled)
            self._seen = len(self.fleet.ledger())
        return self.pass_rounds[index % self.ROUNDS_PER_PASS]

    def round_key(self, index: int) -> int:
        return index % self.ROUNDS_PER_PASS if self.RESTORE else index

    def end_round(self) -> tuple[str, list]:
        # Only the round's own rows are exported, so a round costs the same
        # however many requests came before it.
        ledger = self.fleet.ledger()
        rows = ledger.rows[self._seen:]
        self._seen = len(ledger)
        return core.CostLedger(rows=rows).to_csv(), rows


class ChurnLarge(Churn):
    name = "churn-large"
    why = ("6000 aligned jobs, m 2, gamma 16, spans 16-4096, steady churn: the "
           "O(n) per-request work in fleet dominates")
    MACHINES, GAMMA, HORIZON = 2, 16, 1 << 18
    SPAN_MIN, SPAN_MAX = 16, 4096
    TARGET, NSTAR = 6000, 8192
    RESTORE = True


class WideSparse(Churn):
    """Runs with `--workload wide-sparse` but is left out of BENCHMARK.json:
    22 more runs of a third workload would not fit the time all runs of
    the benchmark may take on a 2-CPU host.  Its fleet holds some
    200 000 books, so it churns on without `RESTORE`: a pickle of it per
    pass would double the memory it is run to show."""

    name = "wide-sparse"
    why = ("400 jobs, m 1, gamma 192, every span 2^20 on a 2^30 horizon: book "
           "creation and dissolve in reservation, and their memory, dominate")
    MACHINES, GAMMA, HORIZON = 1, 192, 1 << 30
    SPAN_MIN = SPAN_MAX = 1 << 20
    TARGET, NSTAR = 400, 512


WORKLOADS = {w.name: w for w in (AuditedMix, ChurnLarge, WideSparse)}
