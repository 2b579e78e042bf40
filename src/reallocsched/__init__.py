"""reallocsched: a reallocating scheduler for unit jobs with windows.

Maintains a valid assignment of unit-length jobs to (machine, timeslot)
pairs under online inserts and deletes.  Given enough slack in the instance
(underallocation), each request moves only a handful of already-placed jobs
and at most one job ever changes machines.  Ships with brute-force
feasibility oracles, two baseline schedulers, adversarial trace generators
that exhibit the lower bounds the scheduler avoids, and an audit engine
that checks every structural invariant between requests.

Typical use::

    from reallocsched import Config, Fleet, insert_request

    fleet = Fleet(Config(machines=2, gamma=192))
    outcome = fleet.apply(insert_request("job-1", 0, 4096))
    print(outcome.record.reallocations, outcome.record.migrations)
"""

from .alignment import (
    LEVEL0_SPAN_MAX,
    AlignedWindow,
    IntervalId,
    LevelParams,
    align_window,
    audit_counting_bound,
    intervals_of,
    is_aligned,
    level_of,
    level_params,
    level_threshold,
    trim_window,
)
from .baselines import EdfRepackScheduler, NaiveFleet, NaiveMachine, build_scheduler
from .core import (
    Assignment,
    Config,
    CostLedger,
    DuplicateJobId,
    Infeasible,
    InstanceTooLarge,
    Job,
    NoFulfilledSlot,
    Request,
    RequestRecord,
    SchedulerError,
    TraceFormatError,
    UnknownJobId,
    Window,
    delete_request,
    insert_request,
)
from .feasibility import FeasibilityVerdict, edf_feasible, matching_feasible, underallocated
from .fleet import Fleet, FleetSnapshot, RequestOutcome
from .reservation import MachineSchedule, MachineSnapshot, capacity_step
from .traces import (
    Trace,
    gen_migration_adversary,
    gen_random_underallocated,
    gen_realloc_adversary,
    load_trace,
    read_trace,
    save_trace,
    write_trace,
)
from .verifier import AuditFailure, ReplayResult, audit, replay

__version__ = "0.1.0"

__all__ = [
    "AlignedWindow", "Assignment", "AuditFailure", "Config", "CostLedger",
    "DuplicateJobId", "EdfRepackScheduler", "FeasibilityVerdict", "Fleet",
    "FleetSnapshot", "Infeasible", "InstanceTooLarge", "IntervalId", "Job",
    "LevelParams", "LEVEL0_SPAN_MAX", "MachineSchedule", "MachineSnapshot",
    "NaiveFleet", "NaiveMachine", "NoFulfilledSlot", "ReplayResult", "Request",
    "RequestOutcome", "RequestRecord", "SchedulerError", "Trace",
    "TraceFormatError", "UnknownJobId", "Window", "align_window", "audit",
    "audit_counting_bound", "build_scheduler", "capacity_step",
    "delete_request", "edf_feasible",
    "gen_migration_adversary", "gen_random_underallocated",
    "gen_realloc_adversary", "insert_request", "intervals_of", "is_aligned",
    "level_of", "level_params", "level_threshold", "load_trace",
    "matching_feasible", "read_trace", "replay", "save_trace", "trim_window",
    "underallocated", "write_trace",
]
