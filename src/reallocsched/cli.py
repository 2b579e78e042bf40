"""Command-line front end: generate traces, replay them through a chosen
scheduler with invariant auditing, and verify underallocation.

Exit codes for `run`: 0 clean, 1 audit failures, 2 scheduler error
(insufficient slack / infeasible), 3 malformed trace.  `verify` exits 0
when every prefix is underallocated, 1 otherwise, 3 on a malformed trace.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .baselines import build_scheduler
from .core import Config, Job, SchedulerError, TraceFormatError
from .feasibility import underallocated
from .traces import (
    Trace,
    gen_migration_adversary,
    gen_random_underallocated,
    gen_realloc_adversary,
    load_trace,
    save_trace,
)
from .verifier import replay

SCHEDULERS = ("reservation", "naive", "edf")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reallocsched",
        description="Reallocating scheduler harness: generate, replay, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a trace file")
    gen.add_argument("generator", choices=("random", "realloc-adversary", "migration-adversary"))
    gen.add_argument("--out", required=True, help="output trace path")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--n-max", type=int, default=50, help="random: max active jobs")
    gen.add_argument("--length", type=int, default=None, help="random: request count")
    gen.add_argument("--span-max", type=int, default=4096, help="random: largest span")
    gen.add_argument("--aligned", action="store_true", help="random: emit aligned windows")
    gen.add_argument("--machines", "-m", type=int, default=1)
    gen.add_argument("--gamma", type=int, default=8)
    gen.add_argument("--requests", "-s", type=int, default=None,
                     help="adversaries: total request budget s")
    gen.add_argument("--scheduler", choices=SCHEDULERS, default="reservation",
                     help="migration-adversary: scheduler to adapt against")

    run = sub.add_parser("run", help="replay traces through a scheduler")
    run.add_argument("traces", nargs="+", metavar="TRACE")
    run.add_argument("--scheduler", choices=SCHEDULERS, default="reservation")
    run.add_argument("--machines", "-m", type=int, default=None,
                     help="override the trace's machine count")
    run.add_argument("--gamma", type=int, default=None, help="override the trace's gamma")
    run.add_argument("--audit", choices=("off", "invariants", "full-oracle"),
                     default="invariants")
    run.add_argument("--csv", default=None, help="write the per-request ledger as CSV")
    run.add_argument("--per-request", action="store_true", help="print one row per request")

    verify = sub.add_parser("verify", help="check every prefix for underallocation")
    verify.add_argument("traces", nargs="+", metavar="TRACE")
    verify.add_argument("--machines", "-m", type=int, default=None)
    verify.add_argument("--gamma", type=int, default=None)
    return parser


def _cmd_gen(args) -> int:
    try:
        if args.generator == "random":
            trace = gen_random_underallocated(
                args.n_max, args.machines, args.gamma, args.seed,
                length=args.length, span_max=args.span_max, aligned=args.aligned,
            )
        elif args.generator == "realloc-adversary":
            if args.requests is None:
                raise ValueError("realloc-adversary needs --requests")
            trace = gen_realloc_adversary(args.requests)
        else:
            if args.requests is None:
                raise ValueError("migration-adversary needs --requests")
            config = Config(args.machines, args.gamma)
            trace = gen_migration_adversary(
                args.machines, args.requests,
                lambda: build_scheduler(args.scheduler, config),
            )
    except (ValueError, SchedulerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    save_trace(trace, args.out)
    print(f"wrote {len(trace)} requests to {args.out}")
    return 0


def _trace_params(trace: Trace, args) -> tuple[int, int]:
    machines = args.machines if args.machines is not None else int(trace.metadata.get("m", 1))
    gamma = args.gamma if args.gamma is not None else int(trace.metadata.get("gamma", 8))
    return machines, gamma


def _replay_one(path: str, args) -> int:
    """Replay one trace file, print its report and write its CSV; returns
    the exit code."""
    try:
        trace = load_trace(path)
    except (OSError, TraceFormatError) as exc:
        print(f"error trace={path} kind=malformed detail={exc}")
        return 3
    machines, gamma = _trace_params(trace, args)
    config = Config(machines, gamma)
    scheduler = build_scheduler(args.scheduler, config)
    started = time.monotonic()
    result = replay(scheduler, trace.requests, audit_level=args.audit)
    elapsed = time.monotonic() - started
    print(f"replayed {path} in {elapsed:.3f}s", file=sys.stderr)

    if args.per_request:
        for r in result.records:
            print(
                f"req index={r.index} op={r.op} id={r.job_id} n={r.n} delta={r.delta} "
                f"realloc={r.reallocations} migr={r.migrations} "
                f"rebuild_realloc={r.rebuild_reallocations} "
                f"rebuild_migr={r.rebuild_migrations} rebuilt={int(r.rebuilt)}"
            )
    for f in result.failures:
        print(
            f"audit-failure trace={path} index={f.request_index} "
            f"invariant={f.invariant} subject={f.subject!r} detail={f.detail!r}"
        )
    records = result.records
    ledger = scheduler.ledger()
    total_realloc = ledger.total_reallocations
    total_migr = ledger.total_migrations
    max_realloc = max((r.reallocations for r in records), default=0)
    max_migr = max((r.migrations for r in records), default=0)
    mean = total_realloc / len(records) if records else 0.0
    rebuilds = sum(1 for r in records if r.rebuilt)
    status = "ok"
    code = 0
    if result.failures:
        status, code = "audit-failed", 1
    if result.error is not None:
        index, exc = result.error
        status, code = "error", 2
        print(f"error trace={path} index={index} kind={type(exc).__name__} detail={exc}")
    if result.downgraded:
        print("warning: full-oracle audit degraded to invariants above "
              "500 active jobs", file=sys.stderr)
    print(
        f"summary trace={path} scheduler={args.scheduler} machines={machines} "
        f"gamma={gamma} requests={len(records)} final_active={records[-1].n if records else 0} "
        f"total_reallocations={total_realloc} total_migrations={total_migr} "
        f"max_reallocations={max_realloc} max_migrations={max_migr} "
        f"mean_reallocations={mean:.4f} rebuilds={rebuilds} "
        f"audit_failures={len(result.failures)} status={status}"
    )
    if args.csv:
        Path(args.csv).write_text(ledger.to_csv())
    return code


def _cmd_run(args) -> int:
    if args.csv and len(args.traces) > 1:
        print("error: --csv works with a single trace file", file=sys.stderr)
        return 2
    return max(_replay_one(path, args) for path in args.traces)


def _verify_one(path: str, args) -> tuple[int, str]:
    try:
        trace = load_trace(path)
    except (OSError, TraceFormatError) as exc:
        return 3, f"error trace={path} kind=malformed detail={exc}"
    machines, gamma = _trace_params(trace, args)
    active: dict[str, Job] = {}
    for index, req in enumerate(trace.requests):
        if req.op == "insert":
            active[req.job_id] = Job(req.job_id, req.window)
        else:
            active.pop(req.job_id, None)
        if not underallocated(list(active.values()), machines, gamma):
            return 1, (
                f"verdict trace={path} machines={machines} gamma={gamma} "
                f"underallocated=0 first_violation={index}"
            )
    return 0, (
        f"verdict trace={path} machines={machines} gamma={gamma} underallocated=1"
    )


def _cmd_verify(args) -> int:
    worst = 0
    for path in args.traces:
        code, line = _verify_one(path, args)
        print(line)
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "gen":
        return _cmd_gen(args)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
