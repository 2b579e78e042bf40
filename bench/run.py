"""Seeded stdlib benchmark of the reallocsched library.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Drives `Fleet.apply` from one process and one thread as a closed loop: a
single caller sends the next request only after the previous one returns.
The library is imported from `src/` of the checkout this file sits in.

`--trace 0` measures the end-to-end metrics untraced: req/s over the timed
phase, p50 service time (the median over passes, a pass being a fixed mix
of rounds), peak resident memory over set-up and the first passes (a
fixed request count, so it does not grow with speed; anonymous pages only,
see `anon_rss_mb`) and set-up time (median of three set-ups).

Times and rates are given at the nominal speed of the host (`calib.py`):
its speed is sampled after every 40 ms of request time and every round of
the timed phase and around each set-up, and the times between two
samples are divided by the samples' factors.  A shared host changes speed
by up to twice from minute to minute, which spread the measured times by
a third between runs; the measured values and the median factor are
printed beside them.

p99 service time (the median over passes, at nominal speed) is printed
too but left out of the JSON: on audited-mix it is set by the few
heaviest traces a seed draws, and spread 25-39 % between seeds, more than
a bound may allow.  So are the ledger costs (realloc_mean, realloc_max,
migr_max, rebuild_realloc_per_req) and failed_share; they can be 0, so in
the JSON they appear as `ledger.*` per-layer metrics and as
failed/attempted.

`--trace 1` alternates untraced rounds with rounds in which every public
entry point is wrapped in a span, and reports the per-layer metrics; spans
go to `bench/out/spans-<workload>-<seed>.jsonl`.  Every run ends with a
correctness gate (final audit, migr_max <= 1, no failed request, and the
C12 determinism check: rounds served on a first set-up of the seed are
served again on a later one and must leave byte-identical ledger CSVs);
the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  `--workload all` runs each workload
of BENCHMARK.json in its own subprocess, so memory stays per workload;
wide-sparse runs only when named.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calib import HostSpeed

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

WORKLOAD_NAMES = ("audited-mix", "churn-large", "wide-sparse")
#: The workloads of BENCHMARK.json, which `--workload all` runs.
BENCHMARKED = ("audited-mix", "churn-large")
#: Set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 3
#: Floor on the passes of a timed phase; each timing is a median over passes.
#: peak_rss_mb is the most resident memory read after each set-up and each
#: of this many passes, a fixed request count, so it does not grow with speed.
MIN_PASSES = 3
#: Request time (ns) between two samples of the host's speed in a timed phase.
SAMPLE_NS = 40_000_000
#: Rounds served on the first set-up and served again in the timed phase;
#: their ledgers must agree (the C12 determinism check).
REPLAY_ROUNDS = 4
#: A traced run stops at a pass boundary once this many requests were traced,
#: so the spans it keeps in memory stay bounded however fast requests are.
MAX_TRACED_REQUESTS = 20_000

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "req_per_s": "1/s",
    "req_us_p50": "us",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Per-layer metrics: name -> (unit, definition, the end-to-end metric it
#: should move and where).  `_us` is per timed request unless marked per call.
PER_LAYER = {
    "fleet.apply_us": ("us", "Fleet.apply inclusive", "req_us_p50 on every workload"),
    "fleet.self_us": ("us", "Fleet.apply minus its traced children",
                      "req_us_p50/req_per_s on churn-large"),
    "fleet.snapshot_us": ("us", "Fleet.snapshot inclusive",
                          "req_per_s/req_us_p99 on audited-mix"),
    "fleet.snapshot_calls": ("count", "per timed request", "req_per_s on audited-mix"),
    "reservation.snapshot_us": ("us", "MachineSchedule.snapshot inclusive",
                                "req_per_s/req_us_p99 on audited-mix"),
    "verifier.audit_us": ("us", "audit inclusive",
                          "req_per_s/req_us_p99 on audited-mix"),
    "verifier.audit_calls": ("count", "per timed request", "req_per_s on audited-mix"),
    "reservation.insert_us": ("us", "MachineSchedule.insert outside rebuilds",
                              "req_us_p50 on wide-sparse"),
    "reservation.insert_calls": ("count", "per timed request", "req_us_p50 on wide-sparse"),
    "reservation.delete_us": ("us", "MachineSchedule.delete", "req_us_p50 on wide-sparse"),
    "reservation.delete_calls": ("count", "per timed request", "req_us_p50 on wide-sparse"),
    "reservation.slot_moves": ("count", "relocations returned by insert/delete per request",
                               "realloc_mean (ledger.realloc_mean)"),
    "reservation.rebuild_us": ("us", "per call, set-up fill and timed phase",
                               "req_us_p99 on audited-mix, setup_s on churn-large"),
    "reservation.rebuild_calls": ("count", "per traced Fleet.apply, fill included",
                                  "req_us_p99 on audited-mix, setup_s on churn-large"),
    "reservation.books_end": ("count", "live books after the timed phase",
                              "peak_rss_mb on wide-sparse"),
    "alignment.align_us": ("us", "align_window as bound in fleet", "req_us_p50 on audited-mix"),
    "alignment.trim_us": ("us", "trim_window as bound in fleet and reservation",
                          "req_us_p50 on audited-mix"),
    "core.record_us": ("us", "CostLedger.record_request",
                       "req_per_s on audited-mix/churn-large"),
    "core.merge_us": ("us", "merge_moves as bound in fleet",
                      "req_per_s on audited-mix/churn-large"),
    "core.csv_us": ("us", "CostLedger.to_csv, one per round",
                    "req_per_s on audited-mix/churn-large"),
    "traces.gen_s": ("s", "per set-up: trace generation (the benchmark's block-count "
                     "generator on churn-large/wide-sparse)", "setup_s on audited-mix"),
    "traces.read_s": ("s", "per set-up: read_trace", "setup_s on audited-mix"),
    "feasibility.underallocated_s": ("s", "per set-up: underallocated",
                                     "setup_s on audited-mix"),
    "ledger.realloc_mean": ("count", "reallocations per timed request", "(end-to-end cost)"),
    "ledger.realloc_max": ("count", "largest per-request reallocations", "(end-to-end cost)"),
    "ledger.migr_max": ("count", "largest per-request migrations", "(end-to-end cost)"),
    "ledger.rebuild_realloc_per_req": ("count", "rebuild reallocations per timed request",
                                       "(end-to-end cost)"),
    "trace.overhead_pct": ("%", "100 * (untraced req/s / traced req/s - 1), alternating rounds",
                           "(tracing cost)"),
}


class Phase:
    """Requests served in rounds, with their ledger costs.  Rounds are
    grouped into passes of `rounds_per_pass`; only each pass's p50 and p99
    are kept, so a run's memory does not grow with its requests.

    With `speed`, the host's speed is sampled when the phase starts, after
    every `SAMPLE_NS` of request time and after every round, outside any
    request's clock.  The times between two samples are divided by the
    geometric mean of their factors, which gives them at nominal speed."""

    def __init__(self, rounds_per_pass: int, speed: HostSpeed | None = None):
        self.rounds_per_pass = rounds_per_pass
        self.speed = speed
        self.rounds = 0
        self.served = 0
        self.busy_ns = 0
        self.nominal_ns = 0.0
        #: (p50 µs, p99 µs, p50 µs at nominal speed, p99 µs at nominal
        #: speed) of each whole pass.
        self.passes: list[tuple[float, float, float, float]] = []
        self._latencies: list[int] = []
        self._nominal: list[float] = []
        self._factor = speed.sample() if speed else 1.0
        self.audit_failed = 0
        self.rejected: str | None = None
        self.rows = 0
        self.realloc = 0
        self.realloc_max = 0
        self.migr_max = 0
        self.rebuild_realloc = 0

    @property
    def requests(self) -> int:
        return self.served + (self.rejected is not None)

    @property
    def at_pass_end(self) -> bool:
        return self.rounds % self.rounds_per_pass == 0

    def rate(self) -> float:
        return self.served / (self.busy_ns / 1e9) if self.busy_ns else 0.0

    def nominal_rate(self) -> float:
        return self.served / (self.nominal_ns / 1e9) if self.nominal_ns else 0.0

    def checkpoint(self, latencies: list[int], other_ns: int = 0) -> None:
        """Count request times and other timed work (ns) since the last
        checkpoint, at nominal speed too."""
        factor = 1.0
        if self.speed:
            before, self._factor = self._factor, self.speed.sample()
            factor = math.sqrt(before * self._factor)
        self._latencies += latencies
        self._nominal += [t / factor for t in latencies]
        self.busy_ns += sum(latencies) + other_ns
        self.nominal_ns += (sum(latencies) + other_ns) / factor

    def end_round(self, requests: int, rows) -> None:
        self.rounds += 1
        self.served += requests
        if self.at_pass_end:
            lat, nominal = sorted(self._latencies), sorted(self._nominal)
            self.passes.append(tuple(percentile(v, q) / 1e3 for v in (lat, nominal)
                                     for q in (0.50, 0.99)))
            self._latencies, self._nominal = [], []
        for r in rows:
            self.rows += 1
            self.realloc += r.reallocations
            self.realloc_max = max(self.realloc_max, r.reallocations)
            self.migr_max = max(self.migr_max, r.migrations)
            self.rebuild_realloc += r.rebuild_reallocations


def serve_round(wl, index: int, phase: Phase, digests: dict, problems: list) -> bool:
    """Serve round `index` into `phase`; False once a request is rejected.
    Rounds of one `round_key` must leave the same ledger every time."""
    from reallocsched.core import SchedulerError

    clock = time.perf_counter_ns
    requests = wl.next_round(index)
    latencies = []
    audit_failed = 0
    sampled = unsampled_ns = 0
    for request in requests:
        t0 = clock()
        try:
            bad = wl.serve(request)
        except SchedulerError as exc:
            phase.served += len(latencies)
            phase.rejected = f"round {index}: {type(exc).__name__}: {exc}"
            return False
        latencies.append(clock() - t0)
        audit_failed += bool(bad)
        unsampled_ns += latencies[-1]
        if unsampled_ns >= SAMPLE_NS:
            phase.checkpoint(latencies[sampled:])
            sampled, unsampled_ns = len(latencies), 0
    t0 = clock()
    csv_text, rows = wl.end_round()
    export_ns = clock() - t0
    phase.checkpoint(latencies[sampled:], export_ns)
    phase.end_round(len(latencies), rows)
    phase.audit_failed += audit_failed
    digest = hashlib.sha256(csv_text.encode()).hexdigest()
    if digests.setdefault(wl.round_key(index), digest) != digest:
        problems.append(f"round {index} left another ledger than an earlier serving")
    return True


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from reallocsched import verifier
    from tracer import Tracer
    from workloads import WORKLOADS, trace_targets

    tracer = Tracer() if trace else None
    speed = None if trace else HostSpeed()
    targets = trace_targets()
    problems: list[str] = []
    setup_s: list[float] = []
    setup_nominal_s: list[float] = []
    setup_digests = set()
    digests: dict[int, str] = {}
    #: Resident memory after each set-up and each of the first passes.
    rss_mb: list[float] = []
    # The first set-up is untraced and serves the first rounds untimed; the
    # timed phase serves them again on a later set-up of the same seed, and
    # `serve_round` compares their ledgers (C12).  A traced run traces only
    # its second set-up.
    repeats = 2 if tracer else SETUP_REPEATS
    wl = None
    for i in range(repeats):
        wl = None
        gc.collect()
        traced_setup = tracer is not None and i == repeats - 1
        wl = WORKLOADS[name](seed, tracer if traced_setup else None)
        before = speed.sample() if speed else 1.0
        started = time.perf_counter()
        with tracer.patched(targets) if traced_setup else contextlib.nullcontext():
            setup_digests.add(wl.setup())
        setup_s.append(time.perf_counter() - started)
        if speed:
            setup_nominal_s.append(setup_s[-1] / math.sqrt(before * speed.sample()))
        rss_mb.append(anon_rss_mb())
        if i == 0:
            replay = Phase(1)
            for index in range(REPLAY_ROUNDS):
                if not serve_round(wl, index, replay, digests, problems):
                    problems.append(f"request rejected on replay: {replay.rejected}")
                    break
            rss_mb.append(anon_rss_mb())
    if len(setup_digests) != 1:
        problems.append("repeated set-ups of one seed disagree")
    gc.collect()

    # Untraced rounds give the end-to-end numbers.  A traced run alternates
    # untraced and traced rounds, so slow spells of the machine hit both
    # alike: independent rounds (audited-mix traces) are replayed traced,
    # a churn stream just goes on.
    timed, traced = Phase(wl.ROUNDS_PER_PASS, speed), Phase(wl.ROUNDS_PER_PASS)
    budget_ns = seconds * 1e9 / (2 if tracer else 1)
    index = 0
    while True:
        if not serve_round(wl, index, timed, digests, problems):
            break
        if tracer is not None:
            tracer.phase = "timed"
            traced_index = index if wl.INDEPENDENT_ROUNDS else index + 1
            with tracer.patched(targets):
                ok = serve_round(wl, traced_index, traced, digests, problems)
            if not ok:
                break
            index = traced_index
        index += 1
        if timed.at_pass_end and len(timed.passes) <= MIN_PASSES:
            rss_mb.append(anon_rss_mb())
        done = timed.busy_ns >= budget_ns or traced.served >= MAX_TRACED_REQUESTS
        if done and len(timed.passes) >= MIN_PASSES and timed.at_pass_end:
            break
    if index < REPLAY_ROUNDS:
        problems.append(f"only {index} rounds served; the replay check needs {REPLAY_ROUNDS}")

    gate_failures = []
    books_end = 0
    rejected = timed.rejected or traced.rejected
    if rejected is None:
        if tracer is not None:
            tracer.phase = "gate"
        with tracer.patched(targets) if tracer else contextlib.nullcontext():
            snapshot = wl.fleet.snapshot()
            gate_failures = verifier.audit(snapshot, "invariants")
        books_end = sum(len(m.books) for m in snapshot.machines)
        del snapshot
    else:
        problems.append(f"request rejected: {rejected}")
    if gate_failures:
        problems.append(f"final audit: {len(gate_failures)} failures, first {gate_failures[0]}")
    migr_max = max(timed.migr_max, traced.migr_max)
    if migr_max > 1:
        problems.append(f"migr_max {migr_max} > 1")
    attempted = timed.requests + traced.requests
    failed = timed.audit_failed + traced.audit_failed + (rejected is not None)
    if failed:
        problems.append(f"failed_share {failed}/{attempted} > 0")

    rows = max(timed.rows + traced.rows, 1)
    costs = {
        "realloc_mean": ((timed.realloc + traced.realloc) / rows, "count"),
        "realloc_max": (max(timed.realloc_max, traced.realloc_max), "count"),
        "migr_max": (migr_max, "count"),
        "rebuild_realloc_per_req": ((timed.rebuild_realloc + traced.rebuild_realloc) / rows,
                                    "count"),
        "failed_share": (failed / max(attempted, 1), "share"),
    }
    metrics = {}
    if not problems and tracer is None:
        values = {
            "req_per_s": timed.nominal_rate(),
            "req_us_p50": statistics.median(p[2] for p in timed.passes),
            "peak_rss_mb": max(rss_mb),
            "setup_s": statistics.median(setup_nominal_s),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    elif not problems:
        OUT.mkdir(exist_ok=True)
        tracer.write_jsonl(OUT / f"spans-{name}-{seed}.jsonl")
        values = layer_metrics(tracer, traced, timed, books_end)
        values.update({f"ledger.{k}": v for k, (v, _) in costs.items() if k != "failed_share"})
        metrics = {k: {"value": values[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}

    print(f"workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}")
    for key, m in metrics.items():
        print(f"  {key:32s} {m['value']:14.6g} {m['unit']}")
    if tracer is None:
        if timed.passes:
            p99 = statistics.median(p[3] for p in timed.passes)
            print(f"  {'req_us_p99':32s} {p99:14.6g} us")
            raw = {
                "req_per_s": (timed.rate(), "1/s"),
                "req_us_p50": (statistics.median(p[0] for p in timed.passes), "us"),
                "req_us_p99": (statistics.median(p[1] for p in timed.passes), "us"),
                "setup_s": (statistics.median(setup_s), "s"),
            }
            for key, (value, unit) in raw.items():
                print(f"  {key + ' (measured)':32s} {value:14.6g} {unit}")
            print(f"  {'host factor':32s} {statistics.median(speed.factors):14.6g} "
                  f"(median of {len(speed.factors)} samples, 1 = nominal speed)")
        print(f"  {'samples':32s} {timed.served:14d} requests in "
              f"{len(timed.passes)} passes (beside p50/p99)")
        for key, (value, unit) in costs.items():
            print(f"  {key:32s} {value:14.6g} {unit}")
    print(f"  gate: {'; '.join(problems) or 'ok'} (ledgers of {len(digests)} distinct rounds "
          f"compared across {REPLAY_ROUNDS} replayed and {timed.rounds + traced.rounds} "
          f"served rounds)")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


def layer_metrics(tracer, traced: Phase, untraced: Phase, books_end: int) -> dict:
    """Per-layer numbers from the spans of a traced run."""
    n = max(traced.served, 1)

    def table(*phases, outside_rebuild=False):
        return tracer.summary(lambda s, p: s[5] in phases and not (
            outside_rebuild and p is not None and p[0] == "reservation.rebuild"))

    timed = table("timed")
    setup = table("setup")
    served = table("setup", "timed")
    request_path = table("timed", outside_rebuild=True)

    def per_req_us(rows, name, col=1):
        return rows[name][col] / n / 1e3

    def per_call_us(rows, name):
        calls, incl = rows[name][:2]
        return incl / calls / 1e3 if calls else 0.0

    return {
        "fleet.apply_us": per_req_us(timed, "fleet.apply"),
        "fleet.self_us": per_req_us(timed, "fleet.apply", col=2),
        "fleet.snapshot_us": per_req_us(timed, "fleet.snapshot"),
        "fleet.snapshot_calls": timed["fleet.snapshot"][0] / n,
        "reservation.snapshot_us": per_req_us(timed, "reservation.snapshot"),
        "verifier.audit_us": per_req_us(timed, "verifier.audit"),
        "verifier.audit_calls": timed["verifier.audit"][0] / n,
        "reservation.insert_us": per_req_us(request_path, "reservation.insert"),
        "reservation.insert_calls": request_path["reservation.insert"][0] / n,
        "reservation.delete_us": per_req_us(request_path, "reservation.delete"),
        "reservation.delete_calls": request_path["reservation.delete"][0] / n,
        "reservation.slot_moves": (request_path["reservation.insert"][3]
                                   + request_path["reservation.delete"][3]) / n,
        "reservation.rebuild_us": per_call_us(served, "reservation.rebuild"),
        "reservation.rebuild_calls": (served["reservation.rebuild"][0]
                                      / max(served["fleet.apply"][0], 1)),
        "reservation.books_end": books_end,
        "alignment.align_us": per_req_us(timed, "alignment.align"),
        "alignment.trim_us": per_req_us(timed, "alignment.trim"),
        "core.record_us": per_req_us(timed, "core.record"),
        "core.merge_us": per_req_us(timed, "core.merge"),
        "core.csv_us": per_req_us(timed, "core.csv"),
        "traces.gen_s": setup["traces.gen"][1] / 1e9,
        "traces.read_s": setup["traces.read"][1] / 1e9,
        "feasibility.underallocated_s": setup["feasibility.underallocated"][1] / 1e9,
        "trace.overhead_pct": 100 * (untraced.rate() / traced.rate() - 1),
    }


def anon_rss_mb() -> float:
    """Resident anonymous memory of this process in MB.  Pages of the
    interpreter's files stay out: a busy host evicts and reloads them at
    random, which moved peak RSS by 3 MB between runs.  Off Linux, peak RSS."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("RssAnon:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_all(args) -> int:
    """Each workload in a fresh subprocess; prints their reports and one
    combined JSON line with metrics named <workload>.<metric>."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in BENCHMARKED:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {name} exited {proc.returncode} without a result",
                  file=sys.stderr)
            return 2
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "reallocsched" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}/reallocsched; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(BENCH)]
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
