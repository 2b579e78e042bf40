import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reallocsched as rs
from reallocsched.verifier import replay


def setup_fleet(m=3, gamma=8):
    return rs.Fleet(rs.Config(m, gamma))


def window_counts(fleet, wkey):
    return [len(lst) for lst in fleet.members[wkey]]


def test_round_robin_delegation():
    fleet = setup_fleet(m=3)
    fleet.apply(rs.insert_request("a0", 0, 64))
    assert fleet.jobs["a0"].machine == 0  # first job of a window
    for i in range(1, 6):
        fleet.apply(rs.insert_request(f"a{i}", 0, 64))
    assert fleet.jobs["a5"].machine == 2
    assert window_counts(fleet, (64, 0)) == [2, 2, 2]


def test_single_machine_everything_lands_on_zero():
    fleet = setup_fleet(m=1)
    for i in range(5):
        out = fleet.apply(rs.insert_request(f"a{i}", 0, 64))
        assert out.record.migrations == 0
    assert all(j.machine == 0 for j in fleet.jobs.values())


def test_delete_balanced_no_migration():
    fleet = setup_fleet(m=2)
    for i in range(3):
        fleet.apply(rs.insert_request(f"a{i}", 0, 64))
    assert window_counts(fleet, (64, 0)) == [2, 1]
    out = fleet.apply(rs.delete_request("a0"))  # (1,1): still balanced
    assert out.record.migrations == 0
    assert window_counts(fleet, (64, 0)) == [1, 1]


def test_delete_unbalanced_migrates_exactly_one():
    fleet = setup_fleet(m=2)
    for i in range(4):
        fleet.apply(rs.insert_request(f"a{i}", 0, 64))
    assert window_counts(fleet, (64, 0)) == [2, 2]
    out = fleet.apply(rs.delete_request("a0"))  # machine 1 donates one job
    assert out.record.migrations == 1
    assert window_counts(fleet, (64, 0)) == [2, 1]


def test_migration_is_also_a_reallocation():
    fleet = setup_fleet(m=2)
    for i in range(4):
        fleet.apply(rs.insert_request(f"a{i}", 0, 64))
    out = fleet.apply(rs.delete_request("a0"))
    assert out.record.reallocations >= out.record.migrations == 1


def test_duplicate_and_unknown():
    fleet = setup_fleet()
    fleet.apply(rs.insert_request("a", 0, 8))
    with pytest.raises(rs.DuplicateJobId):
        fleet.apply(rs.insert_request("a", 0, 8))
    with pytest.raises(rs.UnknownJobId):
        fleet.apply(rs.delete_request("zzz"))


def test_capacity_sync_rebuilds_whole_fleet():
    fleet = rs.Fleet(rs.Config(2, 192))
    outs = []
    requests = [rs.insert_request(f"a{i}", i * 8192, i * 8192 + 4096) for i in range(9)]
    requests += [rs.delete_request(f"a{i}") for i in range(8)]
    nstars = []
    for request in requests:
        outs.append(fleet.apply(request))
        nstars.append(fleet.nstar)
        # the fleet alone owns nstar: every machine follows it
        assert [m.nstar for m in fleet.machines] == [fleet.nstar] * 2
    rebuilds = [o for o in outs if o.record.rebuilt]
    assert rebuilds, "crossing nstar thresholds must trigger rebuilds"
    # doublings on the way up, halvings on the way down
    assert nstars == [1, 2, 4, 4, 8, 8, 8, 8, 16, 16, 16, 16, 16, 16, 8, 8, 4]
    # within the band nothing happens
    fleet2 = rs.Fleet(rs.Config(2, 192))
    fleet2.apply(rs.insert_request("x", 0, 4096))
    out = fleet2.apply(rs.insert_request("y", 8192, 12288))
    assert out.record.rebuilt  # n=2 > nstar=1 doubles
    out = fleet2.apply(rs.delete_request("x"))
    assert not out.record.rebuilt  # 1 >= 2/4


def test_balance_holds_after_halving_rebuild():
    fleet = rs.Fleet(rs.Config(2, 8))
    for i in range(16):
        fleet.apply(rs.insert_request(f"a{i}", 0, 64))
    for i in range(13):
        fleet.apply(rs.delete_request(f"a{i}"))
    failures = rs.audit(fleet.snapshot(), "invariants")
    assert failures == []


def test_deterministic_replay_identical_ledgers_and_schedules():
    trace = rs.gen_random_underallocated(30, 2, 192, 11, length=120)
    runs = []
    for _ in range(2):
        fleet = rs.Fleet(rs.Config(2, 192))
        res = replay(fleet, trace.requests)
        assert res.error is None
        runs.append((fleet.ledger().to_csv(), fleet.assignments()))
    assert runs[0] == runs[1]


def test_migrations_bounded_by_one_per_nonrebuild_request(rng):
    trace = rs.gen_random_underallocated(40, 4, 192, 23, length=200)
    fleet = rs.Fleet(rs.Config(4, 192))
    res = replay(fleet, trace.requests, audit_level="invariants")
    assert res.error is None and not res.failures
    for rec in res.records:
        assert rec.migrations <= 1
    total_migr = sum(r.migrations + r.rebuild_migrations for r in res.records)
    total_rebuild_moves = sum(r.rebuild_reallocations for r in res.records)
    assert total_migr <= len(res.records) + total_rebuild_moves


def test_full_oracle_audit_clean_on_underallocated_trace():
    trace = rs.gen_random_underallocated(12, 2, 192, 31, length=50)
    fleet = rs.Fleet(rs.Config(2, 192))
    res = replay(fleet, trace.requests, audit_level="full-oracle")
    assert res.error is None
    assert res.failures == []


def test_round_robin_shares_stay_underallocated(rng):
    # oracle check of the reduction: a 6g-underallocated aligned set on m
    # machines, split per window into floor/ceil round-robin shares, leaves
    # every machine g-underallocated on its own
    m, g = 2, 2
    checked = 0
    for _ in range(40):
        jobs = []
        for i in range(rng.randrange(1, 14)):
            span = rng.choice([16, 32, 64, 128])
            start = rng.randrange(0, 2048 // span) * span
            cand = rs.Job(f"j{i}", rs.Window(start, start + span))
            if rs.underallocated(jobs + [cand], m, 6 * g):
                jobs.append(cand)
        if not rs.underallocated(jobs, m, 6 * g):
            continue
        by_window = {}
        for j in sorted(jobs, key=lambda j: j.id):
            by_window.setdefault((j.window.start, j.window.end), []).append(j)
        shares = [[] for _ in range(m)]
        for key in sorted(by_window):
            for pos, j in enumerate(by_window[key]):
                shares[pos % m].append(j)
        for share in shares:
            assert rs.underallocated(share, 1, g), (jobs, share)
        checked += 1
    assert checked >= 25


def test_outcome_moves_carry_assignments():
    fleet = setup_fleet(m=2)
    out = fleet.apply(rs.insert_request("a", 0, 64))
    (job_id, old, new), = out.moved
    assert job_id == "a" and old is None
    assert new == fleet.assignments()["a"]


class _NoScanJobs(dict):
    """A job table that refuses to be walked: lookups, inserts, pops and
    len() work, every full iteration raises."""

    def _scan(self, *args):
        raise AssertionError("a request visited every active job")

    __iter__ = keys = values = items = _scan


def _region_insert(job_id, region, span):
    return rs.insert_request(job_id, region * 8192, region * 8192 + span)


def _filled_fleet():
    """40 jobs j0..j39, job ji alone in region i with span 64 << (i % 4)."""
    fleet = rs.Fleet(rs.Config(2, 16))
    for i in range(40):
        fleet.apply(_region_insert(f"j{i}", i, 64 << (i % 4)))
    return fleet


def test_requests_outside_rebuilds_visit_no_job_table_scan():
    fleet = _filled_fleet()
    assert fleet.nstar == 64
    fleet.jobs = _NoScanJobs(fleet.jobs)
    spans = {f"j{i}": 64 << (i % 4) for i in range(40)}
    for step in range(200):
        i = step % 40
        out = fleet.apply(rs.delete_request(f"j{i}"))
        del spans[f"j{i}"]
        assert out.record.delta == max(spans.values())
        span = 64 << ((i + step) % 6)
        out = fleet.apply(_region_insert(f"j{i}", i, span))
        spans[f"j{i}"] = span
        assert out.record.delta == max(spans.values())
        assert not out.record.rebuilt
    assert fleet.nstar == 64


def test_filled_fleet_pickle_round_trips():
    fleet = _filled_fleet()
    copy = pickle.loads(pickle.dumps(fleet, pickle.HIGHEST_PROTOCOL))
    assert copy.snapshot() == fleet.snapshot()
    tail = [rs.delete_request("j39"), rs.delete_request("j3"), _region_insert("k", 50, 4096)]
    for request in tail:
        assert copy.apply(request).record == fleet.apply(request).record
    assert copy.ledger().to_csv() == fleet.ledger().to_csv()


POOL = 40  # job ids j0..j39; job jK only ever lives in its own 8192-slot region


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["reservation", "naive", "edf"]),
    machines=st.integers(1, 3),
    fill=st.integers(0, POOL),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "insert", "delete"]),
            st.integers(0, POOL - 1),
            st.integers(0, 4095),  # offset of the window in its region
            st.integers(64, 4096),  # original, unaligned span
        ),
        max_size=60,
    ),
    drain=st.permutations(range(POOL)),
)
def test_delta_is_max_original_span_of_active_jobs(kind, machines, fill, ops, drain):
    requests = [_region_insert(f"j{k}", k, 64 + 37 * k) for k in range(fill)]
    for op, k, offset, span in ops:
        if op == "insert":
            start = k * 8192 + offset
            requests.append(rs.insert_request(f"j{k}", start, start + span))
        else:
            requests.append(rs.delete_request(f"j{k}"))
    requests += [rs.delete_request(f"j{k}") for k in drain]  # unknown ids too
    sched = rs.build_scheduler(kind, rs.Config(machines, 8))
    after_rejection = False
    for request in requests:
        try:
            out = sched.apply(request)
        except (rs.DuplicateJobId, rs.UnknownJobId):
            after_rejection = True
            continue
        windows = sched.snapshot().original_windows.values()
        expected = max((end - start for start, end in windows), default=0)
        assert out.record.delta == expected, (request, after_rejection)
        after_rejection = False
    assert sched.snapshot().original_windows == {}
