"""Golden ledgers: a fixed corpus of seeded and adversarial traces, each
replayed under every scheduler kind.  A case hashes the ledger CSV, every
outcome's moved and rebuild_moved sets, the final assignments and the
request (index and error type) that stopped the replay, so any change to a
cost, a move or a final slot shows up here.  A change that alters behaviour
on purpose must update GOLDEN and say why in CHANGES.md."""

import functools
import hashlib

import pytest

import reallocsched as rs
from reallocsched.verifier import replay

KINDS = ("reservation", "naive", "edf")


def _corpus() -> dict:
    """trace name -> (machines, gamma, zero-argument trace builder)."""
    corpus = {}
    for m in (1, 2, 4):
        for seed in (1, 2, 3):
            corpus[f"random-m{m}-seed{seed}"] = (
                m, 192,
                functools.partial(rs.gen_random_underallocated, 20, m, 192, seed),
            )
    # A narrow horizon makes windows collide: shared effective windows,
    # displacements and rebalancing migrations.
    for m in (1, 2, 4):
        for seed in (4, 5):
            corpus[f"aligned-m{m}-seed{seed}"] = (
                m, 16,
                functools.partial(rs.gen_random_underallocated, 24, m, 16, seed,
                                  aligned=True, span_max=1024, horizon=1024),
            )
    corpus["realloc-adversary-40"] = (1, 1, functools.partial(rs.gen_realloc_adversary, 40))
    for kind in KINDS:
        make = functools.partial(rs.build_scheduler, kind, rs.Config(4, 1))
        corpus[f"migration-adversary-{kind}"] = (
            4, 1, functools.partial(rs.gen_migration_adversary, 4, 48, make),
        )
    return corpus


CORPUS = _corpus()


@functools.lru_cache(maxsize=None)
def _trace(name: str) -> rs.Trace:
    return CORPUS[name][2]()


def golden_digest(kind: str, name: str) -> str:
    machines, gamma, _ = CORPUS[name]
    sched = rs.build_scheduler(kind, rs.Config(machines, gamma))
    result = replay(sched, _trace(name).requests)
    h = hashlib.sha256(sched.ledger().to_csv().encode())
    for outcome in result.outcomes:
        h.update(repr((outcome.moved, outcome.rebuild_moved)).encode())
    h.update(repr(sorted(sched.assignments().items())).encode())
    error = None if result.error is None else (result.error[0], type(result.error[1]).__name__)
    h.update(repr(error).encode())
    return h.hexdigest()[:16]


GOLDEN = {
    "aligned-m1-seed4/reservation": "6eaf754340718b38",
    "aligned-m1-seed4/naive": "f5b56ae2ee9eed1d",
    "aligned-m1-seed4/edf": "eb3f742a69c31032",
    "aligned-m1-seed5/reservation": "b1461640aafb110f",
    "aligned-m1-seed5/naive": "5c877f4fbbcb81f2",
    "aligned-m1-seed5/edf": "b1ce55aa3caa7333",
    "aligned-m2-seed4/reservation": "d600e6a3b805179a",
    "aligned-m2-seed4/naive": "a80494f3478e282b",
    "aligned-m2-seed4/edf": "7f01f298bc7471f5",
    "aligned-m2-seed5/reservation": "dbde317107895faf",
    "aligned-m2-seed5/naive": "6cf4417c7a071f0b",
    "aligned-m2-seed5/edf": "d1e0bd21e8fb1f9d",
    "aligned-m4-seed4/reservation": "d8b663fb347df307",
    "aligned-m4-seed4/naive": "8c114abb9d76693d",
    "aligned-m4-seed4/edf": "ea933295a8fe6cda",
    "aligned-m4-seed5/reservation": "178eb79964e59486",
    "aligned-m4-seed5/naive": "a0e9673343c637b9",
    "aligned-m4-seed5/edf": "5225b35829bdf140",
    "migration-adversary-edf/reservation": "adb295a5db3c177a",
    "migration-adversary-edf/naive": "59125e2aa204b590",
    "migration-adversary-edf/edf": "9de46c7ca06f6781",
    "migration-adversary-naive/reservation": "adb295a5db3c177a",
    "migration-adversary-naive/naive": "59125e2aa204b590",
    "migration-adversary-naive/edf": "9de46c7ca06f6781",
    "migration-adversary-reservation/reservation": "adb295a5db3c177a",
    "migration-adversary-reservation/naive": "59125e2aa204b590",
    "migration-adversary-reservation/edf": "9de46c7ca06f6781",
    "random-m1-seed1/reservation": "ce79635d6bb9ac61",
    "random-m1-seed1/naive": "50ebd9c68750c68c",
    "random-m1-seed1/edf": "a382829e693703d2",
    "random-m1-seed2/reservation": "ad63ffd068898b4a",
    "random-m1-seed2/naive": "c2b3793199816b05",
    "random-m1-seed2/edf": "5317b33d58527b8b",
    "random-m1-seed3/reservation": "d1ae1d6a439b766a",
    "random-m1-seed3/naive": "dbbe12d659372435",
    "random-m1-seed3/edf": "189bb3f494319424",
    "random-m2-seed1/reservation": "93ef503b122423cc",
    "random-m2-seed1/naive": "355aac207f6f6ef2",
    "random-m2-seed1/edf": "a382829e693703d2",
    "random-m2-seed2/reservation": "6cc69457eafa45a0",
    "random-m2-seed2/naive": "c0691ba386f9ee37",
    "random-m2-seed2/edf": "5317b33d58527b8b",
    "random-m2-seed3/reservation": "6b635c55fbc8a83a",
    "random-m2-seed3/naive": "8df3241e1588c976",
    "random-m2-seed3/edf": "189bb3f494319424",
    "random-m4-seed1/reservation": "93ef503b122423cc",
    "random-m4-seed1/naive": "355aac207f6f6ef2",
    "random-m4-seed1/edf": "a382829e693703d2",
    "random-m4-seed2/reservation": "6cc69457eafa45a0",
    "random-m4-seed2/naive": "c0691ba386f9ee37",
    "random-m4-seed2/edf": "5317b33d58527b8b",
    "random-m4-seed3/reservation": "6b635c55fbc8a83a",
    "random-m4-seed3/naive": "8df3241e1588c976",
    "random-m4-seed3/edf": "189bb3f494319424",
    "realloc-adversary-40/reservation": "d2d670772eb1735f",
    "realloc-adversary-40/naive": "50b8e1febfef5866",
    "realloc-adversary-40/edf": "51c42e4ba226a74d",
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_golden_ledger(name, kind):
    assert golden_digest(kind, name) == GOLDEN[f"{name}/{kind}"]
