"""Checks of the benchmark's generator against the library's oracle.

    PYTHONPATH=src python3 -m pytest bench/test_gen.py
"""

import random

import pytest

from reallocsched.core import Job, Window
from reallocsched.feasibility import underallocated

from gen import BlockCounter, ChurnGenerator
from workloads import ChurnLarge, WideSparse


def jobs_of(active: dict) -> list[Job]:
    return [Job(j, Window(s, s + w)) for j, (s, w) in active.items()]


@pytest.mark.parametrize("machines,gamma,horizon", [(1, 4, 128), (2, 8, 256), (2, 16, 512)])
@pytest.mark.parametrize("seed", range(4))
def test_block_count_decides_underallocation_for_power_of_two_gamma(machines, gamma, horizon, seed):
    rng = random.Random(seed)
    counter = BlockCounter(machines, gamma, horizon)
    active: dict[str, tuple[int, int]] = {}
    exponents = range(gamma.bit_length() - 1, horizon.bit_length())
    rejected = 0
    for k in range(300):
        if active and rng.random() < 0.3:
            job_id = rng.choice(sorted(active))
            counter.remove(*active.pop(job_id))
            continue
        span = 1 << rng.choice(exponents)
        start = rng.randrange(horizon // span) * span
        candidate = Job(f"c{k}", Window(start, start + span))
        fits = counter.fits(start, span)
        assert fits == underallocated(jobs_of(active) + [candidate], machines, gamma)
        if fits:
            counter.add(start, span)
            active[candidate.id] = (start, span)
        else:
            rejected += 1
    assert rejected, "the horizon never filled up, so rejections went untested"


def replay_prefixes(gen: ChurnGenerator, requests) -> None:
    """Every prefix of the emitted stream is underallocated."""
    active: dict[str, tuple[int, int]] = {}
    machines, gamma = gen.counter.machines, gen.counter.gamma
    for op, job_id, start, end in requests:
        if op == "insert":
            active[job_id] = (start, end - start)
            assert underallocated(jobs_of(active), machines, gamma), job_id
        else:
            del active[job_id]
    assert active == gen.active


@pytest.mark.parametrize("seed", range(3))
def test_small_churn_prefixes_are_underallocated(seed):
    gen = ChurnGenerator(seed=seed, machines=2, gamma=8, horizon=1024, span_min=8, span_max=256)
    replay_prefixes(gen, gen.fill(100) + gen.churn(400, 100))


@pytest.mark.parametrize("seed", (1, 2))
def test_wide_sparse_prefixes_are_underallocated(seed):
    # gamma = 192 is not a power of two, so the count is only necessary:
    # confirm the stream the benchmark serves with the oracle.
    w = WideSparse
    gen = ChurnGenerator(seed=seed, machines=w.MACHINES, gamma=w.GAMMA, horizon=w.HORIZON,
                         span_min=w.SPAN_MIN, span_max=w.SPAN_MAX)
    replay_prefixes(gen, gen.fill(w.TARGET) + gen.churn(600, w.TARGET))


def test_churn_holds_the_band_and_repeats_per_seed():
    w = ChurnLarge
    streams = []
    for _ in range(2):
        gen = ChurnGenerator(seed=3, machines=w.MACHINES, gamma=w.GAMMA, horizon=w.HORIZON,
                             span_min=w.SPAN_MIN, span_max=w.SPAN_MAX)
        streams.append(gen.fill(w.TARGET) + gen.churn(3000, w.TARGET))
    assert streams[0] == streams[1]
    n = w.TARGET
    for op, *_ in streams[0][w.TARGET:]:
        n += 1 if op == "insert" else -1
        assert 0.9 * w.TARGET - 1 <= n <= 1.1 * w.TARGET + 1
