"""Seeded request generators for the benchmark.

`BlockCounter` keeps, for every aligned block of the horizon, how many active
windows lie inside it.  Inserting or deleting an aligned window touches only
its O(log H) ancestor blocks.  Aligned windows are laminar, so Hall's
condition over aligned blocks decides feasibility of the gamma-gridded
instance: for power-of-two gamma and spans of at least gamma the count
agrees exactly with `reallocsched.feasibility.underallocated`.  For other gamma it is only a
necessary condition; `test_gen.py` confirms the streams the benchmark uses
with the library's oracle.
"""

from __future__ import annotations

import random

#: Window draws per insert before the horizon counts as too full.
TRIES = 64
#: Churn holds the active count within target * (1 +- BAND).
BAND = 0.01


def _is_power_of_two(x: int) -> bool:
    return x > 0 and x & (x - 1) == 0


class BlockCounter:
    """Active aligned windows per aligned block, on m machines at slack gamma."""

    def __init__(self, machines: int, gamma: int, horizon: int):
        if not _is_power_of_two(horizon):
            raise ValueError(f"horizon must be a power of two, got {horizon}")
        self.machines = machines
        self.gamma = gamma
        self.top = horizon.bit_length() - 1
        self.counts: dict[tuple[int, int], int] = {}

    def _blocks(self, start: int, span: int):
        for k in range(span.bit_length() - 1, self.top + 1):
            yield k, start >> k

    def fits(self, start: int, span: int) -> bool:
        """Whether adding the window keeps every enclosing block within
        machines * size / gamma windows."""
        counts = self.counts
        for k, index in self._blocks(start, span):
            if (counts.get((k, index), 0) + 1) * self.gamma > self.machines << k:
                return False
        return True

    def add(self, start: int, span: int) -> None:
        counts = self.counts
        for key in self._blocks(start, span):
            counts[key] = counts.get(key, 0) + 1

    def remove(self, start: int, span: int) -> None:
        counts = self.counts
        for key in self._blocks(start, span):
            left = counts[key] - 1
            if left:
                counts[key] = left
            else:
                del counts[key]


class ChurnGenerator:
    """Aligned insert/delete stream whose every prefix stays
    gamma-underallocated on `machines` machines.

    Spans are drawn as powers of two with a uniform exponent between
    `span_min` and `span_max`, starts uniformly among the aligned positions
    of the horizon.  Requests are (op, job_id, start, end) tuples, end None
    for deletes.
    """

    def __init__(self, *, seed: int, machines: int, gamma: int, horizon: int,
                 span_min: int, span_max: int):
        if not (_is_power_of_two(span_min) and _is_power_of_two(span_max)):
            raise ValueError("span bounds must be powers of two")
        if not gamma <= span_min <= span_max <= horizon:
            raise ValueError("need gamma <= span_min <= span_max <= horizon")
        self.rng = random.Random(seed)
        self.counter = BlockCounter(machines, gamma, horizon)
        self.horizon = horizon
        self.exponents = range(span_min.bit_length() - 1, span_max.bit_length())
        self.active: dict[str, tuple[int, int]] = {}
        self._ids: list[str] = []
        self._next = 0

    def insert(self) -> tuple[str, str, int, int]:
        rng = self.rng
        job_id = f"j{self._next}"
        for _ in range(TRIES):
            span = 1 << rng.choice(self.exponents)
            start = rng.randrange(self.horizon // span) * span
            if not self.counter.fits(start, span):
                continue
            self._next += 1
            self.counter.add(start, span)
            self.active[job_id] = (start, span)
            self._ids.append(job_id)
            return ("insert", job_id, start, start + span)
        raise RuntimeError(f"no admissible window in {TRIES} draws; "
                           f"the horizon is too full for {len(self.active)} jobs")

    def delete(self) -> tuple[str, str, int, None]:
        ids = self._ids
        pos = self.rng.randrange(len(ids))
        ids[pos], ids[-1] = ids[-1], ids[pos]
        job_id = ids.pop()
        start, span = self.active.pop(job_id)
        self.counter.remove(start, span)
        return ("delete", job_id, start, None)

    def fill(self, target: int) -> list[tuple]:
        """Inserts until `target` jobs are active."""
        return [self.insert() for _ in range(target - len(self.active))]

    def churn(self, count: int, target: int) -> list[tuple]:
        """`count` requests, insert or delete with equal odds, holding the
        active count within target * (1 +- BAND)."""
        lo, hi = target * (1 - BAND), target * (1 + BAND)
        out = []
        for _ in range(count):
            n = len(self.active)
            if n >= hi or (n > lo and self.rng.random() < 0.5):
                out.append(self.delete())
            else:
                out.append(self.insert())
        return out
