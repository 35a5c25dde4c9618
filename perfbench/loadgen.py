"""Seeded load generation: query streams and closed-loop clients.

Every stream is a pure function of the run's seed.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from statistics import median

from repro.errors import ReproError


@dataclass(frozen=True)
class Query:
    """One query of a stream; ``key`` names it for ground truth and checks."""

    key: tuple
    vector: np.ndarray


class QueryMix:
    """Unique queries that never repeat in a run (warm-up included).

    Pool rows are handed out in blocks of ``BLOCK`` rows, each block in a
    seeded order: every seed draws nearly the same query set, in its own
    order, so run-to-run differences come from the system, not from which
    queries a seed happened to pick.
    """

    BLOCK = 256

    def __init__(self, pool: np.ndarray, rng: np.random.Generator):
        self.pool = pool
        self.rows = np.concatenate([
            start + rng.permutation(min(self.BLOCK, len(pool) - start))
            for start in range(0, len(pool), self.BLOCK)
        ])
        self._next = 0
        self._lock = threading.Lock()

    def take(self) -> Query:
        """The next never-seen query; safe to call from several client threads."""
        with self._lock:
            if self._next >= len(self.rows):
                raise IndexError("query pool exhausted; enlarge the pool")
            row = int(self.rows[self._next])
            self._next += 1
        return Query(("unique", row), self.pool[row])


@dataclass
class Outcome:
    """One operation: when it started and completed, and its result."""

    payload: object
    start: float
    done: float = 0.0
    value: object = None
    error: BaseException | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def latency(self) -> float:
        return self.done - self.start


@dataclass
class LoopResult:
    outcomes: list = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0

    @property
    def elapsed(self) -> float:
        return self.ended - self.started

    def ok_per_second(self, window: float = 1.0) -> float:
        """Successful operations per second: the median over the run's whole
        ``window``-second windows.

        An operation counts in each window in proportion to the part of its
        ``[start, done]`` span that falls in it, so a window's rate is not
        rounded to whole operations.  The median keeps a stall of a few
        seconds (a noisy neighbour, a collector pause) from moving the
        figure; a run shorter than one window gives its overall rate.
        """
        ok = [o for o in self.outcomes if o.ok]
        windows = int(self.elapsed // window)
        if windows < 1:
            return len(ok) / self.elapsed if self.elapsed > 0 else 0.0
        work = [0.0] * windows
        for o in ok:
            lo, hi = o.start - self.started, o.done - self.started
            span = hi - lo
            if span <= 0.0:
                slot = int(hi // window)
                if 0 <= slot < windows:
                    work[slot] += 1.0
                continue
            for slot in range(max(0, int(lo // window)), min(windows, int(hi // window) + 1)):
                part = min(hi, (slot + 1) * window) - max(lo, slot * window)
                if part > 0.0:
                    work[slot] += part / span
        return float(median(work)) / window

def closed_loop(op: Callable, streams: list, seconds: float) -> LoopResult:
    """One thread per stream; each sends its next payload when the last returns.

    ``streams[i]`` is a callable returning client ``i``'s next payload.
    Typed errors (``ReproError``: shed, timeout, staleness) are recorded as
    failed outcomes; any other exception ends the run.
    """
    result = LoopResult()
    start = time.monotonic()
    result.started = start
    stop_at = start + seconds
    lanes: list[list[Outcome]] = [[] for _ in streams]
    errors: list[BaseException] = []

    def client(lane: list, next_payload: Callable) -> None:
        try:
            while time.monotonic() < stop_at:
                outcome = Outcome(next_payload(), time.monotonic())
                try:
                    outcome.value = op(outcome.payload)
                except ReproError as exc:
                    outcome.error = exc
                outcome.done = time.monotonic()
                lane.append(outcome)
        except BaseException as exc:  # surfaced to the caller after join
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(lane, stream), daemon=True)
        for lane, stream in zip(lanes, streams)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.ended = time.monotonic()
    if errors:
        raise errors[0]
    for lane in lanes:
        result.outcomes.extend(lane)
    result.outcomes.sort(key=lambda o: o.start)
    return result
