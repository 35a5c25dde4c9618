"""Dynamic micro-batching: coalesce compatible requests into one scan.

After a worker dequeues a batchable request (the *leader*), it keeps
draining queue fronts with the same batch key — identical attribute set
and k; default ef; no filter; full-access tenant — until the batch is
full or the collection window closes.  The window only costs latency
when there is something to wait for: an already-full queue batches
instantly, and a lone leader facing an empty queue returns at once (no
rider is queued, and in a closed loop none can come while it waits).
Re-scans are driven by the queue's put counter, so fronts are only
re-examined after a *new arrival* — a queue holding only incompatible
requests parks the worker in one blocking wait instead of spinning
drain/check cycles for the rest of the window.

The batch then runs through :func:`repro.core.search.vector_search_batch`,
which visits each segment once for all queries with the exact batch scan
(recall never drops below the per-query HNSW path); batches below
:data:`~repro.core.service.MIN_FUSED` execute per-query.
"""

from __future__ import annotations

import time

from .tenancy import WeightedFairQueue

__all__ = ["MicroBatcher"]


class MicroBatcher:
    """Collect same-key requests from the queue within a time/size window."""

    def __init__(
        self,
        queue: WeightedFairQueue,
        window_seconds: float = 0.002,
        max_batch: int = 32,
    ):
        self.queue = queue
        self.window_seconds = float(window_seconds)
        self.max_batch = int(max_batch)

    def collect(self, leader) -> list:
        """The leader plus any compatible requests arriving in the window."""
        batch = [leader]
        key = leader.batch_key()
        if key is None or self.max_batch <= 1:
            return batch
        deadline = time.monotonic() + self.window_seconds
        # Never let batch collection eat the leader's own deadline: a
        # request due sooner than the window closes collection early and
        # executes with whatever riders are already there.
        leader_deadline = getattr(leader, "deadline", None)
        if leader_deadline is not None:
            deadline = min(deadline, leader_deadline)
        while len(batch) < self.max_batch:
            # Read the arrival counter BEFORE draining: a put landing
            # between the drain and the wait then wakes the wait
            # immediately instead of being missed for a whole slice.
            seen = self.queue.put_sequence()
            matched = self.queue.drain_matching(
                lambda request: request.batch_key() == key,
                self.max_batch - len(batch),
            )
            batch.extend(matched)
            if len(batch) >= self.max_batch:
                break
            if len(batch) == 1 and self.queue.depth() == 0:
                break  # nothing queued to ride along: skip the window
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            if not matched:
                self.queue.wait_for_put(seen, remaining)
        return batch
