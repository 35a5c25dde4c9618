"""Distributed vector search (paper Sec. 5.1, Figure 5).

Bridges the embedding store to the simulated cluster:

- :meth:`DistributedSearcher.search` executes a real distributed query —
  per-segment local top-k routed to that segment's replica holder, then a
  coordinator merge — and returns both the merged result and the measured
  per-segment service times.  Correctness is machine-count invariant (the
  merge of local top-k lists equals the single-machine answer), which tests
  verify.
- :meth:`DistributedSearcher.measure_samples` collects service-time samples
  for the load generator, which is how Figures 9–10 are produced.

Resilience (``repro.faults``): with a replication factor above one the
searcher holds a replica map, and each segment job retries with exponential
backoff across replica holders when a search attempt raises
:class:`~repro.errors.FaultInjectionError` (injected) or the machine is
down.  A per-query deadline converts overruns into
:class:`~repro.errors.QueryTimeoutError`; degraded mode returns partial
top-k with an explicit ``coverage`` instead of failing the query; a circuit
breaker (clocked in query ordinals) quarantines repeat-offender machines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..cluster.coordinator import ClusterSimulator
from ..cluster.machine import Machine, make_cluster, segment_holders
from ..cluster.network import NetworkModel
from ..errors import FaultInjectionError, PartialResultError, QueryTimeoutError
from ..faults.injector import FaultInjector
from ..faults.resilience import CircuitBreaker, ResiliencePolicy
from ..index.interface import SearchResult
from ..telemetry import QueryProfile, get_telemetry
from .service import EmbeddingStore, merge_topk

__all__ = ["DistributedSearchOutput", "DistributedSearcher"]


@dataclass
class DistributedSearchOutput:
    result: SearchResult
    segment_seconds: dict[int, float]
    per_machine_seconds: dict[int, float]
    #: Fraction of segments whose local top-k made it into the merge; 1.0 is
    #: a complete answer, below 1.0 is an explicit degraded result.
    coverage: float = 1.0
    failed_segments: list[int] = field(default_factory=list)
    retries: int = 0
    hedges: int = 0
    #: Populated only when telemetry is enabled: the query's trace tree plus
    #: the scalar facts above, ready for the bench harness to serialize.
    profile: QueryProfile | None = None


class DistributedSearcher:
    """Executes segment searches placed across simulated machines."""

    def __init__(
        self,
        store: EmbeddingStore,
        num_machines: int,
        cores_per_machine: int = 32,
        network: NetworkModel | None = None,
        replication_factor: int = 1,
        injector: FaultInjector | None = None,
        policy: ResiliencePolicy | None = None,
    ):
        self.store = store
        self.machines: list[Machine] = make_cluster(
            num_machines,
            store.num_segments,
            cores=cores_per_machine,
            replication_factor=replication_factor,
        )
        self.network = network or NetworkModel()
        self.injector = injector
        self.policy = policy if policy is not None else ResiliencePolicy()
        # The breaker's clock is the query ordinal, so breaker_cooldown is
        # "how many queries before a half-open probe".
        self.breaker = CircuitBreaker(
            self.policy.breaker_threshold, self.policy.breaker_cooldown
        )
        self._holders = segment_holders(self.machines)
        self._queries_issued = 0

    def simulator(self, dim: int | None = None, k: int = 10) -> ClusterSimulator:
        return ClusterSimulator(
            self.machines,
            self.network,
            dim=dim or self.store.embedding.dimension,
            k=k,
            injector=self.injector,
            policy=self.policy,
        )

    # ------------------------------------------------------------ execution
    def search(
        self,
        query: np.ndarray,
        k: int,
        snapshot_tid: int,
        ef: int | None = None,
    ) -> DistributedSearchOutput:
        """Real distributed top-k: local searches + coordinator merge.

        Raises :class:`QueryTimeoutError` when the policy deadline elapses
        before any segment answers (or at all, with partial results
        disallowed) and :class:`PartialResultError` when segments are
        unrecoverable and degraded answers are off or below
        ``min_coverage``.
        """
        policy = self.policy
        injector = self.injector
        tel = get_telemetry()
        query_index = self._queries_issued
        self._queries_issued += 1
        if injector is not None:
            injector.advance_query(self.machines, query_index)
        started = time.perf_counter()
        backoff_budget = 0.0  # simulated backoff counts against the deadline
        segment_seconds: dict[int, float] = {}
        per_machine: dict[int, float] = {}
        outputs = []
        failed: list[int] = []
        retries = 0
        hedges = 0
        deadline_hit = False
        with tel.span(
            "coordinator.query",
            record="query.latency_seconds",
            query_index=query_index,
            k=k,
            segments=self.store.num_segments,
        ) as qspan:
            for seg_no in range(self.store.num_segments):
                if policy.deadline is not None and not deadline_hit:
                    elapsed = (time.perf_counter() - started) + backoff_budget
                    if elapsed > policy.deadline:
                        deadline_hit = True
                        qspan.event("deadline", seg_no=seg_no)
                        if injector is not None:
                            injector.record(
                                "deadline", at=float(query_index), seg_no=seg_no
                            )
                if deadline_hit:
                    failed.append(seg_no)
                    continue
                out, served_by, cost, penalty, attempts, hedged = (
                    self._search_segment_resilient(
                        seg_no, query, k, snapshot_tid, ef, query_index, tel
                    )
                )
                retries += attempts
                hedges += hedged
                backoff_budget += penalty
                if out is None:
                    failed.append(seg_no)
                    qspan.event("segment-lost", seg_no=seg_no)
                    if injector is not None:
                        injector.record(
                            "segment-lost", at=float(query_index), seg_no=seg_no
                        )
                    continue
                segment_seconds[seg_no] = cost
                per_machine[served_by] = per_machine.get(served_by, 0.0) + cost
                outputs.append(out)
            merged = merge_topk(
                (out.pairs(self.store.segment_size) for out in outputs), k
            )
            if merged:
                dists, vids = zip(*merged)
                result = SearchResult(
                    np.asarray(vids), np.asarray(dists, dtype=np.float32)
                )
            else:
                result = SearchResult.empty()
            total = self.store.num_segments
            coverage = 1.0 if total == 0 else (total - len(failed)) / total
            if tel.enabled:
                tel.inc("query.count")
                qspan.set(coverage=coverage, retries=retries, hedges=hedges)
                if coverage < 1.0:
                    tel.inc("resilience.degraded_queries")
            if failed:
                if deadline_hit and not segment_seconds:
                    raise QueryTimeoutError(
                        "deadline elapsed before any segment answered",
                        deadline=policy.deadline,
                    )
                if deadline_hit and not policy.allow_partial:
                    raise QueryTimeoutError(
                        f"query missed its {policy.deadline:g}s deadline with "
                        f"{len(failed)} segment(s) unanswered",
                        deadline=policy.deadline,
                    )
                if not policy.allow_partial:
                    raise PartialResultError(
                        f"{len(failed)} of {total} segment(s) unrecoverable "
                        f"(coverage {coverage:.2f}); enable allow_partial for "
                        f"degraded answers",
                        coverage=coverage,
                        result=result,
                    )
                if coverage < policy.min_coverage:
                    raise PartialResultError(
                        f"coverage {coverage:.2f} below required minimum "
                        f"{policy.min_coverage:.2f}",
                        coverage=coverage,
                        result=result,
                    )
        output = DistributedSearchOutput(
            result,
            segment_seconds,
            per_machine,
            coverage=coverage,
            failed_segments=failed,
            retries=retries,
            hedges=hedges,
        )
        if tel.enabled:
            output.profile = QueryProfile(
                qspan,
                metrics={
                    "coverage": coverage,
                    "retries": retries,
                    "hedges": hedges,
                    "failed_segments": list(failed),
                },
            )
        return output

    def _search_segment_resilient(
        self,
        seg_no: int,
        query: np.ndarray,
        k: int,
        snapshot_tid: int,
        ef: int | None,
        query_index: int,
        tel=None,
    ):
        """One segment job with retry/failover across replica holders.

        Returns ``(output|None, machine_id, cost_seconds, backoff_seconds,
        failures, hedges)``; the cost folds the simulated exponential backoff
        into the measured service time so the load model (and the deadline)
        sees the retry tax.

        With ``policy.hedge_after`` set, the measured service time is scaled
        by the injector's straggler multiplier and, past the threshold, a
        duplicate dispatch races the first alternate replica; the winner's
        cost is kept (the duplicate is charged ``hedge_after`` of waiting
        before it launches, per the classic tail-tolerance accounting).
        Hedging never changes the top-k payload — replicas answer from the
        same store — only the cost model and trace.
        """
        policy = self.policy
        injector = self.injector
        if tel is None:
            tel = get_telemetry()
        holders = [m for m in self._holders.get(seg_no, []) if m.alive]
        candidates = [
            m for m in holders if self.breaker.allow(m.machine_id, query_index)
        ]
        # A breaker must never turn a recoverable segment into a lost one:
        # when it quarantines every live holder, probe anyway.
        if not candidates:
            if holders and tel.enabled:
                span = tel.current_span()
                if span is not None:
                    span.event(
                        "breaker-rejected",
                        seg_no=seg_no,
                        machines=[m.machine_id for m in holders],
                    )
            candidates = holders
        penalty = 0.0
        failures = 0
        hedges = 0
        for attempt in range(policy.max_attempts):
            if not candidates:
                break
            machine = candidates[attempt % len(candidates)]
            with tel.span(
                "machine.dispatch",
                machine_id=machine.machine_id,
                seg_no=seg_no,
                attempt=attempt,
            ) as mspan:
                try:
                    if injector is not None:
                        injector.raise_segment_fault(
                            seg_no, machine.machine_id, attempt, now=float(query_index)
                        )
                    start = time.perf_counter()
                    with tel.span("segment.search", seg_no=seg_no):
                        out = self.store.search_segment(
                            seg_no, query, k, snapshot_tid, ef=ef
                        )
                    elapsed = time.perf_counter() - start
                except FaultInjectionError as exc:
                    failures += 1
                    penalty += policy.backoff(attempt)
                    mspan.set(outcome="fault", error=str(exc))
                    tel.inc("resilience.retries")
                    if self.breaker.record_failure(machine.machine_id, query_index):
                        if injector is not None:
                            injector.record(
                                "breaker-open",
                                at=float(query_index),
                                machine_id=machine.machine_id,
                            )
                    if injector is not None:
                        injector.record(
                            "retry",
                            at=float(query_index),
                            machine_id=machine.machine_id,
                            seg_no=seg_no,
                            attempt=attempt,
                        )
                    continue
                self.breaker.record_success(machine.machine_id)
                machine.record_jobs(1)
                cost = elapsed
                served_by = machine.machine_id
                if policy.hedge_after is not None:
                    # Straggler model: injected slowdown scales the measured
                    # service time; past hedge_after the duplicate races the
                    # first alternate replica and the cheaper answer wins.
                    slow = (
                        injector.slowdown(machine.machine_id, float(query_index))
                        if injector is not None
                        else 1.0
                    )
                    cost = elapsed * slow
                    mspan.set(projected_seconds=cost)
                    alternate = next(
                        (
                            m
                            for m in candidates
                            if m.machine_id != machine.machine_id
                        ),
                        None,
                    )
                    if cost > policy.hedge_after and alternate is not None:
                        out, served_by, cost, did_hedge = self._hedge_dispatch(
                            seg_no,
                            query,
                            k,
                            snapshot_tid,
                            ef,
                            query_index,
                            machine,
                            alternate,
                            out,
                            cost,
                            tel,
                        )
                        hedges += did_hedge
                mspan.set(outcome="ok", cost_seconds=cost + penalty)
                return out, served_by, cost + penalty, penalty, failures, hedges
        return None, -1, penalty, penalty, failures, hedges

    def _hedge_dispatch(
        self,
        seg_no: int,
        query: np.ndarray,
        k: int,
        snapshot_tid: int,
        ef: int | None,
        query_index: int,
        primary,
        alternate,
        primary_out,
        primary_cost: float,
        tel,
    ):
        """Duplicate-dispatch a straggling segment job to ``alternate``.

        The duplicate launches after ``hedge_after`` seconds of waiting on
        the primary, so its charged cost is ``hedge_after`` plus its own
        (slowdown-scaled) service time; the cheaper of the two dispatches
        wins.  Faults on the hedge path fall back to the primary answer.
        """
        policy = self.policy
        injector = self.injector
        with tel.span(
            "hedge.dispatch",
            machine_id=alternate.machine_id,
            seg_no=seg_no,
            primary=primary.machine_id,
        ) as hspan:
            try:
                if injector is not None:
                    injector.raise_segment_fault(
                        seg_no, alternate.machine_id, 0, now=float(query_index)
                    )
                hedge_start = time.perf_counter()
                hedge_out = self.store.search_segment(
                    seg_no, query, k, snapshot_tid, ef=ef
                )
                hedge_elapsed = time.perf_counter() - hedge_start
            except FaultInjectionError as exc:
                hspan.set(outcome="fault", error=str(exc))
                self.breaker.record_failure(alternate.machine_id, query_index)
                return primary_out, primary.machine_id, primary_cost, 1
            self.breaker.record_success(alternate.machine_id)
            alternate.record_jobs(1)
            alt_slow = (
                injector.slowdown(alternate.machine_id, float(query_index))
                if injector is not None
                else 1.0
            )
            hedge_cost = policy.hedge_after + hedge_elapsed * alt_slow
            hspan.set(outcome="ok", cost_seconds=hedge_cost)
        tel.inc("resilience.hedges")
        if injector is not None:
            injector.record(
                "hedge",
                at=float(query_index),
                machine_id=alternate.machine_id,
                seg_no=seg_no,
                detail=f"duplicate of machine {primary.machine_id}",
            )
        if hedge_cost < primary_cost:
            return hedge_out, alternate.machine_id, hedge_cost, 1
        return primary_out, primary.machine_id, primary_cost, 1

    def measure_samples(
        self,
        queries: np.ndarray,
        k: int,
        snapshot_tid: int,
        ef: int | None = None,
    ) -> tuple[list[dict[int, float]], list[SearchResult]]:
        """Measured per-query segment service times (load-generator input)."""
        samples: list[dict[int, float]] = []
        results: list[SearchResult] = []
        for query in np.asarray(queries, dtype=np.float32):
            output = self.search(query, k, snapshot_tid, ef=ef)
            samples.append(output.segment_seconds)
            results.append(output.result)
        return samples, results
