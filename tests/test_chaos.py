"""Seeded chaos tests: the acceptance criteria of the resilience layer.

Each test drives a workload while a :class:`FaultInjector` executes a
deterministic :class:`FaultPlan`, then asserts the availability contract:

- replication factor 2 + any single machine crash or straggler -> zero
  failed queries;
- unrecoverable segment loss in degraded mode -> partial results with
  ``coverage < 1.0`` reported, never an unhandled exception;
- identical fault seeds -> identical event traces.
"""

import numpy as np
import pytest

from repro.cluster import ClosedLoopLoadGenerator, ClusterSimulator, make_cluster
from repro.core.distributed import DistributedSearcher
from repro.errors import (
    FaultInjectionError,
    PartialResultError,
    QueryTimeoutError,
)
from repro.faults import FaultInjector, FaultPlan, ResiliencePolicy


def seg_times(n, each=0.002):
    return {s: each for s in range(n)}


def run_load(
    plan,
    *,
    rf=2,
    policy=None,
    machines=4,
    segments=8,
    cores=4,
    connections=16,
    duration=2.0,
    each=0.002,
):
    """One closed-loop chaos run; returns (LoadResult, injector)."""
    injector = FaultInjector(plan)
    sim = ClusterSimulator(
        make_cluster(machines, segments, cores=cores, replication_factor=rf),
        injector=injector,
        policy=policy,
    )
    result = ClosedLoopLoadGenerator(sim, connections=connections).run(
        [seg_times(segments, each=each)], duration_seconds=duration
    )
    return result, injector


class TestSingleFaultAvailability:
    def test_machine_crash_with_rf2_zero_failed_queries(self):
        plan = FaultPlan(seed=1).crash(2, at=0.2, recover_at=1.0)
        result, injector = run_load(plan)
        assert result.completed > 0
        assert result.failed == 0
        assert result.mean_coverage == 1.0
        kinds = injector.trace_kinds()
        assert "crash" in kinds and "recover" in kinds

    def test_crash_without_recovery_still_zero_failed(self):
        plan = FaultPlan(seed=2).crash(1, at=0.1)
        result, injector = run_load(plan)
        assert result.failed == 0
        assert "crash" in injector.trace_kinds()

    def test_straggler_with_hedging_zero_failed(self):
        plan = FaultPlan(seed=3).straggle(1, factor=20.0, start=0.0, end=2.0)
        result, injector = run_load(
            plan, policy=ResiliencePolicy(hedge_after=0.01)
        )
        assert result.failed == 0
        kinds = injector.trace_kinds()
        assert "straggle" in kinds
        assert "hedge" in kinds  # tail tolerance actually engaged

    def test_straggler_without_hedging_is_slow_but_complete(self):
        plan = FaultPlan(seed=4).straggle(1, factor=20.0, start=0.0, end=2.0)
        result, _ = run_load(plan)
        assert result.failed == 0

    def test_injected_segment_faults_absorbed_by_retries(self):
        plan = (
            FaultPlan(seed=5)
            .fail_segment(0, failures=2)
            .fail_segment(3, failures=1)
            .fail_segment(5, failures=2)
        )
        result, injector = run_load(plan)
        assert result.failed == 0
        assert injector.trace_kinds().count("segment-fault") == 5
        assert "retry" in injector.trace_kinds()

    def test_dispatch_drops_are_resent(self):
        plan = FaultPlan(seed=6).degrade_network(
            drop_probability=0.2, start=0.0, end=2.0
        )
        result, injector = run_load(plan)
        assert result.failed == 0
        assert "drop" in injector.trace_kinds()


class TestDegradedMode:
    def test_unrecoverable_loss_reports_partial_coverage(self):
        """RF=1 + permanent machine loss: explicit coverage, no exceptions."""
        plan = FaultPlan(seed=7).crash(1, at=0.1)
        result, injector = run_load(
            plan,
            rf=1,
            machines=2,
            policy=ResiliencePolicy(allow_partial=True),
        )
        assert result.failed == 0  # never an unhandled exception
        assert result.partial > 0
        assert result.mean_coverage < 1.0
        assert "segment-lost" in injector.trace_kinds()

    def test_unrecoverable_loss_without_degraded_mode_fails_queries(self):
        plan = FaultPlan(seed=8).crash(1, at=0.1)
        result, _ = run_load(plan, rf=1, machines=2)
        assert result.failed > 0

    def test_min_coverage_floor_fails_queries_below_it(self):
        plan = FaultPlan(seed=9).crash(1, at=0.1)
        result, _ = run_load(
            plan,
            rf=1,
            machines=2,
            policy=ResiliencePolicy(allow_partial=True, min_coverage=0.9),
        )
        assert result.failed > 0  # coverage 0.5 violates the floor

    def test_impossible_deadline_times_out_queries(self):
        # Each timed-out query costs only the 1e-4 s deadline, so a 2 s
        # closed loop would issue ~320k of them; 0.02 s issues a few
        # thousand.
        result, injector = run_load(
            FaultPlan(seed=10),
            policy=ResiliencePolicy(deadline=1e-4, allow_partial=True),
            duration=0.02,
        )
        assert result.failed == result.completed > 0

    def test_deadline_cuts_straggler_segments_in_degraded_mode(self):
        plan = FaultPlan(seed=11).straggle(1, factor=200.0, start=0.0, end=2.0)
        result, injector = run_load(
            plan,
            policy=ResiliencePolicy(deadline=0.05, allow_partial=True),
            connections=8,
        )
        assert result.failed == 0
        assert result.mean_coverage <= 1.0
        # every query either made the deadline fully or shed load explicitly
        assert result.partial == sum(
            1 for e in injector.trace if e.kind == "deadline"
        )


class TestFaultMatrixSweep:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_matrix_with_rf2_zero_failed(self, seed):
        """Acceptance: any seeded single-failure matrix, RF=2, no failures."""
        plan = FaultPlan.random(
            seed,
            num_machines=4,
            num_segments=8,
            duration=2.0,
            crashes=2,
            stragglers=1,
            segment_faults=2,
        )
        result, _ = run_load(plan)
        assert result.completed > 0
        assert result.failed == 0
        assert result.mean_coverage == 1.0

    def test_identical_seeds_reproduce_identical_traces(self):
        traces = []
        for _ in range(2):
            plan = FaultPlan.random(
                7, num_machines=4, num_segments=8, crashes=2, segment_faults=2
            )
            _, injector = run_load(plan)
            traces.append(injector.trace)
        assert traces[0]  # the run actually injected something
        assert traces[0] == traces[1]

    def test_breaker_quarantines_repeat_offender(self):
        """A machine failing every attempt trips the breaker; queries survive."""
        plan = FaultPlan(seed=12)
        for seg_no in range(8):
            plan.fail_segment(seg_no, failures=2, machine_id=1)
        result, injector = run_load(plan, policy=ResiliencePolicy(breaker_threshold=2))
        assert result.failed == 0
        assert "breaker-open" in injector.trace_kinds()


class TestRealSearcherChaos:
    """Chaos through the real distributed query path (not the simulator)."""

    def _searchers(self, db, plan=None, policy=None, rf=2, machines=2):
        store = db.service.store("Post", "content_emb")
        baseline = DistributedSearcher(store, machines, replication_factor=rf)
        chaotic = DistributedSearcher(
            store,
            machines,
            replication_factor=rf,
            injector=FaultInjector(plan) if plan is not None else None,
            policy=policy,
        )
        return store, baseline, chaotic

    def test_segment_faults_do_not_change_results(self, loaded_post_db):
        db = loaded_post_db
        plan = FaultPlan(seed=20).fail_segment(0, failures=2).fail_segment(2)
        _, baseline, chaotic = self._searchers(db, plan)
        query = db._test_vectors[17]
        with db.snapshot() as snap:
            want = baseline.search(query, 10, snapshot_tid=snap.tid, ef=64)
            got = chaotic.search(query, 10, snapshot_tid=snap.tid, ef=64)
        assert np.array_equal(want.result.ids, got.result.ids)
        assert np.allclose(want.result.distances, got.result.distances)
        assert got.coverage == 1.0
        assert got.failed_segments == []
        assert got.retries >= 3  # the injected failures were retried away

    def test_machine_crash_fails_over_between_queries(self, loaded_post_db):
        db = loaded_post_db
        plan = FaultPlan(seed=21).crash(1, at_query=1)
        _, baseline, chaotic = self._searchers(db, plan)
        queries = db._test_vectors[:3]
        with db.snapshot() as snap:
            for query in queries:
                want = baseline.search(query, 5, snapshot_tid=snap.tid, ef=64)
                got = chaotic.search(query, 5, snapshot_tid=snap.tid, ef=64)
                assert np.array_equal(want.result.ids, got.result.ids)
                assert got.coverage == 1.0
        assert "crash" in chaotic.injector.trace_kinds()

    def test_exhausted_segment_raises_partial_result_error(self, loaded_post_db):
        db = loaded_post_db
        plan = FaultPlan(seed=22).fail_segment(1, failures=10)
        _, _, chaotic = self._searchers(db, plan, rf=1)
        with db.snapshot() as snap:
            with pytest.raises(PartialResultError) as excinfo:
                chaotic.search(db._test_vectors[0], 5, snapshot_tid=snap.tid, ef=64)
        assert excinfo.value.coverage == 0.75  # 3 of 4 segments answered
        assert excinfo.value.result is not None  # partial top-k attached

    def test_exhausted_segment_degrades_when_allowed(self, loaded_post_db):
        db = loaded_post_db
        plan = FaultPlan(seed=23).fail_segment(1, failures=10)
        _, _, chaotic = self._searchers(
            db, plan, rf=1, policy=ResiliencePolicy(allow_partial=True)
        )
        with db.snapshot() as snap:
            out = chaotic.search(db._test_vectors[0], 5, snapshot_tid=snap.tid, ef=64)
        assert out.coverage == 0.75
        assert out.failed_segments == [1]
        assert out.retries >= 3
        assert len(out.result) == 5  # still a full top-k from live segments

    def test_zero_deadline_raises_query_timeout(self, loaded_post_db):
        db = loaded_post_db
        _, _, chaotic = self._searchers(
            db,
            FaultPlan(seed=24),
            policy=ResiliencePolicy(deadline=0.0, allow_partial=True),
        )
        with db.snapshot() as snap:
            with pytest.raises(QueryTimeoutError):
                chaotic.search(db._test_vectors[0], 5, snapshot_tid=snap.tid, ef=64)

    def test_store_level_fault_hook(self, loaded_post_db):
        """install_store routes search_segment through the injected gate."""
        db = loaded_post_db
        store = db.service.store("Post", "content_emb")
        injector = FaultInjector(FaultPlan(seed=25).fail_segment(2, failures=1))
        injector.install_store(store)
        try:
            query = db._test_vectors[0]
            with db.snapshot() as snap:
                with pytest.raises(FaultInjectionError):
                    store.search_segment(2, query, 5, snapshot_tid=snap.tid)
                # the single injected failure is consumed; next attempt works
                out = store.search_segment(2, query, 5, snapshot_tid=snap.tid)
            assert out.seg_no == 2
        finally:
            store.fault_hook = None
