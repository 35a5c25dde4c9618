"""Tests for the competitor behavioral simulators."""

import numpy as np
import pytest

from repro.competitors import (
    MilvusSim,
    Neo4jSim,
    NeptuneSim,
    PROFILES,
    TigerVectorSystem,
)
from repro.datasets import make_sift_like
from repro.errors import VectorSearchError


@pytest.fixture(scope="module")
def dataset():
    ds = make_sift_like(1500, num_queries=15)
    return ds.with_ground_truth(10)


@pytest.fixture(scope="module")
def built_systems(dataset):
    systems = {
        "TigerVector": TigerVectorSystem(segment_size=500),
        "Milvus": MilvusSim(segment_size=500),
        "Neo4j": Neo4jSim(),
        "Neptune": NeptuneSim(),
    }
    timings = {name: s.load_and_build(dataset) for name, s in systems.items()}
    return systems, timings


class TestConstraints:
    def test_paper_limitation_matrix(self):
        """The capability gaps the paper tabulates (Sec. 2.3)."""
        assert PROFILES["TigerVector"].supports_ef_tuning
        assert PROFILES["Milvus"].supports_ef_tuning
        assert not PROFILES["Neo4j"].supports_ef_tuning
        assert not PROFILES["Neptune"].supports_ef_tuning
        assert not PROFILES["Neo4j"].prefilter  # post-filter only
        assert not PROFILES["Neptune"].atomic_updates
        assert not PROFILES["Neptune"].distributed
        assert not PROFILES["Neo4j"].distributed
        assert PROFILES["TigerVector"].atomic_updates
        assert PROFILES["TigerVector"].distributed

    def test_fixed_ef_ignored_tuning(self, built_systems):
        systems, _ = built_systems
        neo = systems["Neo4j"]
        assert neo.effective_ef(500) == neo.profile.fixed_ef
        tv = systems["TigerVector"]
        assert tv.effective_ef(500) == 500

    def test_neo4j_single_index(self, built_systems):
        systems, _ = built_systems
        assert len(systems["Neo4j"].indexes) == 1
        assert len(systems["Neptune"].indexes) == 1
        assert len(systems["TigerVector"].indexes) == 3  # 1500 / 500

    def test_neptune_cost_model(self):
        nep = PROFILES["Neptune"]
        tv = PROFILES["TigerVector"]
        assert nep.hardware.cost_ratio(tv.hardware) == pytest.approx(22.42, rel=0.01)


class TestSearchBehaviour:
    def test_all_systems_return_valid_topk(self, built_systems, dataset):
        systems, _ = built_systems
        q = dataset.queries[0]
        for system in systems.values():
            m = system.search(q, 10)
            assert len(m.ids) == 10
            assert list(m.distances) == sorted(m.distances)
            assert m.compute_seconds > 0
            assert m.latency_seconds > m.service_seconds

    def test_recall_ordering(self, built_systems, dataset):
        """Neo4j's fixed point sits below the tunable systems' high-ef points."""
        systems, _ = built_systems
        tv = systems["TigerVector"].evaluate(dataset, k=10, ef=128, num_queries=15)
        neo = systems["Neo4j"].evaluate(dataset, k=10, num_queries=15)
        nep = systems["Neptune"].evaluate(dataset, k=10, num_queries=15)
        assert tv["recall"] > neo["recall"] + 0.1
        assert nep["recall"] > neo["recall"]

    def test_search_without_build_fails(self):
        with pytest.raises(VectorSearchError):
            Neo4jSim().search(np.zeros(8, dtype=np.float32), 5)

    def test_qps_model_monotone_in_service_time(self, built_systems):
        systems, _ = built_systems
        tv = systems["TigerVector"]
        assert tv.qps(0.001) > tv.qps(0.002)


class TestFilteredSearchBehaviour:
    def test_prefilter_vs_postfilter_results_match(self, built_systems, dataset):
        systems, _ = built_systems
        allowed = np.zeros(len(dataset), dtype=bool)
        allowed[::3] = True
        q = dataset.queries[1]
        pre = systems["TigerVector"].filtered_search(q, 5, allowed, ef=256)
        post = systems["Neo4j"].filtered_search(q, 5, allowed)
        assert all(allowed[i] for i in pre.ids)
        assert all(allowed[i] for i in post.ids)

    def test_postfilter_costs_more_at_low_selectivity(self, built_systems, dataset):
        """Sec 5.2's argument: post-filter needs repeated enlarged searches
        when the filter is selective, so its cost grows as selectivity drops."""
        systems, _ = built_systems
        neo = systems["Neo4j"]
        q = dataset.queries[2]
        high = np.ones(len(dataset), dtype=bool)  # unselective: one round
        low = np.zeros(len(dataset), dtype=bool)
        low[::50] = True  # 2% selectivity: repeated enlarged rounds
        cheap = min(
            neo.filtered_search(q, 5, high).compute_seconds for _ in range(3)
        )
        costly = min(
            neo.filtered_search(q, 5, low).compute_seconds for _ in range(3)
        )
        assert costly > 2 * cheap

    def test_filtered_k_satisfied_when_possible(self, built_systems, dataset):
        systems, _ = built_systems
        allowed = np.zeros(len(dataset), dtype=bool)
        allowed[:20] = True
        m = systems["Neo4j"].filtered_search(dataset.queries[0], 5, allowed)
        assert len(m.ids) == 5


#: Interleaved load+build trials per system for the timing orderings.
TIMING_TRIALS = 3


@pytest.fixture(scope="module")
def min_timings(built_systems, dataset):
    """Per-system minimum of each Table-2 timing over interleaved trials.

    One sample of a ~0.03 s load is at the mercy of the scheduler; the
    minimum over trials that alternate between systems filters that noise
    the same way ``BENCH_telemetry`` does, so drift hits every system.
    The module's ``built_systems`` run is the first trial; Neo4j's build
    gap is wide enough (~4x against the 2x floor) that it is not re-run.
    """
    _, first = built_systems
    best = {name: dict(timings) for name, timings in first.items()}
    factories = {
        "TigerVector": lambda: TigerVectorSystem(segment_size=500),
        "Milvus": lambda: MilvusSim(segment_size=500),
    }
    for _ in range(TIMING_TRIALS - 1):
        for name, factory in factories.items():
            for key, value in factory().load_and_build(dataset).items():
                best[name][key] = min(best[name][key], value)
    return best


class TestBuildTimings:
    def test_table2_orderings(self, built_systems, min_timings):
        """Table 2 shape: Neo4j slowest build; Milvus slowest load."""
        timings = min_timings
        assert (
            timings["Neo4j"]["index_build_seconds"]
            > 2 * timings["TigerVector"]["index_build_seconds"]
        )
        # The row-by-row/vectorized parse gap compounds with data size; at
        # this small unit-test scale assert the direction and a 2x floor
        # (the benchmark asserts >5x at its larger scales).
        assert (
            timings["Milvus"]["data_load_seconds"]
            > 2 * timings["TigerVector"]["data_load_seconds"]
        )
        _, timings = built_systems
        for t in timings.values():
            assert t["end_to_end_seconds"] == pytest.approx(
                t["data_load_seconds"] + t["index_build_seconds"]
            )
