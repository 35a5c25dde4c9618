"""Property test: a query's answer does not depend on how it is served.

One search pipeline serves every read path, so a query's sorted
``(distance, type, vid)`` triples and its distance map must be
byte-identical whether it runs as a direct ``db.vector_search``, through
a :class:`QueryServer` with no batching, filled from (and hit in) the
server's result cache, through an :class:`ElasticTier` at 1, 2 and 4
shards, or as an explicit-``ef`` request submitted together with other
requests.  Hypothesis draws the query, k, ef and filter over seeded
data, with and without a filter, over hot HNSW segments with an unmerged
delta overlay and over PQ-cold segments.

It also draws a restricted tenant whose role hides the odd-id half of
the rows.  Its answer must be byte-identical across
``AccessController.authorized_search``, the unbatched server, the cached
server (which must not cache it) and the elastic tier at every shard
count, and hold only rows the role may read.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Attribute, AttrType, Metric, TigerVectorDB
from repro.core.search import VectorSearchOptions, vector_search_merged
from repro.elastic import ElasticTier
from repro.graph.accumulators import MapAccum
from repro.graph.vertex_set import VertexSet
from repro.index.pq import PQSearchConfig
from repro.serve import QueryServer, ServeConfig, Tenant

DIM = 16
SEGMENT_SIZE = 64
NUM_DOCS = 320
ATTRS = ["Doc.vec"]
SHARDS = (1, 2, 4)
ROLE = "even-only"
TENANTS = [Tenant("restricted", role=ROLE)]


def build_db(cold: bool) -> TigerVectorDB:
    rng = np.random.default_rng(2025)
    db = TigerVectorDB(segment_size=SEGMENT_SIZE)
    db.schema.create_vertex_type("Doc", [Attribute("id", AttrType.INT, primary_key=True)])
    db.schema.add_embedding_attribute("Doc", "vec", dimension=DIM, metric=Metric.L2)
    vectors = rng.standard_normal((NUM_DOCS, DIM)).astype(np.float32)
    with db.begin() as txn:
        for i in range(NUM_DOCS):
            txn.upsert_vertex("Doc", i, {})
            txn.set_embedding("Doc", i, "vec", vectors[i])
    if cold:
        # Half the segments fit the budget; the rest are demoted to PQ codes.
        db.enable_tiering(NUM_DOCS // 2 * DIM * 4, pq=PQSearchConfig(m=4))
    db.vacuum()
    # Unmerged deltas on top: new rows plus replaced vectors.
    with db.begin() as txn:
        for i in range(NUM_DOCS, NUM_DOCS + 24):
            txn.upsert_vertex("Doc", i, {})
            txn.set_embedding("Doc", i, "vec", rng.standard_normal(DIM).astype(np.float32))
        for i in range(0, NUM_DOCS, 37):
            txn.set_embedding("Doc", i, "vec", rng.standard_normal(DIM).astype(np.float32))
    db.access.create_role(ROLE, {"Doc": lambda row: row["id"] % 2 == 0})
    return db


class Subject:
    """One database plus every serving surface over it."""

    def __init__(self, cold: bool):
        self.db = build_db(cold)
        if cold:
            assert self.db.tier_manager.stats_snapshot()["cold_segments"] > 0
        self.plain = QueryServer(
            self.db,
            ServeConfig(workers=1, enable_batching=False, enable_cache=False),
            tenants=TENANTS,
        ).start()
        self.cached = QueryServer(
            self.db,
            ServeConfig(workers=1, enable_batching=False, enable_cache=True),
            tenants=TENANTS,
        ).start()
        self.batching = QueryServer(
            self.db,
            ServeConfig(workers=1, enable_batching=True, batch_window_seconds=0.02),
            tenants=TENANTS,
        ).start()
        self.tiers = [
            ElasticTier(
                self.db, num_servers=n, config=ServeConfig(workers=1), tenants=TENANTS
            ).start()
            for n in SHARDS
        ]

    def close(self) -> None:
        for server in (self.plain, self.cached, self.batching, *self.tiers):
            server.stop()
        self.db.close()


@pytest.fixture(scope="module")
def subjects():
    built = {"hot": Subject(cold=False), "cold": Subject(cold=True)}
    yield built
    for subject in built.values():
        subject.close()


def serialize(vset, distances: MapAccum) -> bytes:
    """One answer's (distance, type, vid) triples + distance map, as bytes."""
    items = list(distances.items())
    assert sorted(member for member, _ in items) == sorted(vset)
    triples = [(dist, vtype, vid) for (vtype, vid), dist in items]
    return pickle.dumps((triples, items))


def answer(run) -> bytes:
    distances = MapAccum()
    return serialize(run(distances), distances)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    storage=st.sampled_from(["hot", "cold"]),
    seed=st.integers(0, 2**16),
    k=st.integers(1, 12),
    ef=st.sampled_from([None, 16, 48]),
    filtered=st.booleans(),
    restricted=st.booleans(),
)
def test_answer_is_identical_on_every_serving_path(
    subjects, storage, seed, k, ef, filtered, restricted
):
    subject = subjects[storage]
    db = subject.db
    rng = np.random.default_rng(seed)
    query = rng.standard_normal(DIM).astype(np.float32)
    candidates = None
    if filtered:
        candidates = VertexSet()
        for pk in rng.choice(NUM_DOCS + 24, size=90, replace=False):
            candidates.add("Doc", db.vid_for("Doc", int(pk)))
    kwargs = dict(filter=candidates, ef=ef)
    tenant = "restricted" if restricted else "default"
    role = db.access.role(ROLE) if restricted else None

    if restricted:
        want = answer(
            lambda dm: db.access.authorized_search(
                ROLE, ATTRS, query, k, distance_map=dm, **kwargs
            )
        )
        assert all(db.pk_for("Doc", vid) % 2 == 0 for _, _, vid in pickle.loads(want)[0])
    else:
        want = answer(lambda dm: db.vector_search(ATTRS, query, k, distance_map=dm, **kwargs))
    with db.snapshot() as snapshot:
        triples = vector_search_merged(
            db.service, snapshot, ATTRS, query, k, VectorSearchOptions(**kwargs), role=role
        )
    assert pickle.loads(want)[0] == triples

    def served(server):
        return answer(
            lambda dm: server.search(
                ATTRS, query, k, distance_map=dm, tenant=tenant, **kwargs
            )
        )

    assert served(subject.plain) == want
    assert served(subject.cached) == want  # fills (or hits) the cache
    assert served(subject.cached) == want  # hits when cacheable
    for tier in subject.tiers:
        assert served(tier) == want

    if ef is not None and not filtered:
        # Submitted together, these used to fuse; each now runs per query.
        companions = rng.standard_normal((5, DIM)).astype(np.float32)
        maps = [MapAccum() for _ in range(len(companions) + 1)]
        futures = [
            subject.batching.submit_search(
                ATTRS, q, k, ef=ef, distance_map=dm, tenant=tenant
            )
            for q, dm in zip([query, *companions], maps)
        ]
        vset = futures[0].result(timeout=30)
        for future in futures[1:]:
            future.result(timeout=30)
        assert serialize(vset, maps[0]) == want
