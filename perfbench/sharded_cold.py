"""sharded-cold: closed-loop top-k through an ElasticTier over PQ-cold segments.

2,048 SIFT-like 128-d vectors in 8 HNSW segments of 256 rows, with tiering
budgeted so that half of the segments are demoted to PQ codes (m=16, ADC +
exact rerank) at the set-up vacuum.  One closed-loop client sends unique
queries into an ElasticTier with ``nproc`` shard servers of one worker
each, so routing, shard queues and the fan-out merge sit on every read.
One client, not ``nproc``: the shard workers already keep ``nproc`` threads
busy on each read's fan-out, and more client threads than cores make the
throughput a measure of the scheduler.
A seeded sample of the answers is re-run on a one-server QueryServer over
the same snapshot and must match byte for byte, distances included (the
elastic contract).
"""

from __future__ import annotations

import numpy as np

from repro.datasets import make_sift_like
from repro.elastic import ElasticTier
from repro.graph.accumulators import MapAccum
from repro.index.pq import PQSearchConfig
from repro.serve import QueryServer, ServeConfig

from .common import K, NPROC, Check, ExactIndex, Phase, check_floor, item_db, load_items, rows_of
from .loadgen import QueryMix, closed_loop

N_VECTORS = 2048
SEGMENTS = 8
POOL = 16384  # unique queries: headroom for a several-times faster read path
DATA_SEED = 20_250
ATTRS = ["Item.emb"]
HOT_SEGMENTS = SEGMENTS // 2
PQ = PQSearchConfig(m=16)
IDENTITY_SAMPLE = 200
RECALL_FLOOR = 0.9
CLIENTS = 1  # see the module docstring


def make_data():
    return make_sift_like(N_VECTORS, num_queries=POOL, seed=DATA_SEED)


def build(data, workdir):
    segment_size = N_VECTORS // SEGMENTS
    db = item_db(data.dim, segment_size)
    load_items(db, data.vectors)
    db.enable_tiering(HOT_SEGMENTS * segment_size * data.dim * 4, pq=PQ)
    db.vacuum()
    return db


def _answer(vset, distances: MapAccum) -> tuple:
    """Ranked (vertex, distance) pairs as they would be serialized."""
    ranked = list(distances.items())
    if {member for member, _ in ranked} != set(vset):
        raise ValueError("distance map and vertex set disagree")
    members = tuple(member for member, _ in ranked)
    return members, np.asarray([d for _, d in ranked], dtype=np.float64).tobytes()


def measure(db, data, seed: int, seconds: float, started) -> Phase:
    rng = np.random.default_rng([seed, 41])
    mix = QueryMix(data.queries, rng)

    tier = ElasticTier(db, num_servers=NPROC, config=ServeConfig(workers=1)).start()
    try:
        def search(query):
            distances = MapAccum()
            vset = tier.search(ATTRS, query.vector, K, distance_map=distances)
            return vset, distances

        for _ in range(4 * NPROC):
            search(mix.take())
        started()
        loop = closed_loop(search, [mix.take] * CLIENTS, seconds)
    finally:
        tier.stop()

    ok = [o for o in loop.outcomes if o.ok]
    answers = [rows_of(db, o.value[0]) for o in ok]
    recall = ExactIndex(data.vectors).recall(np.asarray([o.payload.vector for o in ok]), answers)

    sample = sorted(rng.choice(len(ok), size=min(IDENTITY_SAMPLE, len(ok)), replace=False))
    mismatches = 0
    reference = QueryServer(db, ServeConfig(workers=1, enable_cache=False)).start()
    try:
        for i in sample:
            outcome = ok[int(i)]
            distances = MapAccum()
            vset = reference.search(ATTRS, outcome.payload.vector, K, distance_map=distances)
            if _answer(vset, distances) != _answer(*outcome.value):
                mismatches += 1
    finally:
        reference.stop()

    phase = Phase(reads=loop.outcomes, read_qps=loop.ok_per_second(), recall=recall)
    phase.checks.append(check_floor("sharded-cold recall_at_10 floor", recall, RECALL_FLOOR))
    phase.checks.append(
        Check(
            "sharded-cold answers byte-identical to one QueryServer",
            mismatches == 0,
            f"{mismatches} of {len(sample)} sampled answers differ",
        )
    )
    tier_stats = db.tier_manager.stats_snapshot()
    phase.notes.append(
        f"{len(loop.outcomes)} reads by {CLIENTS} client(s) in {loop.elapsed:.2f} s ({len(ok) / loop.elapsed:.2f}/s overall); "
        f"{tier_stats['hot_segments']} hot / {tier_stats['cold_segments']} cold segments"
    )
    return phase
