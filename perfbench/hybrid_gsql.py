"""hybrid-gsql: one closed-loop client calling ``db.gsql`` on the LDBC-like graph.

SF 1 (300 persons, 3,600 messages, 32-d), 256-row segments so that each
message type spans several segments.  Half of the reads are the installed
IC3/5/6/9/11 analogs at 2 or 3 hops with a seeded ``pid`` and topic
vector; the other half are declarative ``ORDER BY VECTOR_DIST ... LIMIT``
statements, half of them with a ``WHERE s.language == ...`` filter.

Recall is checked against the benchmark's own oracle: candidate sets
recomputed from the generated rows (k-hop frontier over KNOWS, creator
edges, attribute filters) and exact distances over their embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import TigerVectorDB
from repro.datasets import IC_QUERIES, LDBCConfig, build_ic_query, generate_ldbc, load_ldbc_into

from .common import K, Check, Phase, check_floor, recall_by_distance
from .loadgen import Query, closed_loop

SEGMENT_SIZE = 256
HOPS = (2, 3)
DATA_SEED = 1234
LANGUAGES = ("en", "fr", "de", "jp", "pt")
TOPIC_NOISE = 8.0
RECALL_FLOOR = 0.95

DECLARATIVE = "SELECT s FROM (s:Post) {where}ORDER BY VECTOR_DIST(s.content_emb, qv) LIMIT {k};"


@dataclass
class Data:
    ldbc: object
    posts_by: dict
    comments_by: dict
    knows: dict


def make_data() -> Data:
    ldbc = generate_ldbc(LDBCConfig(scale_factor=1.0, embedding_dim=32, seed=DATA_SEED))
    knows: dict[int, set] = {}
    for a, b in ldbc.knows:
        knows.setdefault(a, set()).add(b)
        knows.setdefault(b, set()).add(a)
    posts_by: dict[int, list] = {}
    for post, person in ldbc.post_creator:
        posts_by.setdefault(person, []).append(post)
    comments_by: dict[int, list] = {}
    for comment, person in ldbc.comment_creator:
        comments_by.setdefault(person, []).append(comment)
    return Data(ldbc, posts_by, comments_by, knows)


def build(data: Data, workdir) -> TigerVectorDB:
    db = TigerVectorDB(segment_size=SEGMENT_SIZE)
    load_ldbc_into(db, data.ldbc)
    for name in IC_QUERIES:
        for hops in HOPS:
            db.gsql.install(build_ic_query(name, hops)[1])
    return db


# ----------------------------------------------------------------- stream
#: One cycle of the mix: every IC variant once, as many declarative
#: statements (half filtered, one per language).  Each run walks whole
#: cycles in a seeded order, so its composition does not depend on the seed.
CYCLE = [("ic", name, hops) for name in sorted(IC_QUERIES) for hops in HOPS] + [
    ("select", None)
] * len(LANGUAGES) + [("select", language) for language in LANGUAGES]


def stream(data: Data, rng: np.random.Generator):
    """Seeded reads: ``Query(key, topic)`` with key naming the statement.

    The statement order within each cycle, the topic vector and the order
    in which IC reads visit every person as ``pid`` come from ``rng``.
    """
    ldbc = data.ldbc
    messages = np.concatenate([ldbc.post_embeddings, ldbc.comment_embeddings])
    persons = len(ldbc.persons)
    pending: list[tuple] = []
    pids: list[int] = []

    def next_query() -> Query:
        if not pending:
            pending.extend(CYCLE[i] for i in rng.permutation(len(CYCLE)))
        kind = pending.pop()
        base = messages[int(rng.integers(len(messages)))]
        topic = (base + rng.normal(0.0, TOPIC_NOISE, size=base.shape)).astype(np.float32)
        if kind[0] != "ic":
            return Query(kind, topic)
        if not pids:
            pids.extend(int(p) for p in rng.permutation(persons))
        return Query(kind + (pids.pop(),), topic)

    return next_query


def run_read(db: TigerVectorDB, query: Query) -> list[tuple[str, int]]:
    """Execute one read; returns the ranked ``(vertex_type, pk)`` answer."""
    if query.key[0] == "ic":
        _, name, hops, pid = query.key
        result = db.gsql.run_query(
            f"{name}_h{hops}", pid=pid, topic_emb=query.vector.tolist(), k=K
        )
        return [(v.vertex_type, v.pk) for v, _ in result.prints[0]["vertices"]]
    language = query.key[1]
    where = f'WHERE s.language == "{language}" ' if language else ""
    result = db.gsql.run(DECLARATIVE.format(where=where, k=K), qv=query.vector.tolist())
    return [(vtype, db.pk_for(vtype, vid)) for (vtype, vid), _ in result.result.ranking]


# ----------------------------------------------------------------- oracle
def _friends(data: Data, pid: int, hops: int) -> set:
    frontier = {pid}
    for _ in range(hops):
        frontier = {n for v in frontier for n in data.knows.get(v, ())}
    return frontier


def candidates(data: Data, key: tuple) -> list[tuple[str, int]]:
    """The candidate set a statement's top-k ranges over, from the raw rows."""
    posts = data.ldbc.posts
    comments = data.ldbc.comments
    if key[0] == "select":
        return [("Post", p["id"]) for p in posts if key[1] is None or p["language"] == key[1]]
    _, name, hops, pid = key
    friends = _friends(data, pid, hops)
    fposts = [posts[i] for f in friends for i in data.posts_by.get(f, ())]
    fcomments = [comments[i] for f in friends for i in data.comments_by.get(f, ())]
    if name == "IC3":
        out = [p for p in fposts if p["length"] > 2400 and p["language"] == "jp"]
        return [("Post", p["id"]) for p in out] + [
            ("Comment", c["id"]) for c in fcomments if c["length"] > 1150
        ]
    if name == "IC5":
        return [("Post", p["id"]) for p in fposts] + [("Comment", c["id"]) for c in fcomments]
    if name == "IC6":
        return [("Post", p["id"]) for p in fposts if p["language"] == "fr"]
    if name == "IC9":
        recent = sorted(fposts, key=lambda p: -p["creationDate"])[:20]
        return [("Post", p["id"]) for p in recent]
    if name == "IC11":
        return [("Post", p["id"]) for p in fposts if p["length"] < 1700]
    raise KeyError(name)


def _embedding(data: Data, member: tuple[str, int]) -> np.ndarray:
    vtype, pk = member
    table = data.ldbc.post_embeddings if vtype == "Post" else data.ldbc.comment_embeddings
    return table[pk]


def recall_of(data: Data, query: Query, answer: list) -> tuple[int, int]:
    """(hits, expected) for one read against its exact candidate top-k."""
    members = candidates(data, query.key)
    if not members:
        return (0, 0) if not answer else (0, len(answer))
    matrix = np.stack([_embedding(data, m) for m in members]).astype(np.float64)
    diff = matrix - query.vector.astype(np.float64)
    exact = np.einsum("ij,ij->i", diff, diff)
    want = min(K, len(members))
    kth = float(np.partition(exact, want - 1)[want - 1])
    distance = dict(zip(members, exact))
    return recall_by_distance([m for m in answer if m in distance], distance, kth), want


def measure(db: TigerVectorDB, data: Data, seed: int, seconds: float, started) -> Phase:
    rng = np.random.default_rng([seed, 23])
    next_query = stream(data, rng)
    for _ in range(10):
        run_read(db, next_query())
    started()
    loop = closed_loop(lambda q: run_read(db, q), [next_query], seconds)

    hits = expected = 0
    outside = 0
    for outcome in loop.outcomes:
        if outcome.ok:
            h, e = recall_of(data, outcome.payload, outcome.value)
            hits += h
            expected += e
            allowed = set(candidates(data, outcome.payload.key))
            outside += sum(1 for m in outcome.value if m not in allowed)
    recall = hits / expected if expected else 0.0
    phase = Phase(reads=loop.outcomes, read_qps=loop.ok_per_second(),
                  recall=recall)
    phase.checks.append(check_floor("hybrid-gsql recall_at_10 floor", recall, RECALL_FLOOR))
    phase.checks.append(
        Check("hybrid-gsql answers stay inside the filter", outside == 0,
              f"{outside} answer rows outside their candidate set")
    )
    kinds: dict[str, int] = {}
    for outcome in loop.outcomes:
        kind = outcome.payload.key[1] if outcome.payload.key[0] == "ic" else "select"
        kinds[kind] = kinds.get(kind, 0) + 1
    phase.notes.append(
        f"{len(loop.outcomes)} reads in {loop.elapsed:.2f} s: "
        + ", ".join(f"{k} {v}" for k, v in sorted(kinds.items()))
    )
    return phase
