"""ingest-mix: a fixed-rate writer beside a closed-loop served reader, then bulk ingest.

The subject starts with 1,024 SIFT-like 128-d rows in 256-row segments and
a WAL file (default policy: flushed per commit, no fsync).  For 80% of the
measured seconds one writer thread commits 20 times a second; each commit
inserts 6 vertices with embeddings, re-embeds 5 and deletes 3 older
vertices (20 operations), and every 20th commit is followed by
``db.vacuum()``.  One closed-loop reader searches through a QueryServer;
every 5th read probes the vector of the writer's latest insert with that
commit's ``session_token`` and must find it at rank 1.  No read started
after a delete committed may return the deleted vertex.  Then, with no
readers, 500 rows are committed in batches and vacuumed until indexed
(``ingest.rows_per_s``), and recall@10 is measured against exact search
over the benchmark's own copy of the rows.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.datasets import make_sift_like
from repro.graph.accumulators import MapAccum
from repro.serve import QueryServer, ServeConfig

from .common import K, NPROC, Check, ExactIndex, Phase, check_floor, item_db, load_items
from .loadgen import Outcome, QueryMix, closed_loop

INITIAL = 1024
SEGMENT_SIZE = 256
SPARE_ROWS = 4096  # vectors for inserts and re-embeds
POOL = 4096  # reader queries
DATA_SEED = 31_337
ATTRS = ["Item.emb"]

MIXED_SHARE = 0.8
COMMIT_RATE = 20.0
INSERTS, UPDATES, DELETES = 6, 5, 3
VACUUM_EVERY = 20
HORIZON = 50  # commits before a new vertex may be re-embedded or deleted
PROBE_EVERY = 5
BULK_ROWS, BULK_BATCH = 500, 100
RECALL_QUERIES = 200
RECALL_FLOOR = 0.9


def make_data():
    return make_sift_like(INITIAL + SPARE_ROWS, num_queries=POOL, seed=DATA_SEED)


def build(data, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    db = item_db(data.dim, SEGMENT_SIZE, wal_path=workdir / "wal.jsonl")
    load_items(db, data.vectors[:INITIAL])
    return db


class Feed:
    """What the writer publishes to the reader: its newest insert, its deletes."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._latest = None  # (vid, vector, token) of the newest insert
        self._deleted: list[int] = []  # vids, in commit order

    def publish(self, latest: tuple, deleted_vids: list[int]) -> None:
        with self._lock:
            self._deleted.extend(deleted_vids)
            self._latest = latest

    def state(self) -> tuple:
        """(latest insert, number of deletes committed so far)."""
        with self._lock:
            return self._latest, len(self._deleted)

    def deleted(self, count: int) -> set[int]:
        """The vids of the first ``count`` deletes."""
        with self._lock:
            return set(self._deleted[:count])


class Writer:
    """The seeded commit stream and the benchmark's copy of the live rows.

    Owned by the writer thread while the mix runs; read after it is joined.
    """

    def __init__(self, db, data, rng: np.random.Generator):
        self.db = db
        self.spare = data.vectors[INITIAL:]
        self.rng = rng
        self.rows = {pk: data.vectors[pk] for pk in range(INITIAL)}
        self.settled = list(range(INITIAL))
        self.young: list[tuple[int, list[int]]] = []  # (commit no, pks)
        self.next_pk = INITIAL
        self.next_spare = 0
        self.commits: list[Outcome] = []
        self.lags: list[float] = []
        self.feed = Feed()

    def _vector(self) -> np.ndarray:
        vector = self.spare[self.next_spare % len(self.spare)]
        self.next_spare += 1
        return vector

    def _pop_settled(self) -> int:
        i = int(self.rng.integers(len(self.settled)))
        self.settled[i], self.settled[-1] = self.settled[-1], self.settled[i]
        return self.settled.pop()

    def insert_batch(self, txn, count: int) -> list[int]:
        pks = []
        for _ in range(count):
            pk, vector = self.next_pk, self._vector()
            self.next_pk += 1
            txn.upsert_vertex("Item", pk, {"id": pk})
            txn.set_embedding("Item", pk, "emb", vector)
            self.rows[pk] = vector
            pks.append(pk)
        return pks

    def commit_once(self, number: int) -> None:
        db = self.db
        txn = db.begin()
        inserted = self.insert_batch(txn, INSERTS)
        for _ in range(UPDATES):
            pk = self._pop_settled()
            vector = self._vector()
            txn.set_embedding("Item", pk, "emb", vector)
            self.rows[pk] = vector
            self.settled.append(pk)
        doomed = [self._pop_settled() for _ in range(DELETES)]
        doomed_vids = [db.vid_for("Item", pk) for pk in doomed]
        for pk in doomed:
            txn.delete_vertex("Item", pk)
            del self.rows[pk]
        outcome = Outcome(number, time.monotonic())
        token = txn.commit()
        outcome.done = time.monotonic()
        self.commits.append(outcome)
        self.young.append((number, inserted))
        while self.young and self.young[0][0] <= number - HORIZON:
            self.settled.extend(self.young.pop(0)[1])
        last = inserted[-1]
        self.feed.publish((db.vid_for("Item", last), self.rows[last], token), doomed_vids)

    def run(self, seconds: float, errors: list) -> None:
        try:
            start = time.monotonic()
            number = 0
            while True:
                due = start + number / COMMIT_RATE
                if due >= start + seconds:
                    return
                gap = due - time.monotonic()
                if gap > 0:
                    time.sleep(gap)
                self.lags.append(time.monotonic() - due)
                number += 1
                self.commit_once(number)
                if number % VACUUM_EVERY == 0:
                    self.db.vacuum()
        except BaseException as exc:  # re-raised by measure() after join
            errors.append(exc)


def vacuum_until_indexed(db) -> int:
    rounds = 0
    while True:
        rounds += 1
        done = db.vacuum()
        if done["flushed"] == 0 and done["merged"] == 0:
            return rounds


def measure(db, data, seed: int, seconds: float, started) -> Phase:
    rng = np.random.default_rng([seed, 31])
    writer = Writer(db, data, np.random.default_rng([seed, 32]))
    mix = QueryMix(data.queries, rng)
    mixed_seconds = seconds * MIXED_SHARE
    server = QueryServer(db, ServeConfig(workers=NPROC)).start()
    probes = {"sent": 0, "missed": 0, "deleted_seen": 0}
    reads_done = [0]

    def next_read():
        reads_done[0] += 1
        latest, deleted_count = writer.feed.state()
        if latest is not None and reads_done[0] % PROBE_EVERY == 0:
            return ("probe", latest, deleted_count)
        return ("read", mix.take().vector, deleted_count)

    def read(payload):
        kind, target, deleted_count = payload
        distances = MapAccum()
        if kind == "probe":
            _, vector, token = target
            vset = server.search(ATTRS, vector, K, session_token=token, distance_map=distances)
        else:
            vset = server.search(ATTRS, target, K, distance_map=distances)
        return vset, list(distances.value), deleted_count

    errors: list[BaseException] = []
    thread = threading.Thread(target=writer.run, args=(mixed_seconds, errors), daemon=True)
    try:
        for _ in range(5):
            server.search(ATTRS, mix.take().vector, K)
        started()
        thread.start()
        loop = closed_loop(read, [next_read], mixed_seconds)
        thread.join()
    finally:
        server.stop()
    if errors:
        raise errors[0]

    for outcome in loop.outcomes:
        if not outcome.ok:
            continue
        kind, target = outcome.payload[0], outcome.payload[1]
        _, ranked, deleted_count = outcome.value
        gone = writer.feed.deleted(deleted_count)
        probes["deleted_seen"] += sum(1 for _, vid in ranked if vid in gone)
        if kind == "probe":
            probes["sent"] += 1
            if not ranked or ranked[0] != ("Item", target[0]):
                probes["missed"] += 1

    # Bulk ingest with no readers: commit batches, vacuum until indexed.
    vacuum_until_indexed(db)
    bulk_start = time.monotonic()
    for _ in range(BULK_ROWS // BULK_BATCH):
        txn = db.begin()
        writer.insert_batch(txn, BULK_BATCH)
        txn.commit()
    rounds = vacuum_until_indexed(db)
    rows_per_s = BULK_ROWS / (time.monotonic() - bulk_start)

    alive = sorted(writer.rows)
    exact = ExactIndex(np.stack([writer.rows[pk] for pk in alive]))
    row_of = {db.vid_for("Item", pk): i for i, pk in enumerate(alive)}
    queries = np.stack([mix.take().vector for _ in range(RECALL_QUERIES)])
    answers, stale = [], 0
    for query in queries:
        vset = db.vector_search(ATTRS, query, K)
        stale += sum(1 for _, vid in vset if vid not in row_of)
        answers.append([row_of[vid] for _, vid in vset if vid in row_of])
    recall = exact.recall(queries, answers)

    reads = len(loop.outcomes)
    phase = Phase(
        reads=loop.outcomes,
        read_qps=loop.ok_per_second(),
        recall=recall,
        lags=writer.lags,
        writes=writer.commits,
        ingest_rows_per_s=rows_per_s,
    )
    phase.checks += [
        check_floor("ingest-mix recall_at_10 floor (after final vacuum)", recall, RECALL_FLOOR),
        Check("ingest-mix read-your-writes probes rank the new vertex first",
              probes["sent"] > 0 and probes["missed"] == 0,
              f"{probes['missed']} of {probes['sent']} probes missed"),
        Check("ingest-mix deleted vertices never returned",
              probes["deleted_seen"] == 0 and stale == 0,
              f"{probes['deleted_seen']} during the mix, {stale} after vacuum"),
    ]
    phase.notes.append(
        f"{reads} reads ({probes['sent']} probes), {len(writer.commits)} commits of "
        f"{2 * INSERTS + UPDATES + DELETES} ops in {mixed_seconds:.1f} s; bulk {BULK_ROWS} rows "
        f"indexed in {BULK_ROWS / rows_per_s:.2f} s ({rounds} vacuum rounds); "
        f"{len(alive)} live rows"
    )
    return phase
