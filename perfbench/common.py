"""Shared pieces of the workloads: phase results, checks, exact ground truth."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.core.database import TigerVectorDB
from repro.graph.schema import Attribute
from repro.types import AttrType, Metric

from .stats import percentile

K = 10
#: Client threads and servers per workload: nproc, capped at the 2 cores the
#: workloads were sized and proven on, so figures stay comparable across hosts.
NPROC = max(1, min(len(os.sched_getaffinity(0)), 2))


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


@dataclass
class Phase:
    """What one measured phase of a workload produced."""

    reads: list  # list[Outcome] of the measured reads
    read_qps: float
    recall: float
    checks: list = field(default_factory=list)
    lags: list = field(default_factory=list)  # fixed-rate writer lateness, s
    writes: list = field(default_factory=list)  # list[Outcome] of commits
    ingest_rows_per_s: float = 0.0
    notes: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.reads) + len(self.writes)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.reads if not r.ok)

    def read_latencies(self) -> list[float]:
        """Seconds per read; a failed read counts as missing every limit."""
        if not self.reads:
            return []
        span = max(r.done for r in self.reads) - min(r.start for r in self.reads)
        return [r.latency if r.ok else max(span, r.latency) for r in self.reads]

    def read_intervals(self) -> list[tuple[float, float]]:
        return [(r.start, r.done) for r in self.reads]


def check_floor(name: str, value: float, floor: float) -> Check:
    return Check(name, value >= floor, f"{value:.4f} >= {floor}")


def latency_ms(phase: Phase, pct: float) -> float:
    return percentile(phase.read_latencies(), pct) * 1000.0


# ------------------------------------------------------------ ground truth
def recall_by_distance(returned: list, row_distance, kth: float) -> int:
    """Returned rows at or inside the exact k-th distance (tie-robust)."""
    limit = kth + 1e-6 * max(1.0, abs(kth))
    return sum(1 for row in returned if row_distance[row] <= limit)


class ExactIndex:
    """The benchmark's own copy of a vector set, searched by brute force."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.sq = np.einsum("ij,ij->i", self.matrix, self.matrix)

    def distances(self, queries: np.ndarray) -> np.ndarray:
        q = np.asarray(queries, dtype=np.float64)
        d = self.sq[None, :] - 2.0 * q @ self.matrix.T + np.einsum("ij,ij->i", q, q)[:, None]
        return np.maximum(d, 0.0)

    def recall(self, queries: np.ndarray, answers: list[list[int]], k: int = K) -> float:
        """Mean recall@k of ``answers`` (lists of row numbers) for ``queries``."""
        if not answers:
            return 0.0
        hits = 0
        for start in range(0, len(answers), 256):
            block = self.distances(queries[start:start + 256])
            for offset, row_dists in enumerate(block):
                kth = float(np.partition(row_dists, k - 1)[k - 1])
                hits += recall_by_distance(answers[start + offset], row_dists, kth)
        return hits / (k * len(answers))


# ---------------------------------------------------------------- subjects
def item_db(dim: int, segment_size: int, wal_path=None) -> TigerVectorDB:
    """An empty database with one ``Item`` vertex type and an L2 embedding."""
    db = TigerVectorDB(segment_size=segment_size, wal_path=wal_path)
    db.schema.create_vertex_type("Item", [Attribute("id", AttrType.INT, primary_key=True)])
    db.schema.add_embedding_attribute(
        "Item", "emb", dimension=dim, model="sift-like", metric=Metric.L2
    )
    return db


def load_items(db: TigerVectorDB, vectors: np.ndarray) -> None:
    """Bulk-load ``Item`` rows and their embeddings through the public API."""
    pks = list(range(len(vectors)))
    db.bulk_load_vertices("Item", [{"id": pk} for pk in pks])
    db.bulk_load_embeddings("Item", "emb", pks, vectors)


def rows_of(db: TigerVectorDB, vset) -> list[int]:
    """Primary keys of the ``Item`` vertices in a search answer."""
    return [int(db.pk_for("Item", vid)) for _, vid in vset]
