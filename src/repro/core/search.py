"""The flexible VectorSearch() function (paper Sec. 5.5).

``VectorSearch(vector_attributes, query_vector, k, opts)`` is TigerVector's
composable search API:

- **VectorAttributes** — one or more compatible embedding attributes, possibly
  across vertex types (compatibility is checked by the Sec. 4.1 static
  analysis before any segment is touched);
- **QueryVector** — validated against the attributes' dimensionality;
- **K** — result size;
- optional **filter** — a :class:`~repro.graph.vertex_set.VertexSet`
  candidate set from a prior query block (pre-filtering);
- optional **distance map** — an output Map accumulator receiving
  ``(vertex, distance)`` pairs;
- optional **ef** — index search parameter trading accuracy for speed.

It returns a :class:`VertexSet`, so the result plugs straight back into GSQL
query composition (queries Q2–Q4 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import DimensionMismatchError, VectorSearchError
from ..graph.accumulators import MapAccum
from ..graph.txn import Snapshot
from ..graph.vertex_set import VertexSet
from ..index.bitmap import Bitmap
from ..telemetry import get_telemetry
from .action import EmbeddingAction
from .embedding import check_compatible
from .service import EmbeddingService, merge_topk

if TYPE_CHECKING:
    from .auth import Role

__all__ = [
    "VectorSearchOptions",
    "build_topk_vertex_set",
    "filter_bitmaps",
    "merge_attribute_topk",
    "merge_sharded_topk",
    "vector_search",
    "vector_search_batch",
    "vector_search_merged",
    "vector_search_sharded",
]


@dataclass
class VectorSearchOptions:
    """Optional VectorSearch parameters (Sec. 5.5 list item 4)."""

    filter: VertexSet | None = None
    distance_map: MapAccum | None = None
    ef: int | None = None


def _resolve_attributes(service: EmbeddingService, vector_attributes: list[str]):
    """Resolve ``"VertexType.attr"`` names and run the compatibility check."""
    schema = service.schema
    resolved = []
    for qualified in vector_attributes:
        vertex_type, embedding = schema.embedding_attribute(qualified)
        resolved.append((qualified, vertex_type, embedding))
    representative = check_compatible(
        [(qualified, emb) for qualified, _, emb in resolved]
    )
    return resolved, representative


def _validate_query(query_vector: np.ndarray, representative) -> np.ndarray:
    query = np.asarray(query_vector, dtype=np.float32).reshape(-1)
    if query.shape[0] != representative.dimension:
        raise DimensionMismatchError(
            f"query vector has dimension {query.shape[0]}, embedding expects "
            f"{representative.dimension}"
        )
    return query


def filter_bitmaps(
    snapshot: Snapshot, vertex_type: str, candidates: VertexSet
) -> list[Bitmap]:
    """Per-segment pre-filter bitmaps marking ``candidates`` of one type.

    Empty when the set holds no vertex of ``vertex_type``, so callers skip
    that type.  Segments past the end of the list are treated as empty by
    :meth:`EmbeddingAction.topk`, so nobody pads.
    """
    vids = candidates.vids_of_type(vertex_type)
    if not vids:
        return []
    return [Bitmap.wrap(mask) for mask in snapshot.bitmap_from_vids(vertex_type, vids)]


def merge_attribute_topk(parts, k: int) -> list[tuple[float, str, int]]:
    """The one attribute-level merge into sorted ``(distance, type, vid)``.

    ``parts`` holds one ``(vertex_type, pairs)`` entry per attribute, in
    attribute order, where ``pairs`` are that attribute's ``(distance,
    vid)`` top-k.  They are flattened in that order and stable-sorted by
    distance, so equal distances keep attribute order, then vid order.
    """
    merged = [
        (float(dist), vertex_type, int(vid))
        for vertex_type, pairs in parts
        for dist, vid in pairs
    ]
    merged.sort(key=lambda item: item[0])
    return merged[:k]


def build_topk_vertex_set(
    top: list[tuple[float, str, int]], distance_map: MapAccum | None
) -> VertexSet:
    """Materialize sorted ``(distance, vertex_type, vid)`` triples.

    Shared by the direct :func:`vector_search` path and the serving layer
    (``repro.serve``), so a server answer — cached, batched, or per-query —
    is constructed exactly like a direct call's.
    """
    out = VertexSet(name="TopK")
    for dist, vertex_type, vid in top:
        out.add(vertex_type, vid)
        if distance_map is not None:
            distance_map.put((vertex_type, vid), dist)
    return out


def vector_search_merged(
    service: EmbeddingService,
    snapshot: Snapshot,
    vector_attributes: list[str],
    query_vector: np.ndarray,
    k: int,
    options: VectorSearchOptions | None = None,
    role: Role | None = None,
) -> list[tuple[float, str, int]]:
    """Global top-k as sorted ``(distance, vertex_type, vid)`` triples.

    The full VectorSearch pipeline minus result materialization; the serving
    layer caches these triples because, unlike a :class:`VertexSet`, they
    are immutable and carry the distances.
    """
    parts = vector_search_sharded(
        service, snapshot, vector_attributes, query_vector, k, options, role=role
    )
    return merge_attribute_topk(parts, k)


def vector_search_sharded(
    service: EmbeddingService,
    snapshot: Snapshot,
    vector_attributes: list[str],
    query_vector: np.ndarray,
    k: int,
    options: VectorSearchOptions | None = None,
    groups: frozenset | set | None = None,
    group_size: int = 1,
    role: Role | None = None,
    stats: list | None = None,
) -> list[tuple[str, tuple[tuple[float, int], ...]]]:
    """Each attribute's local top-k ``(distance, vid)`` pairs for one query.

    The one per-attribute top-k routine: every single-query search — the
    direct call, the server, each elastic shard, GSQL's ``ORDER BY
    VECTOR_DIST`` and :meth:`AccessController.authorized_search` — runs
    this loop.  Returns one ``(vertex_type, pairs)`` entry per attribute in
    resolution order, where ``pairs`` are sorted exactly as
    :meth:`EmbeddingAction.topk` sorts them (distance, then vid).

    ``groups`` restricts the search to segments whose group (``seg_no //
    group_size``) it contains — the shard-owner half of the elastic tier,
    whose router merges the partials with :func:`merge_sharded_topk`;
    ``None`` searches every segment, and :func:`vector_search_merged` is
    that case merged.  ``role`` (a :class:`~repro.core.auth.Role`) masks
    out the rows it may not read; ``None`` reads everything.  ``stats``,
    when given, receives each searched attribute's
    :class:`~repro.core.action.ActionStats`.
    """
    if k <= 0:
        raise VectorSearchError("k must be positive")
    if group_size < 1:
        raise VectorSearchError("group_size must be at least 1")
    options = options or VectorSearchOptions()
    resolved, representative = _resolve_attributes(service, vector_attributes)
    query = _validate_query(query_vector, representative)

    tel = get_telemetry()
    parts = []
    with tel.span(
        "vector.search",
        k=k,
        attributes=list(vector_attributes),
        groups=None if groups is None else sorted(groups),
    ) as vspan:
        for qualified, vertex_type, _ in resolved:
            # Authorization is one more bitmap intersected with the filter
            # (Sec. 5.1: "unauthorized vectors are invalid").  None: no
            # mask; []: no row of this type can match.
            bitmaps = None if role is None else role.search_masks(snapshot, vertex_type)
            if options.filter is not None:
                wanted = filter_bitmaps(snapshot, vertex_type, options.filter)
                bitmaps = (
                    wanted
                    if bitmaps is None
                    else [mask.intersect(want) for mask, want in zip(bitmaps, wanted)]
                )
            if bitmaps is not None and not bitmaps:
                parts.append((vertex_type, ()))
                continue
            store = service.store(vertex_type, qualified.split(".", 1)[1])
            seg_nos = None
            if groups is not None:
                seg_nos = [
                    seg_no
                    for seg_no in range(store.num_segments)
                    if seg_no // group_size in groups
                ]
            action = EmbeddingAction(store)
            with tel.span("vector.attribute", attribute=qualified):
                result = action.topk(
                    query,
                    k,
                    snapshot_tid=snapshot.tid,
                    ef=options.ef,
                    bitmaps=bitmaps,
                    seg_nos=seg_nos,
                )
            if stats is not None:
                stats.append(action.last_stats)
            parts.append(
                (
                    vertex_type,
                    tuple(
                        (float(dist), int(vid))
                        for vid, dist in zip(result.ids, result.distances)
                    ),
                )
            )
        vspan.set(merged_candidates=sum(len(pairs) for _, pairs in parts))
    return parts


def merge_sharded_topk(
    shard_parts: list[list[tuple[str, tuple[tuple[float, int], ...]]]],
    k: int,
) -> list[tuple[float, str, int]]:
    """Coordinator merge of shard partials into the global sorted triples.

    Every shard's output must come from :func:`vector_search_sharded` over
    the *same attribute list* (so attribute indexes align).  Per attribute,
    :func:`~repro.core.service.merge_topk` rebuilds what a whole-store
    :meth:`EmbeddingAction.topk` would have returned; then
    :func:`merge_attribute_topk` applies :func:`vector_search_merged`'s
    final merge.  The output is therefore byte-identical to an unsharded
    search.
    """
    if not shard_parts:
        return []
    parts = [
        (vertex_type, merge_topk((part[index][1] for part in shard_parts), k))
        for index, (vertex_type, _) in enumerate(shard_parts[0])
    ]
    return merge_attribute_topk(parts, k)


def vector_search(
    service: EmbeddingService,
    snapshot: Snapshot,
    vector_attributes: list[str],
    query_vector: np.ndarray,
    k: int,
    options: VectorSearchOptions | None = None,
) -> VertexSet:
    """Top-k across one or more embedding attributes; returns a VertexSet.

    ``vector_attributes`` entries are ``"VertexType.attr"`` strings.  With a
    ``filter`` vertex set the search pre-filters per segment via bitmaps;
    otherwise each segment wraps its status structure.  Results from
    different attributes are merged by distance into a single global top-k,
    which is well-defined because the compatibility check guarantees a
    shared metric and dimension.
    """
    options = options or VectorSearchOptions()
    top = vector_search_merged(
        service, snapshot, vector_attributes, query_vector, k, options
    )
    return build_topk_vertex_set(top, options.distance_map)


def vector_search_batch(
    service: EmbeddingService,
    snapshot: Snapshot,
    vector_attributes: list[str],
    query_vectors: np.ndarray,
    k: int,
    ef: int | None = None,
) -> list[list[tuple[float, str, int]]]:
    """Multi-query VectorSearch (the serving micro-batch path).

    Returns one sorted top-k triple list per query row.  Each segment is
    visited once for all queries through
    :meth:`EmbeddingStore.search_segment_batch`: at the default ``ef`` a
    batch of at least :data:`~repro.core.service.MIN_FUSED` queries shares
    one exact scan (recall never below the per-query HNSW path); smaller
    batches and explicit-``ef`` batches run each query exactly as
    :func:`vector_search_merged` would.  Unfiltered only.
    """
    if k <= 0:
        raise VectorSearchError("k must be positive")
    queries = np.asarray(query_vectors, dtype=np.float32)
    if queries.ndim == 1:
        queries = queries.reshape(1, -1)
    if queries.ndim != 2:
        raise VectorSearchError("query_vectors must be a (Q, d) matrix")
    resolved, representative = _resolve_attributes(service, vector_attributes)
    if queries.shape[1] != representative.dimension:
        raise DimensionMismatchError(
            f"query vectors have dimension {queries.shape[1]}, embedding "
            f"expects {representative.dimension}"
        )

    per_query: list[list] = [[] for _ in range(queries.shape[0])]
    with get_telemetry().span(
        "vector.search_batch",
        k=k,
        batch=queries.shape[0],
        attributes=list(vector_attributes),
    ):
        for qualified, vertex_type, _ in resolved:
            store = service.store(vertex_type, qualified.split(".", 1)[1])
            by_segment = [
                store.search_segment_batch(seg_no, queries, k, snapshot.tid, ef=ef)
                for seg_no in range(store.num_segments)
            ]
            for qi, parts in enumerate(per_query):
                pairs = merge_topk(
                    (outputs[qi].pairs(store.segment_size) for outputs in by_segment), k
                )
                parts.append((vertex_type, pairs))
    return [merge_attribute_topk(parts, k) for parts in per_query]
