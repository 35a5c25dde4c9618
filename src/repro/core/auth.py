"""Role-based access control over graph and vector data (paper Sec. 1, 5.1).

One of the paper's arguments for a *unified* system is data governance: "a
single set of access controls (e.g., role-based access control) for both
vector data and graph data".  And the vector-search filter bitmap
explicitly marks "all deleted and **unauthorized** vectors as invalid"
(Sec. 5.1).  This module provides that layer:

- a :class:`Role` grants access per vertex type — everything, nothing, or a
  row predicate (``lambda attrs: ...``);
- an :class:`AccessController` registers roles and materializes
  *authorization bitmaps* (one per segment) that the vector search
  intersects with its validity masks, so unauthorized vectors can never
  surface in results — the same mechanism that hides deleted rows;
- the role is one more bitmap source of the one VectorSearch routine
  (:func:`repro.core.search.vector_search_sharded`), so the query server,
  every elastic shard and :meth:`AccessController.authorized_search` (a
  thin wrapper pinning its own snapshot) enforce it on the same path.

Because both the graph side (scan filtering) and the vector side (bitmap
intersection) derive from one rule set, authorization cannot diverge
between the two — exactly the unified-governance claim.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

import numpy as np

from ..errors import ReproError
from ..graph.accumulators import MapAccum
from ..graph.txn import Snapshot
from ..graph.vertex_set import VertexSet
from ..index.bitmap import Bitmap
from .search import VectorSearchOptions, build_topk_vertex_set, vector_search_merged

__all__ = ["AccessController", "AuthorizationError", "Role"]

#: Row predicate deciding visibility of one vertex for a role.
RowPredicate = Callable[[dict[str, Any]], bool]


class AuthorizationError(ReproError):
    """The role does not permit the attempted access."""


class Role:
    """A named set of per-vertex-type access rules.

    ``rules`` maps vertex type -> ``True`` (full access), ``False`` (no
    access), or a row predicate.  Types absent from the map fall back to
    ``default`` (deny, unless constructed with ``default_allow=True``).
    """

    def __init__(
        self,
        name: str,
        rules: Mapping[str, bool | RowPredicate] | None = None,
        default_allow: bool = False,
    ):
        self.name = name
        self.rules: dict[str, bool | RowPredicate] = dict(rules or {})
        self.default_allow = default_allow

    def can_access_type(self, vertex_type: str) -> bool:
        rule = self.rules.get(vertex_type, self.default_allow)
        return rule is not False

    def allows(self, vertex_type: str, row: dict[str, Any]) -> bool:
        rule = self.rules.get(vertex_type, self.default_allow)
        if rule is True:
            return True
        if rule is False:
            return False
        return bool(rule(row))

    def search_masks(
        self, snapshot: Snapshot, vertex_type: str
    ) -> list[Bitmap] | None:
        """Per-segment masks of the rows of ``vertex_type`` this role may read.

        ``None`` when it may read them all (no mask needed: the search wraps
        the status structure), ``[]`` when it may read none.  This is the
        bitmap the one VectorSearch routine intersects with the query
        filter (:func:`repro.core.search.vector_search_sharded`).
        """
        rule = self.rules.get(vertex_type, self.default_allow)
        if rule is True:
            return None
        if rule is False:
            return []
        capacity = snapshot._store.segment_size
        masks = [
            np.zeros(capacity, dtype=bool)
            for _ in range(snapshot.num_segments(vertex_type))
        ]
        for vid, row in snapshot.scan(vertex_type):
            if rule(row):
                masks[vid // capacity][vid % capacity] = True
        return [Bitmap.wrap(mask) for mask in masks]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Role({self.name!r}, types={sorted(self.rules)})"


class AccessController:
    """Registry of roles + the authorization-bitmap machinery."""

    def __init__(self, db):
        self.db = db
        self._roles: dict[str, Role] = {}
        # Admin sees everything; always present.
        self._roles["admin"] = Role("admin", default_allow=True)

    # ------------------------------------------------------------- registry
    def create_role(
        self,
        name: str,
        rules: Mapping[str, bool | RowPredicate] | None = None,
        default_allow: bool = False,
    ) -> Role:
        if name in self._roles:
            raise ReproError(f"role '{name}' already exists")
        role = Role(name, rules, default_allow)
        self._roles[name] = role
        return role

    def role(self, name: str) -> Role:
        try:
            return self._roles[name]
        except KeyError:
            raise AuthorizationError(f"unknown role '{name}'") from None

    # -------------------------------------------------------------- bitmaps
    def authorization_bitmaps(
        self, role: Role | str, snapshot: Snapshot, vertex_type: str
    ) -> list[Bitmap]:
        """Per-segment masks of the vertices this role may see.

        This is the "unauthorized vectors are invalid" bitmap of Sec. 5.1
        (:meth:`Role.search_masks`, with full access spelled out as the
        status structure); it is empty when the role cannot read the type.
        """
        if isinstance(role, str):
            role = self.role(role)
        masks = role.search_masks(snapshot, vertex_type)
        if masks is None:
            # Full access: wrap the existing status structure, no new bitmap
            # (the Sec. 5.1 reuse optimization applies to authorization too).
            return [Bitmap.wrap(mask) for mask in snapshot.valid_bitmaps(vertex_type)]
        return masks

    # ------------------------------------------------------------ filtering
    def visible_vertices(
        self, role: Role | str, snapshot: Snapshot, vertex_type: str
    ) -> VertexSet:
        """Graph-side view under the same rules (unified governance)."""
        if isinstance(role, str):
            role = self.role(role)
        out = VertexSet(name=f"visible:{vertex_type}")
        if not role.can_access_type(vertex_type):
            return out
        for vid, row in snapshot.scan(vertex_type):
            if role.allows(vertex_type, row):
                out.add(vertex_type, vid)
        return out

    # -------------------------------------------------------------- search
    def authorized_search(
        self,
        role: Role | str,
        vector_attributes: list[str],
        query_vector,
        k: int,
        filter: VertexSet | None = None,
        ef: int | None = None,
        distance_map: MapAccum | None = None,
    ) -> VertexSet:
        """VectorSearch() that can only return authorized vertices.

        Runs the one VectorSearch routine on a fresh snapshot with the
        role's bitmap intersected with the query's own filter (if any);
        types the role cannot read contribute nothing.
        """
        if isinstance(role, str):
            role = self.role(role)
        options = VectorSearchOptions(filter=filter, ef=ef)
        with self.db.snapshot() as snapshot:
            top = vector_search_merged(
                self.db.service,
                snapshot,
                vector_attributes,
                query_vector,
                k,
                options,
                role=role,
            )
        return build_topk_vertex_set(top, distance_map)
