"""The one freshness-checked snapshot pin of the serving read path.

Every served read — the :class:`~repro.serve.server.QueryServer` fast
path and SLA path, and the :class:`~repro.elastic.router.ElasticTier`
router with or without a contract — pins its snapshot through
:func:`pin_fresh`:

1. read the watermark of every store the query touches, *before* pinning
   (the cache-key discipline, see :mod:`repro.serve.cache`);
2. pin a snapshot and compute its ``lag``: how far its TID trails the
   freshest watermark TID.  ``lag`` is non-zero only inside a commit's
   publication window (embedding hook fired, ``last_tid`` not yet
   published);
3. validate the request's contract — ``lag <= max_staleness`` and a
   snapshot TID covering ``session_token`` — and serve, or release the
   snapshot and re-pin until ``limit``, then fail with a typed
   :class:`~repro.errors.StalenessBoundError`.

A result computed on the yielded snapshot may be cached under the
yielded watermarks only when ``lag == 0``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from ..analysis.hooks import schedule_point
from ..core.service import EmbeddingStore
from ..errors import StalenessBoundError
from ..telemetry import get_telemetry

__all__ = ["pin_fresh", "watermarks"]

#: Snapshot re-pin cadence while waiting out a freshness violation.
REPIN_SLEEP = 0.0005


def watermarks(db, vector_attributes) -> tuple:
    """One :meth:`EmbeddingStore.watermark` per ``"Type.attr"`` name."""
    marks = []
    for qualified in vector_attributes:
        vertex_type, _ = db.schema.embedding_attribute(qualified)
        store = db.service.store(vertex_type, qualified.split(".", 1)[1])
        marks.append(store.watermark())
    return tuple(marks)


@contextmanager
def pin_fresh(
    db,
    vector_attributes,
    *,
    max_staleness: int | None = None,
    session_token: int | None = None,
    limit: float | None = None,
):
    """Pin a snapshot meeting a freshness contract; yields ``(snapshot, marks, lag)``.

    ``max_staleness`` bounds ``lag``; ``session_token`` is a commit TID the
    snapshot must cover (read-your-writes).  Without either, the first
    pin is served.  ``limit`` is the ``time.monotonic()`` instant after
    which a violated contract fails typed instead of re-pinning (``None``:
    fail at the first violation).  With no attributes there are no
    watermarks, and ``lag`` is 0.
    """
    tel = get_telemetry()
    started = time.monotonic()
    while True:
        marks = watermarks(db, vector_attributes)
        with db.snapshot() as snapshot:
            lag = EmbeddingStore.watermark_lag(marks, snapshot.tid) if marks else 0
            stale = max_staleness is not None and lag > max_staleness
            behind = session_token is not None and snapshot.tid < session_token
            if not (stale or behind):
                yield snapshot, marks, lag
                return
        now = time.monotonic()
        if limit is None or now >= limit:
            waited = now - started
            if behind:
                tel.inc("serve.session_token_rejections")
                raise StalenessBoundError(
                    f"no snapshot covering session token {session_token} "
                    f"within {waited:.3f}s",
                    session_token=session_token,
                    waited=waited,
                )
            tel.inc("serve.staleness_rejections")
            raise StalenessBoundError(
                f"snapshot lag {lag} exceeds max_staleness {max_staleness} "
                f"after {waited:.3f}s",
                max_staleness=max_staleness,
                lag=lag,
                waited=waited,
            )
        tel.inc("serve.session_token_waits" if behind else "serve.staleness_waits")
        time.sleep(min(REPIN_SLEEP, limit - now))
        schedule_point("serve.sla.repin")
