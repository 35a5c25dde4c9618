"""Timing shims around the public entry points of each layer.

A :class:`Tracer` records one span per call of every shimmed function:
its duration, and its *self* time (duration minus the union of its child
spans, including children that ran on the MPP pool's threads, which the
``MPPExecutor.map`` shim links to the calling span).  Spans are kept as
per-name aggregates plus the intervals of top-level work spans, so the
share of read time that no layer span covers can be computed.

:class:`ShimSet` installs the shims by patching each target on the object
the caller looks the name up on: a method on its class, a function on
every ``repro`` module that holds a reference to it (``from x import f``
copies the name).  :meth:`ShimSet.uninstall` restores every patched
attribute exactly, so code run afterwards is the unpatched program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

from .stats import length, overlap, percentile, union

WORK = "work"  # a layer doing work for a request
WAIT = "wait"  # a caller blocked on another thread; a child, never coverage

SHIM_MARK = "__perfbench_shim__"


class _Frame:
    __slots__ = ("children",)

    def __init__(self) -> None:
        self.children: list[tuple[float, float]] = []


@dataclass
class _Agg:
    count: int = 0
    total: float = 0.0
    self_total: float = 0.0


class Tracer:
    """Thread-safe span aggregation for one traced phase."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self._aggs: dict[str, _Agg] = defaultdict(_Agg)
            self._values: dict[str, list[float]] = defaultdict(list)
            self._work: list[tuple[float, float]] = []
            self._indexes: dict[int, tuple[object, int, int]] = {}

    # ------------------------------------------------------------ recording
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> _Frame | None:
        stack = self._stack()
        if stack:
            return stack[-1]
        return getattr(self._local, "inherited", None)

    def call(self, name: str, kind: str, fn: Callable, args, kwargs, count: bool = True):
        stack = self._stack()
        parent = stack[-1] if stack else getattr(self._local, "inherited", None)
        frame = _Frame()
        stack.append(frame)
        start = time.monotonic()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.monotonic()
            stack.pop()
            covered = length(union((max(s, start), min(e, end)) for s, e in frame.children))
            if parent is not None:
                parent.children.append((start, end))
            with self._lock:
                agg = self._aggs[name]
                agg.count += int(count)
                agg.total += end - start
                agg.self_total += (end - start) - covered
                if parent is None and kind == WORK:
                    self._work.append((start, end))

    def count(self, name: str) -> None:
        with self._lock:
            self._aggs[name].count += 1

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self._values[key].append(float(value))

    def work_interval(self, start: float, end: float) -> None:
        """Attribute ``[start, end)`` to a layer (e.g. a queue wait)."""
        with self._lock:
            self._work.append((start, end))

    def carry(self, fn: Callable) -> Callable:
        """Wrap ``fn`` so spans it opens on another thread nest under ours."""
        parent = self.current()
        if parent is None:
            return fn
        local = self._local

        def carried(*args, **kwargs):
            previous = getattr(local, "inherited", None)
            local.inherited = parent
            try:
                return fn(*args, **kwargs)
            finally:
                local.inherited = previous

        return carried

    def see_index(self, index) -> None:
        """Remember an HNSW index's counters the first time it is searched."""
        key = id(index)
        with self._lock:
            if key in self._indexes:
                return
        stats = index.stats
        with self._lock:
            self._indexes.setdefault(
                key, (index, stats.num_searches, stats.num_distance_computations)
            )

    # ------------------------------------------------------------- readback
    def calls(self, *names: str) -> int:
        with self._lock:
            return sum(self._aggs[n].count for n in names if n in self._aggs)

    def total(self, *names: str) -> float:
        with self._lock:
            return sum(self._aggs[n].total for n in names if n in self._aggs)

    def mean(self, *names: str, self_time: bool = False) -> float:
        """Mean seconds per call (0 when never called)."""
        with self._lock:
            aggs = [self._aggs[n] for n in names if n in self._aggs]
        calls = sum(a.count for a in aggs)
        if not calls:
            return 0.0
        spent = sum(a.self_total if self_time else a.total for a in aggs)
        return spent / calls

    def values(self, key: str) -> list[float]:
        with self._lock:
            return list(self._values.get(key, ()))

    def value_percentile(self, key: str, pct: float) -> float:
        values = self.values(key)
        return percentile(values, pct) if values else 0.0

    def hnsw_distances_per_search(self) -> float:
        with self._lock:
            seen = list(self._indexes.values())
        searches = dists = 0
        for index, base_searches, base_dists in seen:
            stats = index.stats
            searches += stats.num_searches - base_searches
            dists += stats.num_distance_computations - base_dists
        return dists / searches if searches else 0.0

    def unattributed_share(self, reads: list[tuple[float, float]]) -> float:
        """Share of in-flight read time covered by no layer span."""
        read_time = union(reads)
        total = length(read_time)
        if total <= 0:
            return 0.0
        with self._lock:
            work = union(self._work)
        return max(0.0, 1.0 - overlap(read_time, work) / total)


# ------------------------------------------------------------------ shims
@dataclass(frozen=True)
class Target:
    """One shimmed entry point: ``module`` + ``Class.method`` or ``function``."""

    module: str
    qualname: str
    span: str | None  # None: no span, hooks only
    kind: str = WORK
    before: Callable | None = None  # before(tracer, args)
    after: Callable | None = None  # after(tracer, args, result)


def _queue_wait(tracer: Tracer, _args, result) -> None:
    now = time.monotonic()
    requests = result if isinstance(result, list) else [result]
    for request in requests:
        submitted = getattr(request, "submitted_at", None)
        if submitted is not None:
            tracer.add("serve.queue_wait", now - submitted)
            tracer.work_interval(submitted, now)


def _batch_size(tracer: Tracer, _args, result) -> None:
    tracer.add("serve.batch_size", len(result))


def _cache_get(tracer: Tracer, _args, result) -> None:
    tracer.add("serve.cache_hit", 0.0 if result is None else 1.0)


def _segment_output(tracer: Tracer, _args, result) -> None:
    tracer.add("core.bruteforce", 1.0 if result.used_bruteforce else 0.0)


def _overlay_size(tracer: Tracer, _args, result) -> None:
    tracer.add("core.overlay_records", len(result))


def _merged(key: str) -> Callable:
    def hook(tracer: Tracer, _args, result) -> None:
        tracer.add(key, result)

    return hook


def _index_seen(tracer: Tracer, args) -> None:
    tracer.see_index(args[0])


TARGETS = [
    Target("repro.core.database", "TigerVectorDB.bulk_load_vertices", "graph.bulk_load"),
    Target("repro.core.database", "TigerVectorDB.bulk_load_edges", "graph.bulk_load"),
    Target("repro.core.database", "TigerVectorDB.bulk_load_embeddings", "index.build"),
    Target("repro.graph.storage", "GraphStore.snapshot", "graph.snapshot_pin"),
    Target("repro.graph.txn", "Transaction.commit", "graph.commit"),
    Target("repro.graph.wal", "WriteAheadLog.append", "graph.wal_append"),
    Target("repro.graph.pattern", "match_frontier", "graph.pattern"),
    Target("repro.graph.pattern", "match_bindings", "graph.pattern"),
    Target("repro.graph.txn", "Snapshot.bitmap_from_vids", "graph.bitmap"),
    Target("repro.gsql.parser", "parse", "gsql.parse"),
    Target("repro.gsql.semantic", "analyze_select", "gsql.plan"),
    Target("repro.gsql.planner", "build_plan", "gsql.plan"),
    Target("repro.gsql.executor", "execute_select", "gsql.execute"),
    Target("repro.gsql.executor", "execute_procedure", "gsql.execute"),
    Target("repro.serve.server", "QueryServer.submit_search", "serve.admit"),
    Target("repro.serve.tenancy", "WeightedFairQueue.take", None, after=_queue_wait),
    Target("repro.serve.tenancy", "WeightedFairQueue.drain_matching", None, after=_queue_wait),
    Target("repro.serve.batcher", "MicroBatcher.collect", "serve.batch_window", after=_batch_size),
    Target("repro.serve.cache", "ServeResultCache.get", "serve.cache_probe", after=_cache_get),
    Target("repro.serve.cache", "ServeResultCache.put", "serve.cache_probe"),
    Target("repro.serve.server", "ServeFuture.result", "serve.future_wait", kind=WAIT),
    Target("repro.serve.server", "ServeFuture.exception", "serve.future_wait", kind=WAIT),
    Target("repro.core.search", "build_topk_vertex_set", "serve.materialize"),
    Target("repro.core.search", "vector_search_merged", "core.search"),
    Target("repro.core.search", "vector_search_batch", "core.search_batch"),
    Target("repro.core.action", "EmbeddingAction.topk", "core.fanout_merge"),
    Target("repro.core.service", "EmbeddingStore.search_segment", "core.segment_search",
           after=_segment_output),
    Target("repro.core.service", "EmbeddingStore.search_segment_batch", "core.segment_search"),
    Target("repro.core.service", "EmbeddingStore.overlay_records", "core.overlay",
           after=_overlay_size),
    Target("repro.core.service", "EmbeddingService.on_commit", "core.delta_append"),
    Target("repro.core.vacuum", "VacuumManager.delta_merge", "core.vacuum.delta_merge",
           after=_merged("core.vacuum.delta_merged")),
    Target("repro.core.vacuum", "VacuumManager.index_merge", "core.vacuum.index_merge",
           after=_merged("core.vacuum.index_merged")),
    Target("repro.core.segment", "EmbeddingSegment.build_next_snapshot", "core.snapshot_clone"),
    Target("repro.index.hnsw", "HNSWIndex.topk_search", "index.hnsw_search", before=_index_seen),
    Target("repro.index.hnsw", "HNSWIndex.update_items", "index.hnsw_update"),
    Target("repro.index.pq", "PQKernel.distances", "tier.adc"),
    Target("repro.tier.manager", "TierManager.rebalance", "tier.rebalance"),
    Target("repro.elastic.router", "ElasticTier.search", "elastic.route"),
    Target("repro.core.search", "merge_sharded_topk", "elastic.merge"),
    Target("repro.elastic.shard", "ShardServer.submit_shard", "elastic.dispatch"),
]

#: Not a span: links pool-thread spans to the span that fanned them out.
CARRIER = Target("repro.graph.mpp", "MPPExecutor.map", None)


def _span_shim(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    name, kind, before, after = target.span, target.kind, target.before, target.after

    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def gen_shim(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            try:
                while True:
                    try:
                        item = tracer.call(name, kind, next, (iterator,), {}, count=False)
                    except StopIteration:
                        return
                    yield item
            finally:
                tracer.count(name)

        setattr(gen_shim, SHIM_MARK, True)
        return gen_shim

    @functools.wraps(fn)
    def shim(*args, **kwargs):
        if before is not None:
            before(tracer, args)
        if name is None:
            result = fn(*args, **kwargs)
        else:
            result = tracer.call(name, kind, fn, args, kwargs)
        if after is not None:
            after(tracer, args, result)
        return result

    setattr(shim, SHIM_MARK, True)
    return shim


def _carrier_shim(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def shim(self, func, items, *args, **kwargs):
        return fn(self, tracer.carry(func), items, *args, **kwargs)

    setattr(shim, SHIM_MARK, True)
    return shim


@dataclass
class _Patch:
    owner: object
    attr: str
    original: object
    had_own: bool


@dataclass
class ShimSet:
    """Installs every shim on one tracer; :meth:`uninstall` undoes it all."""

    tracer: Tracer
    targets: list = field(default_factory=lambda: TARGETS + [CARRIER])
    _patches: list = field(default_factory=list)

    def install(self) -> "ShimSet":
        if self._patches:
            raise ValueError("shims are already installed")
        # Import every target module before patching anything: a module
        # imported mid-install would copy an already-shimmed function into
        # its globals, where uninstall could not find it.
        modules = {t.module: importlib.import_module(t.module) for t in self.targets}
        for target in self.targets:
            module = modules[target.module]
            if "." in target.qualname:
                cls_name, attr = target.qualname.split(".")
                owner = getattr(module, cls_name)
                had_own = attr in owner.__dict__
                original = owner.__dict__[attr] if had_own else getattr(owner, attr)
                fn = getattr(owner, attr)
                shim = (
                    _carrier_shim(self.tracer, fn)
                    if target is CARRIER
                    else _span_shim(self.tracer, target, fn)
                )
                self._patches.append(_Patch(owner, attr, original, had_own))
                setattr(owner, attr, shim)
                continue
            original = getattr(module, target.qualname)
            shim = _span_shim(self.tracer, target, original)
            for holder in _holders(original, target.qualname):
                self._patches.append(_Patch(holder, target.qualname, original, True))
                setattr(holder, target.qualname, shim)
        return self

    def uninstall(self) -> None:
        while self._patches:
            patch = self._patches.pop()
            if patch.had_own:
                setattr(patch.owner, patch.attr, patch.original)
            else:
                delattr(patch.owner, patch.attr)

    def __enter__(self) -> "ShimSet":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


def _holders(original, attr: str) -> list:
    """Every loaded ``repro`` module whose global ``attr`` is ``original``."""
    out = []
    for name, module in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and module is not None:
            if getattr(module, "__dict__", {}).get(attr) is original:
                out.append(module)
    return out


def leftover_shims() -> list[str]:
    """Names of any shim still reachable from a ``repro`` module or class."""
    found = []
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if getattr(value, SHIM_MARK, False):
                found.append(f"{name}.{attr}")
            if inspect.isclass(value) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    if getattr(cvalue, SHIM_MARK, False):
                        found.append(f"{name}.{attr}.{cattr}")
    return found
