"""The benchmark's catalog: workloads, metrics, units and regression bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-manifest``); a test keeps the two equal.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Seconds one run measures (the ``run_seconds`` of BENCHMARK.json, given back as ``--seconds``).
RUN_SECONDS = 20
#: Times each run builds its subject from scratch; ``setup_s`` is the median.
SETUP_REPEATS = 3
COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None = None  # end-to-end only


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


WORKLOADS = [
    Workload(
        "hybrid-gsql",
        "One closed-loop client runs IC3/5/6/9/11 at 2-3 hops and ORDER BY "
        "VECTOR_DIST (+language filter) on LDBC SF1: parse, plan, patterns, "
        "bitmaps, segment BF/HNSW; no serve",
    ),
    Workload(
        "ingest-mix",
        "20 commits/s (WAL file, flushed per commit, no fsync; vacuum every 20 "
        "commits) beside a closed-loop served reader with read-your-writes "
        "probes, then bulk ingest to indexed",
    ),
    Workload(
        "sharded-cold",
        "One closed-loop client into an ElasticTier of nproc shards, half the segments "
        "PQ-cold (m=16, ADC+rerank): routing, shard queues, fan-out, ADC. "
        "serve-topk dropped: open-loop p50 unsteady here",
    ),
]

END_TO_END = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("read_p50_ms", "ms", "lower", 0.25),
    Metric("read_qps", "1/s", "higher", 0.25),
    Metric("recall_at_10", "ratio", "higher", 0.05),
]

PER_LAYER = [
    # set-up
    Metric("graph.bulk_load_s", "s", "lower"),
    Metric("index.build_s", "s", "lower"),
    # graph
    Metric("graph.snapshot_pin_us", "us", "lower"),
    Metric("graph.commit_ms", "ms", "lower"),
    Metric("graph.wal_append_ms", "ms", "lower"),
    Metric("graph.pattern_ms", "ms", "lower"),
    Metric("graph.bitmap_ms", "ms", "lower"),
    # gsql
    Metric("gsql.parse_ms", "ms", "lower"),
    Metric("gsql.plan_ms", "ms", "lower"),
    Metric("gsql.execute_ms", "ms", "lower"),
    # serve
    Metric("serve.admit_us", "us", "lower"),
    Metric("serve.queue_wait_p50_ms", "ms", "lower"),
    Metric("serve.queue_wait_p99_ms", "ms", "lower"),
    Metric("serve.batch_window_ms", "ms", "lower"),
    Metric("serve.batch_size_mean", "count", "higher"),
    Metric("serve.fused_share", "ratio", "higher"),
    Metric("serve.cache_hit_ratio", "ratio", "higher"),
    Metric("serve.cache_probe_us", "us", "lower"),
    Metric("serve.materialize_us", "us", "lower"),
    Metric("serve.sla_waits_per_read", "count", "lower"),
    # core
    Metric("core.search_ms", "ms", "lower"),
    Metric("core.fanout_merge_ms", "ms", "lower"),
    Metric("core.segment_search_ms", "ms", "lower"),
    Metric("core.segments_per_read", "count", "lower"),
    Metric("core.bf_share", "ratio", "lower"),
    Metric("core.overlay_records_per_search", "count", "lower"),
    Metric("core.delta_append_ms", "ms", "lower"),
    Metric("core.vacuum.delta_merge_ms", "ms", "lower"),
    Metric("core.vacuum.index_merge_ms", "ms", "lower"),
    Metric("core.snapshot_clone_ms", "ms", "lower"),
    # index
    Metric("index.hnsw_search_ms", "ms", "lower"),
    Metric("index.hnsw_dist_per_search", "count", "lower"),
    Metric("index.hnsw_update_ms", "ms", "lower"),
    # tier
    Metric("tier.cold_share", "ratio", "lower"),
    Metric("tier.adc_ms", "ms", "lower"),
    Metric("tier.rebalance_s", "s", "lower"),
    Metric("tier.resident_mb", "MB", "lower"),
    # elastic
    Metric("elastic.route_ms", "ms", "lower"),
    Metric("elastic.merge_us", "us", "lower"),
    Metric("elastic.shard_requests_per_read", "count", "lower"),
    # write path, end to end (from the traced run's untraced phase)
    Metric("ingest.commit_p50_ms", "ms", "lower"),
    Metric("ingest.commit_p90_ms", "ms", "lower"),
    Metric("ingest.rows_per_s", "1/s", "higher"),
    # run validity
    Metric("loadgen.lag_p99_ms", "ms", "lower"),
    Metric("trace.overhead_frac", "ratio", "lower"),
    Metric("trace.unattributed_share", "ratio", "lower"),
]


def workload_names() -> list[str]:
    return [w.name for w in WORKLOADS]


def manifest() -> dict:
    """The ``BENCHMARK.json`` document, in its fixed key order."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def write_manifest(path: Path) -> None:
    path.write_text(json.dumps(manifest(), indent=2) + "\n", encoding="utf-8")
