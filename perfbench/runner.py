"""Runs one workload: repeated from-scratch set-up, measured phase, checks.

With ``trace`` off the run reports the end-to-end metrics.  With it on,
the run measures the same inputs twice on two identically built subjects:
once unpatched (the reference for ``trace.overhead_frac``) and once with
the timing shims of :mod:`perfbench.trace` installed and the
``repro.telemetry`` registry switched on; it reports the per-layer
metrics.  The last set-up of a traced run is itself traced, which gives
the set-up layers (``graph.bulk_load_s``, ``index.build_s``,
``tier.rebalance_s``).
"""

from __future__ import annotations

import math
import shutil
import tempfile
import time
from pathlib import Path

from repro.telemetry import disable_telemetry, enable_telemetry

from . import catalog, hybrid_gsql, ingest_mix, sharded_cold
from .common import Check, Phase, latency_ms
from .stats import MIN_BEYOND, beyond, mean, median, peak_rss_mb, percentile, tail_percentile
from .trace import ShimSet, Tracer, leftover_shims

WORKLOAD_MODULES = {
    "hybrid-gsql": hybrid_gsql,
    "ingest-mix": ingest_mix,
    "sharded-cold": sharded_cold,
}

_TELEMETRY_COUNTERS = (
    "serve.fused_queries",
    "serve.session_token_waits",
    "tier.cold_hits",
    "elastic.shard_requests",
)


class RunReport:
    def __init__(self) -> None:
        self.metrics: dict[str, tuple[float, str]] = {}
        self.checks: list[Check] = []
        self.notes: list[str] = []
        self.attempted = 0
        self.failed = 0

    @property
    def correct(self) -> bool:
        return all(c.ok for c in self.checks)


def execute(name: str, seed: int, seconds: float, trace: bool, workroot: Path) -> RunReport:
    module = WORKLOAD_MODULES[name]
    report = RunReport()
    data = module.make_data()
    workroot.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=workroot))
    tracer = Tracer()
    shims = ShimSet(tracer)
    subjects = []
    try:
        setup_times = []
        setup_layers = {}
        for i in range(catalog.SETUP_REPEATS):
            traced_setup = trace and i == catalog.SETUP_REPEATS - 1
            keep = 2 if trace else 1
            while len(subjects) >= keep:
                subjects.pop(0).close()
            if traced_setup:
                shims.install()
            try:
                started = time.perf_counter()
                subjects.append(module.build(data, workdir / f"setup-{i}"))
                setup_times.append(time.perf_counter() - started)
            finally:
                shims.uninstall()
            if traced_setup:
                setup_layers = {
                    "graph.bulk_load_s": tracer.total("graph.bulk_load"),
                    "index.build_s": tracer.total("index.build"),
                    "tier.rebalance_s": tracer.total("tier.rebalance"),
                }
        report.notes.append(
            "setup_s runs: " + " ".join(f"{t:.3f}" for t in setup_times) + " s"
        )

        if not trace:
            phase = module.measure(subjects[-1], data, seed, seconds, lambda: None)
            _phase_checks(report, phase, name)
            _end_to_end(report, phase, median(setup_times))
        else:
            base = module.measure(subjects[0], data, seed, seconds, lambda: None)
            _phase_checks(report, base, name + " (untraced)")
            telemetry = enable_telemetry()

            def traced_start() -> None:
                tracer.reset()
                telemetry.reset()

            shims.install()
            try:
                traced = module.measure(subjects[1], data, seed, seconds, traced_start)
            finally:
                shims.uninstall()
                disable_telemetry()
            counters = {
                key: telemetry.registry.counter(key).value for key in _TELEMETRY_COUNTERS
            }
            _phase_checks(report, traced, name + " (traced)")
            leftovers = leftover_shims()
            report.checks.append(
                Check("trace shims removed after the run", not leftovers, ", ".join(leftovers) or "none left")
            )
            _per_layer(report, tracer, base, traced, setup_layers, subjects[1], counters)
    finally:
        shims.uninstall()
        for db in subjects:
            db.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return report


def _phase_checks(report: RunReport, phase: Phase, label: str) -> None:
    report.checks.extend(phase.checks)
    report.notes.extend(f"{label}: {note}" for note in phase.notes)
    report.attempted += phase.attempted
    report.failed += phase.failed
    n = len(phase.reads)
    tail = tail_percentile(n)
    report.notes.append(
        f"{label}: {n} timed reads, {phase.failed} failed of {phase.attempted} attempted; "
        f"p99 has {beyond(n, 99.0) if n else 0} samples beyond it (need {MIN_BEYOND}); "
        f"highest supported percentile p{tail}"
    )
    if n:
        report.notes.append(
            f"{label}: read latency " + ", ".join(
                f"p{p:g} {latency_ms(phase, p):.2f} ms" for p in (50.0, 90.0, 95.0, 98.0, 99.0)
            )
        )
    unsettled = sum(1 for o in phase.reads if o.done < o.start)
    report.checks.append(
        Check(f"{label}: every read settled, typed failures counted", unsettled == 0,
              f"{unsettled} unsettled; failed_frac {phase.failed / max(1, phase.attempted):.4f}")
    )


def _end_to_end(report: RunReport, phase: Phase, setup_s: float) -> None:
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "read_p50_ms": latency_ms(phase, 50.0),
        "read_qps": phase.read_qps,
        "recall_at_10": phase.recall,
    }
    for metric in catalog.END_TO_END:
        report.metrics[metric.name] = (values[metric.name], metric.unit)


def _per_layer(report, tracer: Tracer, base: Phase, traced: Phase, setup_layers, db, counters) -> None:
    reads = max(1, len(traced.reads))
    segment_calls = tracer.calls("core.segment_search")

    def ms(*names, self_time=False):
        return tracer.mean(*names, self_time=self_time) * 1e3

    def us(*names):
        return tracer.mean(*names) * 1e6

    def ratio(num, den):
        return num / den if den else 0.0

    batch_sizes = tracer.values("serve.batch_size")
    commits = [w.latency * 1e3 for w in base.writes if w.ok]
    tier = getattr(db, "tier_manager", None)
    resident = tier.stats_snapshot()["resident_bytes"] if tier is not None else 0
    base_p50 = latency_ms(base, 50.0)
    values = {
        **setup_layers,
        "graph.snapshot_pin_us": us("graph.snapshot_pin"),
        "graph.commit_ms": ms("graph.commit", self_time=True),
        "graph.wal_append_ms": ms("graph.wal_append"),
        "graph.pattern_ms": ms("graph.pattern"),
        "graph.bitmap_ms": ms("graph.bitmap"),
        "gsql.parse_ms": ms("gsql.parse"),
        "gsql.plan_ms": ms("gsql.plan"),
        "gsql.execute_ms": ms("gsql.execute", self_time=True),
        "serve.admit_us": us("serve.admit"),
        "serve.queue_wait_p50_ms": tracer.value_percentile("serve.queue_wait", 50.0) * 1e3,
        "serve.queue_wait_p99_ms": tracer.value_percentile("serve.queue_wait", 99.0) * 1e3,
        "serve.batch_window_ms": ms("serve.batch_window"),
        "serve.batch_size_mean": mean(batch_sizes),
        "serve.fused_share": ratio(counters["serve.fused_queries"], sum(batch_sizes)),
        "serve.cache_hit_ratio": mean(tracer.values("serve.cache_hit")),
        "serve.cache_probe_us": us("serve.cache_probe"),
        "serve.materialize_us": us("serve.materialize"),
        "serve.sla_waits_per_read": counters["serve.session_token_waits"] / reads,
        "core.search_ms": ms("core.search", self_time=True),
        "core.fanout_merge_ms": ms("core.fanout_merge", self_time=True),
        "core.segment_search_ms": ms("core.segment_search", self_time=True),
        "core.segments_per_read": segment_calls / reads,
        "core.bf_share": mean(tracer.values("core.bruteforce")),
        "core.overlay_records_per_search": ratio(
            sum(tracer.values("core.overlay_records")), segment_calls
        ),
        "core.delta_append_ms": ms("core.delta_append"),
        "core.vacuum.delta_merge_ms": ms("core.vacuum.delta_merge"),
        "core.vacuum.index_merge_ms": ms("core.vacuum.index_merge"),
        "core.snapshot_clone_ms": ms("core.snapshot_clone"),
        "index.hnsw_search_ms": ms("index.hnsw_search"),
        "index.hnsw_dist_per_search": tracer.hnsw_distances_per_search(),
        "index.hnsw_update_ms": ms("index.hnsw_update"),
        "tier.cold_share": ratio(counters["tier.cold_hits"], segment_calls),
        "tier.adc_ms": ms("tier.adc"),
        "tier.resident_mb": resident / float(1 << 20),
        "elastic.route_ms": ms("elastic.route", self_time=True),
        "elastic.merge_us": us("elastic.merge"),
        "elastic.shard_requests_per_read": counters["elastic.shard_requests"] / reads,
        "ingest.commit_p50_ms": percentile(commits, 50.0) if commits else 0.0,
        "ingest.commit_p90_ms": percentile(commits, 90.0) if commits else 0.0,
        "ingest.rows_per_s": base.ingest_rows_per_s,
        "loadgen.lag_p99_ms": percentile(base.lags, 99.0) * 1e3 if base.lags else 0.0,
        "trace.overhead_frac": ratio(latency_ms(traced, 50.0), base_p50) - 1.0,
        "trace.unattributed_share": tracer.unattributed_share(traced.read_intervals()),
    }
    for metric in catalog.PER_LAYER:
        report.metrics[metric.name] = (float(values[metric.name]), metric.unit)


def finite(report: RunReport) -> bool:
    return all(math.isfinite(v) for v, _ in report.metrics.values())
