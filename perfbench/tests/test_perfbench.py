"""Tests of the benchmark itself (not of the system it measures).

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from repro.errors import StalenessBoundError

from perfbench import catalog, hybrid_gsql, ingest_mix
from perfbench.loadgen import LoopResult, Outcome, QueryMix, closed_loop
from perfbench.stats import beyond, percentile, tail_percentile
from perfbench.trace import TARGETS, ShimSet, Tracer, leftover_shims

ROOT = Path(__file__).resolve().parents[2]


# ------------------------------------------------------------ determinism
def _mix_keys(seed: int, n: int = 300) -> list:
    pool = np.arange(4000 * 4, dtype=np.float32).reshape(4000, 4)
    mix = QueryMix(pool, np.random.default_rng(seed))
    return [mix.take().key for _ in range(n)]


def test_same_seed_same_query_stream():
    assert _mix_keys(5) == _mix_keys(5)
    assert _mix_keys(5) != _mix_keys(6)


def test_queries_never_repeat_and_seeds_share_the_set():
    keys = _mix_keys(9, n=2000)
    assert len(keys) == len(set(keys))
    # Whole blocks are drawn in a seeded order: same set, different order.
    assert sorted(_mix_keys(1, n=512)) == sorted(_mix_keys(2, n=512))


def test_same_seed_same_gsql_stream():
    data = hybrid_gsql.make_data()

    def draw(seed):
        nxt = hybrid_gsql.stream(data, np.random.default_rng([seed, 23]))
        return [(q.key, q.vector.tobytes()) for q in (nxt() for _ in range(50))]

    assert draw(4) == draw(4)
    assert draw(4) != draw(5)


class _RecordingTxn:
    def __init__(self, log):
        self.log = log

    def upsert_vertex(self, vtype, pk, attrs):
        self.log.append(("upsert", pk))

    def set_embedding(self, vtype, pk, attr, vector):
        self.log.append(("embed", pk, np.asarray(vector).tobytes()))

    def delete_vertex(self, vtype, pk):
        self.log.append(("delete", pk))

    def commit(self):
        self.log.append(("commit",))
        return len(self.log)


class _RecordingDB:
    def __init__(self):
        self.log = []

    def begin(self):
        return _RecordingTxn(self.log)

    def vid_for(self, vtype, pk):
        return pk


class _Data:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.vectors = rng.normal(size=(ingest_mix.INITIAL + 300, 8)).astype(np.float32)


def _commit_stream(seed: int) -> list:
    db = _RecordingDB()
    writer = ingest_mix.Writer(db, _Data(), np.random.default_rng([seed, 32]))
    for number in range(1, 61):
        writer.commit_once(number)
    return db.log


def test_same_seed_same_commit_stream():
    first = _commit_stream(7)
    assert first == _commit_stream(7)
    assert first != _commit_stream(8)
    ops = sum(1 for op in first if op[0] != "commit") // 60
    assert ops == 2 * ingest_mix.INSERTS + ingest_mix.UPDATES + ingest_mix.DELETES


# ------------------------------------------------------------ percentiles
def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(10_000) == 99.9
    assert tail_percentile(1_000) == 99.0
    assert tail_percentile(999) == 98.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(99) == 75.0
    assert tail_percentile(15) is None
    for n in (20, 57, 100, 413, 571, 999, 1000, 1011, 4000):
        pct = tail_percentile(n)
        assert beyond(n, pct) >= 10
        higher = [p for p in (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0) if p > pct]
        assert all(beyond(n, p) < 10 for p in higher)


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50.0) == 50
    assert percentile(samples, 99.0) == 99
    assert percentile(samples, 100.0) == 100
    assert percentile([3.0], 99.0) == 3.0


# --------------------------------------------------------------- catalog
def test_metric_names_and_units():
    names = [m.name for m in catalog.END_TO_END + catalog.PER_LAYER]
    assert len(names) == len(set(names))
    for metric in catalog.END_TO_END + catalog.PER_LAYER:
        assert catalog.NAME_RE.match(metric.name), metric.name
        assert catalog.UNIT_RE.match(metric.unit), metric
        assert metric.better in ("lower", "higher")
    for metric in catalog.END_TO_END:
        assert 0 < metric.bound <= 0.25
    setup = next(m for m in catalog.END_TO_END if m.name == "setup_s")
    assert setup.unit == "s" and setup.better == "lower"
    assert setup.bound == max(m.bound for m in catalog.END_TO_END)


def test_workloads_are_named_and_explained():
    names = catalog.workload_names()
    assert 2 <= len(names) <= 8 and len(names) == len(set(names))
    for workload in catalog.WORKLOADS:
        assert catalog.NAME_RE.match(workload.name)
        assert "\n" not in workload.why and len(workload.why) <= 200


def test_committed_manifest_matches_catalog():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert committed == catalog.manifest()
    assert list(committed) == [
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    ]


# ------------------------------------------------------------- generator
def test_closed_loop_counts_typed_failures():
    calls = itertools.count()

    def op(payload):
        if payload % 3 == 0:
            raise StalenessBoundError("stale", max_staleness=0, lag=1)
        return payload

    result = closed_loop(op, [lambda: next(calls)], 0.05)
    failed = [o for o in result.outcomes if not o.ok]
    assert result.outcomes and failed
    assert all(isinstance(o.error, StalenessBoundError) for o in failed)
    assert all(o.done >= o.start for o in result.outcomes)


def test_ok_per_second_is_the_median_window_and_ignores_a_stall():
    # 10 ops/s for 10 s, except one window in which nothing completes, and
    # one op that straddles two windows; failures never count.
    result = LoopResult(started=0.0, ended=10.0)
    for window in range(10):
        if window == 4:
            continue
        for i in range(10):
            start = window + i / 10.0
            result.outcomes.append(Outcome(i, start, done=start + 0.05))
    result.outcomes.append(Outcome("straddle", 4.5, done=5.5))
    stale = StalenessBoundError("stale", max_staleness=0, lag=1)
    result.outcomes.append(Outcome("failed", 1.0, done=1.05, error=stale))
    assert result.ok_per_second() == pytest.approx(10.0)
    # Shorter than one window: the overall rate.
    assert result.ok_per_second(window=20.0) == pytest.approx(91 / 10.0)
    # An op is split across the windows its span covers.
    straddler = LoopResult(outcomes=[Outcome("straddle", 0.5, done=1.5)], started=0.0, ended=2.0)
    assert straddler.ok_per_second() == pytest.approx(0.5)


# ----------------------------------------------------------------- shims
def _attribute_snapshot():
    import importlib

    out = {}
    for target in TARGETS:
        module = importlib.import_module(target.module)
        if "." in target.qualname:
            cls_name, attr = target.qualname.split(".")
            owner = getattr(module, cls_name)
            out[target.qualname] = owner.__dict__.get(attr)
        else:
            out[target.qualname] = getattr(module, target.qualname)
    return out


def test_shims_record_spans_and_are_fully_removed():
    from perfbench.common import item_db, load_items

    before = _attribute_snapshot()
    tracer = Tracer()
    vectors = np.random.default_rng(1).normal(size=(64, 8)).astype(np.float32)
    with ShimSet(tracer):
        db = item_db(8, 32)
        load_items(db, vectors)
        db.vector_search(["Item.emb"], vectors[3], 5)
    try:
        assert tracer.calls("graph.bulk_load") == 1
        assert tracer.calls("index.build") == 1
        assert tracer.calls("core.search") == 1
        assert tracer.calls("core.segment_search") == 2
        assert tracer.mean("core.fanout_merge", self_time=True) <= tracer.mean("core.fanout_merge")
        assert leftover_shims() == []
        assert _attribute_snapshot() == before
        # An untraced run afterwards executes the unpatched program.
        tracer.reset()
        untraced = item_db(8, 32)
        load_items(untraced, vectors)
        untraced.vector_search(["Item.emb"], vectors[3], 5)
        untraced.close()
        assert tracer.calls("core.search") == 0 and tracer.calls("graph.bulk_load") == 0
    finally:
        db.close()


def test_shims_removed_even_when_the_body_raises():
    before = _attribute_snapshot()
    with pytest.raises(KeyError):
        with ShimSet(Tracer()):
            raise KeyError("boom")
    assert leftover_shims() == []
    assert _attribute_snapshot() == before


# ----------------------------------------------------------- entry point
def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hybrid-gsql", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
