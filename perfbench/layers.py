"""Per-layer metrics from the spans of a traced run.

A layer's *self* time is its spans' duration minus the part of each span
its child spans cover, so the layers of one request add up to its wall time
without double counting.  Write-path numbers are per write and training
numbers per epoch; a layer the workload does not exercise reports 0.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from common import quantile
from report import CONTRACT


def load_spans(*paths) -> list:
    """Spans of one or more processes, with span ids made unique across them."""
    rows = []
    for index, path in enumerate(paths):
        offset = index * 10**9
        for row in json.loads(Path(path).read_text()):
            row[3] = None if row[3] is None else row[3] + offset
            row[4] = None if row[4] is None else row[4] + offset
            row[5] += offset
            rows.append(row)
    return rows


def self_times(spans: list) -> list[tuple[str, float, float, dict]]:
    """``(name, duration, self_time, attrs)`` per span, in seconds."""
    children: dict = defaultdict(list)
    for name, start, end, parent, _request, span_id, _attrs in spans:
        if parent is not None:
            children[parent].append((start, end))
    rows = []
    for name, start, end, _parent, _request, span_id, attrs in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        rows.append((name, end - start, end - start - covered, attrs))
    return rows


class LayerTable:
    """Sums and counts of spans by name, optionally for some requests only."""

    def __init__(self, spans: list, requests: set | None = None) -> None:
        self.total = defaultdict(float)
        self.own = defaultdict(float)
        self.count = defaultdict(int)
        self.attrs = defaultdict(lambda: defaultdict(float))
        kept = {row[5] for row in spans if requests is None or row[4] in requests}
        for span_id, (name, duration, own, attrs) in zip(
            (row[5] for row in spans), self_times(spans)
        ):
            if span_id not in kept:
                continue
            self.total[name] += duration
            self.own[name] += own
            self.count[name] += 1
            for key, value in attrs.items():
                self.attrs[name][key] += value

    def mean_ms(self, name: str) -> float:
        count = self.count[name]
        return self.total[name] / count * 1e3 if count else 0.0

    def own_ms(self, *names: str) -> float:
        return sum(self.own[name] for name in names) * 1e3

    def attr(self, name: str, key: str) -> float:
        return self.attrs[name][key]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _zeros() -> dict:
    return {entry["name"]: 0.0 for entry in CONTRACT["per_layer"]}


def serving_layers(run, spans: list, *, replayed: float = 0.0) -> dict:
    """Per-layer metrics of a serving run; write-path times are per write."""
    layers = _zeros()
    everything = LayerTable(spans)
    write_requests = {row[4] for row in spans if row[0] == "pool.write"}
    writes = len(write_requests)
    table = LayerTable(spans, write_requests)
    reads = [o for log in run.loadgen_phases for o in log.outcomes]
    batcher = run.server_stats.get("batcher", {})
    saves = table.count["store.save"]
    layers.update({
        "server.batch_size_mean": _ratio(
            everything.attr("session.predict_batch", "requests"),
            everything.count["session.predict_batch"],
        ),
        "server.submit_ms": everything.mean_ms("server.submit"),
        "server.http_self_ms": (
            sum(o.service for o in reads) / len(reads) * 1e3 - everything.mean_ms("server.submit")
            if reads else 0.0
        ),
        "server.shed_total": float(batcher.get("rejected", 0)),
        "server.expired_total": float(batcher.get("expired", 0)),
        "pool.acquire_wait_ms": everything.mean_ms("pool.acquire"),
        "pool.publish_ms": _ratio(table.own_ms("pool.publish"), writes),
        "session.predict_batch_us": everything.mean_ms("session.predict_batch") * 1e3,
        "session.refresh_forward_ms": _ratio(table.own_ms("session.refresh_forward"), writes),
        "session.mutate_ms": _ratio(table.own_ms("session.mutate"), writes),
        "session.fork_ms": _ratio(table.own_ms("session.fork"), writes),
        "session.forks_per_write": _ratio(table.count["session.fork"], writes),
        "wal.append_ms": _ratio(table.own_ms("wal.append"), writes),
        "wal.bytes_per_write": _ratio(table.attr("wal.append", "bytes"), writes),
        "wal.truncate_ms": _ratio(table.own_ms("wal.truncate"), writes),
        "wal.replayed_records": float(replayed),
        "store.checkpoint_ms": _ratio(table.own_ms("store.to_frozen", "store.save"), saves),
        "store.checkpoint_mb": _ratio(table.attr("store.save", "bytes"), saves) / 2**20,
        "store.load_ms": everything.mean_ms("store.load"),
        "frozen.forward_ms": _ratio(table.own_ms("frozen.forward"), writes),
        "neighbors.update_ms": _ratio(table.own_ms("neighbors"), writes),
        "neighbors.rows_requeried_per_write": _ratio(table.attr("neighbors", "rows_requeried"), writes),
        "neighbors.full_rebuilds_per_write": _ratio(table.attr("neighbors", "full_rebuilds"), writes),
        "knn.distance_pairs_per_write": _ratio(table.attr("neighbors", "pairs"), writes),
        "refresh.operator_ms": _ratio(table.own_ms("refresh.operator"), writes),
        "refresh.cache_hit_ratio": _ratio(
            table.attr("refresh.operator", "hits"), table.attr("refresh.operator", "calls")
        ),
        "loadgen.lag_ms_p99": quantile(
            [(o.enqueued - o.due) * 1e3 for o in reads], 0.99
        ) if reads else 0.0,
    })
    run.samples.update(traced_writes=writes, traced_spans=len(spans))
    return layers


def train_layers(run, spans: list, epochs: int, distance_pairs: int) -> dict:
    """Per-layer metrics of a training run, per epoch."""
    layers = _zeros()
    table = LayerTable(spans)
    layers.update({
        "train.knn_ms_per_epoch": table.own_ms("train.knn") / epochs,
        "train.kmeans_ms_per_epoch": table.own_ms("train.kmeans") / epochs,
        "train.operator_ms_per_epoch": table.own_ms("train.topology", "refresh.operator") / epochs,
        "train.forward_ms_per_epoch": table.own_ms("train.forward") / epochs,
        "train.backward_ms_per_epoch": table.own_ms("train.backward") / epochs,
        "train.optim_ms_per_epoch": table.own_ms("train.optim") / epochs,
        "train.distance_pairs_per_epoch": distance_pairs / epochs,
        "refresh.operator_ms": table.own_ms("refresh.operator") / epochs,
        "refresh.cache_hit_ratio": _ratio(
            table.attr("refresh.operator", "hits"), table.attr("refresh.operator", "calls")
        ),
    })
    return layers


def finish(traced, plain) -> None:
    """Complete a traced run's per-layer table with the tracing overhead."""
    base = plain.metrics["p50_ms"]
    traced.per_layer["trace.overhead_frac"] = traced.metrics["p50_ms"] / base - 1.0
    for phase, count in plain.attempted.items():
        traced.attempt(f"untraced {phase}", count)
    for phase, count in plain.failed.items():
        traced.failed[f"untraced {phase}"] = count
    traced.failures.extend(f"untraced {reason}" for reason in plain.failures)
