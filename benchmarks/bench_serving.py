"""Load-generator benchmark of the serving front-end (``repro.serving.server``).

Four measurements over one trained DHGNN bundle:

**Inline snapshot reads (asserted).**  A concurrent closed-loop load
generator (64 clients) submits single-node predict requests through
:meth:`MicroBatcher.submit`, which answers each one inline on the event
loop from the :class:`SessionPool`'s published
:class:`~repro.serving.ReadSnapshot`.  The same run measures the same
snapshot read dispatched per request through ``run_in_executor`` — the
event-loop → worker-thread round-trip every read used to pay.  The inline
path must reach **>= 2x** the executor path's QPS with a p99 no higher.

**HTTP end-to-end (reported + checked).**  The same workload through real
sockets against :class:`ServingServer`: per-request p50/p99 latency and
QPS, a **bit-identity** check (responses for labels and logits must equal
a direct :class:`InferenceSession` on the same bundle, bit for bit), and a
mixed phase driving ``/insert`` + ``/predict`` concurrently (reads must
keep succeeding while the single writer republishes).

**WAL write-throughput (asserted).**  The same single-writer mutation loop
with the write-ahead log off, on (per-record ``fsync``, the serving
default) and on without ``fsync``.  Journalling happens *before* every
apply, so its cost rides the write path's critical section; the asserted
ceiling states the durability budget: fsync'd journalling must keep at
least ``1/3`` of the unjournalled write throughput (in practice the
mutation's refresh + forward + republish dwarfs the fsync).  A
report-only ``on+checkpoint`` row adds a checkpoint per publish (the
``repro serve --wal --checkpoint`` write path); every row also reports
process CPU per write and the row's checkpoint size.

**Instrumentation overhead (asserted).**  The inline read load, run
back-to-back under the live process-wide metrics registry and under a
disabled one (``MetricsRegistry(enabled=False)``, every instrument a
no-op).  Trials interleave the two modes to cancel machine drift, the
cleanest (on, off) pair sets the measured ratio — CI noise can only slow a
run down, so the best pair bounds the true cost — and the asserted bar is
the observability contract: admission/pool instrumentation may cost the
read path at most **5%** QPS.  The per-request HTTP metrics (request
counter and latency histogram) sit outside this read path and are not
covered by the bar.  The HTTP run's ``GET /metrics`` exposition is also
saved to ``benchmarks/results/bench_serving_metrics_scrape.txt`` so CI
archives a real scrape next to the tables.

Run standalone (``PYTHONPATH=src python benchmarks/bench_serving.py``);
``REPRO_BENCH_QUICK=1`` selects the CI smoke configuration.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import RESULTS_DIR, emit  # noqa: E402

from repro import DHGNN, TrainConfig, Trainer, reset_default_engine  # noqa: E402
from repro.data.citation import make_citation_dataset  # noqa: E402
from repro.obs import MetricsRegistry, use_registry  # noqa: E402
from repro.serving import FrozenModel, InferenceSession  # noqa: E402
from repro.serving.server import (  # noqa: E402
    MicroBatcher,
    ServerConfig,
    ServingServer,
    SessionPool,
)
from repro.training.results import ResultTable  # noqa: E402

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

N_NODES = 240 if QUICK else 600
HIDDEN = 16
N_LAYERS = 3
EPOCHS = 4 if QUICK else 10
#: Closed-loop clients of the asserted read-path comparison.
READ_CLIENTS = 64
READ_REQUESTS = 40 if QUICK else 120
#: Worker threads of the per-request executor baseline.
EXECUTOR_WORKERS = 2
HTTP_CLIENTS = 32
HTTP_REQUESTS = 40 if QUICK else 120
#: The inline snapshot read must reach this multiple of the executor QPS.
QPS_SPEEDUP_BAR = 2.0
WAL_WRITE_OPS = 8 if QUICK else 24
#: Stated durability budget: fsync'd journalling may cost at most a 3x
#: write-throughput slowdown vs no WAL (generous for CI disks; locally the
#: measured overhead is far smaller because each write's refresh + forward +
#: republish dominates the fsync).
WAL_SLOWDOWN_CEILING = 3.0
#: Interleaved (registry on, registry off) trial pairs for the overhead phase.
OVERHEAD_TRIALS = 5
#: The observability contract: full instrumentation costs at most 5% QPS.
OVERHEAD_QPS_TOLERANCE = 0.05
#: Longer per-trial runs than the comparison: the overhead being measured is
#: a few percent, so each sample must be long enough to drown jitter.
OVERHEAD_REQUESTS = 120 if QUICK else 240


def _dataset():
    return make_citation_dataset(
        "bench-serving-http",
        n_nodes=N_NODES,
        n_classes=4,
        n_features=40,
        intra_class_degree=3.0,
        inter_class_degree=1.0,
        active_words=6,
        noise_words=2,
        confusion=0.4,
        train_per_class=8,
        val_fraction=0.2,
        seed=7,
    )


def _export_bundle(tmp_dir: Path) -> Path:
    reset_default_engine()
    dataset = _dataset()
    model = DHGNN(
        dataset.n_features, dataset.n_classes, hidden_dim=HIDDEN, n_layers=N_LAYERS, seed=0
    )
    trainer = Trainer(
        model,
        dataset,
        TrainConfig(epochs=EPOCHS, patience=None, neighbor_backend="incremental"),
    )
    trainer.train()
    bundle = tmp_dir / "bench_serving_bundle.npz"
    trainer.export_frozen(str(bundle))
    return bundle


# --------------------------------------------------------------------------- #
# Part 1: inline snapshot reads vs per-request executor dispatch (asserted)
# --------------------------------------------------------------------------- #
async def _run_read_load(
    bundle: Path, *, executor_workers: int | None, requests: int = READ_REQUESTS
) -> dict:
    """Closed-loop single-node reads; inline, or one executor hop per read."""
    pool = SessionPool(FrozenModel.load(bundle))
    batcher = MicroBatcher(pool, max_queue_depth=8192)
    loop = asyncio.get_running_loop()
    executor = (
        ThreadPoolExecutor(max_workers=executor_workers)
        if executor_workers is not None
        else None
    )

    def read_in_thread(request: dict) -> np.ndarray:
        return pool.acquire().answer(request["nodes"], request["output"])

    try:
        rng = np.random.default_rng(1)
        latencies: list[float] = []

        async def client(plan: np.ndarray) -> None:
            for node in plan:
                request = {"nodes": int(node), "output": "labels"}
                start = time.perf_counter()
                if executor is None:
                    await batcher.submit(request)
                else:
                    await loop.run_in_executor(executor, read_in_thread, request)
                latencies.append(time.perf_counter() - start)

        await client(rng.integers(0, N_NODES, 8))  # warm-up
        latencies.clear()
        plans = [rng.integers(0, N_NODES, requests) for _ in range(READ_CLIENTS)]
        start = time.perf_counter()
        await asyncio.gather(*[client(plan) for plan in plans])
        elapsed = time.perf_counter() - start
        return {
            "path": "inline" if executor is None else f"executor x{executor_workers}",
            "qps": len(latencies) / elapsed,
            "p50_ms": float(np.percentile(latencies, 50) * 1e3),
            "p99_ms": float(np.percentile(latencies, 99) * 1e3),
        }
    finally:
        if executor is not None:
            executor.shutdown(wait=True)


# --------------------------------------------------------------------------- #
# Part 2: HTTP end-to-end — minimal keep-alive client
# --------------------------------------------------------------------------- #
async def _request(reader, writer, method: str, path: str, payload=None):
    """One JSON request/response exchange (slow path: used off the hot loop)."""
    body = json.dumps(payload).encode() if payload is not None else b""
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        + body
    )
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    marker = head.index(b"Content-Length: ") + 16
    length = int(head[marker : head.index(b"\r", marker)])
    data = await reader.readexactly(length)
    return status, json.loads(data)


def _predict_bytes(node: int) -> bytes:
    body = json.dumps({"node": int(node)}).encode()
    return (
        f"POST /predict HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


async def _client_loop(port: int, node_ids: np.ndarray, latencies: list) -> None:
    """Closed-loop HTTP client: pre-encoded requests, minimal response parsing.

    The load generator shares the server's process (and GIL), so client-side
    CPU directly eats server throughput; the hot loop therefore skips JSON
    decoding and reads each response head in a single ``readuntil``.
    """
    requests = [_predict_bytes(node) for node in node_ids]
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        for raw in requests:
            start = time.perf_counter()
            writer.write(raw)
            head = await reader.readuntil(b"\r\n\r\n")
            marker = head.index(b"Content-Length: ") + 16
            length = int(head[marker : head.index(b"\r", marker)])
            body = await reader.readexactly(length)
            latencies.append(time.perf_counter() - start)
            if not head.startswith(b"HTTP/1.1 200"):
                raise AssertionError(f"predict failed: {head!r} {body!r}")
    finally:
        writer.close()


async def _run_http_load(bundle: Path) -> tuple[dict, str]:
    """One closed-loop HTTP read measurement plus a ``/metrics`` scrape."""
    server = ServingServer(
        FrozenModel.load(bundle), ServerConfig(port=0, max_queue_depth=4096)
    )
    await server.start()
    try:
        port = server.port
        rng = np.random.default_rng(1)
        warm: list = []
        await _client_loop(port, rng.integers(0, N_NODES, 8), warm)

        latencies: list[float] = []
        plans = [
            rng.integers(0, N_NODES, HTTP_REQUESTS) for _ in range(HTTP_CLIENTS)
        ]
        start = time.perf_counter()
        await asyncio.gather(
            *[_client_loop(port, plan, latencies) for plan in plans]
        )
        elapsed = time.perf_counter() - start
        # One real scrape while the counters are hot: CI archives it next to
        # the result tables.
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(
                b"GET /metrics HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n"
            )
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            marker = head.index(b"Content-Length: ") + 16
            length = int(head[marker : head.index(b"\r", marker)])
            scrape = (await reader.readexactly(length)).decode("utf-8")
        finally:
            writer.close()
        return {
            "qps": len(latencies) / elapsed,
            "p50_ms": float(np.percentile(latencies, 50) * 1e3),
            "p99_ms": float(np.percentile(latencies, 99) * 1e3),
        }, scrape
    finally:
        await server.shutdown()


async def _check_bit_identity(bundle: Path) -> int:
    """Server responses must match a direct session bit-for-bit."""
    local = InferenceSession(FrozenModel.load(bundle))
    server = ServingServer(
        FrozenModel.load(bundle), ServerConfig(port=0)
    )
    await server.start()
    checked = 0
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        rng = np.random.default_rng(3)
        for _ in range(12 if QUICK else 40):
            nodes = rng.integers(0, N_NODES, rng.integers(1, 6)).tolist()
            for output in ("labels", "logits"):
                _, payload = await _request(
                    reader, writer, "POST", "/predict",
                    {"nodes": nodes, "output": output},
                )
                expected = local.predict(nodes, output=output)
                got = np.asarray(payload["result"], dtype=expected.dtype)
                assert np.array_equal(got, expected), (
                    f"server diverged from direct session on {nodes} ({output})"
                )
                checked += 1
        writer.close()
    finally:
        await server.shutdown()
    return checked


async def _check_write_path(bundle: Path) -> dict:
    """Reads keep succeeding while the single writer inserts and republishes."""
    dataset = _dataset()
    server = ServingServer(
        FrozenModel.load(bundle), ServerConfig(port=0)
    )
    await server.start()
    try:
        port = server.port
        rng = np.random.default_rng(11)

        async def writes():
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            inserted = 0
            for _ in range(3 if QUICK else 6):
                rows = dataset.features[rng.choice(N_NODES, 2, replace=False)]
                rows = rows + rng.normal(scale=0.05, size=rows.shape)
                status, payload = await _request(
                    reader, writer, "POST", "/insert", {"features": rows.tolist()}
                )
                assert status == 200, payload
                inserted += len(payload["ids"])
            writer.close()
            return inserted

        reads: list[float] = []
        read_tasks = [
            _client_loop(port, rng.integers(0, N_NODES, 30), reads)
            for _ in range(4)
        ]
        inserted, *_ = await asyncio.gather(writes(), *read_tasks)
        return {
            "inserted": inserted,
            "reads": len(reads),
            "generation": server.pool.generation,
        }
    finally:
        await server.shutdown()


# --------------------------------------------------------------------------- #
# Part 3: instrumentation overhead — live registry vs disabled (asserted)
# --------------------------------------------------------------------------- #
def _measure_overhead(bundle: Path) -> list[dict]:
    """Best-of-N interleaved inline read runs with metrics on vs off.

    Every instrument the serving stack creates is registered in whichever
    registry is process-default at construction time, so swapping in a
    disabled registry around the run turns the whole instrumentation layer
    into no-ops — the exact hot path a build without observability would
    execute.  Each (on, off) pair runs back-to-back so scheduler drift hits
    both sides alike.  Container noise is one-sided — a contended run can
    only come out *slower* than the code allows — so the asserted statistic
    is the **best** (max) per-pair QPS ratio: the cleanest pair observed
    bounds the true overhead from above, and a genuine regression drags
    every pair down, the best one included.
    """
    rows = []
    for trial in range(OVERHEAD_TRIALS):
        for label, enabled in (("on", True), ("off", False)):
            with use_registry(MetricsRegistry(enabled=enabled)):
                row = asyncio.run(
                    _run_read_load(
                        bundle, executor_workers=None, requests=OVERHEAD_REQUESTS
                    )
                )
            rows.append({"metrics": label, "trial": trial, **row})
    return rows


# --------------------------------------------------------------------------- #
# Part 4: WAL on/off write throughput (asserted)
# --------------------------------------------------------------------------- #
def _measure_write_throughput(
    bundle: Path,
    tmp_dir: Path,
    *,
    label: str,
    wal: bool,
    fsync: bool = True,
    checkpoint: bool = False,
) -> dict:
    """Single-writer update loop; journalling rides the critical section.

    With ``checkpoint`` every publish also writes a checkpoint bundle, the
    ``repro serve --wal --checkpoint`` write path.
    """
    wal_path = tmp_dir / f"bench_{label}.wal" if wal else None
    checkpoint_path = tmp_dir / f"bench_{label}.npz" if checkpoint else None
    pool = SessionPool(
        FrozenModel.load(bundle),
        wal_path=wal_path,
        wal_fsync=fsync,
        checkpoint_path=checkpoint_path,
    )
    rng = np.random.default_rng(17)
    n_cols = pool.writer.features.shape[1]
    pool.update([0, 1], rng.normal(size=(2, n_cols)))  # warm-up
    start = time.perf_counter()
    cpu_start = time.process_time()
    for _ in range(WAL_WRITE_OPS):
        nodes = rng.choice(N_NODES, 2, replace=False)
        pool.update(
            sorted(int(node) for node in nodes), rng.normal(size=(2, n_cols))
        )
    cpu = time.process_time() - cpu_start
    elapsed = time.perf_counter() - start
    checkpoint_bytes = pool.checkpoint_bytes
    result = {
        "wal": label,
        "writes_per_s": WAL_WRITE_OPS / elapsed,
        "mean_ms": elapsed / WAL_WRITE_OPS * 1e3,
        "cpu_ms_per_write": cpu / WAL_WRITE_OPS * 1e3,
        "checkpoint_mb": (
            checkpoint_bytes / 2**20 if checkpoint_bytes is not None else None
        ),
        "wal_depth": pool.wal.depth if pool.wal is not None else 0,
    }
    pool.close()
    return result


def main() -> None:
    mode = "quick" if QUICK else "full"
    print(f"serving benchmark ({mode} mode): n={N_NODES}")

    with tempfile.TemporaryDirectory() as tmp:
        bundle = _export_bundle(Path(tmp))

        # -- Part 1: asserted read path ------------------------------------ #
        read_rows = [
            asyncio.run(_run_read_load(bundle, executor_workers=EXECUTOR_WORKERS)),
            asyncio.run(_run_read_load(bundle, executor_workers=None)),
        ]
        read_table = ResultTable(
            ["read path", "QPS", "p50 (ms)", "p99 (ms)"],
            title=f"Snapshot reads: inline vs per-request executor dispatch "
                  f"({READ_CLIENTS} concurrent clients)",
        )
        for row in read_rows:
            read_table.add_row(
                [row["path"], round(row["qps"], 1), round(row["p50_ms"], 3),
                 round(row["p99_ms"], 3)]
            )
        emit(read_table, "bench_serving_reads",
             extra={"mode": mode, "rows": read_rows})

        # -- Part 2: HTTP end-to-end --------------------------------------- #
        http_row, scrape = asyncio.run(_run_http_load(bundle))
        http_table = ResultTable(
            ["QPS", "p50 (ms)", "p99 (ms)"],
            title=f"HTTP end-to-end reads ({HTTP_CLIENTS} keep-alive clients)",
        )
        http_table.add_row(
            [round(http_row["qps"], 1), round(http_row["p50_ms"], 3),
             round(http_row["p99_ms"], 3)]
        )
        emit(http_table, "bench_serving_http", extra={"mode": mode, "row": http_row})
        scrape_path = RESULTS_DIR / "bench_serving_metrics_scrape.txt"
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        scrape_path.write_text(scrape)
        print(f"saved a /metrics scrape ({len(scrape.splitlines())} lines) "
              f"to {scrape_path}")

        # -- Part 3: instrumentation overhead ------------------------------ #
        overhead_rows = _measure_overhead(bundle)
        overhead_table = ResultTable(
            ["metrics", "trial", "QPS", "p50 (ms)", "p99 (ms)"],
            title=f"Instrumentation overhead: registry on vs off "
                  f"({READ_CLIENTS} clients, inline reads, best of {OVERHEAD_TRIALS})",
        )
        for row in overhead_rows:
            overhead_table.add_row(
                [row["metrics"], row["trial"], round(row["qps"], 1),
                 round(row["p50_ms"], 3), round(row["p99_ms"], 3)]
            )
        emit(overhead_table, "bench_serving_overhead",
             extra={"mode": mode, "rows": overhead_rows,
                    "qps_tolerance": OVERHEAD_QPS_TOLERANCE})

        # -- Part 4: WAL on/off write throughput --------------------------- #
        wal_rows = [
            _measure_write_throughput(bundle, Path(tmp), label="off", wal=False),
            _measure_write_throughput(bundle, Path(tmp), label="on", wal=True),
            _measure_write_throughput(
                bundle, Path(tmp), label="on-nofsync", wal=True, fsync=False
            ),
            # Report-only: the checkpoint's cost, which the gate never sees.
            _measure_write_throughput(
                bundle, Path(tmp), label="on+checkpoint", wal=True, checkpoint=True
            ),
        ]
        wal_table = ResultTable(
            ["WAL", "writes/s", "mean write (ms)", "CPU ms/write", "checkpoint (MB)"],
            title=f"Write throughput: WAL off vs fsync'd journalling "
                  f"({WAL_WRITE_OPS} single-writer updates)",
        )
        for row in wal_rows:
            wal_table.add_row(
                [row["wal"], round(row["writes_per_s"], 1), round(row["mean_ms"], 3),
                 round(row["cpu_ms_per_write"], 3),
                 "-" if row["checkpoint_mb"] is None else round(row["checkpoint_mb"], 3)]
            )
        emit(wal_table, "bench_serving_wal",
             extra={"mode": mode, "rows": wal_rows,
                    "slowdown_ceiling": WAL_SLOWDOWN_CEILING})

        checked = asyncio.run(_check_bit_identity(bundle))
        print(f"bit-identity: {checked} sampled responses match the direct session")

        mixed = asyncio.run(_check_write_path(bundle))
        print(f"write path: {mixed['inserted']} nodes inserted across "
              f"{mixed['generation'] - 1} republishes while {mixed['reads']} "
              f"concurrent reads succeeded")

    executor_row, inline_row = read_rows
    speedup = inline_row["qps"] / executor_row["qps"]
    assert speedup >= QPS_SPEEDUP_BAR, (
        f"inline snapshot reads only reached {speedup:.2f}x the QPS of "
        f"per-request executor dispatch (bar: {QPS_SPEEDUP_BAR}x; "
        f"{inline_row['qps']:.0f} vs {executor_row['qps']:.0f} QPS)"
    )
    assert inline_row["p99_ms"] <= executor_row["p99_ms"], (
        f"inline snapshot read p99 {inline_row['p99_ms']:.3f} ms is above the "
        f"executor path's {executor_row['p99_ms']:.3f} ms"
    )
    wal_slowdown = wal_rows[0]["writes_per_s"] / wal_rows[1]["writes_per_s"]
    assert wal_slowdown <= WAL_SLOWDOWN_CEILING, (
        f"fsync'd journalling costs {wal_slowdown:.2f}x write throughput "
        f"(stated ceiling: {WAL_SLOWDOWN_CEILING}x; "
        f"{wal_rows[1]['writes_per_s']:.1f} vs {wal_rows[0]['writes_per_s']:.1f} "
        f"writes/s)"
    )
    qps_on = [r["qps"] for r in overhead_rows if r["metrics"] == "on"]
    qps_off = [r["qps"] for r in overhead_rows if r["metrics"] == "off"]
    pair_ratios = [on / off for on, off in zip(qps_on, qps_off)]
    # Scheduler contention only ever slows a run down, so the cleanest
    # interleaved pair — the max ratio — upper-bounds the true overhead.
    overhead = 1.0 - max(pair_ratios)
    assert overhead <= OVERHEAD_QPS_TOLERANCE, (
        f"instrumentation costs {overhead * 100:.1f}% QPS "
        f"(bar: {OVERHEAD_QPS_TOLERANCE * 100:.0f}%; best of "
        f"{len(pair_ratios)} paired trials, ratios "
        f"{[round(r, 3) for r in pair_ratios]})"
    )
    print(
        f"OK: inline snapshot reads reach {speedup:.2f}x the QPS of "
        f"per-request executor dispatch (bar {QPS_SPEEDUP_BAR}x) with p99 "
        f"{inline_row['p99_ms']:.3f} vs {executor_row['p99_ms']:.3f} ms; "
        f"{http_row['qps']:.0f} QPS over HTTP, responses bit-identical; "
        f"fsync'd WAL costs {wal_slowdown:.2f}x write throughput "
        f"(ceiling {WAL_SLOWDOWN_CEILING}x); instrumentation costs "
        f"{max(overhead, 0.0) * 100:.1f}% QPS "
        f"(bar {OVERHEAD_QPS_TOLERANCE * 100:.0f}%)"
    )


if __name__ == "__main__":
    main()
