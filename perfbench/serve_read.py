"""``serve-read``: open-loop reads against ``repro serve`` on a DHGCN bundle.

Phases of one run:

1. export a DHGCN bundle (incremental backend, float64) trained from the
   seed: a read only slices cached arrays, so the model barely moves read
   cost, and the seed also varies the served accuracy;
2. set-up: start the server five times, time spawn → first ``/healthz``
   200 and read its resident memory each time, keep the last;
3. fixed rate: Poisson reads at ``FIXED_RATE`` for half the run; the
   single-node ``labels`` reads give the main latency figures, the heavier
   reads (multi-node ``logits``, whole set) the background ones;
4. capacity: for the other half, Poisson reads at a rate that grows
   exponentially until the server saturates; the capacity is the highest
   offered rate that met the p99 limit without a growing backlog;
5. crash: SIGKILL and restart five times, timing spawn → first correct read;
6. check every response against a direct ``InferenceSession`` on the same
   bundle, bit for bit.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time

import numpy as np

from common import (
    SERVER_START_TIMEOUT_S,
    BenchError,
    RssSampler,
    ServerProcess,
    export_bundle,
    median,
    quantile,
    request_json,
    resident_mb,
    wait_healthy,
)
from layers import load_spans, serving_layers
from loadgen import (
    PhaseLog,
    Read,
    decode_result,
    open_loop,
    ramp_schedule,
    read_schedule,
    zipf_popularity,
)
from report import Run

N_NODES = 2000
EXPORT_EPOCHS = 20
#: Offered rate of the fixed-rate phase (about a quarter of capacity here).
FIXED_RATE = 200.0
CONNECTIONS = 2
#: Capacity: reads whose rate grows from ``FIXED_RATE`` by ``RAMP_GROWTH``
#: per second.  Each ``WINDOW_S`` window of the ramp passes when its p99
#: (from due time) is within ``P99_LIMIT_MS`` and every read succeeded; the
#: capacity is where the p99 crosses the limit for good, interpolated
#: between the last passing window and the next.  A window that fails and
#: is followed by a passing one (a collection pause, say) does not end the
#: search, and every window after the capacity fails because the backlog
#: grows.  The ramp stops once a read is answered ``SATURATED_MS`` late.
P99_LIMIT_MS = 40.0
RAMP_GROWTH = 1.3
WINDOW_S = 0.5
SATURATED_MS = 400.0
SETUP_SPAWNS = 5
CRASHES = 5


def capacity_from_ramp(log: PhaseLog, *, start_rate: float, growth: float) -> float:
    """The offered rate at which the ramp's windowed p99 crosses the limit."""
    windows: dict[int, list] = {}
    for outcome in log.outcomes:
        windows.setdefault(int((outcome.due - log.started) / WINDOW_S), []).append(outcome)
    points = []   # (offered rate, p99 in ms, passed)
    for index in sorted(windows):
        members = windows[index]
        p99 = quantile([o.latency * 1e3 for o in members], 0.99)
        ok = p99 <= P99_LIMIT_MS and all(o.status == 200 for o in members)
        points.append((start_rate * growth ** ((index + 0.5) * WINDOW_S), p99, ok))
    last_pass = max((i for i, point in enumerate(points) if point[2]), default=None)
    if last_pass is None:
        return 0.0
    if last_pass == len(points) - 1:
        return points[-1][0]
    (low_rate, low_p99, _), (high_rate, high_p99, _) = points[last_pass], points[last_pass + 1]
    share = (P99_LIMIT_MS - low_p99) / max(high_p99 - low_p99, 1e-9)
    return low_rate + (high_rate - low_rate) * min(max(share, 0.0), 1.0)


def first_read(server: ServerProcess, node: int, expected) -> tuple[float, bool]:
    """Seconds from spawn until the first answered read of ``node``, and
    whether that answer was ``expected``."""
    port = server.wait_listening()
    deadline = server.spawned + SERVER_START_TIMEOUT_S
    while time.monotonic() < deadline:
        try:
            status, body = asyncio.run(
                request_json(port, "POST", "/predict", {"node": node, "output": "labels"})
            )
        except (ConnectionError, OSError):
            status, body = 0, {}
        if status == 200:
            return time.monotonic() - server.spawned, body["result"] == expected
        time.sleep(0.002)
    raise BenchError(f"no read of node {node} answered within {SERVER_START_TIMEOUT_S}s")


def check_outcome(outcome, labels: np.ndarray, logits: np.ndarray) -> bool:
    """A read is correct when it equals the direct session, bit for bit."""
    result = decode_result(outcome)
    if result is None:
        return False
    if outcome.kind == "label":
        return result == int(labels[outcome.nodes])
    if outcome.kind == "logits":
        got = np.asarray(result, dtype=np.float64)
        want = logits[np.asarray(outcome.nodes)]
        return got.shape == want.shape and got.tobytes() == want.tobytes()
    return result == labels.tolist()


def run(seed: int, seconds: float, work, *, traced: bool, spans_path=None) -> Run:
    # Every server started is killed on the way out, whatever happens.
    with contextlib.ExitStack() as cleanup:
        return _measure(seed, seconds, work, traced, spans_path, cleanup)


def _measure(seed, seconds, work, traced, spans_path, cleanup) -> Run:
    from repro import get_dataset
    from repro.serving import FrozenModel, InferenceSession

    result = Run("serve-read")
    bundle = work / "bundle.npz"
    export_bundle(bundle, n_nodes=N_NODES, seed=seed, epochs=EXPORT_EPOCHS)
    session = InferenceSession(FrozenModel.load(bundle))
    labels = session.predict(None, output="labels")
    logits = session.predict(None, output="logits")
    dataset = get_dataset("cora-cocitation", seed=seed, n_nodes=N_NODES)

    def spawn() -> ServerProcess:
        server = ServerProcess(bundle, traced=traced, spans_path=spans_path)
        cleanup.callback(server.kill)
        return server

    setups, ready_rss = [], []
    server = None
    for attempt in range(SETUP_SPAWNS):
        if server is not None:
            server.kill()
        server = spawn()
        setups.append(wait_healthy(server))
        ready_rss.append(resident_mb(server.proc.pid))
    rng = np.random.default_rng(seed)
    ids, probabilities = zipf_popularity(rng, N_NODES)
    memory = RssSampler(server.proc.pid)
    fixed = PhaseLog("fixed")
    reads = read_schedule(
        rng, rate=FIXED_RATE, duration=seconds / 2.0, ids=ids, probabilities=probabilities
    )
    asyncio.run(open_loop(server.port, reads, connections=CONNECTIONS, log=fixed))
    ramp = PhaseLog("capacity")
    reads = ramp_schedule(rng, start_rate=FIXED_RATE, growth=RAMP_GROWTH,
                          duration=seconds / 2.0, ids=ids, probabilities=probabilities)
    asyncio.run(open_loop(server.port, reads, connections=CONNECTIONS, log=ramp,
                          stop_after_ms=SATURATED_MS))
    capacity = capacity_from_ramp(ramp, start_rate=FIXED_RATE, growth=RAMP_GROWTH)
    final = PhaseLog("final")
    whole = Read(0.0, "all", None, json.dumps({"nodes": None, "output": "labels"}).encode())
    asyncio.run(open_loop(server.port, [whole], connections=1, log=final))
    _, stats = asyncio.run(request_json(server.port, "GET", "/stats"))
    rss, peak = memory.stop()
    server.dump_spans()
    server.kill()

    recoveries = []
    probe = int(ids[0])
    for _ in range(CRASHES):
        restarted = spawn()
        seconds_to_read, correct = first_read(restarted, probe, int(labels[probe]))
        recoveries.append(seconds_to_read)
        result.check(correct, "recover", f"first read of node {probe} after restart is wrong")
        restarted.kill()

    phases = [fixed, ramp, final]
    for log in phases:
        result.attempt(log.name, log.sent)
        for outcome in log.outcomes:
            if not check_outcome(outcome, labels, logits):
                result.fail(log.name, f"{outcome.kind} read of {outcome.nodes}: "
                                      f"status {outcome.status}")

    latencies = [o.latency * 1e3 for o in fixed.outcomes if o.kind == "label"]
    heavy = [o.latency * 1e3 for o in fixed.outcomes if o.kind != "label"]
    served = np.asarray(decode_result(final.outcomes[0]) or [-1] * N_NODES)
    test = dataset.split.test
    result.metrics.update(
        setup_s=median(setups),
        rss_mb=median(ready_rss),
        p50_ms=median(latencies),
        tail_ms=quantile(latencies, 0.99),
        rate_per_s=capacity,
        recover_s=median(recoveries),
        test_acc=float(np.mean(served[test] == dataset.labels[test])),
    )
    result.aliases.update(
        read_p50_ms=result.metrics["p50_ms"],
        read_p99_ms=result.metrics["tail_ms"],
        read_capacity_rps=capacity,
        heavy_read_p50_ms=median(heavy),
        heavy_read_p90_ms=quantile(heavy, 0.90),
        run_rss_mb=rss,
        peak_rss_mb=peak,
    )
    result.loadgen_phases = phases
    result.samples.update(fixed=len(latencies), heavy=len(heavy), ramp_reads=ramp.sent)
    result.server_stats = stats
    if traced:
        result.per_layer = serving_layers(result, load_spans(spans_path))
    return result
