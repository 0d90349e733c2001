"""``serve-write``: durable serving with a single writer beside open-loop reads.

Phases of one run:

1. export a smaller DHGCN bundle (incremental backend, float64);
2. set-up: start ``repro serve --wal --checkpoint`` five times in fresh
   directories, time spawn → first ``/healthz`` 200 and read the resident
   memory each time, keep the last;
3. churn: one connection is a closed-loop writer (mostly ``/update`` of 1–5
   nodes, some ``/insert`` of 1–4 rows, now and then ``/delete`` of tail
   nodes followed by ``/compact``); the other sends open-loop Poisson reads
   at ``READ_RATE`` over the id range writes never delete from;
4. tail: a ``/delete`` and a few ``/update``s, so the journal holds records
   the last checkpoint does not cover; then the whole state is read;
5. crash: SIGKILL, restart from checkpoint + WAL, time spawn → first correct
   read, compare the whole state with the one before the kill; five times;
6. replay the same mutation list on a direct ``InferenceSession`` and check
   the final logits and every read (against the generation it reports).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time

import numpy as np

from common import (
    HttpConnection,
    RssSampler,
    ServerProcess,
    cpu_seconds,
    export_bundle,
    median,
    quantile,
    request_json,
    resident_mb,
    wait_healthy,
)
from layers import load_spans, serving_layers
from loadgen import Outcome, PhaseLog, decode_result, open_loop, read_schedule, zipf_popularity
from report import Run
from serve_read import first_read

N_NODES = 1000
EXPORT_EPOCHS = 20
#: The served model is the same in every run and ``--seed`` draws only the
#: traffic: checkpoint size and refresh work depend on the model, and with a
#: model per seed they would add the model's spread to the write path's.
BUNDLE_SEED = 0
#: Ids below ``READ_SHARE * N_NODES`` are read and never deleted, so no read
#: can hit a tombstone and compaction never renumbers them.
READ_SHARE = 0.8
READ_RATE = 150.0
#: The writer's ops come in shuffled cycles of this mix, so every run has
#: the same proportions: ``update`` of 1–5 nodes, ``insert`` of 1–4 rows,
#: and ``delete`` of 1–3 tail nodes (always followed by ``compact``).
WRITE_CYCLE = ["update"] * 17 + ["insert"] * 2 + ["delete"]
TAIL_UPDATES = 4
SETUP_SPAWNS = 5
CRASHES = 5


class Writer:
    """The closed-loop single writer and the mutation list it sent."""

    def __init__(self, rng: np.random.Generator, features: np.ndarray, read_limit: int) -> None:
        self.rng = rng
        self.features = features.copy()
        self.read_limit = read_limit
        self.mutations: list[tuple[str, dict]] = []
        #: Tombstoned rows awaiting the next ``/compact``.
        self.deleted: list[int] = []
        self._cycle: list[str] = []
        self.log = PhaseLog("writes")

    def _blend(self, count: int) -> np.ndarray:
        """Rows drifting halfway towards other nodes' features."""
        n = self.features.shape[0]
        left = self.rng.integers(0, n, count)
        right = self.rng.integers(0, n, count)
        return 0.5 * self.features[left] + 0.5 * self.features[right]

    def update(self, count: int, *, limit: int | None = None) -> tuple[str, dict]:
        pool = limit or self.features.shape[0]
        nodes = np.sort(self.rng.choice(pool, size=count, replace=False))
        return "/update", {"nodes": nodes.tolist(), "features": self._blend(count).tolist()}

    def insert(self, count: int) -> tuple[str, dict]:
        return "/insert", {"features": self._blend(count).tolist()}

    def delete(self, count: int) -> tuple[str, dict]:
        tail = np.arange(self.read_limit, self.features.shape[0])
        nodes = np.sort(self.rng.choice(tail, size=min(count, tail.size - 1), replace=False))
        return "/delete", {"nodes": nodes.tolist()}

    def next_writes(self) -> list[tuple[str, dict]]:
        if not self._cycle:
            self._cycle = [WRITE_CYCLE[i] for i in self.rng.permutation(len(WRITE_CYCLE))]
        op = self._cycle.pop()
        if op == "update":
            return [self.update(int(self.rng.integers(1, 6)))]
        if op == "insert":
            return [self.insert(int(self.rng.integers(1, 5)))]
        return [self.delete(int(self.rng.integers(1, 4))), ("/compact", {})]

    def applied(self, path: str, body: dict) -> None:
        """Mirror an acknowledged write into the writer's view of the rows."""
        op = path.lstrip("/")
        self.mutations.append((op, body))
        if op == "update":
            self.features[body["nodes"]] = np.asarray(body["features"])
        elif op == "insert":
            self.features = np.vstack([self.features, np.asarray(body["features"])])
        elif op == "delete":
            self.deleted = body["nodes"]
        elif op == "compact":
            keep = np.ones(self.features.shape[0], dtype=bool)
            keep[self.deleted] = False
            self.features = self.features[keep]
            self.deleted = []

    async def send(self, link: HttpConnection, writes, phase: PhaseLog) -> None:
        for path, body in writes:
            data = json.dumps(body).encode()
            sent = time.monotonic()
            status, payload = await link.request("POST", path, data)
            done = time.monotonic()
            phase.outcomes.append(Outcome(path, None, sent, sent, sent, done, status, payload))
            if status != 200:
                return
            self.applied(path, body)

    async def churn(self, port: int, seconds: float) -> None:
        link = HttpConnection(port)
        await link.open()
        self.log.started = time.monotonic()
        deadline = self.log.started + seconds
        try:
            while time.monotonic() < deadline:
                await self.send(link, self.next_writes(), self.log)
        finally:
            self.log.ended = time.monotonic()
            await link.close()


def _snapshot(session) -> dict:
    return {
        "alive": session.alive_ids,
        "labels": session.predict(None, output="labels"),
        "logits": session.predict(None, output="logits"),
    }


def replay(bundle, mutations) -> list[dict]:
    """States of a direct session after each mutation, by server generation.

    The server publishes generation 1 at start-up and one more per applied
    write, so ``states[g]`` is the state a read reporting generation ``g``
    may have seen.
    """
    from repro.serving import FrozenModel, InferenceSession

    session = InferenceSession(FrozenModel.load(bundle))
    states = [None, _snapshot(session)]
    for op, body in mutations:
        if op == "update":
            session.update_features(body["nodes"], np.asarray(body["features"], dtype=np.float64))
        elif op == "insert":
            session.insert_nodes(np.asarray(body["features"], dtype=np.float64))
        elif op == "delete":
            session.delete_nodes(body["nodes"])
        elif op == "compact":
            session.compact()
        states.append(_snapshot(session))
    return states


def _read_matches(outcome: Outcome, state: dict) -> bool:
    result = decode_result(outcome)
    if outcome.kind == "all":
        return result == state["labels"].tolist()
    rows = np.searchsorted(state["alive"], np.atleast_1d(outcome.nodes))
    if outcome.kind == "label":
        return result == int(state["labels"][rows[0]])
    got = np.asarray(result, dtype=np.float64)
    want = state["logits"][rows]
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def check_read(outcome: Outcome, states: list[dict]) -> bool:
    """A read matches the generation it reports, or one a publish that
    finished while it was in flight superseded (the server stamps the
    generation current when it answers)."""
    if outcome.status != 200:
        return False
    generation = json.loads(outcome.payload)["generation"]
    return any(
        _read_matches(outcome, states[g])
        for g in range(max(1, generation - 2), min(generation, len(states) - 1) + 1)
    )


async def _whole_state(port: int) -> dict:
    _, logits = await request_json(port, "POST", "/predict", {"nodes": None, "output": "logits"})
    _, labels = await request_json(port, "POST", "/predict", {"nodes": None, "output": "labels"})
    return {
        "logits": np.asarray(logits["result"], dtype=np.float64),
        "labels": np.asarray(labels["result"]),
    }


def run(seed: int, seconds: float, work, *, traced: bool, spans_path=None) -> Run:
    # Every server started is killed on the way out, whatever happens.
    with contextlib.ExitStack() as cleanup:
        return _measure(seed, seconds, work, traced, spans_path, cleanup)


def _measure(seed, seconds, work, traced, spans_path, cleanup) -> Run:
    from repro import get_dataset

    result = Run("serve-write")
    bundle = work / "bundle.npz"
    export_bundle(bundle, n_nodes=N_NODES, seed=BUNDLE_SEED, epochs=EXPORT_EPOCHS)
    dataset = get_dataset("cora-cocitation", seed=BUNDLE_SEED, n_nodes=N_NODES)
    read_limit = int(READ_SHARE * N_NODES)

    recover_spans = spans_path.with_name("spans-recover.json")

    def spawn(directory, spans=spans_path) -> ServerProcess:
        directory.mkdir(parents=True, exist_ok=True)
        args = ["--wal", str(directory / "journal.wal"),
                "--checkpoint", str(directory / "checkpoint.npz")]
        server = ServerProcess(bundle, extra_args=args, traced=traced, spans_path=spans)
        cleanup.callback(server.kill)
        return server

    setups, ready_rss = [], []
    server = None
    for attempt in range(SETUP_SPAWNS):
        if server is not None:
            server.kill()
        directory = work / f"server{attempt}"
        server = spawn(directory)
        setups.append(wait_healthy(server))
        ready_rss.append(resident_mb(server.proc.pid))

    rng = np.random.default_rng(seed)
    ids, probabilities = zipf_popularity(rng, read_limit)
    writer = Writer(rng, dataset.features, read_limit)
    reads = PhaseLog("reads")
    schedule = read_schedule(rng, rate=READ_RATE, duration=seconds, ids=ids,
                             probabilities=probabilities)
    memory = RssSampler(server.proc.pid)

    async def churn() -> None:
        await asyncio.gather(
            open_loop(server.port, schedule, connections=1, log=reads),
            writer.churn(server.port, seconds),
        )

    cpu_before = cpu_seconds(server.proc.pid)
    asyncio.run(churn())
    churn_cpu = cpu_seconds(server.proc.pid) - cpu_before
    tail = PhaseLog("tail")

    async def finish() -> dict:
        link = HttpConnection(server.port)
        await link.open()
        try:
            await writer.send(link, [writer.delete(2)], tail)
            for _ in range(TAIL_UPDATES):
                await writer.send(link, [writer.update(3, limit=read_limit)], tail)
        finally:
            await link.close()
        return await _whole_state(server.port)

    before_kill = asyncio.run(finish())
    _, stats = asyncio.run(request_json(server.port, "GET", "/stats"))
    rss, peak = memory.stop()
    server.dump_spans()
    server.kill()

    recoveries, replayed = [], []
    probe = int(ids[0])
    for attempt in range(CRASHES):
        restarted = spawn(directory, recover_spans)
        seconds_to_read, correct = first_read(restarted, probe, int(before_kill["labels"][probe]))
        recoveries.append(seconds_to_read)
        after = asyncio.run(_whole_state(restarted.port))
        _, health = asyncio.run(request_json(restarted.port, "GET", "/stats"))
        replayed.append(health["recovered"])
        if attempt == CRASHES - 1:
            restarted.dump_spans()
        restarted.kill()
        result.check(
            correct
            and after["logits"].tobytes() == before_kill["logits"].tobytes()
            and np.array_equal(after["labels"], before_kill["labels"]),
            "recover", "state after restart differs from the state before the kill",
        )

    states = replay(bundle, writer.mutations)
    final = states[-1]
    result.check(
        final["logits"].tobytes() == before_kill["logits"].tobytes(),
        "replay", "final logits differ from a direct session replaying the mutations",
    )
    for log in (writer.log, tail):
        result.attempt(log.name, log.sent)
        for outcome in log.outcomes:
            if outcome.status != 200:
                result.fail(log.name, f"{outcome.kind} answered {outcome.status}")
    result.attempt(reads.name, reads.sent)
    for outcome in reads.outcomes:
        if not check_read(outcome, states):
            result.fail(reads.name, f"{outcome.kind} read of {outcome.nodes}: "
                                    f"status {outcome.status}")

    writes = [o.service * 1e3 for o in writer.log.outcomes]
    read_ms = [o.latency * 1e3 for o in reads.outcomes]
    test = dataset.split.test
    test = test[test < read_limit]
    result.metrics.update(
        setup_s=median(setups),
        rss_mb=median(ready_rss),
        p50_ms=median(read_ms),
        tail_ms=quantile(read_ms, 0.90),
        rate_per_s=writer.log.sent / churn_cpu,
        recover_s=median(recoveries),
        test_acc=float(np.mean(before_kill["labels"][test] == dataset.labels[test])),
    )
    result.aliases.update(
        write_p50_ms=median(writes),
        write_p90_ms=quantile(writes, 0.90),
        writes_per_s=writer.log.sent / (writer.log.ended - writer.log.started),
        read_p50_ms=result.metrics["p50_ms"],
        read_p90_ms=result.metrics["tail_ms"],
        read_p99_ms=quantile(read_ms, 0.99),
        recover_s=result.metrics["recover_s"],
        wal_replayed=float(median(replayed)),
        run_rss_mb=rss,
        peak_rss_mb=peak,
    )
    result.loadgen_phases = [reads]
    result.samples.update(writes=len(writes), reads=len(read_ms), replayed=replayed)
    result.server_stats = stats
    if traced:
        result.per_layer = serving_layers(
            result, load_spans(spans_path, recover_spans), replayed=median(replayed)
        )
    return result
