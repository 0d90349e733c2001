"""Tests of the asyncio serving front-end (``repro.serving.server``).

The load-bearing guarantees pinned here:

* :meth:`InferenceSession.fork` copies are **bit-identical** to their
  parent and fully isolated from it (and from each other) afterwards;
* a :class:`SessionPool`'s published :class:`ReadSnapshot` is bit-identical
  to a fresh ``to_frozen()`` session of its generation — before and after a
  publish while the writer mutates, including when readers slice it
  concurrently with the writer on worker threads — and a snapshot held
  across ``update_features``/``delete_nodes``/``compact`` never changes;
* the :class:`MicroBatcher` read path maps per-request validation errors
  to the one offending submitter and sheds load
  (:class:`ServerOverloadedError`) once ``max_queue_depth`` admitted
  requests are unanswered;
* the HTTP front-end: every route round-trips JSON, responses are
  bit-identical to a direct session on the same bundle, a read reports the
  generation of the snapshot that answered it, writes are read-your-writes
  (a client sees its own insert immediately), draining returns 503, bad
  requests map to 400 without failing concurrent ones, a failing read
  answers a structured 500, and oversized bodies get 413 unread;
* ``repro.cli serve`` boots a real server process that answers HTTP.

No pytest-asyncio here: each async scenario runs under ``asyncio.run``
inside a plain sync test.
"""

import asyncio
import json
import os
import re
import socket
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro import (
    DHGNN,
    FrozenModel,
    InferenceSession,
    TrainConfig,
    Trainer,
    reset_default_engine,
)
from repro.errors import ConfigurationError
from repro.serving import ReadSnapshot
from repro.serving.server import (
    MAX_BODY_BYTES,
    MicroBatcher,
    ServerConfig,
    ServerOverloadedError,
    ServingServer,
    SessionPool,
    WRITER_NICE,
)


@pytest.fixture(scope="module")
def bundle_path(tiny_citation_dataset, tmp_path_factory):
    """One trained DHGNN bundle shared by every test in this module."""
    reset_default_engine()
    dataset = tiny_citation_dataset
    model = DHGNN(dataset.n_features, dataset.n_classes, hidden_dim=8, seed=0)
    trainer = Trainer(
        model,
        dataset,
        TrainConfig(epochs=4, patience=None, neighbor_backend="incremental"),
    )
    trainer.train()
    path = tmp_path_factory.mktemp("serving_server") / "bundle.npz"
    trainer.export_frozen(str(path))
    return path


def _thread_nice(tid):
    """Nice value of one thread of this process, from ``/proc``."""
    with open(f"/proc/{os.getpid()}/task/{tid}/stat") as handle:
        return int(handle.read().rsplit(")", 1)[1].split()[16])


def _new_rows(dataset, count, seed=5):
    rng = np.random.default_rng(seed)
    base = dataset.features[rng.choice(dataset.n_nodes, count, replace=False)]
    return base + rng.normal(scale=0.05, size=base.shape)


# --------------------------------------------------------------------------- #
# InferenceSession.fork
# --------------------------------------------------------------------------- #
class TestFork:
    def test_fork_is_bit_identical(self, bundle_path):
        parent = InferenceSession(FrozenModel.load(bundle_path))
        parent.predict()
        child = parent.fork()
        assert np.array_equal(
            child.predict(output="logits"), parent.predict(output="logits")
        )
        assert np.array_equal(
            child.predict([3, 7], output="embeddings"),
            parent.predict([3, 7], output="embeddings"),
        )

    def test_fork_inherits_cached_forward(self, bundle_path):
        parent = InferenceSession(FrozenModel.load(bundle_path))
        parent.predict()
        child = parent.fork(seed_cache=False)
        # The fork answers from the parent's cached forward: no refresh, no
        # forward of its own.
        assert np.array_equal(child.predict([0, 4]), parent.predict([0, 4]))
        assert child.forwards == 0 and child.refreshes == 0

    def test_fork_carries_mid_lifecycle_state(self, tiny_citation_dataset, bundle_path):
        dataset = tiny_citation_dataset
        parent = InferenceSession(FrozenModel.load(bundle_path))
        parent.insert_nodes(_new_rows(dataset, 3))
        parent.delete_nodes([1, 6])
        parent.predict()
        child = parent.fork()
        assert child.n_nodes == parent.n_nodes
        assert child.n_alive == parent.n_alive
        assert np.array_equal(
            child.predict(output="logits"), parent.predict(output="logits")
        )
        with pytest.raises(ConfigurationError, match="deleted"):
            child.predict([1])

    def test_fork_is_isolated_both_ways(self, tiny_citation_dataset, bundle_path):
        dataset = tiny_citation_dataset
        parent = InferenceSession(FrozenModel.load(bundle_path))
        parent.predict()
        baseline = parent.predict(output="logits").copy()
        child = parent.fork()
        # Child churns: parent's answers must not move.
        child.insert_nodes(_new_rows(dataset, 4, seed=8))
        child.delete_nodes([0])
        child.compact()
        child.predict()
        assert np.array_equal(parent.predict(output="logits"), baseline)
        assert parent.n_nodes == dataset.n_nodes
        # Parent churns: the (already churned) child must not move either.
        child_view = child.predict(output="logits").copy()
        parent.update_features([5], dataset.features[[5]] + 0.3)
        parent.predict()
        assert np.array_equal(child.predict(output="logits"), child_view)


# --------------------------------------------------------------------------- #
# SessionPool: published snapshot bit-identity
# --------------------------------------------------------------------------- #
def _logits(pool):
    return pool.acquire().answer(output="logits")


class TestSessionPool:
    def test_readers_match_frozen_snapshot_across_swap(
        self, tiny_citation_dataset, bundle_path
    ):
        # The published snapshot is bit-identical to a fresh to_frozen()
        # session of its generation, before and after a publish swap, while
        # the writer mutates in between.
        dataset = tiny_citation_dataset
        pool = SessionPool(FrozenModel.load(bundle_path))
        reference = InferenceSession(pool.writer.to_frozen()).predict(output="logits")
        old_snapshot = pool.acquire()
        assert np.array_equal(old_snapshot.answer(output="logits"), reference)

        pool.insert(_new_rows(dataset, 4))  # mutate + republish
        new_reference = InferenceSession(pool.writer.to_frozen()).predict(
            output="logits"
        )
        assert new_reference.shape[0] == reference.shape[0] + 4
        assert np.array_equal(_logits(pool), new_reference)
        assert pool.acquire().generation == old_snapshot.generation + 1
        # A reader still holding the pre-swap snapshot serves its own
        # complete generation.
        assert np.array_equal(old_snapshot.answer(output="logits"), reference)

    def test_readers_stay_identical_while_writer_mutates_concurrently(
        self, tiny_citation_dataset, bundle_path
    ):
        dataset = tiny_citation_dataset
        pool = SessionPool(FrozenModel.load(bundle_path))
        reference = InferenceSession(pool.writer.to_frozen()).predict(output="logits")
        held = pool.acquire()
        stop = False

        def churn():
            for round_index in range(4):
                pool.writer.insert_nodes(_new_rows(dataset, 2, seed=round_index))
                pool.writer.update_features(
                    [round_index], dataset.features[[round_index]] + 0.1
                )
                pool.publish()
            return pool.generation

        def read_loop():
            checks = 0
            while not stop:
                assert np.array_equal(held.answer(output="logits"), reference)
                checks += 1
            return checks

        with ThreadPoolExecutor(max_workers=4) as executor:
            futures = [executor.submit(read_loop) for _ in range(3)]
            generation = executor.submit(churn).result()
            stop = True
            for future in futures:
                assert future.result() > 0
        assert generation == 5  # initial publish + 4 republishes
        # The post-churn snapshot serves the post-churn state, bit-identically.
        final = InferenceSession(pool.writer.to_frozen()).predict(output="logits")
        assert np.array_equal(_logits(pool), final)
        assert pool.acquire().generation == 5

    def test_delete_and_compact_republish(self, bundle_path):
        pool = SessionPool(FrozenModel.load(bundle_path))
        n_before = pool.writer.n_nodes
        result = pool.delete([2, 9])
        assert result["n_alive"] == n_before - 2 and result["tombstones"] == 2
        snapshot = pool.acquire()
        with pytest.raises(ConfigurationError, match="deleted"):
            snapshot.answer([2])
        assert np.array_equal(
            snapshot.answer(output="labels"), pool.writer.predict(output="labels")
        )
        result = pool.compact()
        assert result["n_nodes"] == n_before - 2
        assert pool.acquire().alive.shape == (n_before - 2,)

    def test_checkpoints_published_generations(self, tmp_path, bundle_path):
        checkpoint = tmp_path / "checkpoint.npz"
        pool = SessionPool(FrozenModel.load(bundle_path), checkpoint_path=checkpoint)
        assert checkpoint.exists() and pool.checkpoints == 1
        reference = pool.writer.predict(output="logits")
        warm = InferenceSession(FrozenModel.load(checkpoint))
        assert np.array_equal(warm.predict(output="logits"), reference)
        # A tombstoned generation is not bundleable and is skipped.
        pool.delete([0])
        assert pool.checkpoints == 1
        pool.compact()
        assert pool.checkpoints == 2


# --------------------------------------------------------------------------- #
# ReadSnapshot: immutability, shared read code, failure isolation
# --------------------------------------------------------------------------- #
def _snapshot_bytes(snapshot):
    return {
        name: getattr(snapshot, name).tobytes()
        for name in ("labels", "logits", "embeddings", "alive")
    }


class TestReadSnapshot:
    @pytest.fixture(scope="class")
    def one_layer_bundle(self, tiny_citation_dataset, tmp_path_factory):
        """A one-layer DHGNN: its embeddings output is layer 0's input, i.e.
        the very feature matrix the writer updates in place."""
        reset_default_engine()
        dataset = tiny_citation_dataset
        model = DHGNN(dataset.n_features, dataset.n_classes, n_layers=1, seed=0)
        trainer = Trainer(
            model,
            dataset,
            TrainConfig(epochs=2, patience=None, neighbor_backend="incremental"),
        )
        trainer.train()
        path = tmp_path_factory.mktemp("one_layer") / "bundle.npz"
        trainer.export_frozen(str(path))
        return path

    @pytest.mark.parametrize("layers", ["two", "one"])
    def test_snapshot_held_across_writer_churn_is_unchanged(
        self, tiny_citation_dataset, bundle_path, one_layer_bundle, layers
    ):
        dataset = tiny_citation_dataset
        pool = SessionPool(
            FrozenModel.load(bundle_path if layers == "two" else one_layer_bundle)
        )
        held = pool.acquire()
        before = _snapshot_bytes(held)
        pool.update([0, 5], dataset.features[[0, 5]] + 0.5)
        assert _snapshot_bytes(held) == before
        pool.delete([3, 7])
        assert _snapshot_bytes(held) == before
        pool.compact()
        assert _snapshot_bytes(held) == before
        # The writer really moved on: the current snapshot differs.
        assert pool.acquire().alive.shape[0] == held.alive.shape[0] - 2
        with pytest.raises(ValueError, match="read-only"):
            held.logits[0, 0] = 1.0

    def test_session_predict_slices_the_same_snapshot(self, bundle_path):
        session = InferenceSession(FrozenModel.load(bundle_path))
        session.delete_nodes([4])
        snapshot = session.read_snapshot()
        assert isinstance(snapshot, ReadSnapshot)
        assert snapshot is session.read_snapshot()  # built once per forward
        for nodes in (None, [0, 3], 6):
            for output in ("labels", "logits", "embeddings"):
                assert np.array_equal(
                    session.predict(nodes, output=output),
                    snapshot.answer(nodes, output=output),
                )
        for bad in ([4], [10_000], 2.5):
            with pytest.raises(ConfigurationError) as direct:
                session.predict(bad)
            with pytest.raises(ConfigurationError) as sliced:
                snapshot.answer(bad)
            assert str(direct.value) == str(sliced.value)

    def test_raising_read_under_concurrency_answers_500(
        self, bundle_path, monkeypatch
    ):
        # A failure inside the read path answers every concurrent request
        # with a structured 500, releases its admission slot, and the very
        # next read on the same connection succeeds.
        direct = InferenceSession(FrozenModel.load(bundle_path))
        original = ReadSnapshot.answer

        def boom(self, nodes=None, output="labels"):
            raise RuntimeError("snapshot read blew up")

        async def scenario(server, client):
            monkeypatch.setattr(ReadSnapshot, "answer", boom)
            async with _Client(server.port) as second, _Client(server.port) as third:
                failures = await asyncio.gather(
                    client.request("POST", "/predict", {"node": 1}),
                    second.request("POST", "/predict", {"node": 2}),
                    third.request("POST", "/predict", {"node": 3}),
                )
            monkeypatch.setattr(ReadSnapshot, "answer", original)
            for status, body in failures:
                assert status == 500
                assert body["type"] == "RuntimeError"
                assert "blew up" in body["error"]
            assert server.batcher.pending == 0
            return await client.request("POST", "/predict", {"node": 0})

        status, answer = TestServingServerHTTP()._serve(bundle_path, scenario)
        assert status == 200 and answer["result"] == int(direct.predict(0))


# --------------------------------------------------------------------------- #
# MicroBatcher: the inline read path and admission control
# --------------------------------------------------------------------------- #
class TestMicroBatcher:
    def _batcher(self, bundle_path, max_queue_depth=128):
        pool = SessionPool(FrozenModel.load(bundle_path))
        return pool, MicroBatcher(pool, max_queue_depth=max_queue_depth)

    def test_one_bad_request_fails_only_its_submitter(self, bundle_path):
        pool, batcher = self._batcher(bundle_path)
        direct = InferenceSession(FrozenModel.load(bundle_path))

        async def scenario():
            return await asyncio.gather(
                batcher.submit({"nodes": [3]}),
                batcher.submit({"nodes": 7.5}),
                batcher.submit({"nodes": [5], "output": "logits"}),
                return_exceptions=True,
            )

        good, bad, also_good = asyncio.run(scenario())
        assert np.array_equal(good[0], direct.predict([3]))
        assert good[1] == pool.generation
        assert isinstance(bad, ConfigurationError) and "7.5" in str(bad)
        assert np.array_equal(also_good[0], direct.predict([5], output="logits"))
        assert batcher.stats() == {"requests": 2, "rejected": 0, "pending": 0}

    def test_queue_depth_sheds_load(self, bundle_path):
        pool, batcher = self._batcher(bundle_path, max_queue_depth=2)

        async def scenario():
            # Two admitted requests still unanswered (writes queued on the
            # single writer): the cap is reached for reads and writes alike.
            with batcher.admit(), batcher.admit():
                with pytest.raises(ServerOverloadedError, match="full"):
                    await batcher.submit({"nodes": [2]})
                with pytest.raises(ServerOverloadedError, match="full"):
                    with batcher.admit():
                        pass
                assert batcher.stats()["rejected"] == 2
            # Answering them re-admits new work.
            await batcher.submit({"nodes": [2]})
            assert batcher.pending == 0

        asyncio.run(scenario())


# --------------------------------------------------------------------------- #
# HTTP front-end
# --------------------------------------------------------------------------- #
async def _http(reader, writer, method, path, payload=None):
    body = json.dumps(payload).encode() if payload is not None else b""
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        + body
    )
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    marker = head.index(b"Content-Length: ") + 16
    length = int(head[marker : head.index(b"\r", marker)])
    return status, json.loads(await reader.readexactly(length))


class _Client:
    """One keep-alive connection to a test server."""

    def __init__(self, port):
        self.port = port

    async def __aenter__(self):
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port
        )
        return self

    async def __aexit__(self, *exc):
        self.writer.close()

    async def request(self, method, path, payload=None):
        return await _http(self.reader, self.writer, method, path, payload)


class TestServingServerHTTP:
    def _serve(self, bundle_path, scenario, **config_kwargs):
        config_kwargs.setdefault("port", 0)

        async def run():
            server = ServingServer(
                FrozenModel.load(bundle_path), ServerConfig(**config_kwargs)
            )
            await server.start()
            try:
                async with _Client(server.port) as client:
                    return await scenario(server, client)
            finally:
                await server.shutdown()

        return asyncio.run(run())

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="thread nice values are Linux-only"
    )
    def test_write_worker_runs_below_the_event_loop(
        self, tiny_citation_dataset, bundle_path
    ):
        dataset = tiny_citation_dataset
        loop_nice = os.nice(0)

        async def scenario(server, client):
            status, _ = await client.request(
                "POST", "/update",
                {"nodes": [2], "features": dataset.features[[2]].tolist()},
            )
            assert status == 200
            workers = [thread.native_id for thread in server._executor._threads]
            return os.nice(0), [_thread_nice(tid) for tid in workers]

        after, workers = self._serve(bundle_path, scenario)
        assert after == loop_nice
        assert workers == [max(loop_nice, WRITER_NICE)]

    def test_health_stats_and_predict(self, bundle_path):
        direct = InferenceSession(FrozenModel.load(bundle_path))

        async def scenario(server, client):
            status, health = await client.request("GET", "/healthz")
            assert status == 200 and health["status"] == "ok"
            assert health["generation"] == 1

            status, answer = await client.request("POST", "/predict", {"node": 5})
            assert status == 200
            assert answer["result"] == int(direct.predict(5))

            status, answer = await client.request(
                "POST", "/predict", {"nodes": [0, 3, 8], "output": "logits"}
            )
            assert status == 200
            assert np.array_equal(
                np.asarray(answer["result"]),
                direct.predict([0, 3, 8], output="logits"),
            )

            status, answer = await client.request(
                "POST", "/predict", {"nodes": None, "output": "labels"}
            )
            assert status == 200
            assert answer["result"] == direct.predict().tolist()

            status, stats = await client.request("GET", "/stats")
            assert status == 200
            assert stats["batcher"]["requests"] == 3
            assert stats["pool"]["generation"] == 1

        self._serve(bundle_path, scenario)

    def test_error_mapping(self, bundle_path):
        async def scenario(server, client):
            assert (await client.request("GET", "/nope"))[0] == 404
            assert (await client.request("POST", "/nope", {}))[0] == 404
            status, payload = await client.request("POST", "/predict", {"node": 3.7})
            assert status == 400 and "3.7" in payload["error"]
            status, payload = await client.request(
                "POST", "/predict", {"nodes": [10_000]}
            )
            assert status == 400 and "node ids" in payload["error"]
            status, payload = await client.request("POST", "/insert", {})
            assert status == 400 and "features" in payload["error"]
            # Malformed JSON body.
            client.writer.write(
                b"POST /predict HTTP/1.1\r\nHost: t\r\nContent-Length: 4\r\n\r\n{{{{"
            )
            head = await client.reader.readuntil(b"\r\n\r\n")
            assert b"400" in head.split(b"\r\n", 1)[0]
            marker = head.index(b"Content-Length: ") + 16
            await client.reader.readexactly(
                int(head[marker : head.index(b"\r", marker)])
            )
            # An unsupported method.
            assert (await client.request("PUT", "/predict", {}))[0] == 405

        self._serve(bundle_path, scenario)

    def test_bad_request_does_not_poison_batch(self, bundle_path):
        direct = InferenceSession(FrozenModel.load(bundle_path))

        async def scenario(server, client):
            async with _Client(server.port) as second:
                good, bad = await asyncio.gather(
                    client.request(
                        "POST", "/predict", {"nodes": [1, 2], "output": "labels"}
                    ),
                    second.request("POST", "/predict", {"node": 2.5}),
                )
            assert good[0] == 200
            assert good[1]["result"] == direct.predict([1, 2]).tolist()
            assert bad[0] == 400 and "2.5" in bad[1]["error"]

        self._serve(bundle_path, scenario)

    def test_writes_are_read_your_writes(self, tiny_citation_dataset, bundle_path):
        dataset = tiny_citation_dataset

        async def scenario(server, client):
            rows = _new_rows(dataset, 2).tolist()
            status, inserted = await client.request(
                "POST", "/insert", {"features": rows}
            )
            assert status == 200 and inserted["generation"] == 2
            new_ids = inserted["ids"]
            assert len(new_ids) == 2

            # The very next read sees the insert (its snapshot is already live).
            status, answer = await client.request(
                "POST", "/predict", {"nodes": new_ids}
            )
            assert status == 200 and len(answer["result"]) == 2
            assert answer["generation"] == 2

            status, updated = await client.request(
                "POST", "/update", {"nodes": [0], "features": [rows[0]]}
            )
            assert status == 200 and updated["generation"] == 3

            status, deleted = await client.request(
                "POST", "/delete", {"nodes": [new_ids[1]]}
            )
            assert status == 200 and deleted["tombstones"] == 1
            status, payload = await client.request(
                "POST", "/predict", {"nodes": [new_ids[1]]}
            )
            assert status == 400 and "deleted" in payload["error"]

            status, compacted = await client.request("POST", "/compact", {})
            assert status == 200
            assert compacted["n_nodes"] == dataset.n_nodes + 1
            status, reassigned = await client.request("POST", "/reassign", {})
            assert status == 200 and "moves" in reassigned

            status, health = await client.request("GET", "/healthz")
            assert health["n_alive"] == dataset.n_nodes + 1

        self._serve(bundle_path, scenario)

    def test_server_matches_direct_session_bit_for_bit(self, bundle_path):
        direct = InferenceSession(FrozenModel.load(bundle_path))

        async def scenario(server, client):
            rng = np.random.default_rng(0)
            for _ in range(8):
                nodes = rng.integers(0, direct.n_nodes, 4).tolist()
                for output in ("labels", "logits", "embeddings"):
                    status, answer = await client.request(
                        "POST", "/predict", {"nodes": nodes, "output": output}
                    )
                    assert status == 200
                    expected = direct.predict(nodes, output=output)
                    got = np.asarray(answer["result"], dtype=expected.dtype)
                    assert np.array_equal(got, expected)

        self._serve(bundle_path, scenario)

    def test_draining_returns_503(self, bundle_path):
        async def scenario(server, client):
            server.batcher.draining = True
            status, payload = await client.request("POST", "/predict", {"node": 0})
            assert status == 503 and "draining" in payload["error"]
            status, health = await client.request("GET", "/healthz")
            assert status == 200 and health["status"] == "draining"

        self._serve(bundle_path, scenario)

    def test_overload_returns_429(self, bundle_path):
        async def scenario(server, client):
            # Hold both admission slots, as two writes queued on the single
            # writer would: the next request is shed at admission.
            with server.batcher.admit(), server.batcher.admit():
                status, payload = await client.request("POST", "/predict", {"node": 0})
                assert status == 429 and "full" in payload["error"]
                status, payload = await client.request("POST", "/compact", {})
                assert status == 429 and "full" in payload["error"]
            status, _ = await client.request("POST", "/predict", {"node": 0})
            assert status == 200

        self._serve(bundle_path, scenario, max_queue_depth=2)

    def test_read_racing_a_publish_reports_its_generation(
        self, tiny_citation_dataset, bundle_path
    ):
        # Whole-set logits reads race a writer's publishes; every read must
        # equal exactly the state of the generation it reports, replayed on
        # a direct session.
        dataset = tiny_citation_dataset
        rng = np.random.default_rng(12)
        updates = [
            (sorted(rng.choice(dataset.n_nodes, 3, replace=False).tolist()),
             rng.normal(size=(3, dataset.n_features)).tolist())
            for _ in range(5)
        ]
        replay = InferenceSession(FrozenModel.load(bundle_path))
        states = {1: replay.predict(output="logits")}
        for generation, (nodes, rows) in enumerate(updates, start=2):
            replay.update_features(nodes, np.asarray(rows))
            states[generation] = replay.predict(output="logits")

        async def scenario(server, client):
            done = False
            reads = []

            async def write():
                nonlocal done
                for nodes, rows in updates:
                    status, _ = await client.request(
                        "POST", "/update", {"nodes": nodes, "features": rows}
                    )
                    assert status == 200
                done = True

            async def read():
                async with _Client(server.port) as reader:
                    while not done:
                        status, answer = await reader.request(
                            "POST", "/predict", {"nodes": None, "output": "logits"}
                        )
                        assert status == 200
                        reads.append(answer)

            await asyncio.gather(write(), read())
            return reads

        reads = self._serve(bundle_path, scenario)
        seen = {answer["generation"] for answer in reads}
        assert len(seen) > 1, seen  # the reads really overlapped the writes
        for answer in reads:
            expected = states[answer["generation"]]
            got = np.asarray(answer["result"], dtype=expected.dtype)
            assert got.tobytes() == expected.tobytes()

    def test_oversized_body_is_refused_unread(self, bundle_path):
        async def scenario(server, client):
            client.writer.write(
                (
                    f"POST /insert HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
                ).encode()
            )
            head = await client.reader.readuntil(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 413 Payload Too Large")
            assert b"Connection: close" in head
            marker = head.index(b"Content-Length: ") + 16
            body = await client.reader.readexactly(
                int(head[marker : head.index(b"\r", marker)])
            )
            assert "limit" in json.loads(body)["error"]
            # The server closed the connection without waiting for the body.
            assert await client.reader.read() == b""
            assert server.pool.generation == 1

        self._serve(bundle_path, scenario)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError, match="max_queue_depth"):
            ServerConfig(max_queue_depth=0)
        with pytest.raises(ConfigurationError, match="write_timeout_s"):
            ServerConfig(write_timeout_s=0.0)
        with pytest.raises(ConfigurationError, match="shards"):
            ServerConfig(shards=0)


# --------------------------------------------------------------------------- #
# Sharded serving: ShardedSession + sharded SessionPool
# --------------------------------------------------------------------------- #
class TestShardedServing:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_sharded_session_lifecycle_matches_unsharded(
        self, tiny_citation_dataset, bundle_path, n_shards
    ):
        from repro.serving import ShardedSession

        dataset = tiny_citation_dataset
        plain = InferenceSession(FrozenModel.load(bundle_path))
        sharded = ShardedSession(FrozenModel.load(bundle_path), n_shards=n_shards)

        def check(stage):
            assert np.array_equal(
                sharded.predict(output="logits"),
                plain.predict(output="logits"),
            ), stage

        check("fresh")
        rows = _new_rows(dataset, 5)
        plain.insert_nodes(rows)
        sharded.insert_nodes(rows)
        check("insert")
        plain.update_features([2, 8], dataset.features[[2, 8]] + 0.2)
        sharded.update_features([2, 8], dataset.features[[2, 8]] + 0.2)
        check("update")
        plain.delete_nodes([0, 7, 11])
        sharded.delete_nodes([0, 7, 11])
        check("delete")
        assert np.array_equal(plain.compact(), sharded.compact())
        check("compact")
        sharded.close()

    def test_sharded_bundle_round_trips_and_auto_shards(
        self, tmp_path, tiny_citation_dataset, bundle_path
    ):
        from repro.hypergraph.sharding import ShardedBackend
        from repro.serving import ShardedSession

        dataset = tiny_citation_dataset
        session = ShardedSession(FrozenModel.load(bundle_path), n_shards=3)
        session.insert_nodes(_new_rows(dataset, 3))
        session.predict()
        reference = session.predict(output="logits")
        frozen = session.to_frozen()
        assert frozen.meta["shard_map"] is not None
        out = tmp_path / "sharded_bundle.npz"
        frozen.save(out)
        session.close()

        # A pool over the saved bundle auto-detects the shard map: the
        # writer comes back sharded without any explicit shards= argument.
        pool = SessionPool(FrozenModel.load(out))
        assert isinstance(pool.writer, ShardedSession)
        assert isinstance(pool.writer.backend, ShardedBackend)
        assert pool.stats()["writer"]["sharded"] is True
        assert np.array_equal(pool.writer.predict(output="logits"), reference)
        assert np.array_equal(_logits(pool), reference)

    def test_sharded_pool_matches_unsharded_pool_bit_for_bit(
        self, tiny_citation_dataset, bundle_path
    ):
        dataset = tiny_citation_dataset
        plain = SessionPool(FrozenModel.load(bundle_path))
        sharded = SessionPool(FrozenModel.load(bundle_path), shards=4)
        assert sharded.stats()["writer"]["sharded"] is True
        assert plain.stats()["writer"]["sharded"] is False

        rows = _new_rows(dataset, 4)
        plain.insert(rows)
        sharded.insert(rows)
        plain.delete([3, 5])
        sharded.delete([3, 5])
        plain.compact()
        sharded.compact()
        expected = plain.writer.predict(output="logits")
        assert np.array_equal(sharded.writer.predict(output="logits"), expected)
        assert np.array_equal(_logits(sharded), expected)

    def test_http_serving_with_shards(self, tiny_citation_dataset, bundle_path):
        dataset = tiny_citation_dataset
        direct = InferenceSession(FrozenModel.load(bundle_path))
        server_cls = TestServingServerHTTP()

        async def scenario(server, client):
            status, stats = await client.request("GET", "/stats")
            assert status == 200
            assert stats["pool"]["writer"]["sharded"] is True
            assert stats["config"]["shards"] == 2

            status, answer = await client.request(
                "POST", "/predict", {"nodes": [0, 3, 8], "output": "logits"}
            )
            assert status == 200
            assert np.array_equal(
                np.asarray(answer["result"]),
                direct.predict([0, 3, 8], output="logits"),
            )

            rows = _new_rows(dataset, 3).tolist()
            status, inserted = await client.request(
                "POST", "/insert", {"features": rows}
            )
            assert status == 200 and len(inserted["ids"]) == 3
            status, answer = await client.request(
                "POST", "/predict", {"nodes": inserted["ids"]}
            )
            assert status == 200 and len(answer["result"]) == 3

            status, deleted = await client.request(
                "POST", "/delete", {"nodes": [inserted["ids"][0]]}
            )
            assert status == 200 and deleted["tombstones"] == 1
            status, compacted = await client.request("POST", "/compact", {})
            assert status == 200
            assert compacted["n_nodes"] == dataset.n_nodes + 2

        server_cls._serve(bundle_path, scenario, shards=2)


# --------------------------------------------------------------------------- #
# CLI: repro serve
# --------------------------------------------------------------------------- #
class TestServeCLI:
    def test_serve_boots_and_answers(self, bundle_path):
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--bundle", str(bundle_path), "--port", "0",
            ],
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH="src"),
            cwd=str(Path(__file__).resolve().parents[1]),
        )
        try:
            line = process.stderr.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
            assert match, f"no address announced: {line!r}"
            port = int(match.group(1))
            with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
                conn.sendall(
                    b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
                    b"Connection: close\r\n\r\n"
                )
                response = b""
                while chunk := conn.recv(4096):
                    response += chunk
            assert response.startswith(b"HTTP/1.1 200")
            assert b'"status": "ok"' in response
        finally:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)
            process.stderr.close()
