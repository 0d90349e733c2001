"""The read load generator: open-loop Poisson reads over keep-alive links.

One process drives every request of a run (the closed-loop writer of
``serve-write`` lives in ``serve_write.py``).  Reads are open-loop: their
send times are drawn up front from a Poisson process, at a fixed rate or at
a rate that grows exponentially, and each read's latency is timed from when
it was *due*, so a stall that delays later requests is charged to them.  At most ``connections`` keep-alive
connections carry the reads; a read that is due while every connection is
busy waits in the generator's queue, and that wait is part of its latency.
How late the generator itself enqueued each read is recorded separately
(``Outcome.enqueued`` against ``Outcome.due``).

Node popularity is a seeded Zipf law over a random permutation of the
readable ids.  The read mix is mostly single-node ``labels`` reads, some
small multi-node ``logits`` reads and a few whole-set ``labels`` reads.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from common import HttpConnection

#: Share of single-node ``labels`` reads, multi-node ``logits`` reads and
#: whole-set ``labels`` reads in the read mix.
READ_MIX = {"label": 0.90, "logits": 0.09, "all": 0.01}
#: Node count of a multi-node ``logits`` read (inclusive range).
LOGITS_NODES = (2, 8)
#: Zipf exponent of node popularity.
ZIPF_EXPONENT = 1.1


@dataclass
class Read:
    due: float
    kind: str
    nodes: object
    body: bytes


@dataclass
class Outcome:
    """One finished request: its timing, status and raw response body."""

    kind: str
    nodes: object
    due: float
    enqueued: float
    sent: float
    done: float
    status: int
    payload: bytes

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def service(self) -> float:
        return self.done - self.sent


@dataclass
class PhaseLog:
    """The requests of one phase of a run, in completion order."""

    name: str
    outcomes: list = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0

    @property
    def sent(self) -> int:
        return len(self.outcomes)


def zipf_popularity(rng: np.random.Generator, n_ids: int) -> tuple[np.ndarray, np.ndarray]:
    """``(ids, probabilities)``: Zipf weights over a seeded id permutation."""
    ranks = np.arange(1, n_ids + 1, dtype=np.float64)
    weights = ranks ** -ZIPF_EXPONENT
    return rng.permutation(n_ids), weights / weights.sum()


def read_schedule(
    rng: np.random.Generator,
    *,
    rate: float,
    duration: float,
    ids: np.ndarray,
    probabilities: np.ndarray,
) -> list[Read]:
    """Poisson arrivals at ``rate`` over ``duration`` seconds with the read mix."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 1.5) + 16)
    dues = np.cumsum(gaps)
    return _reads(rng, dues[dues < duration], ids, probabilities)


def ramp_schedule(
    rng: np.random.Generator,
    *,
    start_rate: float,
    growth: float,
    duration: float,
    ids: np.ndarray,
    probabilities: np.ndarray,
) -> list[Read]:
    """Poisson arrivals whose rate grows as ``start_rate * growth ** t``.

    Unit-rate arrivals are mapped through the inverse of the cumulative
    intensity ``start_rate / ln(growth) * (growth ** t - 1)``.
    """
    log_growth = math.log(growth)
    total = start_rate / log_growth * (growth ** duration - 1.0)
    arrivals = np.cumsum(rng.exponential(1.0, size=int(total * 1.2) + 16))
    arrivals = arrivals[arrivals < total]
    dues = np.log1p(arrivals * log_growth / start_rate) / log_growth
    return _reads(rng, dues, ids, probabilities)


def _reads(rng, dues, ids, probabilities) -> list[Read]:
    """One read per due time, drawn from the read mix and node popularity."""
    kinds = rng.choice(list(READ_MIX), size=dues.size, p=list(READ_MIX.values()))
    singles = rng.choice(ids, size=dues.size, p=probabilities)
    reads: list[Read] = []
    for due, kind, single in zip(dues, kinds, singles):
        if kind == "label":
            nodes: object = int(single)
            body = {"node": nodes, "output": "labels"}
        elif kind == "logits":
            count = int(rng.integers(LOGITS_NODES[0], LOGITS_NODES[1] + 1))
            nodes = [int(node) for node in rng.choice(ids, size=count, replace=False, p=probabilities)]
            body = {"nodes": nodes, "output": "logits"}
        else:
            nodes = None
            body = {"nodes": None, "output": "labels"}
        reads.append(Read(float(due), str(kind), nodes, json.dumps(body).encode()))
    return reads


async def open_loop(
    port: int,
    reads: list[Read],
    *,
    connections: int,
    log: PhaseLog,
    stop_after_ms: float | None = None,
) -> None:
    """Send ``reads`` at their due times over ``connections`` keep-alive links.

    With ``stop_after_ms``, the first read answered that much after it was
    due ends the schedule (reads already queued are still sent): past that
    point the server is saturated and only the backlog grows.
    """
    links = [HttpConnection(port) for _ in range(connections)]
    for link in links:
        await link.open()
    queue: asyncio.Queue = asyncio.Queue()
    start = time.monotonic() + 0.01
    log.started = start

    loop = asyncio.get_running_loop()
    saturated = threading.Event()

    def schedule() -> None:
        # A thread, not a coroutine: ``time.sleep`` wakes within tens of
        # microseconds, while the event loop rounds its timeouts up to whole
        # milliseconds, which would add up to 1 ms of lag to every read.
        for read in reads:
            if saturated.is_set():
                break
            due = start + read.due
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            loop.call_soon_threadsafe(queue.put_nowait, (read, due, time.monotonic()))
        for _ in links:
            loop.call_soon_threadsafe(queue.put_nowait, None)

    async def worker(link: HttpConnection) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            read, due, enqueued = item
            sent = time.monotonic()
            try:
                status, payload = await link.request("POST", "/predict", read.body)
            except (ConnectionError, asyncio.IncompleteReadError) as error:
                status, payload = 0, str(error).encode()
                await link.close()
                await link.open()
            done = time.monotonic()
            log.outcomes.append(
                Outcome(read.kind, read.nodes, due, enqueued, sent, done, status, payload)
            )
            if stop_after_ms is not None and (done - due) * 1e3 > stop_after_ms:
                saturated.set()

    try:
        scheduler = loop.run_in_executor(None, schedule)
        await asyncio.gather(scheduler, *(worker(link) for link in links))
    finally:
        log.ended = time.monotonic()
        for link in links:
            await link.close()


def decode_result(outcome: Outcome):
    """The ``result`` field of a 200 response (``None`` otherwise)."""
    if outcome.status != 200:
        return None
    return json.loads(outcome.payload)["result"]
