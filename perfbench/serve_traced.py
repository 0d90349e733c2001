"""Traced server entry: wrap the serving layers in spans, then ``repro serve``.

Usage: ``python3 perfbench/serve_traced.py serve --bundle B --port 0 ...``
with ``PYTHONPATH`` naming the program's ``src`` and ``PERFBENCH_SPANS``
naming the output file.  The arguments are those of ``repro serve``, which
runs unchanged after the wrappers are installed.  SIGUSR1 (and a normal
exit) writes the spans recorded so far to ``PERFBENCH_SPANS``.
"""

from __future__ import annotations

import atexit
import os
import signal
import sys


def install(recorder) -> None:
    """Wrap the public entry points of each serving layer."""
    from repro.hypergraph.knn import DISTANCE_COUNTERS
    from repro.hypergraph.neighbors import IncrementalBackend
    from repro.hypergraph.refresh import OperatorCache
    from repro.serving import FrozenModel, InferenceSession
    from repro.serving import frozen as frozen_module
    from repro.serving.server import MicroBatcher, SessionPool
    from repro.serving.wal import WriteAheadLog

    recorder.wrap(MicroBatcher, "submit", "server.submit", root=True)
    recorder.wrap(SessionPool, "acquire", "pool.acquire")
    recorder.wrap(SessionPool, "publish", "pool.publish")
    for op in ("insert", "update", "delete", "compact", "reassign"):
        recorder.wrap(SessionPool, op, "pool.write", root=True)

    def batch_size(args, kwargs):
        def after(result, attrs):
            attrs["requests"] = len(result)
        return after

    recorder.wrap(InferenceSession, "predict_batch", "session.predict_batch", measure=batch_size)
    recorder.wrap(InferenceSession, "predict", "session.refresh_forward")
    for method in ("update_features", "insert_nodes", "delete_nodes", "compact",
                   "reassign_clusters"):
        recorder.wrap(InferenceSession, method, "session.mutate")
    recorder.wrap(InferenceSession, "fork", "session.fork")
    recorder.wrap(InferenceSession, "to_frozen", "store.to_frozen")

    def file_size(args, kwargs):
        def after(result, attrs):
            attrs["bytes"] = os.path.getsize(result)
        return after

    recorder.wrap(FrozenModel, "save", "store.save", measure=file_size)
    recorder.wrap(FrozenModel, "load", "store.load")
    for plan in (frozen_module._DHGCNPlan, frozen_module._DHGNNPlan):
        recorder.wrap(plan, "apply_layer", "frozen.forward")
        recorder.wrap(plan, "run", "frozen.forward")

    def journal_growth(args, kwargs):
        journal = args[0]
        before = os.path.getsize(journal.path)

        def after(result, attrs):
            attrs["bytes"] = os.path.getsize(journal.path) - before
        return after

    recorder.wrap(WriteAheadLog, "append", "wal.append", measure=journal_growth)
    recorder.wrap(WriteAheadLog, "truncate", "wal.truncate")

    def neighbour_work(args, kwargs):
        backend = args[0]
        before = backend.stats()
        pairs = DISTANCE_COUNTERS.pairs

        def after(result, attrs):
            now = backend.stats()
            attrs["rows_requeried"] = now["rows_requeried"] - before["rows_requeried"]
            attrs["full_rebuilds"] = now["full_rebuilds"] - before["full_rebuilds"]
            attrs["pairs"] = DISTANCE_COUNTERS.pairs - pairs
        return after

    for method in ("query", "update", "insert", "delete"):
        recorder.wrap(IncrementalBackend, method, "neighbors", measure=neighbour_work)
    install_operator_cache(recorder, OperatorCache)


def install_operator_cache(recorder, cache_class) -> None:
    """Operator builds and lookups, with whether each was a cache hit."""

    def hit(args, kwargs):
        cache = args[0]
        hits = cache.hits

        def after(result, attrs):
            attrs["hits"] = cache.hits - hits
            attrs["calls"] = 1
        return after

    recorder.wrap(cache_class, "propagation_operator", "refresh.operator", measure=hit)


def main() -> int:
    from tracing import Recorder

    recorder = Recorder()
    install(recorder)
    out = os.environ["PERFBENCH_SPANS"]
    signal.signal(signal.SIGUSR1, lambda *_: recorder.dump(out))
    atexit.register(recorder.dump, out)
    from repro.cli import main as cli_main

    return cli_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
