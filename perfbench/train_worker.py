"""Training process of the ``train`` workload.

Usage: ``python3 perfbench/train_worker.py --seed S --epochs E [--probe]
[--spans PATH]`` with ``PYTHONPATH`` naming the program's ``src``.

Trains the paper model — ``DHGCN`` with the default ``DHGCNConfig`` — on
``cora-cocitation`` in float64 for a fixed number of epochs through
``Trainer.train()``.  It writes JSON lines to standard output:
``{"event": "epoch", "t": ...}`` at the start of every epoch (clock:
``time.monotonic``, which is system-wide on Linux, so the parent can
subtract its own spawn time), and a final ``{"event": "done", ...}`` with
the per-epoch evaluation times, the test accuracy, the loss history and the
process's peak resident memory.  With ``--probe`` it stops reporting after
the second epoch start (the parent kills it there).  With ``--spans`` it
records spans around the training layers and writes them at the end.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

N_NODES = 2400


def emit(**payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def install(recorder) -> None:
    """Spans around the training layers (``core``, construction, autograd, optim)."""
    import repro.core.builder as builder
    import repro.core.model as model_module
    from repro import DHGCN
    from repro.autograd.tensor import Tensor
    from repro.core.builder import DynamicHypergraphBuilder
    from repro.hypergraph.refresh import OperatorCache
    from repro.optim import Adam
    from serve_traced import install_operator_cache

    recorder.wrap(DHGCN, "forward", "train.forward")
    recorder.wrap(DynamicHypergraphBuilder, "build_operator", "train.topology")
    recorder.wrap(model_module, "compactness_hyperedge_weights", "train.topology")
    recorder.wrap(builder, "knn_hyperedges", "train.knn")
    recorder.wrap(builder, "kmeans_hyperedges", "train.kmeans")
    recorder.wrap(Tensor, "backward", "train.backward")
    recorder.wrap(Adam, "step", "train.optim")
    install_operator_cache(recorder, OperatorCache)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--epochs", type=int, required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    recorder = None
    if args.spans:
        from tracing import Recorder

        recorder = Recorder()
        install(recorder)
    from repro import DHGCN, DHGCNConfig, TrainConfig, Trainer, get_dataset
    from repro.hypergraph.knn import DISTANCE_COUNTERS

    dataset = get_dataset("cora-cocitation", seed=args.seed, n_nodes=N_NODES)
    model = DHGCN(dataset.n_features, dataset.n_classes, DHGCNConfig(), seed=args.seed)
    trainer = Trainer(
        model, dataset, TrainConfig(epochs=args.epochs, patience=None, precision="float64")
    )
    starts: list[float] = []
    evaluations: list[float] = []
    on_epoch = model.on_epoch
    evaluate = trainer.evaluate

    def timed_on_epoch(epoch: int) -> None:
        now = time.monotonic()
        starts.append(now)
        if not args.probe or len(starts) <= 2:
            emit(event="epoch", t=now)
        on_epoch(epoch)

    def timed_evaluate():
        start = time.monotonic()
        metrics = evaluate()
        evaluations.append(time.monotonic() - start)
        return metrics

    model.on_epoch = timed_on_epoch
    trainer.evaluate = timed_evaluate
    pairs = DISTANCE_COUNTERS.pairs
    result = trainer.train()
    ended = time.monotonic()
    if recorder is not None:
        recorder.dump(args.spans)
    emit(
        event="done",
        t=ended,
        starts=starts,
        evaluations=evaluations,
        test_accuracy=result.test_accuracy,
        losses=result.history["train_loss"],
        epochs=result.epochs_run,
        distance_pairs=DISTANCE_COUNTERS.pairs - pairs,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
