"""``train``: end-to-end ``Trainer.train()`` of the paper model.

Phases of one run:

1. crash/set-up probes: start the training process three times; each time
   take spawn → first epoch start (set-up) and spawn → second epoch start
   (the first epoch finished), then SIGKILL it mid-training;
2. the measured run: one training process for ``EPOCHS_PER_SECOND *
   seconds`` epochs; its epoch times, evaluation-pass times, epochs per
   second, test accuracy and peak memory;
3. checks: the loss stayed finite and the test accuracy is at or above the
   floor in ``perfbench/spec.json``.

The trainer keeps no checkpoints, so recovering from a crash means a cold
restart: ``recover_s`` is the time from that restart until the first epoch
has finished.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

from common import BENCH_DIR, BenchError, RssSampler, median, program_env, quantile
from layers import load_spans, train_layers
from report import Run

#: The fixed epoch count is ``EPOCHS_PER_SECOND * seconds``, so that the run
#: measures for about the requested time here (about 150 ms per epoch).
EPOCHS_PER_SECOND = 5
PROBES = 3
SPEC = json.loads((Path(__file__).resolve().parent / "spec.json").read_text())


def _spawn(seed: int, epochs: int, *, probe: bool, spans=None):
    command = [sys.executable, str(BENCH_DIR / "train_worker.py"),
               "--seed", str(seed), "--epochs", str(epochs)]
    if probe:
        command.append("--probe")
    if spans is not None:
        command += ["--spans", str(spans)]
    spawned = time.monotonic()
    proc = subprocess.Popen(command, env=program_env(), stdout=subprocess.PIPE, text=True)
    return spawned, proc


def _events(proc):
    for line in proc.stdout:
        if line.startswith("{"):
            yield json.loads(line)


def run(seed: int, seconds: float, work, *, traced: bool, spans_path=None) -> Run:
    result = Run("train")
    epochs = max(10, int(round(EPOCHS_PER_SECOND * seconds)))
    setups, recoveries = [], []
    for _ in range(PROBES):
        spawned, proc = _spawn(seed, epochs, probe=True)
        try:
            stamps = []
            for event in _events(proc):
                stamps.append(event["t"])
                if len(stamps) == 2:
                    break
            if len(stamps) < 2:
                raise BenchError("training probe exited before its second epoch")
            setups.append(stamps[0] - spawned)
            recoveries.append(stamps[1] - spawned)
        finally:
            proc.kill()
            proc.wait(timeout=30)
            proc.stdout.close()

    spawned, proc = _spawn(seed, epochs, probe=False, spans=spans_path if traced else None)
    memory = RssSampler(proc.pid)
    try:
        events = list(_events(proc))
        rss, _ = memory.stop()
        code = proc.wait(timeout=600)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        proc.stdout.close()
    if code != 0 or not events or events[-1]["event"] != "done":
        raise BenchError(f"training process failed with code {code}")
    done = events[-1]
    starts = done["starts"]
    setups.append(starts[0] - spawned)
    epoch_ms = [(later - earlier) * 1e3 for earlier, later in zip(starts, starts[1:])]
    eval_ms = [value * 1e3 for value in done["evaluations"]]

    result.check(done["epochs"] == epochs, "train", f"ran {done['epochs']} of {epochs} epochs")
    result.check(all(math.isfinite(loss) for loss in done["losses"]), "train",
                 "training loss became non-finite")
    floor = SPEC["train_test_acc_floor"]
    result.check(done["test_accuracy"] >= floor, "train",
                 f"test accuracy {done['test_accuracy']:.4f} below the floor {floor}")

    result.metrics.update(
        setup_s=median(setups),
        rss_mb=rss,
        p50_ms=median(epoch_ms),
        tail_ms=quantile(epoch_ms, 0.90),
        rate_per_s=done["epochs"] / (done["t"] - starts[0]),
        recover_s=median(recoveries),
        test_acc=done["test_accuracy"],
    )
    result.aliases.update(
        train_epochs_per_s=result.metrics["rate_per_s"],
        train_test_acc=result.metrics["test_acc"],
        eval_p50_ms=median(eval_ms),
        eval_p90_ms=quantile(eval_ms, 0.90),
        peak_rss_mb=done["peak_rss_kb"] / 1024.0,
    )
    result.samples.update(epochs=epochs, distance_pairs=done["distance_pairs"])
    if traced:
        result.per_layer = train_layers(
            result, load_spans(spans_path), epochs, done["distance_pairs"]
        )
    return result
