"""Run results: accounting of attempts and failures, and the printed report."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

#: The metric names and units are those of the benchmark definition at the
#: root of the checkout.
CONTRACT = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


@dataclass
class Run:
    """What one workload run measured and whether its outputs were right."""

    workload: str
    metrics: dict = field(default_factory=dict)
    #: Numbers under the names the workload's users know them by
    #: (``read_p99_ms``, ``write_p50_ms``, ...), printed beside the metrics.
    aliases: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    attempted: dict = field(default_factory=dict)
    failed: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)
    loadgen_phases: list = field(default_factory=list)
    server_stats: dict = field(default_factory=dict)

    def attempt(self, phase: str, count: int = 1) -> None:
        self.attempted[phase] = self.attempted.get(phase, 0) + count

    def fail(self, phase: str, reason: str) -> None:
        self.failed[phase] = self.failed.get(phase, 0) + 1
        if len(self.failures) < 20:
            self.failures.append(f"{phase}: {reason}")

    def check(self, ok: bool, phase: str, reason: str) -> None:
        """Count one correctness check as attempted, and as failed unless ``ok``."""
        self.attempt(phase)
        if not ok:
            self.fail(phase, reason)

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())

    @property
    def error_rate(self) -> float:
        return self.total_failed / max(self.total_attempted, 1)


def print_report(run: Run, trace: bool) -> None:
    """Human-readable table, then the one-line JSON result (last line)."""
    print(f"# workload {run.workload}")
    for phase in sorted(run.attempted):
        print(f"#   phase {phase:<24} attempted {run.attempted[phase]:>6}  "
              f"failed {run.failed.get(phase, 0):>4}")
    for reason in run.failures:
        print(f"#   FAILED {reason}")
    print(f"#   error_rate {run.error_rate:.6f} (failed / attempted)")
    print(f"#   samples {json.dumps(run.samples)}")
    for name, value in run.aliases.items():
        print(f"#   {name:<28} {value:.6g}")
    kind = "per_layer" if trace else "end_to_end"
    values = run.per_layer if trace else run.metrics
    metrics = {}
    for entry in CONTRACT[kind]:
        name = entry["name"]
        value = float(values[name])
        metrics[name] = {"value": value, "unit": entry["unit"]}
        print(f"#   {name:<40} {value:.6g} {entry['unit']}")
    line = {
        "correct": run.total_failed == 0,
        "attempted": run.total_attempted,
        "failed": run.total_failed,
        "metrics": metrics,
    }
    print(json.dumps(line), flush=True)
