"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 20 --trace 0

Workloads: ``serve-read``, ``serve-write`` and ``train`` (see
``perfbench/README.md``).  With ``--trace 0`` the last line of standard
output is a JSON object holding every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` the workload runs twice, untraced and
then traced, and the line holds every per-layer metric, including the
tracing overhead.  The exit code is non-zero when the run could not
complete; a failed correctness check shows as ``"correct": false`` with
``failed`` > 0 and also exits non-zero.
"""

from __future__ import annotations

import argparse
import shutil
import signal
import sys
import traceback

from common import WORK_ROOT, BenchError, require_program

WORKLOADS = ("serve-read", "serve-write", "train")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(name: str, seed: int, seconds: float, *, traced: bool, work):
    work.mkdir(parents=True, exist_ok=True)
    if name == "serve-read":
        import serve_read as module
    elif name == "serve-write":
        import serve_write as module
    else:
        import train as module
    return module.run(seed, seconds, work, traced=traced, spans_path=work / "spans.json")


def main(argv=None) -> int:
    args = parse_args(argv)
    # A SIGTERM unwinds like an error, so every process the run started is
    # killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    try:
        require_program()
        from report import print_report

        work = WORK_ROOT / f"{args.workload}-{args.seed}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            if args.trace:
                import layers

                plain = run_workload(
                    args.workload, args.seed, args.seconds, traced=False, work=work / "plain"
                )
                result = run_workload(
                    args.workload, args.seed, args.seconds, traced=True, work=work / "traced"
                )
                layers.finish(result, plain)
            else:
                result = run_workload(
                    args.workload, args.seed, args.seconds, traced=False, work=work
                )
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 2
    except Exception:
        # Any other failure is a broken run: report it and exit non-zero.
        traceback.print_exc()
        return 2
    print_report(result, bool(args.trace))
    return 0 if result.total_failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
