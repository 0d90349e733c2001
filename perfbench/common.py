"""Shared plumbing of the benchmark: paths, processes, HTTP and statistics.

Everything here treats the program as a black box: servers are started as
``repro serve`` subprocesses (or the traced entry script beside this file),
talked to over HTTP on loopback, and measured from the outside.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / ".work"

#: How long a server may take to answer its first ``/healthz`` before the
#: run is declared failed.
SERVER_START_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """A run that cannot produce a result (not a correctness failure)."""


def require_program() -> None:
    """Fail fast when the checkout holds only the benchmark, not the program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env(**extra: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #
def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of a non-empty sample."""
    data = sorted(values)
    if not data:
        raise BenchError("quantile of an empty sample")
    position = (len(data) - 1) * q
    low = math.floor(position)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (position - low)


def median(values) -> float:
    return quantile(values, 0.5)


# --------------------------------------------------------------------------- #
# Bundles
# --------------------------------------------------------------------------- #
def export_bundle(path: Path, *, n_nodes: int, seed: int, epochs: int) -> None:
    """Train and export a DHGCN serving bundle through ``repro export``."""
    command = [
        sys.executable, "-m", "repro.cli", "export",
        "--dataset", "cora-cocitation", "--model", "dhgcn",
        "--nodes", str(n_nodes), "--epochs", str(epochs), "--patience", "0",
        "--seed", str(seed), "--precision", "float64",
        "--neighbor-backend", "incremental", "--out", str(path),
    ]
    done = subprocess.run(
        command, env=program_env(), capture_output=True, text=True, timeout=600
    )
    if done.returncode != 0:
        raise BenchError(f"repro export failed:\n{done.stderr[-2000:]}")


# --------------------------------------------------------------------------- #
# Server processes
# --------------------------------------------------------------------------- #
class ServerProcess:
    """One ``repro serve`` subprocess on an ephemeral port.

    ``traced=True`` starts the traced entry script instead, which installs
    span wrappers and then runs the very same ``repro serve`` command; its
    spans are written to ``spans_path`` on SIGUSR1 (see :meth:`dump_spans`).
    """

    def __init__(
        self,
        bundle: Path,
        *,
        extra_args: list[str] | None = None,
        traced: bool = False,
        spans_path: Path | None = None,
    ) -> None:
        self.traced = traced
        self.spans_path = spans_path
        serve_args = ["serve", "--bundle", str(bundle), "--port", "0"] + list(extra_args or [])
        if traced:
            command = [sys.executable, str(BENCH_DIR / "serve_traced.py")] + serve_args
            env = program_env(PERFBENCH_SPANS=str(spans_path))
        else:
            command = [sys.executable, "-m", "repro.cli"] + serve_args
            env = program_env()
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True,
        )
        self.port: int | None = None
        self.log: list[str] = []
        self._drainer: threading.Thread | None = None

    def wait_listening(self) -> int:
        """Read stderr until the server announces its port."""
        deadline = self.spawned + SERVER_START_TIMEOUT_S
        while self.port is None:
            line = self.proc.stderr.readline()
            if not line:
                raise BenchError(
                    f"server exited before listening (code {self.proc.poll()}):\n"
                    + "".join(self.log[-20:])
                )
            self.log.append(line)
            if line.startswith("serving ") and "http://" in line:
                self.port = int(line.split("http://", 1)[1].split(":", 1)[1].split()[0])
            if time.monotonic() > deadline:
                raise BenchError("server did not start in time")
        # Keep draining stderr so a chatty server can never block on a pipe.
        self._drainer = threading.Thread(target=self._drain, daemon=True)
        self._drainer.start()
        return self.port

    def _drain(self) -> None:
        for line in self.proc.stderr:
            self.log.append(line)

    def dump_spans(self) -> None:
        """Ask a traced server to write its spans; wait until it has."""
        if not self.traced:
            return
        if self.spans_path.exists():
            self.spans_path.unlink()
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30.0
        while not self.spans_path.exists():
            if time.monotonic() > deadline:
                raise BenchError("traced server did not write its spans")
            time.sleep(0.01)

    def kill(self) -> None:
        """SIGKILL (a crash) and reap."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        if self._drainer is not None:
            self._drainer.join(timeout=30)
        self.proc.stderr.close()


def _status_mib(pid: int, field: str) -> float | None:
    """A ``/proc/<pid>/status`` memory field in MiB (``None`` once it exited)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time a live process has used so far."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def resident_mb(pid: int) -> float:
    """Current resident memory (VmRSS) of a live process, in MiB."""
    value = _status_mib(pid, "VmRSS:")
    if value is None:
        raise BenchError(f"process {pid} has no resident memory to read")
    return value


class RssSampler:
    """Resident memory of one process, sampled every ``interval`` seconds.

    Serving processes allocate and free large arrays on several threads, so
    their peak (VmHWM) and even their mean under writes swing by a fifth
    between identical runs with allocator timing; the benchmark prints
    both for reading but gates on memory at a deterministic point.
    """

    def __init__(self, pid: int, interval: float = 0.1) -> None:
        self.pid = pid
        self.interval = interval
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            value = _status_mib(self.pid, "VmRSS:")
            if value is None:
                return
            self.samples.append(value)

    def stop(self) -> tuple[float, float]:
        """Stop sampling; returns ``(mean, peak)`` in MiB."""
        self._stop.set()
        self._thread.join(timeout=10)
        peak = _status_mib(self.pid, "VmHWM:") or max(self.samples, default=0.0)
        if not self.samples:
            raise BenchError(f"no memory samples of process {self.pid}")
        return sum(self.samples) / len(self.samples), peak


# --------------------------------------------------------------------------- #
# HTTP (keep-alive, raw asyncio streams)
# --------------------------------------------------------------------------- #
class HttpConnection:
    """A minimal HTTP/1.1 keep-alive client over one loopback connection."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port, limit=1 << 24
        )

    async def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        self.writer.write(head + body)
        await self.writer.drain()
        raw = await self.reader.readuntil(b"\r\n\r\n")
        status_line, _, header_block = raw.decode("latin-1").partition("\r\n")
        status = int(status_line.split()[1])
        length = 0
        for line in header_block.split("\r\n"):
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        payload = await self.reader.readexactly(length) if length else b""
        return status, payload

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.writer = None


async def request_json(port: int, method: str, path: str, body: dict | None = None):
    """One request on a fresh connection; returns ``(status, decoded body)``."""
    connection = HttpConnection(port)
    await connection.open()
    try:
        data = b"" if body is None else json.dumps(body).encode()
        status, payload = await connection.request(method, path, data)
    finally:
        await connection.close()
    return status, json.loads(payload or b"{}")


def wait_healthy(server: ServerProcess) -> float:
    """Block until ``/healthz`` answers 200; returns seconds since spawn."""
    port = server.wait_listening()
    deadline = server.spawned + SERVER_START_TIMEOUT_S
    while True:
        try:
            status, _ = asyncio.run(request_json(port, "GET", "/healthz"))
        except (ConnectionError, OSError):
            status = 0
        if status == 200:
            return time.monotonic() - server.spawned
        if time.monotonic() > deadline:
            raise BenchError("server never reported healthy")
        time.sleep(0.005)
