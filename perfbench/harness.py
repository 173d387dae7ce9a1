"""Server process control, a minimal keep-alive HTTP client and the statistics.

Everything here is stdlib-only so the client process stays light while it
measures; :mod:`repro` is imported only by the oracle, after the server stops.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"
#: The declared workloads and metrics, with their units and bounds.
BENCHMARK = ROOT / "BENCHMARK.json"
#: Caches, logs, traces and generated inputs; removed per run except inputs.
WORK_ROOT = ROOT / ".perfbench"

_SERVING = re.compile(r"serving on http://([^:\s]+):(\d+)")


# -- statistics ------------------------------------------------------------------------


def median(values):
    """The median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles(n=4)``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


# -- the server process ----------------------------------------------------------------


def server_env() -> dict[str, str]:
    """The environment the server runs with: no ``REPRO_*`` setting survives."""
    env = {name: value for name, value in os.environ.items() if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


class Server:
    """One ``repro.cli serve`` subprocess on an ephemeral port.

    With *trace_path* the server is started through the benchmark's
    launcher, which writes its spans to that file when the server stops.
    Standard output and error go to *log_path*; the ``serving on`` line
    there tells us the port.
    """

    def __init__(self, cache_dir: Path, log_path: Path, trace_path: Path | None = None):
        self.cache_dir = Path(cache_dir)
        self.log_path = Path(log_path)
        self.trace_path = trace_path
        self.process: subprocess.Popen | None = None
        self.port = 0
        self.started_at = 0.0

    def command(self) -> list[str]:
        serve = ["serve", "--cache-dir", str(self.cache_dir), "--port", "0"]
        if self.trace_path is None:
            return [sys.executable, "-m", "repro.cli", *serve]
        return [sys.executable, str(LAUNCHER), "--trace-out", str(self.trace_path), "--", *serve]

    def start(self, timeout: float = 120.0) -> "Server":
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        self.started_at = time.monotonic()
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                self.command(),
                cwd=ROOT,
                env=server_env(),
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        deadline = self.started_at + timeout
        while time.monotonic() < deadline:
            match = _SERVING.search(self.log_path.read_text(errors="replace"))
            if match:
                self.port = int(match.group(2))
                return self
            if self.process.poll() is not None:
                break
            time.sleep(0.002)
        self.stop()
        raise RuntimeError(f"server did not start; see {self.log_path}")

    def peak_rss_mb(self) -> float:
        """The server's peak resident memory (``VmHWM``) in MB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        kilobytes = int(re.search(r"VmHWM:\s+(\d+)\s+kB", status).group(1))
        return kilobytes / 1024.0

    def stop(self, timeout: float = 60.0) -> None:
        """SIGINT (the server's clean shutdown), then kill if it hangs."""
        process = self.process
        if process is None or process.poll() is not None:
            return
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


# -- the HTTP client -------------------------------------------------------------------


def encode_request(method: str, path: str, body: bytes | None = None) -> bytes:
    """One HTTP/1.1 keep-alive request as raw bytes."""
    head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
    if body is not None:
        head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
    return (head + "\r\n").encode("latin-1") + (body or b"")


def json_request(method: str, path: str, payload: object | None = None) -> bytes:
    body = None if payload is None else json.dumps(payload, sort_keys=True).encode("utf-8")
    return encode_request(method, path, body)


class Connection:
    """A blocking keep-alive HTTP/1.1 connection that reconnects after a close.

    ``connects`` counts every TCP connection opened, so ``connects - 1`` is
    the number of reconnects after the server closed the socket (it does so
    after every error response).
    """

    def __init__(self, port: int, timeout: float = 300.0, host: str = "127.0.0.1"):
        self.address = (host, port)
        self.timeout = timeout
        self.connects = 0
        self._sock: socket.socket | None = None
        self._reader = None

    def _connect(self) -> None:
        self._sock = socket.create_connection(self.address, timeout=self.timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")
        self.connects += 1

    def request(self, raw: bytes) -> tuple[int, bytes]:
        """Send one request and read its response: ``(status, body)``.

        Raises ``OSError`` (a timeout, reset or a close before the response
        was complete) when the server drops the request.
        """
        if self._sock is None:
            self._connect()
        try:
            self._sock.sendall(raw)
            status_line = self._reader.readline()
            if not status_line:
                raise ConnectionError("server closed the connection")
            status = int(status_line.split()[1])
            length, close = 0, False
            while True:
                line = self._reader.readline()
                if line in (b"\r\n", b"\n"):
                    break
                if not line:
                    raise ConnectionError("server closed the connection mid-headers")
                name, _, value = line.decode("latin-1").partition(":")
                name = name.strip().lower()
                if name == "content-length":
                    length = int(value)
                elif name == "connection":
                    close = value.strip().lower() == "close"
            body = self._reader.read(length)
            if len(body) != length:
                raise ConnectionError("server closed the connection mid-body")
        except (OSError, ValueError, IndexError) as exc:
            self.close()
            raise ConnectionError(f"request failed: {exc}") from exc
        if close:
            self.close()
        return status, body

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._reader.close()
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self._reader = None
