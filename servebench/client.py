"""The served side: a ``mani-rank serve`` subprocess and a closed-loop load generator.

Every exchange is one loopback connection carrying pre-encoded request bytes
(the server answers with ``Connection: close``).  :class:`Tally` counts each
request by path and status, so a run can be reconciled against ``GET /stats``.
"""

from __future__ import annotations

import itertools
import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

#: Seconds a spawned server may take to announce its address and get ready.
READY_TIMEOUT_S = 60.0
#: Seconds a single exchange may take before it counts as a failure.
EXCHANGE_TIMEOUT_S = 60.0


def http_request(verb: str, path: str, body: bytes = b"") -> bytes:
    """Encode one HTTP/1.1 request with its body."""
    head = (
        f"{verb} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode() + body


@dataclass(frozen=True)
class Request:
    """A pre-encoded request and the path it targets (for the tally)."""

    path: str
    raw: bytes


def post(path: str, body: bytes) -> Request:
    """A pre-encoded ``POST``."""
    return Request(path, http_request("POST", path, body))


def get(path: str) -> Request:
    """A pre-encoded ``GET``."""
    return Request(path, http_request("GET", path))


@dataclass
class Tally:
    """Thread-safe count of requests answered, by path and by status."""

    paths: Counter = field(default_factory=Counter)
    statuses: Counter = field(default_factory=Counter)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def record(self, path: str, status: int) -> None:
        """Count one answered request (status 0 = no answer, not counted)."""
        if status == 0:
            return
        with self._lock:
            self.paths[path] += 1
            self.statuses[status] += 1


def exchange(address: tuple[str, int], request: Request, tally: Tally) -> tuple[int, bytes]:
    """Send one request and read the response to EOF; status 0 on a connection error."""
    try:
        with socket.create_connection(address, timeout=EXCHANGE_TIMEOUT_S) as sock:
            sock.sendall(request.raw)
            chunks = []
            while chunk := sock.recv(1 << 16):
                chunks.append(chunk)
    except OSError:
        return 0, b""
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    try:
        status = int(head.split(b" ", 2)[1])
    except (IndexError, ValueError):
        return 0, b""
    tally.record(request.path, status)
    return status, body


class Server:
    """One ``mani-rank serve`` subprocess on a free loopback port.

    ``setup_s`` is the time from spawn to the first ``/readyz`` 200.  Use as
    a context manager: leaving it stops the process and waits for its exit.
    """

    def __init__(self, root: Path, log_path: Path, args: Sequence[str], tally: Tally) -> None:
        """Spawn the server and wait until it is ready."""
        self._tally = tally
        env = dict(os.environ)
        paths = [str(root / "src"), env.get("PYTHONPATH")]
        env["PYTHONPATH"] = os.pathsep.join(path for path in paths if path)
        self._log = log_path.open("wb")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *args],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        try:
            self.address = self._read_address()
            self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _read_address(self) -> tuple[str, int]:
        stdout = self.process.stdout
        ready, _, _ = select.select([stdout], [], [], READY_TIMEOUT_S)
        line = stdout.readline().decode() if ready else ""
        if not line.startswith("serving on http://"):
            raise RuntimeError(f"server did not announce its address (got {line!r})")
        host, _, port = line.strip().removeprefix("serving on http://").rpartition(":")
        return host, int(port)

    def _wait_ready(self) -> None:
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            status, _ = exchange(self.address, get("/readyz"), self._tally)
            if status == 200:
                return
            time.sleep(0.002)
        raise RuntimeError("server never answered /readyz with 200")

    def peak_rss_mib(self) -> float:
        """The server's peak resident set (``VmHWM``) in MiB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Drain the server with SIGTERM (kill after a grace period) and reap it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stats(self) -> dict:
        """One ``GET /stats`` snapshot."""
        status, body = exchange(self.address, get("/stats"), self._tally)
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return json.loads(body)


@dataclass
class OpResult:
    """One timed operation: its stream index, timings and raw responses."""

    index: int
    started: float
    ended: float
    request_seconds: list[float]
    statuses: list[int]
    bodies: list[bytes]


def closed_loop(
    address: tuple[str, int],
    operation: Callable[[int], Sequence[Request]],
    clients: int,
    seconds: float,
    tally: Tally,
) -> tuple[list[OpResult], float]:
    """Drive operations ``0, 1, 2, ...`` from ``clients`` closed-loop threads.

    ``operation(index)`` gives the requests of operation ``index``; the
    source is endless, so the phase always lasts ``seconds``.  It is called
    under a lock, in index order.  Each client takes the next operation only
    after its previous one has completed; none is started after ``seconds``.
    An operation's requests run back to back.  Returns the results (in
    stream order) and the phase's wall seconds, from start to the last
    completion.
    """
    results: list[OpResult] = []
    lock = threading.Lock()
    cursor = itertools.count()
    started = time.perf_counter()
    deadline = started + seconds

    def client() -> None:
        while True:
            with lock:
                if time.perf_counter() >= deadline:
                    return
                index = next(cursor)
                requests = operation(index)
            op_started = time.perf_counter()
            timings, statuses, bodies = [], [], []
            for request in requests:
                request_started = time.perf_counter()
                status, body = exchange(address, request, tally)
                timings.append(time.perf_counter() - request_started)
                statuses.append(status)
                bodies.append(body)
                if status != 200:
                    break
            result = OpResult(index, op_started, time.perf_counter(), timings, statuses, bodies)
            with lock:
                results.append(result)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = max((result.ended for result in results), default=started) - started
    results.sort(key=lambda result: result.index)
    return results, elapsed
