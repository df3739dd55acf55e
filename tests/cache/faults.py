"""Deterministic fault injection for the serving resilience suite.

Three families of tools, all sleep-free:

- :class:`FlakyFilesystem` — a :class:`~repro.cache.store.LocalFilesystem`
  that fails, torn-writes, or keeps failing specific operations on a
  schedule, so the disk-fault tests (ENOSPC on put, permission-denied loads,
  stat races) are exact scripts instead of monkeypatch roulette.
- :class:`VirtualClock` / :class:`ManualClock` — time sources whose clock
  only advances when the test says so.  ``VirtualClock`` implements the
  :class:`~repro.cache.resilience.AsyncClock` interface the HTTP server takes
  every deadline through, so slowloris/drain scenarios resolve on
  ``advance()`` instead of wall time.
- Misbehaving raw-socket clients — helpers that speak just enough HTTP/1.1
  to hold connections half-open (slowloris), truncate bodies, or send
  garbage/oversized headers, plus a well-behaved :func:`http_request` for the
  control measurements.

Plus :class:`GateService`, a service stand-in whose computes block on a
:class:`threading.Event` (they run on the server's executor), giving the
shed/drain tests a deterministic way to hold a request in flight.
"""

from __future__ import annotations

import asyncio
import contextlib
import errno
import heapq
import itertools
import json
import os
import threading
from collections import Counter, defaultdict, deque
from pathlib import Path

from repro.cache.service import Answer
from repro.cache.store import LocalFilesystem


def enospc() -> OSError:
    """A fresh ``ENOSPC`` (disk full) error."""
    return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def eacces() -> PermissionError:
    """A fresh ``EACCES`` (permission denied) error."""
    return PermissionError(errno.EACCES, os.strerror(errno.EACCES))


class FlakyFilesystem(LocalFilesystem):
    """Filesystem seam that fails operations on an explicit schedule.

    ``fail_next(op, error, times)`` queues one-shot failures consumed in
    order; ``fail_always(op, error)`` installs a persistent failure until
    ``heal(op)``; ``torn_write(times)`` makes ``write_text`` persist only the
    first half of the text before raising ``ENOSPC`` — the torn blob is what
    the corruption quarantine must catch.  ``calls`` counts every operation,
    fault-injected or not.
    """

    _TORN = "torn"

    def __init__(self) -> None:
        """Start with no scheduled faults."""
        self._scheduled: dict[str, deque] = defaultdict(deque)
        self._persistent: dict[str, BaseException] = {}
        self.calls: Counter[str] = Counter()

    def fail_next(self, operation: str, error: BaseException, times: int = 1) -> None:
        """Queue ``times`` one-shot failures for ``operation``."""
        for _ in range(times):
            self._scheduled[operation].append(error)

    def fail_always(self, operation: str, error: BaseException) -> None:
        """Fail every ``operation`` with ``error`` until :meth:`heal`."""
        self._persistent[operation] = error

    def torn_write(self, times: int = 1) -> None:
        """Make the next ``times`` ``write_text`` calls persist half, then raise."""
        for _ in range(times):
            self._scheduled["write_text"].append(self._TORN)

    def heal(self, operation: str | None = None) -> None:
        """Clear the persistent failure for ``operation`` (or all of them)."""
        if operation is None:
            self._persistent.clear()
        else:
            self._persistent.pop(operation, None)

    def _next_fault(self, operation: str):
        """Consume and return the pending fault for ``operation``, if any."""
        self.calls[operation] += 1
        queued = self._scheduled.get(operation)
        if queued:
            return queued.popleft()
        return self._persistent.get(operation)

    def read_text(self, path: Path) -> str:
        """Read, unless a fault is scheduled."""
        fault = self._next_fault("read_text")
        if fault is not None:
            raise fault
        return super().read_text(path)

    def write_text(self, path: Path, text: str) -> None:
        """Write, torn-write, or fail per the schedule."""
        fault = self._next_fault("write_text")
        if fault is self._TORN:
            super().write_text(path, text[: len(text) // 2])
            raise enospc()
        if fault is not None:
            raise fault
        super().write_text(path, text)

    def replace(self, source: Path, destination: Path) -> None:
        """Rename, unless a fault is scheduled."""
        fault = self._next_fault("replace")
        if fault is not None:
            raise fault
        super().replace(source, destination)

    def unlink(self, path: Path, missing_ok: bool = False) -> None:
        """Unlink, unless a fault is scheduled."""
        fault = self._next_fault("unlink")
        if fault is not None:
            raise fault
        super().unlink(path, missing_ok=missing_ok)

    def glob(self, directory: Path, pattern: str) -> list[Path]:
        """List, unless a fault is scheduled."""
        fault = self._next_fault("glob")
        if fault is not None:
            raise fault
        return super().glob(directory, pattern)

    def stat(self, path: Path) -> os.stat_result:
        """Stat, unless a fault is scheduled."""
        fault = self._next_fault("stat")
        if fault is not None:
            raise fault
        return super().stat(path)


class ManualClock:
    """Callable monotonic clock advanced by hand (for breaker/retry tests)."""

    def __init__(self, start: float = 0.0) -> None:
        """Start the clock at ``start`` seconds."""
        self.now = start

    def __call__(self) -> float:
        """Current virtual time."""
        return self.now

    def advance(self, seconds: float) -> None:
        """Move the clock forward."""
        self.now += seconds


class VirtualClock:
    """Sleep-free :class:`~repro.cache.resilience.AsyncClock` replacement.

    ``monotonic()`` returns virtual time; ``wait_for``/``sleep`` park their
    timers on a heap that only fires when the test calls :meth:`advance` from
    inside the event loop.  ``pending_timers`` lets a test wait (by yielding)
    until the server is actually parked on a deadline before advancing.
    """

    def __init__(self) -> None:
        """Start at t=0 with no pending timers."""
        self._now = 0.0
        self._timers: list[tuple[float, int, asyncio.Future]] = []
        self._sequence = itertools.count()
        self.timers_created = 0

    def monotonic(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def pending_timers(self) -> int:
        """Number of armed, unfired timers (deadlines the server waits on)."""
        return sum(1 for _, _, future in self._timers if not future.done())

    def advance(self, seconds: float) -> None:
        """Move virtual time forward, firing every timer now due."""
        self._now += seconds
        while self._timers and self._timers[0][0] <= self._now:
            _, _, future = heapq.heappop(self._timers)
            if not future.done():
                future.set_result(None)

    def _arm(self, delay: float) -> asyncio.Future:
        """Register a timer ``delay`` virtual seconds out."""
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        heapq.heappush(self._timers, (self._now + delay, next(self._sequence), future))
        self.timers_created += 1
        return future

    async def sleep(self, delay: float) -> None:
        """Suspend until the clock is advanced past ``delay``."""
        await self._arm(delay)

    async def wait_for(self, awaitable, timeout: float):
        """Race ``awaitable`` against a virtual timer; timeout raises as asyncio does."""
        task = asyncio.ensure_future(awaitable)
        timer = self._arm(timeout)
        try:
            done, _ = await asyncio.wait(
                {task, timer}, return_when=asyncio.FIRST_COMPLETED
            )
            if task in done:
                timer.cancel()
                return task.result()
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
            raise asyncio.TimeoutError()
        except asyncio.CancelledError:
            timer.cancel()
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
            raise


async def yield_until(predicate, ticks: int = 10_000) -> None:
    """Spin the event loop (no wall-clock waiting) until ``predicate()`` holds."""
    for _ in range(ticks):
        if predicate():
            return
        await asyncio.sleep(0)
    raise AssertionError("predicate never became true while yielding")


class GateService:
    """Service stand-in whose computes block until the test releases them.

    ``started`` is set from the executor thread as soon as a request is in
    flight (tests wait on it via a second executor thread — event-driven, no
    polling); ``gate`` releases the response.  Nothing is cached: ``lookup``
    always misses, so a repeated body falls through to ``compute``.
    ``stats``/``health`` return empty-ish payloads so ``/stats`` and
    ``/healthz`` keep working.
    """

    def __init__(self) -> None:
        """Create the gate (closed) and the started signal (unset)."""
        self.gate = threading.Event()
        self.started = threading.Event()
        self.calls = 0

    def lookup(self, digest: str) -> None:
        """Miss: the stand-in caches nothing."""
        return None

    def compute(self, *args, **kwargs) -> Answer:
        """Signal arrival, block on the gate, then answer a canned payload."""
        self.calls += 1
        self.started.set()
        assert self.gate.wait(timeout=30), "GateService gate never released"
        return Answer("gate", False, b'{"ok":true}')

    def stats(self) -> dict:
        """Empty cache counters."""
        return {}

    def health(self) -> dict:
        """Healthy, never degraded."""
        return {"disk_degraded": False, "breaker_state": "closed", "disk_errors": 0}


# ----------------------------------------------------------------------
# raw-socket clients
# ----------------------------------------------------------------------
async def read_http_response(reader: asyncio.StreamReader):
    """Read one ``Connection: close`` response; return (status, headers, body)."""
    raw = await reader.read()
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, json.loads(body) if body else {}


async def http_request(host, port, verb, path, body=None):
    """Well-behaved request; return (status, headers, parsed JSON body)."""
    reader, writer = await asyncio.open_connection(host, port)
    payload = b"" if body is None else json.dumps(body).encode()
    head = (
        f"{verb} {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "\r\n"
    )
    writer.write(head.encode() + payload)
    await writer.drain()
    response = await read_http_response(reader)
    writer.close()
    await writer.wait_closed()
    return response


async def send_raw(host, port, data: bytes, close_write: bool = False):
    """Send raw bytes (optionally half-closing) and return the parsed response."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(data)
    await writer.drain()
    if close_write:
        writer.write_eof()
    response = await read_http_response(reader)
    writer.close()
    await writer.wait_closed()
    return response


async def slowloris_connect(host, port, partial: bytes):
    """Open a connection, send a partial request, and hold it open.

    Returns ``(reader, writer)`` so the test can keep the connection pinned
    and later collect the server's timeout response (or observe the close).
    """
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(partial)
    await writer.drain()
    return reader, writer
