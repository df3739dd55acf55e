"""Two-tier result store: a memory LRU over an optional disk tier.

The memory tier is a capacity-bounded :class:`~collections.OrderedDict` LRU
(stores, disk promotions and hits refresh recency; the least-recently-used
entry is evicted); the disk tier persists every stored payload as one JSON
blob per digest, written atomically (temp file + :func:`os.replace`) so a
crash mid-write never leaves a truncated blob under the final name.  Reads
fall through memory → disk; a disk hit is promoted back into memory.

The memory tier keeps each payload as its canonical JSON bytes
(:func:`~repro.io.serialization.canonical_json`, about a fifth of the
payload's size as Python objects), which the HTTP server splices into its
responses unparsed (:meth:`ResultCache.get_bytes`); :meth:`ResultCache.get`
parses them afresh on every call, so no caller shares a dict with the cache.

Each blob is an *envelope* ``{"meta": {...}, "payload": {...}}``: the payload
is exactly the canonical-JSON consensus result (still bit-identical to cold
computation), and the metadata carries the entry's observed
``compute_seconds`` and its ``stored_at`` stamp — so ``recompute_seconds_saved``
and the TTL clock survive disk promotions and process restarts.  The
envelope is itself canonical JSON with the payload's bytes embedded
verbatim.  Older envelopes (whose metadata also carried a hit ``frequency``,
now ignored) and pre-envelope blobs (a bare payload object, loaded with
default metadata) still load.

Opt-in TTL expiry (``ResultCache(ttl=...)``) is lazy and covers both tiers:
a lookup whose entry has aged past the TTL removes it everywhere (counted in
``expirations``) and reports a miss, so the caller recomputes.  All
timestamps are read through an injectable ``clock`` — the same seam the
circuit breaker uses — so the TTL tests never touch wall time.  The default
clock is :func:`time.monotonic`; it restarts at boot, so a blob stamped by a
previous process is treated as freshly stored (it lives at most one more
TTL).  Inject ``clock=time.time`` for wall-clock TTLs across restarts.

Failure containment (degrade, don't die):

- A corrupted disk blob (truncated file, invalid JSON, non-object payload) is
  treated as a miss — the blob is deleted, ``disk_corruptions`` is bumped,
  and the caller recomputes.
- Transient :class:`OSError`\\ s around the disk tier (``ENOSPC``, permission
  flaps, ...) are retried with backoff (:class:`~repro.cache.resilience.RetryPolicy`);
  a load that still fails degrades to a quarantined miss (``disk_errors``),
  never an exception out of :meth:`ResultCache.get`.
- Repeated store/load failures open a
  :class:`~repro.cache.resilience.CircuitBreaker`: the cache degrades to
  memory-only service (``disk_degraded`` in :class:`CacheStats`) instead of
  raising out of :meth:`ResultCache.put`, and a half-open probe re-attaches
  the disk tier once it recovers.
- Startup sweeps stale ``*.json.tmp`` files left by a crash between the temp
  write and the atomic rename.

All filesystem access goes through an injectable :class:`LocalFilesystem`
seam so the fault-injection harness (``tests/cache/faults.py``) can fail,
tear, or delay any operation on a schedule.  All cache operations are guarded
by one lock so the HTTP front-end can compute cache misses on executor
threads; counters are reported as an immutable :class:`CacheStats` snapshot.
"""

from __future__ import annotations

import functools
import json
import math
import os
import threading
import time
from collections import OrderedDict
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.cache.resilience import CLOSED, CircuitBreaker, RetryPolicy
from repro.io.serialization import canonical_json

__all__ = ["CacheStats", "DiskTier", "LocalFilesystem", "ResultCache"]


class LocalFilesystem:
    """Direct filesystem operations behind the :class:`DiskTier` seam.

    Every disk-tier touch routes through one of these methods so the
    fault-injection harness can subclass this and fail operations on a
    schedule (ENOSPC, EACCES, torn writes) without monkeypatching.
    """

    def read_text(self, path: Path) -> str:
        """Return the text contents of ``path``."""
        return Path(path).read_text()

    def write_text(self, path: Path, text: str) -> None:
        """Write ``text`` to ``path``."""
        Path(path).write_text(text)

    def replace(self, source: Path, destination: Path) -> None:
        """Atomically rename ``source`` over ``destination``."""
        os.replace(source, destination)

    def unlink(self, path: Path, missing_ok: bool = False) -> None:
        """Remove ``path``."""
        Path(path).unlink(missing_ok=missing_ok)

    def glob(self, directory: Path, pattern: str) -> list[Path]:
        """List the paths under ``directory`` matching ``pattern``."""
        return list(Path(directory).glob(pattern))

    def stat(self, path: Path) -> os.stat_result:
        """Stat ``path``."""
        return Path(path).stat()

    def mkdir(self, directory: Path) -> None:
        """Create ``directory`` (and parents) if missing."""
        Path(directory).mkdir(parents=True, exist_ok=True)


@dataclass(frozen=True)
class CacheStats:
    """Immutable snapshot of the cache counters.

    ``hits`` always equals ``memory_hits + disk_hits``; ``disk_corruptions``
    counts blobs that were discarded as unreadable (each also counted as a
    miss).  ``disk_errors`` counts disk operations that still failed after
    retries (reads degrade to quarantined misses, writes to memory-only
    stores); ``disk_degraded`` is ``True`` while the disk circuit breaker is
    not closed — the cache is serving memory-only — and ``breaker_state``
    reports the breaker verbatim (``closed``/``open``/``half-open``).
    ``memory_entries``/``disk_entries``/``disk_bytes`` are the current sizes,
    not lifetime counters.  ``invalidations`` counts entries removed because
    their profile changed (explicit :meth:`ResultCache.invalidate` calls, as
    the streaming engine issues after every update) — distinct from
    ``evictions``, which are capacity-driven; ``profile_version`` echoes the
    version recorded by the most recent invalidation (0 before any).

    ``expirations`` counts entries dropped because they aged past the TTL
    (each such lookup is also a miss), and ``recompute_seconds_saved`` is the
    lifetime sum of the served entries' observed compute costs (every memory
    or disk hit adds the entry's ``compute_seconds``).
    """

    hits: int = 0
    misses: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    evictions: int = 0
    disk_corruptions: int = 0
    memory_entries: int = 0
    disk_entries: int = 0
    disk_bytes: int = 0
    disk_errors: int = 0
    disk_degraded: bool = False
    breaker_state: str = CLOSED
    invalidations: int = 0
    profile_version: int = 0
    expirations: int = 0
    recompute_seconds_saved: float = 0.0

    @property
    def requests(self) -> int:
        """Total lookups observed (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when no lookups yet)."""
        if self.requests == 0:
            return 0.0
        return self.hits / self.requests

    def to_dict(self) -> dict[str, object]:
        """JSON-safe view including the derived ``requests``/``hit_rate``."""
        payload: dict[str, object] = asdict(self)
        payload["requests"] = self.requests
        payload["hit_rate"] = self.hit_rate
        return payload


@dataclass
class _MemoryEntry:
    """One resident payload plus the metadata its disk envelope carries.

    ``payload`` is the payload's canonical JSON bytes.  ``stored_at`` is the
    injectable-clock stamp of the original ``put`` (kept across disk
    promotions, so TTL measures age since compute, not since promotion);
    ``compute_seconds`` is the observed cost of computing the payload (0.0
    when the caller did not report one).
    """

    payload: bytes
    stored_at: float
    compute_seconds: float


def _wrap_entry(entry: _MemoryEntry) -> str:
    """The disk-blob envelope of ``entry`` (payload plus metadata) as canonical JSON.

    Byte for byte :func:`canonical_json` of the envelope dict: sorted keys
    put ``meta`` before ``payload``, and the payload's canonical bytes are
    what that encode would write for it, so they are embedded as they are.
    """
    meta = canonical_json(
        {"compute_seconds": entry.compute_seconds, "stored_at": entry.stored_at}
    )
    return '{"meta":' + meta + ',"payload":' + entry.payload.decode("ascii") + "}"


def _unwrap_blob(blob: dict, now: float) -> _MemoryEntry:
    """Rebuild a memory entry from a disk blob (envelope or legacy bare payload).

    A ``stored_at`` in the future — the monotonic clock restarted, or the
    blob was written by another process — is clamped to ``now`` so the entry
    counts as freshly stored instead of surviving a TTL forever.  Metadata
    that is not a finite number (a NaN ``stored_at`` would never expire)
    falls back to the defaults.  Other meta keys (the ``frequency`` that
    older envelopes carry) are ignored.
    """
    payload = blob.get("payload")
    meta = blob.get("meta")
    if not isinstance(payload, dict) or not isinstance(meta, dict):
        # Legacy pre-envelope blob: the payload itself, default metadata.
        return _MemoryEntry(_encode(blob), stored_at=now, compute_seconds=0.0)
    try:
        stored_at = float(meta.get("stored_at", now))
        compute_seconds = float(meta.get("compute_seconds", 0.0))
        if not (math.isfinite(stored_at) and math.isfinite(compute_seconds)):
            raise ValueError("non-finite blob metadata")
    except (TypeError, ValueError):
        stored_at, compute_seconds = now, 0.0
    return _MemoryEntry(
        _encode(payload),
        stored_at=min(stored_at, now),
        compute_seconds=max(0.0, compute_seconds),
    )


def _encode(payload: dict) -> bytes:
    """The canonical JSON bytes the memory tier keeps for ``payload``."""
    return canonical_json(payload).encode()


class DiskTier:
    """One-JSON-blob-per-digest persistent tier under ``directory``.

    Blobs are canonical JSON objects named ``<digest>.json``.  Loading a blob
    that is missing returns ``None``; loading one that is unreadable —
    corrupt content *or* a persistent ``OSError`` such as permission denied —
    degrades to ``None`` while reporting the corruption/error to the caller
    via :meth:`pop_corruptions`/:meth:`pop_errors`.  Transient ``OSError``\\ s
    are retried per ``retry``; construction sweeps stale ``*.json.tmp`` files
    left by a crash mid-store.
    """

    def __init__(
        self,
        directory: str | Path,
        retry: RetryPolicy | None = None,
        fs: LocalFilesystem | None = None,
    ) -> None:
        """Create (if needed) and bind the blob directory.

        ``retry`` wraps every filesystem operation (default: 3 attempts with
        exponential backoff); ``fs`` is the filesystem seam the fault harness
        substitutes.
        """
        self._directory = Path(directory)
        self._retry = retry if retry is not None else RetryPolicy()
        self._fs = fs if fs is not None else LocalFilesystem()
        self._corruptions = 0
        self._errors = 0
        self._fs.mkdir(self._directory)
        self._sweep_stale_temp_files()

    @property
    def directory(self) -> Path:
        """The blob directory."""
        return self._directory

    def path_for(self, digest: str) -> Path:
        """Blob path of ``digest``."""
        return self._directory / f"{digest}.json"

    def _sweep_stale_temp_files(self) -> None:
        """Remove ``*.json.tmp`` leftovers from a crash between write and rename."""
        try:
            for stale in self._fs.glob(self._directory, "*.json.tmp"):
                self._fs.unlink(stale, missing_ok=True)
        except OSError:
            # The sweep is best-effort hygiene; a listing/unlink failure here
            # must not stop the tier from coming up.
            self._errors += 1

    def load(self, digest: str) -> dict | None:
        """Return the stored payload, or ``None`` on a miss.

        Returns
        -------
        The payload dictionary, or ``None`` when the blob is missing, was
        discarded as corrupt, or could not be read at all (persistent
        ``OSError`` after retries).  The caller distinguishes the cases via
        :meth:`pop_corruptions`/:meth:`pop_errors` — :class:`ResultCache`
        tracks both counters and feeds its disk circuit breaker from them.
        """
        path = self.path_for(digest)
        try:
            text = self._retry.call(functools.partial(self._fs.read_text, path))
        except FileNotFoundError:
            return None
        except OSError:
            # Permission denied, I/O error, ...: a quarantined miss, never an
            # exception into ResultCache.get.  The blob stays put (we may not
            # even be able to unlink it); the error counter reports it.
            self._errors += 1
            return None
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            payload = None
        if not isinstance(payload, dict):
            # Truncated or otherwise mangled blob: drop it so the slot heals
            # on the next store, and let the caller recompute.
            try:
                self._fs.unlink(path, missing_ok=True)
            except OSError:
                self._errors += 1
            self._corruptions += 1
            return None
        return payload

    def pop_corruptions(self) -> int:
        """Return and reset the number of blobs discarded since the last call."""
        count = self._corruptions
        self._corruptions = 0
        return count

    def pop_errors(self) -> int:
        """Return and reset the number of failed disk operations since the last call."""
        count = self._errors
        self._errors = 0
        return count

    def store(self, digest: str, payload: dict) -> None:
        """Atomically persist ``payload`` as the blob for ``digest``.

        The blob is the payload's canonical JSON (:meth:`store_text`).
        """
        self.store_text(digest, canonical_json(payload))

    def store_text(self, digest: str, blob: str) -> None:
        """Atomically persist the JSON text ``blob`` (plus a newline) for ``digest``.

        Transient failures are retried per the tier's
        :class:`~repro.cache.resilience.RetryPolicy`; a persistent failure
        raises the final :class:`OSError` (after a best-effort cleanup of the
        temp file) so :class:`ResultCache` can count it and trip its breaker.
        """
        path = self.path_for(digest)
        temporary = path.with_suffix(".json.tmp")
        text = blob + "\n"

        def _write_and_rename() -> None:
            self._fs.write_text(temporary, text)
            self._fs.replace(temporary, path)

        try:
            self._retry.call(_write_and_rename)
        except OSError:
            try:
                self._fs.unlink(temporary, missing_ok=True)
            except OSError:
                pass
            raise

    def delete(self, digest: str) -> bool:
        """Remove the blob for ``digest``; returns whether one was present.

        A missing blob is a clean no-op.  A persistent ``OSError`` after
        retries is absorbed into the error counter (the caller's breaker
        logic picks it up via :meth:`pop_errors`) and reported as ``False``.
        """
        path = self.path_for(digest)
        try:
            self._retry.call(functools.partial(self._fs.unlink, path))
        except FileNotFoundError:
            return False
        except OSError:
            self._errors += 1
            return False
        return True

    def entry_count(self) -> int:
        """Number of blobs currently on disk (0 when the listing itself fails)."""
        try:
            return len(self._fs.glob(self._directory, "*.json"))
        except OSError:
            self._errors += 1
            return 0

    def total_bytes(self) -> int:
        """Total size in bytes of the blobs currently on disk.

        A blob unlinked between the listing and its ``stat`` (or made
        unreadable) is skipped instead of raising out of ``/stats``.
        """
        try:
            paths = self._fs.glob(self._directory, "*.json")
        except OSError:
            self._errors += 1
            return 0
        total = 0
        for path in paths:
            try:
                total += self._fs.stat(path).st_size
            except OSError:
                continue
        return total


class ResultCache:
    """Memory-LRU-over-disk result cache keyed by content digest.

    Parameters
    ----------
    memory_capacity:
        Maximum number of payloads held in memory; the least recently used
        entry is evicted (counted in :class:`CacheStats.evictions`) when a
        store or a disk promotion exceeds it.  ``None`` disables the bound.
    directory:
        Optional disk-tier directory.  When set, every stored payload is also
        persisted, memory evictions remain servable from disk, and the cache
        survives process restarts.
    retry:
        Retry policy wrapped around every disk-tier filesystem operation
        (default: 3 attempts, exponential backoff).
    breaker:
        Disk circuit breaker.  While it is not closed the cache serves
        memory-only (``disk_degraded`` in :class:`CacheStats`); a half-open
        probe re-attaches the disk tier after recovery.  Defaults to a
        3-failure threshold with a 30 s recovery window.
    fs:
        Filesystem seam handed to the disk tier (fault-injection tests
        substitute a scheduled-failure implementation).
    ttl:
        Optional time-to-live in seconds.  A lookup whose entry has aged
        ``ttl`` or more since its original ``put`` removes it from both tiers
        (counted in ``expirations``) and reports a miss.  ``None`` (default)
        disables expiry.
    clock:
        Injectable time source behind ``ttl`` stamps and checks (default
        :func:`time.monotonic`; tests substitute a manual clock).
    """

    def __init__(
        self,
        memory_capacity: int | None = 256,
        directory: str | Path | None = None,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        fs: LocalFilesystem | None = None,
        ttl: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        """See the class docstring for the parameter contract."""
        if memory_capacity is not None and memory_capacity < 1:
            raise ValueError("memory_capacity must be at least 1 (or None)")
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive seconds (or None)")
        self._capacity = memory_capacity
        self._memory: OrderedDict[str, _MemoryEntry] = OrderedDict()
        self._ttl = ttl
        self._clock = clock
        self._disk = (
            DiskTier(directory, retry=retry, fs=fs) if directory is not None else None
        )
        self._breaker = breaker if breaker is not None else CircuitBreaker()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._memory_hits = 0
        self._disk_hits = 0
        self._evictions = 0
        self._expirations = 0
        self._saved_seconds = 0.0
        self._disk_corruptions = 0
        self._disk_errors = 0
        self._invalidations = 0
        self._profile_version = 0
        if self._disk is not None:
            # Errors during the construction-time temp-file sweep count — and
            # they are disk-fault evidence: feed the breaker so a cache built
            # on an already-faulty disk does not start closed regardless.
            errors = self._disk.pop_errors()
            self._disk_errors += errors
            if errors:
                self._breaker.record_failure()

    @property
    def disk(self) -> DiskTier | None:
        """The disk tier, or ``None`` when the cache is memory-only."""
        return self._disk

    @property
    def breaker(self) -> CircuitBreaker:
        """The disk circuit breaker (meaningful only with a disk tier)."""
        return self._breaker

    @property
    def ttl(self) -> float | None:
        """The configured time-to-live in seconds, or ``None``."""
        return self._ttl

    def _admit(self, digest: str, entry: _MemoryEntry) -> None:
        """Insert into the memory tier, evicting the LRU entry past capacity."""
        self._memory[digest] = entry
        self._memory.move_to_end(digest)
        if self._capacity is not None:
            while len(self._memory) > self._capacity:
                self._memory.popitem(last=False)
                self._evictions += 1

    def _expired(self, entry: _MemoryEntry, now: float) -> bool:
        """Whether ``entry`` has aged past the TTL (always fresh without one)."""
        return self._ttl is not None and now - entry.stored_at >= self._ttl

    def _absorb_disk_outcome(self, evidence: bool = True) -> None:
        """Pull the disk tier's corruption/error counters and feed the breaker.

        ``evidence`` marks outcomes that actually exercised the disk (a
        payload was read or written).  A clean file-not-found miss is
        *neutral* — a write-broken disk still answers reads, so letting cold
        misses count as successes would reset the consecutive-failure count
        between failing stores and keep the breaker closed forever.
        """
        assert self._disk is not None
        self._disk_corruptions += self._disk.pop_corruptions()
        errors = self._disk.pop_errors()
        self._disk_errors += errors
        if errors:
            self._breaker.record_failure()
        elif evidence:
            self._breaker.record_success()
        else:
            self._breaker.record_neutral()

    def _drop_expired(self, digest: str, from_memory: bool) -> None:
        """Remove an aged-past-TTL entry from both tiers and count it once.

        The memory entry (when ``from_memory``) and the disk blob are stamped
        by the same original ``put``, so one expiry event covers both tiers —
        deleting the blob too keeps a later lookup from resurrecting the
        stale payload via promotion.
        """
        if from_memory:
            self._memory.pop(digest, None)
        if self._disk is not None and self._breaker.allow():
            deleted = self._disk.delete(digest)
            self._absorb_disk_outcome(evidence=deleted)
        self._expirations += 1

    def get(self, digest: str) -> dict | None:
        """Return the cached payload for ``digest``, or ``None`` on a miss.

        :meth:`get_bytes` parsed: every call returns a new dict, so a caller
        may change it without touching the cached entry.
        """
        data = self.get_bytes(digest)
        return None if data is None else json.loads(data)

    def get_bytes(self, digest: str) -> bytes | None:
        """Return the cached payload's canonical JSON bytes, or ``None`` on a miss.

        An entry that has aged past the TTL — in either tier — is removed and
        reported as a miss (counted in ``expirations``), so the caller
        recomputes.  While the disk breaker is open the disk tier is skipped
        entirely (memory-only service); a half-open probe read decides
        whether it closes again.  A disk hit re-encodes the blob's payload
        canonically before it enters the memory tier.
        """
        with self._lock:
            now = self._clock()
            entry = self._memory.get(digest)
            if entry is not None:
                if self._expired(entry, now):
                    self._drop_expired(digest, from_memory=True)
                else:
                    self._memory.move_to_end(digest)
                    self._hits += 1
                    self._memory_hits += 1
                    self._saved_seconds += entry.compute_seconds
                    return entry.payload
            elif self._disk is not None and self._breaker.allow():
                blob = self._disk.load(digest)
                self._absorb_disk_outcome(evidence=blob is not None)
                if blob is not None:
                    entry = _unwrap_blob(blob, now)
                    if self._expired(entry, now):
                        self._drop_expired(digest, from_memory=False)
                    else:
                        self._hits += 1
                        self._disk_hits += 1
                        self._saved_seconds += entry.compute_seconds
                        self._admit(digest, entry)
                        return entry.payload
            self._misses += 1
            return None

    def put(
        self, digest: str, payload: dict, compute_seconds: float | None = None
    ) -> None:
        """Store ``payload`` under ``digest`` in both tiers.

        :meth:`put_bytes` of the payload's canonical JSON; the cache keeps
        no reference to ``payload`` itself.
        """
        self.put_bytes(digest, _encode(payload), compute_seconds=compute_seconds)

    def put_bytes(
        self, digest: str, data: bytes, compute_seconds: float | None = None
    ) -> None:
        """Store a payload given as its canonical JSON bytes ``data`` in both tiers.

        ``data`` must be :func:`canonical_json` of the payload, encoded: the
        memory tier keeps it as is and the disk blob embeds it verbatim.
        ``compute_seconds`` is the observed cost of producing the payload,
        which every later hit adds to ``recompute_seconds_saved``; omit it and
        the entry is priced as free.
        A disk store that still fails after retries is absorbed — counted in
        ``disk_errors``, reported to the breaker (repeated failures open it
        and degrade the cache to memory-only) — and never raised; the memory
        tier always admits the payload first.
        """
        with self._lock:
            entry = _MemoryEntry(
                data,
                stored_at=self._clock(),
                compute_seconds=max(0.0, float(compute_seconds or 0.0)),
            )
            self._admit(digest, entry)
            if self._disk is None or not self._breaker.allow():
                return
            try:
                self._disk.store_text(digest, _wrap_entry(entry))
            except OSError:
                # store_text() raises without counting; +1 is the final failure.
                self._disk_errors += self._disk.pop_errors() + 1
                self._disk_corruptions += self._disk.pop_corruptions()
                self._breaker.record_failure()
            else:
                self._absorb_disk_outcome()

    def invalidate(
        self, digests: Iterable[str], profile_version: int | None = None
    ) -> int:
        """Remove the given entries from both tiers because their inputs changed.

        This is the explicit invalidation hook the streaming engine calls
        after every profile update: stale consensus payloads are *removed*
        (counted in ``invalidations``, distinct from capacity ``evictions``),
        and ``profile_version`` — when given — is recorded so ``/stats``
        dashboards can tell which profile generation the cache is serving.
        Returns the number of entries that were actually present in at least
        one tier.  Disk deletions honour the circuit breaker: while it is
        open only the memory tier is purged (the stale blob is unreachable
        anyway — reads skip the disk while degraded, and the digest's slot is
        overwritten on the next store).
        """
        removed = 0
        with self._lock:
            for digest in set(digests):
                present = self._memory.pop(digest, None) is not None
                if self._disk is not None and self._breaker.allow():
                    deleted = self._disk.delete(digest)
                    self._absorb_disk_outcome(evidence=deleted)
                    present = present or deleted
                if present:
                    removed += 1
                    self._invalidations += 1
            if profile_version is not None:
                self._profile_version = profile_version
        return removed

    def stats(self) -> CacheStats:
        """Return an immutable snapshot of the counters and current sizes.

        Disk-size listings run first and their failures are absorbed — into
        ``disk_errors`` *and* the circuit breaker — before the snapshot is
        built, so the returned counters include the errors this very call
        observed and a dead disk hammered only via ``/stats`` still trips
        degradation.  (The breaker state is re-read after absorption for the
        same reason.)  Listings are skipped while the breaker is not closed;
        ``state`` is inspected directly rather than ``allow()`` so a stats
        poll never consumes the half-open probe a real read should get.
        """
        with self._lock:
            disk_entries = 0
            disk_bytes = 0
            if self._disk is not None and self._breaker.state == CLOSED:
                disk_entries = self._disk.entry_count()
                disk_bytes = self._disk.total_bytes()
                # Absorb listing errors (and feed the breaker) BEFORE the
                # snapshot: pre-fix, the pop happened after construction, so
                # the returned disk_errors under-counted and the breaker
                # never saw listing failures.  A clean listing is neutral —
                # it reads directory metadata, not payload bytes.
                self._absorb_disk_outcome(evidence=False)
                if self._breaker.state != CLOSED:
                    disk_entries = 0
                    disk_bytes = 0
            breaker_state = self._breaker.state if self._disk is not None else CLOSED
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                memory_hits=self._memory_hits,
                disk_hits=self._disk_hits,
                evictions=self._evictions,
                disk_corruptions=self._disk_corruptions,
                memory_entries=len(self._memory),
                disk_entries=disk_entries,
                disk_bytes=disk_bytes,
                disk_errors=self._disk_errors,
                disk_degraded=self._disk is not None and breaker_state != CLOSED,
                breaker_state=breaker_state,
                invalidations=self._invalidations,
                profile_version=self._profile_version,
                expirations=self._expirations,
                recompute_seconds_saved=self._saved_seconds,
            )
