"""In-memory distributed key-value store (the paper's Redis substitute).

DCP distributes execution plans from planning machines to all devices
"via a distributed key-value store (e.g., Redis) which is located in
host memory in one of the machines" (§6.1).  No network is available
here, so this module provides the smallest faithful equivalent: a
thread-safe blocking KV store with versioned writes.  It shares
``put`` / ``get`` / ``try_get`` / ``contains`` / ``delete`` / ``keys``
/ ``size_bytes`` with the service's
:class:`~repro.service.sharding.ShardedPlanStore` and adds one
conditional pair, :meth:`KVStore.put_if_changed` /
:meth:`KVStore.get_unless`, which the §6.1 distribution route
(:class:`~repro.pipeline.backends.KVPlannerBackend`) uses to republish
and re-pull only the per-device slices a re-plan touched.

The accounting matters for the planner-overlap analysis: serialized
plans are megabytes, and shipping them must not erase the benefit of
parallel planning.

Every lookup — including a :meth:`KVStore.try_get` miss and a
timed-out blocking get — lands in ``kv.gets``/``kv.get_s`` with misses
broken out in ``kv.get_misses``, so the cache-miss-heavy traffic of
multi-tenant serving (:mod:`repro.service`) is accounted honestly.
Residency is the caller's to bound: ``KVPlannerBackend`` deletes the
iterations that fall out of its fetch window.

Values are encoded once, on ``put``: arbitrary objects are pickled —
exactly what crossing a process boundary would require, so stored
plans are true snapshots, not shared mutable objects — while
bytes-like values (e.g. columnar plan payloads from
:mod:`repro.core.planwire`) are stored raw and come back as ``bytes``,
paying no pickle framing.  The stored payload is the single source of
truth for the ``kv.bytes_in`` / ``kv.bytes_out`` counters, and a raw
value read back is exactly the bytes a Redis client would take off the
socket, so a consumer prices a read by ``len`` of what it got.
"""

from __future__ import annotations

import itertools
import pickle
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..obs.metrics import MetricsRegistry
from ..obs.trace import span as _span

__all__ = ["KVStore"]


@dataclass
class _Entry:
    payload: bytes
    version: int
    raw: bool = False

    def value(self) -> Any:
        return self.payload if self.raw else pickle.loads(self.payload)


def _encode(value: Any) -> Tuple[bytes, bool]:
    """``(payload, raw)`` — bytes-like values skip the pickle framing."""
    if isinstance(value, (bytes, bytearray, memoryview)):
        return bytes(value), True
    return pickle.dumps(value), False


class KVStore:
    """Thread-safe blocking key-value store with versioned writes."""

    #: The machine the store runs on: a read by a device on another
    #: machine crosses the network.
    host_machine = 0

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._entries: Dict[str, _Entry] = {}
        self._size = 0
        #: Store-wide write counter: a version is never reused, so a
        #: cursor taken before a key was deleted cannot match whatever
        #: is written under that key afterwards.
        self._versions = itertools.count(1)
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        #: Byte accounting and op-latency histograms (``kv.*``) live in
        #: a metrics registry.  Get latency includes any blocking wait —
        #: that *is* the latency a consumer stalled on a
        #: not-yet-published plan experiences.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._bytes_in = self.metrics.counter("kv.bytes_in")
        self._bytes_out = self.metrics.counter("kv.bytes_out")
        self._puts = self.metrics.counter("kv.puts")
        self._gets = self.metrics.counter("kv.gets")
        self._get_misses = self.metrics.counter("kv.get_misses")
        self._put_s = self.metrics.histogram("kv.put_s")
        self._get_s = self.metrics.histogram("kv.get_s")

    # -- resident-size bookkeeping (lock held) ---------------------------

    def _insert(self, key: str, entry: _Entry) -> None:
        previous = self._entries.pop(key, None)
        if previous is not None:
            self._size -= len(previous.payload)
        self._entries[key] = entry
        self._size += len(entry.payload)

    def _drop(self, key: str) -> Optional[_Entry]:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._size -= len(entry.payload)
        return entry

    # -- primitives -----------------------------------------------------

    def put(self, key: str, value: Any) -> int:
        """Store ``value`` under ``key``; returns the new version."""
        start = time.perf_counter()
        with _span("kv.put", "kv", key=key):
            payload, raw = _encode(value)
            with self._changed:
                version = next(self._versions)
                self._insert(key, _Entry(payload=payload, version=version,
                                         raw=raw))
                self._bytes_in.inc(len(payload))
                self._changed.notify_all()
        self._puts.inc()
        self._put_s.observe(time.perf_counter() - start)
        return version

    def put_if_changed(self, key: str, value: Any) -> Tuple[int, bool]:
        """Store ``value`` unless the current payload is byte-identical.

        Returns ``(version, changed)``.  An unchanged write keeps the
        existing entry — same version, no bytes moved — which is what
        lets a re-planned plan republish only the per-device slices the
        re-plan actually touched: consumers holding the old version
        cursor see the unchanged slices as still-fresh
        (:meth:`get_unless`).
        """
        start = time.perf_counter()
        with _span("kv.put_if_changed", "kv", key=key):
            payload, raw = _encode(value)
            with self._changed:
                previous = self._entries.get(key)
                if previous is not None and previous.payload == payload:
                    result = previous.version, False
                else:
                    version = next(self._versions)
                    self._insert(key, _Entry(
                        payload=payload, version=version, raw=raw,
                    ))
                    self._bytes_in.inc(len(payload))
                    self._changed.notify_all()
                    result = version, True
        self._puts.inc()
        self._put_s.observe(time.perf_counter() - start)
        return result

    def get(self, key: str, timeout: Optional[float] = None) -> Any:
        """Fetch ``key``, blocking until it exists.

        Raises ``KeyError`` if the timeout expires first.
        """
        return self.get_unless(key, timeout=timeout)[0]

    def _record_get(self, start: float, miss: bool = False) -> None:
        """Every lookup — hit, miss or timeout — lands in the metrics.

        Misses used to vanish from ``kv.gets``/``kv.get_s`` entirely,
        which skewed hit rates and latency quantiles exactly under the
        cache-miss-heavy traffic multi-tenant serving produces.
        """
        if miss:
            self._get_misses.inc()
        self._gets.inc()
        self._get_s.observe(time.perf_counter() - start)

    def get_unless(
        self,
        key: str,
        version: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> Tuple[Optional[Any], int, bool]:
        """Conditional fetch: ``(value, version, fetched)``.

        Blocks until ``key`` exists (``KeyError`` on timeout), then —
        if the stored version equals the caller's cursor — returns
        ``(None, version, False)`` without moving the payload: the
        caller's copy is still current.  Otherwise returns the value
        and its version, charging the payload like :meth:`get`.  The
        version cursor is what a re-fetching consumer sends instead of
        re-reading a slice that a partial republish left untouched.
        """
        start = time.perf_counter()
        with _span("kv.get_unless" if version is not None else "kv.get",
                   "kv", key=key):
            with self._changed:
                if not self._changed.wait_for(
                    lambda: key in self._entries, timeout=timeout
                ):
                    self._record_get(start, miss=True)
                    raise KeyError(key)
                entry = self._entries[key]
                if version is not None and entry.version == version:
                    result = None, entry.version, False
                else:
                    self._bytes_out.inc(len(entry.payload))
                    result = entry.value(), entry.version, True
        self._record_get(start)
        return result

    def try_get(self, key: str) -> Optional[Any]:
        """Fetch ``key`` if present, else ``None`` (non-blocking).

        A miss is a lookup too: it counts into ``kv.gets`` and
        ``kv.get_misses`` and its latency lands in ``kv.get_s`` (the
        early return used to skip all three, hiding exactly the traffic
        a multi-tenant cache-miss-heavy workload is made of).
        """
        start = time.perf_counter()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._record_get(start, miss=True)
                return None
            self._bytes_out.inc(len(entry.payload))
            value = entry.value()
        self._record_get(start)
        return value

    def delete(self, key: str) -> bool:
        """Remove ``key``; True if it existed."""
        with self._lock:
            return self._drop(key) is not None

    def contains(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self, prefix: Optional[str] = None):
        """All keys, or only those under ``prefix`` (partial-plan scans)."""
        with self._lock:
            if prefix is None:
                return sorted(self._entries)
            return sorted(k for k in self._entries if k.startswith(prefix))

    def size_bytes(self) -> int:
        """Resident bytes on the host machine."""
        with self._lock:
            return self._size

