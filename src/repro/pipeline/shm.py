"""Shared-memory plan ring: fixed-size slots for encoded plans.

No planner backend uses this ring.  It stays only because the frozen
ledger (``benchmarks/ledger/ledger_checks.py``) imports
:class:`PlanRing` and :class:`ShmUnavailable` and probes one encoded
plan's write + read as ``pipeline.ring_roundtrip_s``; it goes when the
ledger drops that probe.

Protocol
--------
Two segments: a control segment of per-slot headers and a data segment
of fixed-size slots.  Each header is three little-endian ``u64`` words
``[state, seq, length]`` with states ``FREE -> RESERVED -> READY ->
FREE``:

* :meth:`~PlanRing.reserve` claims a ``FREE`` slot (``RESERVED``).
* :meth:`~PlanRing.write` bumps ``seq`` to odd (write in progress),
  copies the payload, stores the length, bumps ``seq`` to even and
  flips the state to ``READY`` — a seqlock-style header, so a reader
  can verify it observed a quiescent slot.
* :meth:`~PlanRing.read` maps the payload (a ``memoryview``, no copy);
  the caller releases the view and :meth:`~PlanRing.free`\\ s the slot.

:meth:`~PlanRing.create` raises :class:`ShmUnavailable` when there is
no ``/dev/shm`` or no ``multiprocessing.shared_memory``;
:meth:`~PlanRing.reserve` returns ``None`` when the ring is full and
:meth:`~PlanRing.write` returns ``False`` when a payload outgrows its
slot.
"""

from __future__ import annotations

import logging
import secrets
import struct
import threading
import weakref
from typing import Optional, Tuple

from ..obs.metrics import Counter
from ..obs.trace import span as _span

__all__ = [
    "ShmUnavailable",
    "PlanRing",
    "DEFAULT_SLOT_BYTES",
    "leaked_maps",
    "reclaim_leaked",
]

_log = logging.getLogger(__name__)

#: Process-wide count of shm segments whose mapping could not be
#: released because a stray exported ``memoryview`` was still alive.
#: Module-level (not per-ring): the leak outlives the ring object that
#: caused it, and diagnosing "why is /dev/shm filling up" needs one
#: number per process, not one per long-dead ring.
_LEAKED_MAPS = Counter("shm.leaked_maps")

#: The leaked segments themselves, kept so the mapping can be retried:
#: a ``BufferError`` at close time only means some exported view was
#: *still alive at that moment* — once the view is garbage-collected,
#: a later ``close()`` succeeds and the map is reclaimed.  Guarded by
#: its own lock (leaks can come from any ring on any thread).
_LEAKED_SEGMENTS: list = []
_LEAK_LOCK = threading.Lock()


def leaked_maps() -> int:
    """Shm mappings leaked by ``BufferError`` on close (this process)."""
    return _LEAKED_MAPS.value


def _leak(segment) -> None:
    _LEAKED_MAPS.inc()
    with _LEAK_LOCK:
        _LEAKED_SEGMENTS.append(segment)
    _log.warning(
        "plan ring segment %s leaked its mapping (exported buffer still "
        "alive at close; segment unlinked regardless)",
        getattr(segment, "name", "<unknown>"),
    )


def reclaim_leaked() -> int:
    """Retry closing previously leaked mappings; return how many freed.

    Runs automatically on the next ring operation after a leak (see
    :meth:`PlanRing.reserve`), so ``shm.leaked_maps`` goes back *down*
    once the stray views that caused the ``BufferError`` have been
    released — the counter reports maps still leaked, not a high-water
    mark.  Segments whose views are still alive stay queued for the
    next attempt.
    """
    with _LEAK_LOCK:
        pending = list(_LEAKED_SEGMENTS)
        _LEAKED_SEGMENTS.clear()
        reclaimed = 0
        for segment in pending:
            try:
                segment.close()
            except BufferError:  # view still alive; keep for next pass
                _LEAKED_SEGMENTS.append(segment)
                continue
            reclaimed += 1
    if reclaimed:
        _LEAKED_MAPS.inc(-reclaimed)
        _log.info("reclaimed %d leaked plan ring mapping(s)", reclaimed)
    return reclaimed

_FREE = 0
_RESERVED = 1
_READY = 2

_HEADER = struct.Struct("<QQQ")

#: Default slot capacity.  The Fig. 18 sweep point's plan encodes to a
#: few MB; pages are allocated lazily, so unused capacity costs nothing.
DEFAULT_SLOT_BYTES = 32 * 1024 * 1024


class ShmUnavailable(RuntimeError):
    """Shared memory cannot be used on this host."""


class PlanRing:
    """A ring of shared-memory plan slots (see module docstring)."""

    def __init__(self, control, data, slots: int, slot_bytes: int) -> None:
        self._control = control
        self._data = data
        self.slots = slots
        self.slot_bytes = slot_bytes
        self._lock = threading.Lock()  # reserve/free
        self._next = 0
        self._finalizer = weakref.finalize(self, _destroy, control, data)

    # -- construction ---------------------------------------------------

    @classmethod
    def create(cls, slots: int = 8,
               slot_bytes: int = DEFAULT_SLOT_BYTES) -> "PlanRing":
        """Allocate a fresh ring; raises :class:`ShmUnavailable`."""
        if slots < 1 or slot_bytes < 1:
            raise ValueError("need at least one slot of at least one byte")
        try:
            from multiprocessing import shared_memory
        except ImportError as exc:  # pragma: no cover - always present
            raise ShmUnavailable(str(exc)) from exc
        token = secrets.token_hex(4)
        control = data = None
        try:
            control = shared_memory.SharedMemory(
                name=f"planring-{token}-ctl", create=True,
                size=slots * _HEADER.size,
            )
            data = shared_memory.SharedMemory(
                name=f"planring-{token}-dat", create=True,
                size=slots * slot_bytes,
            )
        except OSError as exc:
            for segment in (control, data):
                if segment is not None:
                    segment.close()
                    segment.unlink()
            raise ShmUnavailable(str(exc)) from exc
        control.buf[:] = bytes(len(control.buf))
        return cls(control, data, slots, slot_bytes)

    # -- header access --------------------------------------------------

    def _header(self, slot: int) -> Tuple[int, int, int]:
        return _HEADER.unpack_from(self._control.buf, slot * _HEADER.size)

    def _set_header(self, slot: int, state: int, seq: int,
                    length: int) -> None:
        _HEADER.pack_into(self._control.buf, slot * _HEADER.size,
                          state, seq, length)

    # -- slots ------------------------------------------------------------

    def reserve(self) -> Optional[int]:
        """Claim a free slot; ``None`` when the ring is full."""
        reclaim_leaked()
        with self._lock:
            for probe in range(self.slots):
                slot = (self._next + probe) % self.slots
                state, seq, _length = self._header(slot)
                if state == _FREE:
                    self._set_header(slot, _RESERVED, seq, 0)
                    self._next = (slot + 1) % self.slots
                    return slot
        return None

    def read(self, slot: int) -> memoryview:
        """Zero-copy view of a ready slot's payload.

        The caller must ``release()`` the view (and everything derived
        from it) before :meth:`free`-ing the slot or closing the ring.
        """
        with _span("ring.read", "transport", slot=slot):
            state, seq, length = self._header(slot)
            if state != _READY or seq % 2 != 0:
                raise RuntimeError(
                    f"slot {slot} not ready (state={state}, seq={seq})"
                )
            offset = slot * self.slot_bytes
            view = memoryview(self._data.buf)[offset:offset + length]
            if self._header(slot)[1] != seq:  # seqlock re-check
                view.release()
                raise RuntimeError(f"slot {slot} changed during read")
            return view

    def free(self, slot: int) -> None:
        """Return a slot to the ring (reserved or ready, read or not)."""
        with self._lock:
            state, seq, _length = self._header(slot)
            if state != _FREE:
                self._set_header(slot, _FREE, seq, 0)

    def write(self, slot: int, payload) -> bool:
        """Deposit ``payload`` into a reserved slot.

        Returns ``False`` (slot untouched) when the payload does not fit.
        """
        with _span("ring.write", "transport", slot=slot):
            payload = memoryview(payload)
            length = payload.nbytes
            if length > self.slot_bytes:
                return False
            state, seq, _ = self._header(slot)
            if state != _RESERVED:
                raise RuntimeError(
                    f"write to slot {slot} in state {state} (not reserved)"
                )
            self._set_header(slot, _RESERVED, seq + 1, 0)  # odd: writing
            offset = slot * self.slot_bytes
            self._data.buf[offset:offset + length] = payload
            self._set_header(slot, _READY, seq + 2, length)
            return True

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Unmap and unlink the segments (once; later calls do nothing)."""
        self._finalizer()

    def __enter__(self) -> "PlanRing":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _destroy(control, data) -> None:
    for segment in (control, data):
        try:
            segment.close()
        except BufferError:  # a stray exported view; unlink regardless
            _leak(segment)
        try:
            segment.unlink()
        except FileNotFoundError:
            pass
