"""Shared-memory plan ring: the zero-copy half of plan transport.

Planner workers encode plans into the columnar wire format
(:mod:`repro.core.planwire`) and deposit the bytes into a ring of
POSIX shared-memory slots; the parent maps the slot and decodes the
plan straight out of shared memory — the only per-byte copy on the
whole path is the worker's single write into the slot.

Protocol
--------
Two segments: a control segment of per-slot headers and a data segment
of fixed-size slots.  Each header is three little-endian ``u64`` words
``[state, seq, length]`` with states ``FREE -> RESERVED -> READY ->
FREE``:

* The **parent** owns allocation: :meth:`reserve` claims a ``FREE``
  slot (``RESERVED``) *before* dispatching the job and ships the slot
  index with it, so writers never race for slots and no cross-process
  lock exists anywhere in the protocol.
* The **worker** owns its reserved slot until the job's result is
  consumed: :meth:`write` bumps ``seq`` to odd (write in progress),
  copies the payload, stores the length, bumps ``seq`` to even and
  flips the state to ``READY`` — a seqlock-style header, so a reader
  can verify it observed a quiescent slot.
* The parent maps the payload with :meth:`read` (a ``memoryview``, no
  copy), decodes, releases the view, and :meth:`free`\\ s the slot.

Fallbacks are the caller's job and transparent by construction: when
:meth:`~PlanRing.create` raises :class:`ShmUnavailable` (no
``/dev/shm``, no ``multiprocessing.shared_memory``), when the ring is
momentarily full (:meth:`reserve` returns ``None``), or when a payload
outgrows its slot (:meth:`write` returns ``False``), the encoded plan
simply travels over the process-pool result pipe instead — same bytes,
one extra copy.
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


def _leak(segment, unlinked: bool) -> None:
    _LEAKED_MAPS.inc()
    with _LEAK_LOCK:
        _LEAKED_SEGMENTS.append(segment)
    _log.warning(
        "plan ring segment %s leaked its mapping (exported buffer still "
        "alive at close%s)",
        getattr(segment, "name", "<unknown>"),
        "; segment unlinked regardless" if unlinked else
        "; /dev/shm segment may persist",
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
#: few MB; 32 MB per slot keeps even large sweeps on the zero-copy path
#: while a full default ring stays well under /dev/shm allowances
#: (pages are allocated lazily, so unused capacity costs nothing).
DEFAULT_SLOT_BYTES = 32 * 1024 * 1024


class ShmUnavailable(RuntimeError):
    """Shared memory cannot be used on this host; fall back to pipes."""


class _untracked:
    """Suppress resource-tracker registration while attaching.

    Before Python 3.13 (``SharedMemory(track=False)``) every attach
    registers the segment with a resource tracker; a pool worker's
    tracker would then unlink the parent-owned segment when the worker
    exits (or, sharing the parent's tracker under ``fork``, corrupt the
    parent's registration).  Only the creating process may track the
    ring, so attachments register nothing.
    """

    def __enter__(self) -> None:
        from multiprocessing import resource_tracker

        self._module = resource_tracker
        self._register = resource_tracker.register
        resource_tracker.register = lambda name, rtype: None

    def __exit__(self, *exc) -> None:
        self._module.register = self._register


class PlanRing:
    """A ring of shared-memory plan slots (see module docstring)."""

    def __init__(self, control, data, slots: int, slot_bytes: int,
                 owner: bool) -> None:
        self._control = control
        self._data = data
        self.slots = slots
        self.slot_bytes = slot_bytes
        self._owner = owner
        self._lock = threading.Lock()  # parent-side reserve/free
        self._next = 0
        if owner:
            self._finalizer = weakref.finalize(
                self, _destroy, control, data
            )
        else:
            self._finalizer = None

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
        return cls(control, data, slots, slot_bytes, owner=True)

    def spec(self) -> Tuple[str, str, int, int]:
        """What a worker needs to :meth:`attach`: names and geometry."""
        return (self._control.name, self._data.name, self.slots,
                self.slot_bytes)

    @classmethod
    def attach(cls, spec: Tuple[str, str, int, int]) -> "PlanRing":
        """Map an existing ring from its :meth:`spec` (worker side)."""
        from multiprocessing import shared_memory

        control_name, data_name, slots, slot_bytes = spec
        with _untracked():
            control = shared_memory.SharedMemory(name=control_name)
            data = shared_memory.SharedMemory(name=data_name)
        return cls(control, data, slots, slot_bytes, owner=False)

    # -- header access --------------------------------------------------

    def _header(self, slot: int) -> Tuple[int, int, int]:
        return _HEADER.unpack_from(self._control.buf, slot * _HEADER.size)

    def _set_header(self, slot: int, state: int, seq: int,
                    length: int) -> None:
        _HEADER.pack_into(self._control.buf, slot * _HEADER.size,
                          state, seq, length)

    # -- parent side ----------------------------------------------------

    def reserve(self) -> Optional[int]:
        """Claim a free slot for one job; ``None`` when the ring is full."""
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

    # -- worker side ----------------------------------------------------

    def write(self, slot: int, payload) -> bool:
        """Deposit ``payload`` into a reserved slot.

        Returns ``False`` (slot untouched, caller falls back to the
        pipe) when the payload does not fit.
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
        """Unmap; the owner also unlinks the segments."""
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
            return
        for segment in (self._control, self._data):
            try:
                segment.close()
            except BufferError:  # a stray exported view; leak the map
                _leak(segment, unlinked=False)

    def __enter__(self) -> "PlanRing":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _destroy(control, data) -> None:
    for segment in (control, data):
        try:
            segment.close()
        except BufferError:  # a stray exported view; unlink regardless
            _leak(segment, unlinked=True)
        try:
            segment.unlink()
        except FileNotFoundError:
            pass
