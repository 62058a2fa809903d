"""Buffer-slot management for plan serialization (paper §5).

Each device holds one logical buffer per block type; blocks are
identified by (type, slot index).  The manager allocates slots, reuses
freed ones, and records the high-water mark that sizes the executor's
allocation — mirroring the paper's "maximally reuse buffer indices that
contain no longer needed blocks".
"""

from __future__ import annotations

from typing import Dict, List, Set

__all__ = ["BufferManager"]


class BufferManager:
    """Slot allocator with free-list reuse, one namespace per buffer."""

    def __init__(self) -> None:
        self._next: Dict[str, int] = {}
        self._free: Dict[str, List[int]] = {}
        self._live: Dict[str, Set[int]] = {}

    def alloc(self, buffer: str) -> int:
        free = self._free.setdefault(buffer, [])
        if free:
            slot = free.pop()
        else:
            slot = self._next.get(buffer, 0)
            self._next[buffer] = slot + 1
        self._live.setdefault(buffer, set()).add(slot)
        return slot

    def free(self, buffer: str, slot: int) -> None:
        live = self._live.get(buffer, set())
        if slot not in live:
            raise ValueError(f"double free of {buffer}[{slot}]")
        live.remove(slot)
        self._free[buffer].append(slot)

    def sizes(self) -> Dict[str, int]:
        return dict(self._next)
