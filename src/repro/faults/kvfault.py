"""A KV-store proxy that realizes injected faults as typed errors.

Wraps any :class:`~repro.core.kvstore.KVStore`-shaped object; every
operation first consults the :class:`~repro.faults.injector.
FaultInjector` for its target:

* killed       -> :class:`~repro.service.errors.ShardUnavailable`
* slow/hang    -> the operation sleeps the injected delay first
* dropped op   -> :class:`~repro.service.errors.KVOpDropped` (the op
  is *not* applied — a lost message, not a slow one)

The proxy is what the retry/backoff tests and the chaos bench put in
front of real stores; the replicated plan store does its own injector
checks (it needs per-shard routing decisions, not just errors), so
this wrapper stays a thin single-store affair.
"""

from __future__ import annotations

import time
from typing import Optional

from ..service.errors import KVOpDropped, ShardUnavailable
from .injector import FaultInjector

__all__ = ["FaultyKVStore"]

#: Operations the proxy guards (everything that touches entries).
_GUARDED = (
    "put", "put_entry", "put_if_changed", "put_if_changed_entry",
    "get", "get_entry", "get_unless", "get_unless_entry",
    "try_get", "delete", "contains", "keys", "entry_bytes",
    "size_bytes", "expire",
)


def _make_guarded(op: str):
    def method(self, *args, **kwargs):
        self._guard(op)
        return getattr(self._store, op)(*args, **kwargs)

    method.__name__ = op
    method.__qualname__ = f"FaultyKVStore.{op}"
    return method


class FaultyKVStore:
    """Injector-guarded view of a single KV store (see module doc)."""

    def __init__(self, store, injector: FaultInjector, target: str,
                 sleep=time.sleep) -> None:
        self._store = store
        self._injector = injector
        self.target = target
        self._sleep = sleep

    def _guard(self, op: str) -> None:
        delay = self._injector.delay_s(self.target)
        if delay > 0:
            self._sleep(delay)
        if self._injector.is_killed(self.target):
            raise ShardUnavailable(self.target, reason="killed")
        if self._injector.should_drop(self.target, op):
            raise KVOpDropped(self.target, op)

    def __getattr__(self, name: str):
        # Unguarded surface (metrics, host_machine, ...).
        return getattr(self._store, name)

    @property
    def store(self):
        """The wrapped store (for tests asserting on ground truth)."""
        return self._store

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultyKVStore({self.target!r}, {self._store!r})"


for _op in _GUARDED:
    setattr(FaultyKVStore, _op, _make_guarded(_op))


def faulty(store, injector: Optional[FaultInjector], target: str):
    """Wrap ``store`` when an injector is present, else return it."""
    if injector is None:
        return store
    return FaultyKVStore(store, injector, target)
