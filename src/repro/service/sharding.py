"""Consistent-hash sharded plan store with R-way replication.

One coarse :class:`~repro.core.kvstore.KVStore` lock serializes every
tenant of a multi-tenant plan service; sharding the keyspace over a
ring of independent stores gives each shard its own lock, so
unrelated signatures never contend.

:class:`HashRing` is the textbook construction: each node projects
``HashRing.REPLICAS`` virtual points onto a 64-bit circle (blake2b of
``"node#i"``), and a key belongs to the first node point at or after
the key's own hash.  The store builds its ring once; it never grows
or shrinks afterwards.

Replication (Dynamo-style) makes the store survive shard loss:

* a key's **owners** are the first ``replication`` *distinct* nodes
  clockwise from its hash (:meth:`HashRing.nodes_for`); writes go to
  every owner, and one reachable owner is enough for the write to
  succeed (missed replicas are healed later);
* reads fall back **replica by replica** in owner order, a killed
  shard failing at once (no timeout paid per dead shard), and
  **write-repair** any reachable owner found missing the key;
* a restarted shard is healed by that read repair plus
  **anti-entropy** (:meth:`ShardedPlanStore.sync`): scan every
  reachable shard, re-copy each key to any owner missing it.

Fault *injection* — the chaos harness — plugs in as an optional
:class:`~repro.faults.injector.FaultInjector`: a killed shard raises
:class:`~repro.service.errors.ShardUnavailable` on every operation
(no timeout is paid), a slow shard stalls, and a kill→restart cycle
wipes the shard's contents (a real process restart loses host
memory), which is exactly what replication must survive.  A restarted
shard takes traffic again on its next operation.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_right
from hashlib import blake2b
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.kvstore import KVStore
from ..obs.metrics import MetricsRegistry
from ..obs.trace import span as _span
from .errors import ShardUnavailable, TransientServiceError

__all__ = ["HashRing", "ShardedPlanStore"]


def _point(label: str) -> int:
    return int.from_bytes(blake2b(label.encode(), digest_size=8).digest(),
                          "big")


class HashRing:
    """Consistent-hash ring mapping string keys to named nodes."""

    #: Virtual nodes per node: enough points that keys spread evenly.
    REPLICAS = 64

    def __init__(self, nodes: Sequence[str]) -> None:
        self._points: List[Tuple[int, str]] = []
        self._nodes: List[str] = []
        for node in nodes:
            self.add(node)
        if not self._nodes:
            raise ValueError("need at least one node")

    def add(self, node: str) -> None:
        if node in self._nodes:
            raise ValueError(f"node {node!r} already on the ring")
        self._nodes.append(node)
        for replica in range(self.REPLICAS):
            self._points.append((_point(f"{node}#{replica}"), node))
        self._points.sort()

    def nodes_for(self, key: str, count: int = 1) -> List[str]:
        """First ``count`` *distinct* nodes clockwise from ``key``.

        The replication owner list: ``nodes_for(key, R)[0]`` is the
        primary, the rest are successor replicas.  ``count`` beyond
        the node population is clamped (you cannot hold more copies
        than there are shards).
        """
        count = min(max(count, 1), len(self._nodes))
        point = _point(key)
        index = bisect_right(self._points, (point, "￿"))
        total = len(self._points)
        out: List[str] = []
        seen: set = set()
        for probe in range(total):
            node = self._points[(index + probe) % total][1]
            if node not in seen:
                seen.add(node)
                out.append(node)
                if len(out) == count:
                    break
        return out


class ShardedPlanStore:
    """A replicated ring of per-shard :class:`KVStore` nodes.

    Every shard is a full store — versioned writes, blocking gets —
    but each holds its own lock, so the coarse serialization of one
    shared store disappears for keys that hash apart.  All shards feed
    the same metrics registry: ``kv.*`` counters aggregate across
    shards, ``service.*`` gauges/counters track the ring, replication,
    and repair machinery.

    With ``replication`` R > 1 the store tolerates R-1 simultaneous
    shard losses with no lost keys (see the module docstring for the
    write/read/repair protocol).  ``fault_injector`` wires the chaos
    harness in; ``anti_entropy_interval_s`` starts a background healer
    thread (otherwise call :meth:`sync` explicitly after failure
    events).
    """

    def __init__(
        self,
        shards: int = 4,
        replication: int = 1,
        metrics: Optional[MetricsRegistry] = None,
        fault_injector=None,
        anti_entropy_interval_s: Optional[float] = None,
    ) -> None:
        if shards < 1:
            raise ValueError("need at least one shard")
        if replication < 1:
            raise ValueError("replication must be positive")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.replication = min(replication, shards)
        self._injector = fault_injector
        #: Guards the restart check-and-swap of a shard's backing store.
        self._restart_lock = threading.Lock()
        self._seen_restarts: Dict[str, int] = {}
        names = [f"shard{i}" for i in range(shards)]
        self.ring = HashRing(names)
        self._stores: Dict[str, KVStore] = {
            name: KVStore(metrics=self.metrics) for name in names
        }
        self.metrics.gauge("service.store_shards").set(shards)
        self._write_failures = self.metrics.counter(
            "service.replica_write_failures"
        )
        self._read_repairs = self.metrics.counter("service.read_repairs")
        self._ae_repairs = self.metrics.counter(
            "service.antientropy_repairs"
        )
        self._restarts_seen = self.metrics.counter(
            "service.shard_restarts_seen"
        )
        self._closed = threading.Event()
        self._ae_thread: Optional[threading.Thread] = None
        if anti_entropy_interval_s is not None:
            if anti_entropy_interval_s <= 0:
                raise ValueError("anti_entropy_interval_s must be positive")
            self._ae_thread = threading.Thread(
                target=self._anti_entropy_loop,
                args=(anti_entropy_interval_s,),
                name="plan-store-anti-entropy",
                daemon=True,
            )
            self._ae_thread.start()

    @property
    def num_shards(self) -> int:
        return len(self._stores)

    def owners_for(self, key: str) -> List[str]:
        """Owner shard names in preference order (primary first)."""
        return self.ring.nodes_for(key, self.replication)

    # -- guarded shard access -------------------------------------------
    #
    # Every keyed operation flows through _shard_op: restart
    # realization first, then fault injection (delay, kill), then the
    # real store call.

    def _check_restart(self, name: str) -> None:
        """Realize the data loss of a kill→restart cycle, lazily.

        The injector only flips availability; host memory is ours to
        model.  On the first operation after a restart the shard's
        backing store is replaced with a fresh empty one — exactly
        what a real process restart leaves behind.
        """
        if self._injector is None:
            return
        count = self._injector.restart_count(f"shard:{name}")
        with self._restart_lock:
            if self._seen_restarts.get(name, 0) == count:
                return
            self._seen_restarts[name] = count
            self._stores[name] = KVStore(metrics=self.metrics)
        self._restarts_seen.inc()

    def _shard_op(self, name: str, fn):
        self._check_restart(name)
        if self._injector is not None:
            target = f"shard:{name}"
            delay = self._injector.delay_s(target)
            if delay > 0:
                time.sleep(delay)
            if self._injector.is_killed(target):
                raise ShardUnavailable(name, reason="killed")
        return fn(self._stores[name])

    # -- keyed operations ------------------------------------------------

    def put(self, key: str, value: Any) -> int:
        """Write ``key`` to every reachable owner replica.

        Succeeds when at least one replica accepted the write (the
        rest heal by read repair / anti-entropy); raises
        :class:`ShardUnavailable` only when *no* owner is reachable.
        Returns the highest version any replica assigned.
        """
        owners = self.owners_for(key)
        version: Optional[int] = None
        for name in owners:
            try:
                wrote = self._shard_op(name, lambda s: s.put(key, value))
            except TransientServiceError:
                self._write_failures.inc()
                continue
            version = wrote if version is None else max(version, wrote)
        if version is None:
            raise ShardUnavailable(
                "+".join(owners), reason="all_replicas_down"
            )
        return version

    def _read_owner(self, key: str, name: str) -> Optional[Any]:
        return self._shard_op(name, lambda s: s.try_get(key))

    def _repair(self, key: str, value: Any, absent: List[str]) -> None:
        """Write-repair: re-copy ``key`` onto reachable owners that
        missed it (an earlier failed write, a wiped restart)."""
        for name in absent:
            try:
                self._shard_op(name, lambda s: s.put(key, value))
                self._read_repairs.inc()
            except TransientServiceError:
                pass

    def try_get(self, key: str) -> Optional[Any]:
        """Replica-by-replica fetch; ``None`` only if no owner holds it."""
        absent: List[str] = []
        for name in self.owners_for(key):
            try:
                value = self._read_owner(key, name)
            except TransientServiceError:
                continue
            if value is not None:
                if absent:
                    self._repair(key, value, absent)
                return value
            absent.append(name)
        return None

    def get(self, key: str, timeout: Optional[float] = None) -> Any:
        """Blocking fetch across replicas.

        Replication 1 without injection delegates to the shard's own
        blocking get (condition-variable wait); otherwise replicas are
        polled so a killed primary cannot absorb the whole timeout.
        """
        if self.replication == 1 and self._injector is None:
            primary = self.owners_for(key)[0]
            return self._stores[primary].get(key, timeout=timeout)
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        interval = 0.001
        while True:
            value = self.try_get(key)
            if value is not None:
                return value
            if deadline is not None and time.monotonic() >= deadline:
                raise KeyError(key)
            time.sleep(interval)
            interval = min(interval * 2, 0.02)

    def keys(self) -> List[str]:
        """Union of keys over reachable shards (replicas deduplicated)."""
        out: set = set()
        for name in list(self._stores):
            try:
                out.update(self._shard_op(name, lambda s: s.keys()))
            except TransientServiceError:
                continue
        return sorted(out)

    # -- healing ---------------------------------------------------------

    def sync(self) -> int:
        """Anti-entropy pass: every key onto every reachable owner.

        Scans reachable shards for the full key population, then
        re-copies each key (payload-intact) to any owner replica
        missing it — how a restarted (wiped) shard converges back to
        full replication.  Returns the number of copies created.
        """
        holders: Dict[str, str] = {}
        for name in list(self._stores):
            try:
                for key in self._shard_op(name, lambda s: s.keys()):
                    holders.setdefault(key, name)
            except TransientServiceError:
                continue
        repaired = 0
        with _span("service.anti_entropy", "service",
                   keys=len(holders)):
            for key, holder in holders.items():
                owners = self.owners_for(key)
                value = None
                for source in [holder] + [
                    n for n in owners if n != holder
                ]:
                    try:
                        value = self._read_owner(key, source)
                    except TransientServiceError:
                        value = None
                    if value is not None:
                        break
                if value is None:
                    continue
                for name in owners:
                    try:
                        if not self._shard_op(name,
                                              lambda s: s.contains(key)):
                            self._shard_op(name, lambda s: s.put(key, value))
                            repaired += 1
                    except TransientServiceError:
                        continue
        if repaired:
            self._ae_repairs.inc(repaired)
        return repaired

    def _anti_entropy_loop(self, interval_s: float) -> None:
        while not self._closed.wait(timeout=interval_s):
            try:
                self.sync()
            except Exception:  # pragma: no cover - healer must survive
                pass

    def missing_replicas(self) -> int:
        """Owner slots currently missing their copy (0 = fully healed)."""
        missing = 0
        for key in self.keys():
            for name in self.owners_for(key):
                try:
                    if not self._shard_op(name, lambda s: s.contains(key)):
                        missing += 1
                except TransientServiceError:
                    missing += 1
        return missing

    def close(self) -> None:
        self._closed.set()
        if self._ae_thread is not None:
            self._ae_thread.join(timeout=5.0)
            self._ae_thread = None
