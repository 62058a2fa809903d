"""Cluster topology and hardware parameters.

Calibrated to the paper's testbed: Amazon EC2 p4de.24xlarge — 8x A100
80GB per node connected by NVSwitch (600 GB/s bidirectional = 300 GB/s
per direction), nodes connected by 4x100 Gbps EFA NICs (= 50 GB/s per
node per direction).  The achievable-FLOPs fraction and kernel-launch
overheads are effective values, chosen so simulated attention times land
in the same regime as the paper's measurements.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

__all__ = [
    "ClusterSpec",
    "ClusterEvent",
    "ClusterEventSource",
    "MICRO_BENCH_CLUSTER",
    "E2E_CLUSTER",
]


#: Achievable fraction of ``peak_flops`` for attention.
FLOPS_EFFICIENCY = 0.42
#: Intra-machine links (NVSwitch), per direction, per device.
INTRA_BANDWIDTH = 300e9
INTRA_LATENCY = 8e-6
#: Latency of the inter-machine NIC.
INTER_LATENCY = 25e-6
#: Fixed overhead per launched kernel / instruction.
KERNEL_OVERHEAD = 20e-6
#: Per-tile fixed cost inside a fused attention kernel (block setup,
#: block-table reads).  A tile is one query row forward and one KV
#: column backward: it pays this once, and the blocks it walks cost
#: their FLOPs.  Dominates for short, sparse rows.
TILE_OVERHEAD = 1.5e-6
#: HBM bandwidth, used to cost reductions and copies.
HBM_BANDWIDTH = 1.6e12


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous multi-machine GPU cluster.

    Devices are numbered globally: device ``d`` lives on machine
    ``d // devices_per_machine``.  The shape, a device's FLOPs and the
    NIC's bandwidth vary per cluster; the other hardware parameters are
    this module's constants.
    """

    num_machines: int = 4
    devices_per_machine: int = 8
    peak_flops: float = 312e12  # A100 BF16 tensor-core peak
    # Inter-machine NIC, per direction, shared by a machine's devices.
    inter_bandwidth: float = 50e9

    def __post_init__(self) -> None:
        if self.num_machines < 1 or self.devices_per_machine < 1:
            raise ValueError("cluster must contain at least one device")

    @property
    def num_devices(self) -> int:
        return self.num_machines * self.devices_per_machine

    def machine_of(self, device: int) -> int:
        if not 0 <= device < self.num_devices:
            raise ValueError(f"device {device} outside cluster")
        return device // self.devices_per_machine

    def same_machine(self, a: int, b: int) -> bool:
        return self.machine_of(a) == self.machine_of(b)

    def effective_flops(self) -> float:
        return self.peak_flops * FLOPS_EFFICIENCY

    def compute_time(self, flops: float) -> float:
        return flops / self.effective_flops()

    def affected_devices(self, other: "ClusterSpec") -> Tuple[int, ...]:
        """Devices whose existence or machine assignment differs vs ``other``.

        The delta re-planner's blast radius: a plan that touches none of
        these devices stays valid across the shape change.  With equal
        ``devices_per_machine`` only the trailing added/removed devices
        are affected (global device numbering keeps every surviving
        device on its machine); a ``devices_per_machine`` change
        rewrites the device -> machine map wholesale, so every device of
        either shape is affected.
        """
        if self.devices_per_machine != other.devices_per_machine:
            return tuple(range(max(self.num_devices, other.num_devices)))
        low = min(self.num_devices, other.num_devices)
        high = max(self.num_devices, other.num_devices)
        return tuple(range(low, high))


@dataclass(frozen=True)
class ClusterEvent:
    """One observed cluster-shape change.

    ``cluster`` is the shape *after* the event; the streaming pipeline
    compares it against the shape its in-flight plans targeted to decide
    what to invalidate and re-dispatch.  ``previous`` is the shape
    before the event and ``affected_devices`` the devices the change
    touches (removed, added, or remapped onto a different machine) —
    the metadata delta re-planning keys its blast radius off: plans
    that place nothing on an affected device survive the event.
    """

    kind: str  # "device_add" | "device_remove" | "resize"
    cluster: ClusterSpec
    previous: Optional[ClusterSpec] = None
    affected_devices: Tuple[int, ...] = field(default=())


class ClusterEventSource:
    """Thread-safe feed of :class:`ClusterEvent` for online re-planning.

    The serving-shaped pipeline cannot assume a fixed cluster: machines
    join and leave mid-stream.  Whoever observes the change (an operator
    thread, a health monitor, a test) calls :meth:`add_machines` /
    :meth:`remove_machines` / :meth:`resize`, each returning the
    :class:`ClusterEvent` it committed.  Consumers observe
    :attr:`version` and :attr:`current`: the streaming pipeline compares
    ``version`` with the last one it saw between iterations and
    re-plans its prefetch window against ``current``.
    """

    def __init__(self, cluster: ClusterSpec) -> None:
        self._cluster = cluster
        self._version = 0
        self._lock = threading.Lock()

    @property
    def current(self) -> ClusterSpec:
        with self._lock:
            return self._cluster

    @property
    def version(self) -> int:
        """Total events ever emitted — a monotonic observation cursor.

        Each consumer keeps its own last-seen version, so several
        pipelines sharing one source each see every shape change.
        """
        with self._lock:
            return self._version

    def _commit(self, cluster: ClusterSpec, kind: str) -> ClusterEvent:
        """Record a shape change (caller holds the lock).

        Read-modify-commit must happen under one lock acquisition: two
        observers concurrently removing one machine each from a
        3-machine cluster must end at 1 machine, not both at 2.
        """
        event = ClusterEvent(
            kind=kind,
            cluster=cluster,
            previous=self._cluster,
            affected_devices=self._cluster.affected_devices(cluster),
        )
        self._cluster = cluster
        self._version += 1
        return event

    def add_machines(self, count: int = 1) -> ClusterEvent:
        with self._lock:
            cluster = replace(
                self._cluster, num_machines=self._cluster.num_machines + count
            )
            return self._commit(cluster, kind="device_add")

    def remove_machines(self, count: int = 1) -> ClusterEvent:
        with self._lock:
            remaining = self._cluster.num_machines - count
            if remaining < 1:
                raise ValueError("cannot remove the last machine")
            cluster = replace(self._cluster, num_machines=remaining)
            return self._commit(cluster, kind="device_remove")

    def resize(self, **changes) -> ClusterEvent:
        with self._lock:
            cluster = replace(self._cluster, **changes)
            return self._commit(cluster, kind="resize")


#: The paper's micro-benchmark testbed: 4 p4de nodes, 32 GPUs (§7.1).
MICRO_BENCH_CLUSTER = ClusterSpec(num_machines=4, devices_per_machine=8)

#: The end-to-end testbed: 8 p4de nodes, 64 GPUs (§7.2).  With 4-way
#: tensor parallelism inside each node, context parallelism sees 16
#: ranks: 2 per machine, each rank aggregating 4 GPUs' NVSwitch lanes.
E2E_CLUSTER = ClusterSpec(
    num_machines=8,
    devices_per_machine=2,
    # A CP rank = a TP group of 4 GPUs acting as one device.
    peak_flops=4 * 312e12,
)
