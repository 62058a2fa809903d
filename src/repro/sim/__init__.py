"""Cluster specification, timing simulation and model cost.

A simulated execution exports as a Chrome trace (:func:`to_chrome_trace`)
or as per-device lanes (:func:`device_lanes`) for
:func:`repro.obs.trace.chrome_trace`, the repo's one trace writer.
"""

from .cluster import (
    ClusterEvent,
    ClusterEventSource,
    ClusterSpec,
    E2E_CLUSTER,
    MICRO_BENCH_CLUSTER,
)
from .memory import MemoryReport, plan_memory
from .modelcost import E2EResult, e2e_iteration_time
from .timing import DeviceTiming, TimingResult, simulate_plan
from .trace import (
    ascii_gantt,
    device_lanes,
    to_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "ascii_gantt",
    "device_lanes",
    "to_chrome_trace",
    "write_chrome_trace",
    "ClusterSpec",
    "ClusterEvent",
    "ClusterEventSource",
    "E2E_CLUSTER",
    "MICRO_BENCH_CLUSTER",
    "E2EResult",
    "e2e_iteration_time",
    "DeviceTiming",
    "TimingResult",
    "simulate_plan",
    "MemoryReport",
    "plan_memory",
]
