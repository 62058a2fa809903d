"""The timing model, and the price of a division schedule under it.

:func:`replay` runs per-device step lists — launch transfers, compute a
fused kernel, wait, reduce — against per-device clocks: kernel and tile
overheads, ``compute_time``, alpha-beta transfers serialized per link
and per NIC (:class:`Links`), launch-at-sender clocks, device-order
progress.  :func:`repro.sim.simulate_plan` feeds it a plan's
instruction streams, one step per instruction; :func:`price_divisions`
feeds it the streams :func:`~repro.scheduling.serialize_schedule`
*would* emit for a set of integer division fills, one step per
division, so a candidate's price is exactly the simulated forward +
backward time of the plan it would become — at a fraction of
serializing and simulating it.  The model lives here, below both, and
reads only ``placement.cluster``'s parameters; only devices that hold
work contribute, so a price does not change when an idle trailing
machine leaves the cluster.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..sim import cluster as hardware
from .instructions import fuses_finalize

__all__ = [
    "BACKWARD_FLOPS_FACTOR",
    "BACKWARD_COMM_FACTOR",
    "LAUNCH",
    "COMPUTE",
    "WAIT",
    "REDUCE",
    "Links",
    "replay",
    "price_divisions",
]

#: Backward-over-forward multipliers: attention backward recomputes the
#: tile and produces dQ/dK/dV (~2.5x FLOPs); communication moves KV in
#: and dKV back out (~2x bytes).
BACKWARD_FLOPS_FACTOR = 2.5
BACKWARD_COMM_FACTOR = 2.0

#: Step kinds of :func:`replay`.
LAUNCH, COMPUTE, WAIT, REDUCE = range(4)


class Links:
    """Alpha-beta transfers serialized over shared resources: one
    NVSwitch link per (sender, receiver) inside a machine, one NIC per
    machine and direction between machines."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self.link_free: Dict[Tuple[int, int], float] = {}
        self.nic_out_free = [0.0] * cluster.num_machines
        self.nic_in_free = [0.0] * cluster.num_machines

    def transfer(
        self, src: int, dst: int, nbytes: float, now: float
    ) -> Tuple[float, float]:
        """(start, arrival) of ``nbytes`` launched ``src -> dst`` at ``now``."""
        cluster = self.cluster
        out = src // cluster.devices_per_machine
        into = dst // cluster.devices_per_machine
        if out == into:
            start = max(now, self.link_free.get((src, dst), 0.0))
            end = start + nbytes / hardware.INTRA_BANDWIDTH
            self.link_free[(src, dst)] = end
            return start, end + hardware.INTRA_LATENCY
        start = max(now, self.nic_out_free[out], self.nic_in_free[into])
        end = start + nbytes / cluster.inter_bandwidth
        self.nic_out_free[out] = self.nic_in_free[into] = end
        return start, end + hardware.INTER_LATENCY


def _streams(prep, fills) -> Tuple[List[list], List[int]]:
    """Per-device step lists and, per receive group, how many transfers
    feed it.  Group ``device * (T + 1) + t`` is what ``device`` fetches
    for division ``t``; ``t = T`` is the partial outputs it merges."""
    num_devices = len(fills)
    width = len(fills[0].divisions) + 1
    expected = [0] * (num_devices * width)
    sends: List[List[list]] = [
        [[] for _ in range(width)] for _ in range(num_devices)
    ]
    # Receiver-major, as serialization orders a sender's transfers.
    for device, fill in enumerate(fills):
        for division, fetch in enumerate(fill.fetches):
            group = device * width + division
            expected[group] = len(fetch)
            for _, nbytes, home in fetch:
                sends[home][division].append((device, nbytes, group))
        for _, nbytes, home in prep.output_sends[device]:
            group = home * width + width - 1
            expected[group] += 1
            sends[device][width - 1].append((home, nbytes, group))

    attention = prep.block_set.attention
    reduce_bytes = attention.o_block_bytes(prep.block_set.block_size) * 2
    rows = prep.rows
    streams = []
    for device, fill in enumerate(fills):
        steps: list = []

        def launch(division: int) -> bool:
            """Launch ``division``'s transfers; whether a wait follows."""
            if sends[device][division] or expected[device * width + division]:
                steps.append((LAUNCH, sends[device][division]))
            return expected[device * width + division] > 0

        last = None  # the device's last COMPUTE step
        if launch(0):
            steps.append((WAIT, device * width))
        for division, comps in enumerate(fill.divisions):
            wait = division + 2 < width and launch(division + 1)
            if comps:
                # One tile per distinct Q row, as serialization emits it.
                tiles = len({rows[comp] for comp in comps})
                flops = sum(prep.flops[comp] for comp in comps)
                last = len(steps)
                steps.append((COMPUTE, (tiles, flops, 0)))
            if wait:
                steps.append((WAIT, device * width + division + 1))
        if launch(width - 1):
            steps.append((WAIT, device * width + width - 1))
        merges = expected[device * width + width - 1]
        finalizes = prep.finalizes[device]
        if finalizes and fuses_finalize(merges, last is not None):
            tiles, flops, _ = steps[last][1]
            steps[last] = (COMPUTE, (tiles, flops, finalizes * reduce_bytes))
        elif merges or finalizes:
            steps.append((REDUCE, (merges + finalizes) * reduce_bytes))
        streams.append(steps)
    return streams, expected


def replay(
    streams, expected, cluster, flops_factor=1.0, comm_factor=1.0, trace=None
) -> List[float]:
    """Run per-device step lists against per-device clocks; when every
    device has finished, the time each did (its last transfer included).

    ``streams[device]`` is a list of ``(kind, payload)`` steps:
    ``(LAUNCH, [(peer, nbytes, group), ...])`` costs one kernel launch
    and starts the transfers at the sender's clock; ``(WAIT, group)``
    stalls until the ``expected[group]`` transfers feeding ``group``
    have arrived; ``(COMPUTE, (tiles, flops, nbytes))`` is one fused
    attention kernel whose epilogue moves ``nbytes`` of HBM (its
    finalizes; 0 without); ``(REDUCE, nbytes)`` one memory-bound
    kernel.  Devices advance in index order, each as far as it can,
    until all are done — the order transfers queue on shared links.
    ``trace``, a list, receives ``(device, step index, start, end, send
    index)`` per kernel, stall (send index ``None``) and transfer.
    """
    overhead, tile_overhead = hardware.KERNEL_OVERHEAD, hardware.TILE_OVERHEAD
    rate, hbm = cluster.effective_flops(), hardware.HBM_BANDWIDTH
    transfer = Links(cluster).transfer
    clock = [0.0] * len(streams)
    last_transfer = [0.0] * len(streams)
    position = [0] * len(streams)
    missing = list(expected)
    arrival = [0.0] * len(expected)
    running = [device for device, steps in enumerate(streams) if steps]
    while running:
        progressed = False
        blocked = []
        for device in running:
            steps = streams[device]
            now = clock[device]
            at = position[device]
            while at < len(steps):
                kind, payload = steps[at]
                start = now
                if kind == WAIT:
                    if missing[payload] > 0:
                        break  # a sender has not launched yet
                    now = max(now, arrival[payload])
                    if trace is not None and now > start:
                        trace.append((device, at, start, now, None))
                elif kind == LAUNCH:
                    now += overhead
                    for index, (peer, nbytes, group) in enumerate(payload):
                        begin, arrived = transfer(
                            device, peer, nbytes * comm_factor, now
                        )
                        missing[group] -= 1
                        # Running maxima, written as compares (hot loop).
                        if arrived > arrival[group]:
                            arrival[group] = arrived
                        if arrived > last_transfer[device]:
                            last_transfer[device] = arrived
                        if arrived > last_transfer[peer]:
                            last_transfer[peer] = arrived
                        if trace is not None:
                            trace.append((device, at, begin, arrived, index))
                else:
                    if kind == COMPUTE:
                        tiles, flops, nbytes = payload
                        # ``cluster.compute_time``, inlined.
                        now += (
                            overhead
                            + tiles * tile_overhead
                            + flops * flops_factor / rate
                            + nbytes / hbm
                        )
                    else:
                        now += overhead + payload / hbm
                    if trace is not None:
                        trace.append((device, at, start, now, None))
                at += 1
                progressed = True
            clock[device] = now
            position[device] = at
            if at < len(steps):
                blocked.append(device)
        if blocked and not progressed:
            raise RuntimeError(f"timing deadlock on devices {blocked}")
        running = blocked
    return list(map(max, clock, last_transfer))


def price_divisions(prep, fills) -> Tuple[float, List[float]]:
    """Simulated forward + backward seconds of ``fills`` on
    ``prep.cluster`` (``fills``: one per device, each with integer
    ``divisions`` and their ``fetches`` of (block id, bytes, home)), and
    every device's own forward + backward seconds off the same two
    replays."""
    streams, expected = _streams(prep, fills)
    forward, backward = (
        replay(streams, expected, prep.cluster, *factors)
        for factors in (
            (1.0, 1.0),
            (BACKWARD_FLOPS_FACTOR, BACKWARD_COMM_FACTOR),
        )
    )
    return max(forward) + max(backward), list(map(sum, zip(forward, backward)))
