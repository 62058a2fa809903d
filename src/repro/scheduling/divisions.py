"""Computation/communication division scheduling (paper §4.3, Listing 3).

Each device's computation blocks are grouped into ``T`` divisions so
that the communication needed by division ``t+1`` can overlap with the
computation of division ``t``:

* division 0 holds blocks whose inputs are all local (no communication);
* divisions ``1 .. T-2`` are filled greedily — always extending the
  device with the least computation scheduled so far — subject to a
  per-division communication budget of ``1/T`` of the device's total;
* the last division takes everything left, regardless of volume;
* partial outputs destined for other devices are transferred after the
  final division.

Communication is accounted *marginally*: a remote input block is paid
for once, in the division where the first computation block using it is
scheduled; later users on the same device reuse the fetched copy.

The paper fixes ``T = 4`` (§7.1), which pays where a division's
computation dwarfs the ~5 kernel launches it adds and loses elsewhere.
:func:`fill_divisions` is that fixed-``T`` scheduler;
:func:`build_schedule` runs it for ``T = 1, 2, 4, ...`` up to its
``num_divisions`` on the placement and on each candidate it carries as
``alternatives`` (its owner-computes projection, the static CP / DP
placements), prices every candidate with :mod:`.pricing` and keeps the
cheapest — so a plan never prices slower than an admitted alternative.
Everything that does not depend on ``T`` — block homes, per-device
block lists, remote inputs, bytes and FLOPs — is derived once per
(block set, placement), on integer ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..blocks import BlockKind, BlockSet, CompBlock, DataBlockId
from .pricing import price_divisions

__all__ = ["DeviceSchedule", "Schedule", "build_schedule", "fill_divisions"]

_STRATEGIES = ("paper", "balanced")

#: A remote input as the fill and the pricer see it: (block id, bytes,
#: home device).  Id ``2 * (slice * head_groups + head_group)`` is the Q
#: block of that slice and group, ``+ 1`` its KV block.
_Need = Tuple[int, int, int]


@dataclass
class DeviceSchedule:
    """Division assignment for one device."""

    device: int
    divisions: List[List[CompBlock]]
    # New remote input blocks first needed in each division.
    fetches: List[List[DataBlockId]]
    # Partial outputs this device must ship to their home afterwards.
    output_sends: List[DataBlockId]

    @property
    def num_divisions(self) -> int:
        return len(self.divisions)

    def all_blocks(self) -> List[CompBlock]:
        return [comp for division in self.divisions for comp in division]


@dataclass
class Schedule:
    """Division schedules for every device of one iteration."""

    block_set: BlockSet
    placement: object  # repro.placement.Placement (kept loose: no cycle)
    device_schedules: Dict[int, DeviceSchedule]
    num_divisions: int
    #: Priced forward + backward seconds of every division count
    #: :func:`build_schedule` tried on ``placement`` (empty for
    #: :func:`fill_divisions`).
    division_prices: Dict[int, float] = field(default_factory=dict)
    #: The cheapest price of every placement :func:`build_schedule`
    #: weighed, by ``Placement.source``.
    placement_prices: Dict[str, float] = field(default_factory=dict)


class _Prep:
    """What scheduling needs of (block set, placement), independent of T."""

    def __init__(self, block_set: BlockSet, placement) -> None:
        self.block_set = block_set
        self.placement = placement
        self.cluster = cluster = placement.cluster
        attention = block_set.attention
        self.groups = groups = attention.head_groups
        comps = block_set.comp_array
        slice_device = np.asarray(placement.slice_device, dtype=np.int64)
        q_slice = block_set.slice_indices(comps.seq_index, comps.q_block)
        kv_slice = block_set.slice_indices(comps.seq_index, comps.kv_block)
        tokens = block_set.slice_tokens
        q_block = q_slice * groups + comps.head_group
        kv_block = kv_slice * groups + comps.head_group

        self.pairs: List[int] = comps.pairs.tolist()
        self.flops: List[int] = attention.tile_flops(comps.pairs).tolist()
        #: The Q row of every computation block: a kernel takes one tile
        #: per distinct row.
        self.rows: List[int] = q_block.tolist()
        #: Remote inputs of every computation block (Q first, as
        #: ``CompBlock.inputs`` orders them).
        self.needs: List[Tuple[_Need, ...]] = []
        devices = range(cluster.num_devices)
        self.blocks: List[List[int]] = [[] for _ in devices]
        remote: List[set] = [set() for _ in devices]
        outputs: List[set] = [set() for _ in devices]
        for comp, (device, q, q_home, q_bytes, kv, kv_home, kv_bytes) in enumerate(
            zip(
                np.asarray(placement.comp_device, dtype=np.int64).tolist(),
                q_block.tolist(),
                slice_device[q_slice].tolist(),
                attention.q_block_bytes(tokens[q_slice]).tolist(),
                kv_block.tolist(),
                slice_device[kv_slice].tolist(),
                attention.kv_block_bytes(tokens[kv_slice]).tolist(),
            )
        ):
            needs: Tuple[_Need, ...] = ()
            if q_home != device:
                needs = ((2 * q, q_bytes, q_home),)
                # O shares Q's slice, shape and so home and bytes.
                outputs[device].add((q, q_bytes, q_home))
            if kv_home != device:
                needs += ((2 * kv + 1, kv_bytes, kv_home),)
            self.needs.append(needs)
            self.blocks[device].append(comp)
            remote[device].update(needs)
        #: Partial outputs every device ships home, as (O block id
        #: ``slice * head_groups + head_group``, bytes, home), sorted.
        self.output_sends: List[List[_Need]] = [sorted(o) for o in outputs]
        self.total_comm: List[int] = [
            sum(need[1] for need in remote[device])
            + sum(need[1] for need in self.output_sends[device])
            for device in devices
        ]
        #: Output blocks every device finalizes: its slices x head groups.
        self.finalizes: List[int] = (
            np.bincount(slice_device, minlength=cluster.num_devices) * groups
        ).tolist()

    def data_block(self, kind: str, block: int) -> DataBlockId:
        token_slice = self.block_set.token_slices[block // self.groups]
        return DataBlockId(
            kind,
            token_slice.seq_index,
            token_slice.block_index,
            block % self.groups,
        )

    def materialise(self, fills: List["_DeviceFill"]) -> Schedule:
        """The object view (CompBlock / DataBlockId) of integer fills."""
        comp_blocks = self.block_set.comp_blocks
        kinds = (BlockKind.Q, BlockKind.KV)
        device_schedules = {
            device: DeviceSchedule(
                device=device,
                divisions=[
                    [comp_blocks[comp] for comp in division]
                    for division in fill.divisions
                ],
                fetches=[
                    [self.data_block(kinds[b % 2], b // 2) for b, _, _ in fetch]
                    for fetch in fill.fetches
                ],
                output_sends=[
                    self.data_block(BlockKind.O, b)
                    for b, _, _ in self.output_sends[device]
                ],
            )
            for device, fill in enumerate(fills)
        }
        return Schedule(
            block_set=self.block_set,
            placement=self.placement,
            device_schedules=device_schedules,
            num_divisions=len(fills[0].divisions),
        )


class _DeviceFill:
    """Mutable bookkeeping while one device's divisions fill."""

    def __init__(self, prep: _Prep, device: int, num_divisions: int) -> None:
        self.needs = prep.needs
        self.pairs = prep.pairs
        self.row_of = prep.rows
        self.remaining: List[int] = list(prep.blocks[device])  # block order
        self.fetched: set = set()
        self.divisions: List[List[int]] = [[] for _ in range(num_divisions)]
        #: The Q rows of every division: its kernel's tiles.
        self.rows: List[set] = [set() for _ in range(num_divisions)]
        self.fetches: List[List[_Need]] = [[] for _ in range(num_divisions)]
        self.comp_scheduled = 0  # total pairs scheduled so far
        self.div_comm = 0  # bytes charged to the division being built
        self.per_div_limit = prep.total_comm[device] / num_divisions

    def take(self, comp: int, division: int) -> None:
        """Book ``comp`` (already off ``remaining``) into ``division``."""
        for need in self.needs[comp]:
            if need[0] not in self.fetched:
                self.fetched.add(need[0])
                self.fetches[division].append(need)
                self.div_comm += need[1]
        self.divisions[division].append(comp)
        self.rows[division].add(self.row_of[comp])
        self.comp_scheduled += self.pairs[comp]

    def take_rest(self) -> None:
        """Final division: everything left (Listing 3 lines 21-26)."""
        last = len(self.divisions) - 1
        for comp in self.remaining:
            self.take(comp, last)
        self.remaining = []

    def first_fit(self, division: int, skip_free: bool = False) -> bool:
        """Schedule the first remaining block whose not-yet-fetched
        inputs fit what is left of ``division``'s budget."""
        fetched, limit = self.fetched, self.per_div_limit
        for position, comp in enumerate(self.remaining):
            needs = self.needs[comp]
            if skip_free and not needs:
                continue
            marginal = sum(n[1] for n in needs if n[0] not in fetched)
            if self.div_comm + marginal <= limit:
                del self.remaining[position]
                self.take(comp, division)
                return True
        return False


def _fill_paper(fills: List[_DeviceFill], num_divisions: int) -> None:
    # Division 0: communication-free blocks (Listing 3 lines 16-20).
    for fill in fills:
        for comp in fill.remaining:
            if not fill.needs[comp]:
                fill.take(comp, 0)
        fill.remaining = [c for c in fill.remaining if fill.needs[c]]

    # Middle divisions (lines 28-35): greedily extend the device with the
    # least scheduled computation, respecting the per-division budget.
    for division in range(1, max(num_divisions - 1, 1)):
        for fill in fills:
            fill.div_comm = 0
        open_fills = [fill for fill in fills if fill.remaining]
        while open_fills:
            fill = min(open_fills, key=lambda f: f.comp_scheduled)
            if not fill.first_fit(division) or not fill.remaining:
                open_fills.remove(fill)

    for fill in fills:
        fill.take_rest()


def _fill_balanced(fill: _DeviceFill, num_divisions: int) -> None:
    """Per-device compute-balanced division filling.

    Every division targets ``1/T`` of the device's computation as well
    as ``1/T`` of its communication.  Division 0 stays communication-
    free (its fetches would be exposed at stream start), but takes only
    its compute share of the free blocks; the rest pad later divisions
    so transfers always have compute to hide behind.
    """
    pairs = fill.pairs
    free = [comp for comp in fill.remaining if not fill.needs[comp]]
    free.sort(key=pairs.__getitem__, reverse=True)
    comp_budget = sum(pairs[comp] for comp in fill.remaining) / num_divisions

    def fill_free(division: int) -> None:
        scheduled = sum(pairs[comp] for comp in fill.divisions[division])
        while free and scheduled < comp_budget:
            comp = free.pop(0)
            fill.remaining.remove(comp)
            fill.take(comp, division)
            scheduled += pairs[comp]

    # Division 0: compute share only, all of it communication-free.
    fill_free(0)
    # Middle divisions: communication under the budget first, then pad
    # with free blocks up to the compute share.
    for division in range(1, max(num_divisions - 1, 1)):
        fill.div_comm = 0
        while fill.first_fit(division, skip_free=True):
            pass
        fill_free(division)
    fill.take_rest()


def _fill(prep: _Prep, num_divisions: int, strategy: str) -> List[_DeviceFill]:
    fills = [
        _DeviceFill(prep, device, num_divisions)
        for device in range(prep.cluster.num_devices)
    ]
    if strategy == "balanced":
        for fill in fills:
            _fill_balanced(fill, num_divisions)
    else:
        _fill_paper(fills, num_divisions)
    return fills


def _check(num_divisions: int, strategy: str) -> None:
    if num_divisions < 1:
        raise ValueError("need at least one division")
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown scheduling strategy {strategy!r}")


def fill_divisions(
    block_set: BlockSet,
    placement,
    num_divisions: int = 4,
    strategy: str = "paper",
) -> Schedule:
    """Group computation blocks into exactly ``num_divisions`` divisions.

    The paper's fixed-``T`` scheduler, for ablations, static baselines
    and anything that asserts on division structure.  ``strategy``
    selects the heuristic:

    * ``"paper"`` — Listing 3 verbatim: all communication-free blocks
      into division 0, then greedy filling under a per-division
      communication budget, remainder into the last division.
    * ``"balanced"`` — an extension addressing the paper's §7.5
      observation that its scheduler can lose computation/communication
      overlap: communication-free blocks are *spread* across divisions
      so every division retains compute to hide the next division's
      transfers behind, while the same per-division communication
      budget is respected.
    """
    _check(num_divisions, strategy)
    prep = _Prep(block_set, placement)
    return prep.materialise(_fill(prep, num_divisions, strategy))


def build_schedule(
    block_set: BlockSet,
    placement,
    num_divisions: int = 4,
    strategy: str = "paper",
) -> Schedule:
    """The cheapest division schedule with at most ``num_divisions``,
    on ``placement`` or one of its ``alternatives``.

    For each placement, fills ``T = 1, 2, 4, ...`` (powers of two below
    ``num_divisions``, and ``num_divisions`` itself) as
    :func:`fill_divisions` would and prices each from the cluster's
    parameters (:func:`~repro.scheduling.pricing.price_divisions`:
    simulated forward + backward seconds).  Returns the cheapest; a tie
    goes to ``placement`` over its alternatives, then to the smaller
    ``T`` — a pure function of its arguments, so every route to a plan
    agrees.  ``Schedule.placement`` is the winner, ``division_prices``
    its candidates and ``placement_prices`` each placement's best.
    """
    _check(num_divisions, strategy)
    counts, count = [], 1
    while count < num_divisions:
        counts.append(count)
        count *= 2
    counts.append(num_divisions)
    best = None
    placement_prices: Dict[str, float] = {}
    for candidate in [placement, *placement.alternatives]:
        prep = _Prep(block_set, candidate)
        fills = {count: _fill(prep, count, strategy) for count in counts}
        prices = {
            count: price_divisions(prep, fill) for count, fill in fills.items()
        }
        count = min(prices, key=lambda count: (prices[count], count))
        placement_prices[candidate.source] = prices[count]
        if best is None or prices[count] < best[0]:
            best = (prices[count], prep, fills[count], prices)
    _, prep, fills, prices = best
    schedule = prep.materialise(fills)
    schedule.division_prices = prices
    schedule.placement_prices = placement_prices
    return schedule
