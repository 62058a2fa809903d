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
placements) that fits the placement's :class:`_Box` — no more
busiest-device tokens, no more bytes moved — prices every admitted
candidate with :mod:`.pricing` and keeps the cheapest (at an equal
price the one moving fewer bytes), so a plan never prices slower than
an admitted alternative.  On a placement
:func:`~repro.placement.place_blocks` computed it also refines the
cheapest owner-structured candidate on that price, then on the bytes it
moves at no higher price (:class:`_SliceSearch`), inside the same box.
Everything that does not depend on ``T`` — block homes, per-device
block lists, remote inputs, bytes and FLOPs — is derived once per
(block set, placement), on integer ids, and the bytes a placement moves
are counted there.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

import numpy as np

from ..blocks import BlockKind, BlockSet, CompBlock, DataBlockId
from ..obs.trace import span as _span
from .pricing import (
    BACKWARD_COMM_FACTOR,
    BACKWARD_FLOPS_FACTOR,
    price_divisions,
)

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
    #: Moves the price search kept (0 when it did not run or found none).
    price_moves: int = 0
    #: Swaps its byte phase kept (0 when it did not run or found none).
    byte_moves: int = 0


class _Prep:
    """What scheduling needs of (block set, placement), independent of T."""

    def __init__(self, block_set: BlockSet, placement) -> None:
        self.block_set = block_set
        attention = block_set.attention
        self.groups = groups = attention.head_groups
        comps = block_set.comp_array
        self.q_slice = block_set.slice_indices(comps.seq_index, comps.q_block)
        self.kv_slice = block_set.slice_indices(comps.seq_index, comps.kv_block)
        tokens = block_set.slice_tokens
        q_block = self.q_slice * groups + comps.head_group
        kv_block = self.kv_slice * groups + comps.head_group

        self.pairs: List[int] = comps.pairs.tolist()
        self.flops: List[int] = attention.tile_flops(comps.pairs).tolist()
        #: The Q row of every computation block: a kernel takes one tile
        #: per distinct row (counted when a fill is priced).
        self.rows: List[int] = q_block.tolist()
        # (block, bytes) of every computation block's Q and KV block.
        self._q = list(
            zip(self.rows, attention.q_block_bytes(tokens[self.q_slice]).tolist())
        )
        self._kv = list(
            zip(
                kv_block.tolist(),
                attention.kv_block_bytes(tokens[self.kv_slice]).tolist(),
            )
        )
        self._place(placement)

    def moved(self, placement) -> "_Prep":
        """The prep of the same block set on another placement."""
        prep = copy.copy(self)
        prep._place(placement)
        return prep

    def _place(self, placement) -> None:
        self.placement = placement
        self.cluster = cluster = placement.cluster
        slice_device = np.asarray(placement.slice_device, dtype=np.int64)
        #: Remote inputs of every computation block (Q first, as
        #: ``CompBlock.inputs`` orders them).
        self.needs: List[Tuple[_Need, ...]] = []
        devices = range(cluster.num_devices)
        self.blocks: List[List[int]] = [[] for _ in devices]
        remote: List[set] = [set() for _ in devices]
        outputs: List[set] = [set() for _ in devices]
        for comp, (device, (q, q_bytes), q_home, (kv, kv_bytes), kv_home) in enumerate(
            zip(
                np.asarray(placement.comp_device, dtype=np.int64).tolist(),
                self._q,
                slice_device[self.q_slice].tolist(),
                self._kv,
                slice_device[self.kv_slice].tolist(),
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
        #: Of those, the bytes that cross machines.
        per_machine = cluster.devices_per_machine
        self.inter_comm: int = sum(
            need[1]
            for device in devices
            for need in (*remote[device], *self.output_sends[device])
            if need[2] // per_machine != device // per_machine
        )
        #: Output blocks every device finalizes: its slices x head groups.
        self.finalizes: List[int] = (
            np.bincount(slice_device, minlength=cluster.num_devices)
            * self.groups
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
        self.remaining: List[int] = list(prep.blocks[device])  # block order
        self.fetched: set = set()
        self.divisions: List[List[int]] = [[] for _ in range(num_divisions)]
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


class _Priced:
    """One placement filled and priced at every division count."""

    def __init__(self, prep: _Prep, counts, strategy: str, known=None) -> None:
        self.prep = prep
        self.placement = prep.placement
        #: count -> (fills, price, per-device seconds); ``known`` ones
        #: are not filled again.
        self.by_count = dict(known or {})
        for count in counts:
            if count not in self.by_count:
                fills = _fill(prep, count, strategy)
                self.by_count[count] = (fills, *price_divisions(prep, fills))
        self.count = min(
            self.by_count, key=lambda count: (self.by_count[count][1], count)
        )
        self.price = self.by_count[self.count][1]
        self.bytes = sum(prep.total_comm)

    @property
    def prices(self) -> Dict[int, float]:
        return {count: entry[1] for count, entry in self.by_count.items()}


class _Box:
    """What a candidate placement may not exceed: the partitioned
    placement's busiest-device tokens, bytes moved and bytes moved
    between machines.  Alternatives are admitted on the first two; the
    price search holds its neighbours to all three."""

    def __init__(self, prep: _Prep) -> None:
        self.max_tokens = prep.placement.tokens_per_device().max()
        self.max_bytes = sum(prep.total_comm)
        self.max_inter = prep.inter_comm

    def admitted(self, prep: _Prep, placement):
        """``prep`` moved onto ``placement`` if the placement fits the
        box on tokens and bytes, else ``None``."""
        if placement.tokens_per_device().max() > self.max_tokens:
            return None
        moved = prep.moved(placement)
        return moved if sum(moved.total_comm) <= self.max_bytes else None


#: Neighbours the price search prices per plan at most.
_SEARCH_BUDGET = 3
#: Byte-cutting swaps the byte phase weighs per step, and prices per
#: plan at most.
_BYTE_WIDTH = 8
_BYTE_BUDGET = 8


class _SliceSearch:
    """Bounded local search on the price over owner-structured
    placements (every computation block on its Q slice's device), then
    on the bytes moved at that price.

    Price phase: a neighbour moves one whole query slice — its
    computation blocks with it — off the device that finishes last, or
    swaps it with a lighter slice of another device.  Neighbours outside
    the :class:`_Box` (more busiest-device tokens, more bytes moved or
    more bytes moved between machines than the partitioned placement)
    are dropped before anything is built.  The rest are ranked by an
    estimate made of the price's own terms: the per-device seconds of
    the step's replays, with the moved slices' forward + backward
    compute shifted between the two devices and every device's KV fetch
    seconds re-counted.  The best is priced at the start's division
    count and kept only if the price strictly falls; the phase stops at
    the first that does not, or after :data:`_SEARCH_BUDGET` prices.

    Byte phase: a neighbour swaps two query slices on different devices.
    Of the swaps inside the box, the :data:`_BYTE_WIDTH` that cut the
    most bytes (exactly, :meth:`byte_change`) are estimated as above; those
    whose estimate exceeds the device that finishes last are dropped and
    the rest priced in order of bytes cut.  The first whose price does
    not rise is kept and the step repeats from it; the phase stops at a
    step that keeps none, or after :data:`_BYTE_BUDGET` prices.
    """

    def __init__(self, start: _Priced, box: _Box, strategy: str) -> None:
        prep = start.prep
        block_set, cluster = prep.block_set, prep.cluster
        attention = block_set.attention
        comps = block_set.comp_array
        slices = len(block_set.token_slices)
        q, kv = prep.q_slice, prep.kv_slice
        # (reader, read) slice pairs: whose KV each slice's rows read.
        reads = np.zeros((slices, slices), dtype=bool)
        reads[q, kv] = True
        self.reader, self.read = np.nonzero(reads)
        # The byte phase's tables: reads as 0 / 1 weights, which slices
        # read their own KV, and every unordered pair of slices.
        self.reads = reads * 1.0
        self.self_read = reads.diagonal()
        self.slices = np.arange(slices)
        self.pairs = np.triu_indices(slices, k=1)
        self.tokens = block_set.slice_tokens
        self.kv_bytes = (
            attention.kv_block_bytes(self.tokens) * attention.head_groups * 1.0
        )
        # Forward + backward compute seconds of every slice's rows.
        flops = np.bincount(
            q, weights=attention.tile_flops(comps.pairs), minlength=slices
        )
        self.work = (
            cluster.compute_time(flops * (1 + BACKWARD_FLOPS_FACTOR))
            + 2 * attention.head_groups * cluster.tile_overhead
        )
        self.devices = devices = cluster.num_devices
        # Forward + backward seconds per KV byte, home -> reader.
        self.machine = machine = np.arange(devices) // cluster.devices_per_machine
        self.link = (1 + BACKWARD_COMM_FACTOR) * np.where(
            machine[:, None] == machine[None, :],
            1 / cluster.intra_bandwidth,
            1 / cluster.inter_bandwidth,
        )
        np.fill_diagonal(self.link, 0.0)
        self.far = machine[:, None] != machine[None, :]
        self.far_weight = self.far * 1.0
        self.box = box
        self.strategy = strategy
        self.start = start
        self.count = start.count

    def held(self, labels: np.ndarray) -> np.ndarray:
        """(labelling, slice, device): whether the device holds the
        slice's KV — at home or fetched for its rows — per labelling."""
        count, slices = labels.shape
        held = np.zeros((count, slices, self.devices), dtype=bool)
        rows = np.arange(count)[:, None]
        held[rows, self.read, labels[:, self.reader]] = True
        held[rows, np.arange(slices), labels] = True
        return held

    def fetch_seconds(self, held: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """(labelling, device): forward + backward seconds of the KV the
        device fetches."""
        return np.einsum("nsk,s->nk", held * self.link[labels], self.kv_bytes)

    def best_neighbour(self, labels: np.ndarray, seconds, fetch: np.ndarray):
        """The best-estimated neighbour of ``labels`` inside the box, as
        its labels and per-device fetch seconds, or ``None``
        (``seconds``, ``fetch``: those of ``labels``)."""
        devices, work, box = self.devices, self.work, self.box
        last = int(np.argmax(seconds))
        # Every slice of the last device moves to each other device, or
        # swaps with each slice there: per device the move, then the
        # swaps in slice order.
        own = np.flatnonzero(labels == last)
        elsewhere = np.flatnonzero(labels != last)
        targets = np.delete(np.arange(devices), last)
        dest = np.concatenate([targets, labels[elsewhere]])
        partner = np.concatenate([np.full(len(targets), -1), elsewhere])
        order = np.lexsort((partner, dest))
        moved = np.repeat(own, len(order))
        device = np.tile(dest[order], len(own))
        other = np.tile(partner[order], len(own))
        swap = other >= 0
        # The last device must get lighter, and no device may end up with
        # more tokens than the box allows.
        shift = work[moved] - np.where(swap, work[other], 0.0)
        tokens = self.tokens[moved] - np.where(swap, self.tokens[other], 0)
        load = np.bincount(labels, weights=self.tokens, minlength=devices)
        # The busiest device other than the last and the target.
        ranked = np.argsort(np.where(np.arange(devices) == last, -1, load))
        first, second = load[ranked[-1]], load[ranked[-2]] if devices > 2 else 0
        rest = np.where(np.arange(devices) == ranked[-1], second, first)
        keep = (shift > 0) & (
            np.maximum.reduce(
                [load[last] - tokens, load[device] + tokens, rest[device]]
            )
            <= box.max_tokens
        )
        moved, device, other, swap, shift = (
            a[keep] for a in (moved, device, other, swap, shift)
        )
        count = len(moved)
        rows = np.arange(count)
        after = np.repeat(labels[None, :], count, axis=0)
        after[rows, moved] = device
        after[rows[swap], other[swap]] = last
        held = self.held(after)
        nbytes = (held.sum(axis=2) - 1) @ self.kv_bytes
        far = self.machine[after][:, :, None] != self.machine
        inter = (held & far).sum(axis=2) @ self.kv_bytes
        fetches = self.fetch_seconds(held, after)
        estimate = seconds + fetches - fetch
        estimate[rows, last] -= shift
        estimate[rows, device] += shift
        # Lowest estimated last device, then fewest bytes, then order.
        order = np.lexsort((rows, nbytes, estimate.max(axis=1)))
        order = order[
            (nbytes[order] <= box.max_bytes) & (inter[order] <= box.max_inter)
        ]
        if not len(order):
            return None
        return after[order[0]].copy(), fetches[order[0]]

    def byte_change(self, labels: np.ndarray, a: np.ndarray, b: np.ndarray):
        """The exact change in bytes moved and in bytes moved between
        machines when slices ``a[i]`` and ``b[i]``, on different devices
        under ``labels``, swap devices (a pair on one device gets a
        meaningless value).

        A slice costs its KV bytes on every device other than its home
        where one of its readers sits.  A swap changes what is read on
        its two devices and the homes of its two slices.  Both halves
        are one table: ``change[k, y, x]`` is the change on ``x``'s
        device when ``x`` leaves it for ``y``'s device and ``y`` joins
        (``k`` = 0 bytes, 1 bytes between machines), with ``x``'s KV
        re-routed to its readers elsewhere; a swap is two entries.
        Building the table costs O(slices^3), a swap O(1)."""
        reads, far, kv, slices = self.reads, self.far, self.kv_bytes, self.slices
        devices = np.arange(self.devices)
        count = (labels == devices[:, None]) @ reads
        present = count > 0
        # What each slice costs on each device where it is read, on the
        # current homes: any bytes (the first ``devices`` columns), and
        # bytes between machines (the rest).
        cost = kv[:, None] * np.hstack([labels[:, None] != devices, far[labels]])
        at = labels + np.array([[0], [self.devices]])
        # stays[x, s]: ``s`` is still read on ``x``'s device without
        # ``x``, where it costs ``own[k, x, s]``; ``y`` adds what it
        # reads there.
        stays = count[labels] - reads > 0
        own = stays * cost.T[at]
        change = (
            (own.sum(axis=2) - (present @ cost)[labels, at])[:, None, :]
            + (reads @ cost)[:, at].transpose(1, 0, 2)
            - reads @ own.transpose(0, 2, 1)
        )
        # ``x`` now costs where it is still read on the device it left,
        # and ``y`` no longer where it is read on the one it joined ...
        rehomed = kv * (stays[slices, slices] | (reads > 0)) - kv[:, None] * (
            stays.T | self.self_read[:, None]
        )
        change[0] += rehomed
        change[1] += rehomed * far[labels[:, None], labels]
        # ... and ``x``'s readers on the other devices fetch it from
        # ``y``'s machine instead of its old one.
        reach = kv[:, None] * (present.T @ self.far_weight)
        read_at_home = present[labels, slices, None]
        moved = (
            reach
            - reach[slices, labels, None]
            - far[labels] * kv[:, None] * (read_at_home - 1.0 * present.T)
        )
        change[1] += moved[:, labels].T
        nbytes, inter = change[:, b, a] + change[:, a, b]
        # Byte counts are integers far below 2**53: the float sums are
        # exact, and so is the cast.
        return nbytes.astype(np.int64), inter.astype(np.int64)

    def byte_swaps(self, labels: np.ndarray, seconds, fetch: np.ndarray, inter):
        """The swaps worth pricing from ``labels``, in order of bytes
        cut, as their labels and per-device fetch seconds (``seconds``,
        ``fetch``, ``inter``: those of ``labels``, ``inter`` its bytes
        moved between machines)."""
        box, (a, b) = self.box, self.pairs
        da, db = labels[a], labels[b]
        nbytes, inter_change = self.byte_change(labels, a, b)
        load = np.bincount(labels, weights=self.tokens, minlength=self.devices)
        shift = self.tokens[a] - self.tokens[b]
        # Two devices, fewer bytes, and inside the box.
        (fit,) = np.nonzero(
            (da != db)
            & (nbytes < 0)
            & (inter + inter_change <= box.max_inter)
            & (np.maximum(load[da] - shift, load[db] + shift) <= box.max_tokens)
        )
        # Most bytes cut first, then pair order.
        order = fit[np.argsort(nbytes[fit], kind="stable")[:_BYTE_WIDTH]]
        a, b, da, db = a[order], b[order], da[order], db[order]
        rows = np.arange(len(order))
        after = np.repeat(labels[None, :], len(order), axis=0)
        after[rows, a], after[rows, b] = db, da
        fetches = self.fetch_seconds(self.held(after), after)
        estimate = seconds + fetches - fetch
        work = self.work[a] - self.work[b]
        estimate[rows, da] -= work
        estimate[rows, db] += work
        fit = estimate.max(axis=1) <= seconds.max()
        return [(after[row], fetches[row]) for row in np.flatnonzero(fit)]

    def priced(self, labels: np.ndarray):
        """(prep, fills, price, per-device seconds) of the owner-structured
        placement ``labels`` at the start's count."""
        start = self.start
        prep = start.prep.moved(
            replace(
                start.placement,
                slice_device=labels,
                comp_device=labels[start.prep.q_slice],
                source="refined",
                alternatives=[],
            )
        )
        fills = _fill(prep, self.count, self.strategy)
        return (prep, fills, *price_divisions(prep, fills))

    def run(self):
        """The cheapest placement the search reaches from the start, as
        (prep, fills, price, seconds) at the start's count, and the moves
        each phase kept (``None``, 0 and 0 when neither kept one).
        ``kept`` lists every neighbour kept, in order."""
        start = self.start
        fills, price, seconds = start.by_count[self.count]
        current = (start.prep, fills, price, seconds)
        labels = np.asarray(start.placement.slice_device, dtype=np.int64)
        now = labels[None, :]
        fetch = self.fetch_seconds(self.held(now), now)[0]
        self.kept: List[tuple] = []
        for _ in range(_SEARCH_BUDGET):
            found = self.best_neighbour(labels, np.asarray(current[3]), fetch)
            if found is None:
                break
            after, after_fetch = found
            neighbour = self.priced(after)
            if neighbour[2] >= current[2]:
                break
            labels, fetch, current = after, after_fetch, neighbour
            self.kept.append(current)
        moves, budget = len(self.kept), _BYTE_BUDGET
        while budget:
            swaps = self.byte_swaps(
                labels, np.asarray(current[3]), fetch, current[0].inter_comm
            )
            for after, after_fetch in swaps[:budget]:
                budget -= 1
                neighbour = self.priced(after)
                if neighbour[2] <= current[2]:
                    labels, fetch, current = after, after_fetch, neighbour
                    self.kept.append(current)
                    break
            else:
                break
        best = self.kept[-1] if self.kept else None
        return best, moves, len(self.kept) - moves


def _owner_structured(placement, q_slice: np.ndarray) -> bool:
    return bool(
        np.array_equal(placement.comp_device, placement.slice_device[q_slice])
    )


def build_schedule(
    block_set: BlockSet,
    placement,
    num_divisions: int = 4,
    strategy: str = "paper",
) -> Schedule:
    """The cheapest division schedule with at most ``num_divisions``,
    on ``placement``, one of its ``alternatives`` or their price-refined
    neighbour.

    For each placement, fills ``T = 1, 2, 4, ...`` (powers of two below
    ``num_divisions``, and ``num_divisions`` itself) as
    :func:`fill_divisions` would and prices each from the cluster's
    parameters (:func:`~repro.scheduling.pricing.price_divisions`:
    simulated forward + backward seconds).  An alternative is admitted
    only inside ``placement``'s :class:`_Box`: no more busiest-device
    tokens, no more bytes moved.  When one is, the placement (one
    :func:`~repro.placement.place_blocks` computed, never an adopted
    one) is also refined: a bounded local search (:class:`_SliceSearch`)
    moves and swaps whole query slices off the device that finishes
    last while the price falls, then swaps query slices to move fewer
    bytes while the price does not rise, starting from the cheapest
    owner-structured candidate and staying inside the box, held to
    bytes moved between machines too.  Its result (source
    ``"refined"``) is priced at every ``T`` like the others.  Returns
    the cheapest; a tie goes to the candidate moving fewer bytes, then
    to ``placement`` over its alternatives over the refined one, then
    to the smaller ``T`` — a pure function of its arguments, so every
    route to a plan agrees.  ``Schedule.placement`` is the winner,
    ``division_prices`` its candidates, ``placement_prices`` each
    placement's best, and ``price_moves`` / ``byte_moves`` the moves
    each phase of the search kept.
    """
    _check(num_divisions, strategy)
    counts, count = [], 1
    while count < num_divisions:
        counts.append(count)
        count *= 2
    counts.append(num_divisions)
    prep = _Prep(block_set, placement)
    box = _Box(prep)
    candidates = [_Priced(prep, counts, strategy)]
    for alternative in placement.alternatives:
        moved = box.admitted(prep, alternative)
        if moved is not None:
            candidates.append(_Priced(moved, counts, strategy))
    moves = byte_moves = 0
    if len(candidates) > 1:
        owned = [
            priced
            for priced in candidates
            if _owner_structured(priced.placement, prep.q_slice)
        ]
        if owned:
            start = min(owned, key=lambda priced: priced.price)
            with _span("price_refine", "scheduling"):
                search = _SliceSearch(start, box, strategy)
                found, moves, byte_moves = search.run()
                if found is not None:
                    candidates.append(
                        _Priced(
                            found[0],
                            counts,
                            strategy,
                            known={search.count: found[1:]},
                        )
                    )
    # Cheapest, then fewest bytes, then candidate order.
    best = min(candidates, key=lambda priced: (priced.price, priced.bytes))
    schedule = best.prep.materialise(best.by_count[best.count][0])
    schedule.division_prices = best.prices
    schedule.placement_prices = {
        priced.placement.source: priced.price for priced in candidates
    }
    schedule.price_moves = moves
    schedule.byte_moves = byte_moves
    return schedule
