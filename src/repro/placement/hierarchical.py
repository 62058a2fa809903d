"""Hierarchical data/computation placement (paper §4.2).

Level 1 assigns blocks to machines, minimizing inter-machine volume
under a loose computation-balance tolerance (the paper uses
``eps = 0.4`` between nodes); level 2 places each machine's blocks onto
its devices under a tight tolerance (``eps = 0.1``).  Both levels run
the multilevel hypergraph partitioner with zigzag and DP-packing warm
starts, so each level's cut is no worse than static CP's or pure DP's.

The cut is not the time, though: with a handful of blocks per device
the balance caps often cannot be met and the partitioned result can
price slower than the static placement it started from, and a block
computed away from its query slice puts a partial-output send and merge
on the critical path.  So every placement :func:`place_blocks` computes
also carries, as ``alternatives``, the candidates it competes with:

* ``"owner"`` — its owner-computes projection: the same slices, every
  computation block moved onto its query slice's device, so queries
  stay put and only KV travels (Ring Attention's rule on the
  partitioner's slices);
* ``"zigzag"`` / ``"dp_pack"`` — the static placements of the same
  blocks over all devices (:func:`static_placement`).

A candidate whose labels equal the partition's or an earlier
candidate's is dropped; nothing else is filtered here.
:func:`~repro.scheduling.build_schedule` admits the ones that dominate
the partitioned placement on what the attention price cannot see — no
more tokens on the busiest device (the token-parallel layers of a step
wait for it) and no more bytes moved — prices them beside it, refines
the cheapest owner-structured one on the price inside the same box
(tightened by bytes moved between machines), and keeps the cheapest.
Only a computed placement carries alternatives, so an adopted warm
placement is priced as it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..blocks import BlockSet
from ..hypergraph import BalanceConstraint, partition_hypergraph, repair_labels
from ..sim.cluster import ClusterSpec
from .build import BlockHypergraph, build_block_hypergraph
from .heuristics import dp_pack_labels, zigzag_labels

__all__ = [
    "PlacementConfig",
    "Placement",
    "STATIC_HEURISTICS",
    "static_placement",
    "place_blocks",
]

#: Static CP's and pure DP's placements by source name, in tie-break
#: order: the partitioner's warm starts, and what every computed
#: placement is weighed against.
STATIC_HEURISTICS = {"zigzag": zigzag_labels, "dp_pack": dp_pack_labels}

#: Refinement passes per partitioner run.
_REFINE_PASSES = 5

#: The partition's data-imbalance tolerance at both levels.
EPS_DATA = 0.08


@dataclass(frozen=True)
class PlacementConfig:
    """Knobs of the placement optimizer (paper §7.1 hyper-parameters).

    ``eps_inter`` / ``eps_intra`` are the computation-imbalance
    tolerances between machines and between the devices of one machine
    (paper: 0.4 and 0.1; the data tolerance is :data:`EPS_DATA`).
    ``seed``, ``restarts`` and ``use_warm_starts`` drive the partitioner
    (:mod:`repro.hypergraph`); ``restarts=0`` runs only the warm
    starts, so it needs ``use_warm_starts``.
    """

    eps_inter: float = 0.4
    eps_intra: float = 0.1
    seed: int = 0
    restarts: int = 2
    use_warm_starts: bool = True

    def __post_init__(self) -> None:
        if min(self.eps_inter, self.eps_intra) < 0:
            raise ValueError("imbalance tolerances must be non-negative")
        if self.restarts < 0:
            raise ValueError("restarts must be non-negative")
        if self.restarts == 0 and not self.use_warm_starts:
            raise ValueError("restarts=0 requires use_warm_starts")


@dataclass
class Placement:
    """Device assignment for every token slice and computation block."""

    block_set: BlockSet
    cluster: ClusterSpec
    slice_device: np.ndarray
    comp_device: np.ndarray
    #: Size of the placement hypergraph (surfaced in PlanningStats).
    num_vertices: int = 0
    num_edges: int = 0
    #: The :data:`STATIC_HEURISTICS` name, ``"partitioned"`` for what
    #: :func:`place_blocks` computes, ``"owner"`` for its owner-computes
    #: projection, or ``"refined"`` for the price search's neighbour of
    #: one of them (``repro.scheduling.build_schedule``); an adopted
    #: warm placement keeps the source it was chosen under.
    source: str = "partitioned"
    #: Owner-computes projection and static placements of the same
    #: blocks; ``build_schedule`` admits those that dominate this one,
    #: prices them beside it, and refines on the price only a placement
    #: that carries them (a computed one, never an adopted one).
    alternatives: List["Placement"] = field(default_factory=list)
    #: Partition calls whose best candidate broke the balance caps.
    infeasible_partitions: int = 0

    def tokens_per_device(self) -> np.ndarray:
        out = np.zeros(self.cluster.num_devices, dtype=np.int64)
        np.add.at(out, self.slice_device, self.block_set.slice_tokens)
        return out

    def flops_per_device(self) -> np.ndarray:
        out = np.zeros(self.cluster.num_devices, dtype=np.int64)
        comp = self.block_set.comp_array
        np.add.at(
            out,
            self.comp_device,
            self.block_set.attention.tile_flops(comp.pairs),
        )
        return out


def static_placement(
    bhg: BlockHypergraph, cluster: ClusterSpec, source: str
) -> Placement:
    """The ``source`` heuristic of :data:`STATIC_HEURISTICS` over all of
    ``cluster``'s devices: static CP's zigzag or pure DP's packing, no
    partitioning."""
    labels = STATIC_HEURISTICS[source](bhg, cluster.num_devices)
    slice_device, comp_device = bhg.labels_to_devices(labels)
    return Placement(
        block_set=bhg.block_set,
        cluster=cluster,
        slice_device=slice_device.copy(),
        comp_device=comp_device.copy(),
        num_vertices=bhg.graph.num_vertices,
        num_edges=bhg.graph.num_edges,
        source=source,
    )


def _owner_projection(placement: Placement) -> Placement:
    """``placement`` with every computation block on its query slice's
    device: no partial output is sent back and merged, KV travels
    instead."""
    block_set = placement.block_set
    comp = block_set.comp_array
    q_slice = block_set.slice_indices(comp.seq_index, comp.q_block)
    return Placement(
        block_set=block_set,
        cluster=placement.cluster,
        slice_device=placement.slice_device,
        comp_device=placement.slice_device[q_slice],
        num_vertices=placement.num_vertices,
        num_edges=placement.num_edges,
        source="owner",
    )


def _alternatives(bhg: BlockHypergraph, placement: Placement) -> List[Placement]:
    """``placement``'s owner-computes projection and the static
    placements, each kept unless its labels equal ``placement``'s or an
    earlier candidate's."""

    def labels(p: Placement) -> np.ndarray:
        return np.concatenate([p.slice_device, p.comp_device])

    seen = [labels(placement)]
    kept = []
    for candidate in [_owner_projection(placement)] + [
        static_placement(bhg, placement.cluster, source)
        for source in STATIC_HEURISTICS
    ]:
        vertex_labels = labels(candidate)
        if not any(np.array_equal(vertex_labels, other) for other in seen):
            seen.append(vertex_labels)
            kept.append(candidate)
    return kept


def _warm_starts(
    bhg: BlockHypergraph, k: int, subset=None, enabled: bool = True
) -> List[np.ndarray]:
    if not enabled or k < 2:
        return []
    return [labels(bhg, k, subset) for labels in STATIC_HEURISTICS.values()]


def _warm_vector(block_set: BlockSet, warm) -> Optional[np.ndarray]:
    """Validate a previous placement's labels against this block set.

    Returns the concatenated per-vertex device labels (slices first,
    then computation blocks — the hypergraph's vertex order), or
    ``None`` if the shapes do not line up (a different block
    decomposition: the warm start is useless and planning falls back to
    the cold path).
    """
    if warm is None:
        return None
    slice_prev, comp_prev = (np.asarray(w, dtype=np.int64) for w in warm[:2])
    if slice_prev.shape != (len(block_set.token_slices),):
        return None
    if comp_prev.shape != (len(block_set.comp_blocks),):
        return None
    return np.concatenate([slice_prev, comp_prev])


def place_blocks(
    block_set: BlockSet,
    cluster: ClusterSpec,
    config: Optional[PlacementConfig] = None,
    warm: Optional[Tuple] = None,
) -> Placement:
    """Optimize block placement hierarchically for one batch.

    ``warm`` is a previous placement of the *same* block set —
    ``(slice_device, comp_device)`` label arrays, optionally followed by
    the placement's ``source``, e.g. recovered from
    ``plan.meta["placement"]`` — targeting a cluster with the same
    ``devices_per_machine`` but possibly a different machine count.
    The labels are global device ids, so their machine assignment is
    only meaningful under an unchanged device -> machine map; callers
    re-planning across a ``devices_per_machine`` change must plan cold
    (the streaming delta re-planner does).  Two warm regimes, both
    deterministic:

    * every previous label names a device that still exists: the
      placement is adopted verbatim, source included (the delta
      re-planner's reuse guarantee — a re-plan of an unaffected batch
      reproduces its plan byte-for-byte);
    * some labels reference vanished devices: the stranded vertices are
      repaired onto surviving devices (:func:`repair_labels`) and the
      result refined warm-only (``restarts=0``) at both hierarchy
      levels — no multilevel runs, no heuristic warm starts, which is
      what makes an event re-plan several times cheaper than planning
      from scratch.

    A computed placement (cold or repaired, never an adopted one)
    carries its owner-computes projection and the static placements as
    ``alternatives``.
    """
    config = config or PlacementConfig()
    num_machines = cluster.num_machines
    devices_per_machine = cluster.devices_per_machine

    warm_labels = _warm_vector(block_set, warm)
    if warm_labels is not None and len(warm_labels) and np.all(
        (warm_labels >= 0) & (warm_labels < cluster.num_devices)
    ):
        # Previous placement is feasible on this shape: adopt it.
        num_slices = len(block_set.token_slices)
        return Placement(
            block_set=block_set,
            cluster=cluster,
            slice_device=warm_labels[:num_slices].copy(),
            comp_device=warm_labels[num_slices:].copy(),
            num_vertices=len(warm_labels),
            num_edges=0,
            source=warm[2] if len(warm) > 2 else "partitioned",
        )

    bhg = build_block_hypergraph(block_set)
    num_vertices = bhg.graph.num_vertices
    warm_only = warm_labels is not None
    infeasible = 0

    # -- level 1: machines ------------------------------------------------
    if num_machines == 1:
        machine_labels = np.zeros(num_vertices, dtype=np.int64)
    else:
        balance = BalanceConstraint((config.eps_inter, EPS_DATA))
        if warm_only:
            warm_machines = repair_labels(
                bhg.graph,
                warm_labels // devices_per_machine,
                num_machines,
                balance.caps(bhg.graph, num_machines),
            )
            level1_warm, restarts = [warm_machines], 0
        else:
            level1_warm = _warm_starts(
                bhg, num_machines, enabled=config.use_warm_starts
            )
            restarts = config.restarts
        result = partition_hypergraph(
            bhg.graph,
            num_machines,
            balance,
            seed=config.seed,
            restarts=restarts,
            warm_starts=level1_warm,
            refine_passes=_REFINE_PASSES,
        )
        machine_labels = result.labels
        infeasible += not result.feasible

    # -- level 2: devices within each machine -----------------------------
    device_labels = np.zeros(num_vertices, dtype=np.int64)
    for machine in range(num_machines):
        members = np.nonzero(machine_labels == machine)[0]
        if len(members) == 0:
            continue
        first_device = machine * devices_per_machine
        if devices_per_machine == 1:
            device_labels[members] = first_device
            continue
        subgraph, original_ids = bhg.induced_subgraph(members)
        if warm_only:
            # The previous intra-machine offset is a meaningful start
            # for vertices that stayed on their machine and an
            # arbitrary-but-valid one for migrants; refinement sorts
            # both out.  Always in range, so no repair needed.
            level2_warm = [warm_labels[original_ids] % devices_per_machine]
            restarts = 0
        else:
            level2_warm = _warm_starts(
                bhg,
                devices_per_machine,
                subset=original_ids,
                enabled=config.use_warm_starts,
            )
            restarts = config.restarts
        result = partition_hypergraph(
            subgraph,
            devices_per_machine,
            BalanceConstraint((config.eps_intra, EPS_DATA)),
            seed=config.seed + machine + 1,
            restarts=restarts,
            warm_starts=level2_warm,
            refine_passes=_REFINE_PASSES,
        )
        device_labels[original_ids] = first_device + result.labels
        infeasible += not result.feasible

    slice_device, comp_device = bhg.labels_to_devices(device_labels)
    placement = Placement(
        block_set=block_set,
        cluster=cluster,
        slice_device=slice_device.copy(),
        comp_device=comp_device.copy(),
        num_vertices=bhg.graph.num_vertices,
        num_edges=bhg.graph.num_edges,
        infeasible_partitions=infeasible,
    )
    placement.alternatives = _alternatives(bhg, placement)
    return placement
