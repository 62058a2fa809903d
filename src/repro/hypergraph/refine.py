"""Partition refinement: greedy move-based local search (FM-style).

Moves are accepted when they reduce the connectivity cost without
violating the balance caps; a dedicated rebalancing pass repairs
infeasible partitions by relocating vertices out of overloaded parts at
minimal cost increase.

The placement graphs are small (a few hundred vertices), so the cost of
a search is interpreter and numpy *call* overhead, not arithmetic.
:class:`RefinementState` therefore keeps the classic FM gain tables
(Fiduccia & Mattheyses; KaHyPar's gain cache) as plain Python lists
beside the pin counts: a gain or an adjacency test is a table read, and
a move applies delta updates only where a pin count crosses 0, 1 or 2.
The tables are built once per state in one vectorized pass; after that
no numpy call sits on the per-move path.

Move-acceptance semantics — the whole search trajectory, not only its
result — are identical to the scalar reference in
``tests/hypergraph_reference.py``, which the parity tests enforce; ties
break toward the lowest part index.
"""

from __future__ import annotations

import heapq
import itertools
import math
import threading
from typing import List, Sequence

import numpy as np

from .graph import Hypergraph, fits_under

__all__ = [
    "RefinementState",
    "RefineCounters",
    "COUNTERS",
    "greedy_refine",
    "fm_refine",
    "fruitless_move_limit",
    "rebalance",
]


class RefineCounters(threading.local):
    """Counters of refinement work (reported in PlanningStats).

    Thread-local: every thread reads and resets its own counts, so
    plans made concurrently on the pipeline's planner threads do not
    zero or inflate each other's stats.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.gain_evals = 0
        self.moves = 0  # every applied move, FM's undo moves included
        self.rolled_back = 0  # tentative FM moves undone at pass end

    def snapshot(self) -> dict:
        return dict(vars(self))


#: Module-level counters; the planner resets them per planning run.
COUNTERS = RefineCounters()

#: Most tentative moves one FM pass tries (read at run time).
MOVE_CAP = 4000


class RefinementState:
    """Incremental bookkeeping for move-based refinement.

    Beside the pin counts ``counts[e][p]`` it maintains, per vertex,

    * ``leave[v]`` — total weight of incident edges on which ``v`` is
      the only pin of its part (the part leaves their span if ``v``
      moves away),
    * ``join[v][p]`` — total weight of incident edges with no pin in
      ``p`` (``p`` joins their span if ``v`` moves there),
    * ``present[v][p]`` — number of incident edges with a pin in ``p``,

    so ``gain(v, t) = leave[v] - join[v][t]`` and "``t`` is adjacent to
    ``v``" is ``present[v][t] > 0``.  ``labels`` and ``part_weights``
    are numpy snapshots built on demand.

    Work is counted into the module-level :data:`COUNTERS`, which is
    thread-local: a state counts into the stats of the thread that
    drives it.
    """

    def __init__(
        self,
        graph: Hypergraph,
        labels: np.ndarray,
        k: int,
    ) -> None:
        self.graph = graph
        self.k = k
        labels = np.asarray(labels, dtype=np.int64)
        counts = graph.pin_part_counts(labels, k)
        vindptr, vedges = graph.vertex_csr()
        # One row per (vertex, incident edge) entry of the vertex CSR.
        weights = graph.edge_weights[vedges]
        rows = counts[vedges]
        own = rows[np.arange(len(vedges)), np.repeat(labels, np.diff(vindptr))]

        def per_vertex(values: np.ndarray) -> list:
            # Segment sums as differences of a running total: exact on
            # integers and indifferent to vertices without edges.
            total = np.zeros((len(values) + 1,) + values.shape[1:], np.int64)
            np.cumsum(values, axis=0, out=total[1:])
            return (total[vindptr[1:]] - total[vindptr[:-1]]).tolist()

        self.leave: List[int] = per_vertex(weights * (own == 1))
        self.join: List[List[int]] = per_vertex((rows == 0) * weights[:, None])
        self.present: List[List[int]] = per_vertex(rows > 0)
        self._labels: List[int] = labels.tolist()
        self._counts: List[List[int]] = counts.tolist()
        self._part_weights: List[List[int]] = graph.part_weights(
            labels, k
        ).tolist()
        self._incidence = graph.incidence()
        self._pins = graph.pin_lists()
        self._edge_weights: List[int] = graph.edge_weights.tolist()
        self._weights: List[List[int]] = graph.weights.tolist()

    @property
    def labels(self) -> np.ndarray:
        return np.array(self._labels, dtype=np.int64)

    @property
    def part_weights(self) -> np.ndarray:
        return np.array(self._part_weights, dtype=np.int64)

    def move(self, vertex: int, target: int) -> None:
        labels = self._labels
        source = labels[vertex]
        if source == target:
            return
        counts, pins = self._counts, self._pins
        edge_weights = self._edge_weights
        leave, join, present = self.leave, self.join, self.present
        alone = 0  # becomes leave[vertex]: edges where it is target's only pin
        for edge in self._incidence[vertex]:
            weight = edge_weights[edge]
            row = counts[edge]
            row[source] = left = row[source] - 1
            if left == 0:
                for pin in pins[edge]:
                    join[pin][source] += weight
                    present[pin][source] -= 1
            elif left == 1:
                for pin in pins[edge]:
                    if labels[pin] == source and pin != vertex:
                        leave[pin] += weight
                        break
            row[target] = arrived = row[target] + 1
            if arrived == 1:
                alone += weight
                for pin in pins[edge]:
                    join[pin][target] -= weight
                    present[pin][target] += 1
            elif arrived == 2:
                for pin in pins[edge]:
                    if labels[pin] == target:
                        leave[pin] -= weight
                        break
        leave[vertex] = alone
        labels[vertex] = target
        source_weight = self._part_weights[source]
        target_weight = self._part_weights[target]
        for dim, weight in enumerate(self._weights[vertex]):
            source_weight[dim] -= weight
            target_weight[dim] += weight
        COUNTERS.moves += 1

    def fits(self, vertex: int, target: int, caps: Sequence[int]) -> bool:
        return fits_under(
            self._part_weights[target], self._weights[vertex], caps
        )

    def cost(self) -> int:
        total = 0
        for weight, row in zip(self._edge_weights, self._counts):
            span = self.k - row.count(0)
            if span > 1:
                total += weight * (span - 1)
        return total

    def is_feasible(self, caps: Sequence[int]) -> bool:
        return all(
            held <= cap
            for part in self._part_weights
            for held, cap in zip(part, caps)
        )


def greedy_refine(
    state: RefinementState,
    caps: np.ndarray,
    rng: np.random.Generator,
    max_passes: int = 8,
) -> int:
    """Iterated greedy improvement; returns the number of moves made.

    Each pass visits vertices in random order and applies the best
    strictly-positive-gain move that keeps the partition feasible.
    Candidate targets are restricted to parts adjacent through incident
    edges (moving elsewhere can never reduce connectivity); ties break
    toward the lowest part index.
    """
    k = state.k
    caps_list = caps.tolist()
    labels, leave, join, present = (
        state._labels, state.leave, state.join, state.present
    )
    moves = 0
    for _ in range(max_passes):
        improved = False
        gain_evals = 0
        for vertex in rng.permutation(state.graph.num_vertices).tolist():
            adjacent = present[vertex]
            # Its own part is present on every incident edge, so fewer
            # than two present parts means no candidate target.
            if k - adjacent.count(0) < 2:
                continue
            gain_evals += k
            source = labels[vertex]
            vertex_leave = leave[vertex]
            vertex_join = join[vertex]
            best_target, best_gain = -1, 0
            for target in range(k):
                if target == source or not adjacent[target]:
                    continue
                gain = vertex_leave - vertex_join[target]
                if gain > best_gain and state.fits(vertex, target, caps_list):
                    best_target, best_gain = target, gain
            if best_target >= 0:
                state.move(vertex, best_target)
                moves += 1
                improved = True
        COUNTERS.gain_evals += gain_evals
        if not improved:
            break
    return moves


def fruitless_move_limit(num_vertices: int) -> int:
    """Tentative FM moves without a new best cost that end a pass.

    Scales with the graph (a fifth of its vertices, at least 8) so the
    stop can fire on the ~60-vertex machine-local graphs that make up
    most calls; the ceiling of 128 keeps paper-scale graphs of a few
    thousand vertices searching exactly as far as a fixed bound did.
    """
    return min(128, max(8, num_vertices // 5))


def fm_refine(
    state: RefinementState,
    caps: np.ndarray,
    rng: np.random.Generator,
    max_passes: int = 3,
) -> int:
    """Fiduccia–Mattheyses refinement with rollback.

    Unlike :func:`greedy_refine`, FM tentatively applies zero- and
    negative-gain moves (each vertex at most once per pass) and rolls
    back to the best prefix, which lets the cut slide across plateaus —
    essential for chain-like hypergraphs such as causal attention.
    A pass stops after :func:`fruitless_move_limit` consecutive
    tentative moves without a new best cost: they would all be rolled
    back unless a later improvement showed up, and improvements behind
    a longer plateau are forfeited.  A candidate whose target is full
    is retried once a move takes weight out of that target.

    A pass tries at most ``min(num_vertices, MOVE_CAP)`` moves.

    Returns the number of net (kept) moves.
    """
    num_vertices = state.graph.num_vertices
    k = state.k
    move_cap = min(num_vertices, MOVE_CAP)
    patience = fruitless_move_limit(num_vertices)
    counter = itertools.count()
    kept_moves = 0
    caps_list = caps.tolist()
    parts = range(k)
    labels, leave, join, present = (
        state._labels, state.leave, state.join, state.present
    )
    counts, incidence, pins = state._counts, state._incidence, state._pins
    heappush, heappop = heapq.heappush, heapq.heappop

    for _ in range(max_passes):
        heap: list = []
        # version[v] identifies the newest push of v's candidates.  Every
        # move re-pushes exactly the vertices whose gains it changed, so
        # an entry whose version is current carries its exact gain.
        version = [0] * num_vertices
        # Entries popped while their target was over cap, per target;
        # they go back on the heap when a move takes weight out of it.
        blocked: List[list] = [[] for _ in parts]
        gain_evals = 0

        def push(vertex: int) -> None:
            adjacent = present[vertex]
            source = labels[vertex]
            vertex_leave = leave[vertex]
            vertex_join = join[vertex]
            version[vertex] = newest = version[vertex] + 1
            for target in parts:
                if adjacent[target] and target != source:
                    loss = vertex_join[target] - vertex_leave
                    heappush(heap, (loss, next(counter), vertex, target, newest))

        # Boundary vertices: at least one part besides their own is
        # present on an incident edge.
        boundary = np.array(
            [v for v in range(num_vertices) if k - present[v].count(0) >= 2],
            dtype=np.int64,
        )
        rng.shuffle(boundary)
        for vertex in boundary.tolist():
            push(vertex)
        gain_evals += len(boundary) * k

        moved = [False] * num_vertices
        history = []  # (vertex, source_part)
        best_cost = current_cost = state.cost()
        best_length = 0

        while heap and len(history) < move_cap:
            if len(history) - best_length >= patience:
                break
            entry = heappop(heap)
            neg_gain, _, vertex, target, entry_version = entry
            if version[vertex] != entry_version or moved[vertex]:
                continue
            if not state.fits(vertex, target, caps_list):
                blocked[target].append(entry)
                continue
            source = labels[vertex]
            history.append((vertex, source))
            state.move(vertex, target)
            moved[vertex] = True
            current_cost += neg_gain
            if current_cost < best_cost:
                best_cost = current_cost
                best_length = len(history)
            # A pin's gains changed only where the move took a part out
            # of an edge's span or into it (every pin of the edge), or
            # left / joined a single pin of its part on the edge (that
            # pin).  Those are pushed afresh, in ascending order.
            changed: set = set()
            for edge in incidence[vertex]:
                left, arrived = counts[edge][source], counts[edge][target]
                if left == 0 or arrived == 1:
                    changed.update(pins[edge])
                elif left == 1 or arrived == 2:
                    lone = (
                        source if left == 1 else -1,
                        target if arrived == 2 else -1,
                    )
                    changed.update(p for p in pins[edge] if labels[p] in lone)
            for pin in sorted(changed):
                if not moved[pin]:
                    gain_evals += k
                    push(pin)
            retry, blocked[source] = blocked[source], []
            for entry in retry:
                if version[entry[2]] == entry[4] and not moved[entry[2]]:
                    heappush(heap, entry)

        for vertex, source in reversed(history[best_length:]):
            state.move(vertex, source)
        kept_moves += best_length
        COUNTERS.gain_evals += gain_evals
        COUNTERS.rolled_back += len(history) - best_length
        if best_length == 0:
            break
    return kept_moves


def rebalance(
    state: RefinementState,
    caps: np.ndarray,
    rng: np.random.Generator,
) -> bool:
    """Repair balance violations; returns True when feasible afterwards.

    Vertices are evicted from overloaded parts into the least-loaded
    feasible part, preferring moves with the smallest cost increase.
    Each scan scores one random eviction sample from the gain tables
    (losses and cap feasibility snapshotted at scan start), then drains
    it in ascending (loss, sample position, part) order — re-checking
    the caps before every move — until the overloaded part fits or the
    sample is exhausted.  A scan reads the state's lists; its one numpy
    call is the sample's ``rng.permutation`` draw.

    Infeasible instances (integral weights can make the caps plainly
    unsatisfiable) are detected by stagnation: when three consecutive
    scans fail to reduce the total overload, the pass gives up instead
    of thrashing vertices until it has made ``4 * num_vertices`` moves.
    """
    k = state.k
    max_moves = 4 * state.graph.num_vertices
    caps_list = caps.tolist()
    leave, join = state.leave, state.join
    labels, weights = state._labels, state._weights
    part_weights = state._part_weights

    def total_overload() -> int:
        return sum(
            max(held - cap, 0)
            for part in part_weights
            for held, cap in zip(part, caps_list)
        )

    moves = 0
    best_overload = total_overload()
    stalled = 0
    while moves < max_moves:
        # The worst (part, dimension) by held / cap, first on ties.  A
        # zero cap is overloaded without bound by any weight and not at
        # all by none.
        worst, worst_part, over_dim = -1.0, 0, 0
        for part, held_row in enumerate(part_weights):
            for dim, (held, cap) in enumerate(zip(held_row, caps_list)):
                if cap > 0:
                    ratio = held / cap
                else:
                    ratio = math.inf if held > 0 else 0.0
                if ratio > worst:
                    worst, worst_part, over_dim = ratio, part, dim
        worst_weight = part_weights[worst_part]
        if all(h <= cap for h, cap in zip(worst_weight, caps_list)):
            return True
        movable = [
            vertex
            for vertex, label in enumerate(labels)
            if label == worst_part and weights[vertex][over_dim] > 0
        ]
        if not movable:
            return False
        # Prefer evicting small vertices with the least connectivity loss.
        sample = rng.permutation(movable)[:64].tolist()

        COUNTERS.gain_evals += len(sample) * k
        entries = []
        for row, vertex in enumerate(sample):
            need, vertex_join, vertex_leave = (
                weights[vertex], join[vertex], leave[vertex]
            )
            for target in range(k):
                if target != worst_part and fits_under(
                    part_weights[target], need, caps_list
                ):
                    entries.append(
                        (vertex_join[target] - vertex_leave, row, target)
                    )
        entries.sort()
        taken = set()
        for _, row, target in entries:
            if moves >= max_moves:
                break
            if row in taken:
                continue
            vertex = sample[row]
            if not fits_under(part_weights[target], weights[vertex], caps_list):
                continue  # an earlier eviction filled this part up
            taken.add(row)
            state.move(vertex, target)
            moves += 1
            if all(h <= cap for h, cap in zip(worst_weight, caps_list)):
                break

        if not taken:
            # No target has room for any sampled vertex: move one to the
            # globally least-loaded part anyway so progress continues
            # (the cap is re-checked at the end).
            target = min(range(k), key=lambda p: part_weights[p][over_dim])
            if target == worst_part:
                return False
            state.move(sample[0], target)
            moves += 1
        overload_now = total_overload()
        if overload_now < best_overload:
            best_overload = overload_now
            stalled = 0
        else:
            stalled += 1
            if stalled >= 3:
                return False
    return state.is_feasible(caps_list)
