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
no numpy call sits on the per-move path.  A per-vertex staleness stamp
still lets FM trust heap entries whose incident pin counts are
untouched since the push.

Move-acceptance semantics — the whole search trajectory, not only its
result — are identical to the scalar reference in
``tests/hypergraph_reference.py``, which the parity tests enforce; ties
break toward the lowest part index.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import List, Optional, Sequence

import numpy as np

from .graph import Hypergraph, fits_under

__all__ = [
    "RefinementState",
    "RefineCounters",
    "COUNTERS",
    "greedy_refine",
    "fm_refine",
    "rebalance",
]

#: FM refreshes the heap entries of a moved vertex's neighbours only
#: along edges of at most this many pins (larger edges contribute
#: little per pin and would flood the heap).
_MAX_REFRESH_PINS = 64


class RefineCounters(threading.local):
    """Counters of refinement work (reported in PlanningStats).

    Thread-local: every thread reads and resets its own counts, so
    plans made concurrently on the pipeline's planner threads do not
    zero or inflate each other's stats.
    """

    def __init__(self) -> None:
        self.gain_evals = 0
        self.moves = 0

    def reset(self) -> None:
        self.gain_evals = 0
        self.moves = 0

    def snapshot(self) -> dict:
        return {"gain_evals": self.gain_evals, "moves": self.moves}


#: Module-level counters; the planner resets them per planning run.
COUNTERS = RefineCounters()


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
    ``v``" is ``present[v][t] > 0``.  ``labels``, ``pin_counts`` and
    ``part_weights`` are numpy snapshots built on demand.

    ``counters`` defaults to the module-level :data:`COUNTERS`, which is
    thread-local: a state counts into the stats of the thread that
    drives it.
    """

    def __init__(
        self,
        graph: Hypergraph,
        labels: np.ndarray,
        k: int,
        counters: Optional[RefineCounters] = None,
    ) -> None:
        self.graph = graph
        self.k = k
        self.counters = COUNTERS if counters is None else counters
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
    def pin_counts(self) -> np.ndarray:
        return np.array(self._counts, dtype=np.int64).reshape(-1, self.k)

    @property
    def part_weights(self) -> np.ndarray:
        return np.array(self._part_weights, dtype=np.int64)

    def gain(self, vertex: int, target: int) -> int:
        """Connectivity reduction if ``vertex`` moves to ``target``."""
        if self._labels[vertex] == target:
            return 0
        self.counters.gain_evals += 1
        return self.leave[vertex] - self.join[vertex][target]

    def gain_vector(self, vertex: int) -> np.ndarray:
        """Gains of moving ``vertex`` to every part at once (0 at source)."""
        gains = self.leave[vertex] - np.array(self.join[vertex], dtype=np.int64)
        gains[self._labels[vertex]] = 0
        self.counters.gain_evals += self.k
        return gains

    def batch_gains(self, vertices: Sequence[int]):
        """Gains and adjacency of a batch of vertices, as arrays.

        Returns ``(gains, adjacent)`` of shape ``[len(vertices), k]``:
        ``gains[i, t]`` is the connectivity reduction of moving
        ``vertices[i]`` to part ``t`` and ``adjacent[i, t]`` marks parts
        reachable through incident edges (source part excluded).
        Duplicates in ``vertices`` are evaluated independently.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        n, k = len(vertices), self.k
        self.counters.gain_evals += n * k
        rows = np.arange(n)
        sources = self.labels[vertices]
        leave = np.array(self.leave, dtype=np.int64)[vertices]
        join = np.array(self.join, dtype=np.int64).reshape(-1, k)[vertices]
        present = np.array(self.present, dtype=np.int64).reshape(-1, k)
        gains = leave[:, None] - join
        adjacent = present[vertices] > 0
        gains[rows, sources] = 0
        adjacent[rows, sources] = False
        return gains, adjacent

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
        self.counters.moves += 1

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
        state.counters.gain_evals += gain_evals
        if not improved:
            break
    return moves


def fm_refine(
    state: RefinementState,
    caps: np.ndarray,
    rng: np.random.Generator,
    max_passes: int = 3,
    move_cap: Optional[int] = None,
    patience: int = 128,
) -> int:
    """Fiduccia–Mattheyses refinement with rollback.

    Unlike :func:`greedy_refine`, FM tentatively applies zero- and
    negative-gain moves (each vertex at most once per pass) and rolls
    back to the best prefix, which lets the cut slide across plateaus —
    essential for chain-like hypergraphs such as causal attention.
    ``patience`` bounds how far a plateau is explored: a pass stops
    once that many consecutive tentative moves fail to produce a new
    best cost (they would all be rolled back unless a later
    improvement showed up).  This is a deliberate deviation from the
    unbounded historic traversal — improvements hiding behind a longer
    plateau are forfeited for a large constant-factor speedup; raise
    ``patience`` (up to ``move_cap``) to trade time for quality.

    Returns the number of net (kept) moves.
    """
    num_vertices = state.graph.num_vertices
    k = state.k
    if move_cap is None:
        move_cap = min(num_vertices, 4000)
    counter = itertools.count()
    kept_moves = 0
    caps_list = caps.tolist()
    parts = range(k)
    labels, leave, join, present = (
        state._labels, state.leave, state.join, state.present
    )
    incidence, pins = state._incidence, state._pins
    heappush, heappop = heapq.heappush, heapq.heappop

    for _ in range(max_passes):
        heap: list = []
        # vertex_stamp[v] = index of the last move that touched a pin
        # count v's gains depend on; entries carry the stamp at push
        # time, so a pop whose stamp is still current needs no gain
        # re-read.  version[v*k+t] identifies the newest push of each
        # (vertex, target) candidate: older duplicates are discarded on
        # pop without any gain or feasibility work.
        vertex_stamp = [0] * num_vertices
        version = [0] * (num_vertices * k)
        move_index = 0
        gain_evals = 0

        def push(vertex: int) -> None:
            adjacent = present[vertex]
            source = labels[vertex]
            vertex_leave = leave[vertex]
            vertex_join = join[vertex]
            for target in parts:
                if adjacent[target] and target != source:
                    key = vertex * k + target
                    version[key] = entry_version = version[key] + 1
                    heappush(
                        heap,
                        (
                            vertex_join[target] - vertex_leave,
                            next(counter),
                            vertex,
                            target,
                            move_index,
                            entry_version,
                        ),
                    )

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
        current_cost = state.cost()
        best_cost = current_cost
        best_length = 0

        while heap and len(history) < move_cap:
            if len(history) - best_length >= patience:
                break
            neg_gain, _, vertex, target, stamp, entry_version = heappop(heap)
            if (
                version[vertex * k + target] != entry_version
                or moved[vertex]
                or target == labels[vertex]
            ):
                continue
            if vertex_stamp[vertex] <= stamp:
                actual = -neg_gain  # untouched since push: still exact
            else:
                gain_evals += 1
                actual = leave[vertex] - join[vertex][target]
                if actual < -neg_gain:  # stale entry: requeue, real gain
                    key = vertex * k + target
                    version[key] = entry_version = version[key] + 1
                    heappush(
                        heap,
                        (
                            -actual,
                            next(counter),
                            vertex,
                            target,
                            move_index,
                            entry_version,
                        ),
                    )
                    continue
            if not state.fits(vertex, target, caps_list):
                continue
            history.append((vertex, labels[vertex]))
            state.move(vertex, target)
            moved[vertex] = True
            current_cost -= actual
            if current_cost < best_cost:
                best_cost = current_cost
                best_length = len(history)
            move_index += 1
            # Everything sharing an edge with the moved vertex now sees
            # different pin counts; along small edges its candidates
            # are pushed afresh (once per shared edge, in edge then pin
            # order — the newest entry is the live one).
            for edge in incidence[vertex]:
                edge_pins = pins[edge]
                refresh = len(edge_pins) <= _MAX_REFRESH_PINS
                for pin in edge_pins:
                    vertex_stamp[pin] = move_index
                    if refresh and not moved[pin]:
                        gain_evals += k
                        push(pin)

        for vertex, source in reversed(history[best_length:]):
            state.move(vertex, source)
        kept_moves += best_length
        state.counters.gain_evals += gain_evals
        if best_length == 0:
            break
    return kept_moves


def rebalance(
    state: RefinementState,
    caps: np.ndarray,
    rng: np.random.Generator,
    max_moves: Optional[int] = None,
) -> bool:
    """Repair balance violations; returns True when feasible afterwards.

    Vertices are evicted from overloaded parts into the least-loaded
    feasible part, preferring moves with the smallest cost increase.
    Each scan scores one random eviction sample from the gain tables
    (losses and cap feasibility snapshotted at scan start), then drains
    it in ascending (loss, sample position, part) order — re-checking
    the caps before every move — until the overloaded part fits or the
    sample is exhausted.

    Infeasible instances (integral weights can make the caps plainly
    unsatisfiable) are detected by stagnation: when three consecutive
    scans fail to reduce the total overload, the pass gives up instead
    of thrashing vertices until ``max_moves``.
    """
    graph = state.graph
    k = state.k
    if max_moves is None:
        max_moves = 4 * graph.num_vertices
    caps_list = caps.tolist()
    leave, join = state.leave, state.join

    def total_overload() -> int:
        return sum(
            max(held - cap, 0)
            for part in state._part_weights
            for held, cap in zip(part, caps_list)
        )

    moves = 0
    best_overload = total_overload()
    stalled = 0
    while moves < max_moves:
        part_weights = state.part_weights
        overload = part_weights.astype(np.float64) / caps[None, :]
        worst_part = int(np.argmax(overload.max(axis=1)))
        if np.all(part_weights[worst_part] <= caps):
            return True
        over_dim = int(np.argmax(overload[worst_part]))
        members = np.nonzero(state.labels == worst_part)[0]
        movable = members[graph.weights[members, over_dim] > 0]
        if len(movable) == 0:
            return False
        # Prefer evicting small vertices with the least connectivity loss.
        sample = rng.permutation(movable)[: min(len(movable), 64)].tolist()

        state.counters.gain_evals += len(sample) * k
        entries = sorted(
            (join[vertex][target] - leave[vertex], row, target)
            for row, vertex in enumerate(sample)
            for target in range(k)
            if target != worst_part and state.fits(vertex, target, caps_list)
        )
        taken = set()
        worst_weight = state._part_weights[worst_part]
        for _, row, target in entries:
            if moves >= max_moves:
                break
            if row in taken:
                continue
            vertex = sample[row]
            if not state.fits(vertex, target, caps_list):
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
            target = int(np.argmin(part_weights[:, over_dim]))
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
