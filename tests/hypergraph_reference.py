"""Scalar reference implementations of partition refinement.

This module implements the *same algorithms* as
:mod:`repro.hypergraph.refine`, recomputing every gain from the pin
counts with per-edge Python loops instead of reading incremental gain
tables.  It exists so property tests can prove the table-driven
refinement makes exactly the same decisions: identical labels, costs
and move counts under the same RNG seed.  It lives beside the tests
because nothing else may reach it.

It is a reference for the **current** semantics, not a museum copy of
the pre-vectorization code.  Relative to the historic implementation,
both sides deliberately share these changes (disclosed in CHANGES.md):

* candidate target parts are visited in ascending order (the old code
  iterated Python sets, whose order for small ints is ascending in
  CPython anyway), so tie-breaking is well-defined;
* FM keeps only the newest push of a vertex's candidates, re-pushes
  after a move exactly the vertices whose gains it changed, retries a
  candidate dropped for lack of room when its target loses weight, and
  stops a pass after ``min(128, max(8, a fifth of the vertices))``
  tentative moves without a new best cost;
* rebalance drains a scored eviction sample per scan (caps re-checked
  before every move) and gives up once the total overload stagnates
  for three consecutive scans instead of thrashing to ``max_moves``.

It is deliberately slow.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Optional

import numpy as np

from repro.hypergraph import Hypergraph

__all__ = [
    "ScalarRefinementState",
    "scalar_greedy_refine",
    "scalar_fm_refine",
    "scalar_rebalance",
]


class ScalarRefinementState:
    """Incremental bookkeeping with per-edge Python loops (reference)."""

    def __init__(self, graph: Hypergraph, labels: np.ndarray, k: int) -> None:
        self.graph = graph
        self.k = k
        self.labels = labels.astype(np.int64).copy()
        self.pin_counts = self._pin_part_counts(graph, self.labels, k)
        self.part_weights = graph.part_weights(self.labels, k)

    @staticmethod
    def _pin_part_counts(
        graph: Hypergraph, labels: np.ndarray, k: int
    ) -> np.ndarray:
        counts = np.zeros((graph.num_edges, k), dtype=np.int64)
        for edge_index, pin in enumerate(graph.pins):
            parts, occur = np.unique(labels[pin], return_counts=True)
            counts[edge_index, parts] = occur
        return counts

    def gain(self, vertex: int, target: int) -> int:
        source = self.labels[vertex]
        if source == target:
            return 0
        total = 0
        for edge_index in self.graph.incidence()[vertex]:
            weight = int(self.graph.edge_weights[edge_index])
            counts = self.pin_counts[edge_index]
            if counts[source] == 1:
                total += weight  # source part leaves the edge's span
            if counts[target] == 0:
                total -= weight  # target part joins the edge's span
        return total

    def move(self, vertex: int, target: int) -> None:
        source = self.labels[vertex]
        if source == target:
            return
        for edge_index in self.graph.incidence()[vertex]:
            self.pin_counts[edge_index, source] -= 1
            self.pin_counts[edge_index, target] += 1
        self.part_weights[source] -= self.graph.weights[vertex]
        self.part_weights[target] += self.graph.weights[vertex]
        self.labels[vertex] = target

    def fits(self, vertex: int, target: int, caps: np.ndarray) -> bool:
        new_weight = self.part_weights[target] + self.graph.weights[vertex]
        return bool(np.all(new_weight <= caps))

    def cost(self) -> int:
        spans = (self.pin_counts > 0).sum(axis=1)
        active = spans > 0
        return int(
            (self.graph.edge_weights[active] * (spans[active] - 1)).sum()
        )

    def is_feasible(self, caps: np.ndarray) -> bool:
        return bool(np.all(self.part_weights <= caps[None, :]))


def scalar_greedy_refine(
    state: ScalarRefinementState,
    caps: np.ndarray,
    rng: np.random.Generator,
    max_passes: int = 8,
) -> int:
    """The original greedy pass; see :func:`repro.hypergraph.refine.greedy_refine`."""
    graph = state.graph
    incidence = graph.incidence()
    moves = 0
    for _ in range(max_passes):
        improved = False
        for vertex in rng.permutation(graph.num_vertices):
            source = state.labels[vertex]
            candidates = set()
            for edge_index in incidence[vertex]:
                counts = state.pin_counts[edge_index]
                candidates.update(np.nonzero(counts)[0].tolist())
            candidates.discard(source)
            best_target, best_gain = -1, 0
            for target in sorted(candidates):
                gain = state.gain(vertex, target)
                if gain > best_gain and state.fits(vertex, target, caps):
                    best_target, best_gain = target, gain
            if best_target >= 0:
                state.move(vertex, best_target)
                moves += 1
                improved = True
        if not improved:
            break
    return moves


def _adjacent_parts(state: ScalarRefinementState, vertex: int) -> list:
    parts = set()
    for edge_index in state.graph.incidence()[vertex]:
        parts.update(np.nonzero(state.pin_counts[edge_index])[0].tolist())
    parts.discard(int(state.labels[vertex]))
    return sorted(parts)


def _gain_vector(state: ScalarRefinementState, vertex: int) -> list:
    return [state.gain(vertex, target) for target in range(state.k)]


def scalar_fm_refine(
    state: ScalarRefinementState,
    caps: np.ndarray,
    rng: np.random.Generator,
    max_passes: int = 3,
    move_cap: Optional[int] = None,
) -> int:
    """The FM pass; see :func:`repro.hypergraph.refine.fm_refine`.

    Where the table implementation reads which pin counts a move took
    across 0, 1 or 2, this one compares every neighbour's recomputed
    gains before and after the move.
    """
    graph = state.graph
    if move_cap is None:
        move_cap = min(graph.num_vertices, 4000)
    patience = min(128, max(8, graph.num_vertices // 5))
    incidence = graph.incidence()
    counter = itertools.count()
    kept_moves = 0

    for _ in range(max_passes):
        heap: list = []
        # Only the newest push of a vertex's candidates is live.
        version: dict = {}
        # Entries popped while their target was over cap, per target.
        blocked: dict = {part: [] for part in range(state.k)}

        def push(vertex: int) -> None:
            version[vertex] = entry_version = version.get(vertex, 0) + 1
            for target in _adjacent_parts(state, vertex):
                gain = state.gain(vertex, target)
                heapq.heappush(
                    heap,
                    (-gain, next(counter), int(vertex), int(target),
                     entry_version),
                )

        boundary = np.array(
            [v for v in range(graph.num_vertices) if _adjacent_parts(state, v)],
            dtype=np.int64,
        )
        rng.shuffle(boundary)
        for vertex in boundary.tolist():
            push(vertex)

        moved = set()
        history = []  # (vertex, source_part)
        current_cost = state.cost()
        best_cost = current_cost
        best_length = 0

        while heap and len(history) < move_cap:
            if len(history) - best_length >= patience:
                break
            entry = heapq.heappop(heap)
            neg_gain, _, vertex, target, entry_version = entry
            if version[vertex] != entry_version or vertex in moved:
                continue
            assert state.gain(vertex, target) == -neg_gain  # live => exact
            if not state.fits(vertex, target, caps):
                blocked[target].append(entry)
                continue
            source = int(state.labels[vertex])
            neighbours = sorted(
                {
                    pin
                    for edge_index in incidence[vertex]
                    for pin in graph.pins[edge_index].tolist()
                    if pin not in moved and pin != vertex
                }
            )
            before = {pin: _gain_vector(state, pin) for pin in neighbours}
            state.move(vertex, target)
            moved.add(vertex)
            history.append((vertex, source))
            current_cost += neg_gain
            if current_cost < best_cost:
                best_cost = current_cost
                best_length = len(history)
            for pin in neighbours:
                if _gain_vector(state, pin) != before[pin]:
                    push(pin)
            retry, blocked[source] = blocked[source], []
            for entry in retry:
                if version[entry[2]] == entry[4] and entry[2] not in moved:
                    heapq.heappush(heap, entry)

        for vertex, source in reversed(history[best_length:]):
            state.move(vertex, source)
        kept_moves += best_length
        if best_length == 0:
            break
    return kept_moves


def scalar_rebalance(
    state: ScalarRefinementState,
    caps: np.ndarray,
    rng: np.random.Generator,
    max_moves: Optional[int] = None,
) -> bool:
    """The scalar rebalance; see :func:`repro.hypergraph.refine.rebalance`.

    Same scan semantics as the vectorized version: score one random
    eviction sample (losses and cap feasibility snapshotted at scan
    start), then drain it in ascending-(loss, sample position, part)
    order — re-checking the caps before every move — until the
    overloaded part fits or the sample is exhausted.
    """
    graph = state.graph
    if max_moves is None:
        max_moves = 4 * graph.num_vertices
    moves = 0
    best_overload = int(
        np.maximum(state.part_weights - caps[None, :], 0).sum()
    )
    stalled = 0
    while moves < max_moves:
        overload = state.part_weights.astype(np.float64) / caps[None, :]
        worst_part = int(np.argmax(overload.max(axis=1)))
        if np.all(state.part_weights[worst_part] <= caps):
            return True
        over_dim = int(np.argmax(overload[worst_part]))
        members = np.nonzero(state.labels == worst_part)[0]
        movable = members[graph.weights[members, over_dim] > 0]
        if len(movable) == 0:
            return False
        sample = rng.permutation(movable)[: min(len(movable), 64)]

        # Snapshot losses of all cap-feasible (vertex, target) pairs.
        entries = []
        for row, vertex in enumerate(sample):
            for target in range(state.k):
                if target == worst_part or not state.fits(vertex, target, caps):
                    continue
                entries.append((-state.gain(vertex, target), row, target))
        entries.sort()

        taken = set()
        progressed = False
        for loss, row, target in entries:
            if moves >= max_moves:
                break
            if row in taken:
                continue
            vertex = int(sample[row])
            if not state.fits(vertex, target, caps):
                continue  # an earlier eviction filled this part up
            taken.add(row)
            state.move(vertex, target)
            moves += 1
            progressed = True
            if np.all(state.part_weights[worst_part] <= caps):
                break
        if not progressed:
            vertex = int(sample[0])
            target = int(np.argmin(state.part_weights[:, over_dim]))
            if target == worst_part:
                return False
            state.move(vertex, target)
            moves += 1
        overload_now = int(
            np.maximum(state.part_weights - caps[None, :], 0).sum()
        )
        if overload_now < best_overload:
            best_overload = overload_now
            stalled = 0
        else:
            stalled += 1
            if stalled >= 3:
                return False
    return state.is_feasible(caps)
