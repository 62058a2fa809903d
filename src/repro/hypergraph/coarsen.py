"""Multilevel coarsening via heavy-pin matching.

Pairs of vertices that share many light hyperedges are contracted, so
the coarse graph preserves the connectivity structure.  The similarity
score between two vertices is the classic heavy-edge rating
``sum_{e shared} w_e / (|pins_e| - 1)`` used by hMETIS/KaHyPar-style
partitioners.

Matching walks the graph's cached incidence lists and accumulates one
vertex's neighbourhood scores in a dict (first-encounter order is the
tie-break); contraction deduplicates coarse pins with one global
lexsort instead of per-edge Python loops.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .graph import Hypergraph, fits_under

__all__ = ["contract", "coarsen_once", "coarsen"]

# Hyperedges with more pins than this contribute little information per
# pair and cost a lot to scan, so matching skips them.
_MAX_SCAN_PINS = 64


def contract(graph: Hypergraph, mapping: np.ndarray, num_coarse: int) -> Hypergraph:
    """Contract ``graph`` according to ``mapping`` (fine -> coarse ids).

    Coarse vertex weights are sums of their fine constituents.  Pins are
    deduplicated; edges that collapse to a single pin are dropped (their
    connectivity contribution is identically zero); duplicate edges are
    merged with summed weights.
    """
    weights = np.zeros((num_coarse, graph.weight_dims), dtype=np.int64)
    np.add.at(weights, mapping, graph.weights)

    if graph.num_pins == 0:
        return Hypergraph.from_csr(
            weights, np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64), []
        )

    # Sort (edge, coarse pin) pairs and drop within-edge duplicates in
    # one vectorized pass; the result holds each edge's coarse pins
    # sorted and unique, back to back.
    coarse_flat = mapping[graph.edge_pins]
    order = np.lexsort((coarse_flat, graph.pin_edge_ids))
    edge_sorted = graph.pin_edge_ids[order]
    pin_sorted = coarse_flat[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (edge_sorted[1:] != edge_sorted[:-1]) | (
        pin_sorted[1:] != pin_sorted[:-1]
    )
    edge_ids = edge_sorted[first]
    pins_flat = pin_sorted[first]
    sizes = np.bincount(edge_ids, minlength=graph.num_edges)
    bounds = np.zeros(graph.num_edges + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])

    # Merge duplicate edges (same coarse pin set) with summed weights,
    # keeping first-occurrence order like the scalar implementation.
    merged: Dict[bytes, int] = {}
    pins: List[np.ndarray] = []
    edge_weights: List[int] = []
    edge_weight_list = graph.edge_weights.tolist()
    for edge_index in np.nonzero(sizes >= 2)[0].tolist():
        coarse_pin = pins_flat[bounds[edge_index] : bounds[edge_index + 1]]
        key = coarse_pin.tobytes()
        weight = edge_weight_list[edge_index]
        slot = merged.get(key)
        if slot is not None:
            edge_weights[slot] += weight
        else:
            merged[key] = len(pins)
            pins.append(coarse_pin)
            edge_weights.append(weight)

    new_sizes = np.fromiter(
        (len(p) for p in pins), dtype=np.int64, count=len(pins)
    )
    indptr = np.zeros(len(pins) + 1, dtype=np.int64)
    np.cumsum(new_sizes, out=indptr[1:])
    flat = (
        np.concatenate(pins) if pins else np.zeros(0, dtype=np.int64)
    )
    return Hypergraph.from_csr(weights, indptr, flat, edge_weights)


def coarsen_once(
    graph: Hypergraph,
    max_vertex_weight: np.ndarray,
    rng: np.random.Generator,
) -> Optional[Tuple[Hypergraph, np.ndarray]]:
    """One matching + contraction round.

    Returns ``(coarse_graph, mapping)`` or ``None`` when no meaningful
    contraction is possible.
    """
    n = graph.num_vertices
    incidence, pins = graph.incidence(), graph.pin_lists()
    weights = graph.weights.tolist()
    cap = max_vertex_weight.tolist()
    sizes = graph.edge_sizes
    scannable = (sizes <= _MAX_SCAN_PINS) & (sizes >= 2)
    rating = np.where(
        scannable, graph.edge_weights / np.maximum(sizes - 1, 1), 0.0
    ).tolist()
    scannable = scannable.tolist()
    match = [-1] * n

    for u in rng.permutation(n).tolist():
        if match[u] >= 0:
            continue
        # Scores accumulate in edge order, then pin order; the dict
        # keeps candidates in first-encounter order, which breaks ties.
        scores: Dict[int, float] = {}
        for edge in incidence[u]:
            if not scannable[edge]:
                continue
            edge_rating = rating[edge]
            for neighbour in pins[edge]:
                if neighbour != u and match[neighbour] < 0:
                    scores[neighbour] = scores.get(neighbour, 0.0) + edge_rating
        weight = weights[u]
        best, best_score = -1, 0.0
        for neighbour, score in scores.items():
            if score > best_score and fits_under(
                weight, weights[neighbour], cap
            ):
                best, best_score = neighbour, score
        if best >= 0:
            match[u] = best
            match[best] = u

    coarse_ids = [-1] * n
    next_id = 0
    for u in range(n):
        if coarse_ids[u] >= 0:
            continue
        coarse_ids[u] = next_id
        if match[u] >= 0:
            coarse_ids[match[u]] = next_id
        next_id += 1
    mapping = np.array(coarse_ids, dtype=np.int64)

    if next_id >= n:  # nothing contracted
        return None
    return contract(graph, mapping, next_id), mapping


def coarsen(
    graph: Hypergraph,
    k: int,
    rng: np.random.Generator,
) -> List[Tuple[Hypergraph, np.ndarray]]:
    """Full coarsening hierarchy.

    Returns a list of ``(coarse_graph, mapping_from_previous_level)``
    pairs, finest first.  Contraction stops when the graph is small
    enough (``max(60, 12 * k)`` vertices), stops shrinking (< 5%
    reduction) or has 25 levels.
    """
    min_vertices = max(60, 12 * k)
    # Cap coarse vertex weight so balanced k-way partitions stay
    # representable: no cluster may exceed ~half a part.
    cap = np.maximum(graph.total_weight // max(2 * k, 1), 1)
    levels: List[Tuple[Hypergraph, np.ndarray]] = []
    current = graph
    for _ in range(25):
        if current.num_vertices <= min_vertices:
            break
        step = coarsen_once(current, cap, rng)
        if step is None:
            break
        coarse, mapping = step
        if coarse.num_vertices > 0.95 * current.num_vertices:
            break
        levels.append((coarse, mapping))
        current = coarse
    return levels
