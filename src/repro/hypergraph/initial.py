"""Initial partitioning of the coarsest hypergraph.

Besides the cold constructive assignments, this module owns the *warm
path* delta re-planning rides on: :func:`repair_labels` turns a label
vector from a previous placement — possibly referencing parts that no
longer exist after a cluster-shape change — into a feasible start the
refinement stack can polish, deterministically and without touching
vertices whose previous assignment is still valid.
"""

from __future__ import annotations

import numpy as np

from .graph import Hypergraph, fits_under

__all__ = ["greedy_initial", "repair_labels"]


def greedy_initial(
    graph: Hypergraph,
    k: int,
    caps: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Greedy constructive assignment.

    Vertices are placed heaviest-first (LPT-style, normalizing each
    weight dimension by its total); each vertex goes to the part where
    it increases connectivity least, breaking ties by least load.
    Balance caps are respected where possible.
    """
    totals = np.maximum(graph.total_weight, 1).astype(np.float64)
    norm = (graph.weights / totals[None, :]).sum(axis=1)
    order = np.argsort(-norm, kind="stable")

    incidence = graph.incidence()
    weights = graph.weights.tolist()
    edge_weights = graph.edge_weights.tolist()
    totals = totals.tolist()
    caps = caps.tolist()
    labels = [-1] * graph.num_vertices
    part_weights = [[0] * graph.weight_dims for _ in range(k)]
    # counts[e][p] = assigned pins of edge e in part p so far
    counts = [[0] * k for _ in range(graph.num_edges)]
    assigned = [0] * graph.num_edges

    for vertex in order.tolist():
        # Connectivity increase of each candidate part: an edge whose
        # span does not yet include the part gains (weight) cost, unless
        # the edge has no assigned pins at all yet.
        increase = [0] * k
        for edge in incidence[vertex]:
            if assigned[edge]:
                edge_weight = edge_weights[edge]
                for part, count in enumerate(counts[edge]):
                    if count == 0:
                        increase[part] += edge_weight
        weight = weights[vertex]
        candidates = [
            part
            for part in range(k)
            if fits_under(part_weights[part], weight, caps)
        ] or list(range(k))
        # Randomized tie-break keeps restarts diverse.
        jitter = rng.random(len(candidates)).tolist()
        choice, best_score = -1, float("inf")
        for part, noise in zip(candidates, jitter):
            load = 0.0
            for held, total in zip(part_weights[part], totals):
                load += held / total
            score = float(increase[part]) + 1e-9 * load + noise * 1e-12
            if score < best_score:
                choice, best_score = part, score
        labels[vertex] = choice
        for dim, own in enumerate(weight):
            part_weights[choice][dim] += own
        for edge in incidence[vertex]:
            counts[edge][choice] += 1
            assigned[edge] += 1
    return np.array(labels, dtype=np.int64)


def repair_labels(
    graph: Hypergraph, labels: np.ndarray, k: int, caps: np.ndarray
) -> np.ndarray:
    """Make a stale warm-start label vector feasible for ``k`` parts.

    Vertices whose label still names an existing part keep it; vertices
    stranded on vanished parts (label outside ``[0, k)``) are
    reassigned heaviest-first to the least-loaded part that still fits
    under ``caps`` (any part if none fits).  Fully deterministic — the
    delta re-planner relies on a repaired re-plan being reproducible —
    and O(stranded vertices), so a small shape change repairs cheaply.
    """
    labels = np.asarray(labels, dtype=np.int64).copy()
    if labels.shape != (graph.num_vertices,):
        raise ValueError("warm labels must cover every vertex")
    stranded = np.nonzero((labels < 0) | (labels >= k))[0]
    if len(stranded) == 0:
        return labels
    part_weights = np.zeros((k, graph.weight_dims), dtype=np.int64)
    valid = labels[(labels >= 0) & (labels < k)]
    if len(valid):
        np.add.at(
            part_weights, valid, graph.weights[(labels >= 0) & (labels < k)]
        )
    totals = np.maximum(graph.total_weight, 1).astype(np.float64)
    norm = (graph.weights[stranded] / totals[None, :]).sum(axis=1)
    order = stranded[np.argsort(-norm, kind="stable")]
    for vertex in order.tolist():
        weight = graph.weights[vertex]
        fits = np.all(part_weights + weight[None, :] <= caps[None, :], axis=1)
        candidates = np.nonzero(fits)[0]
        if len(candidates) == 0:
            candidates = np.arange(k)
        load = (part_weights[candidates] / totals[None, :]).sum(axis=1)
        choice = int(candidates[np.argmin(load)])
        labels[vertex] = choice
        part_weights[choice] += weight
    return labels
