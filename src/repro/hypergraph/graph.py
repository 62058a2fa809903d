"""Hypergraph data structure with 2-D vertex weights.

Vertices carry a two-dimensional weight ``[flops, bytes]`` exactly as in
paper §4.2: computation blocks weigh ``[f, 0]``, data (token-group)
vertices weigh ``[0, s]``.  The partitioning objective is the
*connectivity metric* ``sum_e w_e * (lambda_e - 1)`` which equals the
total communication volume of the induced placement.

The incidence structure is stored as two CSR (compressed sparse row)
arrays, which the vectorized builders (block-hypergraph construction,
contraction, metrics) work on as flat ``int64`` slices:

* edge -> pin: ``edge_indptr`` / ``edge_pins`` (pins of edge ``e`` are
  ``edge_pins[edge_indptr[e]:edge_indptr[e+1]]``, unique and sorted);
* vertex -> edge: ``vertex_indptr`` / ``vertex_edges`` (built lazily).

The per-vertex search loops (matching, initial assignment, refinement)
walk the same structure as cached Python lists, ``incidence()`` and
``pin_lists()``: on graphs of a few hundred vertices a list walk is
cheaper than any per-vertex numpy call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Hypergraph",
    "BalanceConstraint",
    "PartitionResult",
    "fits_under",
]


def fits_under(held, extra, caps) -> bool:
    """Whether ``held + extra`` stays within ``caps`` in every dimension
    (three equally long sequences of plain numbers)."""
    for have, more, cap in zip(held, extra, caps):
        if have + more > cap:
            return False
    return True


def _csr_lists(indptr: np.ndarray, data: np.ndarray) -> List[List[int]]:
    """CSR rows ``data[indptr[i]:indptr[i+1]]`` as Python lists."""
    bounds, flat = indptr.tolist(), data.tolist()
    return [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


class Hypergraph:
    """Immutable hypergraph with weighted vertices and hyperedges."""

    def __init__(
        self,
        weights: np.ndarray,
        pins: Sequence[Sequence[int]],
        edge_weights: Sequence[float],
    ) -> None:
        weights = np.asarray(weights, dtype=np.int64)
        if weights.ndim != 2:
            raise ValueError("vertex weights must be 2-D: [n, dims]")
        num_vertices = weights.shape[0]
        unique_pins: List[np.ndarray] = []
        for pin in pins:
            arr = np.unique(np.asarray(pin, dtype=np.int64))
            if len(arr) and (arr[0] < 0 or arr[-1] >= num_vertices):
                raise ValueError("pin refers to a vertex outside the graph")
            unique_pins.append(arr)
        sizes = np.fromiter(
            (len(p) for p in unique_pins), dtype=np.int64, count=len(unique_pins)
        )
        edge_indptr = np.zeros(len(unique_pins) + 1, dtype=np.int64)
        np.cumsum(sizes, out=edge_indptr[1:])
        edge_pins = (
            np.concatenate(unique_pins)
            if unique_pins
            else np.zeros(0, dtype=np.int64)
        )
        self._init_csr(weights, edge_indptr, edge_pins, edge_weights)

    @classmethod
    def from_csr(
        cls,
        weights: np.ndarray,
        edge_indptr: np.ndarray,
        edge_pins: np.ndarray,
        edge_weights: Sequence[float],
    ) -> "Hypergraph":
        """Build from a pre-deduplicated CSR edge->pin structure.

        ``edge_pins`` must hold each edge's pins sorted and unique (the
        invariant the list constructor establishes); vectorized builders
        (block-hypergraph construction, contraction, subgraph
        extraction) produce this directly and skip the per-edge
        normalization loop.
        """
        graph = cls.__new__(cls)
        weights = np.asarray(weights, dtype=np.int64)
        if weights.ndim != 2:
            raise ValueError("vertex weights must be 2-D: [n, dims]")
        edge_pins = np.asarray(edge_pins, dtype=np.int64)
        if len(edge_pins) and (
            edge_pins.min() < 0 or edge_pins.max() >= weights.shape[0]
        ):
            raise ValueError("pin refers to a vertex outside the graph")
        graph._init_csr(
            weights,
            np.asarray(edge_indptr, dtype=np.int64),
            edge_pins,
            edge_weights,
        )
        return graph

    def _init_csr(
        self,
        weights: np.ndarray,
        edge_indptr: np.ndarray,
        edge_pins: np.ndarray,
        edge_weights: Sequence[float],
    ) -> None:
        self.weights = weights
        self.edge_indptr = edge_indptr
        self.edge_pins = edge_pins
        self.edge_weights = np.asarray(edge_weights, dtype=np.int64)
        if len(self.edge_weights) != len(edge_indptr) - 1:
            raise ValueError("need one weight per hyperedge")
        #: edge id of each flattened pin entry (aligned with edge_pins).
        self.pin_edge_ids = np.repeat(
            np.arange(self.num_edges, dtype=np.int64), self.edge_sizes
        )
        self._pins: Optional[List[np.ndarray]] = None
        self._incidence: Optional[List[List[int]]] = None
        self._pin_lists: Optional[List[List[int]]] = None
        self._vertex_indptr: Optional[np.ndarray] = None
        self._vertex_edges: Optional[np.ndarray] = None

    @property
    def num_vertices(self) -> int:
        return self.weights.shape[0]

    @property
    def num_edges(self) -> int:
        return len(self.edge_indptr) - 1

    @property
    def num_pins(self) -> int:
        return len(self.edge_pins)

    @property
    def edge_sizes(self) -> np.ndarray:
        return np.diff(self.edge_indptr)

    @property
    def weight_dims(self) -> int:
        return self.weights.shape[1]

    @property
    def total_weight(self) -> np.ndarray:
        return self.weights.sum(axis=0)

    @property
    def pins(self) -> List[np.ndarray]:
        """Per-edge pin arrays (views into the CSR storage)."""
        if self._pins is None:
            self._pins = [
                self.edge_pins[self.edge_indptr[e] : self.edge_indptr[e + 1]]
                for e in range(self.num_edges)
            ]
        return self._pins

    def vertex_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Vertex -> edge CSR ``(indptr, edge ids)`` (lazy, cached)."""
        if self._vertex_indptr is None:
            order = np.argsort(self.edge_pins, kind="stable")
            self._vertex_edges = self.pin_edge_ids[order]
            counts = np.bincount(self.edge_pins, minlength=self.num_vertices)
            indptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            self._vertex_indptr = indptr
        return self._vertex_indptr, self._vertex_edges

    def incident_edges(self, vertex: int) -> np.ndarray:
        """Edges incident to one vertex (CSR slice, sorted by edge id)."""
        indptr, edges = self.vertex_csr()
        return edges[indptr[vertex] : indptr[vertex + 1]]

    def incidence(self) -> List[List[int]]:
        """Edges incident to each vertex, ascending, as Python lists.

        With :meth:`pin_lists` this is the representation the search
        hot loops walk; built once per graph and shared by every
        refinement state on it.
        """
        if self._incidence is None:
            self._incidence = _csr_lists(*self.vertex_csr())
        return self._incidence

    def pin_lists(self) -> List[List[int]]:
        """Pins of each edge, ascending, as Python lists (lazy, cached)."""
        if self._pin_lists is None:
            self._pin_lists = _csr_lists(self.edge_indptr, self.edge_pins)
        return self._pin_lists

    # -- metrics ---------------------------------------------------------

    def pin_part_counts(self, labels: np.ndarray, k: int) -> np.ndarray:
        """Matrix ``[num_edges, k]``: pins of each edge per part."""
        counts = np.zeros((self.num_edges, k), dtype=np.int64)
        np.add.at(counts, (self.pin_edge_ids, labels[self.edge_pins]), 1)
        return counts

    def connectivity_cost(self, labels: np.ndarray, k: int) -> int:
        """The paper's objective: ``sum_e w_e * (lambda_e - 1)``."""
        counts = self.pin_part_counts(np.asarray(labels, dtype=np.int64), k)
        spans = (counts > 0).sum(axis=1)
        active = spans > 0
        return int((self.edge_weights[active] * (spans[active] - 1)).sum())

    def part_weights(self, labels: np.ndarray, k: int) -> np.ndarray:
        """Per-part total vertex weight, shape ``[k, dims]``."""
        out = np.zeros((k, self.weight_dims), dtype=np.int64)
        np.add.at(out, labels, self.weights)
        return out


@dataclass(frozen=True)
class BalanceConstraint:
    """Per-dimension imbalance tolerances (paper's epsilon).

    The paper allows ``(1 + eps)`` slack on computation and keeps data
    "as balanced as possible"; we give data a small explicit tolerance
    because exact balance is not attainable with integral blocks.
    """

    eps: Tuple[float, ...] = (0.1, 0.05)

    def caps(self, graph: Hypergraph, k: int) -> np.ndarray:
        """Maximum allowed part weight per dimension.

        The cap is relaxed to the heaviest single vertex per dimension,
        so no vertex is too heavy for every part on its own.  That does
        not make a feasible assignment exist: a few heavy vertices can
        still fail to fit under ``k`` caps together, and the partitioner
        reports such a result as infeasible.
        """
        total = graph.total_weight.astype(np.float64)
        if len(self.eps) != graph.weight_dims:
            raise ValueError("one epsilon per weight dimension required")
        caps = np.ceil(
            (1.0 + np.asarray(self.eps)) * total / max(k, 1)
        ).astype(np.int64)
        if graph.num_vertices:
            heaviest = graph.weights.max(axis=0)
            caps = np.maximum(caps, heaviest)
        return caps


@dataclass
class PartitionResult:
    """Outcome of a partitioning run."""

    labels: np.ndarray
    cost: int
    part_weights: np.ndarray
    feasible: bool
    method: str = "multilevel"

    @property
    def k(self) -> int:
        return self.part_weights.shape[0]

    def imbalance(self) -> np.ndarray:
        """Achieved per-dimension imbalance ``max_part / avg - 1``."""
        total = self.part_weights.sum(axis=0).astype(np.float64)
        avg = np.where(total > 0, total / self.k, 1.0)
        return self.part_weights.max(axis=0) / avg - 1.0
