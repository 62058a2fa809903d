"""How far from the optimal cut the placement search lands, and what
that distance costs in simulated time (ROADMAP item 3, step 0).

``exact_min_cut`` solves the k-way connectivity-cut problem under the
planner's own balance caps as a mixed-integer program (HiGHS through
``scipy.optimize.milp`` — test-side only, nothing under ``src/``
imports scipy).  On graphs small enough to solve in a second or two it
pins two findings:

* the search's cut is within a *recorded* multiple of the optimum — up
  to 2.7x here, so the gap is real and a search change that widens it
  fails;
* an optimal-cut placement is not more than 3 % faster when scheduled
  and priced — on these shapes the cut is not what bounds the
  simulated attention time, which is why search effort went to planner
  time rather than to closing the gap.
"""

import numpy as np
import pytest

pytest.importorskip("scipy.optimize")
from scipy.optimize import Bounds, LinearConstraint, milp  # noqa: E402
from scipy.sparse import coo_matrix  # noqa: E402

from hypergraph_reference import from_pins  # noqa: E402
from repro.blocks import AttentionSpec, BatchSpec, generate_blocks  # noqa: E402
from repro.hypergraph import BalanceConstraint, Hypergraph  # noqa: E402
from repro.masks import CausalMask  # noqa: E402
from repro.placement import (  # noqa: E402
    Placement,
    PlacementConfig,
    build_block_hypergraph,
    place_blocks,
)
from repro.scheduling import build_schedule  # noqa: E402
from repro.sim import ClusterSpec  # noqa: E402

#: Service geometry of the ledger: 128-token blocks, one machine.
BLOCK = 128
ATTENTION = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=32)
CONFIG = PlacementConfig()
#: The solver proves these optimal in 0.1-2 s each; a machine too slow
#: to do so inside the limit skips the case instead of failing it.
SOLVER_TIME_LIMIT_S = 10.0

#: (sequence lengths in blocks, devices, our cut / optimal cut as
#: measured when the search last changed).  Most service-geometry
#: batches are infeasible under (eps_intra, eps_data) = (0.1, 0.08) —
#: the solver says so in 0.02 s — so these are the ones that are not.
CASES = [
    ((2, 1, 1), 4, 1.0),
    ((2, 2, 1, 1, 1, 1), 4, 1.5),
    ((3, 2, 1, 1, 1), 4, 8 / 3),
    ((3, 3, 2), 2, 1.0),
    ((5, 2, 1), 2, 9 / 7),
    ((6, 2), 2, 1.0),
    ((6, 4, 2), 2, 10 / 7),
]


def exact_min_cut(graph: Hypergraph, k: int, caps: np.ndarray):
    """Optimal ``(cut, labels)`` of ``graph`` into ``k`` parts under
    ``caps``; ``None`` when no assignment fits, ``"timeout"`` when the
    solver ran out of time before proving optimality.

    Binary ``x[v, p]`` (vertex ``v`` in part ``p``) and ``y[e, p]``
    (part ``p`` in edge ``e``'s span, ``y[e, p] >= x[v, p]`` for every
    pin); minimise ``sum_e w_e * (sum_p y[e, p] - 1)``.
    """
    n, m, dims = graph.num_vertices, graph.num_edges, graph.weight_dims
    num_x = n * k
    rows, cols, values, lower, upper = [], [], [], [], []

    def add_row(entries, low, high):
        row = len(lower)
        for col, value in entries:
            rows.append(row)
            cols.append(col)
            values.append(value)
        lower.append(low)
        upper.append(high)

    for v in range(n):  # every vertex in exactly one part
        add_row([(v * k + p, 1) for p in range(k)], 1, 1)
    for e, pins in enumerate(graph.pin_lists()):  # y[e, p] >= x[v, p]
        for v in pins:
            for p in range(k):
                add_row([(num_x + e * k + p, 1), (v * k + p, -1)], 0, np.inf)
    for p in range(k):  # balance caps
        for d in range(dims):
            add_row(
                [(v * k + p, int(graph.weights[v, d])) for v in range(n)],
                0,
                int(caps[d]),
            )
    # Parts are interchangeable: pin the heaviest vertex to part 0.
    add_row([(int(np.argmax(graph.weights[:, 0])) * k, 1)], 1, 1)

    cost = np.concatenate([np.zeros(num_x), np.repeat(graph.edge_weights, k)])
    matrix = coo_matrix(
        (values, (rows, cols)), shape=(len(lower), num_x + m * k)
    ).tocsr()
    result = milp(
        cost,
        constraints=LinearConstraint(matrix, lower, upper),
        integrality=np.ones(num_x + m * k),
        bounds=Bounds(0, 1),
        options={"time_limit": SOLVER_TIME_LIMIT_S},
    )
    if result.status == 2:
        return None
    if result.status != 0:
        return "timeout"
    labels = np.argmax(result.x[:num_x].reshape(n, k), axis=1)
    return int(round(result.fun)) - int(graph.edge_weights.sum()), labels


def price(block_set, placement) -> float:
    """Simulated forward + backward seconds of the best division count."""
    schedule = build_schedule(block_set, placement, num_divisions=4)
    return min(schedule.division_prices.values())


def solve_case(blocks, k):
    """Our placement and the optimal-cut one for one causal batch."""
    spec = BatchSpec.build([count * BLOCK for count in blocks], CausalMask())
    block_set = generate_blocks(spec, attention=ATTENTION, block_size=BLOCK)
    cluster = ClusterSpec(num_machines=1, devices_per_machine=k)
    bhg = build_block_hypergraph(block_set)
    caps = BalanceConstraint((CONFIG.eps_intra, CONFIG.eps_data)).caps(bhg.graph, k)
    ours = place_blocks(block_set, cluster, CONFIG)
    solved = exact_min_cut(bhg.graph, k, caps)
    if solved == "timeout":
        pytest.skip("solver did not prove optimality in time on this machine")
    assert solved is not None, "case chosen to be feasible"
    optimal_cut, labels = solved
    slice_device, comp_device = bhg.labels_to_devices(labels)
    optimal = Placement(block_set, cluster, slice_device.copy(), comp_device.copy())
    ours_labels = np.concatenate([ours.slice_device, ours.comp_device])
    assert np.all(bhg.graph.part_weights(ours_labels, k) <= caps[None, :])
    ours_cut = bhg.graph.connectivity_cost(ours_labels, k)
    assert bhg.graph.connectivity_cost(labels, k) == optimal_cut
    return block_set, bhg.graph, ours, ours_cut, optimal, optimal_cut


@pytest.mark.parametrize("blocks, k, recorded_ratio", CASES)
def test_cut_gap_and_what_it_costs(blocks, k, recorded_ratio):
    block_set, _graph, ours, ours_cut, optimal, optimal_cut = solve_case(blocks, k)
    assert ours_cut >= optimal_cut  # or the "optimum" is not one
    assert ours_cut <= recorded_ratio * optimal_cut + 1e-6
    # The finding Search v2 rests on: closing the gap would not pay.
    assert price(block_set, ours) <= 1.03 * price(block_set, optimal)


def test_solver_reports_infeasible_caps():
    # Five equal slices cannot be spread over four devices within 8 %.
    spec = BatchSpec.build([5 * BLOCK], CausalMask())
    block_set = generate_blocks(spec, attention=ATTENTION, block_size=BLOCK)
    graph = build_block_hypergraph(block_set).graph
    caps = BalanceConstraint((CONFIG.eps_intra, CONFIG.eps_data)).caps(graph, 4)
    assert exact_min_cut(graph, 4, caps) is None


def test_solver_finds_a_known_optimum():
    # Two triangles joined by one light edge: cutting it costs 1.
    pins = [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [2, 3]]
    graph = from_pins(np.ones((6, 2), dtype=np.int64), pins, [5] * 6 + [1])
    cut, labels = exact_min_cut(graph, 2, np.array([3, 3]))
    assert cut == 1
    assert labels[:3].tolist() == [0, 0, 0] and labels[3:].tolist() == [1, 1, 1]
