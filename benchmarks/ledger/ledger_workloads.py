"""Seeded inputs of the four ledger workloads.

Everything the program under test sees is built here from ``--seed``:
``BatchSpec`` lists for the three planning workloads and a hot
signature universe plus an open-loop arrival schedule for the service.
The same seed gives the same inputs; a different seed draws fresh
sequence lengths from :func:`repro.data.sample_lengths`.

Why the batches of a run are a *stratified* sample of the seed's packed
stream: planning cost per batch spans 0.5-9 s at the ``causal_long``
geometry (it follows the batch's quadratic attention workload, and the
length distributions are heavy-tailed), so the mean over the dozen
batches a 20 s run can afford would move by ~16 % from seed to seed
and no regression bound tighter than that could be held.  Each seed
therefore packs a pool of 8192 batches and keeps the one in the middle
of each workload quantile: every seed's sequences are different, while
every seed carries the same workload mix to within ~2 %.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.bench import BenchScale
from repro.blocks import AttentionSpec, BatchSpec
from repro.data import (
    STREAM_PACKERS,
    RlhfSample,
    batches_to_specs,
    packing_stats,
    sample_lengths,
    scale_lengths,
)
from repro.masks import (
    CausalMask,
    DilatedBlockMask,
    LambdaMask,
    PackedDocumentMask,
    make_mask,
)
from repro.sim import ClusterSpec

#: Sequences drawn per seed; the packers consume only as many as the
#: pool of candidate batches needs.
POOL_SEQUENCES = 200_000
#: Candidate batches packed per seed (see module doc): large enough that
#: the pool's upper workload quantiles, which dominate planning time,
#: are the same from seed to seed.
POOL_BATCHES = 8192
SMOKE_POOL_BATCHES = 256
#: Reordering-buffer depth of the streaming packers.
PACK_BUFFER = 16
#: Lengths in the datasets are drawn for the paper's 131072-token batch.
PAPER_BUDGET = 131072

#: Token budget per batch (block size 512).  The paper's Fig. 18 sweep
#: has 8192, 16384 and 32768; the smaller two are used because a 20 s
#: run then plans 85-130 batches instead of 12, which is what brings
#: the between-seed spread of the timings from 17 % down to 2-3 %.
#: ``sparse_mixed`` keeps 16384 so that sequences still span several
#: blocks and the sparse masks are not vacuous.
TOKEN_BUDGET = {
    "causal_long": 8192,
    "sparse_mixed": 16384,
    "stream_replan": 8192,
}
#: Batches per measured second on the 2-core reference box; turns
#: ``--seconds`` into a batch count so that one ``--seconds`` always
#: means the same inputs (deterministic metrics repeat) and a faster
#: planner finishes sooner instead of being handed more work.
NOMINAL_BATCHES_PER_S = {"causal_long": 7.25, "sparse_mixed": 4.25}
#: ``stream_replan``: distinct batches, and epochs per measured second.
STREAM_DISTINCT = 24
STREAM_EPOCHS_PER_S = 0.4
#: ``service_openloop``: offered rates, and the share of ``--seconds``
#: each rate step lasts.
SERVICE_RATES = (20, 40, 80)
SERVICE_STEP_SHARE = 0.3
SERVICE_HOT = 48
SERVICE_TENANTS = 1200
SERVICE_ZIPF_A = 1.1
SERVICE_FRESH_SHARE = 0.03
SERVICE_BLOCK = 128


@dataclass(frozen=True)
class Sizing:
    """How much work one run does, derived from ``--seconds``."""

    batches: int = 0
    distinct: int = 0
    epochs: int = 0
    hot: int = 0
    step_s: float = 0.0


def sizing(workload: str, seconds: float, smoke: bool) -> Sizing:
    """Work per run; ``smoke`` is the seconds-sized test geometry."""
    if workload in NOMINAL_BATCHES_PER_S:
        if smoke:
            return Sizing(batches=5 if workload == "sparse_mixed" else 3)
        return Sizing(
            batches=max(int(seconds * NOMINAL_BATCHES_PER_S[workload]), 4)
        )
    if workload == "stream_replan":
        if smoke:
            return Sizing(distinct=3, epochs=3)
        return Sizing(
            distinct=STREAM_DISTINCT,
            epochs=max(int(round(seconds * STREAM_EPOCHS_PER_S)), 3),
        )
    if workload == "service_openloop":
        if smoke:
            return Sizing(hot=6, step_s=0.2)
        return Sizing(hot=SERVICE_HOT, step_s=seconds * SERVICE_STEP_SHARE)
    raise ValueError(f"unknown workload {workload!r}")


def scale_for(workload: str, smoke: bool) -> BenchScale:
    """Cluster, attention shape, token budget and block size."""
    if workload == "service_openloop":
        return BenchScale.sweep(
            token_budget=11 * SERVICE_BLOCK,
            max_seqlen=11 * SERVICE_BLOCK,
            block_size=SERVICE_BLOCK,
            cluster=ClusterSpec(num_machines=1, devices_per_machine=4),
            attention=AttentionSpec(
                num_q_heads=4, num_kv_groups=2, head_dim=32
            ),
        )
    if smoke:
        budget, block = 2048, 256
    else:
        budget, block = TOKEN_BUDGET[workload], 512
    return BenchScale.sweep(
        token_budget=budget, max_seqlen=budget, block_size=block
    )


def reduced_scale(scale: BenchScale, smoke: bool) -> BenchScale:
    """Geometry the numeric check executes at (small enough to run the
    dense reference): 4096 tokens, block 256, 4 heads x 32."""
    budget = 512 if smoke else 4096
    return BenchScale.sweep(
        token_budget=budget,
        max_seqlen=budget,
        block_size=256,
        cluster=scale.cluster,
        attention=AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=32),
    )


# -- mask recipes (those of bench_scenarios.py, parametrized by budget) ----


def _document_mask(seqlen: int):
    if seqlen < 8:
        return PackedDocumentMask(doc_lens=(seqlen,))
    quarter = seqlen // 4
    return PackedDocumentMask(
        doc_lens=(quarter, quarter, quarter, seqlen - 3 * quarter)
    )


def _rlhf_mask(seqlen: int):
    if seqlen < 16:
        return CausalMask()
    num_answers = 2 + (seqlen % 3)
    question = max(seqlen // 5, 1)
    rest = seqlen - question
    base = rest // num_answers
    answer_lens = tuple(
        base if i < num_answers - 1 else rest - base * (num_answers - 1)
        for i in range(num_answers)
    )
    return RlhfSample(question_len=question, answer_lens=answer_lens).mask()


def sparse_mask_cycle(budget: int) -> List:
    """The five mask families ``sparse_mixed`` cycles through per batch."""
    return [
        LambdaMask(sink=max(budget // 32, 4), window=max(budget // 8, 32)),
        make_mask(
            "causal_blockwise",
            block=max(budget // 128, 8),
            window_blocks=2,
            sink_blocks=1,
        ),
        _rlhf_mask,
        _document_mask,
        DilatedBlockMask(
            block=max(budget // 32, 8), stride=4, window=max(budget // 8, 32)
        ),
    ]


# -- packed, stratified batch streams --------------------------------------


def stratified_sample(batches: Sequence[List[int]], count: int) -> List[int]:
    """Indices of ``count`` batches, one from the middle of each quantile
    of the quadratic attention workload, lightest first."""
    if count > len(batches):
        raise ValueError(
            f"need {count} batches, the packed pool holds {len(batches)}"
        )
    work = [sum(float(n) ** 2 for n in batch) for batch in batches]
    order = sorted(range(len(batches)), key=lambda i: (work[i], i))
    strata = np.array_split(np.asarray(order), count)
    return [int(stratum[len(stratum) // 2]) for stratum in strata]


@dataclass
class PackedStream:
    """The length batches a workload plans, and how they were packed."""

    batches: List[List[int]]  # lightest attention workload first
    positions: List[int]  # where each batch sat in the packer's stream
    pack_s_per_batch: float
    workload_imbalance: float


def packed_stream(
    dataset: str,
    packer_name: str,
    budget: int,
    seed: int,
    count: int,
    pool_batches: int,
) -> PackedStream:
    """Sample lengths, pack a pool through the streaming packer, keep a
    stratified ``count`` of it."""
    lengths = scale_lengths(
        sample_lengths(dataset, POOL_SEQUENCES, seed=seed),
        budget / PAPER_BUDGET,
        cap=budget,
    )
    packer = STREAM_PACKERS[packer_name](budget, budget, buffer=PACK_BUFFER)
    start = time.perf_counter()
    pool = list(
        itertools.islice(packer.stream(int(n) for n in lengths), pool_batches)
    )
    pack_s = time.perf_counter() - start
    positions = stratified_sample(pool, count)
    batches = [pool[i] for i in positions]
    return PackedStream(
        batches=batches,
        positions=positions,
        pack_s_per_batch=pack_s / len(pool),
        workload_imbalance=packing_stats(batches)["workload_imbalance"],
    )


_RECIPES = {
    # workload: (dataset, streaming packer)
    "causal_long": ("longalign", "sequential"),
    "stream_replan": ("longalign", "sequential"),
    "sparse_mixed": ("longdatacollections", "workload_balanced"),
}


def planning_specs(
    workload: str,
    seed: int,
    count: int,
    scale: BenchScale,
    smoke: bool = False,
) -> Tuple[List[BatchSpec], PackedStream]:
    """The ``BatchSpec`` stream of a planning workload."""
    dataset, packer_name = _RECIPES[workload]
    stream = packed_stream(
        dataset,
        packer_name,
        scale.token_budget,
        seed,
        count,
        SMOKE_POOL_BATCHES if smoke else POOL_BATCHES,
    )
    # Mask families go round the workload ranks, so every family plans
    # the same mix of light and heavy batches whatever the seed; the
    # program then sees the batches in the packer's stream order.
    cycle = (
        sparse_mask_cycle(scale.token_budget)
        if workload == "sparse_mixed"
        else [CausalMask()]
    )
    order = sorted(range(count), key=stream.positions.__getitem__)
    specs = [
        batches_to_specs([stream.batches[rank]], cycle[rank % len(cycle)])[0]
        for rank in order
    ]
    stream.batches = [stream.batches[rank] for rank in order]
    stream.positions = [stream.positions[rank] for rank in order]
    return specs, stream


def warmup_spec(scale: BenchScale) -> BatchSpec:
    """A fixed batch planned during set-up: the same for every seed, so
    ``setup_s`` does not inherit the spread of the seeded batches."""
    unit = scale.token_budget // 8
    return BatchSpec.build([2 * unit, unit, unit], CausalMask())


# -- service: hot signature universe and open-loop arrivals ----------------


def _split(total: int, parts: int, rng: np.random.Generator) -> List[int]:
    cuts = sorted(rng.choice(np.arange(1, total), parts - 1, replace=False))
    return [int(b - a) for a, b in zip([0, *cuts], [*cuts, total])]


def service_universe(seed: int, hot: int) -> List[BatchSpec]:
    """``hot`` distinct small batches (1-3 sequences, 5-11 blocks), in
    popularity order.

    Popularity is dealt round the batches' sizes with a fixed stride, so
    that the tokens an average request asks for do not depend on which
    sizes the seed happened to draw for the few hottest signatures.
    """
    rng = np.random.default_rng([seed, 0x5E])
    seen: set = set()
    while len(seen) < hot:
        blocks = int(rng.integers(5, 12))
        seen.add(tuple(sorted(_split(blocks, int(rng.integers(1, 4)), rng))))
    by_size = sorted(seen, key=lambda parts: (sum(parts), parts))
    stride = next(s for s in (17, 13, 11, 7, 5, 3, 1) if np.gcd(s, hot) == 1)
    mask = CausalMask()
    return [
        BatchSpec.build(
            [p * SERVICE_BLOCK for p in by_size[(rank * stride) % hot]], mask
        )
        for rank in range(hot)
    ]


def fresh_batch(seed: int, index: int) -> BatchSpec:
    """The ``index``-th never-seen batch of a run: the odd first length
    keeps its signature off the block-aligned hot universe."""
    rng = np.random.default_rng([seed, 0xF5, index])
    blocks = int(rng.integers(5, 12))
    first = int(rng.integers(1, blocks))
    return BatchSpec.build(
        [first * SERVICE_BLOCK + 1 + index, (blocks - first) * SERVICE_BLOCK],
        CausalMask(),
    )


@dataclass
class RateStep:
    """One offered-rate step of the open-loop schedule."""

    rate: int
    duration_s: float
    due_s: np.ndarray  # arrival offsets from the step start, ascending
    batches: List[BatchSpec]
    tenants: List[str]
    fresh: int  # how many arrivals carry a never-seen signature


def arrival_schedule(
    seed: int,
    universe: Sequence[BatchSpec],
    step_s: float,
    rates: Sequence[int] = SERVICE_RATES,
) -> List[RateStep]:
    """Precomputed Poisson arrivals: per step exactly ``rate * step_s``
    requests at sorted uniform offsets (a Poisson process given its
    count), Zipf-ranked hot signatures, a fixed share of never-seen
    ones, uniformly drawn tenants."""
    rng = np.random.default_rng([seed, 0xA7])
    weights = 1.0 / np.arange(1, len(universe) + 1) ** SERVICE_ZIPF_A
    weights /= weights.sum()
    steps, fresh_index = [], 0
    for rate in rates:
        count = max(int(round(rate * step_s)), 1)
        due = np.sort(rng.uniform(0.0, step_s, size=count))
        ranks = rng.choice(len(universe), size=count, p=weights)
        tenants = rng.integers(0, SERVICE_TENANTS, size=count)
        fresh_at = set(
            rng.choice(
                count,
                size=int(round(SERVICE_FRESH_SHARE * count)),
                replace=False,
            ).tolist()
        )
        batches = []
        for position in range(count):
            if position in fresh_at:
                batches.append(fresh_batch(seed, fresh_index))
                fresh_index += 1
            else:
                batches.append(universe[int(ranks[position])])
        steps.append(
            RateStep(
                rate=rate,
                duration_s=step_s,
                due_s=due,
                batches=batches,
                tenants=[f"tenant{int(t)}" for t in tenants],
                fresh=len(fresh_at),
            )
        )
    return steps

