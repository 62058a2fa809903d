"""Numpy blockwise-attention kernels (FlashAttention math, paper §5).

A tile computes attention of one Q block (all query heads of one head
group) against one KV block, producing an *unnormalized* partial:

``state = (acc, m, l)`` where ``m`` is the running row max of the
logits, ``l`` the running sum of ``exp(logit - m)``, and ``acc`` the
running ``sum(exp(logit - m) * V)``.  Partials merge associatively
(:func:`merge_partials`), so tiles may execute in any order on any
device; :func:`finalize` normalizes at the end.  This is numerically
identical to FlashAttention's online softmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AttnPartial",
    "empty_partial",
    "tile_attention",
    "merge_partials",
    "finalize",
    "finalize_with_lse",
    "tile_backward",
]

_NEG_INF = np.float32(-np.inf)


@dataclass
class AttnPartial:
    """Running online-softmax state for one output block."""

    acc: np.ndarray  # [heads, rows, head_dim]
    m: np.ndarray  # [heads, rows]
    l: np.ndarray  # [heads, rows]

    def copy(self) -> "AttnPartial":
        return AttnPartial(self.acc.copy(), self.m.copy(), self.l.copy())


def empty_partial(heads: int, rows: int, head_dim: int) -> AttnPartial:
    """A partial with no contributions yet (finalizes to zeros)."""
    return AttnPartial(
        acc=np.zeros((heads, rows, head_dim), dtype=np.float32),
        m=np.full((heads, rows), _NEG_INF, dtype=np.float32),
        l=np.zeros((heads, rows), dtype=np.float32),
    )


def tile_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: np.ndarray,
    scale: float,
) -> AttnPartial:
    """Attention partial of one tile.

    Parameters
    ----------
    q:
        ``[heads, q_rows, head_dim]`` query block.
    k, v:
        ``[k_rows, head_dim]`` key/value block (shared across the
        group's query heads — GQA).
    mask:
        Boolean ``[q_rows, k_rows]``; False entries are masked out.
    scale:
        Logit scale, normally ``1 / sqrt(head_dim)``.
    """
    scores = np.einsum("hqd,kd->hqk", q.astype(np.float32), k.astype(np.float32))
    scores *= np.float32(scale)
    scores = np.where(mask[None, :, :], scores, _NEG_INF)
    m = scores.max(axis=2)
    # Rows with no unmasked key: keep m = -inf and contribute nothing.
    safe_m = np.where(np.isfinite(m), m, np.float32(0.0))
    p = np.exp(scores - safe_m[:, :, None], dtype=np.float32)
    p = np.where(mask[None, :, :], p, np.float32(0.0))
    l = p.sum(axis=2)
    acc = np.einsum("hqk,kd->hqd", p, v.astype(np.float32))
    return AttnPartial(acc=acc, m=m, l=l)


def merge_partials(dst: AttnPartial, src: AttnPartial) -> None:
    """Merge ``src`` into ``dst`` in place (associative, commutative)."""
    m_new = np.maximum(dst.m, src.m)
    safe = np.where(np.isfinite(m_new), m_new, np.float32(0.0))
    dst_scale = np.where(
        np.isfinite(dst.m), np.exp(dst.m - safe, dtype=np.float32), np.float32(0.0)
    )
    src_scale = np.where(
        np.isfinite(src.m), np.exp(src.m - safe, dtype=np.float32), np.float32(0.0)
    )
    dst.acc *= dst_scale[:, :, None]
    dst.acc += src.acc * src_scale[:, :, None]
    dst.l *= dst_scale
    dst.l += src.l * src_scale
    dst.m = m_new


def finalize(state: AttnPartial) -> np.ndarray:
    """Normalize a partial into the output block ``[heads, rows, dim]``.

    Fully-masked rows (no contributions) become zeros, matching the
    dense reference's convention.
    """
    denom = np.where(state.l > 0, state.l, np.float32(1.0))
    out = state.acc / denom[:, :, None]
    return np.where((state.l > 0)[:, :, None], out, np.float32(0.0))


def finalize_with_lse(state: AttnPartial):
    """Finalize and also return the row log-sum-exp.

    ``lse = m + log(l)`` is what FlashAttention saves for the backward
    pass; fully-masked rows keep ``lse = -inf``.
    """
    out = finalize(state)
    with np.errstate(divide="ignore"):
        lse = np.where(
            state.l > 0,
            state.m + np.log(state.l, where=state.l > 0,
                             out=np.zeros_like(state.l)),
            _NEG_INF,
        ).astype(np.float32)
    return out, lse


def tile_backward(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    grad_out: np.ndarray,
    lse: np.ndarray,
    delta: np.ndarray,
    mask: np.ndarray,
    scale: float,
):
    """Backward of one attention tile (FlashAttention-2 backward math).

    Parameters
    ----------
    q:
        ``[heads, q_rows, dim]``; ``k``, ``v``: ``[k_rows, dim]``.
    grad_out:
        Upstream gradient of the *final normalized* output rows,
        ``[heads, q_rows, dim]``.
    lse:
        Row log-sum-exp from the forward pass, ``[heads, q_rows]``.
    delta:
        ``rowsum(grad_out * O_final)``, ``[heads, q_rows]`` — the ``D``
        statistic of the Flash backward.
    mask:
        Boolean ``[q_rows, k_rows]``.

    Returns
    -------
    (dq, dk, dv):
        ``dq`` ``[heads, q_rows, dim]``; ``dk``/``dv`` ``[k_rows, dim]``
        summed over the group's query heads (GQA semantics).
    """
    scores = np.einsum("hqd,kd->hqk", q.astype(np.float32),
                       k.astype(np.float32))
    scores *= np.float32(scale)
    safe_lse = np.where(np.isfinite(lse), lse, np.float32(0.0))
    probs = np.exp(scores - safe_lse[:, :, None], dtype=np.float32)
    probs = np.where(mask[None, :, :], probs, np.float32(0.0))
    probs = np.where(np.isfinite(lse)[:, :, None], probs, np.float32(0.0))

    grad_out = grad_out.astype(np.float32)
    dv = np.einsum("hqk,hqd->kd", probs, grad_out)
    dp = np.einsum("hqd,kd->hqk", grad_out, v.astype(np.float32))
    ds = probs * (dp - delta[:, :, None])
    ds *= np.float32(scale)
    dq = np.einsum("hqk,kd->hqd", ds, k.astype(np.float32))
    dk = np.einsum("hqk,hqd->kd", ds, q.astype(np.float32))
    return dq, dk, dv
