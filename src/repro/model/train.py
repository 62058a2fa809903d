"""Training loop for the loss-curve experiment (paper Fig. 21)."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..masks import CausalMask, MaskSpec
from .attention import AttentionForward
from .gpt import TinyGPT

__all__ = ["generate_corpus", "train"]

#: SGD step size (read at run time).
LEARNING_RATE = 0.3


def generate_corpus(
    vocab: int, seqlen: int, num_sequences: int, seed: int = 0
) -> np.ndarray:
    """Deterministic synthetic corpus with learnable local structure.

    Token ``t+1`` depends on token ``t`` through a random affine map
    plus noise, so the loss visibly decreases over a few hundred
    iterations (as in the paper's curves).
    """
    rng = np.random.default_rng(seed)
    mapping = rng.integers(0, vocab, size=vocab)
    data = np.zeros((num_sequences, seqlen), dtype=np.int64)
    for row in range(num_sequences):
        token = rng.integers(0, vocab)
        for col in range(seqlen):
            data[row, col] = token
            if rng.random() < 0.8:
                token = mapping[token]
            else:
                token = rng.integers(0, vocab)
    return data


def train(
    model: TinyGPT,
    corpus: np.ndarray,
    iterations: int,
    mask: Optional[MaskSpec] = None,
    attention_forward: Optional[AttentionForward] = None,
) -> List[float]:
    """Plain SGD over the corpus; returns the per-iteration losses."""
    mask = mask or CausalMask()
    losses: List[float] = []
    num_sequences = corpus.shape[0]
    for iteration in range(iterations):
        tokens = corpus[iteration % num_sequences]
        loss, grads = model.loss_and_grads(
            tokens, mask=mask, attention_forward=attention_forward
        )
        for name, grad in grads.items():
            model.params[name] -= LEARNING_RATE * grad
        losses.append(loss)
    return losses
