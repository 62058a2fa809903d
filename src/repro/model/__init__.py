"""Numpy GPT with manual backprop (loss-curve experiment)."""

from .attention import (
    attention_forward_backward,
    make_distributed_forward,
)
from .gpt import GPTConfig, TinyGPT
from .train import generate_corpus, train

__all__ = [
    "attention_forward_backward",
    "make_distributed_forward",
    "GPTConfig",
    "TinyGPT",
    "generate_corpus",
    "train",
]
