"""Tests for the numpy GPT: layers, gradients, training equivalence."""

import importlib

import numpy as np
import pytest

from repro.masks import CausalMask, LambdaMask
from repro.model import (
    GPTConfig,
    TinyGPT,
    attention_forward_backward,
    generate_corpus,
    make_distributed_forward,
    train,
)
from repro.model.layers import (
    gelu_backward,
    gelu_forward,
    layer_norm_backward,
    layer_norm_forward,
    linear_backward,
    linear_forward,
    softmax_cross_entropy,
)
from repro.placement import PlacementConfig

# The package's ``train`` is the function; this is its module.
train_mod = importlib.import_module("repro.model.train")


def numerical_grad(fn, x, eps=1e-3):
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        orig = flat[index]
        flat[index] = orig + eps
        up = fn()
        flat[index] = orig - eps
        down = fn()
        flat[index] = orig
        grad_flat[index] = (up - down) / (2 * eps)
    return grad


class TestLayers:
    def test_layer_norm_backward(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 6)).astype(np.float32)
        gamma = rng.standard_normal(6).astype(np.float32)
        beta = rng.standard_normal(6).astype(np.float32)
        upstream = rng.standard_normal((4, 6)).astype(np.float32)

        def loss():
            out, _ = layer_norm_forward(x, gamma, beta)
            return float((out * upstream).sum())

        out, cache = layer_norm_forward(x, gamma, beta)
        dx, dgamma, dbeta = layer_norm_backward(upstream, cache)
        np.testing.assert_allclose(dx, numerical_grad(loss, x), atol=2e-3)
        np.testing.assert_allclose(dgamma, numerical_grad(loss, gamma),
                                   atol=2e-3)
        np.testing.assert_allclose(dbeta, numerical_grad(loss, beta),
                                   atol=2e-3)

    def test_gelu_backward(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 5)).astype(np.float32)
        upstream = rng.standard_normal((3, 5)).astype(np.float32)

        def loss():
            out, _ = gelu_forward(x)
            return float((out * upstream).sum())

        _, cache = gelu_forward(x)
        dx = gelu_backward(upstream, cache)
        np.testing.assert_allclose(dx, numerical_grad(loss, x), atol=2e-3)

    def test_linear_backward(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 4)).astype(np.float32)
        w = rng.standard_normal((4, 5)).astype(np.float32)
        upstream = rng.standard_normal((3, 5)).astype(np.float32)
        _, cache = linear_forward(x, w)
        dx, dw = linear_backward(upstream, cache)
        np.testing.assert_allclose(dx, upstream @ w.T, rtol=1e-5)
        np.testing.assert_allclose(dw, x.T @ upstream, rtol=1e-5)

    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((4, 7)).astype(np.float32)
        targets = np.array([1, 3, 0, 6])

        def loss():
            value, _ = softmax_cross_entropy(logits, targets)
            return value

        _, grad = softmax_cross_entropy(logits, targets)
        np.testing.assert_allclose(grad, numerical_grad(loss, logits),
                                   atol=2e-3)


class TestAttentionBackward:
    def test_matches_numerical(self):
        rng = np.random.default_rng(4)
        q = rng.standard_normal((2, 6, 4)).astype(np.float32)
        k = rng.standard_normal((1, 6, 4)).astype(np.float32)
        v = rng.standard_normal((1, 6, 4)).astype(np.float32)
        mask = CausalMask()
        upstream = rng.standard_normal((2, 6, 4)).astype(np.float32)

        def loss():
            out, _ = attention_forward_backward(q, k, v, mask)
            return float((out * upstream).sum())

        _, backward = attention_forward_backward(q, k, v, mask)
        dq, dk, dv = backward(upstream)
        np.testing.assert_allclose(dq, numerical_grad(loss, q), atol=3e-3)
        np.testing.assert_allclose(dk, numerical_grad(loss, k), atol=3e-3)
        np.testing.assert_allclose(dv, numerical_grad(loss, v), atol=3e-3)


class TestTinyGPT:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            GPTConfig(d_model=65, num_heads=4, head_dim=16)

    def test_parameter_gradients_numerically(self):
        config = GPTConfig(vocab=11, d_model=8, num_layers=1, num_heads=2,
                           num_kv_groups=1, head_dim=4, d_ff=12, max_len=16)
        model = TinyGPT(config, seed=0)
        tokens = np.array([1, 4, 2, 7, 3, 9, 0, 5])
        loss, grads = model.loss_and_grads(tokens)
        rng = np.random.default_rng(1)
        for name in ("head", "l0_wq", "l0_wk", "l0_w2", "tok_emb",
                     "final_gamma"):
            param = model.params[name]
            for _ in range(3):
                idx = tuple(
                    np.unravel_index(rng.integers(0, param.size), param.shape)
                )
                orig = param[idx]
                eps = 1e-3
                param[idx] = orig + eps
                up, _ = model.loss_and_grads(tokens)
                param[idx] = orig - eps
                down, _ = model.loss_and_grads(tokens)
                param[idx] = orig
                numeric = (up - down) / (2 * eps)
                assert abs(numeric - grads[name][idx]) < 2e-3 * max(
                    1.0, abs(numeric)
                ), name

    def test_training_reduces_loss(self, monkeypatch):
        monkeypatch.setattr(train_mod, "LEARNING_RATE", 0.5)
        config = GPTConfig(vocab=32, d_model=32, num_layers=2, num_heads=4,
                           num_kv_groups=2, head_dim=8, d_ff=64, max_len=64)
        model = TinyGPT(config, seed=1)
        corpus = generate_corpus(32, 48, 8, seed=2)
        losses = train(model, corpus, 60)
        assert losses[-1] < losses[0] - 0.5

    def test_sparse_mask_training_runs(self):
        config = GPTConfig(vocab=16, d_model=16, num_layers=1, num_heads=2,
                           num_kv_groups=1, head_dim=8, d_ff=32, max_len=64)
        model = TinyGPT(config, seed=0)
        corpus = generate_corpus(16, 32, 4, seed=0)
        losses = train(model, corpus, 10, mask=LambdaMask(sink=2, window=8))
        assert len(losses) == 10

    def test_distributed_forward_equals_dense(self, monkeypatch):
        """The Fig. 21 claim: DCP does not change training numerics."""
        monkeypatch.setattr(train_mod, "LEARNING_RATE", 0.5)
        from repro import AttentionSpec, ClusterSpec, DCPConfig, DCPPlanner

        config = GPTConfig(vocab=32, d_model=32, num_layers=2, num_heads=4,
                           num_kv_groups=2, head_dim=8, d_ff=64, max_len=64)
        corpus = generate_corpus(32, 40, 4, seed=5)
        attention = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=8)
        cluster = ClusterSpec(num_machines=2, devices_per_machine=2)
        planner = DCPPlanner(cluster, attention,
                             DCPConfig(block_size=8,
                                       placement=PlacementConfig(restarts=1)))
        forward = make_distributed_forward(planner, attention, block_size=8)

        dense_model = TinyGPT(config, seed=3)
        dcp_model = TinyGPT(config, seed=3)
        dense_losses = train(dense_model, corpus, 8)
        dcp_losses = train(dcp_model, corpus, 8, attention_forward=forward)
        for a, b in zip(dense_losses, dcp_losses):
            assert abs(a - b) < 1e-3
