"""Reverse-mode gradients of dense chains over float64 arrays.

Every architecture in this package is a chain of bias-free dense
layers and elementwise activations (ReLU, LeakyReLU, square). The
forward pass records one small record per layer; the backward pass is
a single loop over those records in reverse. A cache is rebuilt on
every forward call; no graph caching, no Hessians.

The forward pass and the reverse loop also take a stack of S parameter
vectors, shaped (S, P): every array then gains a leading member axis,
and matmul broadcasts the shared input batch against the S weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when an op receives operands with incompatible dimensions."""

    def __init__(self, op: str, expected, got):
        self.op = op
        self.expected = expected
        self.got = got
        super().__init__(f"op {op!r}: expected {expected}, got {got}")


class NonFiniteError(FloatingPointError):
    """Raised when a forward or backward pass produces non-finite values."""


def subgradient_convention(primitive: str, z, alpha: float = 0.0):
    """Fixed derivative selection for kinked primitives.

    ReLU uses derivative 0 at z == 0; LeakyReLU uses the negative-side
    slope alpha at z == 0. This is the single source of truth used by
    the backward rules, so runs are reproducible at kinks.
    """
    z = np.asarray(z, dtype=np.float64)
    if primitive == "relu":
        return z > 0.0  # a boolean mask multiplies as 1.0 / 0.0
    if primitive == "leaky_relu":
        return np.where(z > 0.0, 1.0, alpha)
    raise ValueError(f"no subgradient convention for primitive {primitive!r}")


@dataclass(slots=True)
class ForwardCache:
    """What one forward pass leaves for the reverse loop.

    `layers` holds one (kind, layer input, weight view or alpha, offset)
    record per layer of the chain; `out` is the batch-shaped output,
    (B,) when `squeeze` dropped a single output column, else (B, C).
    A forward over S stacked parameter vectors adds a leading member
    axis to `out`, to every weight view and to every layer input but the
    first, which is the shared batch.
    """

    param_count: int
    layers: list
    squeeze: bool
    out: np.ndarray

    def dense_adjoints(self, adj: np.ndarray):
        """The reverse loop: walk the layers from the output adjoint `adj`
        (shaped (B, C), or (S, B, C) for a stacked forward) and yield
        (layer input, output adjoint, offset, weight count of one member)
        for every dense layer. The adjoint of the chain's input is never
        formed."""
        layers = self.layers
        for i in range(len(layers) - 1, -1, -1):
            kind, h, w, offset = layers[i]
            if kind == "dense":
                yield h, adj, offset, w.shape[-2] * w.shape[-1]
                if i:
                    adj = adj @ w.swapaxes(-1, -2)
            elif kind == "square":
                adj = 2.0 * h * adj
            else:
                adj = subgradient_convention(kind, h, w) * adj


def forward(graph: Sequence, params: np.ndarray,
            x) -> tuple[np.ndarray, ForwardCache]:
    """Run the layer graph on input x, recording a per-layer cache.

    x may be a single sample (d,) or a batch (B, d); the output is
    (B, C) for C model outputs, squeezed to (B,) when C == 1 and to a
    scalar for a single sample of a single-output model. params is one
    flat vector (P,) or a stack (S, P); a stack runs every member on the
    same x and prefixes the output with the member axis S.
    """
    params = np.asarray(params, dtype=np.float64)
    lead = params.shape[:-1]  # () or (S,)
    h = np.asarray(x, dtype=np.float64)
    single = h.ndim == 1
    if single:
        h = h[None, :]
    layers = []
    for layer in graph:
        kind = layer.kind
        if kind == "dense":
            if h.shape[-1] != layer.in_dim:
                raise ShapeError("dense", f"input dim {layer.in_dim}", h.shape)
            w = params[..., layer.offset : layer.offset + layer.in_dim * layer.out_dim]
            w = w.reshape(lead + (layer.in_dim, layer.out_dim))
            layers.append((kind, h, w, layer.offset))
            h = h @ w
            continue
        layers.append((kind, h, layer.alpha, layer.offset))
        if kind == "relu":
            h = np.maximum(h, 0.0)
        elif kind == "leaky_relu":
            h = np.where(h > 0.0, h, layer.alpha * h)
        elif kind == "square":
            h = h * h
        else:
            raise ValueError(f"unknown activation {kind!r}")
    squeeze = h.shape[-1] == 1
    if squeeze:
        h = h[..., 0]
    if not np.isfinite(h).all():
        raise NonFiniteError("forward pass produced non-finite output")
    cache = ForwardCache(params.shape[-1], layers, squeeze, h)
    if single:
        return (h[:, 0] if lead else h[0]), cache
    return h, cache


def backward(cache: ForwardCache, seed=1.0) -> np.ndarray:
    """Reverse accumulation: returns seed^T J as a flat parameter gradient.

    seed is a scalar or an array matching the registered output shape;
    per-sample and per-class weights enter here, so one batched backward
    yields any weighted combination of per-sample gradients. The cache
    comes from a forward over one parameter vector. A non-finite seed
    raises before any arithmetic.
    """
    adj = np.asarray(seed, dtype=np.float64)
    if not np.isfinite(adj).all():
        raise NonFiniteError("backward pass got a non-finite seed")
    if adj.shape != cache.out.shape:
        adj = np.broadcast_to(adj, cache.out.shape).astype(np.float64)
    if cache.squeeze:
        adj = adj[:, None]
    grad = np.zeros(cache.param_count)
    for h, delta, offset, size in cache.dense_adjoints(adj):
        grad[offset : offset + size] += (h.T @ delta).ravel()
    if not np.isfinite(grad).all():
        raise NonFiniteError("backward pass produced non-finite gradient")
    return grad
