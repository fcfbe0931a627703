"""Reverse-mode gradients of dense chains over float64 arrays.

Every architecture in this package is a chain of bias-free dense
layers, each followed by at most one elementwise activation (ReLU,
LeakyReLU, square), described by the model's block table (`models.Block`):
each dense layer's slice bounds and shape, and the forward op and
derivative rule of the activation after it. The forward pass walks that
table and records one small record per dense layer, and the backward
pass is a single loop over those records in reverse. No graph is built
per call, no Hessians.

Finiteness checks reduce with `np.logical_and.reduce`, which skips the
Python wrapper of `ndarray.all` on these short, hot arrays.

The forward pass and the reverse loop also take a stack of S parameter
vectors, shaped (S, P): every array then gains a leading member axis,
and matmul broadcasts the shared input batch against the S weights.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def activation(kind: str, alpha: float = 0.0):
    """(forward op, derivative rule) of one elementwise activation, each
    a function of the pre-activation z.

    ReLU's rule is 0 at z == 0 and LeakyReLU's is the negative-side
    slope alpha there, so runs are reproducible at kinks.
    """
    if kind == "relu":
        # a boolean mask multiplies as 1.0 / 0.0
        return (lambda z: np.maximum(z, 0.0)), (lambda z: z > 0.0)
    if kind == "leaky_relu":
        return ((lambda z: np.where(z > 0.0, z, alpha * z)),
                (lambda z: np.where(z > 0.0, 1.0, alpha)))
    if kind == "square":
        return (lambda z: z * z), (lambda z: 2.0 * z)
    raise ValueError(f"unknown activation {kind!r}")


@dataclass(slots=True)
class ForwardCache:
    """What one forward pass leaves for the reverse loop.

    `records` holds one (layer input, weight view, pre-activation output,
    start, stop, derivative rule) record per dense layer; `out` is the
    batch-shaped output, (B,) when `squeeze` dropped a single output
    column, else (B, C). A forward over S stacked parameter vectors adds
    a leading member axis to `out`, to every weight view and to every
    layer input but the first, which is the shared batch.
    """

    param_count: int
    records: list
    squeeze: bool
    out: np.ndarray

    def adjoints(self, adj: np.ndarray) -> list:
        """The reverse loop: walk the layers from the output adjoint `adj`
        (shaped (B, C), or (S, B, C) for a stacked forward) and return
        (layer input, output adjoint, start, stop) for every dense layer,
        the last layer first. The adjoint of the chain's input is never
        formed."""
        out = []
        for i in range(len(self.records) - 1, -1, -1):
            h, w, z, start, stop, rule = self.records[i]
            if rule is not None:
                adj = rule(z) * adj
            out.append((h, adj, start, stop))
            if i:
                adj = adj @ w.swapaxes(-1, -2)
        return out


def forward(blocks: tuple, params: np.ndarray,
            x) -> tuple[np.ndarray, ForwardCache]:
    """Run a block table on input x, recording a per-layer cache.

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
    records = []
    for start, stop, shape, _, act, rule in blocks:
        if h.shape[-1] != shape[0]:
            raise ShapeError("dense", f"input dim {shape[0]}", h.shape)
        w = params[..., start:stop].reshape(lead + shape)
        z = h @ w
        records.append((h, w, z, start, stop, rule))
        h = z if act is None else act(z)
    squeeze = h.shape[-1] == 1
    if squeeze:
        h = h[..., 0]
    if not np.logical_and.reduce(np.isfinite(h), axis=None):
        raise NonFiniteError("forward pass produced non-finite output")
    cache = ForwardCache(params.shape[-1], records, squeeze, h)
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
    if not np.logical_and.reduce(np.isfinite(adj), axis=None):
        raise NonFiniteError("backward pass got a non-finite seed")
    if adj.shape != cache.out.shape:
        adj = np.broadcast_to(adj, cache.out.shape).astype(np.float64)
    if cache.squeeze:
        adj = adj[:, None]
    grad = np.zeros(cache.param_count)
    for h, delta, start, stop in cache.adjoints(adj):
        grad[start:stop] += (h.T @ delta).ravel()
    if not np.logical_and.reduce(np.isfinite(grad)):
        raise NonFiniteError("backward pass produced non-finite gradient")
    return grad
