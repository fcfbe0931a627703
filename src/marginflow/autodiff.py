"""Reverse-mode gradients of dense chains over float64 arrays.

Every model is a chain of bias-free dense layers, each followed by at
most one elementwise activation (ReLU, LeakyReLU, square): its block
table (`models.Block`). `layers` binds the table once to a parameter
array (P,), or a stack (S, P) whose member axis every array then gains;
`walk` runs it on a C-contiguous batch, keeping one record per dense layer,
and `backward` walks the records back into a flat gradient, slicing
nothing per call. Finiteness checks scan the bytes of the `np.isfinite`
mask for a zero, a third of the time of a ufunc reduction.
"""

from __future__ import annotations

import numpy as np


class NonFiniteError(FloatingPointError):
    """Raised when a forward or backward pass produces non-finite values."""


def _all_finite(a: np.ndarray) -> bool:
    return 0 not in np.isfinite(a).tobytes()


def activation(kind: str, alpha: float = 0.0):
    """(forward op, derivative rule) of one elementwise activation, each
    a function of the pre-activation z.

    ReLU's rule is 0 at z == 0 and LeakyReLU's is the negative-side
    slope alpha there, so runs are reproducible at kinks.
    """
    if kind == "relu":
        # a float mask: a bool one multiplies through a slower mixed loop
        return ((lambda z: np.maximum(z, 0.0)),
                (lambda z: np.greater(z, 0.0).astype(np.float64)))
    if kind == "leaky_relu":
        return ((lambda z: np.where(z > 0.0, z, alpha * z)),
                (lambda z: np.where(z > 0.0, 1.0, alpha)))
    if kind == "square":
        return (lambda z: z * z), (lambda z: 2.0 * z)
    raise ValueError(f"unknown activation {kind!r}")


def layers(blocks: tuple, params: np.ndarray) -> list:
    """Per block, bound to params (P,) or (S, P): (weight view, its
    transpose, product, op, rule, gradient view), the gradient views
    tiling one buffer, their `.base`. The product is `ndarray.dot`
    (matmul's bits on C-contiguous inputs, without its ufunc dispatch)
    for one vector, and matmul, which broadcasts, for a stack."""
    lead = params.shape[:-1]  # () or (S,)
    grad = np.empty(params.shape)
    product = np.matmul if lead else np.ndarray.dot
    table = []
    for start, stop, shape, _, act, rule in blocks:
        w, g = (a[..., start:stop].reshape(lead + shape)
                for a in (params, grad))
        table.append((w, w.swapaxes(-1, -2), product, act, rule, g))
    return table


def walk(table: list, h: np.ndarray) -> tuple[np.ndarray, list]:
    """(out, records) of a layer table on its batch h: out (N, C), or
    (S, N, C), and records (layer input, weight view, pre-activation)."""
    records = []
    for w, _, product, act, _, _ in table:
        z = product(h, w)
        records.append((h, w, z))
        h = z if act is None else act(z)
    if not _all_finite(h):
        raise NonFiniteError("forward pass produced non-finite output")
    return h, records


def backward(table: list, records: list, seed: np.ndarray) -> np.ndarray:
    """seed^T J for the float64 (N, C) adjoint `seed` of a `walk` over one
    parameter vector: one batched backward gives any weighted sum of
    per-sample gradients. It is the table's gradient buffer, which the
    next backward overwrites and which may hold -0.0: a caller that keeps
    it takes G + 0.0, which also turns -0.0 into 0.0. A non-finite seed
    raises before any arithmetic; the input's adjoint is never formed."""
    if not _all_finite(seed):
        raise NonFiniteError("backward pass got a non-finite seed")
    adj = seed
    for i in range(len(table) - 1, -1, -1):
        _, w_t, _, _, rule, g = table[i]
        h, _, z = records[i]
        if rule is not None:
            adj = rule(z) * adj
        h.T.dot(adj, out=g)
        if i:
            adj = adj.dot(w_t)
    if not _all_finite(g.base):
        raise NonFiniteError("backward pass produced non-finite gradient")
    return g.base
