"""Reverse-mode gradients of dense chains over float64 arrays.

Every architecture in this package is a chain of bias-free dense
layers, each followed by at most one elementwise activation (ReLU,
LeakyReLU, square), described by the model's block table (`models.Block`):
each dense layer's slice bounds and shape, and the forward op and
derivative rule of the activation after it. `walk` runs that table and
keeps one (layer input, weight view, pre-activation) record per dense
layer; `backward` walks those records back into a flat gradient. No
graph is built per call, no Hessians. `walk` also takes a stack of S
parameter vectors, shaped (S, P): every array then gains a leading
member axis, and matmul broadcasts the shared input batch against the S
weights. Finiteness checks scan the bytes of the `np.isfinite` mask for
a zero, a third of the time of a ufunc reduction on short arrays.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Raised when an input batch does not fit the first dense layer."""


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
        # a boolean mask multiplies as 1.0 / 0.0
        return (lambda z: np.maximum(z, 0.0)), (lambda z: z > 0.0)
    if kind == "leaky_relu":
        return ((lambda z: np.where(z > 0.0, z, alpha * z)),
                (lambda z: np.where(z > 0.0, 1.0, alpha)))
    if kind == "square":
        return (lambda z: z * z), (lambda z: 2.0 * z)
    raise ValueError(f"unknown activation {kind!r}")


def walk(blocks: tuple, params: np.ndarray,
         h: np.ndarray) -> tuple[np.ndarray, list]:
    """(out, records) of a block table on the float64 (N, d) batch h:
    out is (N, C) for one float64 parameter vector (P,), (S, N, C) for a
    stack (S, P); every record's layer input but the first, the shared
    batch, then carries the member axis too."""
    lead = params.shape[:-1]  # () or (S,)
    records = []
    for start, stop, shape, _, act, _ in blocks:
        w = params[..., start:stop].reshape(lead + shape)
        z = h @ w
        records.append((h, w, z))
        h = z if act is None else act(z)
    if not _all_finite(h):
        raise NonFiniteError("forward pass produced non-finite output")
    return h, records


def forward(blocks: tuple, params, x) -> tuple[np.ndarray, list]:
    """`walk` on a batch (B, d) or a single sample (d,), a batch of one in
    the records; the output is (B, C), squeezed to (B,) when C == 1 and
    to a scalar for a single sample of a single-output model, after the
    member axis S of a stack."""
    params = np.asarray(params, dtype=np.float64)
    h = np.asarray(x, dtype=np.float64)
    single = h.ndim == 1
    if single:
        h = h[None, :]
    if h.shape[-1] != blocks[0].shape[0]:
        raise ShapeError(f"op 'dense': expected input dim "
                         f"{blocks[0].shape[0]}, got {h.shape}")
    out, records = walk(blocks, params, h)
    if out.shape[-1] == 1:
        out = out[..., 0]
    if single:
        return (out[:, 0] if params.ndim > 1 else out[0]), records
    return out, records


def backward(blocks: tuple, records: list, seed: np.ndarray) -> np.ndarray:
    """seed^T J as a flat parameter gradient, for the float64 (N, C)
    adjoint `seed` of a `walk` over one parameter vector: per-sample and
    per-class weights enter here, so one batched backward yields any
    weighted sum of per-sample gradients. A non-finite seed raises
    before any arithmetic; the input's adjoint is never formed."""
    if not _all_finite(seed):
        raise NonFiniteError("backward pass got a non-finite seed")
    adj, parts = seed, []
    for i in range(len(blocks) - 1, -1, -1):
        rule = blocks[i].rule
        h, w, z = records[i]
        if rule is not None:
            adj = rule(z) * adj
        # ndarray.dot skips matmul's ufunc dispatch; it keeps matmul's
        # bits on a C-contiguous h, not on a strided batch (a column slice)
        parts.append((h.T.dot(adj) if h.flags.c_contiguous
                      else h.T @ adj).ravel())
        if i:
            adj = adj.dot(w.T)
    # + 0.0 turns -0.0 into 0.0, as zeros + it does
    grad = (np.concatenate(parts[::-1]) if len(parts) > 1 else parts[0]) + 0.0
    if not _all_finite(grad):
        raise NonFiniteError("backward pass produced non-finite gradient")
    return grad
