"""Margins and the log-space loss weights.

All loss aggregation happens in log space: the central quantity is
x = log(1/loss), never the loss itself, so trajectories deep below
float range stay representable.
"""

from __future__ import annotations

import math

import numpy as np


def label_masks(y: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
    """(on, off): the (N, c) masks of each class label y_n's entry and of
    its c - 1 other entries."""
    on = np.zeros((y.size, c), dtype=bool)
    on[np.arange(y.size), y] = True
    return on, ~on


def score_gaps(phi: np.ndarray, on: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Multi-class gaps s_nj = Phi_{y_n} - Phi_j for j != y_n, as (N, C-1);
    on and off are the masks of `label_masks`."""
    n, c = phi.shape
    return phi[on][:, None] - phi[off].reshape(n, c - 1)


def soft_margins(gaps: np.ndarray) -> np.ndarray:
    """q_tilde_n = -LSE_j(-s_nj), the soft-min over the per-class gaps."""
    s_min = np.min(gaps, axis=1)
    return s_min - np.log(np.sum(np.exp(s_min[:, None] - gaps), axis=1))


def _inv_loss_weights(fq: np.ndarray) -> tuple[float, np.ndarray]:
    """(x, w) for loss = sum_n exp(-fq_n): x = -LSE(-fq), w = exp(x - fq).

    With m = min fq, w is exp(m - fq) * exp(x - m), every exponent O(1)
    however small the loss is, and x is -(log sum exp(m - fq) - m): the
    bits of the log-sum-exp of -fq about its max -m, as negation is exact
    and rounding sign-symmetric. The log-sum-exp is inline (scipy's
    `logsumexp` costs ~100-300us per call on the flow's short arrays),
    and the reductions call the ufunc, skipping ndarray's Python wrapper.
    """
    m = float(np.minimum.reduce(fq))
    w = np.exp(m - fq)
    x = -(math.log(float(np.add.reduce(w))) - m)
    w *= math.exp(x - m)
    return x, w
