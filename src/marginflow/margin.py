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

    The weights are formed as exp(m - fq) * exp(x - m) with m = min fq,
    so every exponent stays O(1) however small the loss is. The
    log-sum-exp is inline: scipy's `logsumexp` costs ~100-300us per
    call on the short arrays of the flow's hot loop. The reductions call
    the ufunc directly, which skips the ndarray method's Python wrapper
    and gives the same bits.
    """
    neg_fq = -fq
    neg_m = float(np.maximum.reduce(neg_fq))
    w = np.exp(neg_fq - neg_m)
    x = -(neg_m + math.log(float(np.add.reduce(w))))
    w *= math.exp(x + neg_m)
    return x, w
