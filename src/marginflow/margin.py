"""Margins and the log-space loss weights.

All loss aggregation happens in log space: the central quantity is
x = log(1/loss), never the loss itself, so trajectories deep below
float range stay representable.
"""

from __future__ import annotations

import math

import numpy as np


def score_gaps(phi: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Multi-class gaps s_nj = Phi_{y_n} - Phi_j for j != y_n, as (N, C-1)."""
    n, c = phi.shape
    true = phi[np.arange(n), y]
    mask = np.ones((n, c), dtype=bool)
    mask[np.arange(n), y] = False
    others = phi[mask].reshape(n, c - 1)
    return true[:, None] - others


def soft_margins(gaps: np.ndarray) -> np.ndarray:
    """q_tilde_n = -LSE_j(-s_nj), the soft-min over the per-class gaps."""
    s_min = np.min(gaps, axis=1)
    return s_min - np.log(np.sum(np.exp(s_min[:, None] - gaps), axis=1))


def _inv_loss_weights(fq: np.ndarray) -> tuple[float, np.ndarray]:
    """(x, w) for loss = sum_n exp(-fq_n): x = -LSE(-fq), w = exp(x - fq).

    The weights are formed as exp(m - fq) * exp(x - m) with m = min fq,
    so every exponent stays O(1) however small the loss is. The
    log-sum-exp is inline: scipy's `logsumexp` costs ~100-300us per
    call on the short arrays of the flow's hot loop.
    """
    neg_fq = -fq
    neg_m = float(neg_fq.max())
    w = np.exp(neg_fq - neg_m)
    x = -(neg_m + math.log(float(w.sum())))
    w *= math.exp(x + neg_m)
    return x, w
