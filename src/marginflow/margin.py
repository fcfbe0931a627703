"""Margins, smoothed margins, and the bracketing bounds between them.

All loss aggregation happens in log space: the central quantity is
x = log(1/loss), never the loss itself, so trajectories deep below
float range stay representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset
from .losses import LossSpec
from .models import HomogeneousModel, as_params


def scores(model: HomogeneousModel, theta, X) -> np.ndarray:
    out = model.output(theta, X)
    return np.atleast_1d(out)


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


def sample_margins(model: HomogeneousModel, theta, dataset: Dataset) -> np.ndarray:
    """Hard margins: y_n * Phi binary, true-minus-best-other multi-class."""
    phi = scores(model, theta, dataset.X)
    if dataset.is_binary:
        if phi.ndim != 1:
            raise ValueError("binary labels need a single-output model")
        return dataset.y * phi
    return np.min(score_gaps(phi, dataset.y), axis=1)


def effective_margins(model: HomogeneousModel, theta, dataset: Dataset) -> np.ndarray:
    """Margins the loss actually sums over: q binary, q_tilde multi-class."""
    phi = scores(model, theta, dataset.X)
    if dataset.is_binary:
        return dataset.y * phi
    return soft_margins(score_gaps(phi, dataset.y))


def _shifted_exp(a: np.ndarray, b=None) -> tuple[float, np.ndarray]:
    """(a_max, b * exp(a - a_max)): the O(1) terms of log sum b e^a.

    Inline log-sum-exp; scipy's `logsumexp` costs ~100-300us per call
    on the short arrays of the flow's hot loop.
    """
    a_max = float(a.max())
    terms = np.exp(a - a_max)
    if b is not None:
        terms *= b
    return a_max, terms


def _inv_loss_weights(fq: np.ndarray) -> tuple[float, np.ndarray]:
    """(x, w) for loss = sum_n exp(-fq_n): x = -LSE(-fq), w = exp(x - fq).

    The weights are formed as exp(m - fq) * exp(x - m) with m = min fq,
    so every exponent stays O(1) however small the loss is.
    """
    neg_m, w = _shifted_exp(-fq)
    x = -(neg_m + math.log(float(w.sum())))
    w *= math.exp(x + neg_m)
    return x, w


def log_inv_loss_from_margins(spec: LossSpec, q_eff) -> float:
    """x = log(1/loss) for loss = sum_n exp(-f(q_n)); stable LSE path."""
    return _inv_loss_weights(spec.f(np.asarray(q_eff, dtype=np.float64)))[0]


def log_inv_loss(model: HomogeneousModel, theta, dataset: Dataset,
                 spec: LossSpec) -> float:
    return log_inv_loss_from_margins(spec, effective_margins(model, theta, dataset))


def loss_weights(spec: LossSpec, q_eff) -> tuple[float, np.ndarray]:
    """Per-sample softmax weights w_n = exp(x - f(q_n)), summing to one.

    Every gradient/velocity formula downstream is expressed through
    these weights, which keeps all exponents O(1) regardless of how
    small the loss is.
    """
    return _inv_loss_weights(spec.f(np.asarray(q_eff, dtype=np.float64)))


def smoothed_margin(theta, log_inv_loss: float, spec: LossSpec,
                    order_L: float) -> float:
    """gamma_tilde = g(log 1/loss) / rho^L."""
    rho = as_params(theta).rho
    if rho <= 0.0:
        raise ValueError("zero parameter vector has no normalized margin")
    spec.check_g_domain(log_inv_loss)
    return float(spec.g(log_inv_loss)) / rho**order_L


def smoothed_margin_multihomo(block_norms, k_exps, log_inv_loss: float,
                              spec: LossSpec) -> float:
    """gamma_tilde with the product normalizer prod_i ||w_i||^{k_i}."""
    norms = np.asarray(block_norms, dtype=np.float64)
    ks = np.asarray(k_exps, dtype=np.float64)
    if norms.shape != ks.shape:
        raise ValueError("one exponent per block norm")
    if np.any(norms <= 0.0):
        raise ValueError("zero block norm has no normalized margin")
    spec.check_g_domain(log_inv_loss)
    return float(spec.g(log_inv_loss)) * float(np.exp(-np.sum(ks * np.log(norms))))


def margin_sandwich(spec: LossSpec, q_min: float, log_inv_loss: float,
                    rho: float, order_L: float, n_samples: int) -> tuple[float, float]:
    """Certified bracket (low, high) around gamma_tilde, high = gamma_bar.

    Mean-value form: gamma_bar - gamma_tilde = g'(xi) * gap / rho^L for
    some xi between max(f(b_f), f(q_min) - log N) and f(q_min), with
    gap <= log N. The unknown xi is replaced by the supremum of g' over
    that interval, sampled at 33 points; g' is monotone for every
    built-in family, so the endpoint grid attains the sup.
    """
    high = float(q_min) / rho**order_L
    if n_samples <= 1:
        return high, high
    log_n = float(np.log(n_samples))
    f_qmin = float(spec.f(q_min))
    lo_end = max(spec.f_at_bf, f_qmin - log_n)
    with np.errstate(divide="ignore"):
        sup_gp = float(np.max(spec.g_prime(np.linspace(lo_end, f_qmin, 33))))
    return high - sup_gp * log_n / rho**order_L, high


@dataclass(frozen=True)
class MarginReport:
    """Snapshot of every margin quantity at one evaluation point."""

    q: np.ndarray
    q_min: float
    rho: float
    log_inv_loss: float
    bar_gamma: float
    tilde_gamma: float
    sandwich_low: float

    def to_record(self) -> dict:
        return {
            "q_min": self.q_min,
            "rho": self.rho,
            "log_inv_loss": self.log_inv_loss,
            "bar_gamma": self.bar_gamma,
            "tilde_gamma": self.tilde_gamma,
            "sandwich_low": self.sandwich_low,
        }


def evaluate_margins(model: HomogeneousModel, theta, dataset: Dataset,
                     spec: LossSpec) -> MarginReport:
    """One full margin evaluation; requires the separated regime."""
    theta = as_params(theta)
    q = sample_margins(model, theta, dataset)
    q_eff = effective_margins(model, theta, dataset)
    x = log_inv_loss_from_margins(spec, q_eff)
    tilde = smoothed_margin(theta, x, spec, model.order_L)
    # the sandwich lemma speaks about the margins inside the loss, so the
    # multi-class bracket is anchored at min q_tilde, still below q_min
    low, _ = margin_sandwich(
        spec, float(np.min(q_eff)), x, theta.rho, model.order_L, dataset.n
    )
    return MarginReport(
        q=q,
        q_min=float(np.min(q)),
        rho=theta.rho,
        log_inv_loss=x,
        bar_gamma=float(np.min(q)) / theta.rho**model.order_L,
        tilde_gamma=tilde,
        sandwich_low=low,
    )
