"""Optimality certificates for the minimum-norm margin problem.

The reference problem fixes the margin scale: minimize ||theta||^2 / 2
subject to every sample margin reaching one. Training never lands on
that boundary, but homogeneity lets any separating checkpoint be
rescaled onto it, and the loss gradient then supplies explicit
multipliers. The resulting certificate quantifies first-order
optimality: the stationarity residual shrinks as the parameter
direction aligns with the gradient, and the complementarity residual
shrinks with the loss exponent.

The scaled problem satisfies MFCQ at every feasible point (take the
point itself as the constraint-qualification direction; homogeneity
makes each active constraint strictly decrease along it), so the
certificates certify genuine first-order necessary conditions. This is
structural and is not re-checked at runtime.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .datasets import Dataset
from .gradflow import PointEval
from .losses import LossSpec
from .models import HomogeneousModel


class NotSeparableError(ValueError):
    """Raised when a nonpositive margin blocks the feasibility scaling."""


def build_certificate(model: HomogeneousModel, ev: PointEval,
                      dataset: Dataset, spec: LossSpec, *,
                      log_tilde_t0: float | None = None,
                      b1: float | None = None) -> dict:
    """Approximate first-order optimality data at ev.theta, as a dict.

    `epsilon` bounds the stationarity gap of the point rescaled onto the
    unit-margin boundary, `delta` the worst complementarity product of
    the multipliers `lambdas`; `epsilon_beta` recomputes epsilon from
    the gap between the unit direction and the unit gradient, and the
    two must agree to rounding. `beta`, `q_min`, `rho` and
    `log_inv_loss` describe the checkpoint. The multiplier for sample n
    is q_min^{1-2/L} rho w_n f'(q_n) divided by the gradient norm, with
    w_n the unit-sum loss weights; every exponential factor cancels
    inside the ratio. Passing the log of the smoothed margin at the
    first separated time (and, when the loss needs it, the sup b1 of the
    margin gradient over the unit sphere) fills in the predicted
    ceilings `eps_bound` and `delta_bound`, else None.
    """
    if not dataset.is_binary:
        raise NotImplementedError(
            "certificate multipliers assume binary hard margins")
    q_min = float(np.min(ev.q))
    if q_min <= 0.0:
        raise NotSeparableError(
            f"min margin {q_min} is not positive; certificate undefined")
    if ev.g_norm == 0.0:
        raise ValueError("gradient vanished: the direction is exactly "
                         "stationary and the multipliers are undefined")
    order_L = model.order_L
    scale = q_min ** (1.0 / order_L)
    lambdas = (q_min ** (1.0 - 2.0 / order_L) * ev.rho
               * ev.weights * ev.fprime / ev.g_norm)
    unit_g = ev.G / ev.g_norm
    # 1 - beta as half the squared gap of the unit vectors: unlike
    # 1 - beta itself it keeps its digits once beta rounds to 1
    gap = ev.unit - unit_g
    one_minus_beta = 0.5 * float(gap @ gap)
    eps_bound = delta_bound = None
    if log_tilde_t0 is not None:
        tilde0 = math.exp(log_tilde_t0)
        eps_bound = (math.sqrt(2.0) / tilde0 ** (1.0 / order_L)
                     * math.sqrt(one_minus_beta))
        if spec.K is not None and spec.b_g is not None and ev.x >= spec.b_g:
            if spec.K == 1.0:
                growth = 1.0
            else:
                if b1 is None:
                    raise ValueError(
                        "delta ceiling needs the gradient sup b1 "
                        f"for {spec.name} (loss-ratio constant K > 1)")
                growth = (b1 / tilde0) ** math.log2(spec.K)
            c2 = (2.0 * math.e * dataset.n * spec.K ** 2
                  / (order_L * tilde0 ** (2.0 / order_L)) * growth)
            delta_bound = c2 / ev.x
    return {
        "lambdas": lambdas,
        "epsilon": float(np.linalg.norm(ev.theta - ev.rho * unit_g)) / scale,
        "epsilon_beta": ev.rho * math.sqrt(2.0 * one_minus_beta) / scale,
        "delta": float(np.max(lambdas * (ev.q / q_min - 1.0))),
        "beta": ev.beta, "q_min": q_min, "rho": ev.rho,
        "log_inv_loss": ev.x,
        "eps_bound": eps_bound, "delta_bound": delta_bound,
    }


# Hard-margin reference solver for the kernel view: with per-sample
# feature vectors h_n (for networks, margin gradients at a frozen
# direction), minimize ||w||^2/2 subject to y_n <w, h_n> >= 1.
SVM_FEAS_TOL = 1e-9
SVM_MULT_TOL = 1e-12


def svm_oracle(features, labels) -> tuple[np.ndarray, float]:
    """Exact desk-scale solve by support-subset enumeration.

    For each candidate support set the equality-constrained problem is
    a linear solve on the Gram matrix; the first candidate whose
    multipliers are nonnegative (to SVM_MULT_TOL) and whose solution is
    primal feasible (to SVM_FEAS_TOL) satisfies the full KKT system of a
    convex problem, hence is the global optimum. Returns (w, geometric
    margin = 1/||w||).
    """
    h = np.atleast_2d(np.asarray(features, dtype=np.float64))
    y = np.asarray(labels, dtype=np.float64)
    n = h.shape[0]
    if n > 32:
        raise ValueError(f"enumeration oracle is desk-scale; got {n} > 32")
    z = y[:, None] * h
    gram = z @ z.T
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            s = list(subset)
            g_s = gram[np.ix_(s, s)]
            mu, *_ = np.linalg.lstsq(g_s, np.ones(size), rcond=None)
            if not np.allclose(g_s @ mu, 1.0, atol=1e-8):
                continue  # singular and inconsistent subset
            if float(np.min(mu)) < -SVM_MULT_TOL:
                continue
            w = z[s].T @ mu
            if float(np.min(z @ w)) >= 1.0 - SVM_FEAS_TOL:
                return w, 1.0 / float(np.linalg.norm(w))
    raise NotSeparableError(
        "no support subset satisfies KKT: data is not separable in "
        "feature space")


def direction_gap_to_svm(theta_final, svm_w) -> float:
    """Angle in radians between the trained direction and the reference
    max-margin direction, 2 asin(||u_hat - v_hat|| / 2): exact near 0,
    where arccos of the cosine reads 0 below about 1.5e-8 rad."""
    u = np.asarray(theta_final, dtype=np.float64)
    v = np.asarray(svm_w, dtype=np.float64)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("directions must be nonzero")
    return 2.0 * math.asin(min(1.0, np.linalg.norm(u / nu - v / nv) / 2.0))
