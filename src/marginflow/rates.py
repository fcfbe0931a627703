"""Bounded-ratio diagnostics for the asymptotic loss and norm rates.

The predicted tail rates are loss ~ g(log T)^{2/L} / (T (log T)^2) and
norm ~ g(log T)^{1/L}, with T physical time for the flow and the
accumulated step-size sum for discrete descent. Hidden constants make
curve fitting pointless; what is testable is that the ratio of the
measured quantity to the predicted shape stays within a bounded factor
over the trailing decades of T. Everything is computed in log space:
late-time runs put both 1/loss and T far beyond float range while the
ratios themselves stay O(1).
"""

from __future__ import annotations

import math

import numpy as np

from .losses import LossSpec

LOG10 = math.log(10.0)
# the span of T past the burn-in cut that a diagnostic needs, in decades
MIN_DECADES = 3.0
# a verdict passes iff both ratios vary by at most VERDICT_BOUND over the
# final VERDICT_WINDOW decades of T
VERDICT_WINDOW = 2.0
VERDICT_BOUND = 10.0


def _log_T_of(rec) -> float:
    if "t" in rec:
        t = rec["t"]
        if not (t > 0.0 and math.isfinite(t)):
            return math.nan
        return math.log(t)
    if "log_sum_eta" in rec:
        return rec["log_sum_eta"]
    raise ValueError("trajectory records carry neither t nor log_sum_eta")


def rate_ratios(trajectory, spec: LossSpec, order_L: float,
                n_samples: int) -> dict:
    """Measured-over-predicted ratio series for one trajectory, as a dict.

    Records before the burn-in cut are dropped: the cut is the first
    time log(1/loss) reaches 2 log N, past which every sample is
    individually well classified and the tail theory applies. The series
    `ratio_loss`, `ratio_rho` and their logs `log_ratio_loss` and
    `log_ratio_rho` run on the axis `log10_T` (T itself may overflow on
    long descent runs). `decades` is the span past the cut; under three,
    `inconclusive` is true and the run should not be judged.
    """
    log_T = np.array([_log_T_of(rec) for rec in trajectory])
    x = np.array([rec["log_inv_loss"] for rec in trajectory])
    rho = np.array([rec["rho"] for rec in trajectory])
    threshold = 2.0 * math.log(n_samples)
    keep = (np.isfinite(log_T) & (x >= threshold)
            & (log_T > spec.f_at_bf + 1e-9))
    log_T, x, rho = log_T[keep], x[keep], rho[keep]
    g = np.asarray(spec.g(log_T), dtype=np.float64)
    pos = g > 0.0
    log_T, x, rho, g = log_T[pos], x[pos], rho[pos], g[pos]
    log_ratio_loss = (-x + log_T + 2.0 * np.log(log_T)
                      - (2.0 / order_L) * np.log(g))
    log_ratio_rho = np.log(rho) - np.log(g) / order_L
    decades = (log_T[-1] - log_T[0]) / LOG10 if log_T.size >= 2 else 0.0
    # off-regime runs (steps far beyond the certified window) can push
    # the ratios out of float range; inf is the honest value there
    with np.errstate(over="ignore"):
        ratio_loss = np.exp(log_ratio_loss)
        ratio_rho = np.exp(log_ratio_rho)
    return {"log10_T": log_T / LOG10,
            "ratio_loss": ratio_loss, "ratio_rho": ratio_rho,
            "log_ratio_loss": log_ratio_loss, "log_ratio_rho": log_ratio_rho,
            "decades": decades, "inconclusive": decades < MIN_DECADES}


def bounded_ratio_verdict(diag: dict) -> dict:
    """A dict: `passed` iff both ratio series of `diag` vary by at most
    VERDICT_BOUND over the final VERDICT_WINDOW decades of T, the spread
    factors `factor_loss` and `factor_rho`, and the two constants. An
    inconclusive diagnostic, or a window wider than its span, gives an
    `inconclusive` verdict with NaN factors, which never passes."""
    inconclusive = diag["inconclusive"] or VERDICT_WINDOW > diag["decades"]
    factor_loss = factor_rho = math.nan
    if not inconclusive:
        log10_T = diag["log10_T"]
        tail = log10_T >= log10_T[-1] - VERDICT_WINDOW

        def spread(log_series):
            width = float(np.max(log_series) - np.min(log_series))
            return math.inf if width > 700.0 else math.exp(width)

        factor_loss = spread(diag["log_ratio_loss"][tail])
        factor_rho = spread(diag["log_ratio_rho"][tail])
    # a NaN factor compares false
    return {"passed": factor_loss <= VERDICT_BOUND
            and factor_rho <= VERDICT_BOUND,
            "inconclusive": inconclusive, "factor_loss": factor_loss,
            "factor_rho": factor_rho, "window": VERDICT_WINDOW,
            "bound_factor": VERDICT_BOUND}
