"""Bounded-ratio rate diagnostics on synthetic and real trajectories."""

import math

import numpy as np
import pytest

from marginflow import datasets, losses, models
from marginflow.gdtrain import estimate_b_constants, train_gd
from marginflow.gradflow import run_flow
from marginflow.rates import bounded_ratio_verdict, rate_ratios

EXP = losses.get_loss("exp")
LOGISTIC = losses.get_loss("logistic")


def _records(T, x, rho):
    return [{"t": float(t), "log_inv_loss": float(a), "rho": float(r)}
            for t, a, r in zip(T, x, rho)]


# ----------------------------------------------------------- synthetic

def test_exact_constant_synthetic():
    # loss matched to the predicted shape g(log T)^{2/L} / (T log^2 T)
    # keeps both ratios pinned at one; for g = id and L = 1 that loss
    # is exactly 1/T and the norm is exactly log T
    T = np.logspace(1.0, 7.0, 400)
    log_T = np.log(T)
    diag = rate_ratios(_records(T, log_T, log_T), EXP, 1.0, n_samples=2)
    assert not diag.inconclusive
    np.testing.assert_allclose(diag.ratio_loss, 1.0, rtol=1e-12)
    np.testing.assert_allclose(diag.ratio_rho, 1.0, rtol=1e-12)
    verdict = bounded_ratio_verdict(diag)
    assert verdict.passed
    assert math.isclose(verdict.factor_loss, 1.0, rel_tol=1e-12)
    assert math.isclose(verdict.factor_rho, 1.0, rel_tol=1e-12)


def test_exp_family_reduction():
    # with g = id the loss ratio reduces to loss * T * (log T)^{2-2/L}
    T = np.logspace(1.0, 6.0, 200)
    log_T = np.log(T)
    x = log_T + np.log(log_T)  # loss = 1/(T log T)
    order_L = 2.0
    diag = rate_ratios(_records(T, x, np.sqrt(log_T)), EXP, order_L, 2)
    manual = np.exp(-x) * T * log_T ** (2.0 - 2.0 / order_L)
    np.testing.assert_allclose(diag.ratio_loss, manual, rtol=1e-10)


def test_drifting_ratio_factor_matches_endpoints():
    # loss = log T / T makes the L=1 ratio drift as log T, so the
    # trailing-window factor is the log-ratio of the window endpoints
    T = np.logspace(1.0, 7.0, 601)
    log_T = np.log(T)
    x = log_T - np.log(log_T)
    diag = rate_ratios(_records(T, x, log_T), EXP, 1.0, n_samples=2)
    verdict = bounded_ratio_verdict(diag, window=3.0)
    assert verdict.passed
    assert math.isclose(verdict.factor_loss,
                        math.log(1e7) / math.log(1e4), rel_tol=5e-3)
    strict = bounded_ratio_verdict(diag, window=3.0, bound_factor=1.5)
    assert not strict.passed and not strict.inconclusive


def test_short_span_is_inconclusive():
    T = np.logspace(1.0, 2.5, 50)
    log_T = np.log(T)
    diag = rate_ratios(_records(T, log_T, log_T), EXP, 1.0, n_samples=2)
    assert diag.inconclusive
    verdict = bounded_ratio_verdict(diag)
    assert not verdict.passed and verdict.inconclusive
    assert math.isnan(verdict.factor_loss)


def test_window_wider_than_span_is_inconclusive():
    T = np.logspace(1.0, 5.0, 100)
    log_T = np.log(T)
    diag = rate_ratios(_records(T, log_T, log_T), EXP, 1.0, n_samples=2)
    assert not diag.inconclusive
    assert bounded_ratio_verdict(diag, window=6.0).inconclusive


def test_burn_in_cut_drops_early_records():
    T = np.logspace(0.1, 6.0, 300)
    log_T = np.log(T)
    n = 50  # threshold 2 log 50 ~ 7.8 discards the first decades
    diag = rate_ratios(_records(T, log_T, log_T), EXP, 1.0, n_samples=n)
    assert np.min(diag.log10_T) >= 2.0 * math.log(n) / math.log(10.0) - 1e-9
    assert diag.T.size < len(T)


def test_records_without_time_axis_rejected():
    with pytest.raises(ValueError, match="log_sum_eta"):
        rate_ratios([{"log_inv_loss": 1.0, "rho": 1.0}], EXP, 1.0, 2)


# ---------------------------------------------------------- real runs

@pytest.fixture(scope="module")
def relu_flow():
    ds = datasets.two_gaussians(8, 2, separation=3.0, seed=5)
    model = models.relu_mlp(2, [4])
    theta0 = models.init_params(model, np.random.default_rng(3), scale=0.7)
    out = run_flow(model, theta0, ds, EXP, target_log_inv_loss=18.0,
                   step_tol=2e-3)
    return model, ds, out


def test_relu_flow_rate_bounded(relu_flow):
    model, ds, out = relu_flow
    diag = rate_ratios(out["records"], EXP, model.order_L, ds.n)
    assert diag.decades >= 3.0
    assert np.all(np.isfinite(diag.ratio_loss))
    assert np.all(diag.ratio_loss > 0.0) and np.all(diag.ratio_rho > 0.0)
    verdict = bounded_ratio_verdict(diag)
    assert verdict.passed and verdict.factor_loss <= 10.0


def test_rho_monotone_after_separation(relu_flow):
    _, _, out = relu_flow
    recs = out["records"]
    first = next(i for i, r in enumerate(recs) if r["q_min"] > 0.0)
    rho = np.array([r["rho"] for r in recs[first:]])
    assert np.all(np.diff(rho) >= 0.0)


def test_rho_ratio_within_factor_four(relu_flow):
    model, ds, out = relu_flow
    diag = rate_ratios(out["records"], EXP, model.order_L, ds.n)
    verdict = bounded_ratio_verdict(diag, window=2.0)
    assert verdict.factor_rho <= 4.0


def test_linear_logistic_matches_inverse_time():
    # L = 1: the predicted shape collapses to loss ~ 1/T
    model = models.linear(2)
    ds = datasets.from_rows([[2.0, 1.0, 1], [-1.0, 0.5, -1]])
    out = run_flow(model, np.array([0.3, 0.05]), ds, LOGISTIC,
                   target_log_inv_loss=30.0, step_tol=2e-3)
    diag = rate_ratios(out["records"], LOGISTIC, model.order_L, ds.n)
    rec = out["records"][-1]
    plain = math.exp(-rec["log_inv_loss"]) * rec["t"]
    assert math.isclose(diag.ratio_loss[-1], plain, rel_tol=1e-6)
    assert bounded_ratio_verdict(diag).passed


def test_guarded_descent_rate_bounded():
    # step sizes capped inside the certified window keep T = sum eta
    # on the predicted schedule; far larger steps would not
    model = models.linear(2)
    ds = datasets.from_rows([[2.0, 1.0, 1], [-1.0, 0.5, -1]])
    b = estimate_b_constants(model, ds, np.random.default_rng(0))
    res = train_gd(model, np.array([0.3, 0.05]), ds, EXP, b, epochs=1000,
                   alpha0=1.0, s5_guard=True, guard_safety=0.9)
    diag = rate_ratios(res["records"], EXP, model.order_L, ds.n)
    assert diag.decades >= 3.0
    verdict = bounded_ratio_verdict(diag)
    assert verdict.passed
    assert verdict.factor_loss <= 10.0 and verdict.factor_rho <= 4.0
