"""Feasibility scaling, approximate-KKT certificates, and the SVM oracle.

The scaling onto the constraint boundary divides theta by the
certificate's q_min^{1/L}; the projected-gradient dual and the
alignment-integral accumulator are test oracles (tests/oracles.py).
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginflow import datasets, losses, models
from marginflow.gradflow import (Evaluator, evaluate_point, flow_states,
                                 log_tilde_margin)
from marginflow.kkt import (NotSeparableError, build_certificate,
                            direction_gap_to_svm, svm_oracle)

from oracles import (Beta2Accumulator, effective_margins,
                     svm_dual_projected_gradient)

EXP = losses.get_loss("exp")
LOGISTIC = losses.get_loss("logistic")


def _state_at(model, ds, spec, theta0, x_target, step_tol=3e-3):
    """The first flow state with log(1/loss) at or past x_target,
    within 50,000 steps."""
    states = itertools.islice(
        flow_states(model, theta0, ds, spec, step_tol=step_tol), 50_001)
    state = next((s for s, _ in states if s.ev.x >= x_target), None)
    assert state is not None, "flow stalled before the target"
    return state


# ---------------------------------------------------------- scaling

def _cert(model, theta, ds, spec=EXP):
    """The certificate at theta, evaluated on ds."""
    ev = evaluate_point(Evaluator(model, ds, spec), theta)
    return build_certificate(model, ev, ds, spec)


def _theta_scaled(model, theta, cert):
    """theta rescaled onto the unit-margin boundary: divided by
    q_min^{1/L}, as the certificate's epsilon measures it."""
    return theta / cert["q_min"] ** (1.0 / model.order_L)


def _scaled(model, theta, rows, spec=EXP):
    """The certificate's rescaling of theta on the inline dataset rows."""
    cert = _cert(model, theta, datasets.from_rows(rows), spec)
    return _theta_scaled(model, theta, cert)


def test_feasible_scaling_identity_at_unit_margin():
    # order 2: the margin (x . w) * v of the one sample is 0.5 * 2 * 1 = 1
    w = np.array([0.3, -1.2, 0.5, 1.0])
    scaled = _scaled(models.deep_linear(3, [1]), w, [[0.0, 0.0, 2.0, 1]])
    np.testing.assert_array_equal(scaled, w)


def test_feasible_scaling_linear():
    w = np.array([2.0, -6.0])
    scaled = _scaled(models.linear(2), w, [[2.0, 0.0, 1]])  # q_min = 4
    np.testing.assert_allclose(scaled, [0.5, -1.5], rtol=1e-15)


def test_feasible_scaling_order_two_lands_on_boundary():
    model = models.relu_mlp(2, [4])
    ds = datasets.two_gaussians(8, 2, separation=3.0, seed=5)
    theta = models.init_params(model, np.random.default_rng(3), scale=0.7)
    state = _state_at(model, ds, EXP, theta, 8.0)
    q_min = float(np.min(state.ev.q))
    # rescale so the worst margin is 9: the scaling divides by 3
    theta9 = state.ev.theta * (9.0 / q_min) ** 0.5
    scaled = _theta_scaled(model, theta9, _cert(model, theta9, ds))
    np.testing.assert_allclose(scaled, theta9 / 3.0, rtol=1e-15)
    q_scaled = effective_margins(model, scaled, ds)
    assert abs(float(np.min(q_scaled)) - 1.0) < 1e-9


@pytest.mark.parametrize("q_min", [0.0, -2.5])
def test_feasible_scaling_rejects_nonseparated(q_min):
    with pytest.raises(NotSeparableError):
        _scaled(models.linear(1), np.ones(1), [[q_min, 1], [5.0, 1]])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
       st.floats(0.2, 5.0))
def test_feasible_scaling_linear_margin_is_one(w, shift):
    # one sample along the first axis keeps q_min analytic: q = w_0 * shift
    if abs(w[0]) < 1e-3:
        return
    model = models.linear(2)
    y = 1 if w[0] > 0 else -1
    ds = datasets.from_rows([[shift, 0.0, y]])
    theta = np.array(w)
    scaled = _theta_scaled(model, theta, _cert(model, theta, ds))
    q_new = float(effective_margins(model, scaled, ds)[0])
    assert math.isclose(q_new, 1.0, rel_tol=1e-12)


# ------------------------------------------------------- certificates

def test_certificate_perfectly_aligned_single_sample():
    # theta along y * x_hat makes the direction exactly stationary
    model = models.linear(2)
    ds = datasets.from_rows([[3.0, 4.0, 1]])
    w = np.array([0.6, 0.8]) * 0.9
    cert = _cert(model, w, ds)
    assert cert["beta"] > 1.0 - 1e-14
    assert cert["epsilon"] <= 1e-10
    assert cert["epsilon_beta"] <= 1e-7
    assert cert["delta"] == 0.0
    assert cert["lambdas"].shape == (1,)
    assert cert["lambdas"][0] > 0.0


def test_certificate_stationarity_residual_matches_multipliers():
    # for a linear model the constraint gradients are y_n x_n and do not
    # move under rescaling, so || theta_scaled - sum lambda_n y_n x_n ||
    # must reproduce epsilon exactly
    model = models.linear(2)
    ds = datasets.from_rows([[2.0, 1.0, 1], [-1.0, 0.5, -1], [1.5, -2.0, 1]])
    state = _state_at(model, ds, LOGISTIC, np.array([0.4, 0.1]), 12.0)
    cert = build_certificate(model, state.ev, ds, LOGISTIC)
    combo = (ds.y[:, None] * ds.X * cert["lambdas"][:, None]).sum(axis=0)
    scaled = _theta_scaled(model, state.ev.theta, cert)
    resid = float(np.linalg.norm(scaled - combo))
    assert math.isclose(resid, cert["epsilon"], rel_tol=1e-10, abs_tol=1e-12)


def test_certificate_epsilon_routes_agree():
    model = models.relu_mlp(2, [4])
    ds = datasets.two_gaussians(8, 2, separation=3.0, seed=5)
    theta0 = models.init_params(model, np.random.default_rng(3), scale=0.7)
    state = _state_at(model, ds, EXP, theta0, 15.0)
    cert = build_certificate(model, state.ev, ds, EXP)
    assert cert["epsilon"] <= cert["epsilon_beta"] * (1.0 + 1e-9) + 1e-12
    assert math.isclose(cert["epsilon"], cert["epsilon_beta"],
                        rel_tol=1e-6, abs_tol=1e-9)
    assert np.all(cert["lambdas"] >= 0.0)
    scaled = _theta_scaled(model, state.ev.theta, cert)
    q_scaled = effective_margins(model, scaled, ds)
    assert float(np.min(q_scaled)) >= 1.0 - 1e-9


def test_certificate_trend_and_bounds_two_point_linear():
    model = models.linear(2)
    ds = datasets.from_rows([[2.0, 1.0, 1], [-1.0, 0.5, -1]])
    states = flow_states(model, np.array([0.3, 0.05]), ds, LOGISTIC,
                         step_tol=3e-3)
    state, _ = next(states)
    targets = [6.0, 12.0, 24.0, 48.0]
    b1 = float(np.max(np.linalg.norm(ds.X, axis=1)))
    anchor = None
    certs = []
    for x_target in targets:
        while state.ev.x < x_target:
            state, _ = next(states)
        if anchor is None:
            anchor = log_tilde_margin(state.ev, LOGISTIC, model.order_L)
        certs.append(build_certificate(
            model, state.ev, ds, LOGISTIC, log_tilde_t0=anchor, b1=b1))
    eps = [c["epsilon"] for c in certs]
    assert all(a > b for a, b in zip(eps, eps[1:]))
    for cert in certs:
        assert cert["eps_bound"] is not None
        assert cert["epsilon"] <= cert["eps_bound"] + 1e-12
        assert LOGISTIC.K == 2.0 and LOGISTIC.b_g == 2.0
        assert cert["log_inv_loss"] >= LOGISTIC.b_g
        assert cert["delta_bound"] is not None
        assert cert["delta"] <= cert["delta_bound"]
    # complementarity residual also shrinks with the loss exponent
    assert certs[-1]["delta"] < certs[0]["delta"]


def test_certificate_median_epsilon_halves():
    model = models.relu_mlp(2, [4])
    ds = datasets.two_gaussians(8, 2, separation=3.0, seed=5)
    theta0 = models.init_params(model, np.random.default_rng(3), scale=0.7)
    eps = []
    for state, _ in flow_states(model, theta0, ds, EXP, step_tol=3e-3):
        if state.ev.x >= 2.0 and state.steps % 20 == 0:
            eps.append(build_certificate(model, state.ev, ds, EXP)["epsilon"])
        if state.ev.x >= 120.0:
            break
    first, last = eps[: len(eps) // 2], eps[len(eps) // 2:]
    assert np.median(last) <= 0.5 * np.median(first)


def test_certificate_early_checkpoint_is_large_but_valid():
    model = models.relu_mlp(2, [4])
    ds = datasets.two_gaussians(8, 2, separation=3.0, seed=5)
    theta0 = models.init_params(model, np.random.default_rng(3), scale=0.7)
    state = next(s for s, _ in flow_states(model, theta0, ds, EXP,
                                           step_tol=1e-3)
                 if float(np.min(s.ev.q)) > 0.0)
    cert = build_certificate(model, state.ev, ds, EXP)
    assert math.isfinite(cert["epsilon"]) and cert["epsilon"] > 0.1
    assert np.all(np.isfinite(cert["lambdas"]))


def test_certificate_rejects_nonseparated_and_multiclass():
    model = models.linear(2)
    ds = datasets.from_rows([[1.0, 0.0, 1], [0.5, 0.0, -1]])
    with pytest.raises(NotSeparableError):
        _cert(model, np.array([1.0, 0.0]), ds)
    multi = datasets.Dataset(np.eye(3), np.array([0, 1, 2]))
    wide = models.linear(3, num_outputs=3)
    theta = models.init_params(wide, np.random.default_rng(0))
    with pytest.raises(NotImplementedError):
        _cert(wide, theta, multi)


def test_certificate_delta_bound_needs_b1_for_logistic():
    model = models.linear(2)
    ds = datasets.from_rows([[2.0, 1.0, 1], [-1.0, 0.5, -1]])
    state = _state_at(model, ds, LOGISTIC, np.array([0.3, 0.05]), 8.0)
    anchor = log_tilde_margin(state.ev, LOGISTIC, model.order_L)
    with pytest.raises(ValueError, match="b1"):
        build_certificate(model, state.ev, ds, LOGISTIC, log_tilde_t0=anchor)


def test_certificate_exp_bounds_without_b1():
    # K = 1 kills the growth factor, so the exp loss needs no sphere sup
    model = models.linear(2)
    ds = datasets.from_rows([[2.0, 1.0, 1], [-1.0, 0.5, -1]])
    state = _state_at(model, ds, EXP, np.array([0.3, 0.05]), 8.0)
    anchor = log_tilde_margin(state.ev, EXP, model.order_L)
    cert = build_certificate(model, state.ev, ds, EXP, log_tilde_t0=anchor)
    assert cert["delta_bound"] is not None
    assert cert["delta"] <= cert["delta_bound"]


# -------------------------------------------------- alignment integral

def test_beta2_integral_bound_along_flow():
    model = models.relu_mlp(2, [4])
    ds = datasets.two_gaussians(8, 2, separation=3.0, seed=5)
    theta0 = models.init_params(model, np.random.default_rng(3), scale=0.7)
    states = flow_states(model, theta0, ds, EXP, step_tol=1e-3)
    state = next(s for s, _ in states if s.ev.x >= 1.0)
    acc = Beta2Accumulator(order_L=model.order_L)
    log_tilde_start = log_tilde_margin(state.ev, EXP, model.order_L)
    while state.ev.x < 40.0:
        prev = state.ev
        state, _ = next(states)
        acc.update(prev.beta, math.log(state.ev.rho) - math.log(prev.rho))
    assert acc.total >= 0.0
    log_tilde_end = log_tilde_margin(state.ev, EXP, model.order_L)
    assert acc.bound_slack(log_tilde_start, log_tilde_end) >= 0.0


# ----------------------------------------------------------- svm oracle

def test_svm_oracle_symmetric_pair():
    w, margin = svm_oracle([[1.0, 0.0], [-1.0, 0.0]], [1, -1])
    np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-12)
    assert math.isclose(margin, 1.0, rel_tol=1e-12)


def test_svm_oracle_ignores_redundant_point():
    w, margin = svm_oracle([[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0]], [1, -1, 1])
    np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-12)
    assert math.isclose(margin, 1.0, rel_tol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.1, 10.0))
def test_svm_oracle_pair_margin_scales(a):
    w, margin = svm_oracle([[a, 0.0], [-a, 0.0]], [1, -1])
    assert math.isclose(margin, a, rel_tol=1e-10)
    np.testing.assert_allclose(w, [1.0 / a, 0.0], atol=1e-12)


def test_svm_oracle_matches_projected_gradient_dual():
    h = np.array([[1.5, 0.2], [2.0, -1.0], [0.9, 0.9],
                  [-1.2, 0.1], [-0.7, -1.5], [-2.0, 1.7]])
    y = np.array([1, 1, 1, -1, -1, -1])
    w_exact, margin_exact = svm_oracle(h, y)
    w_pg, margin_pg = svm_dual_projected_gradient(h, y)
    np.testing.assert_allclose(w_pg, w_exact,
                               atol=1e-6 * np.linalg.norm(w_exact))
    assert math.isclose(margin_pg, margin_exact, rel_tol=1e-6)
    assert float(np.min(y[:, None] * h @ w_exact)) >= 1.0 - 1e-9


def test_svm_oracle_infeasible_xor():
    xor = [[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]]
    with pytest.raises(NotSeparableError):
        svm_oracle(xor, [1, 1, -1, -1])
    with pytest.raises(NotSeparableError):
        svm_dual_projected_gradient([[1.0, 0.0], [-1.0, 0.0]], [1, 1])


def test_svm_oracle_rejects_large_problems():
    h = np.ones((33, 2))
    with pytest.raises(ValueError, match="32"):
        svm_oracle(h, np.ones(33))


# ------------------------------------------------------- direction gap

def test_direction_gap_basic_angles():
    assert direction_gap_to_svm(np.array([2.0, 0.0]), np.array([5.0, 0.0])) == 0.0
    gap = direction_gap_to_svm(np.array([1.0, 0.0]), np.array([0.0, 3.0]))
    assert math.isclose(gap, math.pi / 2.0, rel_tol=1e-12)
    with pytest.raises(ValueError):
        direction_gap_to_svm(np.zeros(2), np.array([1.0, 0.0]))


def test_direction_gap_resolves_tiny_angles():
    # arccos of the cosine reads 0 below about 1.5e-8 rad
    delta = 1e-10
    v = np.array([math.cos(delta), math.sin(delta)])
    gap = direction_gap_to_svm(np.array([1.0, 0.0]), v)
    assert math.isclose(gap, delta, rel_tol=1e-6)


def test_linear_flow_direction_approaches_svm():
    model = models.linear(2)
    ds = datasets.from_rows([[1.5, 0.2, 1], [2.0, -1.0, 1], [0.9, 0.9, 1],
                             [-1.2, 0.1, -1], [-0.7, -1.5, -1],
                             [-2.0, 1.7, -1]])
    state = _state_at(model, ds, LOGISTIC, np.array([0.2, -0.1]), 200.0)
    w_star, _ = svm_oracle(ds.X, ds.y)
    assert direction_gap_to_svm(state.ev.theta, w_star) <= 0.02


def test_deep_linear_effective_predictor_approaches_svm():
    model = models.deep_linear(2, [3, 3])
    ds = datasets.from_rows([[1.5, 0.2, 1], [2.0, -1.0, 1], [0.9, 0.9, 1],
                             [-1.2, 0.1, -1], [-0.7, -1.5, -1],
                             [-2.0, 1.7, -1]])
    theta0 = models.init_params(model, np.random.default_rng(11), scale=0.8)
    state = _state_at(model, ds, LOGISTIC, theta0, 120.0)
    w_eff = np.array([float(model.forward(state.ev.theta, e)[0])
                      for e in np.eye(2)])
    w_star, _ = svm_oracle(ds.X, ds.y)
    assert direction_gap_to_svm(w_eff, w_star) <= 0.05
