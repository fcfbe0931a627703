"""Margin definitions, log-space loss, and the sandwich bracket.

The hard margins, x = log(1/loss), the loss weights and the smoothed
margin are checked where the package produces them: `evaluate_point`,
`margin._inv_loss_weights` and `gradflow.log_tilde_margin`.
"""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from marginflow import datasets, losses, margin, models
from marginflow.gradflow import Evaluator, evaluate_point, log_tilde_margin

from oracles import (effective_margins, margin_sandwich,
                     negated_inv_loss_weights)

mp.mp.dps = 50


def _x_and_weights(spec, q_eff):
    """(x, w) from the producer evaluate_point uses, on given margins."""
    return margin._inv_loss_weights(spec.f(np.asarray(q_eff, dtype=np.float64)))


def _setup(seed=0, n=8, loss="exp"):
    rng = np.random.default_rng(seed)
    model = models.relu_mlp(3, [6])
    theta = models.init_params(model, rng)
    data = datasets.two_gaussians(n=n, dim=3, seed=seed)
    return model, theta, data, losses.get_loss(loss)


def test_sample_margins_binary_sign():
    model = models.linear(2)
    theta = np.array([1.0, 0.0])
    data = datasets.Dataset(np.array([[2.0, 0.0], [2.0, 0.0]]), np.array([1, -1]))
    spec = losses.get_loss("exp")
    q = evaluate_point(Evaluator(model, data, spec), theta).q
    assert np.allclose(q, [2.0, -2.0])


def test_sample_margins_multiclass_gap():
    phi = np.array([[5.0, 1.0, 3.0]])
    data = datasets.Dataset(np.array([[1.0]]), np.array([0]))
    gaps = margin.score_gaps(phi, *margin.label_masks(data.y, 3))
    assert np.allclose(gaps, [[4.0, 2.0]])
    assert np.allclose(np.min(gaps, axis=1), [2.0])
    # the same scores from a one-input linear model: q is the worst gap
    model = models.linear(1, num_outputs=3)
    spec = losses.get_loss("cross_entropy")
    ev = evaluate_point(Evaluator(model, data, spec), phi[0])
    assert np.allclose(ev.q, [2.0])


def test_soft_margin_below_hard_margin():
    rng = np.random.default_rng(3)
    model = models.relu_mlp(4, [8], num_outputs=3)
    theta = models.init_params(model, rng)
    data = datasets.Dataset(rng.standard_normal((12, 4)),
                            rng.integers(0, 3, 12))
    phi, _ = model.forward(theta, data.X)
    gaps = margin.score_gaps(phi, *margin.label_masks(data.y, 3))
    q = np.min(gaps, axis=1)
    q_tilde = margin.soft_margins(gaps)
    assert np.all(q_tilde <= q + 1e-12)
    assert np.all(gaps >= q[:, None] - 1e-12)


def test_soft_margins_match_scipy_logsumexp():
    rng = np.random.default_rng(7)
    # widely spread gaps, from near-ties to differences of hundreds
    gaps = 5.0 + rng.standard_normal((40, 4)) * np.array([0.01, 1.0, 30.0,
                                                          300.0])
    got = margin.soft_margins(gaps)
    np.testing.assert_allclose(got, -logsumexp(-gaps, axis=1), rtol=1e-14)


@pytest.mark.parametrize("num_outputs", [1, 3])
def test_log_inv_loss_is_evaluate_point_x(num_outputs):
    # x from the margins of a separate forward and evaluate_point's x go
    # through the same producer, so they agree to the last bit, binary
    # and multi-class alike
    rng = np.random.default_rng(2)
    model = models.relu_mlp(3, [5], num_outputs=num_outputs)
    theta = models.init_params(model, rng)
    X = rng.standard_normal((12, 3))
    y = (np.where(X[:, 0] > 0.0, 1, -1) if num_outputs == 1
         else rng.integers(0, 3, 12))
    data = datasets.Dataset(X, y)
    spec = losses.get_loss("logistic")
    x, _ = _x_and_weights(spec, effective_margins(model, theta, data))
    assert x == evaluate_point(Evaluator(model, data, spec), theta).x


def test_log_inv_loss_single_and_symmetric():
    spec = losses.make_exponential()
    assert abs(_x_and_weights(spec, [5.0])[0] - 5.0) < 1e-12
    qs = np.full(7, 3.0)
    assert abs(_x_and_weights(spec, qs)[0] - (3.0 - np.log(7))) < 1e-12


def test_log_inv_loss_matches_compensated_oracle():
    spec = losses.make_logistic()
    qs = np.array([2.0, 3.0])
    ref = -mp.log(mp.fsum(mp.log(1 + mp.e**(-mp.mpf(q))) for q in qs))
    got, _ = _x_and_weights(spec, qs)
    assert abs(got - float(ref)) < 1e-12


def test_inv_loss_weights_bits_match_negated_form():
    # the log-sum-exp about min fq gives the bits of the one about the max
    # of -fq, the sign of a zero x included: fq = [log 2, log 2] puts
    # log sum w exactly at m, where m - log sum w would give +0.0
    rng = np.random.default_rng(23)
    cases = [np.zeros(1), np.array([-0.0]), np.array([0.0, -0.0]),
             np.full(2, np.log(2.0)), np.array([np.inf, 1.0]),
             np.array([-np.inf, 1.0]), np.array([1e308, -1e308])]
    cases += [scale * rng.standard_normal(n) for n in (1, 3, 12, 192)
              for scale in (1e-3, 1.0, 40.0, 1e5)]
    for fq in cases:
        with np.errstate(all="ignore"):
            got, want = margin._inv_loss_weights(fq), \
                negated_inv_loss_weights(fq)
        assert np.array_equal(np.asarray(got[0]).view(np.int64),
                              np.asarray(want[0]).view(np.int64)), fq
        assert np.array_equal(got[1].view(np.int64), want[1].view(np.int64))
    assert str(margin._inv_loss_weights(np.full(2, np.log(2.0)))[0]) == "-0.0"


def test_loss_weights_sum_to_one_even_deep():
    spec = losses.get_loss("exp")
    model = models.linear(1)
    data = datasets.Dataset(np.array([[4000.0], [4001.0], [4002.0]]),
                            np.array([1, 1, 1]))
    # margins 2000, 2000.5 and 2001: loss ~ e^{-2000}
    ev = evaluate_point(Evaluator(model, data, spec), np.array([0.5]))
    x, w = ev.x, ev.weights
    assert np.isfinite(x) and x > 1999.0
    assert abs(w.sum() - 1.0) < 1e-12
    assert np.all(w > 0.0)


def test_smoothed_margin_exp_single_sample_equals_bar():
    model, theta, _, spec = _setup()
    data = datasets.Dataset(np.array([[1.0, 0.5, -0.2]]), np.array([1]))
    ev = evaluate_point(Evaluator(model, data, spec), theta)
    if ev.q[0] <= 0:
        theta = -theta
        ev = evaluate_point(Evaluator(model, data, spec), theta)
    tilde = np.exp(log_tilde_margin([ev.x], [ev.rho], spec, model.order_L)[0])
    bar = ev.q[0] / ev.rho**model.order_L
    assert abs(tilde - bar) < 1e-12 * max(1.0, abs(bar))


def test_smoothed_margin_logistic_closed_form():
    # loss 0.1, rho 2, L 2: gamma_tilde = -log(e^{0.1} - 1)/4
    spec = losses.make_logistic()
    [log_tilde] = log_tilde_margin([-np.log(0.1)], [2.0], spec, 2.0)
    expected = -np.log(np.expm1(0.1)) / 4.0
    assert abs(np.exp(log_tilde) - expected) < 1e-12


def test_smoothed_margin_domain_error_before_separation():
    spec = losses.make_logistic()
    with pytest.raises(losses.LossDomainError):
        log_tilde_margin([0.1], [np.sqrt(3.0)], spec, 2.0)


def test_sandwich_exp_form_and_single_sample():
    spec = losses.make_exponential()
    low, high = margin_sandwich(spec, 9.0, 8.0, 2.0, 2.0, 10)
    assert abs(high - 9.0 / 4.0) < 1e-12
    assert abs(low - (9.0 - np.log(10.0)) / 4.0) < 1e-12
    low1, high1 = margin_sandwich(spec, 9.0, 9.0, 2.0, 2.0, 1)
    assert low1 == high1


def test_sandwich_logistic_deep_bracket_width():
    spec = losses.make_logistic()
    q_min, n, rho, L = 50.0, 10, 2.0, 2.0
    x = float(spec.f(q_min)) - 0.5 * np.log(n)
    low, high = margin_sandwich(spec, q_min, x, rho, L, n)
    assert high - low <= 1.01 * np.log(n) / rho**L


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), loss=st.sampled_from(["exp", "logistic"]))
def test_sandwich_brackets_tilde_property(seed, loss):
    rng = np.random.default_rng(seed)
    model = models.linear(2)
    data = datasets.two_gaussians(n=6, dim=2, seed=seed)
    spec = losses.get_loss(loss)
    # point the weights at the positive-class mean, scaled to separate
    direction = (data.X * data.y[:, None]).mean(axis=0)
    theta = 6.0 * direction / np.linalg.norm(direction)
    ev = evaluate_point(Evaluator(model, data, spec), theta)
    if ev.x <= spec.f_at_bf + 0.05:
        return  # summed loss not yet below ell(b_f); property is vacuous
    # the sandwich lemma speaks about the margins inside the loss
    low, bar = margin_sandwich(spec, float(np.min(ev.q_eff)), ev.x, ev.rho,
                               model.order_L, data.n)
    assert bar == float(np.min(ev.q)) / ev.rho**model.order_L
    tilde = np.exp(log_tilde_margin([ev.x], [ev.rho], spec, model.order_L)[0])
    assert low <= tilde + 1e-12
    assert tilde <= bar + 1e-12
