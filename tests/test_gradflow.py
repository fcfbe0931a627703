"""Flow integrator, monitors, and Mexican hat simulation.

Oracle notes: a single sample under exponential loss with a linear
model started parallel to the input has the closed form
q(t) = log(e^{q0} + ||x||^2 t) and a frozen direction; the hat's
radial dynamics on the conserved-phase manifold is a separable ODE
cross-checked by quadrature.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import logsumexp

from marginflow import datasets, gradflow, losses, models

from oracles import (eager_point_summaries, fd_grad, hat_step_array,
                     preactivations)


def _relu_logistic_setup():
    spec = losses.get_loss("logistic")
    model = models.build_model("relu_mlp", input_dim=2, widths=[4])
    theta0 = models.init_params(model, np.random.default_rng(3), scale=0.7)
    data = datasets.two_gaussians(n=8, dim=2, separation=3.0, seed=5)
    return spec, model, theta0, data


def _smooth_theta(model, X, seed_start=0):
    """Parameters whose pre-activations clear every kink on X."""
    for seed in range(seed_start, seed_start + 50):
        theta = models.init_params(model, np.random.default_rng(seed))
        worst = min(
            float(np.min(np.abs(p)))
            for x in X for p in preactivations(model, theta, x))
        if worst > 1e-2:
            return theta
    raise AssertionError("no smooth parameter draw found")


def test_evaluate_point_gradient_binary_matches_fd():
    spec, model, _, data = _relu_logistic_setup()
    theta0 = _smooth_theta(model, data.X)
    ev = gradflow.evaluate_point(model, theta0, data, spec)

    def total_loss(th):
        q = np.array([float(model.output(models.ParamVector(th), x))
                      for x in data.X]) * data.y
        return float(np.sum(np.exp(-spec.f(q))))

    grad = fd_grad(total_loss, theta0.data)
    scaled = math.exp(ev.x) * (-grad)
    assert np.linalg.norm(ev.G - scaled) <= 1e-5 * np.linalg.norm(scaled)
    assert abs(np.sum(ev.weights) - 1.0) < 1e-12


def _three_class_setup():
    spec = losses.get_loss("cross_entropy")
    model = models.build_model("relu_mlp", input_dim=3, widths=[5],
                               num_outputs=3)
    rng = np.random.default_rng(7)
    X = rng.normal(size=(6, 3))
    data = datasets.Dataset(X, rng.integers(0, 3, size=6), "synthetic")
    return spec, model, data


def test_evaluate_point_gradient_multiclass_matches_fd():
    spec, model, data = _three_class_setup()
    X = data.X
    theta = _smooth_theta(model, X, seed_start=100)
    ev = gradflow.evaluate_point(model, theta, data, spec)

    def total_loss(th):
        out = np.stack([np.atleast_1d(model.output(models.ParamVector(th), x))
                        for x in X])
        losses_n = []
        for n in range(6):
            s = out[n, data.y[n]] - np.delete(out[n], data.y[n])
            q_t = -float(np.log(np.sum(np.exp(-s))))
            losses_n.append(float(np.exp(-spec.f(q_t))))
        return float(np.sum(losses_n))

    grad = fd_grad(total_loss, theta.data)
    scaled = math.exp(ev.x) * (-grad)
    assert np.linalg.norm(ev.G - scaled) <= 1e-5 * np.linalg.norm(scaled)


def test_point_eval_lazy_summaries_equal_eager_oracle():
    spec, model, _, data = _relu_logistic_setup()
    cases = [(spec, model, data, models.init_params(
        model, np.random.default_rng(s), scale=0.7).data) for s in range(6)]
    cases.append((losses.get_loss("exp"), model, data, cases[0][3]))
    spec3, model3, data3 = _three_class_setup()
    cases += [(spec3, model3, data3, models.init_params(
        model3, np.random.default_rng(s)).data) for s in range(6)]
    cases.append((spec, models.linear(2), data, np.zeros(2)))  # beta = 0
    for spec_, model_, data_, theta in cases:
        ev = gradflow.evaluate_point(model_, theta.copy(), data_, spec_)
        # read in an order the flow never uses: beta pulls rho and g_norm
        got = (ev.beta, ev.V, ev.rho, ev.g_norm)
        want = eager_point_summaries(ev, theta)
        assert got == (want[2], want[0], want[3], want[1])


def test_run_flow_one_log_tilde_per_state(monkeypatch):
    spec, model, theta0, data = _relu_logistic_setup()
    calls = []
    real = gradflow.log_tilde_margin

    def counted(ev, spec_, order_L):
        calls.append(ev.x)
        return real(ev, spec_, order_L)

    monkeypatch.setattr(gradflow, "log_tilde_margin", counted)
    res = gradflow.run_flow(model, theta0, data, spec,
                            target_log_inv_loss=2.0, step_tol=2e-3)
    recs = res["records"]
    sep = [r for r in recs if "log_tilde" in r]
    assert recs[0]["step"] == 0 and "log_tilde" not in recs[0]
    assert 10 < len(sep) < len(recs)
    # record_every = 1: one record and one log tilde per state from
    # separation on, each taken at that state's x
    assert calls == [r["log_inv_loss"] for r in sep]
    lt = [r["log_tilde"] for r in sep]
    mon = res["monitors"]
    assert mon["log_tilde"] == lt[1:]
    assert mon["d_log_tilde"] == [b - a for a, b in zip(lt, lt[1:])]


def test_hat_step_equals_array_oracle():
    for kwargs in ({}, {"order_L": 3.0, "n_samples": 4, "psi0": 0.3,
                        "metric": "spherical", "r_stop": 0.9}):
        recs = gradflow.run_hat(record_every=1, **kwargs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gradflow, "hat_step", hat_step_array)
            want = gradflow.run_hat(record_every=1, **kwargs)
        assert len(recs) > 300 and recs == want
    state = gradflow.HatState(sigma=0.0, t=0.0, r=0.9999, psi=0.0,
                              log_rho=0.0)
    for dsigma in (1e8, 1e-3):  # clamped, and an ordinary step
        assert gradflow.hat_step(state, dsigma) \
            == hat_step_array(state, dsigma)


def test_flow_matches_single_sample_closed_form():
    spec = losses.get_loss("exp")
    model = models.build_model("linear", input_dim=2)
    data = datasets.from_rows([[3.0, 0.0, 1.0]], "oracle")
    res = gradflow.run_flow(model, np.array([0.5, 0.0]), data, spec,
                            target_log_inv_loss=30.0, step_tol=1e-3)
    st = res["state"]
    q_exact = math.log(math.exp(1.5) + 9.0 * st.t)
    assert abs(st.ev.q[0] - q_exact) <= 1e-6 * q_exact
    # gradient never rotates, so the direction is frozen at x / ||x||
    assert np.linalg.norm(st.theta.unit() - np.array([1.0, 0.0])) <= 1e-12
    assert st.ev.beta == pytest.approx(1.0, abs=1e-12)


def test_zero_gradient_is_stationary():
    spec = losses.get_loss("exp")
    model = models.build_model("linear", input_dim=2)
    # one sample each label on the same input: gradients cancel at w.x=0
    data = datasets.from_rows([[1.0, 0.0, 1.0], [1.0, 0.0, -1.0]], "tie")
    state = gradflow.init_flow(model, np.array([0.0, 1.0]), data, spec)
    assert state.ev.g_norm == 0.0
    nxt, info = gradflow.flow_step(model, data, spec, state, dt_scaled=1.0)
    assert nxt is state
    assert info.dt == 0.0


def test_zero_start_emits_no_warning():
    spec = losses.get_loss("exp")
    model = models.linear(2)
    data = datasets.two_gaussians(n=6, seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ev = gradflow.evaluate_point(model, np.zeros(2), data, spec)
        assert ev.rho == 0.0 and ev.beta == 0.0 and ev.g_norm > 0.0
        state = gradflow.init_flow(model, np.zeros(2), data, spec)
        nxt, info = gradflow.flow_step(
            model, data, spec, state, gradflow.propose_dt_scaled(ev, 1e-3),
            step_tol=1e-3)
    assert nxt.steps == 1 and nxt.theta.rho > 0.0
    # the zero vector has no direction, so the step moves theta_hat by 1
    assert info.delta_theta_hat == pytest.approx(1.0, abs=1e-12)


def test_loss_upper_bound_update_is_trapezoid_lse():
    spec = losses.get_loss("logistic")
    bound = gradflow.LossUpperBound(spec, 2.0, 3.0, -1.0, t0=0.0)
    v = np.linspace(3.0, 4.5, 9)
    weights = np.full(9, 1.5 / 8)
    weights[0] = weights[-1] = 1.5 / 16
    ref = logsumexp(bound._log_integrand(v), b=weights)
    assert bound.update(4.5, subdiv=8) == pytest.approx(ref, rel=1e-14)


def test_flow_step_descent_cap_and_halving():
    spec, model, theta0, data = _relu_logistic_setup()
    state = gradflow.init_flow(model, theta0, data, spec)
    tol = 1e-3
    dt = gradflow.propose_dt_scaled(state.ev, tol)
    for _ in range(40):
        x0 = state.ev.x
        state, info = gradflow.flow_step(model, data, spec, state, dt,
                                         step_tol=tol)
        dx = state.ev.x - x0
        assert dx >= -1e-9
        assert abs(dx) <= tol * max(1.0, abs(x0)) * (1.0 + 1e-12)
        assert info.delta_rho_sq == pytest.approx(
            state.theta.rho**2 - state.ev.rho**2 + info.delta_rho_sq, rel=1e-9)
        dt = info.next_dt_scaled
    # a grossly oversized proposal must be halved, not accepted
    big = dt * 1e8
    _, info = gradflow.flow_step(model, data, spec, state, big, step_tol=tol)
    assert info.halvings > 0
    with pytest.raises(gradflow.FlowAbort):
        gradflow.flow_step(model, data, spec, state, big, step_tol=tol,
                           max_halvings=1)


def test_flow_monitors_relu_logistic():
    spec, model, theta0, data = _relu_logistic_setup()
    res = gradflow.run_flow(model, theta0, data, spec,
                            target_log_inv_loss=15.0, step_tol=3e-3)
    mon = res["monitors"]
    assert res["t_sep"] is not None and res["t_sep"] > 0.0
    assert res["state"].ev.x >= 15.0
    assert max(mon["growth_residual"]) <= 5e-3
    assert min(mon["margin_slack"]) >= -1e-9
    assert min(mon["nu_slack"]) >= -1e-12
    assert min(mon["d_log_tilde"]) >= -1e-9
    assert 0.0 < min(mon["beta"]) and max(mon["beta"]) <= 1.0
    assert min(mon["upper_slack"]) >= -1e-6


def test_flow_monitors_linear_exp():
    spec = losses.get_loss("exp")
    model = models.build_model("linear", input_dim=2)
    data = datasets.two_gaussians(n=8, separation=4.0, seed=2)
    res = gradflow.run_flow(model, np.array([0.3, 0.1]), data, spec,
                            target_log_inv_loss=20.0, step_tol=3e-3)
    mon = res["monitors"]
    assert max(mon["growth_residual"]) <= 1e-3
    assert min(mon["margin_slack"]) >= -1e-9
    assert min(mon["nu_slack"]) >= -1e-12
    assert min(mon["upper_slack"]) >= -1e-6
    recs = res["records"]
    qmins = [r["q_min"] for r in recs]
    assert qmins[-1] > qmins[0]


def test_loss_upper_bound_quadrature_refinement():
    spec = losses.get_loss("logistic")
    xs = np.linspace(1.0, 40.0, 300)
    coarse = gradflow.LossUpperBound(spec, 2.0, xs[0], -1.0, t0=0.0)
    fine = gradflow.LossUpperBound(spec, 2.0, xs[0], -1.0, t0=0.0)
    prev = -math.inf
    for x in xs[1:]:
        val = coarse.update(x, subdiv=8)
        fine.update(x, subdiv=80)
        assert val >= prev  # integrand is positive
        prev = val
    # trapezoid error is second order: subdiv 8 sits ~2e-5 from subdiv 80
    assert coarse.log_G == pytest.approx(fine.log_G, abs=5e-5)


def test_hat_envelope_values_and_derivative():
    c, cp, omc = gradflow.hat_envelope(0.5)
    assert c == pytest.approx(0.25 / 0.56640625, rel=1e-15)
    assert c + omc == pytest.approx(1.0, rel=1e-15)
    h = 1e-6
    cph, _, _ = gradflow.hat_envelope(0.5 + h)
    cmh, _, _ = gradflow.hat_envelope(0.5 - h)
    assert cp == pytest.approx((cph - cmh) / (2 * h), rel=1e-8)


def test_hat_phase_identity_and_instability():
    # the conserved phase: dpsi/dsigma is exactly 0.0 at psi = 0
    for r in np.linspace(0.1, 0.99, 23):
        _, dpsi, _ = gradflow._hat_rhs(float(r), 0.0, 2.0, "planar")
        assert dpsi == 0.0
    # off the manifold the phase is restoring at small r but unstable
    # past r ~ 0.62, which is why the integrator carries psi directly
    _, inner, _ = gradflow._hat_rhs(0.5, 0.1, 2.0, "planar")
    _, outer, _ = gradflow._hat_rhs(0.9, 0.1, 2.0, "planar")
    assert inner < 0.0
    assert outer > 0.0


def test_hat_step_moves_outward_keeping_phase():
    state = gradflow.HatState(sigma=0.0, t=0.0, r=0.5, psi=0.0, log_rho=0.0)
    for _ in range(1000):
        state = gradflow.hat_step(state, 5e-3)
    assert state.psi == 0.0
    assert state.r > 0.5
    assert state.log_rho > 0.0
    assert not state.clamped


def test_hat_run_reaches_rim_with_winding():
    recs = gradflow.run_hat()
    last = recs[-1]
    assert last["r"] >= 0.992
    assert max(abs(r["psi"]) for r in recs) == 0.0
    assert last["phi"] - recs[0]["phi"] >= 4.0 * math.pi
    assert not last["clamped"]
    assert last["log10_h"] > 100.0  # the unnormalized margin explodes
    assert recs[0]["t"] == 0.0 and 0.0 < recs[1]["t"] < math.inf
    assert last["t"] == math.inf  # physical time overflows by design


def test_hat_radial_ode_against_quadrature():
    recs = gradflow.run_hat()
    r_end, sigma_end = recs[-1]["r"], recs[-1]["sigma"]

    def rate_inv(r):
        _, _, omc = gradflow.hat_envelope(r)
        return (1.0 - r * r) ** 2 / (2.0 * r * omc)

    expected, err = quad(rate_inv, 0.5, r_end, limit=200)
    assert err < 1e-6 * expected
    assert sigma_end == pytest.approx(expected, rel=1e-5)


def test_hat_spherical_metric_loses_phase():
    recs = gradflow.run_hat(metric="spherical", r_stop=0.9, max_steps=40_000)
    assert max(abs(r["psi"]) for r in recs) > 1e-3


def test_hat_clamp_flag():
    state = gradflow.HatState(sigma=0.0, t=0.0, r=0.9999, psi=0.0,
                              log_rho=0.0)
    stepped = gradflow.hat_step(state, dsigma=1e8)
    assert stepped.clamped
    assert 0.0 < stepped.r < 1.0


def test_hat_rhs_rejects_unknown_metric():
    with pytest.raises(ValueError):
        gradflow._hat_rhs(0.5, 0.0, 2.0, "hyperbolic")
