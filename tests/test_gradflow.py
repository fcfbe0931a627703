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

from marginflow import autodiff, datasets, gradflow, losses, models, runner
from marginflow.margin import score_gaps

from oracles import (StepwiseLossUpperBound, eager_point_summaries, fd_grad,
                     hat_step_array, layer_walk_forward, layer_walk_grad_norms,
                     layers_of, per_sample_grad_norms, preactivations,
                     readme_flow_config, stepwise_nu_lower_slack,
                     two_call_point)


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
        q = np.array([float(model.forward(th, x)[0])
                      for x in data.X]) * data.y
        return float(np.sum(np.exp(-spec.f(q))))

    grad = fd_grad(total_loss, theta0)
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
        out = np.stack([
            np.atleast_1d(model.forward(th, x)[0])
            for x in X])
        losses_n = []
        for n in range(6):
            s = out[n, data.y[n]] - np.delete(out[n], data.y[n])
            q_t = -float(np.log(np.sum(np.exp(-s))))
            losses_n.append(float(np.exp(-spec.f(q_t))))
        return float(np.sum(losses_n))

    grad = fd_grad(total_loss, theta)
    scaled = math.exp(ev.x) * (-grad)
    assert np.linalg.norm(ev.G - scaled) <= 1e-5 * np.linalg.norm(scaled)


def test_multiclass_v_satisfies_euler_identity():
    # each score gap is L-homogeneous, so <theta, G> = L V must hold for
    # the soft-min margin too; a V of sum w f'(q_tilde) q_tilde missed it
    # by a relative 1.3 to 7.7 on this net (the rows of the 3-class
    # corpus entry: classes at 0, 120 and 240 degrees)
    rows = [[2.0, 0.0, 0], [1.8, 0.4, 0], [-1.0, 1.7, 1], [-1.2, 1.5, 1],
            [-1.0, -1.7, 2], [-0.8, -1.9, 2]]
    data = datasets.from_rows(rows)
    model = models.relu_mlp(2, [6], num_outputs=3)
    spec = losses.get_loss("cross_entropy")
    for seed in range(3):
        theta = models.init_params(model, np.random.default_rng(seed),
                                   scale=0.7)
        ev = gradflow.evaluate_point(model, theta, data, spec)
        lhs = float(theta @ ev.G) / model.order_L
        assert abs(lhs - ev.V) <= 1e-12 * abs(lhs), seed


def _shape_bits(a):
    a = np.asarray(a, dtype=np.float64)
    return a.shape, a.view(np.int64).tolist()


def _point_outcome(fn, *args):
    """The bits of every array fn returns, or the exception it raises."""
    try:
        with np.errstate(all="ignore"):
            out = fn(*args)
    except (autodiff.NonFiniteError, losses.LossDomainError) as err:
        return type(err)
    if isinstance(out, gradflow.PointEval):
        out = (out.x, out.q, out.weights, out.fprime, out.G, out.V)
    return [_shape_bits(a) for a in out]


@pytest.mark.parametrize("loss", ["exp", "logistic", "exp_cubed"])
def test_evaluate_point_bits_match_layer_walk_oracle(loss):
    spec = losses.get_loss(loss)
    rng = np.random.default_rng(21)
    base = datasets.two_gaussians(10, 3, separation=3.0, seed=4)
    # a zero row puts every first-layer unit at its kink
    data = datasets.Dataset(np.vstack([base.X, np.zeros(3)]),
                            np.append(base.y, 1))
    cases = [(m, data, spec) for m in (
        models.linear(3), models.deep_linear(3, [4, 3]),
        models.relu_mlp(3, [6]), models.leaky_relu_mlp(3, [5], alpha=0.1),
        models.quadratic_mlp(3, [4]))]
    if loss == "logistic":
        three = datasets.Dataset(data.X, np.arange(11) % 3)
        cases.append((models.relu_mlp(3, [6], num_outputs=3), three,
                      losses.get_loss("cross_entropy")))
    raised = 0
    for model, data_, spec_ in cases:
        # the logistic guard branch (softplus underflow) needs |q| > 745
        for scale in (0.3, 1.0, 30.0, 1e3, 1e60, 1e120, 1e200):
            theta = models.init_params(model, rng, scale=scale)
            got = _point_outcome(gradflow.evaluate_point, model, theta, data_,
                           spec_)
            assert got == _point_outcome(two_call_point, model, theta, data_,
                                   spec_), (model.name, scale)
            raised += got is autodiff.NonFiniteError
        stack = np.stack([models.init_params(model, rng)
                          for _ in range(4)])
        out, cache = autodiff.forward(model.blocks, stack, data_.X)
        ref_out, ref_cache = layer_walk_forward(layers_of(model), stack,
                                                data_.X)
        assert _shape_bits(out) == _shape_bits(ref_out), model.name
        if model.num_outputs == 1:
            assert _shape_bits(per_sample_grad_norms(model, cache)) == \
                _shape_bits(layer_walk_grad_norms(ref_cache)), model.name
    assert raised >= len(cases)


def test_point_eval_lazy_summaries_equal_eager_oracle():
    spec, model, _, data = _relu_logistic_setup()
    cases = [(spec, model, data, models.init_params(
        model, np.random.default_rng(s), scale=0.7)) for s in range(6)]
    cases.append((losses.get_loss("exp"), model, data, cases[0][3]))
    spec3, model3, data3 = _three_class_setup()
    cases += [(spec3, model3, data3, models.init_params(
        model3, np.random.default_rng(s))) for s in range(6)]
    cases.append((spec, models.linear(2), data, np.zeros(2)))  # beta = 0
    for spec_, model_, data_, theta in cases:
        ev = gradflow.evaluate_point(model_, theta.copy(), data_, spec_)
        # read in an order the flow never uses: beta pulls rho and g_norm
        got = (ev.beta, ev.V, ev.rho, ev.g_norm)
        gaps = None if data_.is_binary else score_gaps(
            model_.forward(theta, data_.X)[0],
            *data_.label_masks(model_.num_outputs))
        want = eager_point_summaries(ev, theta, gaps)
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
    assert res["monitors"]["d_log_tilde"] == [b - a for a, b in zip(lt, lt[1:])]


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
    assert np.linalg.norm(st.ev.unit - np.array([1.0, 0.0])) <= 1e-12
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
    assert nxt.steps == 1 and nxt.ev.rho > 0.0
    # the zero vector has no direction, so the step moves theta_hat by 1
    assert info.delta_theta_hat == pytest.approx(1.0, abs=1e-12)


def test_loss_upper_bound_update_is_trapezoid_lse():
    spec = losses.get_loss("logistic")
    bound = gradflow.LossUpperBound(spec, 2.0, 3.0, -1.0, t0=0.0)
    v = np.linspace(3.0, 4.5, 9)
    weights = np.full(9, 1.5 / 8)
    weights[0] = weights[-1] = 1.5 / 16
    ref = logsumexp(bound._log_integrand(v), b=weights)
    [val] = bound.update([4.5])
    assert val == pytest.approx(ref, rel=1e-14)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def test_pairwise_row_sum_matches_np_sum_bits():
    # precondition of the batched bound: its row sums add in np.sum's
    # order for 9 terms, in either memory layout (the bound's grids are
    # column-major, where np.sum(axis=1) adds left to right)
    rng = np.random.default_rng(0)
    rows = rng.random((5000, 9)) * 10.0 ** rng.uniform(-20.0, 5.0, (5000, 9))
    rows[::7, 3] = 0.0
    expect = [np.sum(row) for row in rows]
    for layout in (rows, np.asfortranarray(rows)):
        assert np.array_equal(_bits(gradflow._pairwise_row_sum(layout)),
                              _bits(expect))


def _x_sequence(rng, x0, n):
    """Mostly growing x with repeats, drops below the running max and
    tiny steps, like a flow's accepted states."""
    xs = x0 + np.cumsum(rng.exponential(0.05, n) * rng.choice(
        [1.0, 1.0, 1.0, 0.0, -1.0, 1e-12], n))
    xs[10:13] = xs[9]  # exact repeats
    return xs


@pytest.mark.parametrize("loss", ["exp", "logistic", "exp_cubed"])
@pytest.mark.parametrize("order_L", [1.0, 2.0, 3.0])
def test_batched_loss_upper_bound_bits_match_stepwise(loss, order_L):
    spec = losses.get_loss(loss)
    rng = np.random.default_rng(int(order_L) + 7 * len(loss))
    x0 = spec.f_at_bf + 0.3
    xs = _x_sequence(rng, x0, 600)
    oracle = StepwiseLossUpperBound(spec, order_L, x0, -0.7, t0=0.5)
    expect = [oracle.update(float(x)) for x in xs]
    batched = gradflow.LossUpperBound(spec, order_L, x0, -0.7, t0=0.5)
    # two calls: the state carried over a chunk boundary
    got = np.concatenate([batched.update(xs[:257]), batched.update(xs[257:])])
    assert np.array_equal(_bits(got), _bits(expect))
    assert batched.x_last == oracle.x_last
    assert _bits(batched.log_G) == _bits(oracle.log_G)


@pytest.mark.parametrize("loss", ["exp", "logistic", "exp_cubed"])
def test_bound_monitors_bits_match_stepwise_replay(loss, monkeypatch):
    # several chunks, and t overflowing to inf for the last states
    monkeypatch.setattr(gradflow, "MONITOR_CHUNK", 64)
    spec = losses.get_loss(loss)
    rng = np.random.default_rng(3)
    x0 = spec.f_at_bf + 0.2
    xs = _x_sequence(rng, x0, 300)
    vs = rng.uniform(0.5, 40.0, xs.size)
    ts = 1.0 + np.cumsum(rng.exponential(1.0, xs.size))
    ts[-40:] = math.inf
    bound = gradflow.LossUpperBound(spec, 2.0, x0, -0.4, t0=1.0)
    mon = {"nu_slack": [], "upper_slack": []}
    gradflow._bound_monitors(mon, bound, spec, list(xs), list(vs), list(ts))
    oracle = StepwiseLossUpperBound(spec, 2.0, x0, -0.4, t0=1.0)
    nu, upper = [], []
    for x, v, t in zip(xs.tolist(), vs.tolist(), ts.tolist()):
        nu.append(stepwise_nu_lower_slack(x, v, spec))
        if math.isfinite(t):
            oracle.update(x)
            upper.append(oracle.slack(t))
    assert len(upper) == xs.size - 40
    assert np.array_equal(_bits(mon["nu_slack"]), _bits(nu))
    assert np.array_equal(_bits(mon["upper_slack"]), _bits(upper))


def test_run_flow_bound_monitors_match_stepwise_replay():
    cfg = runner.RunConfig.from_dict(readme_flow_config())
    model, ds, spec, theta0 = runner._setup(cfg, 0)
    res = gradflow.run_flow(model, theta0, ds, spec,
                            target_log_inv_loss=cfg.target_log_inv_loss,
                            step_tol=cfg.step_tol,
                            record_every=cfg.record_every)
    # the monitors as the step loop computed them, state by state
    nu, upper = [], []
    bound = prev = None
    for state, _ in gradflow.flow_states(model, theta0, ds, spec,
                                         step_tol=cfg.step_tol):
        if bound is None and gradflow.is_separated(state.ev, spec):
            lt = gradflow.log_tilde_margin(state.ev, spec, model.order_L)
            bound = StepwiseLossUpperBound(spec, model.order_L, state.ev.x,
                                           lt, state.t)
        elif bound is not None and gradflow.is_separated(prev, spec):
            nu.append(stepwise_nu_lower_slack(state.ev.x, state.ev.V, spec))
            if math.isfinite(state.t):
                bound.update(state.ev.x)
                upper.append(bound.slack(state.t))
        if state.ev.x >= cfg.target_log_inv_loss:
            break
        prev = state.ev
    assert len(upper) > 1000
    assert np.array_equal(_bits(res["monitors"]["nu_slack"]), _bits(nu))
    assert np.array_equal(_bits(res["monitors"]["upper_slack"]), _bits(upper))


def test_flow_step_descent_cap_and_halving():
    spec, model, theta0, data = _relu_logistic_setup()
    state = gradflow.init_flow(model, theta0, data, spec)
    tol = 1e-3
    dt = gradflow.propose_dt_scaled(state.ev, tol)
    for _ in range(40):
        x0, rho0 = state.ev.x, state.ev.rho
        state, info = gradflow.flow_step(model, data, spec, state, dt,
                                         step_tol=tol)
        dx = state.ev.x - x0
        assert dx >= -1e-9
        assert abs(dx) <= tol * max(1.0, abs(x0)) * (1.0 + 1e-12)
        assert info.delta_rho_sq == pytest.approx(
            state.ev.rho**2 - rho0**2, rel=1e-9)
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
    sep = [r for r in res["records"] if "log_tilde" in r]
    assert sep and sep[0]["t"] > 0.0  # separated after the start
    assert res["state"].ev.x >= 15.0
    assert max(mon["growth_residual"]) <= 5e-3
    assert min(mon["margin_slack"]) >= -1e-9
    assert min(mon["nu_slack"]) >= -1e-12
    assert min(mon["d_log_tilde"]) >= -1e-9
    beta = [r["beta"] for r in sep[1:]]
    assert 0.0 < min(beta) and max(beta) <= 1.0
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
    fine = StepwiseLossUpperBound(spec, 2.0, xs[0], -1.0, t0=0.0)
    vals = coarse.update(xs[1:])
    for x in xs[1:]:
        fine.update(x, subdiv=80)
    # the integrand is positive
    assert np.all(np.diff(np.concatenate(([-math.inf], vals))) >= 0.0)
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
