"""Flow integrator, monitors, and Mexican hat simulation.

Oracle notes: a single sample under exponential loss with a linear
model started parallel to the input has the closed form
q(t) = log(e^{q0} + ||x||^2 t) and a frozen direction; the hat's
radial dynamics on the conserved-phase manifold is a separable ODE
cross-checked by quadrature. On separable data the linear flow tends to
w_hat log t + w_tilde, both taken from the SVM duals.
"""

import gc
import itertools
import math
import warnings
import weakref

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import logsumexp

from marginflow import (autodiff, datasets, gdtrain, gradflow, kkt, losses,
                        models, runner)
from marginflow.margin import label_masks, score_gaps

from oracles import (StepwiseFlowMonitors, StepwiseLossUpperBound,
                     eager_point_summaries, fd_grad, hat_step_array,
                     late_phase_asymptote, layer_walk_forward,
                     layer_walk_grad_norms, layers_of,
                     per_sample_grad_norms, preactivations,
                     readme_flow_config, record_fields,
                     reference_flow_states, rk4_flow_step,
                     stepwise_margin_fields, stepwise_run_flow,
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
    ev = gradflow.evaluate_point(gradflow.Evaluator(model, data, spec), theta0)

    def total_loss(th):
        q = np.array([float(model.forward(th, data.X[n:n + 1])[0][0, 0])
                      for n in range(data.n)]) * data.y
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
    data = datasets.Dataset(X, rng.integers(0, 3, size=6))
    return spec, model, data


def test_evaluate_point_gradient_multiclass_matches_fd():
    spec, model, data = _three_class_setup()
    X = data.X
    theta = _smooth_theta(model, X, seed_start=100)
    ev = gradflow.evaluate_point(gradflow.Evaluator(model, data, spec), theta)

    def total_loss(th):
        out = np.concatenate([model.forward(th, X[n:n + 1])[0]
                              for n in range(6)])
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
        ev = gradflow.evaluate_point(gradflow.Evaluator(model, data, spec),
                                     theta)
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


def _stage_point(evaluator, theta):
    """(x, G + 0.0) of the bound evaluator's RK stage at theta + 0.0 theta,
    formed in its buffer: theta itself, the sign of each zero included.
    The stage's G is the evaluator's gradient buffer, which may hold
    -0.0; + 0.0 is the copy that `evaluate_point` takes."""
    x, G = evaluator.stage(theta, 0.0, theta)
    assert G is evaluator.layers[0][5].base
    return x, G + 0.0


def _start(model, theta0, data, spec):
    """A bound evaluator and the flow's start state at theta0, as
    `flow_states` forms them."""
    evaluator = gradflow.Evaluator(model, data, spec)
    theta0 = np.asarray(theta0, dtype=np.float64)
    return evaluator, gradflow.FlowState(
        0.0, gradflow.evaluate_point(evaluator, theta0))


@pytest.mark.parametrize("loss", ["exp", "logistic", "exp_cubed"])
def test_evaluate_point_bits_match_layer_walk_oracle(loss):
    spec = losses.get_loss(loss)
    spec3 = losses.get_loss("cross_entropy") if loss == "logistic" else spec
    rng = np.random.default_rng(21)
    base = datasets.two_gaussians(10, 3, separation=3.0, seed=4)
    # a zero row puts every first-layer unit at its kink
    X = np.vstack([base.X, np.zeros(3)])
    labels = [(np.append(base.y, 1), 1, spec), (np.arange(11) % 3, 3, spec3)]
    cases = [(build(c), datasets.Dataset(X, y), spec_)
             for y, c, spec_ in labels
             for build in (lambda c: models.linear(3, c),
                           lambda c: models.deep_linear(3, [4, 3], c),
                           lambda c: models.relu_mlp(3, [6], c),
                           lambda c: models.leaky_relu_mlp(3, [5], 0.1, c),
                           lambda c: models.quadratic_mlp(3, [4], c))]
    raised = 0
    for model, data_, spec_ in cases:
        evaluator = gradflow.Evaluator(model, data_, spec_)
        # the logistic guard branch (softplus underflow) needs |q| > 745
        for scale in (0.3, 1.0, 30.0, 1e3, 1e60, 1e120, 1e200):
            theta = models.init_params(model, rng, scale=scale)
            got = _point_outcome(gradflow.evaluate_point, evaluator, theta)
            want = _point_outcome(two_call_point, model, theta, data_, spec_)
            assert got == want, (model.name, scale)
            stage = _point_outcome(_stage_point, evaluator, theta)
            assert stage == (want if want is got else [want[0], want[4]])
            raised += got is autodiff.NonFiniteError
        stack = np.stack([models.init_params(model, rng)
                          for _ in range(4)])
        out, cache = model.forward(stack, data_.X)
        ref_out, ref_cache = layer_walk_forward(layers_of(model), stack,
                                                data_.X)
        # the oracle squeezes a single output's class axis
        assert _shape_bits(out.reshape(ref_out.shape)) == \
            _shape_bits(ref_out), model.name
        if model.num_outputs == 1:
            assert _shape_bits(per_sample_grad_norms(model, cache)) == \
                _shape_bits(layer_walk_grad_norms(ref_cache)), model.name
    assert raised >= len(cases)


def test_kept_evaluations_do_not_move_after_later_steps(monkeypatch):
    # RK stage points are formed in the bound evaluator's scratch buffer,
    # so every state a consumer keeps must own its theta, G and x
    spec, model, theta0, data = _relu_logistic_setup()
    kept = []

    def keep(ev):
        kept.append((ev, ev.x, _shape_bits(ev.theta), _shape_bits(ev.G)))
        return ev

    for state, _ in itertools.islice(gradflow.flow_states(
            model, theta0, data, spec, step_tol=2e-3), 41):
        keep(state.ev)
    real = gdtrain.evaluate_point
    monkeypatch.setattr(gdtrain, "evaluate_point",
                        lambda *args: keep(real(*args)))
    out = gdtrain.train_gd(model, theta0, data, spec, None, epochs=30,
                           alpha0=0.1, mode="loss_based", s5_guard=False,
                           guard_safety=0.5)
    assert len(kept) > 41 + 30 and any(ev is out["ev"] for ev, *_ in kept)
    for ev, *bits in kept:
        assert [ev.x, _shape_bits(ev.theta), _shape_bits(ev.G)] == bits


def _nonfinite_points():
    """(id, model, theta, data, spec, message) for each NonFiniteError
    of evaluate_point, binary and 3-class: an output that overflows, a
    seed past float range (f' = 3q^2 of exp_cubed, or its inf - inf
    weights) from a finite output, and a gradient that overflows from a
    finite seed (huge last-layer weights times large inputs)."""
    xb = np.array([[1.0, 2.0], [2.0, 1.0], [-1.0, -2.0], [-2.0, -1.0]])
    x3 = np.array([[2.0, 0.1], [1.8, 0.4], [-1.0, 1.7], [-1.2, 1.5],
                   [-1.0, -1.7], [-0.8, -1.9]])
    binary = datasets.Dataset(xb, [1, 1, -1, -1])
    three = datasets.Dataset(x3, [0, 0, 1, 1, 2, 2])
    relu, relu3 = models.relu_mlp(2, [3]), models.relu_mlp(2, [3], 3)
    lin, lin3 = models.deep_linear(2, [3]), models.deep_linear(2, [3], 3)
    exp, cubed, ce = (losses.get_loss(n)
                      for n in ("exp", "exp_cubed", "cross_entropy"))
    forward = "forward pass produced non-finite output"
    seed = "backward pass got a non-finite seed"
    grad = "backward pass produced non-finite gradient"
    # phi = 0 at these weights, but the first layer's adjoint is ~1e300
    tiny = np.full(6, 1e-300)
    w2 = 1e300 * np.array([1.0, -1.0, 0.0])
    w23 = 1e300 * np.array([[1.0, 0.0, -1.0], [-1.0, 0.0, 1.0], [0, 0, 0]])
    return [
        ("forward", relu, np.full(9, 1e200), binary, exp, forward),
        ("forward_3class", relu3, 1e200 * np.r_[np.ones(6), [1, 2, 3] * 3],
         three, ce, forward),
        ("seed", relu, np.full(9, 1e80), binary, cubed, seed),
        ("seed_3class", relu3, 1e80 * models.init_params(
            relu3, np.random.default_rng(0)), three, cubed, seed),
        ("gradient", lin, np.r_[tiny, w2],
         datasets.Dataset(1e9 * xb, binary.y), exp, grad),
        ("gradient_3class", lin3, np.r_[tiny, w23.ravel()],
         datasets.Dataset(1e9 * x3, three.y), ce, grad),
    ]


@pytest.mark.parametrize("case", _nonfinite_points(), ids=lambda c: c[0])
def test_nonfinite_evaluation_raises_and_is_a_rejected_trial(case,
                                                             monkeypatch):
    _, model, theta, data, spec, message = case
    bad = gradflow.Evaluator(model, data, spec)
    with np.errstate(all="ignore"):
        with pytest.raises(autodiff.NonFiniteError, match=message):
            gradflow.evaluate_point(bad, theta)
    # the same error from the first RK4 stage of a step: one halving
    real = gradflow.Evaluator.stage
    calls = []

    def first_stage_fails(self, *args):
        calls.append(None)
        if len(calls) == 1:
            with np.errstate(all="ignore"):
                return gradflow.evaluate_point(bad, theta)
        return real(self, *args)

    spec_, model_, theta0, data_ = _relu_logistic_setup()
    evaluator, state = _start(model_, theta0, data_, spec_)
    dt = gradflow.propose_dt_scaled(state.ev, 2e-3)
    monkeypatch.setattr(gradflow.Evaluator, "stage", first_stage_fails)
    _, info = gradflow.flow_step(evaluator, state, dt, step_tol=2e-3)
    assert info.halvings == 1 and info.dt_scaled == dt / 2
    assert len(calls) == 1 + 3  # the failed stage, then one trial's stages


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
        ev = gradflow.evaluate_point(gradflow.Evaluator(model_, data_, spec_),
                                     theta.copy())
        # read in an order the flow never uses: beta pulls rho and g_norm
        got = (ev.beta, ev.V, ev.rho, ev.g_norm)
        gaps = None if data_.is_binary else score_gaps(
            model_.forward(theta, data_.X)[0],
            *label_masks(data_.y, model_.num_outputs))
        want = eager_point_summaries(ev, theta, gaps)
        assert got == (want[2], want[0], want[3], want[1])


def test_run_flow_one_log_tilde_per_state(monkeypatch):
    spec, model, theta0, data = _relu_logistic_setup()
    calls = []
    real = gradflow.log_tilde_margin

    def counted(xs, rhos, spec_, order_L):
        calls.append(list(xs))
        return real(xs, rhos, spec_, order_L)

    monkeypatch.setattr(gradflow, "log_tilde_margin", counted)
    monkeypatch.setattr(gradflow, "MONITOR_CHUNK", 16)
    res = gradflow.run_flow(model, theta0, data, spec, targets=[2.0],
                            step_tol=2e-3, record_every=1)
    recs = res["records"]
    sep = [r for r in recs if "log_tilde" in r]
    assert recs[0]["step"] == 0 and "log_tilde" not in recs[0]
    assert 32 < len(sep) < len(recs)
    # record_every = 1: one record per state. The loop takes the anchor,
    # one call at the first separated state, whose log tilde is finite;
    # after it, one batched call per MONITOR_CHUNK separated records for
    # their fields, and `bound_monitors` one per MONITOR_CHUNK states
    # from separation on: each takes a state's x once
    xs = [r["log_inv_loss"] for r in sep]
    chunks = [xs[i:i + 16] for i in range(0, len(xs), 16)]
    assert calls == [xs[:1]] + chunks
    assert res["log_tilde0"] == sep[0]["log_tilde"]
    mon = gradflow.bound_monitors(spec, model.order_L, res["cols"])
    assert calls == [xs[:1]] + chunks + chunks
    lt = [r["log_tilde"] for r in sep]
    assert mon["d_log_tilde"] == [b - a for a, b in zip(lt, lt[1:])]


def _planar_hat_step(state, dsigma):
    """hat_step from the state's own planar slope, as run_hat steps."""
    k1 = gradflow._hat_rhs(state.r, state.psi, "planar")
    return gradflow.hat_step(state, dsigma, "planar", k1)


def test_hat_step_equals_array_oracle(monkeypatch):
    for metric in ("planar", "spherical"):
        if metric == "spherical":  # off the manifold, to a nearer rim
            monkeypatch.setattr(gradflow, "HAT_PSI0", 0.3)
            monkeypatch.setattr(gradflow, "HAT_R_STOP", 0.9)
        recs = gradflow.run_hat(record_every=1, metric=metric)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gradflow, "hat_step", hat_step_array)
            want = gradflow.run_hat(record_every=1, metric=metric)
        assert len(recs) > 300 and recs == want
    state = gradflow.HatState(sigma=0.0, t=0.0, r=0.9999, psi=0.0,
                              log_rho=0.0)
    for dsigma in (1e8, 1e-3):  # clamped, and an ordinary step
        assert _planar_hat_step(state, dsigma) \
            == hat_step_array(state, dsigma, "planar", None)


def test_flow_matches_single_sample_closed_form():
    spec = losses.get_loss("exp")
    model = models.build_model("linear", input_dim=2)
    data = datasets.from_rows([[3.0, 0.0, 1.0]])
    res = gradflow.run_flow(model, np.array([0.5, 0.0]), data, spec,
                            targets=[30.0], step_tol=1e-3, record_every=1)
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
    data = datasets.from_rows([[1.0, 0.0, 1.0], [1.0, 0.0, -1.0]])
    evaluator, state = _start(model, np.array([0.0, 1.0]), data, spec)
    assert state.ev.g_norm == 0.0
    nxt, info = gradflow.flow_step(evaluator, state, dt_scaled=1.0,
                                   step_tol=1e-4)
    assert nxt is state
    assert info.dt_scaled == 0.0


def test_zero_start_emits_no_warning():
    spec = losses.get_loss("exp")
    model = models.linear(2)
    data = datasets.two_gaussians(n=6, seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evaluator, state = _start(model, np.zeros(2), data, spec)
        ev = gradflow.evaluate_point(evaluator, np.zeros(2))
        assert ev.rho == 0.0 and ev.beta == 0.0 and ev.g_norm > 0.0
        nxt, info = gradflow.flow_step(
            evaluator, state, gradflow.propose_dt_scaled(ev, 1e-3),
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
    # several chunks; a state at the separation threshold, whose successor
    # is not watched; zero moves of theta_hat and of rho; t overflowing to
    # inf for the last states
    monkeypatch.setattr(gradflow, "MONITOR_CHUNK", 64)
    spec = losses.get_loss(loss)
    rng = np.random.default_rng(3)
    xs = _x_sequence(rng, spec.f_at_bf + 0.2, 300)
    xs[100] = spec.f_at_bf
    rhos = 1.0 + np.cumsum(rng.exponential(0.01, xs.size))
    rhos[200] = rhos[199]
    ts = 1.0 + np.cumsum(rng.exponential(1.0, xs.size))
    ts[-40:] = math.inf
    vs = rng.uniform(0.5, 40.0, xs.size)
    d_hats = rng.exponential(1e-3, xs.size)
    d_hats[[5, 6]] = 0.0
    # delta rho^2 and dt_scaled of the step into each state
    drho_sq = 2.0 * vs * rng.uniform(0.9, 1.1, xs.size)
    dt_scaled = rng.uniform(0.5, 2.0, xs.size)
    cols = list(zip(*(a.tolist() for a in (xs, rhos, ts, vs, d_hats,
                                            drho_sq / dt_scaled))))
    mon = gradflow.bound_monitors(spec, 2.0, cols)
    oracle = StepwiseFlowMonitors(spec, 2.0)
    for state in zip(*(a.tolist() for a in (xs, rhos, ts, vs, d_hats,
                                            drho_sq, dt_scaled))):
        oracle.push(*state)
    assert len(oracle.monitors["upper_slack"]) == xs.size - 42
    assert len(oracle.monitors["growth_residual"]) == xs.size - 2
    assert list(mon) == list(oracle.monitors)
    for key, series in oracle.monitors.items():
        assert np.array_equal(_bits(mon[key]), _bits(series)), key


@pytest.mark.parametrize("loss", ["exp", "logistic", "exp_cubed"])
def test_margin_fields_bits_match_stepwise(loss, monkeypatch):
    # several chunks of records; a record at the separation threshold and
    # records below it get none; a flagged record holds no rho and gets
    # none; rho^L overflowing a float
    monkeypatch.setattr(gradflow, "MONITOR_CHUNK", 64)
    spec = losses.get_loss(loss)
    rng = np.random.default_rng(5)
    xs = _x_sequence(rng, spec.f_at_bf + 0.2, 300)
    xs[:5] = spec.f_at_bf - rng.uniform(0.0, 1.0, 5)
    xs[100] = spec.f_at_bf
    rhos = 1.0 + np.cumsum(rng.exponential(0.01, xs.size))
    rhos[-3:] = 1e160
    records = [{"log_inv_loss": x, "rho": rho, "q_min": 0.1 * k}
               for k, (x, rho) in enumerate(zip(xs.tolist(), rhos.tolist()))]
    records.insert(150, {"flagged": True, "log_inv_loss": xs[149] + 1.0})
    want = [dict(r) for r in records]
    for rec in want:
        if not rec.get("flagged"):
            stepwise_margin_fields(rec, spec, 2.0)
    gradflow.margin_fields(records, spec, 2.0)
    assert record_fields(records) == record_fields(want)
    assert sum("bar_gamma" in r for r in records) == xs.size - 6
    assert records[-1]["bar_gamma"] > 0.0  # q_min / rho^L in log space


def _assert_flow_matches_stepwise(res, want, spec, order_L):
    assert record_fields(res["records"]) == record_fields(want["records"])
    mon = gradflow.bound_monitors(spec, order_L, res["cols"])
    assert list(mon) == list(want["monitors"])
    for key, series in want["monitors"].items():
        assert np.array_equal(_bits(mon[key]), _bits(series)), key
    assert _bits(res["log_tilde0"]) == _bits(want["log_tilde0"])


def test_run_flow_bound_monitors_match_stepwise_replay():
    cfg = runner.RunConfig.from_dict(readme_flow_config())
    model, ds, spec = cfg.model, cfg.dataset, cfg.loss
    theta0 = runner._theta0(cfg, 0)
    kw = {"targets": [cfg.options["target_log_inv_loss"]],
          **{k: cfg.options[k] for k in ("step_tol", "record_every")}}
    res = gradflow.run_flow(model, theta0, ds, spec, **kw)
    # every monitor and margin field as the step loop took them
    want = stepwise_run_flow(model, theta0, ds, spec, **kw)
    assert len(want["monitors"]["upper_slack"]) > 1000
    _assert_flow_matches_stepwise(res, want, spec, model.order_L)


@pytest.mark.parametrize("loss", ["exp", "logistic"])
def test_run_flow_margin_monitors_match_stepwise_replay(loss, monkeypatch):
    # records every third state and passes of 16 states, on a run that
    # separates after its start
    monkeypatch.setattr(gradflow, "MONITOR_CHUNK", 16)
    _, model, theta0, data = _relu_logistic_setup()
    spec = losses.get_loss(loss)
    kw = dict(targets=[3.0], step_tol=2e-3, record_every=3)
    res = gradflow.run_flow(model, theta0, data, spec, **kw)
    want = stepwise_run_flow(model, theta0, data, spec, **kw)
    recs = res["records"]
    assert "log_tilde" not in recs[0] and "log_tilde" in recs[-1]
    assert len(want["monitors"]["margin_slack"]) > 64
    assert recs[-1]["step"] % 3  # the final state, off the record grid
    _assert_flow_matches_stepwise(res, want, spec, model.order_L)


def test_flow_step_descent_cap_and_halving(monkeypatch):
    spec, model, theta0, data = _relu_logistic_setup()
    evaluator, state = _start(model, theta0, data, spec)
    tol = 1e-3
    dt = gradflow.propose_dt_scaled(state.ev, tol)
    for _ in range(40):
        x0, rho0 = state.ev.x, state.ev.rho
        state, info = gradflow.flow_step(evaluator, state, dt, step_tol=tol)
        dx = state.ev.x - x0
        assert dx >= -1e-9
        assert abs(dx) <= tol * max(1.0, abs(x0)) * (1.0 + 1e-12)
        assert info.delta_rho_sq == pytest.approx(
            state.ev.rho**2 - rho0**2, rel=1e-9)
        dt = info.next_dt_scaled
    # a grossly oversized proposal must be halved, not accepted
    big = dt * 1e8
    _, info = gradflow.flow_step(evaluator, state, big, step_tol=tol)
    assert info.halvings > 0
    monkeypatch.setattr(gradflow, "MAX_HALVINGS", 1)
    with pytest.raises(gradflow.FlowAbort):
        gradflow.flow_step(evaluator, state, big, step_tol=tol)


def test_overflowing_trials_emit_no_warning():
    # from this init, RK trials overflow in the forward pass: each is
    # rejected and halved, and prints nothing, up to the run's end (here
    # exact stationarity, at step 780)
    spec = losses.get_loss("exp_cubed")
    model = models.relu_mlp(2, [4])
    data = datasets.two_gaussians(8, 2, separation=3.0, seed=5)
    theta0 = models.init_params(model, np.random.default_rng(0), scale=0.7)
    halvings = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for state, info in gradflow.flow_states(model, theta0, data, spec,
                                                step_tol=3e-3):
            halvings += 0 if info is None else info.halvings
            if state.ev.x >= 12.0:
                break
    assert halvings > 0


def test_runs_leave_numpy_error_state_as_they_found_it(monkeypatch):
    # evaluations hold numpy's overflow warning off in with-blocks and
    # decorators, one per flow step or per run, none across a yield; each
    # driver below leaves np.geterr() as it was, under the suite's
    # error::RuntimeWarning
    before = np.geterr()
    spec, model, theta0, data = _relu_logistic_setup()
    for _ in itertools.islice(gradflow.flow_states(
            model, theta0, data, spec, step_tol=2e-3), 50):
        assert np.geterr() == before  # as seen between the steps
    # run_flow abandons its flow_states generator at the target
    out = gradflow.run_flow(model, theta0, data, spec, targets=[3.0],
                            step_tol=2e-3, record_every=10)
    gc.collect()
    assert out["abort"] is None and np.geterr() == before
    # a FlowAbort raised out of a step's trials
    out = gradflow.run_flow(model, np.full(model.param_count, 1e-140), data,
                            spec, targets=[3.0], step_tol=2e-3,
                            record_every=10)
    assert out["abort"].startswith("flow aborted: step rejected 60 times")
    assert np.geterr() == before
    # unguarded exp descent on the README net: overflowing trials are
    # rejected, and rho passes 1e154 while theta @ theta overflows
    cfg = runner.RunConfig.from_dict({
        "scenario": "gd_margin", "loss": "exp", "alpha0": 0.1,
        "epochs": 3000, "seed": 0, "options": {"s5_guard": False}})
    rejected = []
    real = gdtrain.evaluate_point

    def counted(*args):
        try:
            return real(*args)
        except autodiff.NonFiniteError:
            rejected.append(args)
            raise

    monkeypatch.setattr(gdtrain, "evaluate_point", counted)
    theta0 = runner._theta0(cfg, 0)
    out = gdtrain.train_gd(cfg.model, theta0, cfg.dataset, cfg.loss, None,
                           epochs=3000, alpha0=0.1, mode="loss_based",
                           s5_guard=False, guard_safety=0.5)
    assert rejected and 1e154 < out["ev"].rho < math.inf
    assert np.geterr() == before
    frame = runner.frame_equivalence_check(cfg.model, cfg.dataset, cfg.loss,
                                           theta0, out["records"])
    assert frame["epochs"] > 0 and np.geterr() == before


def _step_bits(state, info):
    """Bits of theta, x and t of a state and of the float fields of its
    step record, and the record's halvings; a start state has no record."""
    fields = () if info is None else info[:4]
    return (state.ev.theta.view(np.int64).tolist(),
            _bits([state.ev.x, state.t, *fields]).tolist(),
            info and info.halvings)


_STEP_FAMILIES = {
    "linear": lambda c: models.linear(3, c),
    "deep_linear": lambda c: models.deep_linear(3, [4, 3], c),
    "relu_mlp": lambda c: models.relu_mlp(3, [5], c),
    "leaky_relu_mlp": lambda c: models.leaky_relu_mlp(3, [5], 0.1, c),
    "quadratic_mlp": lambda c: models.quadratic_mlp(3, [3], c),
}


@pytest.mark.parametrize("classes", [2, 3])
@pytest.mark.parametrize("loss", ["exp", "logistic"])
@pytest.mark.parametrize("family", sorted(_STEP_FAMILIES))
def test_flow_step_bits_match_rk4_oracle(family, loss, classes):
    spec = losses.get_loss(loss)
    rng = np.random.default_rng(11)
    labels = np.arange(12) % classes
    X = rng.normal(size=(12, 3)) + 2.0 * np.eye(3)[labels]
    if classes == 2:
        labels = 2 * labels - 1
    data = datasets.Dataset(X, labels)
    model = _STEP_FAMILIES[family](1 if classes == 2 else classes)
    theta0 = models.init_params(model, rng, scale=0.7)
    tol = 2e-3
    prev, prev_G, steps = None, None, 0
    for state, info in itertools.islice(gradflow.flow_states(
            model, theta0, data, spec, step_tol=tol), 201):
        if info is not None:
            # the step reads ev0.G as k1 and must leave it as it was
            assert np.array_equal(prev.ev.G.view(np.int64), prev_G)
            want = rk4_flow_step(model, data, spec, prev, prev_dt, tol)
            assert _step_bits(state, info) == _step_bits(*want), state.steps
            steps += 1
        prev, prev_G = state, state.ev.G.view(np.int64).copy()
        prev_dt = (gradflow.propose_dt_scaled(state.ev, tol) if info is None
                   else info.next_dt_scaled)
    assert steps == 200
    # a proposal 1e6 times too large is halved, on both sides alike
    with np.errstate(all="ignore"):
        got = gradflow.flow_step(gradflow.Evaluator(model, data, spec), prev,
                                 prev_dt * 1e6, step_tol=tol)
        want = rk4_flow_step(model, data, spec, prev, prev_dt * 1e6, tol)
    assert np.array_equal(prev.ev.G.view(np.int64), prev_G)
    assert got[1].halvings > 0
    assert _step_bits(*got) == _step_bits(*want)


@pytest.mark.parametrize("family, loss", [
    *((family, loss) for family in sorted(_STEP_FAMILIES)
      for loss in ("exp", "logistic", "exp_cubed")),
    ("relu_mlp", "cross_entropy")])
def test_flow_states_bits_match_reference_evaluation_order(family, loss):
    # 200 steps of each family on binary labels, and of the relu net on
    # three classes: x, t, theta and G of every state, the start
    # included, as the evaluation order before the lean step gave them
    # (exp's ones, the negated log-sum-exp, a fresh G per stage and an
    # errstate per state)
    classes = 3 if loss == "cross_entropy" else 2
    spec = losses.get_loss(loss)
    rng = np.random.default_rng(17)
    labels = np.arange(12) % classes
    X = rng.normal(size=(12, 3)) + 2.0 * np.eye(3)[labels]
    if classes == 2:
        labels = 2 * labels - 1
    data = datasets.Dataset(X, labels)
    model = _STEP_FAMILIES[family](1 if classes == 2 else classes)
    theta0 = models.init_params(model, rng, scale=0.7)
    got = [(st.t, st.ev.x, st.ev.theta, st.ev.G) for st, _ in
           itertools.islice(gradflow.flow_states(model, theta0, data, spec,
                                                 step_tol=2e-3), 201)]
    want = list(itertools.islice(reference_flow_states(
        model, theta0, data, spec, 2e-3), 201))
    assert len(got) == len(want) == 201
    for (t, x, theta, G), ref in zip(got, want):
        assert _bits([t, x]).tolist() == _bits(ref[:2]).tolist()
        assert np.array_equal(theta.view(np.int64), ref[2].view(np.int64))
        assert np.array_equal(G.view(np.int64), ref[3].view(np.int64))


def test_interleaved_runs_keep_their_single_run_bits():
    # the README flow on two_gaussians and the linear_logistic_2d flow,
    # advanced alternately in one process with a GD run between their
    # steps: each run binds its own evaluator, so each gives the bits it
    # gives alone
    cfgs = [runner.RunConfig.from_dict(readme_flow_config()),
            runner.RunConfig.from_dict({"scenario": "linear_logistic_2d"})]
    runs = [(c.model, runner._theta0(c, 0), c.dataset, c.loss,
             c.options["step_tol"]) for c in cfgs]
    steps = 80

    def flow(model, theta0, ds, spec, tol):
        return gradflow.flow_states(model, theta0, ds, spec, step_tol=tol)

    def gd():
        model, theta0, ds, spec, _ = runs[0]
        out = gdtrain.train_gd(model, theta0, ds, spec, None, epochs=30,
                               alpha0=0.1, mode="loss_based",
                               s5_guard=False, guard_safety=0.5)
        return out["ev"].theta.view(np.int64).tolist(), out["records"]

    alone = [[_step_bits(*s) for s in itertools.islice(flow(*r), steps)]
             for r in runs]
    gd_alone = gd()
    flows, got = [flow(*r) for r in runs], [[], []]
    for i in range(steps):
        for states, out in zip(flows, got):
            out.append(_step_bits(*next(states)))
        if i == steps // 2:
            gd_between = gd()
    assert got == alone
    assert gd_between == gd_alone


@pytest.mark.parametrize("driver", ["run_flow", "train_gd"])
def test_finished_run_keeps_no_model_or_dataset_alive(driver):
    cfg = runner.RunConfig.from_dict(readme_flow_config())
    refs = [weakref.ref(v) for v in (cfg.model, cfg.dataset, cfg.loss)]
    args = (cfg.model, runner._theta0(cfg, 0), cfg.dataset, cfg.loss)
    if driver == "run_flow":
        res = gradflow.run_flow(*args, targets=[5.0],
                                step_tol=cfg.options["step_tol"],
                                record_every=1)
    else:  # a guarded run that forms its margin state
        b = gdtrain.estimate_b_constants(cfg.model, cfg.dataset,
                                         np.random.default_rng(0), 500, 100)
        res = gdtrain.train_gd(*args, b, epochs=30, alpha0=0.1,
                               mode="loss_based", s5_guard=True,
                               guard_safety=0.5)
        assert res["margin_state"] is not None
    del res, cfg, args
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


def test_flow_monitors_relu_logistic():
    spec, model, theta0, data = _relu_logistic_setup()
    res = gradflow.run_flow(model, theta0, data, spec, targets=[15.0],
                            step_tol=3e-3, record_every=1)
    mon = gradflow.bound_monitors(spec, model.order_L, res["cols"])
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
                            targets=[20.0], step_tol=3e-3, record_every=1)
    mon = gradflow.bound_monitors(spec, model.order_L, res["cols"])
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
        _, dpsi, _ = gradflow._hat_rhs(float(r), 0.0, "planar")
        assert dpsi == 0.0
    # off the manifold the phase is restoring at small r but unstable
    # past r ~ 0.62, which is why the integrator carries psi directly
    _, inner, _ = gradflow._hat_rhs(0.5, 0.1, "planar")
    _, outer, _ = gradflow._hat_rhs(0.9, 0.1, "planar")
    assert inner < 0.0
    assert outer > 0.0


def test_hat_step_moves_outward_keeping_phase():
    state = gradflow.HatState(sigma=0.0, t=0.0, r=0.5, psi=0.0, log_rho=0.0)
    for _ in range(1000):
        state = _planar_hat_step(state, 5e-3)
    assert state.psi == 0.0
    assert state.r > 0.5
    assert state.log_rho > 0.0
    assert not state.clamped


def test_hat_run_reaches_rim_with_winding():
    recs = gradflow.run_hat(record_every=10, metric="planar")
    last = recs[-1]
    assert last["r"] >= 0.992
    assert max(abs(r["psi"]) for r in recs) == 0.0
    assert last["phi"] - recs[0]["phi"] >= 4.0 * math.pi
    assert not last["clamped"]
    assert last["log10_h"] > 100.0  # the unnormalized margin explodes
    assert recs[0]["t"] == 0.0 and 0.0 < recs[1]["t"] < math.inf
    assert last["t"] == math.inf  # physical time overflows by design


def test_hat_radial_ode_against_quadrature():
    recs = gradflow.run_hat(record_every=10, metric="planar")
    r_end, sigma_end = recs[-1]["r"], recs[-1]["sigma"]

    def rate_inv(r):
        _, _, omc = gradflow.hat_envelope(r)
        return (1.0 - r * r) ** 2 / (2.0 * r * omc)

    expected, err = quad(rate_inv, 0.5, r_end, limit=200)
    assert err < 1e-6 * expected
    assert sigma_end == pytest.approx(expected, rel=1e-5)


def test_hat_spherical_metric_loses_phase(monkeypatch):
    monkeypatch.setattr(gradflow, "HAT_R_STOP", 0.9)
    monkeypatch.setattr(gradflow, "HAT_MAX_STEPS", 40_000)
    recs = gradflow.run_hat(record_every=10, metric="spherical")
    assert max(abs(r["psi"]) for r in recs) > 1e-3


def test_hat_clamp_flag():
    state = gradflow.HatState(sigma=0.0, t=0.0, r=0.9999, psi=0.0,
                              log_rho=0.0)
    stepped = _planar_hat_step(state, 1e8)
    assert stepped.clamped
    assert 0.0 < stepped.r < 1.0


def test_hat_rhs_rejects_unknown_metric():
    with pytest.raises(ValueError):
        gradflow._hat_rhs(0.5, 0.0, "hyperbolic")


# ||theta - (w_hat log t + w_tilde)|| on the linear scenario's rows at
# the default step_tol, measured on x86-64 with numpy 2.4: 7.4e-7, 2.6e-7
# and 3.7e-6 at x = 40, 80 and 160 for both losses; the drift grows with
# x (4.2e-4 by x = 600), as the step cap is relative to x
LATE_PHASE_BOUNDS = {40.0: 2e-6, 80.0: 1e-6, 160.0: 1e-5}


@pytest.mark.parametrize("loss", ["exp", "logistic"])
def test_linear_flow_follows_its_late_phase_asymptote(loss):
    # separable data under an exp-tailed loss: the linear flow's theta is
    # w_hat log t + w_tilde + o(1), with w_hat the hard-margin SVM and
    # w_tilde fixed by the SVM duals; the oracle takes both from its own
    # dual ascent, and its w_hat must be the package's SVM solution
    cfg = runner.RunConfig.from_dict(
        {"scenario": "linear_logistic_2d", "loss": loss, "seeds": [0]})
    ds = cfg.dataset
    w_hat, w_tilde = late_phase_asymptote(ds.X, ds.y)
    w_star, _ = kkt.svm_oracle(ds.X, ds.y)
    np.testing.assert_allclose(w_hat, w_star, rtol=1e-12)
    out = gradflow.run_flow(cfg.model, runner._theta0(cfg, 0), ds, cfg.loss,
                            targets=list(LATE_PHASE_BOUNDS),
                            step_tol=cfg.options["step_tol"],
                            record_every=100_000)
    for bound, state in zip(LATE_PHASE_BOUNDS.values(), out["reached"]):
        gap = state.ev.theta - w_hat * math.log(state.t) - w_tilde
        assert float(np.linalg.norm(gap)) <= bound, state.ev.x
