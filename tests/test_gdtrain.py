"""Descent loop, loss-based schedule, and GD margin certificates."""

import math

import numpy as np
import pytest

from marginflow import datasets, gdtrain, losses, models
from marginflow.gdtrain import (BConstants, GdMarginState, PhiCurve,
                                ReframeError, estimate_b_constants, gd_step,
                                gd_step_direct, log_kappa,
                                loss_based_lr_epoch, sphere_sups, train_gd)
from marginflow.gradflow import evaluate_point
from marginflow.losses import LossDomainError
from marginflow.runner import frame_equivalence_check

from oracles import (LOGISTIC_PHI_CORRECTION, lambda_from_log_inv_loss,
                     per_draw_b_constants, rank_one_net, sampled_sphere_sups)

EXP = losses.get_loss("exp")
LOGISTIC = losses.get_loss("logistic")


def _toy():
    ds = datasets.two_gaussians(8, 2, separation=3.0, seed=5)
    model = models.relu_mlp(2, [4])
    theta0 = models.init_params(model, np.random.default_rng(3), scale=0.7)
    return model, ds, theta0


def _b(model, ds, seed=0, n_sphere=10_000, n_curvature=1_000):
    """The B-constants a run at this seed and these draws passes in."""
    return estimate_b_constants(model, ds, np.random.default_rng(seed),
                                n_sphere, n_curvature)


# ---------------------------------------------------------------- steps

def test_gd_step_by_hand():
    # single sample x=(1,2), y=+1, w=(0.1,-0.2): grad of exp loss is
    # -e^{-q} y x, and in the frame of the current loss the update is
    # exactly w + alpha * (1, 2)
    model = models.linear(2)
    ds = datasets.from_rows([[1.0, 2.0, 1]])
    w = np.array([0.1, -0.2])
    ev = evaluate_point(model, w, ds, EXP)
    assert math.isclose(ev.x, -0.3, rel_tol=1e-15)
    w2 = gd_step(ev, 0.05)
    np.testing.assert_allclose(w2, [0.15, -0.1], rtol=1e-15)
    # same step through the plain float64 route, eta = alpha / loss
    w3 = gd_step_direct(model, ds, EXP, w, 0.05)
    np.testing.assert_allclose(w3, w2, rtol=1e-14)


def test_gd_step_zero_keeps_theta():
    model, ds, theta0 = _toy()
    w2 = gd_step(evaluate_point(model, theta0, ds, EXP), 0.0)
    assert w2 is theta0


def test_gd_step_reframe_error():
    model, ds, theta0 = _toy()
    ev = evaluate_point(model, theta0, ds, EXP)
    for bad in (1e-301, 1e301):
        with pytest.raises(ReframeError):
            gd_step(ev, bad)


# ------------------------------------------------------------ scheduler

def test_scheduler_grows_on_improvement():
    alpha, x = 0.1, 0.0

    def trial(a):
        return x + 1.0, a

    for _ in range(5):
        alpha, cand, out = loss_based_lr_epoch(alpha, x, trial)
        assert not out.flagged and out.retries == 0
        x += 1.0
    # r_up^5 doubles alpha exactly
    assert math.isclose(alpha, 0.2, rel_tol=1e-12)


def test_scheduler_shrink_then_accept():
    alpha0 = 0.1
    tried = []

    def trial(alpha):
        tried.append(alpha)
        # the first attempt worsens
        return (2.0 if alpha < alpha0 else 0.5), alpha

    alpha, cand, out = loss_based_lr_epoch(alpha0, 1.0, trial)
    assert out.retries == 1 and not out.flagged
    assert cand == tried[-1]
    assert math.isclose(tried[-1], alpha0 / 2 ** 0.1, rel_tol=1e-12)
    # net alpha across the epoch: one shrink, one grow
    assert math.isclose(alpha, alpha0 * 2 ** (1 / 5 - 1 / 10),
                        rel_tol=1e-12)


def test_scheduler_retry_exhaustion_flags_epoch():
    alpha, cand, out = loss_based_lr_epoch(0.1, 1.0, lambda a: (1.0, a))
    assert out.flagged and cand is None
    assert out.retries == gdtrain.MAX_RETRIES + 1 == 61
    assert math.isclose(alpha, 0.1 / 2 ** (61 / 10), rel_tol=1e-12)


def test_train_gd_rejects_nonpositive_alpha0():
    model, ds, theta0 = _toy()
    for bad in (0.0, -0.1):
        with pytest.raises(ValueError, match="alpha must stay positive"):
            train_gd(model, theta0, ds, EXP, None, epochs=1, alpha0=bad)


# ------------------------------------------------------ frame equivalence

def test_relative_frame_matches_direct_float64():
    model, ds, theta0 = _toy()
    res = train_gd(model, theta0, ds, EXP, _b(model, ds), epochs=25,
                   s5_guard=False)
    frame = frame_equivalence_check(model, ds, EXP, theta0, res["records"])
    assert frame["epochs"] == 25
    assert frame["x_reached"] < 575.0  # loss above 1e-250 throughout
    assert frame["max_rel"] < 1e-8


# ------------------------------------------------------------- phi curve

@pytest.mark.parametrize("order_L,u0", [(2.0, 1.5), (1.0, 0.5), (4.0, 3.0)])
def test_phi_curve_exp_closed_form(order_L, u0):
    # for the exponential loss the correction integrates in closed form:
    # tail piece -u0 (1/U + 1/(2 L U^2)); before recovery the running
    # max is the frozen anchor value F(u0)
    curve = PhiCurve(EXP, order_L, u0)
    for U in [curve.u_star + 0.3, curve.u_star + 8.0, 120.0]:
        expected = -u0 * (1.0 / U + 1.0 / (2.0 * order_L * U * U))
        assert abs(PhiCurve(EXP, order_L, u0).correction(U)
                   - expected) < 1e-10
    if curve.u_star > u0 + 1e-9:
        f0 = math.exp(curve._log_f0)
        us = curve.u_star
        for U in [u0, 0.5 * (u0 + us)]:
            expected = (math.log(us / U)
                        + f0 * (math.exp(-us) - math.exp(-U))
                        - u0 * (1.0 / us + 1.0 / (2.0 * order_L * us * us)))
            assert abs(PhiCurve(EXP, order_L, u0).correction(U)
                       - expected) < 1e-10


def test_phi_curve_exp_recovery_point():
    # shallow anchor dips (recovery beyond u0); deep anchor does not
    assert PhiCurve(EXP, 2.0, 0.05).u_star > 7.0
    assert PhiCurve(EXP, 2.0, 1.5).u_star == 1.5


def test_phi_curve_logistic_frozen_oracle():
    for order_L, u0, point, expected in LOGISTIC_PHI_CORRECTION:
        got = PhiCurve(LOGISTIC, order_L, u0).correction(point)
        assert abs(got - expected) < 5e-13, (order_L, u0, point)


def test_phi_curve_incremental_consistency():
    points = [1.5, 2.0, 3.7, 10.0, 80.0, 400.0]
    curve = PhiCurve(EXP, 2.0, 1.5)
    walked = [curve.correction(u) for u in points]
    fresh = [PhiCurve(EXP, 2.0, 1.5).correction(u) for u in points]
    assert max(abs(a - b) for a, b in zip(walked, fresh)) < 1e-13
    # out-of-order query falls back to the from-scratch path
    assert abs(curve.correction(2.0) - fresh[1]) < 1e-13


def test_phi_curve_correction_shape():
    # negative, increasing, vanishing: gamma_hat trails tilde from below
    curve = PhiCurve(LOGISTIC, 2.0, 2.0)
    ts = [curve.correction(u) for u in [2.0, 3.0, 6.0, 20.0, 100.0, 1000.0]]
    assert all(t < 0.0 for t in ts)
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert ts[-1] > -3e-3


class _ArrayPathCurve(PhiCurve):
    """PhiCurve whose lambda hands g and g' 0-d arrays (the array path)."""

    def _lam(self, u):
        return lambda_from_log_inv_loss(self.spec, u)


@pytest.mark.parametrize("name,u0", [("exp", 0.05), ("logistic", 0.6),
                                     ("exp_cubed", 0.5)])
def test_phi_curve_scalar_path_equals_array_path(name, u0):
    # quad hands the integrands floats, which take the losses' scalar
    # path; the increments must not move by a bit
    spec = losses.get_loss(name)
    curve, oracle = PhiCurve(spec, 2.0, u0), _ArrayPathCurve(spec, 2.0, u0)
    assert curve.u_star == oracle.u_star > u0
    s = curve.u_star
    us = [u0, u0 + 0.3, (u0 + s) / 2.0, s + 0.5, s + 3.0, 40.0, 300.0]
    assert [curve.correction(u) for u in us] == [oracle.correction(u)
                                                 for u in us]


def test_phi_curve_domain_errors():
    curve = PhiCurve(EXP, 2.0, 1.5)
    with pytest.raises(LossDomainError):
        curve.correction(1.0)
    with pytest.raises(LossDomainError):
        PhiCurve(LOGISTIC, 2.0, 0.2)  # below the separability threshold


# ----------------------------------------------------------- kappa and S5

def test_log_kappa_exp_closed_form():
    # past the interior peak at u = 2 - 2/L the sup sits at the left
    # endpoint: kappa = e^{-u} u^{2-2/L} exactly
    assert abs(log_kappa(EXP, 5.0, 2.0) - (-5.0 + math.log(5.0))) < 1e-12
    assert abs(log_kappa(EXP, 3.0, 1.0) - (-3.0)) < 1e-12
    # before the peak the sup saturates at e^{(2-2/L)(log(2-2/L)-1)}
    assert abs(log_kappa(EXP, 0.05, 2.0) - (-1.0)) < 1e-3


def test_log_kappa_matches_scalar_optimizer():
    from scipy.optimize import minimize_scalar

    for spec, x, L in [(LOGISTIC, 1.2, 2.0), (LOGISTIC, 4.0, 1.0),
                       (EXP, 0.3, 4.0)]:
        def neg(u):
            return -(-u + (2.0 - 2.0 / L) * math.log(u)
                     - 2.0 * math.log(float(spec.g_prime(u))))

        best = min(minimize_scalar(neg, bounds=(x, x + 60.0),
                                   method="bounded").fun, neg(x))
        assert abs(log_kappa(spec, x, L) - (-best)) < 2e-3


def _manual_margin_state(c_eta=2.0):
    curve = PhiCurve(EXP, 2.0, 1.0)
    return GdMarginState(spec=EXP, order_L=2.0, u0=1.0, phi_curve=curve,
                         b=BConstants(1, 1, 1, 0, 0), c_eta=c_eta,
                         c_eta_provisional=False)


def test_check_s5_examples():
    # the (S5) check is the log ratio log(eta) - log H(x); negative is
    # headroom
    ms = _manual_margin_state()
    # closed-form ceiling at log-loss -100, L=2:
    # log H = log(u0/200) - log C_eta - (log kappa = -100 + log 100)
    log_h = math.log(1.0 / 200.0) - math.log(2.0) + 100.0 - math.log(100.0)
    assert abs(ms.log_h(100.0) - log_h) < 1e-10
    assert -1000.0 - ms.log_h(100.0) <= 0.0  # eta -> 0 always passes
    at_cap = log_h - ms.log_h(100.0)
    assert at_cap <= 0.0 and abs(at_cap) < 1e-10
    doubled = log_h + math.log(2.0) - ms.log_h(100.0)
    assert doubled > 0.0
    assert math.isclose(math.exp(doubled), 2.0, rel_tol=1e-9)


# ----------------------------------------------------------- B constants

def test_b_constants_linear_model():
    model = models.linear(2)
    ds = datasets.from_rows([[3.0, 4.0, 1], [-1.0, 1.0, -1]])
    rng = np.random.default_rng(11)
    b = estimate_b_constants(model, ds, rng, n_sphere=4000, n_curvature=200)
    # sup over the sphere of y x . theta is ||x||; the gradient norm is
    # ||x|| for every direction; a linear map has zero curvature
    assert 4.99 < b.b0 <= 5.0 + 1e-9
    assert math.isclose(b.b1, 5.0, rel_tol=1e-12)
    assert b.b2 < 1e-6


def test_b_constants_witness_direction():
    # the sampler meets the closed form when one draw is the optimal
    # direction of a linear model, and undershoots it otherwise
    model = models.linear(2)
    ds = datasets.from_rows([[3.0, 4.0, 1]])
    witness = np.array([0.6, 0.8])
    assert sphere_sups(model, ds.X) == (5.0, 5.0)
    b0, _ = sampled_sphere_sups(model, ds, np.random.default_rng(0), 2,
                                witness=witness)
    assert math.isclose(b0, 5.0, rel_tol=1e-12)
    b0, _ = sampled_sphere_sups(model, ds, np.random.default_rng(0), 2)
    assert b0 < 5.0


def _b_constants_zoo():
    return [
        models.linear(3),
        models.deep_linear(3, [4, 3]),
        models.relu_mlp(3, [5, 4]),
        models.leaky_relu_mlp(3, [5], alpha=0.1),
        models.quadratic_mlp(3, [4]),
    ]


def _zoo_data():
    return datasets.two_gaussians(20, 3, separation=2.0, seed=4)


@pytest.mark.parametrize("model", _b_constants_zoo(), ids=lambda m: m.name)
def test_b_constants_chunked_equal_per_draw(model):
    ds = _zoo_data()
    widest = max(b.shape[1] for b in model.blocks)
    chunk = gdtrain.B_CHUNK_FLOATS // (ds.n * widest)
    # curvature probes stack chunk // 3 per forward, so the first case
    # ends its probes in a partial chunk; the last burns its sphere
    # normals in two draws of at most B_CHUNK_FLOATS, the second partial
    assert chunk > 7 and (chunk + 1) % (chunk // 3)
    burn = gdtrain.B_CHUNK_FLOATS // model.param_count + 1
    cases = [(2 * chunk + 3, chunk + 1), (1, 1), (burn, 3)]
    for seed, (n_sphere, n_curvature) in enumerate(cases):
        b = estimate_b_constants(model, ds, np.random.default_rng(seed),
                                 n_sphere=n_sphere, n_curvature=n_curvature)
        ref = per_draw_b_constants(model, ds, np.random.default_rng(seed),
                                   n_sphere, n_curvature)
        assert b.b2 == ref[2], (n_sphere, n_curvature)
        assert (b.b0, b.b1) == sphere_sups(model, ds.X)
        assert ref[0] <= b.b0 and ref[1] <= b.b1


@pytest.mark.parametrize(
    "model", _b_constants_zoo() + [models.quadratic_mlp(3, [3, 2])],
    ids=[m.name for m in _b_constants_zoo()] + ["quadratic_mlp_3_blocks"])
def test_sphere_sups_bound_the_sampler_and_meet_the_rank_one_net(model):
    ds = _zoo_data()
    b0, b1 = sphere_sups(model, ds.X)
    sampled = sampled_sphere_sups(model, ds, np.random.default_rng(5), 10_000)
    assert sampled[0] <= b0 and sampled[1] <= b1
    n = int(np.argmax(np.linalg.norm(ds.X, axis=1)))
    theta = rank_one_net(model, ds.X[n], ds.y[n])
    assert math.isclose(float(theta @ theta), 1.0, rel_tol=1e-14)
    hit = sampled_sphere_sups(model, ds, np.random.default_rng(5), 1,
                              witness=theta)
    assert math.isclose(hit[0], b0, rel_tol=1e-12)
    assert math.isclose(hit[1], b1, rel_tol=1e-12)


def test_sphere_sups_closed_forms():
    X = np.array([[3.0, 4.0], [1.0, -1.0]])
    # k_b = 1 chains: max ||x|| L^(-L/2) and max ||x|| L^(1 - L/2)
    for model, L in [(models.relu_mlp(2, [6]), 2),
                     (models.deep_linear(2, [3, 3]), 3)]:
        b0, b1 = sphere_sups(model, X)
        assert math.isclose(b0, 5.0 * L ** (-L / 2), rel_tol=1e-15)
        assert math.isclose(b1, 5.0 * L ** (1 - L / 2), rel_tol=1e-15)
    # quadratic [4]: k = (2, 1), L = 3, p = 2; B1^2 / max ||x||^4 is the
    # max over the simplex of 4 a1 a2 + a1^2, 4/3 at a = (2/3, 1/3)
    b0, b1 = sphere_sups(models.quadratic_mlp(2, [4]), X)
    assert math.isclose(b1**2, 25.0**2 * 4.0 / 3.0, rel_tol=1e-14)
    a = np.linspace(0.0, 1.0, 100_001)
    assert np.max(4.0 * a * (1.0 - a) + a**2) <= 4.0 / 3.0 + 1e-15
    assert math.isclose(b1, 3.0 * b0, rel_tol=1e-15)
    # a LeakyReLU slope past 1 scales the sups by that slope
    b0_leaky = sphere_sups(models.leaky_relu_mlp(2, [3], alpha=-2.5), X)[0]
    assert math.isclose(b0_leaky, 2.5 * 5.0 / 2.0, rel_tol=1e-15)


# b2 as the seed-0 benchmark's gd_margin and deep_loss_50 runs drew it
# before B0 and B1 had closed forms: (model widths, data, draws, b2)
_B2_BEFORE = [
    ([6], lambda: datasets.two_gaussians(12, 2, separation=3.0, seed=5),
     (2_000, 500), "0x1.8efb7cc86933dp+10"),
    ([12], lambda: datasets.two_gaussians(50, 2, separation=4.0, seed=10),
     (10_000, 1_000), "0x1.69e1d1bff61dfp+11"),
]


@pytest.mark.parametrize("widths,data,draws,b2", _B2_BEFORE,
                         ids=["gd_margin", "deep_loss_50"])
def test_b2_keeps_its_bits(widths, data, draws, b2):
    b = estimate_b_constants(models.relu_mlp(2, widths), data(),
                             np.random.default_rng(0), *draws)
    assert b.b2 == float.fromhex(b2)


def test_b_constants_reject_multiclass():
    model = models.linear(2, num_outputs=3)
    ds = datasets.from_rows([[1.0, 0.0, 0], [0.0, 1.0, 2]])
    with pytest.raises(NotImplementedError):
        estimate_b_constants(model, ds, np.random.default_rng(0), 10, 10)


# ------------------------------------------------------------- training

@pytest.mark.parametrize("name,epochs", [("exp", 300), ("logistic", 120)])
def test_train_gd_guarded_monitors(name, epochs):
    model, ds, theta0 = _toy()
    spec = losses.get_loss(name)
    out = train_gd(model, theta0, ds, spec, _b(model, ds, 0, 1500, 200),
                   epochs=epochs, alpha0=0.1, s5_guard=True)
    mon = out["monitors"]
    assert not out["flagged_epochs"]
    assert len(mon["p3_slack"]) > 50
    assert max(mon["rho_identity"]) < 1e-9
    assert max(abs(v) for v in mon["euler_gap"]) < 1e-12
    assert min(mon["p2_lower"]) > -1e-9
    assert min(mon["p2_upper"]) > -1e-9
    assert min(mon["p3_slack"]) > -1e-9
    assert min(mon["p4_slack"]) > -1e-10
    hats = [r["log_hat"] for r in out["records"] if "log_hat" in r]
    assert min(b - a for a, b in zip(hats, hats[1:])) > -1e-10  # never falls
    assert min(mon["grad_bound"]) > -1e-9
    assert max(mon["s5_log_ratio"]) <= math.log(0.5) + 1e-9
    ms = out["margin_state"]
    assert ms is not None and not ms.clamped and not ms.c_eta_provisional
    last = out["records"][-1]
    assert last["log_hat"] < last["log_tilde"]


def test_log_kappa_once_per_epoch_start(monkeypatch):
    # an epoch's guard cap, (S5) log ratio and grad_bound all ask for
    # kappa at the epoch start x; the grid runs once per such x
    model, ds, theta0 = _toy()
    kw = dict(b=_b(model, ds, 0, 300, 50), epochs=60, alpha0=0.1,
              s5_guard=True)
    xs = []

    def counted(spec, x, order_L):
        xs.append(x)
        return log_kappa(spec, x, order_L)

    monkeypatch.setattr(gdtrain, "log_kappa", counted)
    cached = train_gd(model, theta0, ds, LOGISTIC, **kw)
    once = list(xs)
    starts = {evaluate_point(model, theta0, ds, LOGISTIC).x} | {
        r["log_inv_loss"] for r in cached["records"]}
    assert len(once) > 40 and len(set(once)) == len(once)
    assert set(once) <= starts

    xs.clear()
    monkeypatch.setattr(GdMarginState, "log_kappa",
                        lambda self, x: gdtrain.log_kappa(self.spec, x,
                                                          self.order_L))
    bypassed = train_gd(model, theta0, ds, LOGISTIC, **kw)
    assert set(xs) == set(once) and len(xs) > 2 * len(once)
    assert cached["records"] == bypassed["records"]
    assert cached["monitors"] == bypassed["monitors"]


def test_guarded_retries_evaluate_each_step_once(monkeypatch):
    # the logistic gd_margin scenario at init seed 11: the scheduler's
    # alpha has passed the (S5) cap, so every retry of epoch 16 takes the
    # same capped step; that point is evaluated once, not 61 times
    model = models.relu_mlp(2, [6])
    ds = datasets.two_gaussians(12, 2, separation=3.0, seed=5)
    theta0 = models.init_params(model, np.random.default_rng(11), scale=0.7)
    steps, evals = [], []

    def step(ev, alpha):
        steps.append(alpha)
        return gd_step(ev, alpha)

    def evaluate(*args):
        evals.append(args[1])
        return evaluate_point(*args)

    monkeypatch.setattr(gdtrain, "gd_step", step)
    monkeypatch.setattr(gdtrain, "evaluate_point", evaluate)
    out = train_gd(model, theta0, ds, LOGISTIC, _b(model, ds, 11, 2_000, 500),
                   epochs=400, alpha0=0.05, s5_guard=True, guard_safety=0.5)
    assert out["flagged_epochs"] == [16]
    assert [r["retries"] for r in out["records"]] == [0] * 16 + [61]
    assert out["alpha"].hex() == "0x1.b6ff97d080a53p-8"
    # one start plus one step per epoch, each step a distinct size
    assert len(steps) == len(set(steps)) == 17
    assert len(evals) == 18


def test_train_gd_unguarded_races_to_tiny_loss():
    model, ds, theta0 = _toy()
    out = train_gd(model, theta0, ds, EXP, _b(model, ds, 0, 500, 50),
                   epochs=120, alpha0=0.1)
    last = out["records"][-1]
    assert last["log10_loss"] < -500.0
    assert not out["flagged_epochs"]
    assert np.isfinite(last["log_sum_eta"])
    # per-step algebra stays clean even at extreme scales
    assert max(out["monitors"]["rho_identity"]) < 1e-9
    # log-space monitors stop at the trust ceiling instead of emitting
    # noise: every recorded epoch past x=1e6 contributed nothing
    n_trusted = sum(1 for r in out["records"] if r["log_inv_loss"] <= 1e6)
    assert len(out["monitors"]["s5_log_ratio"]) <= n_trusted


def test_train_gd_gamma_hat_clamp_flag():
    model, ds, theta0 = _toy()
    out = train_gd(model, theta0, ds, EXP, _b(model, ds, 0, 300, 50),
                   epochs=40, alpha0=0.1, s5_guard=True)
    ms = out["margin_state"]
    assert not ms.clamped
    # force a rounding-scale overshoot: the value clamps silently
    ms.phi_curve.correction = lambda u: 5e-13
    ev = out["ev"]
    log_rho = math.log(ev.rho)
    clamped_val = ms.log_gamma_hat(ev.x, log_rho)
    assert clamped_val == (math.log(float(EXP.g(ev.x)))
                           - ms.order_L * log_rho)
    assert not ms.clamped
    # a larger violation raises the flag
    ms.phi_curve.correction = lambda u: 1e-9
    ms.log_gamma_hat(ev.x, log_rho)
    assert ms.clamped


def test_train_gd_constant_alpha_mode():
    model, ds, theta0 = _toy()
    out = train_gd(model, theta0, ds, EXP, _b(model, ds, 0, 300, 50),
                   epochs=30, alpha0=0.02, mode="constant_alpha")
    assert all(r["alpha"] == 0.02 for r in out["records"])
    assert out["records"][-1]["log_inv_loss"] > out["records"][0]["log_inv_loss"]


def test_train_gd_rejects_unknown_mode():
    model, ds, theta0 = _toy()
    with pytest.raises(ValueError):
        train_gd(model, theta0, ds, EXP, None, epochs=1, mode="cyclic")


def test_train_gd_deterministic():
    model, ds, theta0 = _toy()
    runs = [train_gd(model, theta0, ds, EXP, _b(model, ds, 7, 300, 50),
                     epochs=60, alpha0=0.1, s5_guard=True)
            for _ in range(2)]
    np.testing.assert_array_equal(runs[0]["ev"].theta, runs[1]["ev"].theta)
    assert runs[0]["records"][-1] == runs[1]["records"][-1]
