"""Descent loop, loss-based schedule, and GD margin certificates."""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from marginflow import datasets, gdtrain, gradflow, losses, models
from marginflow.gdtrain import (GdMarginState, PhiCurve,
                                estimate_b_constants, gd_step,
                                gd_step_direct, log_kappa,
                                loss_based_lr_epoch, sphere_sups, train_gd)
from marginflow.gradflow import Evaluator, evaluate_point
from marginflow.losses import LossDomainError
from marginflow.runner import (RunConfig, frame_equivalence_check,
                               run_scenario)

from oracles import (LOGISTIC_PHI_CORRECTION, MP_LAMBDA, OneSlotCorrection,
                     per_draw_b_constants, rank_one_net, record_fields,
                     recovery_point, sampled_sphere_sups, stepwise_log_tilde,
                     stepwise_train_gd)

EXP = losses.get_loss("exp")
LOGISTIC = losses.get_loss("logistic")


def _toy():
    ds = datasets.two_gaussians(8, 2, separation=3.0, seed=5)
    model = models.relu_mlp(2, [4])
    theta0 = models.init_params(model, np.random.default_rng(3), scale=0.7)
    return model, ds, theta0


def _b(model, ds, seed, n_sphere, n_curvature):
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
    ev = evaluate_point(Evaluator(model, ds, EXP), w)
    assert math.isclose(ev.x, -0.3, rel_tol=1e-15)
    w2 = gd_step(ev, 0.05)
    np.testing.assert_allclose(w2, [0.15, -0.1], rtol=1e-15)
    # same step through the plain float64 route, eta = alpha / loss
    w3 = gd_step_direct(Evaluator(model, ds, EXP), w, 0.05)
    np.testing.assert_allclose(w3, w2, rtol=1e-14)


def test_gd_step_zero_keeps_theta():
    model, ds, theta0 = _toy()
    w2 = gd_step(evaluate_point(Evaluator(model, ds, EXP), theta0), 0.0)
    assert w2 is theta0


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
            train_gd(model, theta0, ds, EXP, None, epochs=1, alpha0=bad,
                     mode="loss_based", s5_guard=False, guard_safety=0.5)


# ------------------------------------------------------ frame equivalence

def test_relative_frame_matches_direct_float64():
    model, ds, theta0 = _toy()
    res = train_gd(model, theta0, ds, EXP, _b(model, ds, 0, 10_000, 1_000),
                   epochs=25, alpha0=0.1, mode="loss_based", s5_guard=False,
                   guard_safety=0.5)
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
        assert abs(PhiCurve(EXP, order_L, u0).correction([U])[0]
                   - expected) < 1e-10
    if curve.u_star > u0 + 1e-9:
        f0 = math.exp(curve._log_f0)
        us = curve.u_star
        for U in [u0, 0.5 * (u0 + us)]:
            expected = (math.log(us / U)
                        + f0 * (math.exp(-us) - math.exp(-U))
                        - u0 * (1.0 / us + 1.0 / (2.0 * order_L * us * us)))
            assert abs(PhiCurve(EXP, order_L, u0).correction([U])[0]
                       - expected) < 1e-10


def test_phi_curve_exp_recovery_point():
    # both anchors dip: F(u0) is regained past u0 + 1 from u0 = 0.05 and
    # within one unit from u0 = 1.5, where a bracket that starts at the
    # anchor itself (log F - log F(u0) exactly 0 there) returned u0
    assert PhiCurve(EXP, 2.0, 0.05).u_star > 7.0
    u_star = recovery_point(EXP, 2.0, 1.5, 2.5)
    assert abs(u_star - 1.8420260631899623) < 1e-12
    assert abs(PhiCurve(EXP, 2.0, 1.5).u_star - u_star) < 1e-12


def test_phi_curve_logistic_frozen_oracle():
    for order_L, u0, point, expected in LOGISTIC_PHI_CORRECTION:
        [got] = PhiCurve(LOGISTIC, order_L, u0).correction([point])
        assert abs(got - expected) < 5e-13, (order_L, u0, point)


def test_phi_curve_incremental_consistency():
    # one call walks the sequence, each step adding the mass removed
    # since the last u; every value stays within 1e-13 of its own tail
    points = [1.5, 2.0, 3.7, 10.0, 80.0, 400.0]
    curve = PhiCurve(EXP, 2.0, 1.5)
    walked = curve.correction(points)
    fresh = [curve.correction([u])[0] for u in points]
    assert max(abs(a - b) for a, b in zip(walked, fresh)) < 1e-13
    # a u that falls restarts from its own tail integral, a repeat
    # keeps the running value
    again = curve.correction([*points, 2.0, 2.0])
    assert again[:-2] == walked and again[-2:] == [fresh[1]] * 2


def test_phi_curve_correction_shape():
    # negative, increasing, vanishing: gamma_hat trails tilde from below
    curve = PhiCurve(LOGISTIC, 2.0, 2.0)
    ts = curve.correction([2.0, 3.0, 6.0, 20.0, 100.0, 1000.0])
    assert all(t < 0.0 for t in ts)
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert ts[-1] > -3e-3


@pytest.mark.parametrize("name,u0", [("exp", 0.05), ("logistic", 0.6),
                                     ("exp_cubed", 0.5)])
def test_phi_curve_scalar_path_equals_array_path(name, u0):
    # T over a whole sequence in one call, as the descent pass takes it,
    # has the bits of one call per u through a one-slot cache, as the
    # step loop took it: repeats, a fall below the last u and a u within
    # the slack below u0 included
    spec = losses.get_loss(name)
    curve = PhiCurve(spec, 2.0, u0)
    s = curve.u_star
    assert s > u0
    us = [u0, u0, u0 + 0.3, (u0 + s) / 2.0, s + 0.5, s + 0.5, u0 + 0.3,
          s + 3.0, u0 - 5e-10, 40.0, 300.0]
    one_slot = OneSlotCorrection(curve)
    want = [one_slot(u) for u in us]
    assert np.array_equal(np.array(curve.correction(us)).view(np.int64),
                          np.array(want).view(np.int64))


def test_logistic_g_pair_is_g_prime_over_g_bit_for_bit():
    # lambda = g'/g from one pass over a correction walk's nodes, and at
    # the one numbers the bisection hands it
    nodes = []
    real = LOGISTIC.g_pair

    def recorded(u):
        nodes.append(np.array(u))
        return real(u)

    curve = PhiCurve(dataclasses.replace(LOGISTIC, g_pair=recorded), 2.0, 0.6)
    curve.correction(np.linspace(0.6, 40.0, 60).tolist())
    arrays = [u for u in nodes if u.ndim]
    assert len(arrays) > 50 and len(nodes) > len(arrays)
    for u in nodes:
        arg = u if u.ndim else float(u)
        g, g_prime = LOGISTIC.g_pair(arg)
        assert np.array_equal(np.asarray(g).view(np.int64),
                              np.asarray(LOGISTIC.g(arg)).view(np.int64))
        assert np.array_equal(
            np.asarray(g_prime / g).view(np.int64),
            np.asarray(LOGISTIC.g_prime(arg) / LOGISTIC.g(arg)).view(np.int64))
    with pytest.raises(LossDomainError):
        LOGISTIC.g_pair(0.2)  # below f(b_f), as g and g' raise


# (family, anchor u0) pairs whose F dips, so both integrands have a range
DIPPING = [("exp", 0.05), ("exp", 0.7), ("logistic", 0.6),
           ("logistic", 1.5), ("exp_cubed", 0.5)]


@pytest.mark.parametrize("order_L", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("name,u0", DIPPING)
def test_integrate_matches_quad_and_mpmath(name, u0, order_L):
    # the adaptive Gauss rule against scipy's QUADPACK quad on the same
    # float integrands and mpmath's tanh-sinh quad on 30-digit ones
    curve = PhiCurve(losses.get_loss(name), order_L, u0)
    s, f0, lam = curve.u_star, mp.mpf(curve._log_f0), MP_LAMBDA[name]
    pieces = [
        (curve._dip_integrand, lambda u: lam(u) - mp.exp(f0 - u),
         [(u0, s), (u0, (u0 + s) / 2), ((u0 + s) / 2, s)]),
        (curve._tail_integrand,
         lambda u: -lam(u) * u0 / u * (1 + lam(u) / order_L),
         [(s, s + 0.5), (s, s + 30.0), (s, np.inf), (60.0, np.inf)])]
    for fn, mp_fn, ranges in pieces:
        for a, b in ranges:
            got = gdtrain._integrate(fn, a, b)
            ref = quad(fn, a, b, epsabs=1e-14, epsrel=1e-13, limit=400)[0]
            assert abs(got - ref) <= 1e-12 * abs(ref), (a, b)
            with mp.workdps(30):
                ref = float(mp.quad(mp_fn, [a, b]))
            assert abs(got - ref) <= 1e-12 * abs(ref), (a, b)
    # an empty or reversed range integrates to exactly 0
    for a, b in [(s, s), (s + 1.0, s), (np.inf, np.inf)]:
        assert gdtrain._integrate(curve._tail_integrand, a, b) == 0.0


@pytest.mark.parametrize("order_L", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("name,u0", DIPPING)
def test_recovery_point_matches_brentq(name, u0, order_L):
    spec = losses.get_loss(name)
    got = PhiCurve(spec, order_L, u0).u_star
    assert abs(got - recovery_point(spec, order_L, u0, u0 + 200.0)) < 1e-12


def test_phi_curve_domain_errors():
    curve = PhiCurve(EXP, 2.0, 1.5)
    with pytest.raises(LossDomainError):
        curve.correction([1.0])
    with pytest.raises(LossDomainError):
        PhiCurve(LOGISTIC, 2.0, 0.2)  # below the separability threshold


# ----------------------------------------------------------- kappa and S5

def test_log_kappa_exp_closed_form():
    # past the interior peak at u = 2 - 2/L the sup sits at the left
    # endpoint: kappa = e^{-u} u^{2-2/L} exactly
    def at(x, L):
        return log_kappa(EXP, [x], L, gdtrain._kappa_peak(EXP, L))[0]

    assert abs(at(5.0, 2.0) - (-5.0 + math.log(5.0))) < 1e-12
    assert abs(at(3.0, 1.0) - (-3.0)) < 1e-12
    # before the peak the sup saturates at e^{(2-2/L)(log(2-2/L)-1)}
    assert abs(at(0.05, 2.0) - (-1.0)) < 1e-3


@pytest.mark.parametrize("name", sorted(losses._REGISTRY))
def test_log_kappa_is_the_sup_from_its_turning_point(name):
    # against the max of a 200,001-point grid on [x, x + 60]: never below
    # it (a few ulps of slack, both being h near its flat top), above it
    # by at most 1e-6 (the grid steps over the peak), and from the
    # turning point u_kappa on exactly h(x), the grid's first point
    spec = losses.get_loss(name)
    for L in (1, 2, 3, 7):
        peak = gdtrain._kappa_peak(spec, L)
        c = 2.0 - 2.0 / L
        for x in spec.f_at_bf + np.r_[np.geomspace(1e-6, 3.5, 10),
                                      np.linspace(4.0, 59.0, 4)]:
            x = float(x)
            us = np.linspace(x, x + 60.0, 200_001)
            h = -us + c * np.log(us) - 2.0 * np.log(spec.g_prime(us))
            [got] = log_kappa(spec, [x], L, peak)
            assert float(np.max(h)) - 1e-14 <= got <= np.max(h) + 1e-6, \
                (name, L, x)
            if x >= peak:
                assert got == h[0], (name, L, x)


def test_log_kappa_matches_scalar_optimizer():
    from scipy.optimize import minimize_scalar

    for spec, x, L in [(LOGISTIC, 1.2, 2.0), (LOGISTIC, 4.0, 1.0),
                       (EXP, 0.3, 4.0)]:
        def neg(u):
            return -(-u + (2.0 - 2.0 / L) * math.log(u)
                     - 2.0 * math.log(float(spec.g_prime(u))))

        best = min(minimize_scalar(neg, bounds=(x, x + 60.0),
                                   method="bounded").fun, neg(x))
        [got] = log_kappa(spec, [x], L, gdtrain._kappa_peak(spec, L))
        assert abs(got - (-best)) < 2e-3


def _manual_margin_state():
    # w2 w1 x with w1 = (1, 0), w2 = 1 on the one point x = (1, 0), y = +1:
    # margin 1, so the state is anchored at u0 = log(1/loss) = 1, L = 2
    model = models.deep_linear(2, [1])
    ds = datasets.from_rows([[1.0, 0.0, 1]])
    ev = evaluate_point(Evaluator(model, ds, EXP), np.array([1.0, 0.0, 1.0]))
    return GdMarginState(EXP, model.order_L, ev,
                         _b(model, ds, 0, 10_000, 1_000))


def test_check_s5_examples():
    # the (S5) check is the log ratio log(eta) - log H(x); negative is
    # headroom
    ms = _manual_margin_state()
    assert ms.u0 == 1.0 and ms.order_L == 2.0
    # closed-form ceiling at log-loss -100, L=2:
    # log H = log(u0/200) - log C_eta - (log kappa = -100 + log 100)
    log_h = (math.log(1.0 / 200.0) - math.log(ms.c_eta) + 100.0
             - math.log(100.0))
    log_h100 = ms.log_h(100.0, log_kappa(EXP, [100.0], 2.0, ms.u_kappa)[0])
    assert abs(log_h100 - log_h) < 1e-10
    assert -1000.0 - log_h100 <= 0.0  # eta -> 0 always passes
    at_cap = log_h - log_h100
    assert at_cap <= 0.0 and abs(at_cap) < 1e-10
    doubled = log_h + math.log(2.0) - log_h100
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
                   epochs=epochs, alpha0=0.1, mode="loss_based",
                   s5_guard=True, guard_safety=0.5)
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
    assert out["margin_state"] is not None
    last = out["records"][-1]
    assert last["log_hat"] < last["log_tilde"]


def test_log_kappa_once_per_epoch_start(monkeypatch):
    # the guard cap takes log kappa at each guarded epoch's start x, a
    # one-element column; the (S5) log ratio and grad_bound take it after
    # the loop, one column of all the monitored starts
    model, ds, theta0 = _toy()
    columns = []

    def counted(spec, xs, order_L, u_kappa):
        columns.append(np.asarray(xs, dtype=np.float64).tolist())
        return log_kappa(spec, xs, order_L, u_kappa)

    monkeypatch.setattr(gdtrain, "log_kappa", counted)
    out = train_gd(model, theta0, ds, LOGISTIC, _b(model, ds, 0, 300, 50),
                   epochs=60, alpha0=0.1, mode="loss_based", s5_guard=True,
                   guard_safety=0.5)
    x0 = evaluate_point(Evaluator(model, ds, LOGISTIC), theta0).x
    records = out["records"]
    starts = [x0] + [r["log_inv_loss"] for r in records]
    # the state is anchored at the end of this epoch
    anchored = next(i for i, r in enumerate(records) if "bar_gamma" in r)
    guarded = starts[anchored + 1:-1]
    monitored = [x for x, r in zip(starts, records) if "s5_log_ratio" in r]
    assert len(guarded) > 40 and len(monitored) > 40
    assert columns == [[x] for x in guarded] + [monitored]


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
                   epochs=400, alpha0=0.05, mode="loss_based", s5_guard=True,
                   guard_safety=0.5)
    assert out["flagged_epochs"] == [16]
    assert [r["retries"] for r in out["records"]] == [0] * 16 + [61]
    assert out["alpha"].hex() == "0x1.b6ff97d080a53p-8"
    # one start plus one step per epoch, each step a distinct size
    assert len(steps) == len(set(steps)) == 17
    assert len(evals) == 18


def test_train_gd_unguarded_races_to_tiny_loss():
    model, ds, theta0 = _toy()
    out = train_gd(model, theta0, ds, EXP, _b(model, ds, 0, 500, 50),
                   epochs=120, alpha0=0.1, mode="loss_based", s5_guard=False,
                   guard_safety=0.5)
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


def test_gamma_hat_above_smoothed_margin_fails_ordering(tmp_path,
                                                       monkeypatch):
    # T = +1e-9 past the anchor puts log gamma_hat above the smoothed
    # margin; nothing clamps it, so ordering_excess names the breach
    real = PhiCurve.correction
    monkeypatch.setattr(
        PhiCurve, "correction", lambda self, us: (
            real(self, us) if len(us) == 1 else [1e-9] * len(us)))
    cfg = RunConfig.from_dict({"scenario": "gd_margin", "loss": "logistic",
                               "alpha0": 0.05, "epochs": 120, "seeds": [0]})
    outcome = run_scenario(cfg, out_dir=tmp_path)
    checks = outcome.summaries[0]["checks"]
    assert [k for k, c in checks.items() if not c["ok"]] == [
        "ordering_excess"]
    assert 1e-10 < checks["ordering_excess"]["worst"] < 1e-9
    assert outcome.failures == [
        f"seed 0: ordering_excess = {checks['ordering_excess']['worst']!r}"
        ", not <= 0.0"]


def test_multiclass_descent_records_carry_margins():
    # class labels form no margin state, yet every separated record holds
    # the smoothed and normalized margins a flow record holds
    model = models.relu_mlp(2, [6], num_outputs=3)
    ds = datasets.from_rows([[2.0, 0.0, 0], [1.8, 0.4, 0], [-1.0, 1.7, 1],
                             [-1.2, 1.5, 1], [-1.0, -1.7, 2],
                             [-0.8, -1.9, 2]])
    spec = losses.get_loss("cross_entropy")
    theta0 = models.init_params(model, np.random.default_rng(0), scale=0.7)
    out = train_gd(model, theta0, ds, spec, None, epochs=60, alpha0=0.1,
                   mode="loss_based", s5_guard=True, guard_safety=0.5)
    assert out["margin_state"] is None
    sep = [r for r in out["records"] if r["log_inv_loss"] > spec.f_at_bf]
    assert len(sep) == 48
    for r in sep:
        assert r["log_tilde"] == stepwise_log_tilde(
            spec, r["log_inv_loss"], r["rho"], model.order_L)
        assert r["bar_gamma"] == r["q_min"] / r["rho"] ** model.order_L
        assert "log_hat" not in r and "s5_log_ratio" not in r


def test_train_gd_constant_alpha_mode():
    model, ds, theta0 = _toy()
    out = train_gd(model, theta0, ds, EXP, _b(model, ds, 0, 300, 50),
                   epochs=30, alpha0=0.02, mode="constant_alpha",
                   s5_guard=False, guard_safety=0.5)
    assert all(r["alpha"] == 0.02 for r in out["records"])
    assert out["records"][-1]["log_inv_loss"] > out["records"][0]["log_inv_loss"]


def test_train_gd_rejects_unknown_mode():
    model, ds, theta0 = _toy()
    with pytest.raises(ValueError):
        train_gd(model, theta0, ds, EXP, None, epochs=1, alpha0=0.1,
                 mode="cyclic", s5_guard=False, guard_safety=0.5)


def test_train_gd_deterministic():
    model, ds, theta0 = _toy()
    runs = [train_gd(model, theta0, ds, EXP, _b(model, ds, 7, 300, 50),
                     epochs=60, alpha0=0.1, mode="loss_based", s5_guard=True,
                     guard_safety=0.5)
            for _ in range(2)]
    np.testing.assert_array_equal(runs[0]["ev"].theta, runs[1]["ev"].theta)
    assert runs[0]["records"][-1] == runs[1]["records"][-1]


# ------------------------------------------- monitors against the replay

def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _toy_at(seed):
    model, ds, _ = _toy()
    theta0 = models.init_params(model, np.random.default_rng(seed), scale=0.7)
    return model, ds, theta0, _b(model, ds, 0, 300, 50)


def _linear_pair():
    model = models.linear(2)
    ds = datasets.from_rows([[2.0, 1.0, 1], [-1.0, 0.5, -1]])
    return model, ds, np.array([0.3, 0.1]), _b(model, ds, 0, 300, 50)


def _flagged():
    model = models.relu_mlp(2, [6])
    ds = datasets.two_gaussians(12, 2, separation=3.0, seed=5)
    theta0 = models.init_params(model, np.random.default_rng(11), scale=0.7)
    return model, ds, theta0, _b(model, ds, 11, 2_000, 500)


def _abort():
    from marginflow import runner
    cfg = runner.RunConfig.from_dict({
        "scenario": "gd_margin", "loss": "logistic", "alpha0": 0.05,
        "epochs": 400, "seeds": [13]})
    model, ds = cfg.model, cfg.dataset
    return model, ds, runner._theta0(cfg, 13), _b(
        model, ds, 13, cfg.options["n_sphere"], cfg.options["n_curvature"])


# (setup, loss, keywords of train_gd)
_REPLAYED = {
    "guarded_logistic": (lambda: _toy_at(3), LOGISTIC, dict(
        epochs=120, alpha0=0.1, mode="loss_based", s5_guard=True)),
    "unguarded_exp_past_1e6": (_linear_pair, EXP, dict(
        epochs=150, alpha0=0.1, mode="loss_based", s5_guard=False)),
    "constant_alpha_moving_back": (lambda: _toy_at(3), LOGISTIC, dict(
        epochs=150, alpha0=1.0, mode="constant_alpha", s5_guard=False)),
    "constant_alpha_below_anchor": (lambda: _toy_at(4), LOGISTIC, dict(
        epochs=150, alpha0=1.5, mode="constant_alpha", s5_guard=False)),
    "flagged_epoch": (_flagged, LOGISTIC, dict(
        epochs=400, alpha0=0.05, mode="loss_based", s5_guard=True)),
    "margin_state_abort": (_abort, LOGISTIC, dict(
        epochs=400, alpha0=0.05, mode="loss_based", s5_guard=True)),
}


@pytest.mark.parametrize("case", sorted(_REPLAYED))
def test_train_gd_monitors_bits_match_stepwise_replay(case, monkeypatch):
    # the post-loop passes, the margin fields in chunks of 7 records,
    # against every monitor, log kappa, lambda, log gamma_hat (T from a
    # one-slot cache) and log tilde taken at its epoch inside the step loop
    monkeypatch.setattr(gradflow, "MONITOR_CHUNK", 7)
    setup, spec, kw = _REPLAYED[case]
    model, ds, theta0, b = setup()
    got = train_gd(model, theta0, ds, spec, b, guard_safety=0.5, **kw)
    want = stepwise_train_gd(model, theta0, ds, spec, b, guard_safety=0.5,
                             **kw)
    assert record_fields(got["records"]) == record_fields(want["records"])
    assert list(got["monitors"]) == list(want["monitors"])
    for key, series in want["monitors"].items():
        assert np.array_equal(_bits(got["monitors"][key]), _bits(series)), key
    for key in ("flagged_epochs", "abort"):
        assert got[key] == want[key]
    assert _bits([got["alpha"], got["log_sum_eta"]]).tolist() == _bits(
        [want["alpha"], want["log_sum_eta"]]).tolist()
    # each case reaches the branch it is named for
    records, ms = got["records"], got["margin_state"]
    xs = [r["log_inv_loss"] for r in records]
    monitored = [r for r in records if "s5_log_ratio" in r]
    if case == "margin_state_abort":
        assert got["abort"] and ms is None and not monitored
        # no margin state, yet the separated record has its margins
        assert "bar_gamma" in records[-1] and "log_hat" not in records[-1]
    elif case == "flagged_epoch":
        assert got["flagged_epochs"] == [16] and "bar_gamma" in records[15]
    elif case == "unguarded_exp_past_1e6":
        late = [r for r in records if r["log_inv_loss"] > 1e6]
        assert len(monitored) > 50 and len(late) > 20
        # unmonitored past 1e6: no record there holds a (stale) gamma_hat
        assert not any("log_hat" in r for r in late)
    elif case == "constant_alpha_moving_back":
        # x falls, and T restarts from a smaller u
        assert len(monitored) > 20 and any(
            b < a for a, b in zip(xs, xs[1:]) if b >= ms.u0)
    elif case == "constant_alpha_below_anchor":
        # a monitored step ends below u0, so the next record has no
        # log gamma_hat until one is taken again
        assert any(r["log_inv_loss"] < ms.u0 for r in monitored)
        assert any("bar_gamma" in r and "log_hat" not in r for r in records)
    else:
        assert len(monitored) > 100 and len(got["monitors"]["p4_slack"]) > 100
