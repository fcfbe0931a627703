"""Independent oracles shared by the test suite.

These deliberately avoid the package's gradient engine: gradients come
from central finite differences and forward values from a straight-line
numpy evaluation, so agreement is evidence rather than tautology.
"""

import math

import numpy as np


def fd_grad(fun, theta, h=1e-5):
    """Central-difference gradient of a scalar function of a flat vector."""
    theta = np.asarray(theta, dtype=np.float64)
    g = np.empty(theta.size)
    for i in range(theta.size):
        e = np.zeros(theta.size)
        e[i] = h
        g[i] = (fun(theta + e) - fun(theta - e)) / (2.0 * h)
    return g


def plain_forward(graph, theta, x):
    """Straight-line forward pass over a layer list, with no cache."""
    theta = np.asarray(theta, dtype=np.float64)
    h = np.atleast_2d(np.asarray(x, dtype=np.float64))
    for layer in graph:
        if layer.kind == "dense":
            w = theta[layer.offset : layer.offset + layer.in_dim * layer.out_dim]
            h = h @ w.reshape(layer.in_dim, layer.out_dim)
        elif layer.kind == "relu":
            h = np.maximum(h, 0.0)
        elif layer.kind == "leaky_relu":
            h = np.where(h > 0.0, h, layer.alpha * h)
        elif layer.kind == "square":
            h = h * h
        else:
            raise ValueError(layer.kind)
    return h


def plain_preactivations(graph, theta, x):
    """Inputs of each ReLU / LeakyReLU, each recomputed from scratch by
    running plain_forward on the graph truncated just before it."""
    return [plain_forward(graph[:i], theta, x)
            for i, layer in enumerate(graph)
            if layer.kind in ("relu", "leaky_relu")]


def seeded_fd_grad(graph, theta, X, seed):
    """sum_n seed_n . d out(x_n) / d theta: the seed-weighted sum of per-row
    central-difference gradients, one fd_grad per row and output."""
    seed = np.asarray(seed, dtype=np.float64).reshape(len(X), -1)
    total = np.zeros(np.size(theta))
    for x, row in zip(X, seed):
        for c, weight in enumerate(row):
            total += weight * fd_grad(
                lambda t: float(plain_forward(graph, t, x)[0, c]), theta)
    return total


def per_draw_b_constants(model, dataset, rng, n_sphere, n_curvature,
                         witness=None):
    """(b0, b1, b2) sampled one direction at a time: the estimator as it
    ran before estimate_b_constants drew and evaluated in chunks. Each
    sphere direction and each curvature probe gets its own forward."""
    from marginflow.models import ParamVector, per_sample_grad_norms

    d = model.param_count
    b0 = -math.inf
    b1 = 0.0
    draws = rng.normal(size=(n_sphere, d))
    draws /= np.linalg.norm(draws, axis=1, keepdims=True)
    if witness is not None:
        draws[0] = witness.unit()
    for theta_hat in draws:
        phi, cache = model.forward(ParamVector(theta_hat), dataset.X)
        b0 = max(b0, float(np.max(dataset.y * np.atleast_1d(phi))))
        b1 = max(b1, float(np.max(per_sample_grad_norms(model, cache))))
    h = 1e-4
    b2 = 0.0
    for _ in range(n_curvature):
        theta_hat = rng.normal(size=d)
        theta_hat /= np.linalg.norm(theta_hat)
        v = rng.normal(size=d)
        v /= np.linalg.norm(v)
        p0, _ = model.forward(ParamVector(theta_hat), dataset.X)
        pp, _ = model.forward(ParamVector(theta_hat + h * v), dataset.X)
        pm, _ = model.forward(ParamVector(theta_hat - h * v), dataset.X)
        curv = np.abs(np.atleast_1d(pp) - 2.0 * np.atleast_1d(p0)
                      + np.atleast_1d(pm)) / h**2
        b2 = max(b2, float(np.max(curv)))
    return b0, b1, b2


def lambda_from_log_inv_loss(spec, log_inv_loss):
    """lambda(x) = g'(x)/g(x) with x = log(1/loss), log-domain entry.

    The argument goes to g and g' as an array (0-d for one number), so
    this is lambda through the loss functions' array path."""
    from marginflow.losses import LossDomainError

    x = np.asarray(log_inv_loss, dtype=np.float64)
    if np.any(x <= spec.f_at_bf):
        raise LossDomainError(
            f"{spec.name}: lambda needs log(1/loss) > f(b_f) = {spec.f_at_bf}"
        )
    return spec.g_prime(x) / spec.g(x)


def lambda_of_loss(spec, loss_value):
    """lambda(loss) = g'(log 1/loss)/g(log 1/loss); needs loss < ell(b_f)."""
    from marginflow.losses import LossDomainError

    if not 0.0 < loss_value < spec.separability_threshold:
        raise LossDomainError(
            f"{spec.name}: loss {loss_value} not below separability "
            f"threshold {spec.separability_threshold}"
        )
    return float(lambda_from_log_inv_loss(spec, -np.log(loss_value)))


# Logistic f and f' as written before the shared softplus form: each
# branch of np.where computed in full, log1p taken twice. The package's
# versions must agree with these bit for bit.

def _logistic_softplus_neg(q):
    q = np.asarray(q, dtype=np.float64)
    u = np.exp(-np.abs(q))
    return np.where(q >= 0.0, np.log1p(u), -q + np.log1p(u))


def logistic_f(q):
    q = np.asarray(q, dtype=np.float64)
    sp = _logistic_softplus_neg(q)
    safe = sp > 0.0
    return np.where(safe, -np.log(np.where(safe, sp, 1.0)), q)


def logistic_f_prime(q):
    q = np.asarray(q, dtype=np.float64)
    u = np.exp(-np.abs(q))
    sp = np.where(q >= 0.0, np.log1p(u), -q + np.log1p(u))
    sig = np.where(q >= 0.0, u / (1.0 + u), 1.0 / (1.0 + u))
    safe = sp > 0.0
    return np.where(safe, sig / np.where(safe, sp, 1.0), 1.0)


def eager_point_summaries(ev, theta):
    """(V, g_norm, beta, rho) of a PointEval, each formed at once from
    its fields by the expressions the flow's monitors are defined with."""
    G = ev.G
    V = float(np.sum(ev.weights * ev.fprime * ev.q_eff))
    g_norm = math.sqrt(G @ G)
    theta = np.asarray(theta, dtype=np.float64)
    rho = math.sqrt(theta @ theta)
    beta = 0.0
    if rho > 0.0 and g_norm > 0.0:
        beta = float(theta @ G / (rho * g_norm))
    return V, g_norm, beta, rho


def hat_step_array(state, dsigma, order_L=2.0, n_samples=1,
                   metric="planar"):
    """The hat's RK4 step on a three-element numpy state vector."""
    from marginflow.gradflow import HatState, _hat_rhs, hat_value

    y0 = np.array([state.r, state.psi, state.log_rho])

    def rhs(y):
        return np.array(_hat_rhs(float(y[0]), float(y[1]), order_L, metric))

    with np.errstate(over="ignore"):
        k1 = rhs(y0)
        k2 = rhs(y0 + (dsigma / 2) * k1)
        k3 = rhs(y0 + (dsigma / 2) * k2)
        k4 = rhs(y0 + dsigma * k3)
        y1 = y0 + (dsigma / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    r1, psi1, log_rho1 = float(y1[0]), float(y1[1]), float(y1[2])
    clamped = False
    if not 0.0 < r1 < 1.0:
        r1 = min(max(r1, 1e-12), 1.0 - 1e-12)
        clamped = True
    h0 = math.exp(min(state.log_rho * order_L, 700.0)) * (
        1.0 - hat_value(state.r, state.psi))
    log_rate = (h0 - math.log(n_samples)
                - (order_L - 2.0) * state.log_rho
                + 1.0 / (1.0 - state.r**2))
    t1 = state.t + dsigma * math.exp(log_rate) if log_rate < 700.0 else math.inf
    return HatState(sigma=state.sigma + dsigma, t=t1, r=r1, psi=psi1,
                    log_rho=log_rho1, clamped=clamped or state.clamped)


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.max(np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b))))


# Discount curve T(U) for the logistic loss at (order, anchor, point),
# integrated with mpmath at 40 digits straight from the definition,
# with no package code involved:
#   lam(u) = gp(u)/g(u),  g(u) = -log(expm1(e^-u)),
#   gp(u) = e^-u e^(e^-u) / expm1(e^-u)
#   F(u) = e^u lam(u) (1 + 2 (1 + lam(u)/L) u0/(2u))
#   M = running max of F from u0 (recovery point via mp.findroot)
#   T(U) = mp.quad of lam(u) - e^-u M(u) over [U, inf)
LOGISTIC_PHI_CORRECTION = [
    (2.0, 0.6, 0.6, -14.063068153714179),
    (2.0, 0.6, 2.3, -2.2113625600657136),
    (2.0, 0.6, 10.0, -0.06150013719180316),
    (2.0, 0.6, 60.0, -0.010041666666666666),
    (2.0, 3.0, 3.0, -1.0921578689527558),
    (2.0, 3.0, 4.7, -0.6728843505329334),
    (2.0, 3.0, 10.0, -0.3075006859590158),
    (2.0, 3.0, 60.0, -0.050208333333333334),
    (1.0, 1.0, 1.0, -3.574233234109669),
    (1.0, 1.0, 2.7, -0.5767672079071148),
    (1.0, 1.0, 10.0, -0.10500024804910636),
    (1.0, 1.0, 60.0, -0.016805555555555556),
]
