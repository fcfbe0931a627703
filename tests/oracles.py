"""Independent oracles and reference helpers shared by the test suite.

The finite-difference gradients and the straight-line forward pass
avoid the package's gradient engine, so agreement with them is evidence
rather than tautology. The effective margins take their own forward
pass for the tests that check the margins of a given point. The
Euler-identity and scaling residuals, the per-row gradients and the
kink-free probes run the engine one sample at a time; the margin
sandwich, the alignment-integral accumulator, the projected-gradient SVM
dual and the root-finding loss wrapper are second routes to quantities
the package computes another way. The stepwise bound monitors evaluate
the flow's nu and loss upper bounds one state at a time, and the
stepwise drivers take every margin monitor of a flow or a descent run
inside its step loop, with one-number loss calls and a one-slot cache
of the margin curve's T: the package's batched monitors must reproduce
their bits. The layer-walk kernel and the two-call point evaluation
are the dense-chain forward,
backward and `evaluate_point` written over a layer list of their own
(`layers_of`, rebuilt from a model's blocks, family and slope,
with each activation coded here rather than taken from the blocks),
with f and f' from two loss calls; the package must reproduce their
bits too. The sphere sampler, with its per-sample gradient norms, is
how B0 and B1 were taken before they had closed forms: the closed
forms must bound it, and meet it at the rank-one net. `adjoints` is the
reverse loop of the block table as a generator, on a stack of parameter
vectors too, and `adjoint_grad` sums its layer terms into zeros, one
slice-add per block: the flat gradient that `backward` must reproduce
bit for bit. `rk4_flow_step` is the adaptive RK4 step in its textbook k
form, every array formed afresh and the step's summaries as numpy
scalars, with the same evaluations and controller: the states and step
records that `flow_step` must reproduce bit for bit.
`reference_flow_states` is the flow in its evaluation order before the
lean step (exp's f' as an array of ones, the log-sum-exp of the negated
copy -fq in `negated_inv_loss_weights`, G copied out of the gradient
buffer at every evaluation and an errstate per state): `flow_states`
must reproduce its states bit for bit.

The late-phase asymptote takes the linear flow's limit w_hat log t +
w_tilde from the support set of the projected-gradient SVM dual: a
closed form that no part of the package computes.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import mpmath as mp
import numpy as np
import yaml
from scipy.optimize import brentq

from marginflow import gdtrain, gradflow
from marginflow.autodiff import NonFiniteError, backward, layers, walk
from marginflow.gradflow import (Evaluator, FlowAbort, FlowState, HatState,
                                 PointEval, StepInfo, _hat_rhs,
                                 evaluate_point, hat_value)
from marginflow.kkt import NotSeparableError
from marginflow.losses import LossDomainError, LossSpec
from marginflow.margin import label_masks, score_gaps, soft_margins


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_flow_config():
    """The example run config of README.md, as a mapping."""
    text = README.read_text(encoding="utf-8")
    return yaml.safe_load(text.split("```yaml\n", 1)[1].split("```", 1)[0])


def fd_grad(fun, theta, h=1e-5):
    """Central-difference gradient of a scalar function of a flat vector."""
    theta = np.asarray(theta, dtype=np.float64)
    g = np.empty(theta.size)
    for i in range(theta.size):
        e = np.zeros(theta.size)
        e[i] = h
        g[i] = (fun(theta + e) - fun(theta - e)) / (2.0 * h)
    return g


@dataclass(frozen=True)
class Layer:
    """One entry of a test-side layer list: a dense layer with its
    weight slice, or an elementwise activation."""

    kind: str  # "dense" | "relu" | "leaky_relu" | "square"
    in_dim: int = 0
    out_dim: int = 0
    offset: int = 0  # start of the weight slice in the flat parameters
    alpha: float = 0.0  # LeakyReLU negative-side slope


# the activation between the layers of each family's chain
FAMILY_ACTIVATION = {"linear": None, "deep_linear": None, "relu_mlp": "relu",
                     "leaky_relu_mlp": "leaky_relu", "quadratic_mlp": "square"}


def layers_of(model):
    """The model's chain as a layer list: each block a dense layer, each
    inner block followed by its family's activation."""
    kind = FAMILY_ACTIVATION[model.name]
    layers = []
    for i, block in enumerate(model.blocks):
        layers.append(Layer("dense", *block.shape, block.start))
        if kind is not None and i < len(model.blocks) - 1:
            layers.append(Layer(kind, alpha=model.alpha))
    return tuple(layers)


def walked(model, theta, x):
    """(out, table, records) of `autodiff.walk` on x, a batch or a single
    sample as a batch of one, over the layer table bound to theta; out
    is (B, C), never squeezed."""
    h = np.atleast_2d(np.ascontiguousarray(x, dtype=np.float64))
    table = layers(model.blocks, np.asarray(theta, dtype=np.float64))
    out, records = walk(table, h)
    return out, table, records


def unit(theta):
    """theta / ||theta||, the norm taken as sqrt(theta @ theta)."""
    theta = np.asarray(theta, dtype=np.float64)
    return theta / math.sqrt(theta @ theta)


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


def adjoints(blocks, records, adj):
    """From the adjoint `adj` of the output of `walk`, yield (layer input,
    adjoint of the layer's pre-activation z, block) per dense layer, the
    last first; with a leading member axis for a stacked walk."""
    for i in range(len(blocks) - 1, -1, -1):
        h, w, z = records[i]
        block = blocks[i]
        if block.rule is not None:
            adj = block.rule(z) * adj
        yield h, adj, block
        if i:
            adj = adj @ w.swapaxes(-1, -2)


def rk4_flow_step(model, dataset, spec, state, dt_scaled, step_tol,
                  max_halvings=60):
    """(FlowState, StepInfo) of one adaptive RK4 step from `state`: stage
    points theta0 + (dt/2) k1, theta0 + (dt/2) k2 and theta0 + dt k3,
    the increment (dt/6) (k1 + 2.0*k2 + 2.0*k3 + k4), delta rho^2 =
    2 theta0.dtheta + dtheta.dtheta and ||unit1 - unit0||; a trial that
    moves x = log(1/loss) by more than step_tol * max(1, |x|), lowers it
    by more than 1e-9 or meets a non-finite value halves dt."""
    ev0 = state.ev
    if ev0.g_norm == 0.0 or dt_scaled == 0.0:
        return state, StepInfo(0.0, 0.0, 0.0, 0.0, 0)
    theta0, x0 = ev0.theta, ev0.x
    evaluator = Evaluator(model, dataset, spec)
    cap = step_tol * max(1.0, abs(x0))
    halvings = 0
    while True:
        try:
            k1 = ev0.G
            e2 = evaluate_point(evaluator, theta0 + (dt_scaled / 2) * k1)
            k2 = math.exp(min(x0 - e2.x, 50.0)) * e2.G
            e3 = evaluate_point(evaluator, theta0 + (dt_scaled / 2) * k2)
            k3 = math.exp(min(x0 - e3.x, 50.0)) * e3.G
            e4 = evaluate_point(evaluator, theta0 + dt_scaled * k3)
            k4 = math.exp(min(x0 - e4.x, 50.0)) * e4.G
            dtheta = (dt_scaled / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            ev1 = evaluate_point(evaluator, theta0 + dtheta)
            dx = ev1.x - x0
            ok = abs(dx) <= cap and dx >= -1e-9
        except NonFiniteError:
            ok, dx = False, math.nan
        if ok:
            break
        halvings += 1
        if halvings > max_halvings:
            raise FlowAbort(f"step rejected {max_halvings} times")
        dt_scaled /= 2.0
    gain = min(2.0, max(0.5, 0.6 * cap / max(abs(dx), cap / 100.0)))
    nxt = dt_scaled * math.exp(x0 - ev1.x) * gain
    dt = dt_scaled * math.exp(x0) if x0 < 700.0 else math.inf
    d_hat = ev1.unit - ev0.unit
    info = StepInfo(dt_scaled, nxt,
                    float(2.0 * (theta0 @ dtheta) + dtheta @ dtheta),
                    math.sqrt(d_hat @ d_hat), halvings)
    return FlowState(state.t + dt, ev1, state.steps + 1), info


def adjoint_grad(blocks, records, seed):
    """seed^T J from `adjoints`: zeros plus one slice-add per block."""
    grad = np.zeros(blocks[-1].stop)
    for h, delta, b in adjoints(blocks, records, seed):
        grad[b.start:b.stop] += (h.T @ delta).ravel()
    return grad


def per_sample_grad_norms(model, records):
    """Norms ||grad_theta Phi(theta; x_n)|| for every row of the batch that
    `model.forward` recorded in `records`: shaped (B,) like its output,
    or (S, B) for a forward over S stacked parameter vectors.

    Uses the layer structure directly: for a dense layer the per-sample
    weight gradient is an outer product, so its Frobenius norm factors
    into activation norm times sensitivity norm. The sensitivities come
    from the backward pass's reverse loop, seeded with ones.
    """
    if model.num_outputs != 1:
        raise ValueError("per_sample_grad_norms expects a single-output model")
    out_shape = records[-1][2].shape  # the unsqueezed (..., B, 1)
    sq_norms = np.zeros(out_shape[:-1])
    for h_in, delta, _ in adjoints(model.blocks, records, np.ones(out_shape)):
        sq_norms += np.einsum("...bi,...bi->...b", h_in, h_in) * np.einsum(
            "...bo,...bo->...b", delta, delta
        )
    return np.sqrt(sq_norms)


def sampled_sphere_sups(model, dataset, rng, n_sphere, witness=None,
                        chunk=64):
    """(b0, b1) sampled: the largest margin y Phi and gradient norm over
    n_sphere random unit directions, `chunk` of them stacked per
    forward, the first replaced by the direction of witness when given.
    This is how estimate_b_constants once took B0 and B1; a sample can
    only undershoot the closed-form sups."""
    d = model.param_count
    b0 = -math.inf
    b1 = 0.0
    for start in range(0, n_sphere, chunk):
        draws = rng.normal(size=(min(chunk, n_sphere - start), d))
        draws /= np.linalg.norm(draws, axis=1, keepdims=True)
        if start == 0 and witness is not None:
            draws[0] = unit(witness)
        phi, records = model.forward(draws, dataset.X)
        b0 = max(b0, float(np.max(dataset.y * phi[..., 0])))
        b1 = max(b1, float(np.max(per_sample_grad_norms(model, records))))
    return b0, b1


def per_draw_b_constants(model, dataset, rng, n_sphere, n_curvature,
                         witness=None):
    """(b0, b1, b2) sampled one direction at a time: the estimator as it
    ran before estimate_b_constants drew and evaluated in chunks. Each
    sphere direction and each curvature probe gets its own forward."""
    b0, b1 = sampled_sphere_sups(model, dataset, rng, n_sphere, witness,
                                 chunk=1)
    d = model.param_count
    h = 1e-4
    b2 = 0.0
    for _ in range(n_curvature):
        theta_hat = rng.normal(size=d)
        theta_hat /= np.linalg.norm(theta_hat)
        v = rng.normal(size=d)
        v /= np.linalg.norm(v)
        p0, _ = model.forward(theta_hat, dataset.X)
        pp, _ = model.forward(theta_hat + h * v, dataset.X)
        pm, _ = model.forward(theta_hat - h * v, dataset.X)
        curv = np.abs(np.atleast_1d(pp) - 2.0 * np.atleast_1d(p0)
                      + np.atleast_1d(pm)) / h**2
        b2 = max(b2, float(np.max(curv)))
    return b0, b1, b2


def rank_one_net(model, x, y):
    """The unit-norm net that attains the closed-form sups at x: one unit
    wide, block b scaled to squared norm k_b / L, the first block along
    x and the last signed so that y Phi(x) > 0."""
    theta = np.zeros(model.param_count)
    dense = [layer for layer in layers_of(model) if layer.kind == "dense"]
    for layer, block in zip(dense, model.blocks, strict=True):
        w = np.zeros((layer.in_dim, layer.out_dim))
        if layer is dense[0]:
            w[:, 0] = x / np.linalg.norm(x)
        else:
            w[0, 0] = 1.0
        theta[block.start:block.stop] = (
            math.sqrt(block.k / model.order_L) * w).ravel()
    theta[model.blocks[-1].start:model.blocks[-1].stop] *= y
    return theta


def lambda_from_log_inv_loss(spec, log_inv_loss):
    """lambda(x) = g'(x)/g(x) with x = log(1/loss), log-domain entry.

    The argument goes to g and g' as an array (0-d for one number), so
    this is lambda through the loss functions' array path."""
    x = np.asarray(log_inv_loss, dtype=np.float64)
    if np.any(x <= spec.f_at_bf):
        raise LossDomainError(
            f"{spec.name}: lambda needs log(1/loss) > f(b_f) = {spec.f_at_bf}"
        )
    return spec.g_prime(x) / spec.g(x)


def lambda_of_loss(spec, loss_value):
    """lambda(loss) = g'(log 1/loss)/g(log 1/loss); needs loss < ell(b_f)."""
    threshold = math.exp(-spec.f_at_bf)  # ell(b_f)
    if not 0.0 < loss_value < threshold:
        raise LossDomainError(
            f"{spec.name}: loss {loss_value} not below separability "
            f"threshold {threshold}"
        )
    return float(lambda_from_log_inv_loss(spec, -np.log(loss_value)))


# Logistic f and f' as written before the shared softplus form: each
# branch of np.where computed in full, log1p taken twice. The package's
# versions must agree with these bit for bit.

def logistic_softplus_neg(q):
    q = np.asarray(q, dtype=np.float64)
    u = np.exp(-np.abs(q))
    return np.where(q >= 0.0, np.log1p(u), -q + np.log1p(u))


def logistic_f(q):
    q = np.asarray(q, dtype=np.float64)
    sp = logistic_softplus_neg(q)
    safe = sp > 0.0
    return np.where(safe, -np.log(np.where(safe, sp, 1.0)), q)


def logistic_f_prime(q):
    q = np.asarray(q, dtype=np.float64)
    u = np.exp(-np.abs(q))
    sp = np.where(q >= 0.0, np.log1p(u), -q + np.log1p(u))
    sig = np.where(q >= 0.0, u / (1.0 + u), 1.0 / (1.0 + u))
    safe = sp > 0.0
    return np.where(safe, sig / np.where(safe, sp, 1.0), 1.0)


def exp_f_prime(q):
    """The exponential loss's f' = 1 as an array of ones."""
    ones = np.empty(np.shape(q))
    ones.fill(1.0)
    return ones


def eager_point_summaries(ev, theta, gaps=None):
    """(V, g_norm, beta, rho) of a PointEval, each formed at once from
    its fields by the expressions the flow's monitors are defined with.
    A multi-class point also needs its (N, C-1) score gaps s: there V
    weighs each sample's gaps by its soft-min split exp(q_tilde - s)."""
    G = ev.G
    qv = ev.q_eff
    if gaps is not None:
        qv = np.sum(np.exp(ev.q_eff[:, None] - gaps) * gaps, axis=1)
    V = float(np.sum(ev.weights * ev.fprime * qv))
    g_norm = math.sqrt(G @ G)
    theta = np.asarray(theta, dtype=np.float64)
    rho = math.sqrt(theta @ theta)
    beta = 0.0
    if rho > 0.0 and g_norm > 0.0:
        beta = float(theta @ G / (rho * g_norm))
    return V, g_norm, beta, rho


def hat_step_array(state, dsigma, metric, k1):
    """The hat's RK4 step on a three-element numpy state vector; it takes
    every slope itself, so a caller's k1 is ignored."""
    y0 = np.array([state.r, state.psi, state.log_rho])

    def rhs(y):
        return np.array(_hat_rhs(float(y[0]), float(y[1]), metric))

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
    h0 = math.exp(min(state.log_rho * gradflow.HAT_L, 700.0)) * (
        1.0 - hat_value(state.r, state.psi))
    log_rate = (h0 - (gradflow.HAT_L - 2.0) * state.log_rho
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


def _mp_logistic_lambda(u):
    e = mp.exp(-u)
    return e * mp.exp(e) / (mp.expm1(e) * -mp.log(mp.expm1(e)))


# lambda(u) = g'(u)/g(u) per family, in mpmath from the closed forms:
# g = u (exp), u^(1/3) (exp_cubed), -log(expm1(e^-u)) (logistic)
MP_LAMBDA = {"exp": lambda u: 1 / u, "exp_cubed": lambda u: 1 / (3 * u),
             "logistic": _mp_logistic_lambda}


def recovery_point(spec, order_L, u0, hi):
    """u_star in (u0, hi], where F(u) = e^u lambda (1 + (1 + lambda/L)
    u0/u) climbs back to F(u0), by scipy's brentq. The bracket starts at
    u0 + 1e-6 max(1, u0), off the anchor, where log F - log F(u0) is
    exactly 0 and brentq would return u0 itself."""
    def log_f(u):
        lam = float(lambda_from_log_inv_loss(spec, u))
        return u + math.log(lam) + math.log1p((1.0 + lam / order_L) * u0 / u)

    return brentq(lambda u: log_f(u) - log_f(u0), u0 + 1e-6 * max(1.0, u0),
                  hi, xtol=1e-15)


def effective_margins(model, theta, dataset):
    """Margins the loss sums over, from one forward: q binary, q_tilde
    multi-class."""
    phi = model.forward(theta, dataset.X)[0]
    if dataset.is_binary:
        return dataset.y * phi[:, 0]
    return soft_margins(score_gaps(phi, *label_masks(dataset.y,
                                                     phi.shape[1])))


# Homogeneity self-checks, one sample and one output at a time.

def homogeneity_check(model, theta, x, alpha):
    """Residual of Phi(alpha*theta; x) == alpha^L * Phi(theta; x).

    alpha in [0.5, 2] is recommended to keep alpha^L well away from
    overflow for deep quadratic nets.
    """
    theta = np.asarray(theta, dtype=np.float64)
    base = walked(model, theta, x)[0]
    scaled = walked(model, alpha * theta, x)[0]
    resid = np.abs(scaled - alpha**model.order_L * base) / (1.0 + np.abs(base))
    return float(np.max(resid))


def _euler_worst(model, theta, x, part, k):
    """Worst relative residual of <theta[part], grad[part] Phi_j> == k * Phi_j
    over the outputs j, one one-hot seeded backward each."""
    theta = np.asarray(theta, dtype=np.float64)
    out, table, records = walked(model, theta, x)
    out = out[0]
    worst = 0.0
    for j, seed in enumerate(np.eye(out.size)):
        grad = backward(table, records, seed[None])
        inner = float(theta[part] @ grad[part])
        worst = max(worst, abs(inner - k * out[j]) / (1.0 + abs(out[j])))
    return worst


def euler_residual(model, theta, x):
    """Residual of the Euler identity <theta, grad Phi> == L * Phi."""
    return _euler_worst(model, theta, x, slice(None), model.order_L)


def block_euler_residual(model, theta, x, block_i):
    """Residual of the per-block identity <w_i, grad_{w_i} Phi> == k_i * Phi."""
    if not 0 <= block_i < len(model.blocks):
        raise IndexError(f"block index {block_i} out of range")
    block = model.blocks[block_i]
    return _euler_worst(model, theta, x, slice(block.start, block.stop), block.k)


def preactivations(model, theta, x):
    """Values entering each kinked nonlinearity; used to avoid kink probes."""
    _, _, records = walked(model, theta, x)
    outputs = iter(z for _, _, z in records)  # one per dense layer
    pre = []
    for layer in layers_of(model):
        if layer.kind == "dense":
            z = next(outputs)
        elif layer.kind in ("relu", "leaky_relu"):
            pre.append(z)
    return pre


def sample_smooth_probe(model, theta, rng, kink_tol=1e-8, max_tries=100):
    """Draw an input with every pre-activation magnitude above kink_tol.

    The Euler identity only holds a.e.; re-sampling keeps validator
    probes away from measure-zero kinks.
    """
    for _ in range(max_tries):
        x = rng.standard_normal(model.blocks[0].shape[0])
        pres = preactivations(model, theta, x)
        if all(np.min(np.abs(p)) > kink_tol for p in pres) or not pres:
            return x
    raise RuntimeError("could not find a smooth probe point")


def per_sample_grads(model, theta, X):
    """Per-sample gradients of the scalar output, one backward per row."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if model.num_outputs != 1:
        raise ValueError("per_sample_grads expects a single-output model")
    grads = np.empty((X.shape[0], model.param_count))
    for n in range(X.shape[0]):
        _, table, records = walked(model, theta, X[n])
        grads[n] = backward(table, records, np.ones((1, 1)))
    return grads


def margin_sandwich(spec, q_min, log_inv_loss, rho, order_L, n_samples):
    """Certified bracket (low, high) around gamma_tilde, high = gamma_bar.

    Mean-value form: gamma_bar - gamma_tilde = g'(xi) * gap / rho^L for
    some xi between max(f(b_f), f(q_min) - log N) and f(q_min), with
    gap <= log N. The unknown xi is replaced by the supremum of g' over
    that interval, sampled at 33 points; g' is monotone for every
    built-in family, so the endpoint grid attains the sup.
    """
    high = float(q_min) / rho**order_L
    if n_samples <= 1:
        return high, high
    log_n = float(np.log(n_samples))
    f_qmin = float(spec.f(q_min))
    lo_end = max(spec.f_at_bf, f_qmin - log_n)
    with np.errstate(divide="ignore"):
        sup_gp = float(np.max(spec.g_prime(np.linspace(lo_end, f_qmin, 33))))
    return high - sup_gp * log_n / rho**order_L, high


@dataclass
class Beta2Accumulator:
    """Running discrete form of the alignment integral: the sum of
    (beta^-2 - 1) dlog rho over steps is capped by the log-gain of the
    smoothed margin divided by the order."""

    order_L: float
    total: float = 0.0

    def update(self, beta, d_log_rho):
        self.total += (beta ** -2.0 - 1.0) * d_log_rho

    def bound_slack(self, log_tilde_start, log_tilde_end, tol=1e-6):
        """Nonnegative when the integral bound holds for this stretch."""
        cap = (log_tilde_end - log_tilde_start) / self.order_L
        return cap + tol - self.total


def _dual_ascent(z, iters, tol):
    """Projected gradient ascent on the box-free hard-margin dual
    max sum(mu) - mu' G mu / 2, mu >= 0, with G the Gram matrix of the
    signed features z; returns mu."""
    gram = z @ z.T
    step = 1.0 / float(np.linalg.norm(gram, 2))
    mu = np.zeros(z.shape[0])
    for _ in range(iters):
        nxt = np.maximum(0.0, mu + step * (1.0 - gram @ mu))
        if np.max(np.abs(nxt - mu)) < tol * max(1.0, float(np.max(nxt))):
            return nxt
        mu = nxt
    return mu


def svm_dual_projected_gradient(features, labels, *, iters=100_000,
                                tol=1e-14):
    """Independent route to the SVM oracle's optimum: projected gradient
    ascent on the box-free dual max sum(mu) - mu' G mu / 2, mu >= 0."""
    h = np.atleast_2d(np.asarray(features, dtype=np.float64))
    y = np.asarray(labels, dtype=np.float64)
    z = y[:, None] * h
    mu = _dual_ascent(z, iters, tol)
    w = z.T @ mu
    worst = float(np.min(z @ w))
    if worst < 0.5:  # dual diverges on infeasible data; catch it early
        raise NotSeparableError(
            f"dual iterate is far from feasibility (min margin {worst}); "
            "data looks inseparable in feature space")
    return w, 1.0 / float(np.linalg.norm(w))


def late_phase_asymptote(features, labels, support_tol=1e-8):
    """(w_hat, w_tilde) of the linear flow's late phase on separable data
    under an exp-tailed loss summed over samples: theta(t) = w_hat log t +
    w_tilde + o(1) (Soudry et al., JMLR 19 (2018), Theorem 3). The support
    set S is where the dual ascent leaves mu above support_tol; the duals
    alpha then solve G_SS alpha = 1 exactly, w_hat = sum_S alpha_n z_n is
    the hard-margin SVM solution, and w_tilde is the least-norm solution
    of z_n . w_tilde = -log alpha_n on S."""
    h = np.atleast_2d(np.asarray(features, dtype=np.float64))
    z = np.asarray(labels, dtype=np.float64)[:, None] * h
    s = np.flatnonzero(_dual_ascent(z, 100_000, 1e-15) > support_tol)
    alpha = np.linalg.solve(z[s] @ z[s].T, np.ones(s.size))
    w_tilde, *_ = np.linalg.lstsq(z[s], -np.log(alpha), rcond=None)
    return z[s].T @ alpha, w_tilde


def make_custom(name, f, f_prime, b_f, K, b_g, p):
    """Wrap a user (f, f') pair and its tail constants; g is obtained by
    bracketed root finding.

    Bisection tolerance 1e-12 relative. g' comes from the inverse rule
    g'(x) = 1/f'(g(x)).
    """
    f_at_bf = float(f(b_f))

    def g_scalar(x):
        if x <= f_at_bf:
            return float(b_f)
        hi = max(b_f + 1.0, 1.0)
        while f(hi) < x:
            hi *= 2.0
            if hi > 1e300:
                raise LossDomainError(f"{name}: g({x}) bracket expansion failed")
        return float(brentq(lambda q: f(q) - x, b_f, hi, rtol=1e-12, maxiter=200))

    def g_pair(x):
        x = np.asarray(x, dtype=np.float64)
        if np.any(x < f_at_bf - 1e-9):
            raise LossDomainError(f"{name}: g below f(b_f) = {f_at_bf}")
        g = np.vectorize(g_scalar, otypes=[np.float64])(x) + 0.0
        return g, 1.0 / f_prime(g)

    return LossSpec(name, lambda q: (f(q), f_prime(q)), g_pair, b_f=b_f, K=K,
                    b_g=b_g, p=p)


# The flow's bound monitors one state at a time, nu through scalar
# g/g' calls: the batched gradflow versions must reproduce these bits.

def stepwise_nu_lower_slack(x, V, spec):
    """log V - log(g/g')(x) at one state."""
    bound = float(spec.g(x) / spec.g_prime(x))
    if bound <= 0.0:
        return math.inf
    return math.log(V) - math.log(bound)


class StepwiseLossUpperBound:
    """log G(1/loss) accumulated one segment per call."""

    def __init__(self, spec, order_L, x0, log_tilde0, t0):
        self.spec = spec
        self.order_L = order_L
        self.x_last = x0
        self.log_G = -math.inf
        self.t0 = t0
        self.log_rhs_scale = (2.0 * math.log(order_L)
                              + (2.0 / order_L) * log_tilde0)

    def _log_integrand(self, v):
        return (v + 2.0 * np.log(self.spec.g_prime(v))
                - (2.0 - 2.0 / self.order_L) * np.log(self.spec.g(v)))

    def update(self, x_new, subdiv=8):
        if x_new <= self.x_last:
            return self.log_G
        v = np.linspace(self.x_last, x_new, subdiv + 1)
        fv = self._log_integrand(v)
        h = (x_new - self.x_last) / subdiv
        weights = np.full(subdiv + 1, h)
        weights[0] = weights[-1] = h / 2.0
        # the largest terms split off and the rest summed through log1p,
        # as scipy.special.logsumexp does
        f_max = float(fv.max())
        terms = np.exp(fv - f_max)
        terms *= weights
        top = fv == f_max
        top_sum = np.sum(terms * top)
        terms[top] = 0.0
        rest = np.sum(terms) / top_sum
        seg = float(np.log1p(rest) + np.log(top_sum) + f_max)
        self.log_G = float(np.logaddexp(self.log_G, seg))
        self.x_last = x_new
        return self.log_G

    def slack(self, t):
        if t <= self.t0:
            return math.inf
        return self.log_G - self.log_rhs_scale - math.log(t - self.t0)


# The margin monitors one state at a time, inside the step loop: every
# loss read is a one-number call and the margin curve's T comes from a
# one-slot cache. The post-loop passes of `run_flow` and `train_gd` must
# reproduce these bits.

def record_fields(records):
    """Each record's keys in order, with the bits of its float values."""
    return [[(k, np.float64(v).view(np.int64).item()
              if isinstance(v, float) else v) for k, v in rec.items()]
            for rec in records]


def stepwise_log_tilde(spec, x, rho, order_L):
    """log g(x) - L log rho at one state; -inf where g(x) <= 0."""
    g = float(spec.g(x))
    if g <= 0.0:
        return -math.inf
    return math.log(g) - order_L * math.log(rho)


def weight_growth_residual(x0, v0, x1, v1, delta_rho_sq, dt_scaled,
                           order_L):
    """Relative residual of d(rho^2)/dt == 2 L nu across one step from
    (x0, V0) to (x1, V1).

    Both sides carry a factor exp(-x0) which cancels: the left side is
    delta_rho_sq / dt_scaled, the right the trapezoid of 2 L V e^{x0-x}.
    """
    lhs = delta_rho_sq / dt_scaled
    rhs = order_L * (v0 + math.exp(x0 - x1) * v1)
    if rhs == 0.0:
        return math.inf
    return abs(lhs - rhs) / abs(rhs)


class StepwiseFlowMonitors:
    """The flow's invariant monitors as its step loop took them, one state
    (x, rho, t, V, ||delta theta_hat||, delta rho^2, dt_scaled) per
    `push`, the last three of the step into it, from the first separated
    state on; `push` returns the state's log tilde."""

    def __init__(self, spec, order_L):
        self.spec, self.order_L = spec, order_L
        self.monitors = {k: [] for k in ("growth_residual", "margin_slack",
                                         "nu_slack", "d_log_tilde",
                                         "upper_slack")}
        self.bound = self.log_tilde0 = self.prev = None

    def push(self, x, rho, t, V, d_hat, delta_rho_sq, dt_scaled):
        spec, L, mon = self.spec, self.order_L, self.monitors
        lt = stepwise_log_tilde(spec, x, rho, L)
        if self.bound is None:
            self.bound = StepwiseLossUpperBound(spec, L, x, lt, t)
        elif self.prev[2] > spec.f_at_bf:
            prev_lt, prev_rho, prev_x, prev_v = self.prev
            mon["growth_residual"].append(weight_growth_residual(
                prev_x, prev_v, x, V, delta_rho_sq, dt_scaled, L))
            d = lt - prev_lt
            d_log_rho = math.log(rho) - math.log(prev_rho)
            if d_hat == 0.0:
                slack = d
            elif d_log_rho <= 0.0:
                slack = math.inf
            else:
                slack = d - L * d_hat**2 / d_log_rho
            mon["margin_slack"].append(slack)
            mon["d_log_tilde"].append(d)
            mon["nu_slack"].append(stepwise_nu_lower_slack(x, V, spec))
            if math.isfinite(t):
                self.bound.update(x)
                mon["upper_slack"].append(self.bound.slack(t))
        if (self.log_tilde0 is None and math.isfinite(lt)
                and x > spec.f_at_bf):
            self.log_tilde0 = lt
        self.prev = lt, rho, x, V
        return lt


def stepwise_run_flow(model, theta0, dataset, spec, *, targets, step_tol,
                      record_every):
    """`run_flow`'s result with every monitor taken inside the step loop;
    it ends at the first state at or past every target."""
    L = model.order_L
    records = []
    stepwise = StepwiseFlowMonitors(spec, L)
    watching = False

    def record(st):
        rec = {"t": st.t, "step": st.steps, "log_inv_loss": st.ev.x,
               "rho": st.ev.rho, "q_min": float(np.min(st.ev.q)),
               "beta": st.ev.beta, "nu_rel": st.ev.V}
        stepwise_margin_fields(rec, spec, L)
        records.append(rec)

    for state, info in gradflow.flow_states(model, theta0, dataset, spec,
                                            step_tol=step_tol):
        ev = state.ev
        watching = watching or ev.x > spec.f_at_bf
        if watching:
            step = ((0.0, 0.0, 1.0) if info is None else
                    (info.delta_theta_hat, info.delta_rho_sq, info.dt_scaled))
            stepwise.push(ev.x, ev.rho, state.t, ev.V, *step)
        if state.steps % record_every == 0:
            record(state)
        if ev.x >= max(targets):
            break
    if records[-1]["step"] != state.steps:
        record(state)
    return {"state": state, "records": records,
            "monitors": stepwise.monitors, "log_tilde0": stepwise.log_tilde0}


def stepwise_margin_fields(rec, spec, order_L):
    """A separated record's log tilde, where finite, and bar gamma, from
    one-number loss calls."""
    if rec["log_inv_loss"] > spec.f_at_bf:
        log_tilde = stepwise_log_tilde(spec, rec["log_inv_loss"],
                                       rec["rho"], order_L)
        if log_tilde > -math.inf:
            rec["log_tilde"] = log_tilde
        rec["bar_gamma"] = gradflow._bar_gamma(rec["q_min"], rec["rho"],
                                               order_L)


class OneSlotCorrection:
    """The margin curve's T one u per call, kept in a one-slot cache: a
    larger u adds the mass removed since the cached one, the same u
    reuses it and a smaller one integrates its tail afresh."""

    def __init__(self, curve):
        self.curve = curve
        self.u = self.t = None

    def __call__(self, u):
        curve = self.curve
        if u < curve.u0 - 1e-9:
            raise LossDomainError(f"phi evaluated at u={u} above the anchor "
                                  f"loss (u0={curve.u0})")
        u = max(u, curve.u0)
        if self.u is None or u < self.u:
            t = curve._removed(u, np.inf)
        elif u == self.u:
            return self.t
        else:
            t = self.t - curve._removed(self.u, u)
        self.u, self.t = u, t
        return t


def stepwise_train_gd(model, theta0, dataset, spec, b, *, epochs, alpha0,
                      mode, s5_guard, guard_safety):
    """`train_gd`'s result with every monitor, log kappa, lambda, log
    gamma_hat and log tilde taken at its epoch inside the step loop."""
    L = model.order_L
    evaluator = Evaluator(model, dataset, spec)
    ev = evaluate_point(evaluator, np.asarray(theta0, dtype=np.float64))
    alpha, log_sum_eta = alpha0, -math.inf
    mstate = correction = log_hat_prev = abort = None
    records, flagged_epochs = [], []
    monitors = {k: [] for k in (
        "rho_identity", "p2_lower", "p2_upper", "p3_slack", "p4_slack",
        "grad_bound", "s5_log_ratio", "euler_gap")}

    def one_log_kappa(x):
        return float(gdtrain.log_kappa(spec, [x], mstate.order_L,
                                       mstate.u_kappa)[0])

    def log_gamma_hat(x, log_rho):
        log_g = float(np.log(spec.g(x)))
        return log_g + correction(x) - mstate.order_L * log_rho

    def maybe_separate():
        nonlocal mstate, correction, log_hat_prev, abort
        if (mstate is None and abort is None and b is not None
                and ev.x > spec.f_at_bf + 1e-12):
            try:
                mstate = gdtrain.GdMarginState(spec, L, ev, b)
            except gdtrain.MarginStateError as err:
                abort = str(err)
                return
            correction = OneSlotCorrection(mstate)
            correction(ev.x)  # the anchor's own T, as its constructor took it
            log_hat_prev = log_gamma_hat(ev.x, math.log(ev.rho))

    maybe_separate()
    for epoch in range(epochs):
        if abort is not None:
            break
        prev_ev, cap, log_k = ev, math.inf, None
        if s5_guard and mstate is not None:
            log_k = one_log_kappa(ev.x)
            cap = guard_safety * math.exp(mstate.log_h(ev.x, log_k) - ev.x)
        last = None

        def trial(a):
            nonlocal last
            a = min(a, cap)
            if last is None or last[1] != a:
                try:
                    with np.errstate(over="ignore"):
                        last = (evaluate_point(evaluator,
                                               gdtrain.gd_step(prev_ev, a)), a)
                except NonFiniteError:
                    last = (None, a)
            return (-math.inf if last[0] is None else last[0].x), last

        if mode == "loss_based":
            alpha, accepted, outcome = gdtrain.loss_based_lr_epoch(
                alpha, ev.x, trial)
            if outcome.flagged:
                flagged_epochs.append(epoch)
                records.append({"epoch": epoch, "flagged": True,
                                "alpha": alpha, "retries": outcome.retries,
                                "log_inv_loss": ev.x})
                break
        else:
            accepted = trial(alpha)[1]
            outcome = gdtrain.EpochOutcome(0, False)
            if accepted[0] is None:
                abort = f"alpha = {alpha:.6g} overflowed at epoch {epoch}"
                break

        ev, c = accepted
        log_eta = math.log(c) + prev_ev.x
        log_sum_eta = float(np.logaddexp(log_sum_eta, log_eta))
        anchored = mstate is not None
        maybe_separate()
        s5 = None
        if (mstate is not None and prev_ev.x >= mstate.u0 - 1e-12
                and ev.x <= 1e6):
            if log_k is None:
                log_k = one_log_kappa(prev_ev.x)
            s5 = log_eta - mstate.log_h(prev_ev.x, log_k)
            monitors["s5_log_ratio"].append(s5)
            theta_dot_g = float(prev_ev.theta @ prev_ev.G)
            drho2 = ev.rho**2 - prev_ev.rho**2
            predicted = 2.0 * c * theta_dot_g + c**2 * prev_ev.g_norm**2
            scale = max(abs(drho2), abs(predicted), 1e-300)
            monitors["rho_identity"].append(abs(drho2 - predicted) / scale)
            gap = theta_dot_g / L - prev_ev.V
            monitors["euler_gap"].append(
                gap / max(abs(theta_dot_g) / L, 1e-300))
            monitors["p2_lower"].append(
                (drho2 - 2.0 * c * L * prev_ev.V) / scale)
            lam = float(mstate._lam(prev_ev.x))
            mu = mstate.mu(prev_ev.x)
            if s5 <= 0.0:
                monitors["p2_upper"].append(
                    (2.0 * c * theta_dot_g * (1.0 + lam * mu / L) - drho2)
                    / scale)
                monitors["p3_slack"].append(
                    1.0 - (1.0 - mu) * c * prev_ev.g_norm**2
                    - math.exp(prev_ev.x - ev.x))
            if prev_ev.g_norm > 0.0:
                monitors["grad_bound"].append(
                    math.log(2.0 * mstate.c_eta) + log_k
                    - (2.0 * math.log(prev_ev.g_norm) - prev_ev.x))
            if ev.x >= mstate.u0 - 1e-12:
                log_hat = log_gamma_hat(ev.x, math.log(ev.rho))
                if log_hat_prev is not None and s5 <= 0.0:
                    u_g = prev_ev.G - (theta_dot_g / prev_ev.rho**2) \
                        * prev_ev.theta
                    rhs = (L * prev_ev.rho**2 * float(u_g @ u_g)
                           / theta_dot_g**2
                           * (math.log(ev.rho) - math.log(prev_ev.rho)))
                    monitors["p4_slack"].append(log_hat - log_hat_prev - rhs)
                log_hat_prev = log_hat
            else:
                log_hat_prev = None
        elif anchored:  # an unmonitored end past the anchor: no gamma_hat
            log_hat_prev = None

        rec = {"epoch": epoch, "alpha": c, "retries": outcome.retries,
               "flagged": False, "log_inv_loss": ev.x,
               "log10_loss": -ev.x / math.log(10.0), "rho": ev.rho,
               "q_min": float(np.min(ev.q)), "log_sum_eta": log_sum_eta,
               "beta": ev.beta}
        if s5 is not None:
            rec["s5_log_ratio"] = s5
        if log_hat_prev is not None:
            rec["log_hat"] = log_hat_prev
        stepwise_margin_fields(rec, spec, L)
        records.append(rec)
    return {"ev": ev, "alpha": alpha, "records": records,
            "monitors": monitors, "margin_state": mstate,
            "flagged_epochs": flagged_epochs,
            "log_sum_eta": log_sum_eta, "abort": abort}


# The dense-chain kernel and the point evaluation over a layer list
# (`layers_of`): the layers are dispatched on their kind at every call,
# f and f' come from two loss calls (the two-branch logistic forms
# above), and the class masks are built per call.

def _layer_walk_derivative(kind, z, alpha):
    z = np.asarray(z, dtype=np.float64)
    if kind == "relu":
        return z > 0.0
    if kind == "leaky_relu":
        return np.where(z > 0.0, 1.0, alpha)
    raise ValueError(kind)


def _layer_walk_adjoints(layers, adj):
    for i in range(len(layers) - 1, -1, -1):
        kind, h, w, offset = layers[i]
        if kind == "dense":
            yield h, adj, offset, w.shape[-2] * w.shape[-1]
            if i:
                adj = adj @ w.swapaxes(-1, -2)
        elif kind == "square":
            adj = 2.0 * h * adj
        else:
            adj = _layer_walk_derivative(kind, h, w) * adj


def layer_walk_forward(graph, params, x):
    """(out, cache) of the forward pass over `graph` itself; the cache is
    (param count, one (kind, input, weight view or alpha, offset) record
    per layer, squeeze, out)."""
    params = np.asarray(params, dtype=np.float64)
    lead = params.shape[:-1]
    h = np.asarray(x, dtype=np.float64)
    single = h.ndim == 1
    if single:
        h = h[None, :]
    layers = []
    for layer in graph:
        kind = layer.kind
        if kind == "dense":
            if h.shape[-1] != layer.in_dim:
                raise ValueError(f"op 'dense': expected input dim "
                                 f"{layer.in_dim}, got {h.shape}")
            w = params[..., layer.offset:layer.offset
                       + layer.in_dim * layer.out_dim]
            w = w.reshape(lead + (layer.in_dim, layer.out_dim))
            layers.append((kind, h, w, layer.offset))
            h = h @ w
            continue
        layers.append((kind, h, layer.alpha, layer.offset))
        if kind == "relu":
            h = np.maximum(h, 0.0)
        elif kind == "leaky_relu":
            h = np.where(h > 0.0, h, layer.alpha * h)
        elif kind == "square":
            h = h * h
        else:
            raise ValueError(f"unknown activation {kind!r}")
    squeeze = h.shape[-1] == 1
    if squeeze:
        h = h[..., 0]
    if not np.isfinite(h).all():
        raise NonFiniteError("forward pass produced non-finite output")
    cache = (params.shape[-1], layers, squeeze, h)
    if single:
        return (h[:, 0] if lead else h[0]), cache
    return h, cache


def layer_walk_backward(cache, seed=1.0):
    param_count, layers, squeeze, out = cache
    adj = np.asarray(seed, dtype=np.float64)
    if not np.isfinite(adj).all():
        raise NonFiniteError("backward pass got a non-finite seed")
    if adj.shape != out.shape:
        adj = np.broadcast_to(adj, out.shape).astype(np.float64)
    if squeeze:
        adj = adj[:, None]
    grad = np.zeros(param_count)
    for h, delta, offset, size in _layer_walk_adjoints(layers, adj):
        grad[offset:offset + size] += (h.T @ delta).ravel()
    if not np.isfinite(grad).all():
        raise NonFiniteError("backward pass produced non-finite gradient")
    return grad


def layer_walk_grad_norms(cache):
    """per_sample_grad_norms from a layer_walk_forward cache."""
    _, layers, _, out = cache
    sq_norms = np.zeros(out.shape)
    for h_in, delta, _, _ in _layer_walk_adjoints(layers,
                                                  np.ones(out.shape + (1,))):
        sq_norms += np.einsum("...bi,...bi->...b", h_in, h_in) * np.einsum(
            "...bo,...bo->...b", delta, delta)
    return np.sqrt(sq_norms)


def negated_inv_loss_weights(fq):
    """(x, w) of `margin._inv_loss_weights` in the form it had before it
    dropped the negated copy: the log-sum-exp of -fq about its max."""
    neg_fq = -fq
    neg_m = float(neg_fq.max())
    w = np.exp(neg_fq - neg_m)
    x = -(neg_m + math.log(float(w.sum())))
    w *= math.exp(x + neg_m)
    return x, w


def two_call_point(model, theta, dataset, spec):
    """(x, q, weights, fprime, G, V) of `evaluate_point`, computed over
    the layer list with f and f' from two loss calls."""
    if spec.name in ("logistic", "cross_entropy"):
        f, f_prime = logistic_f, logistic_f_prime
    elif spec.name == "exp":
        f, f_prime = spec.f, exp_f_prime
    else:
        f, f_prime = spec.f, spec.f_prime
    phi, cache = layer_walk_forward(layers_of(model), theta, dataset.X)
    phi = np.atleast_1d(phi)
    y = dataset.y
    if dataset.is_binary:
        q = q_eff = y * phi
    else:
        n, c = phi.shape
        rows = np.arange(n)
        mask = np.ones((n, c), dtype=bool)
        mask[rows, y] = False
        gaps = phi[rows, y][:, None] - phi[mask].reshape(n, c - 1)
        q = np.min(gaps, axis=1)
        q_eff = soft_margins(gaps)
    x, w = negated_inv_loss_weights(f(q_eff))
    fp = f_prime(q_eff)
    wfp = w * fp
    if dataset.is_binary:
        seed = wfp * y
        qv = q_eff
    else:
        pi = np.exp(q_eff[:, None] - gaps)
        qv = np.sum(pi * gaps, axis=1)
        seed = np.zeros(phi.shape)
        seed[mask] = (-wfp[:, None] * pi).ravel()
        seed[rows, y] = wfp
    G = layer_walk_backward(cache, seed)
    return x, q, w, fp, G, float(np.sum(wfp * qv))


def _reference_run(table, dataset, spec, masks):
    """(x, G, q, q_eff, w, f', w f', None or (pi, gaps)) of the bound
    table in the evaluation order of the flow's evaluator before its
    lean step: exp's f' as an array of ones multiplied into w, the
    log-sum-exp of the negated copy -fq, and G copied out of the
    gradient buffer with + 0.0 at every evaluation, RK stages included."""
    phi, records = walk(table, dataset.X)
    if dataset.is_binary:
        q = q_eff = dataset.y_float * phi[:, 0]
    else:
        on, off = masks
        gaps = score_gaps(phi, on, off)
        q = np.min(gaps, axis=1)
        q_eff = soft_margins(gaps)
    fq, fp = spec.f_pair(q_eff)
    if spec.name == "exp":
        fp = exp_f_prime(q_eff)
    x, w = negated_inv_loss_weights(fq)
    wfp = w * fp
    if dataset.is_binary:
        seed = (wfp * dataset.y_float).reshape(-1, 1)
        split = None
    else:
        pi = np.exp(q_eff[:, None] - gaps)
        split = pi, gaps
        seed = np.zeros(phi.shape)
        seed[off] = (-wfp[:, None] * pi).ravel()
        seed[on] = wfp
    G = backward(table, records, seed) + 0.0
    return x, G, q, q_eff, w, fp, wfp, split


def reference_flow_states(model, theta0, dataset, spec, step_tol):
    """`flow_states` in the evaluation order before its lean step: every
    evaluation runs `_reference_run` on a table bound to its own buffer,
    and every `PointEval` is built inside an errstate of its own. Yields
    (t, x, theta, G) per state, the start included; it stops where the
    package's flow does, but for MAX_STEPS."""
    buf = np.empty(model.param_count)
    table = layers(model.blocks, buf)
    masks = (None if dataset.is_binary
             else label_masks(dataset.y, model.num_outputs))

    def point(theta):
        np.copyto(buf, theta)
        x, G, q, q_eff, w, fp, wfp, split = _reference_run(
            table, dataset, spec, masks)
        qv = q_eff if split is None else np.sum(np.multiply(*split), axis=1)
        with np.errstate(over="ignore"):
            return PointEval(x, G, q, q_eff, w, fp,
                             float(np.add.reduce(wfp * qv)), theta)

    def stage(theta0, c, k):
        np.multiply(k, c, out=buf)
        np.add(buf, theta0, out=buf)
        return _reference_run(table, dataset, spec, masks)[:2]

    t, ev = 0.0, point(np.asarray(theta0, dtype=np.float64))
    dt_scaled = gradflow.propose_dt_scaled(ev, step_tol)
    while True:
        yield t, ev.x, ev.theta, ev.G
        if ev.g_norm == 0.0 or dt_scaled == 0.0:
            return
        theta0, x0 = ev.theta, ev.x
        cap = step_tol * max(1.0, abs(x0))
        halvings = 0
        with np.errstate(over="ignore", invalid="ignore"):
            while True:
                try:
                    x2, g2 = stage(theta0, dt_scaled / 2, ev.G)
                    u2 = (2.0 * math.exp(min(x0 - x2, 50.0))) * g2
                    x3, g3 = stage(theta0, dt_scaled / 4, u2)
                    u3 = (2.0 * math.exp(min(x0 - x3, 50.0))) * g3
                    x4, g4 = stage(theta0, dt_scaled / 2, u3)
                    dtheta = u2
                    dtheta += ev.G
                    dtheta += u3
                    dtheta += math.exp(min(x0 - x4, 50.0)) * g4
                    dtheta *= dt_scaled / 6.0
                    ev1 = point(theta0 + dtheta)
                    dx = ev1.x - x0
                    if abs(dx) <= cap and dx >= -1e-9:
                        break
                except NonFiniteError:
                    dx = math.nan
                halvings += 1
                if halvings > gradflow.MAX_HALVINGS:
                    raise FlowAbort(f"step rejected at x={x0}")
                dt_scaled /= 2.0
        gain = min(2.0, max(0.5, 0.6 * cap / max(abs(dx), cap / 100.0)))
        t += dt_scaled * math.exp(x0) if x0 < 700.0 else math.inf
        dt_scaled = dt_scaled * math.exp(x0 - ev1.x) * gain
        ev = ev1
