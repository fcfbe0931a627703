"""Gradient descent with loss-based learning rates and margin certificates.

Late-phase GD drives the loss to e^{-hundreds}, so the raw quantities
(loss, gradient, learning rate) leave float64 range. Everything is
carried in the relative frame of the epoch start: with x = log(1/loss)
and G = e^x (-grad loss) there, both order one, the loss-based step
theta' = theta - eta grad loss with eta = alpha / loss reads exactly
theta' = theta + alpha G.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import NonFiniteError, backward, walk
from .datasets import Dataset
from .gradflow import Evaluator, PointEval, evaluate_point, margin_fields
from .losses import LossDomainError, LossSpec
from .models import HomogeneousModel

R_UP = 2.0 ** (1.0 / 5.0)
R_DOWN = 2.0 ** (1.0 / 10.0)
# shrinks of alpha before the schedule abandons an epoch
MAX_RETRIES = 60


def gd_step(ev: PointEval, alpha: float) -> np.ndarray:
    """One descent step theta' = theta + alpha G from ev, the evaluation
    at theta: exactly theta - eta grad(loss) for eta = alpha / loss."""
    if alpha == 0.0:
        return ev.theta
    return ev.theta + alpha * ev.G


def gd_step_direct(evaluator: Evaluator, theta: np.ndarray,
                   alpha: float) -> np.ndarray:
    """theta - eta grad(mean loss), eta = alpha / mean loss, through
    plain float64 and one walk of the evaluator's table, no frame.

    Only valid while the mean loss stays above ~1e-290; used to check
    that the relative frame changes nothing but the arithmetic path.
    """
    dataset, table = evaluator.dataset, evaluator.layers
    if not dataset.is_binary:
        raise NotImplementedError("direct path exercises binary models")
    np.copyto(evaluator.theta, theta)
    phi, records = walk(table, dataset.X)
    q = dataset.y_float * phi[:, 0]
    fq, fp = evaluator.spec.f_pair(q)
    loss = np.exp(-fq)
    eta = alpha / float(np.mean(loss))
    seed = loss * fp * dataset.y_float / dataset.n
    grad = -(backward(table, records, seed.reshape(-1, 1)) + 0.0)
    return theta - eta * grad


@dataclass(frozen=True)
class EpochOutcome:
    retries: int
    flagged: bool


def loss_based_lr_epoch(alpha: float, x_start: float, trial):
    """One epoch of the accept-or-retry loss-based schedule.

    trial(alpha) runs the epoch from its starting point, where
    log(1/loss) = x_start, and returns (x, candidate) with x the
    log(1/loss) it reached. On improvement the candidate is kept and
    alpha grows by R_UP; otherwise alpha shrinks by R_DOWN and the epoch
    is retried, up to MAX_RETRIES times, after which it is abandoned and
    flagged. Returns (next alpha, candidate or None, EpochOutcome).
    """
    for retry in range(MAX_RETRIES + 1):
        x, candidate = trial(alpha)
        if x > x_start:
            return alpha * R_UP, candidate, EpochOutcome(retry, False)
        alpha /= R_DOWN
    return alpha, None, EpochOutcome(MAX_RETRIES + 1, True)


# GD margin gamma_hat = e^{phi(loss)} / rho^L. phi is a fixed curve
# determined by the loss family, the order L, and the log-loss u0 at
# the first separated epoch; it damps log g(x) just enough to absorb
# the second-order discretization error allowed by (S5).

# 10-point Gauss-Legendre on [-1, 1]: nodes +-_X, weights _W (A&S 25.4.30)
_X = np.array([0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
               0.8650633666889845, 0.9739065285171717])
_W = np.array([0.29552422471475287, 0.26926671930999635, 0.21908636251598204,
               0.1494513491505806, 0.06667134430868814])
_X, _W = np.r_[-_X[::-1], _X], np.r_[_W[::-1], _W]
_NODES = np.concatenate([_X, 0.5 * (_X - 1.0), 0.5 * (_X + 1.0)])
_WEIGHTS = np.kron([[1.0, 0.0], [0.0, 0.5], [0.0, 0.5]], _W[:, None])


def _integrate(fn, a: float, b: float) -> float:
    """int_a^b fn for an fn of arrays, 0 when b <= a; b = inf is mapped
    by u = a + t / (1 - t). A piece is kept once its Gauss sums on itself
    and on its halves agree within its share of max(1e-13, 1e-12 |I|)
    (QUADPACK's tolerances); the rest are bisected, up to 400 pieces."""
    if not a < b:
        return 0.0
    if b == math.inf:
        fn, a, b = (lambda t, f=fn, a=a: f(a + t / (1.0 - t))
                    / (1.0 - t) ** 2), 0.0, 1.0
    lo, half, kept, pieces = np.array([a]), np.array([0.5 * (b - a)]), 0.0, 1
    while True:  # every piece's 30 nodes in one call of fn
        mid = lo + half
        coarse, fine = half * (fn(mid[:, None] + half[:, None] * _NODES)
                               @ _WEIGHTS).T
        tol = max(1e-13, 1e-12 * abs(kept + fine.sum())) / (b - a)
        ok = np.abs(fine - coarse) <= 2.0 * tol * half
        kept += fine[ok].sum()
        pieces += np.count_nonzero(~ok)
        if ok.all() or pieces > 400:
            return float(kept + fine[~ok].sum())
        lo, half = np.r_[lo[~ok], mid[~ok]], np.tile(half[~ok] / 2, 2)


class PhiCurve:
    """phi(u) = log g(u) + T(u) in u = log(1/loss) coordinates.

    T(U) = int_U^inf (lambda(u) - e^{-u} M(u)) du where M is the
    running max of F(u) = e^u lambda(u) (1 + 2(1 + lambda/L) mu(u)),
    lambda = g'/g and mu(u) = u0/(2u). F dips at most once before
    climbing like e^u, so M is F(u0) up to the recovery point u_star
    and equals F beyond; past u_star the integrand reduces to
    -2 lambda mu (1 + lambda/L).
    """

    def __init__(self, spec: LossSpec, order_L: float, u0: float):
        if u0 <= spec.f_at_bf:
            raise LossDomainError(
                f"anchor log(1/loss) = {u0} not separated for {spec.name}")
        self.spec, self.order_L, self.u0 = spec, float(order_L), float(u0)
        self._log_f0 = self._log_F(self.u0)
        self.u_star = self._find_recovery()

    def _lam(self, u):
        g, g_prime = self.spec.g_pair(u)
        return g_prime / g

    def mu(self, u):
        return self.u0 / (2.0 * u)

    def _log_F(self, u):
        lam = self._lam(u)
        return (u + np.log(lam)
                + np.log1p(2.0 * (1.0 + lam / self.order_L) * self.mu(u)))

    def _find_recovery(self) -> float:
        """u_star, where F regains F(u0), by bisection; u0 if F never dips."""
        f0 = self._log_f0
        lo, hi = self.u0 + 1e-6 * max(1.0, self.u0), self.u0 + 200.0
        if self._log_F(lo) >= f0:
            return self.u0  # F climbs from the start; M == F everywhere
        if self._log_F(hi) < f0:
            raise RuntimeError("F(u) failed to recover; loss family "
                               "violates the single-dip assumption")
        while hi - lo > 1e-13 + 1e-15 * hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if self._log_F(mid) < f0 else (lo, mid)
        return 0.5 * (lo + hi)

    def _tail_integrand(self, u):
        lam = self._lam(u)
        return -2.0 * lam * self.mu(u) * (1.0 + lam / self.order_L)

    def _dip_integrand(self, u):
        return self._lam(u) - np.exp(self._log_f0 - u)

    def _removed(self, a: float, b: float) -> float:
        """int_a^b iota: the dip integrand below u_star, the tail above."""
        m = min(max(a, self.u_star), b)
        return (_integrate(self._dip_integrand, a, m)
                + _integrate(self._tail_integrand, m, b))

    def correction(self, us) -> list[float]:
        """T(u) <= 0, the log-gap between gamma_hat and tilde margin, at
        each u of us in turn: a u above the last subtracts the mass
        removed between them, a repeat reuses T, and a u below it
        (constant-alpha GD can move back up the loss) starts afresh."""
        out, last = [], None
        for u in us:
            if u < self.u0 - 1e-9:
                raise LossDomainError(f"phi evaluated at u={u} above the "
                                      f"anchor loss (u0={self.u0})")
            u = max(u, self.u0)
            if last is None or u < last:
                t = self._removed(u, np.inf)
            elif u > last:
                t -= self._removed(last, u)
            out.append(t)
            last = u
        return out


def _log_kappa_h(spec: LossSpec, us: np.ndarray, order_L: float):
    return (-us + (2.0 - 2.0 / order_L) * np.log(us)
            - 2.0 * np.log(spec.g_prime(us)))


def _kappa_peak(spec: LossSpec, order_L: float) -> float:
    """u_kappa to 1e-13: h at 64 inner points, then in the best's gaps."""
    lo, hi = spec.f_at_bf, spec.f_at_bf + 60.0
    while hi - lo > 1e-13 * (1.0 + abs(hi)):
        us = np.linspace(lo, hi, 66)
        i = int(np.argmax(_log_kappa_h(spec, us[1:-1], order_L)))
        lo, hi = us[i], us[i + 2]
    return float(0.5 * (lo + hi))


def log_kappa(spec: LossSpec, xs, order_L: float,
              u_kappa: float) -> np.ndarray:
    """log of the (S5) smoothness scale sup_{u >= x} e^{-u} u^c / g'(u)^2,
    c = 2 - 2/L, at each x of the column xs: h(max(x, u_kappa)),
    h(u) = -u + c log u - 2 log g'(u).

    h is concave: h' = -1 + c/u - 2 (log g')' falls for L >= 1 (c >= 0),
    as the last term does: 0 for exp (g' = 1), so u_kappa = c; 4/(3u) for
    exp_cubed (g' = u^(-2/3)/3), so u_kappa = c + 4/3; 2(1 - v/(e^v - 1)),
    v = e^-u, for logistic and cross_entropy (g' = v e^v/(e^v - 1)), which
    falls as v does, so u_kappa is the root of h', or f(b_f) where h' < 0
    (L = 1). `_kappa_peak` finds u_kappa in [f(b_f), f(b_f) + 60] once per
    margin state and never takes h at an end, where exp at L = 1 has 0 log 0;
    h is taken by array ufuncs, as numpy's scalar ones can differ in the
    last bit, so one x is passed as a one-element column."""
    us = np.maximum(np.asarray(xs, dtype=np.float64), u_kappa)
    return _log_kappa_h(spec, us, order_L)


@dataclass(frozen=True)
class BConstants:
    """Unit-sphere suprema of the margin, its gradient norm and its
    curvature. b0 and b1 are exact (sphere_sups); b2 is sampled, and a
    sample can only undershoot a supremum."""

    b0: float  # sup q_n over the sphere
    b1: float  # sup ||grad q_n||
    b2: float  # sup ||hess q_n|| (directional probes)
    n_sphere: int
    n_curvature: int


def sphere_sups(model: HomogeneousModel, X: np.ndarray) -> tuple[float, float]:
    """(B0, B1): the sups over unit-norm theta and the rows x of X of
    |Phi(theta; x)| and ||grad_theta Phi(theta; x)||, in closed form.

    With h_0 = x, h_b = s(W_b h_{b-1}) and n_b = ||W_b||_F, every
    activation has |s(z)| <= g|z|^r and |s'(z)| <= r g|z|^(r-1) per unit
    (r = 2 for a square, else 1; gain g = max(1, |alpha|)). Unrolled,
    |Phi| <= M = G ||x||^p prod_b n_b^k_b, with k_b the declared block
    exponents, p = k_1 and G the product of the gains; the backward
    recursion gives ||dPhi/dW_b|| = ||delta_b|| ||h_{b-1}|| <= k_b M/n_b.
    Split block b into k_b slots of value s = n_b^2 / k_b: L slots that
    sum to ||theta||^2 = 1. With P = prod_b k_b^k_b, AM-GM and Maclaurin
    give prod_b n_b^(2 k_b) = P prod s <= P L^-L and
    prod_b n_b^(2 k_b) sum_b k_b^2 / n_b^2 = P e_{L-1}(s) <= P L^(2-L),
    both tight at s = 1/L. So B0 = G max ||x||^p prod_b (k_b/L)^(k_b/2)
    and B1 = L B0: max ||x|| L^(-L/2) and max ||x|| L^(1-L/2) when every
    k_b = 1. A one-unit-wide net with n_b^2 = k_b / L along the longest
    x, signed so that y Phi = |Phi|, attains both, so they are also the
    sups of the margin q = y Phi.
    """
    ks = [b.k for b in model.blocks]
    L = model.order_L
    gain = math.prod(max(1.0, abs(model.alpha)) for b in model.blocks
                     if b.act is not None)
    x_max = float(np.max(np.linalg.norm(X, axis=1)))
    b0 = gain * x_max ** ks[0] * math.prod((k / L) ** (k / 2) for k in ks)
    return b0, L * b0


# estimate_b_constants stacks as many probes into one forward as keep its
# widest layer near this many activations (larger stacks ran slower and
# grew the peak memory), and draws at most this many normals at once
B_CHUNK_FLOATS = 2**14


def estimate_b_constants(model: HomogeneousModel, dataset: Dataset,
                         rng: np.random.Generator, n_sphere: int,
                         n_curvature: int) -> BConstants:
    """B0 and B1 from sphere_sups; B2 the largest of n_curvature central
    second differences, along and from random unit vectors."""
    if not dataset.is_binary:
        raise NotImplementedError("sphere constants assume binary margins")
    d = model.param_count
    b0, b1 = sphere_sups(model, dataset.X)
    # the n_sphere * d normals that once sampled B0 and B1 are drawn and
    # dropped, so B2 keeps its bits, until perfbench/reference.json
    # (pinned on that B2) is refreshed
    for start in range(0, n_sphere * d, B_CHUNK_FLOATS):
        rng.normal(size=min(B_CHUNK_FLOATS, n_sphere * d - start))
    widest = max(b.shape[1] for b in model.blocks)
    k = max(1, B_CHUNK_FLOATS // (dataset.n * widest) // 3)  # 3 per probe
    h = 1e-4
    b2 = 0.0
    for start in range(0, n_curvature, k):
        m = min(k, n_curvature - start)
        pairs = rng.normal(size=(m, 2, d))  # (theta_hat, v) per probe
        # each vector's norm as a dot product, as np.linalg.norm takes it
        pairs /= np.sqrt(pairs[..., None, :] @ pairs[..., :, None])[..., 0]
        theta_hat, v = pairs[:, 0], pairs[:, 1]
        probes = np.concatenate([theta_hat, theta_hat + h * v, theta_hat - h * v])
        out, _ = model.forward(probes, dataset.X)
        p0, pp, pm = out.reshape(3, m, -1)
        curv = np.abs(pp - 2.0 * p0 + pm) / h**2
        b2 = max(b2, float(np.max(curv)))
    return BConstants(b0=b0, b1=b1, b2=b2, n_sphere=n_sphere,
                      n_curvature=n_curvature)


class MarginStateError(ValueError):
    """The margin anchor at the separated start leaves float64 range."""


def _c_eta(spec: LossSpec, L: float, b: BConstants, rho0: float,
           x0: float, gamma_hat0: float) -> float:
    """C_eta, the (S5) step-size constant at t0."""
    m = min(gamma_hat0 ** (-2.0 + 2.0 / L), b.b0 ** (-2.0 + 2.0 / L))
    if spec.name == "exp":
        return 0.5 * (b.b1**2 + rho0 ** (-L) * b.b2) * m
    p = spec.p
    r = (b.b0 / gamma_hat0) ** p
    return (0.5 * b.b1
            * (r * b.b1 + 2.0 ** (p + 1.0) / x0 * (p * b.b1 + b.b2))
            * r * m)


class GdMarginState(PhiCurve):
    """The (S5) state of a descent run, anchored at ev, its first
    separated evaluation, on its B-constants b: the margin curve at
    u0 = ev.x, log gamma_hat0 = log(e^{phi(x0)} / rho0^L), C_eta and the
    turning point u_kappa of log_kappa. Raises MarginStateError when
    gamma_hat0 is too small for C_eta to be formed in float64."""

    def __init__(self, spec: LossSpec, order_L: float, ev: PointEval,
                 b: BConstants):
        x0, rho0 = ev.x, ev.rho
        super().__init__(spec, order_L, x0)
        [t0] = self.correction([x0])  # T <= 0: gamma_hat0 <= tilde0
        self.log_hat0 = log_hat0 = (float(np.log(spec.g(x0))) + t0
                                    - self.order_L * math.log(rho0))
        try:
            self.c_eta = _c_eta(spec, order_L, b, rho0, x0, math.exp(log_hat0))
        except (ZeroDivisionError, OverflowError):
            raise MarginStateError(
                f"log gamma_hat0 = {log_hat0:.6g} at separation x0 = {x0:.6g}: "
                f"gamma_hat0 underflows, so C_eta has no float64 value"
            ) from None
        self.u_kappa = _kappa_peak(spec, self.order_L)

    def log_h(self, x: float, log_kappa_x: float) -> float:
        """log of the (S5) learning-rate ceiling mu / (C_eta kappa) at x."""
        return math.log(self.mu(x)) - math.log(self.c_eta) - log_kappa_x


def _gd_monitors(mstate: GdMarginState, spec: LossSpec, steps: list,
                 mon: dict) -> None:
    """The margin monitors of a descent run after its loop, appended to
    mon in step order. steps holds (record, row) per epoch from the
    anchor on; row is None if the step is not monitored, else (x, rho,
    theta . G, ||G||, V) at its start and (alpha, log eta, ||u_g||^2).
    One array call each takes lambda and log kappa at the monitored
    starts. log gamma_hat is taken at each monitored end that reaches
    u0, T carried from u0 along them, and a record holds the one at its
    end as `log_hat`: gamma_hat0 for a first record that ends at the
    anchor, none for any other unmonitored record. A monitored record
    also holds its (S5) ratio as `s5_log_ratio`."""
    L, u0 = mstate.order_L, mstate.u0
    ends = [rec["log_inv_loss"] for rec, row in steps
            if row is not None and rec["log_inv_loss"] >= u0 - 1e-12]
    ts = iter(mstate.correction([u0, *ends])[1:])
    log_gs = iter(np.log(spec.g(np.array(ends))).tolist())
    starts = np.array([row[0] for _, row in steps if row is not None])
    lams = iter(mstate._lam(starts).tolist())
    log_ks = iter(log_kappa(spec, starts, L, mstate.u_kappa).tolist())
    log_hat_prev = mstate.log_hat0
    for rec, row in steps:
        x1, rho1 = rec["log_inv_loss"], rec["rho"]
        if row is None:
            if rec is not steps[0][0] or x1 != u0:
                # unmonitored, and not the anchor's own epoch: no gamma_hat
                log_hat_prev = None
        else:
            x0, rho0, tg, g_norm, v0, c, log_eta, ug2 = row
            log_k, lam, mu = next(log_ks), next(lams), mstate.mu(x0)
            s5 = log_eta - mstate.log_h(x0, log_k)  # negative is headroom
            mon["s5_log_ratio"].append(s5)
            rec["s5_log_ratio"] = s5
            drho2 = rho1**2 - rho0**2
            predicted = 2.0 * c * tg + c**2 * g_norm**2
            scale = max(abs(drho2), abs(predicted), 1e-300)
            mon["rho_identity"].append(abs(drho2 - predicted) / scale)
            mon["euler_gap"].append(
                (tg / L - v0) / max(abs(tg) / L, 1e-300))
            mon["p2_lower"].append((drho2 - 2.0 * c * L * v0) / scale)
            if s5 <= 0.0:
                mon["p2_upper"].append(
                    (2.0 * c * tg * (1.0 + lam * mu / L) - drho2) / scale)
                mon["p3_slack"].append(
                    1.0 - (1.0 - mu) * c * g_norm**2 - math.exp(x0 - x1))
            if g_norm > 0.0:
                mon["grad_bound"].append(
                    math.log(2.0 * mstate.c_eta) + log_k
                    - (2.0 * math.log(g_norm) - x0))
            if x1 >= u0 - 1e-12:  # constant mode can move back up
                log_hat = next(log_gs) + next(ts) - L * math.log(rho1)
                if log_hat_prev is not None and s5 <= 0.0:
                    mon["p4_slack"].append(
                        log_hat - log_hat_prev - L * rho0**2 * ug2
                        / tg**2 * (math.log(rho1) - math.log(rho0)))
                log_hat_prev = log_hat
            else:
                log_hat_prev = None
        if log_hat_prev is not None:
            rec["log_hat"] = log_hat_prev


@np.errstate(over="ignore")
def train_gd(model: HomogeneousModel, theta0, dataset: Dataset,
             spec: LossSpec, b: BConstants | None, *, epochs: int,
             alpha0: float, mode: str, s5_guard: bool,
             guard_safety: float) -> dict:
    """Full-batch GD with the loss-based schedule and margin monitors.

    mode "loss_based" runs the accept-or-retry schedule; "constant_alpha"
    keeps alpha fixed (the physical rate still scales with 1/loss, since
    every step is taken in the frame of its epoch start). The margin
    state is anchored at the first separated epoch on the B-constants b;
    with b None (labels other than -1/+1) none is formed, so the run has
    no (S5) guard and no monitors. The loop reads no margin but the
    guard's log kappa; the monitors from the anchor on are taken after
    it (`_gd_monitors`), and the records' margins, with or without a
    margin state, by `margin_fields`. No overflow warns: a step whose
    forward pass overflows is a rejected trial, and rho may pass 1e154.
    The run ends with the message in "abort" when the margin anchor
    cannot be formed at the first separated epoch (MarginStateError), or
    when a constant-alpha step overflows; otherwise "abort" is None.
    """
    if mode not in ("loss_based", "constant_alpha"):
        raise ValueError(f"unknown mode {mode!r}")
    if alpha0 <= 0.0:
        raise ValueError("alpha must stay positive")
    evaluator = Evaluator(model, dataset, spec)
    ev = evaluate_point(evaluator, np.asarray(theta0, dtype=np.float64))
    alpha = alpha0
    mstate: GdMarginState | None = None
    log_sum_eta = -math.inf
    records: list[dict] = []
    steps: list[tuple] = []  # (record, row or None) from the anchor on
    flagged_epochs: list[int] = []
    abort = None

    def maybe_separate():
        nonlocal mstate, abort
        if (mstate is None and abort is None and b is not None
                and ev.x > spec.f_at_bf + 1e-12):
            try:
                mstate = GdMarginState(spec, model.order_L, ev, b)
            except MarginStateError as err:
                abort = str(err)

    maybe_separate()
    for epoch in range(epochs):
        if abort is not None:
            break  # the monitors have no anchor: end the run here
        prev_ev = ev
        cap = math.inf
        if s5_guard and mstate is not None:
            log_k = float(log_kappa(spec, [ev.x], mstate.order_L,
                                    mstate.u_kappa)[0])
            cap = guard_safety * math.exp(mstate.log_h(ev.x, log_k) - ev.x)

        last = None  # once alpha passes the cap, retries repeat a step

        def trial(a):
            nonlocal last
            a = min(a, cap)
            if last is None or last[1] != a:
                try:
                    last = (evaluate_point(evaluator, gd_step(prev_ev, a)), a)
                except NonFiniteError:
                    last = (None, a)
            return (-math.inf if last[0] is None else last[0].x), last

        if mode == "loss_based":
            alpha, accepted, outcome = loss_based_lr_epoch(alpha, ev.x, trial)
            if outcome.flagged:
                flagged_epochs.append(epoch)
                records.append({"epoch": epoch, "flagged": True,
                                "alpha": alpha,
                                "retries": outcome.retries,
                                "log_inv_loss": ev.x})
                break
        else:
            accepted = trial(alpha)[1]
            outcome = EpochOutcome(0, False)
            if accepted[0] is None:
                abort = f"alpha = {alpha:.6g} overflowed at epoch {epoch}"
                break

        ev, c = accepted
        log_eta = math.log(c) + prev_ev.x
        log_sum_eta = float(np.logaddexp(log_sum_eta, log_eta))
        maybe_separate()
        rec = {
            "epoch": epoch,
            "alpha": c,
            "retries": outcome.retries,
            "flagged": False,
            "log_inv_loss": ev.x,
            "log10_loss": -ev.x / math.log(10.0),
            "rho": ev.rho,
            "q_min": float(np.min(ev.q)),
            "log_sum_eta": log_sum_eta,
            "beta": ev.beta,
        }
        records.append(rec)
        if mstate is None:
            continue
        row = None
        # past x ~ 1e6 the ulp of log-scale quantities swamps the monitor
        # tolerances; the unguarded schedule can race far beyond that
        if prev_ev.x >= mstate.u0 - 1e-12 and ev.x <= 1e6:
            theta_dot_g = float(prev_ev.theta @ prev_ev.G)
            u_g = prev_ev.G - (theta_dot_g / prev_ev.rho**2) * prev_ev.theta
            row = (prev_ev.x, prev_ev.rho, theta_dot_g, prev_ev.g_norm,
                   prev_ev.V, c, log_eta, float(u_g @ u_g))
        steps.append((rec, row))
    monitors: dict[str, list] = {
        "rho_identity": [], "p2_lower": [], "p2_upper": [], "p3_slack": [],
        "p4_slack": [], "grad_bound": [], "s5_log_ratio": [], "euler_gap": [],
    }
    if mstate is not None:
        _gd_monitors(mstate, spec, steps, monitors)
    margin_fields(records, spec, model.order_L)
    return {
        "ev": ev,
        "alpha": alpha,
        "records": records,
        "monitors": monitors,
        "margin_state": mstate,
        "flagged_epochs": flagged_epochs,
        "log_sum_eta": log_sum_eta,
        "abort": abort,
    }
