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
from dataclasses import dataclass, field

import numpy as np

from .autodiff import NonFiniteError, backward
from .datasets import Dataset
from .gradflow import (PointEval, _bar_gamma, evaluate_point, is_separated,
                       log_tilde_margin)
from .losses import LossDomainError, LossSpec
from .models import HomogeneousModel

R_UP = 2.0 ** (1.0 / 5.0)
R_DOWN = 2.0 ** (1.0 / 10.0)
# shrinks of alpha before the schedule abandons an epoch
MAX_RETRIES = 60


class ReframeError(RuntimeError):
    """Relative step left float range."""


def gd_step(ev: PointEval, alpha: float) -> np.ndarray:
    """One descent step theta' = theta + alpha G from ev, the evaluation
    at theta: exactly theta - eta grad(loss) for eta = alpha / loss."""
    if alpha == 0.0:
        return ev.theta
    if not 1e-300 <= alpha <= 1e300:
        raise ReframeError(f"alpha={alpha} outside [1e-300, 1e300]")
    return ev.theta + alpha * ev.G


def gd_step_direct(model: HomogeneousModel, dataset: Dataset, spec: LossSpec,
                   theta: np.ndarray, alpha: float) -> np.ndarray:
    """theta - eta grad(mean loss), eta = alpha / mean loss, through
    plain float64 and one forward, no frame.

    Only valid while the mean loss stays above ~1e-290; used to check
    that the relative frame changes nothing but the arithmetic path.
    """
    if not dataset.is_binary:
        raise NotImplementedError("direct path exercises binary models")
    phi, cache = model.forward(theta, dataset.X)
    q = dataset.y_float * phi
    fq, fp = spec.f_pair(q)
    loss = np.exp(-fq)
    eta = alpha / float(np.mean(loss))
    grad = -backward(cache, loss * fp * dataset.y_float / dataset.n)
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

class PhiCurve:
    """phi(u) = log g(u) + T(u) in u = log(1/loss) coordinates.

    T(U) = int_U^inf (lambda(u) - e^{-u} M(u)) du where M is the
    running max of F(u) = e^u lambda(u) (1 + 2(1 + lambda/L) mu(u)),
    lambda = g'/g and mu(u) = u0/(2u). F dips at most once before
    climbing like e^u, so M is max(F(u0), F(u)) up to the recovery
    point u_star and equals F beyond; past u_star the integrand
    reduces to -2 lambda mu (1 + lambda/L). Increments are accumulated
    so successive evaluations at growing u stay exactly consistent.
    """

    def __init__(self, spec: LossSpec, order_L: float, u0: float):
        if u0 <= spec.f_at_bf:
            raise LossDomainError(
                f"anchor log(1/loss) = {u0} not separated for {spec.name}")
        self.spec = spec
        self.order_L = float(order_L)
        self.u0 = float(u0)
        self._log_f0 = self._log_F(self.u0)
        self.u_star = self._find_recovery()
        self._cache_u = None
        self._cache_t = None

    def _lam(self, u):
        return self.spec.g_prime(u) / self.spec.g(u)

    def _mu(self, u):
        return self.u0 / (2.0 * u)

    def _log_F(self, u):
        lam = self._lam(u)
        return float(u + np.log(lam)
                     + np.log1p(2.0 * (1.0 + lam / self.order_L) * self._mu(u)))

    def _find_recovery(self) -> float:
        u0 = self.u0
        h = 1e-6 * max(1.0, u0)
        if self._log_F(u0 + h) >= self._log_f0:
            return u0  # F climbs from the start; M == F everywhere
        lo = u0
        hi = u0 + 1.0
        while self._log_F(hi) < self._log_f0:
            lo, hi = hi, hi + 1.0
            if hi > u0 + 200.0:
                raise RuntimeError("F(u) failed to recover; loss family "
                                   "violates the single-dip assumption")
        from scipy.optimize import brentq  # see _quad
        return float(brentq(lambda u: self._log_F(u) - self._log_f0, lo, hi,
                            xtol=1e-13, rtol=1e-15))

    @staticmethod
    def _quad(fn, a: float, b: float) -> float:
        # scipy is imported where PhiCurve first needs it, so the runs
        # that never build one, every flow run among them, never load it
        from scipy.integrate import quad
        return quad(fn, a, b, epsabs=1e-13, epsrel=1e-12, limit=400)[0]

    def _tail_integrand(self, u):
        lam = self._lam(u)
        return -2.0 * lam * self._mu(u) * (1.0 + lam / self.order_L)

    def _dip_integrand(self, u):
        log_m = max(self._log_f0, self._log_F(u))
        return self._lam(u) - math.exp(log_m - u)

    def _removed(self, a: float, b: float) -> float:
        """int_a^b iota for a <= b: the dip integrand below u_star, the
        tail integrand above; an empty piece is not integrated."""
        m = min(max(a, self.u_star), b)
        dip = self._quad(self._dip_integrand, a, m) if a < m else 0.0
        return dip + (self._quad(self._tail_integrand, m, b) if m < b
                      else 0.0)

    def correction(self, u: float) -> float:
        """T(u) <= 0; the log-gap between gamma_hat and tilde margin."""
        if u < self.u0 - 1e-9:
            raise LossDomainError(
                f"phi evaluated at u={u} above the anchor loss (u0={self.u0})")
        u = max(u, self.u0)
        if self._cache_u is None or u < self._cache_u:
            t = self._removed(u, np.inf)
        elif u == self._cache_u:
            return self._cache_t
        else:
            # removed mass int_{cache}^{u} iota is accumulated exactly once
            t = self._cache_t - self._removed(self._cache_u, u)
        self._cache_u, self._cache_t = u, t
        return t

    def phi(self, u: float) -> float:
        return float(np.log(self.spec.g(u))) + self.correction(u)


def log_kappa(spec: LossSpec, x: float, order_L: float) -> float:
    """log of the local-smoothness scale sup_{u >= x} e^{-u} u^{2-2/L}
    / g'(u)^2, by grid search; the e^{-u} factor kills the tail."""
    us = np.linspace(x, x + 60.0, 2400)
    vals = (-us + (2.0 - 2.0 / order_L) * np.log(us)
            - 2.0 * np.log(spec.g_prime(us)))
    return float(np.max(vals))


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
                         rng: np.random.Generator, n_sphere: int = 10_000,
                         n_curvature: int = 1_000) -> BConstants:
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


@dataclass
class GdMarginState:
    """Everything anchored at the first separated epoch t0."""

    spec: LossSpec
    order_L: float
    u0: float
    phi_curve: PhiCurve
    b: BConstants
    c_eta: float
    c_eta_provisional: bool
    clamped: bool = False
    # (x, log_kappa(x)) of the last call: an epoch's guard cap, its (S5)
    # log ratio and its grad_bound monitor all ask at the epoch start x
    _kappa: tuple = field(default=(None, None), repr=False, compare=False)

    def mu(self, x: float) -> float:
        return self.u0 / (2.0 * x)

    def lam(self, x: float) -> float:
        return float(self.spec.g_prime(x) / self.spec.g(x))

    def log_kappa(self, x: float) -> float:
        if self._kappa[0] != x:
            self._kappa = (x, log_kappa(self.spec, x, self.order_L))
        return self._kappa[1]

    def log_h(self, x: float) -> float:
        """log of the (S5) learning-rate ceiling mu / (C_eta kappa)."""
        return math.log(self.mu(x)) - math.log(self.c_eta) - self.log_kappa(x)

    def log_gamma_hat(self, x: float, log_rho: float) -> float:
        """log(e^{phi} / rho^L), clamped under the smoothed margin."""
        val = self.phi_curve.phi(x) - self.order_L * log_rho
        log_tilde = float(np.log(self.spec.g(x))) - self.order_L * log_rho
        if val > log_tilde:
            if val - log_tilde > 1e-12:
                self.clamped = True
            val = log_tilde
        return val


class MarginStateError(ValueError):
    """The margin anchor at the separated start leaves float64 range."""


def _c_eta(spec: LossSpec, L: float, b: BConstants, rho0: float,
           x0: float, gamma_hat0: float) -> tuple[float, bool]:
    """(C_eta, provisional): the (S5) step-size constant at t0."""
    m = min(gamma_hat0 ** (-2.0 + 2.0 / L), b.b0 ** (-2.0 + 2.0 / L))
    provisional = False
    if spec.name == "exp":
        c_eta = 0.5 * (b.b1**2 + rho0 ** (-L) * b.b2) * m
    else:
        p = spec.p
        if p is None:
            p = 1.0  # custom loss without a tail exponent: flag the result
            provisional = True
        r = (b.b0 / gamma_hat0) ** p
        c_eta = (0.5 * b.b1
                 * (r * b.b1 + 2.0 ** (p + 1.0) / x0 * (p * b.b1 + b.b2))
                 * r * m)
    return c_eta, provisional


def make_margin_state(model: HomogeneousModel, ev: PointEval, spec: LossSpec,
                      b: BConstants) -> GdMarginState:
    """The margin anchor at ev, the first separated evaluation, on the
    run's B-constants b. Raises MarginStateError when gamma_hat0 =
    e^{phi(x0)} / rho0^L is too small for C_eta to be formed in float64."""
    L = model.order_L
    x0, rho0 = ev.x, ev.rho
    curve = PhiCurve(spec, L, x0)
    log_hat0 = curve.phi(x0) - L * math.log(rho0)
    try:
        c_eta, provisional = _c_eta(spec, L, b, rho0, x0,
                                    math.exp(log_hat0))
    except (ZeroDivisionError, OverflowError):
        raise MarginStateError(
            f"log gamma_hat0 = {log_hat0:.6g} at separation x0 = {x0:.6g}: "
            f"gamma_hat0 underflows, so C_eta has no float64 value"
        ) from None
    return GdMarginState(spec=spec, order_L=L, u0=x0, phi_curve=curve, b=b,
                         c_eta=c_eta, c_eta_provisional=provisional)


def train_gd(model: HomogeneousModel, theta0, dataset: Dataset,
             spec: LossSpec, b: BConstants | None, *, epochs: int,
             alpha0: float = 0.1, mode: str = "loss_based",
             s5_guard: bool = False, guard_safety: float = 0.5) -> dict:
    """Full-batch GD with the loss-based schedule and margin monitors.

    mode "loss_based" runs the accept-or-retry schedule; "constant_alpha"
    keeps alpha fixed (the physical rate still scales with 1/loss, since
    every step is taken in the frame of its epoch start). The margin
    state is anchored at the first separated epoch on the B-constants b;
    with b None (labels other than -1/+1) none is formed, so the run has
    no (S5) guard and no monitors. Monitor series start at the first
    separated epoch; entries conditioned on (S5) are only appended when
    the step's log(eta / H) is not positive. A step
    whose forward pass overflows is a rejected trial. The run ends with
    the message in "abort" when the margin anchor cannot be formed at
    the first separated epoch (MarginStateError), or when a constant-alpha
    step overflows; otherwise "abort" is None.
    """
    if mode not in ("loss_based", "constant_alpha"):
        raise ValueError(f"unknown mode {mode!r}")
    if alpha0 <= 0.0:
        raise ValueError("alpha must stay positive")
    ev = evaluate_point(model, np.asarray(theta0, dtype=np.float64), dataset,
                        spec)
    alpha = alpha0
    mstate: GdMarginState | None = None
    log_hat_prev = None
    log_sum_eta = -math.inf
    records: list[dict] = []
    monitors: dict[str, list] = {
        "rho_identity": [], "p2_lower": [], "p2_upper": [], "p3_slack": [],
        "p4_slack": [], "grad_bound": [], "s5_log_ratio": [], "euler_gap": [],
    }
    flagged_epochs: list[int] = []
    abort = None

    def maybe_separate():
        nonlocal mstate, log_hat_prev, abort
        if (mstate is None and abort is None and b is not None
                and ev.x > spec.f_at_bf + 1e-12):
            try:
                mstate = make_margin_state(model, ev, spec, b)
            except MarginStateError as err:
                abort = str(err)
                return
            log_hat_prev = mstate.log_gamma_hat(ev.x, math.log(ev.rho))

    maybe_separate()
    for epoch in range(epochs):
        if abort is not None:
            break  # the monitors have no anchor: end the run here
        prev_ev = ev
        cap = math.inf
        if s5_guard and mstate is not None:
            cap = guard_safety * math.exp(mstate.log_h(ev.x) - ev.x)

        last = None  # once alpha passes the cap, retries repeat a step

        def trial(a):
            nonlocal last
            a = min(a, cap)
            if last is None or last[1] != a:
                try:
                    last = (evaluate_point(model, gd_step(prev_ev, a),
                                           dataset, spec), a)
                except NonFiniteError:  # overflowed: a rejected trial
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

        s5 = None  # log(eta / H), the (S5) ratio; negative is headroom
        # past x ~ 1e6 the ulp of log-scale quantities swamps the monitor
        # tolerances; the unguarded schedule can race far beyond that
        if (mstate is not None and prev_ev.x >= mstate.u0 - 1e-12
                and ev.x <= 1e6):
            s5 = log_eta - mstate.log_h(prev_ev.x)
            monitors["s5_log_ratio"].append(s5)
            theta_dot_g = float(prev_ev.theta @ prev_ev.G)
            drho2 = ev.rho**2 - prev_ev.rho**2
            predicted = 2.0 * c * theta_dot_g + c**2 * prev_ev.g_norm**2
            scale = max(abs(drho2), abs(predicted), 1e-300)
            monitors["rho_identity"].append(abs(drho2 - predicted) / scale)
            gap = theta_dot_g / model.order_L - prev_ev.V
            monitors["euler_gap"].append(
                gap / max(abs(theta_dot_g) / model.order_L, 1e-300))
            monitors["p2_lower"].append(
                (drho2 - 2.0 * c * model.order_L * prev_ev.V) / scale)
            lam = mstate.lam(prev_ev.x)
            mu = mstate.mu(prev_ev.x)
            if s5 <= 0.0:
                monitors["p2_upper"].append(
                    (2.0 * c * theta_dot_g
                     * (1.0 + lam * mu / model.order_L) - drho2) / scale)
                monitors["p3_slack"].append(
                    1.0 - (1.0 - mu) * c * prev_ev.g_norm**2
                    - math.exp(prev_ev.x - ev.x))
            if prev_ev.g_norm > 0.0:
                monitors["grad_bound"].append(
                    math.log(2.0 * mstate.c_eta) + mstate.log_kappa(prev_ev.x)
                    - (2.0 * math.log(prev_ev.g_norm) - prev_ev.x))
            if ev.x >= mstate.u0 - 1e-12:  # constant mode can move back up
                log_hat = mstate.log_gamma_hat(ev.x, math.log(ev.rho))
                if log_hat_prev is not None and s5 <= 0.0:
                    u_g = prev_ev.G - (theta_dot_g / prev_ev.rho**2) \
                        * prev_ev.theta
                    rhs = (model.order_L * prev_ev.rho**2
                           * float(u_g @ u_g) / theta_dot_g**2
                           * (math.log(ev.rho) - math.log(prev_ev.rho)))
                    monitors["p4_slack"].append(log_hat - log_hat_prev - rhs)
                log_hat_prev = log_hat
            else:
                log_hat_prev = None

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
        if mstate is not None and is_separated(ev, spec):
            log_tilde = log_tilde_margin(ev, spec, model.order_L)
            if log_tilde > -math.inf:
                rec["log_tilde"] = log_tilde
            if log_hat_prev is not None:
                rec["log_hat"] = log_hat_prev
            rec["bar_gamma"] = _bar_gamma(rec["q_min"], ev.rho,
                                          model.order_L)
        if s5 is not None:
            rec["s5_log_ratio"] = s5
        records.append(rec)
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
