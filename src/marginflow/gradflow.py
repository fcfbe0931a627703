"""Gradient-flow integrator with invariant monitors, plus the polar
Mexican-hat simulation.

The flow is stiff: the gradient magnitude decays like the loss itself.
Everything is therefore phrased through the scaled gradient
G = exp(x) * (-grad loss) with x = log(1/loss); G has O(1) entries and
the true gradient is never materialized. A step of size dt multiplies
G by dt * exp(-x), so the controlled variable is the scaled step
w = dt * exp(-x0).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .autodiff import NonFiniteError, backward
from .datasets import Dataset
from .losses import LossSpec
from .margin import _inv_loss_weights, score_gaps, soft_margins
from .models import HomogeneousModel


class PointEval:
    """Loss, margins, and scaled gradient at one parameter point theta,
    a flat float64 array.

    The summaries V, g_norm, beta, rho and unit are computed on first
    read: the RK4 stages of a flow step read only x and G.
    """

    __slots__ = ("x", "q", "q_eff", "weights", "fprime", "G", "theta",
                 "_wfp", "_qv", "_V", "_g_norm", "_beta", "_rho", "_unit")

    def __init__(self, x: float, q: np.ndarray, q_eff: np.ndarray,
                 weights: np.ndarray, fprime: np.ndarray, G: np.ndarray,
                 theta: np.ndarray, wfp: np.ndarray, qv: np.ndarray):
        self.x = x  # log(1/loss), sum convention
        self.q = q  # hard margins
        self.q_eff = q_eff  # margins inside the loss (q_tilde multi-class)
        self.weights = weights  # softmax weights, sum to 1
        self.fprime = fprime  # f'(q_eff)
        self.G = G  # exp(x) * (-grad loss)
        self.theta = theta
        self._wfp = wfp  # weights * fprime
        self._qv = qv  # <theta, grad q_eff> / L per sample
        self._V = self._g_norm = self._beta = self._rho = self._unit = None

    @property
    def V(self) -> float:
        """sum_n w_n f'(q_n) <theta, grad q_n> / L, so that <theta, G> =
        L V; nu = loss * V. Binary margins are L-homogeneous and the
        inner term is q_n itself."""
        if self._V is None:
            self._V = float(np.sum(self._wfp * self._qv))
        return self._V

    @property
    def g_norm(self) -> float:
        if self._g_norm is None:
            self._g_norm = math.sqrt(self.G @ self.G)
        return self._g_norm

    @property
    def rho(self) -> float:
        """||theta||; where theta @ theta overflows, the norm is taken
        again with theta scaled by its largest |entry|."""
        if self._rho is None:
            with np.errstate(over="ignore"):
                self._rho = math.sqrt(self.theta @ self.theta)
            if self._rho == math.inf:
                m = float(np.max(np.abs(self.theta)))
                u = self.theta / m
                self._rho = m * math.sqrt(u @ u)
        return self._rho

    @property
    def unit(self) -> np.ndarray:
        """theta / rho; the zero vector has no direction and maps to
        itself."""
        if self._unit is None:
            self._unit = (np.zeros_like(self.theta) if self.rho == 0.0
                          else self.theta / self.rho)
        return self._unit

    @property
    def beta(self) -> float:
        """cosine(theta, -grad loss); 0 when theta = 0 or G = 0."""
        if self._beta is None:
            rho, g_norm = self.rho, self.g_norm
            self._beta = 0.0
            if rho > 0.0 and g_norm > 0.0:
                self._beta = float(self.theta @ self.G / (rho * g_norm))
        return self._beta


def evaluate_point(model: HomogeneousModel, theta, dataset: Dataset,
                   spec: LossSpec) -> PointEval:
    """One forward plus one seeded backward at the float64 array theta;
    all exponents stay O(1)."""
    phi, cache = model.forward(theta, dataset.X)
    if dataset.is_binary:
        q = q_eff = dataset.y_float * phi
    else:
        on, off = dataset.label_masks(phi.shape[1])
        gaps = score_gaps(phi, on, off)
        q = np.min(gaps, axis=1)
        q_eff = soft_margins(gaps)
    fq, fp = spec.f_pair(q_eff)
    x, w = _inv_loss_weights(fq)
    wfp = w * fp
    if dataset.is_binary:
        seed = wfp * dataset.y_float
        qv = q_eff
    else:
        # per-sample split of grad q_tilde over the competing classes;
        # each gap is L-homogeneous, so <theta, grad q_tilde> = L pi . s
        pi = np.exp(q_eff[:, None] - gaps)
        qv = np.sum(pi * gaps, axis=1)
        seed = np.zeros(phi.shape)
        seed[off] = (-wfp[:, None] * pi).ravel()
        seed[on] = wfp
    return PointEval(x, q, q_eff, w, fp, backward(cache, seed), theta, wfp,
                     qv)


def is_separated(ev: PointEval, spec: LossSpec) -> bool:
    """(B4): total loss below ell(b_f), i.e. x beyond f(b_f)."""
    return ev.x > spec.f_at_bf


def log_tilde_margin(ev: PointEval, spec: LossSpec, order_L: float) -> float:
    g = float(spec.g(ev.x))
    if g <= 0.0:  # x can sit within one ulp of the separation threshold
        return -math.inf
    return math.log(g) - order_L * math.log(ev.rho)


def nu_lower_slack(xs: np.ndarray, vs, spec: LossSpec) -> list[float]:
    """log V - log(g/g')(x) per state; nonnegative once separated."""
    bounds = (spec.g(xs) / spec.g_prime(xs)).tolist()
    # scalar math.log: numpy's log differs from it in the last bit
    return [math.inf if b <= 0.0 else math.log(v) - math.log(b)
            for v, b in zip(vs, bounds)]


class FlowState(NamedTuple):
    t: float
    ev: PointEval  # the evaluation at theta(t)
    steps: int = 0
    rejects: int = 0


class StepInfo(NamedTuple):
    dt: float  # physical time advanced (may overflow to inf late on)
    dt_scaled: float  # dt * exp(-x0), the controlled quantity
    next_dt_scaled: float  # proposal for the following step
    delta_rho_sq: float  # rho1^2 - rho0^2, cancellation-free
    delta_theta_hat: float  # ||theta_hat1 - theta_hat0||
    halvings: int


class FlowAbort(RuntimeError):
    """Step halving exhausted or non-finite values with no valid retreat."""


def init_flow(model: HomogeneousModel, theta0, dataset: Dataset,
              spec: LossSpec) -> FlowState:
    theta0 = np.asarray(theta0, dtype=np.float64)
    return FlowState(0.0, evaluate_point(model, theta0, dataset, spec))


def _bar_gamma(q_min: float, rho: float, order_L: float) -> float:
    """q_min / rho^L, taken in log space where rho^L overflows a float."""
    try:
        return q_min / rho**order_L
    except OverflowError:
        if q_min == 0.0:
            return 0.0
        return math.copysign(
            math.exp(math.log(abs(q_min)) - order_L * math.log(rho)), q_min)


def propose_dt_scaled(ev: PointEval, step_tol: float) -> float:
    """Scaled step targeting d(log 1/loss) ~ step_tol * max(1, x)."""
    if ev.g_norm == 0.0:
        return 0.0
    return step_tol * max(1.0, abs(ev.x)) / ev.g_norm**2


def flow_step(model: HomogeneousModel, dataset: Dataset, spec: LossSpec,
              state: FlowState, dt_scaled: float, step_tol: float = 1e-4,
              max_halvings: int = 60) -> tuple[FlowState, StepInfo]:
    """One adaptive RK4 step of d theta/dt = -grad loss.

    Acceptance: the change of x = log(1/loss) is at most
    step_tol * max(1, |x|) and never negative beyond 1e-9 (descent).
    Rejected trials halve dt; stages that produce non-finite values
    count as rejections.
    """
    ev0 = state.ev
    if ev0.g_norm == 0.0 or dt_scaled == 0.0:
        return state, StepInfo(0.0, 0.0, 0.0, 0.0, 0.0, 0)
    theta0 = ev0.theta
    x0 = ev0.x
    cap = step_tol * max(1.0, abs(x0))
    halvings = 0
    while True:
        try:
            k1 = ev0.G
            e2 = evaluate_point(model, theta0 + (dt_scaled / 2) * k1,
                                dataset, spec)
            k2 = math.exp(min(x0 - e2.x, 50.0)) * e2.G
            e3 = evaluate_point(model, theta0 + (dt_scaled / 2) * k2,
                                dataset, spec)
            k3 = math.exp(min(x0 - e3.x, 50.0)) * e3.G
            e4 = evaluate_point(model, theta0 + dt_scaled * k3,
                                dataset, spec)
            k4 = math.exp(min(x0 - e4.x, 50.0)) * e4.G
            dtheta = (dt_scaled / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            ev1 = evaluate_point(model, theta0 + dtheta, dataset, spec)
            dx = ev1.x - x0
            ok = abs(dx) <= cap and dx >= -1e-9
        except NonFiniteError:
            ok = False
            dx = math.nan
        if ok:
            break
        halvings += 1
        if halvings > max_halvings:
            raise FlowAbort(
                f"step rejected {max_halvings} times at t={state.t}, "
                f"x={x0}, last dx={dx}"
            )
        dt_scaled /= 2.0
    # re-anchor the scale to the new x; steer |dx| toward 0.6 * cap
    gain = min(2.0, max(0.5, 0.6 * cap / max(abs(dx), cap / 100.0)))
    nxt = dt_scaled * math.exp(x0 - ev1.x) * gain
    dt = dt_scaled * math.exp(x0) if x0 < 700.0 else math.inf
    d_hat = ev1.unit - ev0.unit
    info = StepInfo(dt, dt_scaled, nxt,
                    float(2.0 * (theta0 @ dtheta) + dtheta @ dtheta),
                    math.sqrt(d_hat @ d_hat), halvings)
    return (FlowState(state.t + dt, ev1, state.steps + 1,
                      state.rejects + halvings), info)


def weight_growth_residual(prev: PointEval, new: PointEval,
                           info: StepInfo, order_L: float) -> float:
    """Relative residual of d(rho^2)/dt == 2 L nu across one step.

    Both sides carry a factor exp(-x0) which cancels: the left side is
    delta_rho_sq / dt_scaled, the right the trapezoid of 2 L V e^{x0-x}.
    """
    lhs = info.delta_rho_sq / info.dt_scaled
    rhs = order_L * (prev.V + math.exp(prev.x - new.x) * new.V)
    if rhs == 0.0:
        return math.inf
    return abs(lhs - rhs) / abs(rhs)


def margin_rate_slack(prev: PointEval, new: PointEval, info: StepInfo,
                      d_log_tilde: float, order_L: float) -> float:
    """d log(tilde margin) minus its certified lower bound, per step.

    d_log_tilde is log_tilde_margin at `new` minus that at `prev`. The
    bound integrates L (d log rho/dt)^{-1} ||d theta_hat/dt||^2 by the
    trapezoid rule, which telescopes to L ||delta theta_hat||^2 /
    delta log rho over the step.
    """
    d_log_rho = math.log(new.rho) - math.log(prev.rho)
    if info.delta_theta_hat == 0.0:
        return d_log_tilde
    if d_log_rho <= 0.0:
        return math.inf  # rho must grow once separated; flagged upstream
    return d_log_tilde - order_L * info.delta_theta_hat**2 / d_log_rho


def _pairwise_row_sum(a: np.ndarray) -> np.ndarray:
    """Sum of each row of 9, in the order np.sum adds 9 numbers.

    The grids of `LossUpperBound.update` are column-major, as
    np.linspace(axis=1) returns them, and np.sum(axis=1) adds such rows
    left to right, which differs in the last bit.
    """
    c = a.T
    return ((c[0] + c[1]) + (c[2] + c[3])) + ((c[4] + c[5]) + (c[6] + c[7])) \
        + c[8]


class LossUpperBound:
    """Accumulates log G(1/loss) for the certified time bound.

    G(z) = int_{1/loss(t0)}^{z} g'(log u)^2 / g(log u)^{2-2/L} du,
    integrated in v = log u coordinates where the integrand is
    exp(v + 2 log g'(v) - (2 - 2/L) log g(v)), by the trapezoid rule on
    8 subintervals per segment between successive new maxima of x. The
    running value is kept in log space because G grows like 1/loss
    itself.
    """

    def __init__(self, spec: LossSpec, order_L: float, x0: float,
                 log_tilde0: float, t0: float):
        self.spec = spec
        self.order_L = order_L
        self.x_last = x0
        self.log_G = -math.inf
        self.t0 = t0
        self.log_rhs_scale = (2.0 * math.log(order_L)
                              + (2.0 / order_L) * log_tilde0)

    def _log_integrand(self, v: np.ndarray) -> np.ndarray:
        return (v + 2.0 * np.log(self.spec.g_prime(v))
                - (2.0 - 2.0 / self.order_L) * np.log(self.spec.g(v)))

    def update(self, xs: np.ndarray) -> np.ndarray:
        """Running log G after each x of `xs`, carried across calls.

        An x not above every earlier x adds nothing. Each segment's
        weighted log-sum-exp splits off its largest terms and sums the
        rest through log1p, as scipy.special.logsumexp does.
        """
        xs = np.asarray(xs, dtype=np.float64)
        top_x = np.maximum.accumulate(np.concatenate(([self.x_last], xs)))
        grows = xs > top_x[:-1]
        a, b = top_x[:-1][grows], xs[grows]
        v = np.linspace(a, b, 9, axis=1)
        fv = self._log_integrand(v)
        h = (b - a) / 8.0
        weights = np.repeat(h[:, None], 9, axis=1)
        weights[:, [0, -1]] = (h / 2.0)[:, None]
        f_max = fv.max(axis=1)
        terms = np.exp(fv - f_max[:, None])
        terms *= weights
        top = fv == f_max[:, None]
        top_sum = _pairwise_row_sum(terms * top)
        terms[top] = 0.0
        rest = _pairwise_row_sum(terms) / top_sum
        seg = np.log1p(rest) + np.log(top_sum) + f_max
        running = np.logaddexp.accumulate(np.concatenate(([self.log_G], seg)))
        self.log_G = float(running[-1])
        self.x_last = float(top_x[-1])
        return running[np.cumsum(grows)]

    def slack(self, log_G: np.ndarray, ts: np.ndarray) -> list[float]:
        """log G(1/loss(t)) - log(L^2 tilde0^{2/L} (t - t0)) per state;
        >= 0 expected."""
        return [math.inf if t <= self.t0
                else lg - self.log_rhs_scale - math.log(t - self.t0)
                for lg, t in zip(log_G.tolist(), ts.tolist())]


# states per array pass of the bound monitors; bounds the (chunk, 9)
# integrand grids of a long run
MONITOR_CHUNK = 4096


def _bound_monitors(monitors: dict, bound: LossUpperBound, spec: LossSpec,
                    xs: list, vs: list, ts: list) -> None:
    """Append the nu and loss upper bound slacks of the separated states
    (x, V, t) to `monitors`, MONITOR_CHUNK states per array pass.

    Both bounds are checks on the finished trajectory, so `run_flow`
    computes them after its step loop. The loss upper bound skips
    states whose t has overflowed to inf.
    """
    for i in range(0, len(xs), MONITOR_CHUNK):
        x = np.array(xs[i:i + MONITOR_CHUNK])
        t = np.array(ts[i:i + MONITOR_CHUNK])
        monitors["nu_slack"] += nu_lower_slack(x, vs[i:i + MONITOR_CHUNK],
                                               spec)
        finite = np.isfinite(t)
        monitors["upper_slack"] += bound.slack(bound.update(x[finite]),
                                               t[finite])


def flow_states(model: HomogeneousModel, theta0, dataset: Dataset,
                spec: LossSpec, *, step_tol: float = 1e-4,
                max_steps: int = 200_000,
                ) -> Iterator[tuple[FlowState, StepInfo | None]]:
    """The flow's trajectory, one accepted step at a time.

    Yields (state, None) for the start, then (state, info) after every
    accepted `flow_step`. Ends at exact stationarity (zero gradient, so
    no step is possible) or once `max_steps` steps have been taken;
    callers stop it at their own targets.
    """
    state = init_flow(model, theta0, dataset, spec)
    dt_scaled = propose_dt_scaled(state.ev, step_tol)
    yield state, None
    while state.steps < max_steps:
        state, info = flow_step(model, dataset, spec, state, dt_scaled,
                                step_tol=step_tol)
        if info.dt_scaled == 0.0:
            return  # exactly stationary
        dt_scaled = info.next_dt_scaled
        yield state, info


def run_flow(model: HomogeneousModel, theta0, dataset: Dataset, spec: LossSpec,
             *, target_log_inv_loss: float, step_tol: float = 1e-4,
             max_steps: int = 200_000, record_every: int = 1) -> dict:
    """Drive the flow until x reaches the target; collect per-step series.

    Returns a dict with the final state, per-step monitor series
    (activated after separation), trajectory records suitable for
    serialization, and `log_tilde0`, the certificate anchor: the first
    finite log smoothed margin of a separated state, else None.
    """
    records = []
    monitors = {
        "growth_residual": [],
        "margin_slack": [],
        "nu_slack": [],
        "d_log_tilde": [],
        "upper_slack": [],
    }
    bound = None
    lt = None  # log tilde margin of the current state, once separated
    log_tilde0 = None
    xs, vs, ts = [], [], []  # separated states for the bound monitors

    def record(st: FlowState):
        rec = {
            "t": st.t,
            "step": st.steps,
            "log_inv_loss": st.ev.x,
            "rho": st.ev.rho,
            "q_min": float(np.min(st.ev.q)),
            "beta": st.ev.beta,
            "nu_rel": st.ev.V,
        }
        if lt is not None:
            rec["log_tilde"] = lt
            rec["bar_gamma"] = _bar_gamma(rec["q_min"], st.ev.rho,
                                          model.order_L)
        records.append(rec)

    for state, info in flow_states(model, theta0, dataset, spec,
                                   step_tol=step_tol, max_steps=max_steps):
        prev_lt = lt
        if lt is None and is_separated(state.ev, spec):
            lt = log_tilde_margin(state.ev, spec, model.order_L)
            bound = LossUpperBound(spec, model.order_L, state.ev.x, lt,
                                   state.t)
        elif lt is not None:
            lt = log_tilde_margin(state.ev, spec, model.order_L)
            if is_separated(prev, spec):
                monitors["growth_residual"].append(
                    weight_growth_residual(prev, state.ev, info,
                                           model.order_L))
                monitors["margin_slack"].append(margin_rate_slack(
                    prev, state.ev, info, lt - prev_lt, model.order_L))
                monitors["d_log_tilde"].append(lt - prev_lt)
                xs.append(state.ev.x)
                vs.append(state.ev.V)
                ts.append(state.t)
        if (log_tilde0 is None and lt is not None and math.isfinite(lt)
                and is_separated(state.ev, spec)):
            log_tilde0 = lt
        if state.steps % record_every == 0:
            record(state)
        if state.ev.x >= target_log_inv_loss:
            break
        prev = state.ev
    if records[-1]["step"] != state.steps:
        record(state)
    _bound_monitors(monitors, bound, spec, xs, vs, ts)
    return {
        "state": state,
        "records": records,
        "monitors": monitors,
        "log_tilde0": log_tilde0,
    }


# Mexican hat: a smooth order-L model rho^L (1 - f(r, phi)) whose flow
# direction circles forever. The planar hat flow preserves the spiral
# phase psi = phi - 1/(1 - r^2); integration uses time rescaled by the
# positive factor N e^{-h} rho^{L-2} s(r) (direction trajectories are
# invariant under positive rescaling), since both the loss prefactor
# and the envelope s(r) = exp(-1/(1-r^2)) collapse by hundreds of
# orders along the run.
#
# State is carried in (r, psi) rather than (r, phi): the psi equation
# collapses algebraically to
#     dpsi/dsigma = -(4r^2/eps^4) (1 - cos psi) + sin(psi) D(r),
# which vanishes identically at psi = 0.0 in floating point. Raw polar
# coordinates destroy the invariant: psi = 0 is a difference of two
# large terms whose perturbations grow like exp(4 sigma / eps^4) once
# r > 0.62, so roundoff alone swamps the phase before r reaches 0.9.

@dataclass(frozen=True)
class HatState:
    sigma: float  # rescaled flow time
    t: float  # physical time; overflows to inf once the margin > ~700
    r: float
    psi: float  # spiral phase phi - 1/(1 - r^2)
    log_rho: float
    clamped: bool = False

    @property
    def phi(self) -> float:
        return self.psi + 1.0 / (1.0 - self.r**2)

    @property
    def rho(self) -> float:
        return math.exp(self.log_rho) if self.log_rho < 709.0 else math.inf


def hat_envelope(r: float) -> tuple[float, float, float]:
    """C(r), C'(r), and 1 - C(r) of the hat's angular modulation.

    1 - C is returned separately as b/(a+b); the subtraction 1.0 - C
    cancels catastrophically once r > 0.95.
    """
    a = 4.0 * r**4
    b = (1.0 - r**2) ** 4
    c = a / (a + b)
    cp = 16.0 * r**3 * (1.0 - r**2) ** 3 * (1.0 + r**2) / (a + b) ** 2
    return c, cp, b / (a + b)


def hat_value(r: float, psi: float) -> float:
    """The bump s(r) times the angular modulation 1 - C sin(psi)."""
    if r >= 1.0:
        return 0.0
    c, _, _ = hat_envelope(r)
    return math.exp(-1.0 / (1.0 - r**2)) * (1.0 - c * math.sin(psi))


def _hat_rhs(r: float, psi: float, order_L: float,
             metric: str) -> tuple[float, float, float]:
    """(dr, dpsi, dlogrho)/dsigma for the rescaled hat flow."""
    eps = 1.0 - r * r
    slope = 2.0 * r / eps**2  # d(1/eps)/dr
    c, cp, one_minus_c = hat_envelope(r)
    sn = math.sin(psi)
    vers = 2.0 * math.sin(psi / 2.0) ** 2  # 1 - cos(psi), exact at 0.0
    cs = 1.0 - vers
    # -f_r/s grouped so psi = 0 leaves the pure radial drift slope*(1-C)
    dr = slope * (one_minus_c + c * vers - c * sn) + cp * sn
    if metric == "spherical":
        # direction flow on the sphere scales the radial leg by eps;
        # the phase is then genuinely not conserved
        dr *= eps
        dpsi = c * cs / (r * r) - slope * dr
    elif metric == "planar":
        dpsi = -slope * slope * c * vers + sn * (
            slope * slope * c - slope * cp)
    else:
        raise ValueError(f"unknown metric {metric!r}")
    one_minus_f = 1.0 - math.exp(-1.0 / eps) * (1.0 - c * sn)
    dlogrho = order_L * one_minus_f * math.exp(min(1.0 / eps, 700.0))
    return dr, dpsi, dlogrho


def hat_step(state: HatState, dsigma: float, order_L: float = 2.0,
             n_samples: int = 1, metric: str = "planar") -> HatState:
    """One RK4 step in rescaled time; clamps and flags if r exits (0,1)."""
    # float arithmetic, one component at a time, in the order of the
    # vector form y0 + h * k; an oversized step overflows to inf and
    # clamps below rather than raising
    y0 = (state.r, state.psi, state.log_rho)
    half = dsigma / 2

    def rhs(y):
        return _hat_rhs(y[0], y[1], order_L, metric)

    k1 = rhs(y0)
    k2 = rhs([y + half * k for y, k in zip(y0, k1)])
    k3 = rhs([y + half * k for y, k in zip(y0, k2)])
    k4 = rhs([y + dsigma * k for y, k in zip(y0, k3)])
    r1, psi1, log_rho1 = (
        y + (dsigma / 6.0) * (a + 2 * b + 2 * c + d)
        for y, a, b, c, d in zip(y0, k1, k2, k3, k4))
    clamped = False
    if not 0.0 < r1 < 1.0:
        r1 = min(max(r1, 1e-12), 1.0 - 1e-12)
        clamped = True
    # physical dt/dsigma = e^{h}/(N rho^{L-2} s); overflows by design
    h0 = math.exp(min(state.log_rho * order_L, 700.0)) * (
        1.0 - hat_value(state.r, state.psi))
    log_rate = (h0 - math.log(n_samples)
                - (order_L - 2.0) * state.log_rho
                + 1.0 / (1.0 - state.r**2))
    t1 = state.t + dsigma * math.exp(log_rate) if log_rate < 700.0 else math.inf
    return HatState(sigma=state.sigma + dsigma, t=t1, r=r1, psi=psi1,
                    log_rho=log_rho1, clamped=clamped or state.clamped)


def run_hat(*, order_L: float = 2.0, n_samples: int = 1, r0: float = 0.5,
            psi0: float = 0.0, rho0: float = 1.0, r_stop: float = 0.992,
            dphi_target: float = 0.015, max_steps: int = 100_000,
            record_every: int = 10, metric: str = "planar") -> list[dict]:
    """Integrate from psi(0)=psi0 until r reaches r_stop; emit records."""
    state = HatState(sigma=0.0, t=0.0, r=r0, psi=psi0,
                     log_rho=math.log(rho0))
    records = []

    def push(st: HatState):
        log10_h = (order_L * st.log_rho
                   + math.log1p(-hat_value(st.r, st.psi))) / math.log(10.0)
        records.append({
            "sigma": st.sigma, "t": st.t, "r": st.r, "phi": st.phi,
            "psi": st.psi, "rho": st.rho, "log_rho": st.log_rho,
            "log10_h": log10_h, "clamped": st.clamped,
        })

    push(state)
    for step in range(1, max_steps + 1):
        dr, dpsi, _ = _hat_rhs(state.r, state.psi, order_L, metric)
        slope = 2.0 * state.r / (1.0 - state.r**2) ** 2
        dphi = dpsi + slope * dr
        dsigma = dphi_target / max(abs(dphi), 1e-12)
        if abs(dr) > 0.0:
            dsigma = min(dsigma, 0.002 / abs(dr))
        state = hat_step(state, dsigma, order_L, n_samples, metric)
        if step % record_every == 0 or state.r >= r_stop:
            push(state)
        if state.r >= r_stop:
            break
    return records
