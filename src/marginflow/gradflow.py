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

from .autodiff import NonFiniteError, backward, layers, walk
from .datasets import Dataset
from .losses import LossSpec
from .margin import _inv_loss_weights, label_masks, score_gaps, soft_margins
from .models import HomogeneousModel


class PointEval:
    """Loss, margins, and scaled gradient at one parameter point theta, a
    flat float64 array that it keeps, with their summaries; beta is taken
    on first read. The builder holds off overflow warnings (rho > 1e154)."""

    __slots__ = ("x", "G", "q", "q_eff", "weights", "_fprime", "V", "theta",
                 "g_norm", "rho", "unit", "_beta")

    def __init__(self, x, G, q, q_eff, weights, fprime, V, theta):
        self.x = x  # log(1/loss), sum convention
        self.G = G  # exp(x) * (-grad loss)
        self.q = q  # hard margins
        self.q_eff = q_eff  # margins inside the loss (q_tilde multi-class)
        self.weights = weights  # softmax weights, sum to 1
        self._fprime = fprime  # f'(q_eff): an array, or exp's float 1.0
        self.V = V  # sum_n w_n f'(q_n) <theta, grad q_n> / L = <theta, G> / L
        self.theta = theta
        self.g_norm = math.sqrt(G.dot(G))  # the bits of @, as in flow_step
        # ||theta||, again on theta / max |entry| where theta @ theta overflows
        self.rho = math.sqrt(theta.dot(theta))
        if self.rho == math.inf:
            m = float(np.max(np.abs(theta)))
            u = theta / m
            self.rho = m * math.sqrt(u.dot(u))
        # theta / rho; the zero vector has no direction and maps to itself
        self.unit = (np.zeros_like(theta) if self.rho == 0.0
                     else theta / self.rho)
        self._beta = None

    @property
    def fprime(self) -> np.ndarray:  # (N,), read-only: exp's 1.0 broadcast
        return np.broadcast_to(self._fprime, self.q_eff.shape)

    @property
    def beta(self) -> float:
        """cosine(theta, -grad loss); 0 when theta = 0 or G = 0."""
        if self._beta is None:
            rho, g_norm = self.rho, self.g_norm
            self._beta = 0.0
            if rho > 0.0 and g_norm > 0.0:
                self._beta = float(self.theta @ self.G) / (rho * g_norm)
        return self._beta


class Evaluator:
    """One run's (model, dataset, loss), bound once to the `layers` table
    of a scratch parameter buffer `theta` and, for class labels, to the
    label masks of the model's outputs. Each driver binds its own and
    passes it on, so nothing outlives the run. `stage` evaluates a point
    formed there, G being the gradient buffer until the next evaluation;
    `evaluate_point` evaluates an owned array into fresh arrays."""

    def __init__(self, model, dataset, spec):
        self.dataset, self.spec = dataset, spec
        self.theta = np.empty(model.param_count)
        self.layers = layers(model.blocks, self.theta)
        self.masks = (None if dataset.is_binary
                      else label_masks(dataset.y, model.num_outputs))

    def run(self) -> tuple:
        """(x, G, q, q_eff, weights, f', w f', None or (pi, gaps)), O(1)."""
        ds = self.dataset
        phi, records = walk(self.layers, ds.X)
        if ds.is_binary:
            q = q_eff = ds.y_float * phi[:, 0]
        else:
            on, off = self.masks
            gaps = score_gaps(phi, on, off)
            q = np.min(gaps, axis=1)
            q_eff = soft_margins(gaps)
        fq, fp = self.spec.f_pair(q_eff)
        x, w = _inv_loss_weights(fq)
        wfp = w if isinstance(fp, float) else w * fp  # w * 1.0 is w
        if ds.is_binary:
            # matmul takes the stride-0 [:, None] view up to 0.7 us slower
            seed = (wfp * ds.y_float).reshape(-1, 1)
            split = None
        else:
            # per-sample split of grad q_tilde over the competing classes
            pi = np.exp(q_eff[:, None] - gaps)
            split = pi, gaps
            seed = np.zeros(phi.shape)
            seed[off] = (-wfp[:, None] * pi).ravel()
            seed[on] = wfp
        return (x, backward(self.layers, records, seed), q, q_eff, w, fp,
                wfp, split)

    def stage(self, theta0, c, k) -> tuple[float, np.ndarray]:
        """(x, G) at theta0 + c k, formed in the buffer in that order; G is
        the gradient buffer, valid until the next evaluation."""
        np.multiply(k, c, out=self.theta)
        self.theta += theta0
        return self.run()[:2]


def evaluate_point(evaluator: Evaluator, theta: np.ndarray) -> PointEval:
    """The evaluation at the flat float64 array theta, which it keeps, its
    G copied out of the gradient buffer by + 0.0 (-0.0 becomes 0.0): a
    module function, the one entry that per-call tracing wraps by name."""
    np.copyto(evaluator.theta, theta)
    x, G, *out, wfp, split = evaluator.run()
    # each gap is L-homogeneous, so <theta, grad q_tilde> = L pi . gaps
    qv = out[1] if split is None else np.sum(np.multiply(*split), axis=1)
    return PointEval(x, G + 0.0, *out, float(np.add.reduce(wfp * qv)), theta)


def log_tilde_margin(xs, rhos, spec: LossSpec, order_L: float) -> list[float]:
    """log g(x) - L log rho per state of the columns (xs, rhos): one g
    call on xs, then math.log per state; -inf where g(x) <= 0, as x can
    sit within one ulp of the separation threshold."""
    gs = spec.g(np.asarray(xs, dtype=np.float64)).tolist()
    return [-math.inf if g <= 0.0 else math.log(g) - order_L * math.log(rho)
            for g, rho in zip(gs, rhos)]


def nu_lower_slack(xs: np.ndarray, vs, spec: LossSpec) -> list[float]:
    """log V - log(g/g')(x) per state; nonnegative once separated."""
    bounds = np.divide(*spec.g_pair(xs)).tolist()
    # scalar math.log: numpy's log differs from it in the last bit
    return [math.inf if b <= 0.0 else math.log(v) - math.log(b)
            for v, b in zip(vs, bounds)]


class FlowState(NamedTuple):
    t: float  # physical time; overflows to inf late on
    ev: PointEval  # the evaluation at theta(t)
    steps: int = 0


class StepInfo(NamedTuple):
    dt_scaled: float  # dt * exp(-x0), the controlled quantity; 0 if stationary
    next_dt_scaled: float  # proposal for the following step
    delta_rho_sq: float  # rho1^2 - rho0^2, cancellation-free
    delta_theta_hat: float  # ||theta_hat1 - theta_hat0||
    halvings: int


class FlowAbort(RuntimeError):
    """Step halving exhausted or non-finite values with no valid retreat."""


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


# rejected trials of one flow step before it aborts
MAX_HALVINGS = 60
# accepted steps after which the flow's trajectory ends
MAX_STEPS = 200_000


def flow_step(evaluator: Evaluator, state: FlowState, dt_scaled: float,
              step_tol: float) -> tuple[FlowState, StepInfo]:
    """One adaptive RK4 step of d theta/dt = -grad loss.

    Acceptance: the change of x = log(1/loss) is at most
    step_tol * max(1, |x|) and never negative beyond 1e-9 (descent).
    Rejected trials halve dt, at most MAX_HALVINGS times; stages that
    produce non-finite values count as rejections, and the trials run
    with numpy's overflow and invalid-value warnings off.
    """
    ev0 = state.ev
    if ev0.g_norm == 0.0 or dt_scaled == 0.0:
        return state, StepInfo(0.0, 0.0, 0.0, 0.0, 0)
    theta0, x0 = ev0.theta, ev0.x
    stage = evaluator.stage
    cap = step_tol * max(1.0, abs(x0))
    halvings = 0
    # an overflowing trial is a rejected one, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            try:
                x2, g2 = stage(theta0, dt_scaled / 2, ev0.G)
                # u = 2k: a doubled factor and a halved dt keep the k
                # form's bits
                u2 = (2.0 * math.exp(min(x0 - x2, 50.0))) * g2
                x3, g3 = stage(theta0, dt_scaled / 4, u2)
                u3 = (2.0 * math.exp(min(x0 - x3, 50.0))) * g3
                x4, g4 = stage(theta0, dt_scaled / 2, u3)
                # ((k1 + 2k2) + 2k3) + k4, in u2's buffer: k1 is ev0.G
                dtheta = u2
                dtheta += ev0.G
                dtheta += u3
                dtheta += math.exp(min(x0 - x4, 50.0)) * g4
                dtheta *= dt_scaled / 6.0
                ev1 = evaluate_point(evaluator, theta0 + dtheta)
                dx = ev1.x - x0
                if abs(dx) <= cap and dx >= -1e-9:
                    break
            except NonFiniteError:
                dx = math.nan
            halvings += 1
            if halvings > MAX_HALVINGS:
                raise FlowAbort(f"step rejected {MAX_HALVINGS} times at "
                                f"t={state.t}, x={x0}, last dx={dx}")
            dt_scaled /= 2.0
    # re-anchor the scale to the new x; steer |dx| toward 0.6 * cap
    gain = min(2.0, max(0.5, 0.6 * cap / max(abs(dx), cap / 100.0)))
    nxt = dt_scaled * math.exp(x0 - ev1.x) * gain
    dt = dt_scaled * math.exp(x0) if x0 < 700.0 else math.inf
    d_hat = ev1.unit - ev0.unit
    # ndarray.dot: the bits of @ on 1-d arrays, without its ufunc dispatch
    drho_sq = 2.0 * float(theta0.dot(dtheta)) + float(dtheta.dot(dtheta))
    info = StepInfo(dt_scaled, nxt, drho_sq, math.sqrt(d_hat.dot(d_hat)),
                    halvings)
    return FlowState(state.t + dt, ev1, state.steps + 1), info


def margin_rate_slack(d_log_tilde: float, rho0: float, rho1: float,
                      delta_theta_hat: float, order_L: float) -> float:
    """d log(tilde margin) minus its certified lower bound over a step
    that takes rho from rho0 to rho1 and theta_hat by delta_theta_hat:
    L (d log rho/dt)^{-1} ||d theta_hat/dt||^2 by the trapezoid rule,
    which telescopes to L ||delta theta_hat||^2 / delta log rho."""
    d_log_rho = math.log(rho1) - math.log(rho0)
    if delta_theta_hat == 0.0:
        return d_log_tilde
    if d_log_rho <= 0.0:
        return math.inf  # rho must grow once separated; flagged upstream
    return d_log_tilde - order_L * delta_theta_hat**2 / d_log_rho


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
        self.spec, self.order_L, self.t0 = spec, order_L, t0
        self.x_last, self.log_G = x0, -math.inf
        self.log_rhs_scale = (2.0 * math.log(order_L)
                              + (2.0 / order_L) * log_tilde0)

    def _log_integrand(self, v: np.ndarray) -> np.ndarray:
        g, g_prime = self.spec.g_pair(v)
        return (v + 2.0 * np.log(g_prime)
                - (2.0 - 2.0 / self.order_L) * np.log(g))

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
        # row-major, so each row sums in np.sum's pairwise order;
        # np.linspace(axis=1) returns a column-major grid
        v = np.ascontiguousarray(np.linspace(a, b, 9, axis=1))
        fv = self._log_integrand(v)
        h = (b - a) / 8.0
        weights = np.repeat(h[:, None], 9, axis=1)
        weights[:, [0, -1]] = (h / 2.0)[:, None]
        f_max = fv.max(axis=1)
        terms = np.exp(fv - f_max[:, None])
        terms *= weights
        top = fv == f_max[:, None]
        top_sum = np.add.reduce(terms * top, axis=1)
        terms[top] = 0.0
        rest = np.add.reduce(terms, axis=1) / top_sum
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


# states or records per array pass of the margin reads after a run's
# loop; bounds the (chunk, 9) integrand grids of a long run
MONITOR_CHUNK = 512


def margin_fields(records: list, spec: LossSpec, order_L: float) -> None:
    """Give each unflagged record, flow or descent, with x beyond f(b_f)
    its `log_tilde`, where finite, and `bar_gamma` from its x, rho and
    q_min: one `log_tilde_margin` call per MONITOR_CHUNK such records."""
    seps = [rec for rec in records if not rec.get("flagged")
            and rec["log_inv_loss"] > spec.f_at_bf]
    for i in range(0, len(seps), MONITOR_CHUNK):
        chunk = seps[i:i + MONITOR_CHUNK]
        lts = log_tilde_margin([rec["log_inv_loss"] for rec in chunk],
                               [rec["rho"] for rec in chunk], spec, order_L)
        for rec, lt in zip(chunk, lts):
            if lt > -math.inf:
                rec["log_tilde"] = lt
            rec["bar_gamma"] = _bar_gamma(rec["q_min"], rec["rho"], order_L)


def _bound_monitors(monitors: dict, spec: LossSpec, order_L: float,
                    cols: list) -> float | None:
    """The invariant monitors of a flow run after its loop, for the states
    from the first separated one on: cols holds (x, rho, t, V,
    ||delta theta_hat||, delta rho^2 / dt_scaled) per state, the last two
    of the step into it. Per MONITOR_CHUNK states, one array pass takes
    their log tilde and appends to `monitors` the five series of each
    state whose predecessor is separated. The growth residual is that of
    d(rho^2)/dt == 2 L nu, both sides over exp(-x0): delta rho^2 /
    dt_scaled against the trapezoid of 2 L V e^{x0-x}. The loss upper
    bound is anchored at the first state and skips a t that has
    overflowed to inf. Returns log_tilde0, the first finite log tilde of
    a separated state, else None."""
    bound = log_tilde0 = None
    prev = None  # (x, rho, V, log tilde) of the previous state
    for i in range(0, len(cols), MONITOR_CHUNK):
        xs, rhos, ts, vs, d_hats, rates = zip(*cols[i:i + MONITOR_CHUNK])
        lts = log_tilde_margin(xs, rhos, spec, order_L)
        if bound is None:
            bound = LossUpperBound(spec, order_L, xs[0], lts[0], ts[0])
        watched = []
        for x, rho, v, lt, d_hat, rate in zip(xs, rhos, vs, lts, d_hats,
                                              rates):
            watched.append(prev is not None and prev[0] > spec.f_at_bf)
            if watched[-1]:
                x0, rho0, v0, lt0 = prev
                rhs = order_L * (v0 + math.exp(x0 - x) * v)
                monitors["growth_residual"].append(
                    math.inf if rhs == 0.0 else abs(rate - rhs) / abs(rhs))
                d = lt - lt0
                monitors["margin_slack"].append(
                    margin_rate_slack(d, rho0, rho, d_hat, order_L))
                monitors["d_log_tilde"].append(d)
            if log_tilde0 is None and math.isfinite(lt) and x > spec.f_at_bf:
                log_tilde0 = lt
            prev = x, rho, v, lt
        x = np.array(xs)[watched]
        t = np.array(ts)[watched]
        monitors["nu_slack"] += nu_lower_slack(
            x, [v for v, w in zip(vs, watched) if w], spec)
        finite = np.isfinite(t)
        monitors["upper_slack"] += bound.slack(bound.update(x[finite]),
                                               t[finite])
    return log_tilde0


def flow_states(model: HomogeneousModel, theta0, dataset: Dataset,
                spec: LossSpec, *, step_tol: float,
                ) -> Iterator[tuple[FlowState, StepInfo | None]]:
    """The flow's trajectory, one accepted step at a time.

    Yields (state, None) for the start, then (state, info) after every
    accepted `flow_step`. Ends at exact stationarity (zero gradient, so
    no step is possible) or once MAX_STEPS steps have been taken;
    callers stop it at their own targets. One `Evaluator` serves the run.
    """
    evaluator = Evaluator(model, dataset, spec)
    with np.errstate(over="ignore"):  # rho past 1e154
        state = FlowState(0.0, evaluate_point(
            evaluator, np.asarray(theta0, dtype=np.float64)))
    dt_scaled = propose_dt_scaled(state.ev, step_tol)
    yield state, None
    while state.steps < MAX_STEPS:
        state, info = flow_step(evaluator, state, dt_scaled, step_tol)
        if info.dt_scaled == 0.0:
            return  # exactly stationary
        dt_scaled = info.next_dt_scaled
        yield state, info


def run_flow(model: HomogeneousModel, theta0, dataset: Dataset, spec: LossSpec,
             *, target_log_inv_loss: float, step_tol: float,
             record_every: int) -> dict:
    """Drive the flow until x reaches the target; collect per-step series.

    Returns a dict with the final state, per-step monitor series
    (activated after separation), trajectory records suitable for
    serialization, `log_tilde0`, the certificate anchor: the first
    finite log smoothed margin of a separated state, else None, and
    `abort`, the message of a `FlowAbort` that ended the run, else None.
    The loop keeps plain scalars per state from the first separated one
    on; the monitors (`_bound_monitors`) and the records' margins
    (`margin_fields`) are read after it.
    """
    records = []
    monitors = {k: [] for k in ("growth_residual", "margin_slack",
                                "nu_slack", "d_log_tilde", "upper_slack")}
    cols = []  # _bound_monitors' scalars per state from the first separated

    def record(st: FlowState):
        records.append({"t": st.t, "step": st.steps, "log_inv_loss": st.ev.x,
                        "rho": st.ev.rho,
                        "q_min": float(np.minimum.reduce(st.ev.q)),
                        "beta": st.ev.beta, "nu_rel": st.ev.V})

    abort = None
    try:
        for state, info in flow_states(model, theta0, dataset, spec,
                                       step_tol=step_tol):
            ev = state.ev
            if cols or ev.x > spec.f_at_bf:
                step = ((0.0, 0.0) if info is None else
                        (info.delta_theta_hat,
                         info.delta_rho_sq / info.dt_scaled))
                cols.append((ev.x, ev.rho, state.t, ev.V, *step))
            if state.steps % record_every == 0:
                record(state)
            if ev.x >= target_log_inv_loss:
                break
    except FlowAbort as err:  # the run ends at its last accepted state
        abort = f"flow aborted: {err}"
    if records[-1]["step"] != state.steps:
        record(state)
    log_tilde0 = _bound_monitors(monitors, spec, model.order_L, cols)
    margin_fields(records, spec, model.order_L)
    return {
        "state": state,
        "records": records,
        "monitors": monitors,
        "log_tilde0": log_tilde0,
        "abort": abort,
    }


# Mexican hat: a smooth order-L model rho^L (1 - f(r, phi)) of one
# sample whose flow direction circles forever. The planar hat flow
# preserves the spiral phase psi = phi - 1/(1 - r^2); integration uses
# time rescaled by the positive factor e^{-h} rho^{L-2} s(r) (direction
# trajectories are invariant under positive rescaling), since both the
# loss prefactor and the envelope s(r) = exp(-1/(1-r^2)) collapse by
# hundreds of orders along the run.
#
# State is carried in (r, psi) rather than (r, phi): the psi equation
# collapses algebraically to
#     dpsi/dsigma = -(4r^2/eps^4) (1 - cos psi) + sin(psi) D(r),
# which vanishes identically at psi = 0.0 in floating point. Raw polar
# coordinates destroy the invariant: psi = 0 is a difference of two
# large terms whose perturbations grow like exp(4 sigma / eps^4) once
# r > 0.62, so roundoff alone swamps the phase before r reaches 0.9.

# the hat's order L; run_hat starts at rho = HAT_RHO0, r = HAT_R0 and
# psi = HAT_PSI0, aims each step at HAT_DPHI of angle, and stops once r
# reaches HAT_R_STOP or after HAT_MAX_STEPS steps
HAT_L = 2.0
HAT_RHO0 = 1.0
HAT_R0 = 0.5
HAT_PSI0 = 0.0
HAT_R_STOP = 0.992
HAT_MAX_STEPS = 100_000
HAT_DPHI = 0.015


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


def _hat_rhs(r: float, psi: float, metric: str) -> tuple[float, float, float]:
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
    dlogrho = HAT_L * one_minus_f * math.exp(min(1.0 / eps, 700.0))
    return dr, dpsi, dlogrho


def hat_step(state: HatState, dsigma: float, metric: str,
             k1: tuple) -> HatState:
    """One RK4 step in rescaled time, k1 its slope at the state; clamps
    and flags if r exits (0,1)."""
    # float arithmetic, one component at a time, in the order of the
    # vector form y0 + h * k; an oversized step overflows to inf and
    # clamps below rather than raising
    y0 = (state.r, state.psi, state.log_rho)
    half = dsigma / 2

    def rhs(y):
        return _hat_rhs(y[0], y[1], metric)

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
    # physical dt/dsigma = e^{h}/(rho^{L-2} s); overflows by design
    h0 = math.exp(min(state.log_rho * HAT_L, 700.0)) * (
        1.0 - hat_value(state.r, state.psi))
    log_rate = (h0 - (HAT_L - 2.0) * state.log_rho
                + 1.0 / (1.0 - state.r**2))
    t1 = state.t + dsigma * math.exp(log_rate) if log_rate < 700.0 else math.inf
    return HatState(sigma=state.sigma + dsigma, t=t1, r=r1, psi=psi1,
                    log_rho=log_rho1, clamped=clamped or state.clamped)


def run_hat(*, record_every: int, metric: str) -> list[dict]:
    """Integrate from the HAT_* start until r reaches HAT_R_STOP; emit
    every record_every-th state's record and the last."""
    state = HatState(sigma=0.0, t=0.0, r=HAT_R0, psi=HAT_PSI0,
                     log_rho=math.log(HAT_RHO0))
    records = []

    def push(st: HatState):
        log10_h = (HAT_L * st.log_rho
                   + math.log1p(-hat_value(st.r, st.psi))) / math.log(10.0)
        records.append({
            "sigma": st.sigma, "t": st.t, "r": st.r, "phi": st.phi,
            "psi": st.psi, "rho": st.rho, "log_rho": st.log_rho,
            "log10_h": log10_h, "clamped": st.clamped,
        })

    push(state)
    for step in range(1, HAT_MAX_STEPS + 1):
        dr, dpsi, _ = k1 = _hat_rhs(state.r, state.psi, metric)
        slope = 2.0 * state.r / (1.0 - state.r**2) ** 2
        dphi = dpsi + slope * dr
        dsigma = HAT_DPHI / max(abs(dphi), 1e-12)
        if abs(dr) > 0.0:
            dsigma = min(dsigma, 0.002 / abs(dr))
        state = hat_step(state, dsigma, metric, k1)
        if step % record_every == 0 or state.r >= HAT_R_STOP:
            push(state)
        if state.r >= HAT_R_STOP:
            break
    return records
