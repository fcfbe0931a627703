"""Exponential-tail loss families: ell(q) = exp(-f(q)) with inverse g.

Each family carries the pair (f, g) plus the tail constants (K, b_g, p)
used by the discrete-time margin machinery. Trajectories reach losses
around 1e-800, so every function of the loss has a log-domain entry
point taking x = log(1/loss) directly; the loss value itself is never
required once it would underflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np


class LossDomainError(ValueError):
    """Evaluation outside the monotone domain, e.g. loss above ell(b_f)."""


def _as_f64(q):
    return np.asarray(q, dtype=np.float64)


@dataclass(frozen=True)
class LossSpec:
    """One loss family; immutable and freely shareable across workers.

    f and f_prime are defined on all of R; g and g_prime only on
    [f(b_f), inf), the range where f is invertible. f_pair(q) returns
    (f(q), f'(q)) bit for bit, sharing their common work; a spec built
    without one calls f and f_prime. K, b_g, p are the
    tail-comparability constants; None when not established.
    """

    name: str
    f: Callable
    f_prime: Callable
    g: Callable
    g_prime: Callable
    b_f: float
    K: float | None = None
    b_g: float | None = None
    p: float | None = None
    f_pair: Callable | None = None

    def __post_init__(self):
        if self.f_pair is None:
            f, f_prime = self.f, self.f_prime
            object.__setattr__(self, "f_pair", lambda q: (f(q), f_prime(q)))

    @cached_property
    def f_at_bf(self) -> float:
        return float(self.f(self.b_f))



# exponential loss: f = g = identity

def make_exponential() -> LossSpec:
    # a float stays a numpy scalar, so division by zero still warns
    ident = lambda q: (np.float64(q) if isinstance(q, float)
                       else _as_f64(q)) + 0.0
    ones = lambda q: (np.float64(1.0) if isinstance(q, float)
                      else np.ones_like(_as_f64(q)))
    return LossSpec(
        name="exp",
        f=ident,
        f_prime=ones,
        g=ident,
        g_prime=ones,
        b_f=0.0,
        K=1.0,
        b_g=0.0,
        p=0.0,
    )


# logistic loss: ell(q) = log(1 + e^{-q})

def _logistic_softplus(q):
    """(softplus(-q), u) with u = e^{-|q|}, stable on all of R.

    softplus(-q) = log1p(u) - min(q, 0) takes the same bits as choosing
    between log1p(u) and -q + log1p(u) on the sign of q.
    """
    u = np.exp(-np.abs(q))
    return np.log1p(u) - np.minimum(q, 0.0), u


def _logistic_f_pair(q):
    """(f(q), f'(q)) from one softplus: f = -log softplus(-q) and
    f' = sigmoid(-q)/softplus(-q).

    softplus(-q) underflows past q ~ 745, where f(q) = q; sigmoid(-q)
    underflows with it and the ratio f' tends to 1.
    """
    q = _as_f64(q)
    sp, u = _logistic_softplus(q)
    sig = np.where(q >= 0.0, u, 1.0) / (1.0 + u)
    if np.minimum.reduce(sp, axis=None, initial=np.inf) > 0.0:  # NaN: guard
        return -np.log(sp), sig / sp
    safe = sp > 0.0
    sp = np.where(safe, sp, 1.0)
    return np.where(safe, -np.log(sp), q), np.where(safe, sig / sp, 1.0)


_LOGISTIC_F_AT_BF = float(-np.log(np.log(2.0)))


def _logistic_series(u):
    """u/2 + u^2/6 + u^3/24 = expm1(u)/u - 1 to third order, for x > 30."""
    return u * (0.5 + u * (1.0 / 6.0 + u / 24.0))


def _logistic_g(x):
    """g(x) = -log(e^{e^{-x}} - 1) on [-log log 2, inf)."""
    x = _as_f64(x)
    u = np.exp(-np.minimum(x, 745.0))
    tail = x > 30.0
    # tail: -log(expm1(u)) = x - log1p(u/2 + u^2/6 + u^3/24)
    series = x - np.log1p(_logistic_series(u))
    direct = -np.log(np.expm1(np.where(tail, 1.0, u)))
    return np.where(tail, series, direct)


def _logistic_g_scalar(x: float):
    u = np.exp(-min(x, 745.0))  # min keeps a NaN x as np.minimum does
    if x > 30.0:
        return x - np.log1p(_logistic_series(u))
    return -np.log(np.expm1(u))


def _logistic_g_prime(x):
    """g'(x) = u e^u / (e^u - 1) with u = e^{-x}; decreasing, limit 1."""
    x = _as_f64(x)
    u = np.exp(-np.minimum(x, 745.0))
    tail = x > 30.0
    series = np.exp(u) / (1.0 + _logistic_series(u))
    direct = u * np.exp(u) / np.expm1(np.where(tail, 1.0, u))
    return np.where(tail, series, direct)


def _logistic_g_prime_scalar(x: float):
    u = np.exp(-min(x, 745.0))
    if x > 30.0:
        return np.exp(u) / (1.0 + _logistic_series(u))
    return u * np.exp(u) / np.expm1(u)


def _with_domain_check(fn, scalar_fn, f_at_bf, name):
    """fn behind the domain check x >= f(b_f) - 1e-9; NaN passes.

    A float (np.float64 included) goes to scalar_fn, which computes
    only the branch that fn's np.where would select, with the same
    ufuncs in the same order, so both paths agree bit for bit
    (tests/test_losses.py); a one-number call then skips the array
    round trip that quadrature integrands pay on every evaluation.
    """
    lo = f_at_bf - 1e-9

    def checked(x):
        if isinstance(x, float):
            if not x < lo:
                return scalar_fn(x)
        else:
            x = _as_f64(x)
            if not np.any(x < lo):
                return fn(x)
        raise LossDomainError(
            f"{name}: argument {np.min(x)} below f(b_f) = {f_at_bf}"
        )

    return checked


def make_logistic(name: str = "logistic") -> LossSpec:
    return LossSpec(
        name=name,
        f=lambda q: _logistic_f_pair(q)[0],
        f_prime=lambda q: _logistic_f_pair(q)[1],
        g=_with_domain_check(_logistic_g, _logistic_g_scalar,
                             _LOGISTIC_F_AT_BF, name),
        g_prime=_with_domain_check(_logistic_g_prime, _logistic_g_prime_scalar,
                                   _LOGISTIC_F_AT_BF, name),
        b_f=0.0,
        K=2.0,
        b_g=2.0,
        p=1.0,
        f_pair=_logistic_f_pair,
    )


# cubed-exponent loss: ell(q) = e^{-q^3}; in-family with b_f = 0.
# Tail constants are analytic here: f'(y)/f'(ty) = t^{-2} <= 4 for
# t in [1/2, 1), and g' is decreasing so its clause holds with K = 1;
# hence K = 4 = 2^2, p = 2, and any b_g > 0 works (we fix 1).

def make_exp_cubed() -> LossSpec:
    f = lambda q: _as_f64(q) ** 3
    f_prime = lambda q: 3.0 * _as_f64(q) ** 2

    def g(x):
        return np.cbrt(np.maximum(x, 0.0))  # np.maximum keeps -0.0

    def g_prime(x):
        x = np.maximum(x, 0.0)
        with np.errstate(divide="ignore"):
            return 1.0 / (3.0 * np.cbrt(x) ** 2)

    def g_prime_scalar(x):
        # an array's ** 2 squares by multiplication; a scalar's calls pow
        c = np.cbrt(np.maximum(x, 0.0))
        with np.errstate(divide="ignore"):
            return 1.0 / (3.0 * (c * c))

    return LossSpec(
        name="exp_cubed",
        f=f,
        f_prime=f_prime,
        g=_with_domain_check(g, g, 0.0, "exp_cubed"),
        g_prime=_with_domain_check(g_prime, g_prime_scalar, 0.0, "exp_cubed"),
        b_f=0.0,
        K=4.0,
        b_g=1.0,
        p=2.0,
    )


_REGISTRY = {
    "exp": make_exponential,
    "logistic": make_logistic,
    "cross_entropy": lambda: make_logistic("cross_entropy"),
    "exp_cubed": make_exp_cubed,
}


def get_loss(name: str) -> LossSpec:
    if name not in _REGISTRY:
        raise ValueError(f"unknown loss {name!r}; have {sorted(_REGISTRY)}")
    return _REGISTRY[name]()


# assumption validators

@dataclass(frozen=True)
class ClauseResult:
    clause: str
    passed: bool
    worst: float


@dataclass(frozen=True)
class B3Report:
    loss_name: str
    clauses: tuple[ClauseResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.clauses)


def validate_b3(spec: LossSpec, grid: np.ndarray | None = None,
                divergence_bound: float = 100.0) -> B3Report:
    """Grid checks of the loss-family assumptions; failures are reported,
    never raised."""
    if grid is None:
        grid = np.geomspace(1e-3, 1e3, 10_000)
    q = spec.b_f + np.asarray(grid, dtype=np.float64)
    clauses = []

    fp = spec.f_prime(q)
    clauses.append(ClauseResult("f_prime_positive", bool(np.all(fp > 0.0)),
                                float(np.min(fp))))

    fq = fp * q
    diffs = np.diff(fq)
    # non-decreasing up to relative rounding slack
    tol = -1e-12 * np.maximum(np.abs(fq[:-1]), 1.0)
    j = int(np.argmin(diffs - tol))
    clauses.append(ClauseResult("fq_nondecreasing",
                                bool(np.all(diffs >= tol)), float(diffs[j])))
    clauses.append(ClauseResult("fq_diverges", bool(fq[-1] > divergence_bound),
                                float(fq[-1])))

    qr = np.linspace(spec.b_f + 0.1, 50.0, 500)
    back = spec.g(spec.f(qr))
    rel = np.abs(back - qr) / np.maximum(np.abs(qr), 1.0)
    clauses.append(ClauseResult("g_roundtrip", bool(np.max(rel) <= 1e-10),
                                float(np.max(rel))))

    if spec.K is not None and spec.b_g is not None:
        clauses.append(_check_b34(spec))

    return B3Report(loss_name=spec.name, clauses=tuple(clauses))


def _check_b34(spec: LossSpec) -> ClauseResult:
    """Tail comparability: g'(x) <= K g'(tx) and f'(y) <= K f'(ty) for
    t in [1/2, 1), x > b_g, y > g(b_g)."""
    xs = np.geomspace(max(spec.b_g, 1e-6) + 1e-9, 600.0, 200)
    ts = np.linspace(0.5, 0.999, 40)
    worst = -np.inf
    for t in ts:
        r1 = spec.g_prime(xs) / (spec.K * spec.g_prime(t * xs))
        ys = spec.g(xs)
        r2 = spec.f_prime(ys) / (spec.K * spec.f_prime(t * ys))
        worst = max(worst, float(np.max(np.maximum(r1, r2))))
    return ClauseResult("b34_tail_comparability", worst <= 1.0 + 1e-12, worst)
