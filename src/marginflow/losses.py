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
    (f(q), f'(q)) and g_pair(x) (g(x), g'(x)) bit for bit, sharing their
    common work; a spec built without one calls the two functions. K,
    b_g, p are the tail-comparability constants; None when not
    established.
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
    g_pair: Callable | None = None

    def __post_init__(self):
        for pair, a, b in (("f_pair", self.f, self.f_prime),
                           ("g_pair", self.g, self.g_prime)):
            if getattr(self, pair) is None:
                object.__setattr__(self, pair,
                                   lambda v, a=a, b=b: (a(v), b(v)))

    @cached_property
    def f_at_bf(self) -> float:
        return float(self.f(self.b_f))


# exponential loss: f = g = identity

def _exp_pair(q):
    """(q + 0.0, ones): f and f', and g and g', from one call; a float
    gives numpy scalars, so division by zero still warns."""
    if isinstance(q, float):
        return np.float64(q) + 0.0, np.float64(1.0)
    q = _as_f64(q)
    ones = np.empty(q.shape)
    ones.fill(1.0)  # half the time of np.ones, a Python-level function
    return q + 0.0, ones


def make_exponential() -> LossSpec:
    ident, ones = (lambda q: _exp_pair(q)[0]), (lambda q: _exp_pair(q)[1])
    return LossSpec(name="exp", f=ident, f_prime=ones, g=ident, g_prime=ones,
                    b_f=0.0, K=1.0, b_g=0.0, p=0.0, f_pair=_exp_pair,
                    g_pair=_exp_pair)


# logistic loss: ell(q) = log(1 + e^{-q})

def _logistic_f_pair(q):
    """(f(q), f'(q)) from one softplus: f = -log softplus(-q) and
    f' = sigmoid(-q)/softplus(-q).

    softplus(-q) underflows past q ~ 745, where f(q) = q; sigmoid(-q)
    underflows with it and the ratio f' tends to 1.
    """
    q = _as_f64(q)
    # a byte scan of the mask for a False: a third of a ufunc reduction
    if 0 not in (q >= 0.0).tobytes():
        # separated margins: |q| = q and min(q, 0) = 0, so the one-sided
        # forms take the bits of the two-sided ones (NaN takes those)
        u = np.exp(-q)
        sp, sig = np.log1p(u), u / (1.0 + u)
    else:
        # u = e^{-|q|}; log1p(u) - min(q, 0) takes the bits of choosing
        # between log1p(u) and -q + log1p(u) on the sign of q
        u = np.exp(-np.abs(q))
        sp = np.log1p(u) - np.minimum(q, 0.0)
        sig = np.where(q >= 0.0, u, 1.0) / (1.0 + u)
    if 0 not in (sp > 0.0).tobytes():  # NaN: guard
        return -np.log(sp), sig / sp
    safe = sp > 0.0
    sp = np.where(safe, sp, 1.0)
    return np.where(safe, -np.log(sp), q), np.where(safe, sig / sp, 1.0)


_LOGISTIC_F_AT_BF = float(-np.log(np.log(2.0)))


def _logistic_series(u):
    """u/2 + u^2/6 + u^3/24 = expm1(u)/u - 1 to third order, for x > 30."""
    return u * (0.5 + u * (1.0 / 6.0 + u / 24.0))


def _logistic_g_scalar(x: float):
    u = np.exp(-min(x, 745.0))  # min keeps a NaN x as np.minimum does
    if x > 30.0:
        return x - np.log1p(_logistic_series(u))
    return -np.log(np.expm1(u))


def _logistic_g_prime_scalar(x: float):
    u = np.exp(-min(x, 745.0))
    if x > 30.0:
        return np.exp(u) / (1.0 + _logistic_series(u))
    return u * np.exp(u) / np.expm1(u)


def _logistic_g_pair(x):
    """(g(x), g'(x)) with g(x) = -log(e^{e^{-x}} - 1) on [-log log 2, inf)
    and g'(x) = u e^u / (e^u - 1), u = e^{-x}, which falls to 1; past
    x = 30, -log(expm1(u)) = x - log1p(u/2 + u^2/6 + u^3/24)."""
    x = _as_f64(x)
    u = np.exp(-np.minimum(x, 745.0))
    tail = x > 30.0
    series = _logistic_series(u)
    em1 = np.expm1(np.where(tail, 1.0, u))
    e = np.exp(u)
    return (np.where(tail, x - np.log1p(series), -np.log(em1)),
            np.where(tail, e / (1.0 + series), u * e / em1))


def _with_domain_check(fn, scalar_fn, f_at_bf, name):
    """fn behind the domain check x >= f(b_f) - 1e-9; NaN passes.

    A float (np.float64 included) goes to scalar_fn, which computes
    only the branch that fn's np.where would select, with the same
    ufuncs in the same order, so both paths agree bit for bit
    (tests/test_losses.py); a one-number call, such as a flow state's
    smoothed margin or a bisection step, then skips the array round trip.
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
            f"{name}: argument {np.min(x)} below f(b_f) = {f_at_bf}")

    return checked


def make_logistic(name: str = "logistic") -> LossSpec:
    return LossSpec(
        name=name,
        f=lambda q: _logistic_f_pair(q)[0],
        f_prime=lambda q: _logistic_f_pair(q)[1],
        g=_with_domain_check(lambda x: _logistic_g_pair(x)[0],
                             _logistic_g_scalar, _LOGISTIC_F_AT_BF, name),
        g_prime=_with_domain_check(lambda x: _logistic_g_pair(x)[1],
                                   _logistic_g_prime_scalar,
                                   _LOGISTIC_F_AT_BF, name),
        g_pair=_with_domain_check(
            _logistic_g_pair, lambda x: (_logistic_g_scalar(x),
                                         _logistic_g_prime_scalar(x)),
            _LOGISTIC_F_AT_BF, name),
        b_f=0.0, K=2.0, b_g=2.0, p=1.0, f_pair=_logistic_f_pair)


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
        # c * c: a scalar's ** 2 calls pow, an array's squares by
        # multiplication, so both paths give the same bits
        c = np.cbrt(np.maximum(x, 0.0))
        with np.errstate(divide="ignore"):
            return 1.0 / (3.0 * (c * c))

    return LossSpec(
        name="exp_cubed", f=f, f_prime=f_prime,
        g=_with_domain_check(g, g, 0.0, "exp_cubed"),
        g_prime=_with_domain_check(g_prime, g_prime, 0.0, "exp_cubed"),
        b_f=0.0, K=4.0, b_g=1.0, p=2.0)


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

# validate_b3 takes q = b_f + geomspace(*B3_GRID), and f'(q) q must pass
# B3_DIVERGENCE
B3_GRID = (1e-3, 1e3, 10_000)
B3_DIVERGENCE = 100.0


def validate_b3(spec: LossSpec) -> dict:
    """Grid checks of the loss-family assumptions as the dict {"loss",
    "ok", "clauses"}: one {"clause", "passed", "worst"} per check, with
    `worst` the value held against its bound, and `ok` iff all passed.
    Failures are reported, never raised."""
    q = spec.b_f + np.geomspace(*B3_GRID)
    clauses = []

    fp = spec.f_prime(q)
    clauses.append(_clause("f_prime_positive", np.all(fp > 0.0), np.min(fp)))

    fq = fp * q
    diffs = np.diff(fq)
    # non-decreasing up to relative rounding slack
    tol = -1e-12 * np.maximum(np.abs(fq[:-1]), 1.0)
    j = int(np.argmin(diffs - tol))
    clauses.append(_clause("fq_nondecreasing", np.all(diffs >= tol),
                           diffs[j]))
    clauses.append(_clause("fq_diverges", fq[-1] > B3_DIVERGENCE, fq[-1]))

    qr = np.linspace(spec.b_f + 0.1, 50.0, 500)
    back = spec.g(spec.f(qr))
    rel = np.abs(back - qr) / np.maximum(np.abs(qr), 1.0)
    clauses.append(_clause("g_roundtrip", np.max(rel) <= 1e-10, np.max(rel)))

    if spec.K is not None and spec.b_g is not None:
        clauses.append(_check_b34(spec))

    return {"loss": spec.name, "ok": all(c["passed"] for c in clauses),
            "clauses": clauses}


def _clause(name: str, passed, worst) -> dict:
    return {"clause": name, "passed": bool(passed), "worst": float(worst)}


def _check_b34(spec: LossSpec) -> dict:
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
    return _clause("b34_tail_comparability", worst <= 1.0 + 1e-12, worst)
