"""Exponential-tail loss families: ell(q) = exp(-f(q)) with inverse g.

Each family is two functions, (f, f') and (g, g'), plus the tail
constants (K, b_g, p) used by the discrete-time margin machinery. Trajectories reach losses
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

    A family is two functions: f_pair(q) returns (f(q), f'(q)), on all
    of R, and g_pair(x) (g(x), g'(x)), only on [f(b_f), inf), the range
    where f is invertible; a derivative is an array, or the float 1.0
    where it is identically 1 (exp). f, f_prime, g and g_prime are their
    halves, fields only so that span tracing (perfbench/spans.py) can
    swap them. K, b_g, p are the tail-comparability constants.
    """

    name: str
    f_pair: Callable
    g_pair: Callable
    b_f: float
    K: float
    b_g: float
    p: float
    f: Callable | None = None
    f_prime: Callable | None = None
    g: Callable | None = None
    g_prime: Callable | None = None

    def __post_init__(self):
        for pair, halves in ((self.f_pair, ("f", "f_prime")),
                             (self.g_pair, ("g", "g_prime"))):
            for i, half in enumerate(halves):
                if getattr(self, half) is None:
                    object.__setattr__(self, half,
                                       lambda v, pair=pair, i=i: pair(v)[i])

    @cached_property
    def f_at_bf(self) -> float:
        return float(self.f(self.b_f))


# exponential loss: f = g = identity

def _exp_pair(q):
    """(q + 0.0, 1.0): f and f', and g and g', from one call."""
    return np.add(q, 0.0, dtype=np.float64), 1.0


def make_exponential() -> LossSpec:
    return LossSpec("exp", _exp_pair, _exp_pair, b_f=0.0, K=1.0, b_g=0.0,
                    p=0.0)


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


def _logistic_g_pair(x):
    """(g(x), g'(x)) with g(x) = -log(e^{e^{-x}} - 1) on [-log log 2, inf)
    and g'(x) = u e^u / (e^u - 1), u = e^{-x}, which falls to 1; past
    x = 30, -log(expm1(u)) = x - log1p(u/2 + u^2/6 + u^3/24)."""
    u = np.exp(-np.minimum(x, 745.0))
    tail = x > 30.0
    series = _logistic_series(u)
    em1 = np.expm1(np.where(tail, 1.0, u))
    e = np.exp(u)
    return (np.where(tail, x - np.log1p(series), -np.log(em1)),
            np.where(tail, e / (1.0 + series), u * e / em1))


def _with_domain_check(fn, f_at_bf, name):
    """fn on float64 arrays behind the domain check x >= f(b_f) - 1e-9;
    NaN passes."""
    def checked(x):
        x = _as_f64(x)
        if np.any(x < f_at_bf - 1e-9):
            raise LossDomainError(
                f"{name}: argument {np.min(x)} below f(b_f) = {f_at_bf}")
        return fn(x)

    return checked


def make_logistic(name: str = "logistic") -> LossSpec:
    g_pair = _with_domain_check(_logistic_g_pair, _LOGISTIC_F_AT_BF, name)
    return LossSpec(name, _logistic_f_pair, g_pair, b_f=0.0, K=2.0, b_g=2.0,
                    p=1.0)


# cubed-exponent loss: ell(q) = e^{-q^3}; in-family with b_f = 0.
# Tail constants are analytic here: f'(y)/f'(ty) = t^{-2} <= 4 for
# t in [1/2, 1), and g' is decreasing so its clause holds with K = 1;
# hence K = 4 = 2^2, p = 2, and any b_g > 0 works (we fix 1).

def _exp_cubed_f_pair(q):
    q = _as_f64(q)
    return q ** 3, 3.0 * q ** 2


def _exp_cubed_g_pair(x):
    """(cbrt(x), 1 / (3 cbrt(x)^2)) on x >= 0; np.maximum keeps -0.0, and
    c * c, unlike a numpy scalar's ** 2, calls no pow."""
    c = np.cbrt(np.maximum(x, 0.0))
    with np.errstate(divide="ignore"):
        return c, 1.0 / (3.0 * (c * c))


def make_exp_cubed() -> LossSpec:
    g_pair = _with_domain_check(_exp_cubed_g_pair, 0.0, "exp_cubed")
    return LossSpec("exp_cubed", _exp_cubed_f_pair, g_pair, b_f=0.0, K=4.0,
                    b_g=1.0, p=2.0)


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
