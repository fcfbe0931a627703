"""Loss family machinery vs high-precision (mpmath) oracles."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginflow import losses

from oracles import (lambda_from_log_inv_loss, lambda_of_loss, logistic_f,
                     logistic_f_prime, logistic_softplus_neg, make_custom)

mp.mp.dps = 60


def mp_logistic_f(q):
    return -mp.log(mp.log1p(mp.e**(-mp.mpf(q))))


def mp_logistic_g(x):
    return -mp.log(mp.expm1(mp.e**(-mp.mpf(x))))


def test_exponential_identities():
    spec = losses.make_exponential()
    assert spec.f(3.0) == 3.0
    assert spec.g(3.0) == 3.0
    assert np.exp(-spec.f_at_bf) == 1.0  # the separability threshold ell(b_f)
    assert float(np.exp(-spec.f(0.0))) == 1.0
    assert abs(float(spec.g(-np.log(np.exp(-5.0)))) - 5.0) < 1e-12
    assert spec.f_prime(7.0) == 1.0 and spec.g_prime(7.0) == 1.0


def test_logistic_threshold_and_gprime_tail():
    spec = losses.make_logistic()
    assert abs(np.exp(-spec.f_at_bf) - np.log(2.0)) < 1e-12
    assert abs(float(spec.g_prime(40.0)) - 1.0) < 1e-10
    assert abs(float(spec.g(spec.f(1.0))) - 1.0) < 1e-10


@pytest.mark.parametrize("q", [-50.0, -3.0, -0.5, 0.0, 0.7, 3.0, 25.0, 80.0, 400.0, 700.0])
def test_logistic_f_matches_mpmath(q):
    spec = losses.make_logistic()
    ref = float(mp_logistic_f(q))
    assert abs(float(spec.f(q)) - ref) <= 1e-13 * max(1.0, abs(ref))
    ref_p = float(mp.diff(mp_logistic_f, mp.mpf(q)))
    assert abs(float(spec.f_prime(q)) - ref_p) <= 1e-12 * max(1.0, abs(ref_p))


@pytest.mark.parametrize("x", [0.4, 0.7, 1.0, 5.0, 29.0, 31.0, 120.0, 700.0])
def test_logistic_g_matches_mpmath(x):
    spec = losses.make_logistic()
    ref = float(mp_logistic_g(x))
    assert abs(float(spec.g(x)) - ref) <= 1e-13 * max(1.0, abs(ref))
    ref_p = float(mp.diff(mp_logistic_g, mp.mpf(x)))
    assert abs(float(spec.g_prime(x)) - ref_p) <= 1e-12


def test_log_domain_entry_points_stay_finite():
    # losses near e^{-2000} exist only as x = log(1/loss)
    for name in ("exp", "logistic", "exp_cubed"):
        spec = losses.get_loss(name)
        x = 2000.0
        assert np.isfinite(spec.g(x)) and np.isfinite(spec.g_prime(x))
        assert np.isfinite(lambda_from_log_inv_loss(spec, x))


def test_lambda_of_loss():
    exp = losses.make_exponential()
    assert abs(lambda_of_loss(exp, np.exp(-10.0)) - 0.1) < 1e-14
    logi = losses.make_logistic()
    x = 200.0 * np.log(10.0)
    lam = float(lambda_from_log_inv_loss(logi, x))
    assert abs(lam * x - 1.0) < 1e-3
    with pytest.raises(losses.LossDomainError):
        lambda_of_loss(exp, 1.0)
    with pytest.raises(losses.LossDomainError):
        lambda_of_loss(logi, np.exp(-logi.f_at_bf))


def _typed_bits(pair, q):
    """Type, dtype, shape and bytes of each half of pair(q), or the
    message of the domain error it raises."""
    try:
        with np.errstate(all="ignore"):
            halves = pair(q)
    except losses.LossDomainError as err:
        return str(err)
    return [(type(a), np.asarray(a).dtype, np.shape(a),
             np.asarray(a).tobytes()) for a in halves]


@pytest.mark.parametrize("name", sorted(losses._REGISTRY))
def test_pairs_bits_match_the_two_functions(name):
    # the LossSpec contract, for the one-call pairs and the wrapper alike
    spec = losses.get_loss(name)
    edges = np.array([0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 746.0,
                      -746.0, 1e308, -1e308, np.nan])
    for q in (edges, edges[::-1].copy(), np.abs(edges),
              np.append(np.abs(edges[4:]), 30.5), np.array(0.5),
              np.array(-1e308), 0.25, -746.0, np.float64(3.0), np.array([])):
        assert _typed_bits(spec.f_pair, q) == _typed_bits(
            lambda v: (spec.f(v), spec.f_prime(v)), q), (name, q)
        assert _typed_bits(spec.g_pair, q) == _typed_bits(
            lambda v: (spec.g(v), spec.g_prime(v)), q), (name, q)
    # one number, a float or an np.float64, takes the bits of a 0-d array
    # and, below f(b_f) - 1e-9, raises the message of a one-element
    # column; NaN, +-0.0 and a point within the slack are checked too
    fb = spec.f_at_bf
    for v in (fb - 2e-9, fb - 1.0, -1e300, -np.inf, fb - 0.5e-9, np.nan,
              0.0, -0.0):
        for pair in (spec.g_pair, lambda u: (spec.g(u), spec.g_prime(u))):
            want = _typed_bits(pair, np.array(v))
            assert _typed_bits(pair, v) == want, (name, v)
            assert _typed_bits(pair, np.float64(v)) == want, (name, v)
            below = name != "exp" and v < fb - 1e-9  # exp checks none
            assert isinstance(want, str) == below, (name, v)
            if below:
                assert want == _typed_bits(pair, np.array([v]))


def test_f_at_bf_computed_once():
    for name in sorted(losses._REGISTRY):
        spec = losses.get_loss(name)
        calls = []
        counted = losses.LossSpec(
            name, lambda q: calls.append(q) or spec.f_pair(q), spec.g_pair,
            spec.b_f, spec.K, spec.b_g, spec.p)
        assert counted.f_at_bf == float(spec.f(spec.b_f))
        assert counted.f_at_bf == counted.f_at_bf and len(calls) == 1


def test_logistic_f_and_f_prime_bit_equal_to_oracle():
    # the shared-softplus form and its unguarded all-safe branch must
    # give the bits of the two-branch np.where form, specials included
    grid = np.linspace(-800.0, 800.0, 120_001)
    specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 745.0, -745.0,
                         746.0, -746.0, np.nextafter(745.0, 0.0), 1e-300,
                         -1e-300, 5e-324, -5e-324])
    spec = losses.get_loss("logistic")
    for new, old in ((spec.f, logistic_f), (spec.f_prime, logistic_f_prime)):
        # f and f' are the two halves of the one-softplus pair
        for q in (grid, specials, np.concatenate([specials, grid]),
                  grid[:-1].reshape(-1, 8)):
            got = np.asarray(new(q)).view(np.int64)
            assert np.array_equal(got, old(q).view(np.int64)), new
        # chunks of 8 as the flow evaluates them: most are all-safe and
        # take the direct return, those past |q| ~ 745 take the guard
        chunks = grid[:-1].reshape(-1, 8)
        fast = 0
        for chunk in chunks:
            got = np.asarray(new(chunk)).view(np.int64)
            assert np.array_equal(got, old(chunk).view(np.int64)), chunk
            fast += bool(np.all(logistic_softplus_neg(chunk) > 0.0))
        assert 0 < fast < len(chunks)
        for v in specials:  # one number, as float and as a 0-d array
            for arg in (float(v), np.array(v)):
                assert np.float64(new(arg)).view(np.int64) \
                    == np.float64(old(arg)).view(np.int64), (new, v)
        assert new(np.array([])).shape == (0,)


def test_logistic_one_sided_path_keeps_the_bits(monkeypatch):
    # min q >= 0, every separated state, takes u = e^{-q} and log1p(u)
    # directly; one negative entry sends the same values down the
    # two-sided path (u = e^{-|q|}, log1p(u) - min(q, 0))
    abs_calls = []
    real_abs = np.abs
    monkeypatch.setattr(np, "abs", lambda q: abs_calls.append(1)
                        or real_abs(q))

    def bits(q):
        del abs_calls[:]
        f, fp = losses._logistic_f_pair(np.array(q))
        return f.view(np.int64), fp.view(np.int64), bool(abs_calls)

    for v in (0.0, -0.0, 1e-300, 30.0, 745.0, 746.0, 1e308, np.nan):
        f1, fp1, two_sided = bits([v, v])
        assert two_sided == (v != v)  # NaN fails min q >= 0
        f2, fp2, two_sided = bits([v, -1.0])
        assert two_sided
        assert f1[0] == f2[0] and fp1[0] == fp2[0], v
    mixed = np.array([3.0, -2.0, 0.0, 800.0, -0.0, 1e-300, -745.5, 40.0,
                      746.0, -1e-300])
    f, fp, two_sided = bits(mixed)
    assert two_sided
    assert np.array_equal(f, logistic_f(mixed).view(np.int64))
    assert np.array_equal(fp, logistic_f_prime(mixed).view(np.int64))
    sep = mixed >= 0.0
    f1, fp1, two_sided = bits(mixed[sep])
    assert not two_sided
    assert np.array_equal(f1, f[sep]) and np.array_equal(fp1, fp[sep])


def test_g_domain_error_below_threshold():
    spec = losses.make_logistic()
    with pytest.raises(losses.LossDomainError):
        spec.g(0.2)  # below f(b_f) = -log log 2 ~ 0.3665


def test_validate_b3_builtin_families():
    for name in ("exp", "logistic", "exp_cubed"):
        report = losses.validate_b3(losses.get_loss(name))
        assert report["ok"], (name, [c for c in report["clauses"]
                              if not c["passed"]])


def test_validate_b3_catches_polynomial_tail():
    # f(q) = log(1+q) has f'(q)q -> 1, so the divergence clause must fail;
    # no tail constants fit it, so it takes logistic's
    bad = losses.LossSpec(
        "poly_tail",
        lambda q: (np.log1p(np.maximum(q, 0.0)),
                   1.0 / (1.0 + np.maximum(q, 0.0))),
        lambda x: (np.expm1(x), np.exp(x)), b_f=0.0, K=2.0, b_g=2.0, p=1.0)
    report = losses.validate_b3(bad)
    assert not report["ok"]
    assert any(c["clause"] == "fq_diverges"
               for c in report["clauses"] if not c["passed"])


def test_b34_ratio_window_logistic():
    spec = losses.make_logistic()
    xs = np.geomspace(10.0, 600.0, 100)
    ratio = spec.g_prime(xs) / spec.g_prime(xs / 2.0)
    assert np.all(ratio <= spec.K) and np.all(ratio >= 1.0 / spec.K)


def test_exp_cubed_constants():
    spec = losses.get_loss("exp_cubed")
    assert spec.K == 2.0**spec.p
    q = np.array([1.5, 2.0])
    assert np.allclose(spec.g(spec.f(q)), q, rtol=1e-12)
    assert np.allclose(spec.g_prime(8.0), 1.0 / 12.0)  # 1/(3*8^{2/3})


def test_custom_loss_bisection_inverse():
    # f'(y)/f'(ty) = 1/t <= 2 and g' decreasing: K = 2 = 2^p, p = 1
    quad = make_custom("exp_sq", lambda q: np.asarray(q, float) ** 2,
                       lambda q: 2.0 * np.asarray(q, float), b_f=0.0, K=2.0,
                       b_g=1.0, p=1.0)
    assert abs(float(quad.g(4.0)) - 2.0) < 1e-11
    assert abs(float(quad.g_prime(4.0)) - 0.25) < 1e-10
    xs = np.array([0.5, 2.0, 9.0])
    assert np.allclose(quad.f(quad.g(xs)), xs, rtol=1e-11)


@settings(max_examples=60, deadline=None)
@given(q=st.floats(0.11, 50.0))
def test_roundtrip_property(q):
    for name in ("logistic", "exp_cubed"):
        spec = losses.get_loss(name)
        assert abs(float(spec.g(spec.f(q))) - q) <= 1e-9 * max(1.0, q)
        x = float(spec.f(q))
        assert abs(float(spec.f(spec.g(x))) - x) <= 1e-9 * max(1.0, abs(x))


def test_get_loss_registry():
    assert losses.get_loss("cross_entropy").name == "cross_entropy"
    with pytest.raises(ValueError):
        losses.get_loss("hinge")
