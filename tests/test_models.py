"""Homogeneity structure: scaling law, Euler identities, grad helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import fd_grad, rel_err

from marginflow import models


def _zoo():
    return [
        models.linear(4),
        models.deep_linear(3, [5, 4]),
        models.relu_mlp(4, [6, 5]),
        models.leaky_relu_mlp(4, [5, 4], alpha=0.1),
        models.quadratic_mlp(3, [4, 4]),
    ]


def test_declared_orders():
    assert models.linear(4).order_L == 1.0
    assert models.deep_linear(3, [5, 4]).order_L == 3.0
    assert models.relu_mlp(4, [6, 5]).order_L == 3.0
    # depth D with square activations: L = 2^D - 1, block i gets 2^(D-i)
    quad = models.quadratic_mlp(3, [4, 4])
    assert quad.order_L == 7.0
    assert [b.k for b in quad.blocks] == [4.0, 2.0, 1.0]
    assert sum(b.stop - b.start for b in quad.blocks) == quad.param_count


def test_homogeneity_residual_small():
    rng = np.random.default_rng(10)
    for model in _zoo():
        theta = models.init_params(model, rng)
        for _ in range(5):
            x = rng.standard_normal(model.input_dim)
            alpha = float(rng.uniform(0.5, 2.0))
            assert models.homogeneity_check(model, theta, x, alpha) < 1e-10, model.name


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(0.5, 2.0), seed=st.integers(0, 2**16))
def test_homogeneity_property_relu(alpha, seed):
    rng = np.random.default_rng(seed)
    model = models.relu_mlp(3, [4])
    theta = models.init_params(model, rng)
    x = rng.standard_normal(3)
    assert models.homogeneity_check(model, theta, x, alpha) < 1e-9


def test_euler_identity():
    rng = np.random.default_rng(11)
    for model in _zoo():
        theta = models.init_params(model, rng)
        x = models.sample_smooth_probe(model, theta, rng)
        assert models.euler_residual(model, theta, x) < 1e-10, model.name


def test_block_euler_identity():
    rng = np.random.default_rng(12)
    for model in _zoo():
        theta = models.init_params(model, rng)
        x = models.sample_smooth_probe(model, theta, rng)
        for i in range(len(model.blocks)):
            assert models.block_euler_residual(model, theta, x, i) < 1e-10, model.name


def test_multi_output_euler():
    rng = np.random.default_rng(13)
    model = models.relu_mlp(4, [5], num_outputs=3)
    theta = models.init_params(model, rng)
    x = models.sample_smooth_probe(model, theta, rng)
    assert models.euler_residual(model, theta, x) < 1e-10


def test_init_is_deterministic():
    model = models.relu_mlp(4, [5])
    a = models.init_params(model, np.random.default_rng(42))
    b = models.init_params(model, np.random.default_rng(42))
    assert np.array_equal(a.data, b.data)
    c = models.init_params(model, np.random.default_rng(43))
    assert not np.array_equal(a.data, c.data)


def test_param_vector_norm_cache():
    p = models.ParamVector(np.array([3.0, 4.0]))
    assert p.rho == 5.0
    assert np.allclose(p.unit(), [0.6, 0.8])
    assert len(p) == 2


def test_smooth_probe_avoids_kinks():
    rng = np.random.default_rng(14)
    model = models.relu_mlp(4, [8, 8])
    theta = models.init_params(model, rng)
    x = models.sample_smooth_probe(model, theta, rng, kink_tol=1e-4)
    for pre in models.preactivations(model, theta, x):
        assert np.min(np.abs(pre)) > 1e-4


def test_per_sample_grads_match_fd():
    rng = np.random.default_rng(15)
    model = models.quadratic_mlp(3, [4])
    theta = models.init_params(model, rng)
    X = rng.standard_normal((4, 3))
    grads = models.per_sample_grads(model, theta, X)
    for n in range(4):
        ref = fd_grad(lambda t: float(model.output(t, X[n])), theta.data)
        assert rel_err(grads[n], ref) < 1e-7


def test_per_sample_grad_norms_match_stacked():
    rng = np.random.default_rng(16)
    for model in _zoo():
        theta = models.init_params(model, rng)
        X = np.stack(
            [models.sample_smooth_probe(model, theta, rng) for _ in range(6)]
        )
        _, cache = model.forward(theta, X)
        fast = models.per_sample_grad_norms(model, cache)
        slow = np.linalg.norm(models.per_sample_grads(model, theta, X), axis=1)
        assert rel_err(fast, slow) < 1e-12, model.name


def test_build_model_dispatch():
    m = models.build_model("relu_mlp", 4, widths=[5])
    assert m.name == "relu_mlp" and m.order_L == 2.0
    with pytest.raises(ValueError):
        models.build_model("rbf", 4)


def test_block_exponent_mismatch_rejected():
    with pytest.raises(ValueError):
        models.HomogeneousModel(
            name="bad",
            graph=(models.Layer("dense", 2, 1, 0),),
            order_L=2.0,
            blocks=(models.Block("w", 0, 2, 1.0),),
            input_dim=2,
            num_outputs=1,
            param_count=2,
        )
