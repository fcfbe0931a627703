"""Homogeneity structure: scaling law, Euler identities, grad helpers.

The residual and per-row gradient helpers are test oracles
(tests/oracles.py) that run the engine one sample at a time.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (block_euler_residual, euler_residual, fd_grad,
                     homogeneity_check, per_sample_grad_norms,
                     per_sample_grads, preactivations, rel_err,
                     sample_smooth_probe)

from marginflow import datasets, losses, models
from marginflow.gradflow import Evaluator, evaluate_point, flow_states


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
            x = rng.standard_normal(model.blocks[0].shape[0])
            alpha = float(rng.uniform(0.5, 2.0))
            assert homogeneity_check(model, theta, x, alpha) < 1e-10, model.name


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(0.5, 2.0), seed=st.integers(0, 2**16))
def test_homogeneity_property_relu(alpha, seed):
    rng = np.random.default_rng(seed)
    model = models.relu_mlp(3, [4])
    theta = models.init_params(model, rng)
    x = rng.standard_normal(3)
    assert homogeneity_check(model, theta, x, alpha) < 1e-9


def test_euler_identity():
    rng = np.random.default_rng(11)
    for model in _zoo():
        theta = models.init_params(model, rng)
        x = sample_smooth_probe(model, theta, rng)
        assert euler_residual(model, theta, x) < 1e-10, model.name


def test_block_euler_identity():
    rng = np.random.default_rng(12)
    for model in _zoo():
        theta = models.init_params(model, rng)
        x = sample_smooth_probe(model, theta, rng)
        for i in range(len(model.blocks)):
            assert block_euler_residual(model, theta, x, i) < 1e-10, model.name


def test_multi_output_euler():
    rng = np.random.default_rng(13)
    model = models.relu_mlp(4, [5], num_outputs=3)
    theta = models.init_params(model, rng)
    x = sample_smooth_probe(model, theta, rng)
    assert euler_residual(model, theta, x) < 1e-10


def test_init_is_deterministic():
    model = models.relu_mlp(4, [5])
    a = models.init_params(model, np.random.default_rng(42))
    b = models.init_params(model, np.random.default_rng(42))
    assert np.array_equal(a, b)
    c = models.init_params(model, np.random.default_rng(43))
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("dims", [[4, 1], [3, 5, 4, 1], [4, 6, 5, 2]])
def test_blocks_tile_the_parameters(dims):
    d, widths, c = dims[0], dims[1:-1], dims[-1]
    for model in [models.build_model(family, d, widths, num_outputs=c)
                  for family in ("deep_linear", "relu_mlp",
                                 "leaky_relu_mlp", "quadratic_mlp")
                  ] + ([models.linear(d, c)] if not widths else []):
        blocks = model.blocks
        assert [b.shape for b in blocks] == list(zip(dims, dims[1:]))
        assert blocks[0].start == 0, model.name
        for b, nxt in zip(blocks, blocks[1:]):
            assert b.stop == nxt.start, model.name
        for b in blocks:
            assert b.stop - b.start == b.shape[0] * b.shape[1], model.name
        assert (blocks[0].shape[0], model.num_outputs,
                model.param_count) == (d, c, blocks[-1].stop), model.name
        assert model.param_count == sum(a * b for a, b in zip(dims, dims[1:]))
        has_act = model.activation is not None
        assert [b.act is not None for b in blocks] == \
            [has_act] * (len(blocks) - 1) + [False], model.name


def test_point_eval_rho_and_unit():
    spec = losses.get_loss("exp")
    model = models.linear(2)
    ds = datasets.from_rows([[1.0, 0.0, 1]])
    ev = evaluate_point(Evaluator(model, ds, spec), np.array([3.0, 4.0]))
    assert ev.rho == 5.0 and ev.rho is ev.rho
    assert np.allclose(ev.unit, [0.6, 0.8]) and ev.unit is ev.unit
    zero = evaluate_point(Evaluator(model, ds, spec), np.zeros(2))
    assert zero.rho == 0.0 and np.array_equal(zero.unit, [0.0, 0.0])
    # theta @ theta overflows although every entry is finite: the norm is
    # taken again on theta / max |theta_i|. The builder holds numpy's
    # overflow warning off, here the flow's start, so none escapes
    ds = datasets.from_rows([[1e-170, 0.0, 1]])
    big = np.array([3e160, 4e160])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ev = next(flow_states(model, big, ds, spec, step_tol=1e-3))[0].ev
        assert math.isclose(ev.rho, 5e160, rel_tol=1e-15)
        assert np.allclose(ev.unit, [0.6, 0.8], rtol=1e-15)


def test_smooth_probe_avoids_kinks():
    rng = np.random.default_rng(14)
    model = models.relu_mlp(4, [8, 8])
    theta = models.init_params(model, rng)
    x = sample_smooth_probe(model, theta, rng, kink_tol=1e-4)
    for pre in preactivations(model, theta, x):
        assert np.min(np.abs(pre)) > 1e-4


def test_per_sample_grads_match_fd():
    rng = np.random.default_rng(15)
    model = models.quadratic_mlp(3, [4])
    theta = models.init_params(model, rng)
    X = rng.standard_normal((4, 3))
    grads = per_sample_grads(model, theta, X)
    for n in range(4):
        ref = fd_grad(lambda t: float(model.forward(t, X[n:n + 1])[0][0, 0]),
                      theta)
        assert rel_err(grads[n], ref) < 1e-7


def test_per_sample_grad_norms_match_stacked():
    rng = np.random.default_rng(16)
    for model in _zoo():
        theta = models.init_params(model, rng)
        X = np.stack(
            [sample_smooth_probe(model, theta, rng) for _ in range(6)]
        )
        _, records = model.forward(theta, X)
        fast = per_sample_grad_norms(model, records)
        slow = np.linalg.norm(per_sample_grads(model, theta, X), axis=1)
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
            blocks=(models.Block(0, 2, (2, 1), 1.0, None, None),),
            activation=None,
            alpha=0.0,
            order_L=2.0,
        )
