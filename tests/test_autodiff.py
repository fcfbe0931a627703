"""Gradient engine vs finite differences and a cache-free forward pass."""

import warnings

import numpy as np
import pytest
from oracles import (fd_grad, layers_of, per_sample_grad_norms,
                     per_sample_grads, plain_forward, plain_preactivations,
                     preactivations, rel_err, sample_smooth_probe,
                     seeded_fd_grad)

from marginflow import autodiff, models


def _model_zoo():
    return [
        models.linear(4),
        models.deep_linear(3, [5, 4]),
        models.relu_mlp(4, [6, 5]),
        models.leaky_relu_mlp(4, [5], alpha=0.1),
        models.quadratic_mlp(3, [4]),
        models.relu_mlp(3, [4], num_outputs=3),
    ]


def test_forward_matches_plain_numpy():
    rng = np.random.default_rng(0)
    for model in _model_zoo():
        theta = models.init_params(model, rng)
        X = rng.standard_normal((7, model.blocks[0].shape[0]))
        out, _ = model.forward(theta, X)
        ref = plain_forward(layers_of(model), theta, X)
        if model.num_outputs == 1:
            ref = ref[:, 0]
        assert rel_err(out, ref) < 1e-14


def test_single_sample_shapes():
    rng = np.random.default_rng(1)
    model = models.relu_mlp(4, [5])
    theta = models.init_params(model, rng)
    x = rng.standard_normal(4)
    out, _ = model.forward(theta, x)
    assert np.ndim(out) == 0
    multi = models.relu_mlp(4, [5], num_outputs=3)
    theta = models.init_params(multi, rng)
    out, _ = multi.forward(theta, x)
    assert out.shape == (3,)


def test_batched_equals_per_sample():
    rng = np.random.default_rng(2)
    model = models.quadratic_mlp(3, [4])
    theta = models.init_params(model, rng)
    X = rng.standard_normal((5, 3))
    batched, _ = model.forward(theta, X)
    singles = np.array([float(model.forward(theta, X[n])[0])
                        for n in range(5)])
    assert rel_err(batched, singles) < 1e-14


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    for model in _model_zoo():
        if model.num_outputs != 1:
            continue
        theta = models.init_params(model, rng)
        x = sample_smooth_probe(model, theta, rng, kink_tol=1e-3)
        _, cache = model.forward(theta, x)
        grad = autodiff.backward(cache)
        ref = fd_grad(lambda t: float(model.forward(t, x)[0]), theta)
        assert rel_err(grad, ref) < 1e-7, model.name


def test_seeded_backward_is_weighted_sum():
    rng = np.random.default_rng(4)
    for model in _model_zoo():
        theta = models.init_params(model, rng)
        X = np.array([sample_smooth_probe(model, theta, rng, kink_tol=1e-3)
                      for _ in range(6)])
        # (N,) seed for one output, (N, C) for several
        shape = (6,) if model.num_outputs == 1 else (6, model.num_outputs)
        seed = rng.standard_normal(shape)
        _, cache = model.forward(theta, X)
        combined = autodiff.backward(cache, seed)
        ref = seeded_fd_grad(layers_of(model), theta, X, seed)
        assert rel_err(combined, ref) < 1e-7, model.name
        if model.num_outputs == 1:
            stacked = per_sample_grads(model, theta, X)
            assert rel_err(combined, seed @ stacked) < 1e-13, model.name


def test_multi_output_seed_selects_class():
    rng = np.random.default_rng(5)
    model = models.relu_mlp(4, [5], num_outputs=3)
    theta = models.init_params(model, rng)
    x = sample_smooth_probe(model, theta, rng, kink_tol=1e-3)
    for j in range(3):
        seed = np.zeros(3)
        seed[j] = 1.0
        _, cache = model.forward(theta, x)
        grad = autodiff.backward(cache, seed)
        ref = fd_grad(lambda t: float(model.forward(t, x)[0][j]), theta)
        assert rel_err(grad, ref) < 1e-7


def test_shape_error_on_bad_input_dim():
    model = models.linear(4)
    theta = np.zeros(model.param_count)
    with pytest.raises(autodiff.ShapeError):
        model.forward(theta, np.zeros(5))


def test_nonfinite_forward_raises():
    model = models.linear(2)
    with pytest.raises(autodiff.NonFiniteError):
        model.forward(np.array([np.inf, 1.0]), np.ones(2))


def test_nonfinite_seed_raises():
    model = models.relu_mlp(3, [4])
    theta = models.init_params(model, np.random.default_rng(6))
    _, cache = model.forward(theta, np.ones((2, 3)))
    with np.errstate(invalid="ignore"):  # inf * 0 at dead units
        with pytest.raises(autodiff.NonFiniteError):
            autodiff.backward(cache, np.array([1.0, np.nan]))
        with pytest.raises(autodiff.NonFiniteError):
            autodiff.backward(cache, np.inf)


def test_nonfinite_seed_raises_before_arithmetic():
    # same dead-unit cache as above: inf * 0 there would warn first
    model = models.relu_mlp(3, [4])
    theta = models.init_params(model, np.random.default_rng(6))
    _, cache = model.forward(theta, np.ones((2, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (np.inf, -np.inf, np.array([1.0, np.nan])):
            with pytest.raises(autodiff.NonFiniteError):
                autodiff.backward(cache, seed)


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_member_axis_matches_single_forwards():
    rng = np.random.default_rng(8)
    for model in _model_zoo():
        stack = np.stack([models.init_params(model, rng) for _ in range(4)])
        X = rng.standard_normal((7, model.blocks[0].shape[0]))
        out, cache = autodiff.forward(model.blocks, stack, X)
        seed = rng.standard_normal(out.shape[:2] + (model.num_outputs,))
        adjoints = cache.adjoints(seed)
        norms = (per_sample_grad_norms(model, cache)
                 if model.num_outputs == 1 else None)
        one_x, _ = autodiff.forward(model.blocks, stack, X[0])
        for s, theta in enumerate(stack):
            ref_out, ref = model.forward(theta, X)
            assert _same_bytes(out[s], ref_out), model.name
            assert _same_bytes(one_x[s], model.forward(theta, X[0])[0]), \
                model.name
            assert cache.param_count == ref.param_count, model.name
            for (h, w, z, *rest), (rh, rw, rz, *ref_rest) in zip(
                    cache.records, ref.records, strict=True):
                assert rest == ref_rest, model.name
                assert _same_bytes(h if h.ndim == rh.ndim else h[s], rh)
                assert _same_bytes(w[s], rw) and _same_bytes(z[s], rz)
            ref_adjoints = ref.adjoints(seed[s])
            assert len(adjoints) == len(ref_adjoints), model.name
            for (h, delta, start, stop), (rh, rdelta, rstart, rstop) in zip(
                    adjoints, ref_adjoints):
                assert (start, stop) == (rstart, rstop), model.name
                assert _same_bytes(h if h.ndim == rh.ndim else h[s], rh)
                assert _same_bytes(delta[s], rdelta), model.name
            if norms is not None:
                assert _same_bytes(norms[s],
                                   per_sample_grad_norms(model, ref))


def test_preactivations_match_plain_forward():
    rng = np.random.default_rng(7)
    for model in _model_zoo():
        theta = models.init_params(model, rng)
        X = rng.standard_normal((5, model.blocks[0].shape[0]))
        got = preactivations(model, theta, X)
        ref = plain_preactivations(layers_of(model), theta, X)
        assert len(got) == len(ref), model.name
        for pre, want in zip(got, ref):
            assert rel_err(pre, want) < 1e-14, model.name


def test_block_table_per_dense_layer():
    blocks = models.relu_mlp(4, [6, 5]).blocks
    assert [b[:4] for b in blocks] == [
        (0, 24, (4, 6), 1.0), (24, 54, (6, 5), 1.0), (54, 59, (5, 1), 1.0)]
    assert (blocks[-1].act, blocks[-1].rule) == (None, None)
    z = np.array([-1.0, 0.0, 2.0])
    for b in blocks[:-1]:
        assert np.array_equal(b.act(z), [0.0, 0.0, 2.0])
        assert np.array_equal(b.rule(z), [False, False, True])  # 0 at the kink
    b = models.leaky_relu_mlp(2, [3], alpha=0.25).blocks[0]
    assert np.array_equal(b.act(z), [-0.25, 0.0, 2.0])
    assert np.array_equal(b.rule(z), [0.25, 0.25, 1.0])
    b = models.quadratic_mlp(2, [3]).blocks[0]
    assert np.array_equal(b.act(z), [1.0, 0.0, 4.0])
    assert np.array_equal(b.rule(z), [-2.0, 0.0, 4.0])
    assert all((b.act, b.rule) == (None, None)
               for b in models.deep_linear(2, [3, 3]).blocks)


def test_activation_rules_at_kink():
    _, relu = autodiff.activation("relu")
    _, leaky = autodiff.activation("leaky_relu", alpha=0.25)
    assert relu(0.0) == 0.0
    assert leaky(0.0) == 0.25
    z = np.array([-1.0, 0.0, 2.0])
    assert np.array_equal(relu(z), np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="unknown activation"):
        autodiff.activation("tanh")
