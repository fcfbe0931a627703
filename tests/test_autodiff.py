"""Gradient engine vs finite differences and a cache-free forward pass."""

import warnings

import numpy as np
import pytest
from oracles import (adjoint_grad, adjoints, fd_grad, layer_walk_backward,
                     layer_walk_forward, layers_of, per_sample_grad_norms,
                     per_sample_grads, plain_forward, plain_preactivations,
                     preactivations, rel_err, sample_smooth_probe,
                     seeded_fd_grad, walked)

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
        _, table, records = walked(model, theta, x)
        grad = autodiff.backward(table, records, np.ones((1, 1)))
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
        _, table, records = walked(model, theta, X)
        combined = autodiff.backward(table, records, seed.reshape(6, -1))
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
        seed = np.zeros((1, 3))  # a single sample is a batch of one
        seed[0, j] = 1.0
        _, table, records = walked(model, theta, x)
        grad = autodiff.backward(table, records, seed)
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
    _, table, records = walked(model, theta, np.ones((2, 3)))
    with np.errstate(invalid="ignore"):  # inf * 0 at dead units
        with pytest.raises(autodiff.NonFiniteError):
            autodiff.backward(table, records, np.array([[1.0], [np.nan]]))
        with pytest.raises(autodiff.NonFiniteError):
            autodiff.backward(table, records, np.full((2, 1), np.inf))


def test_nonfinite_seed_raises_before_arithmetic():
    # same dead-unit cache as above: inf * 0 there would warn first
    model = models.relu_mlp(3, [4])
    theta = models.init_params(model, np.random.default_rng(6))
    _, table, records = walked(model, theta, np.ones((2, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in ([[np.inf], [np.inf]], [[-np.inf], [1.0]],
                     [[1.0], [np.nan]]):
            with pytest.raises(autodiff.NonFiniteError):
                autodiff.backward(table, records, np.array(seed))


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_member_axis_matches_single_forwards():
    rng = np.random.default_rng(8)
    for model in _model_zoo():
        stack = np.stack([models.init_params(model, rng) for _ in range(4)])
        X = rng.standard_normal((7, model.blocks[0].shape[0]))
        out, records = model.forward(stack, X)
        seed = rng.standard_normal(out.shape[:2] + (model.num_outputs,))
        stacked = list(adjoints(model.blocks, records, seed))
        norms = (per_sample_grad_norms(model, records)
                 if model.num_outputs == 1 else None)
        one_x, _ = model.forward(stack, X[0])
        for s, theta in enumerate(stack):
            ref_out, ref = model.forward(theta, X)
            assert _same_bytes(out[s], ref_out), model.name
            assert _same_bytes(one_x[s], model.forward(theta, X[0])[0]), \
                model.name
            for (h, w, z), (rh, rw, rz) in zip(records, ref, strict=True):
                assert _same_bytes(h if h.ndim == rh.ndim else h[s], rh)
                assert _same_bytes(w[s], rw) and _same_bytes(z[s], rz)
            ref_adjoints = list(adjoints(model.blocks, ref, seed[s]))
            assert len(stacked) == len(ref_adjoints), model.name
            for (h, delta, block), (rh, rdelta, rblock) in zip(
                    stacked, ref_adjoints):
                assert block is rblock, model.name
                assert _same_bytes(h if h.ndim == rh.ndim else h[s], rh)
                assert _same_bytes(delta[s], rdelta), model.name
            if norms is not None:
                assert _same_bytes(norms[s],
                                   per_sample_grad_norms(model, ref))


def test_backward_bits_match_adjoint_oracle():
    # every family, binary and 3-class, and the 192-sample [48, 48] net
    # whose (192, 1) @ (1, 48) last-layer product takes ndarray.dot; a
    # zero seed and a one-row batch are where the sign of a zero could
    # differ
    rng = np.random.default_rng(9)
    nets = [(build(3, *widths, num_outputs=c), 7)
            for build, widths in [(models.linear, ()),
                                  (models.deep_linear, ([5, 4],)),
                                  (models.relu_mlp, ([6, 5],)),
                                  (models.leaky_relu_mlp, ([5],)),
                                  (models.quadratic_mlp, ([4],))]
            for c in (1, 3)]
    nets += [(models.relu_mlp(2, [48, 48]), 192), (models.relu_mlp(3, [4]), 1)]
    for model, n in nets:
        theta = models.init_params(model, rng)
        X = rng.standard_normal((n, model.blocks[0].shape[0]))
        table = autodiff.layers(model.blocks, theta)
        out, records = autodiff.walk(table, X)
        for seed in (rng.standard_normal(out.shape), np.zeros(out.shape),
                     -np.abs(rng.standard_normal(out.shape))):
            got = autodiff.backward(table, records, seed)
            assert _same_bytes(got, adjoint_grad(
                model.blocks, records, seed)), model.name


def test_relu_float_mask_bits_match_bool_mask_oracle():
    # ReLU's rule is a float64 mask; the layer-walk oracle multiplies its
    # own boolean mask z > 0 into the adjoint, and the gradients agree to
    # the bit: flow_wide's 192-sample [48, 48] net, a 3-class net, and a
    # zero row, where every first-layer unit sits at its kink
    rng = np.random.default_rng(12)
    for model, n in [(models.relu_mlp(2, [48, 48]), 192),
                     (models.relu_mlp(3, [6, 5], num_outputs=3), 9),
                     (models.relu_mlp(3, [4]), 1)]:
        assert model.blocks[0].rule(np.zeros(2)).dtype == np.float64
        theta = models.init_params(model, rng)
        X = rng.standard_normal((n, model.blocks[0].shape[0]))
        X[0] = 0.0
        _, table, records = walked(model, theta, X)
        _, cache = layer_walk_forward(layers_of(model), theta, X)
        for seed in (rng.standard_normal(records[-1][2].shape),
                     -np.abs(rng.standard_normal(records[-1][2].shape))):
            got = autodiff.backward(table, records, seed)
            want = layer_walk_backward(cache, seed.reshape(cache[3].shape))
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), \
                model.name


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
