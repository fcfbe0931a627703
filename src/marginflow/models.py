"""Homogeneous architectures with declared homogeneity structure.

Every built-in model is a bias-free dense chain, so the network output
scales as Phi(c * theta; x) = c^L Phi(theta; x). Each dense layer is one
`Block` of theta with its own multi-homogeneity exponent k_b, and
sum(k_b) == L. Parameters are flat float64 arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .autodiff import activation, layers, walk


class Block(NamedTuple):
    """One dense layer: the slice [start, stop) of theta, reshaped to
    `shape` = (in_dim, out_dim), its exponent k, and the forward op and
    derivative rule of the activation after it (None after the last
    layer and throughout a linear chain)."""

    start: int
    stop: int
    shape: tuple[int, int]
    k: float
    act: object
    rule: object


@dataclass(frozen=True)
class HomogeneousModel:
    """A dense chain as its block table; `activation` names the kind
    between the layers (None for a linear chain), `alpha` is the
    LeakyReLU negative-side slope."""

    name: str
    blocks: tuple[Block, ...]
    activation: str | None
    alpha: float
    order_L: float

    def __post_init__(self):
        total = sum(b.k for b in self.blocks)
        if abs(total - self.order_L) > 1e-12:
            raise ValueError(
                f"block exponents sum to {total}, expected order {self.order_L}"
            )

    @property
    def num_outputs(self) -> int:
        return self.blocks[-1].shape[1]

    @property
    def param_count(self) -> int:
        return self.blocks[-1].stop

    def forward(self, theta, x) -> tuple[np.ndarray, list]:
        """`walk` of theta (P,), or a stack (S, P), on a C-contiguous
        float64 batch x (B, d): the output (B, C), or (S, B, C), and the
        records."""
        return walk(layers(self.blocks, theta), x)


def _dense_chain(name: str, dims: list[int], kind: str | None,
                 alpha: float = 0.0, block_ks=None) -> HomogeneousModel:
    if any(not isinstance(d, (int, np.integer)) or d < 1 for d in dims):
        raise ValueError(f"model dims [input_dim, *widths, num_outputs] "
                         f"must be positive ints, got {dims}")
    op, rule = (None, None) if kind is None else activation(kind, alpha)
    blocks = []
    start = 0
    n_dense = len(dims) - 1
    for i in range(n_dense):
        stop = start + dims[i] * dims[i + 1]
        k = 1.0 if block_ks is None else block_ks[i]
        inner = i < n_dense - 1
        blocks.append(Block(start, stop, (dims[i], dims[i + 1]), k,
                            op if inner else None, rule if inner else None))
        start = stop
    return HomogeneousModel(name, tuple(blocks), kind, alpha,
                            sum(b.k for b in blocks))


def linear(input_dim: int, num_outputs: int = 1) -> HomogeneousModel:
    return _dense_chain("linear", [input_dim, num_outputs], None)


def deep_linear(input_dim: int, widths: list[int], num_outputs: int = 1) -> HomogeneousModel:
    return _dense_chain("deep_linear", [input_dim, *widths, num_outputs], None)


def relu_mlp(input_dim: int, widths: list[int], num_outputs: int = 1) -> HomogeneousModel:
    return _dense_chain("relu_mlp", [input_dim, *widths, num_outputs], "relu")


def leaky_relu_mlp(input_dim: int, widths: list[int], alpha: float = 0.1,
                   num_outputs: int = 1) -> HomogeneousModel:
    return _dense_chain(
        "leaky_relu_mlp", [input_dim, *widths, num_outputs], "leaky_relu", alpha=alpha
    )


def quadratic_mlp(input_dim: int, widths: list[int], num_outputs: int = 1) -> HomogeneousModel:
    """MLP with square activations; layer i has exponent k_i = 2^(D-i).

    With D dense layers the order is L = 2^D - 1: each square activation
    doubles the degree of everything below it.
    """
    dims = [input_dim, *widths, num_outputs]
    n_dense = len(dims) - 1
    block_ks = [float(2 ** (n_dense - 1 - i)) for i in range(n_dense)]
    return _dense_chain("quadratic_mlp", dims, "square", block_ks=block_ks)


# a config's model `family`, by builder; its parameters are the other keys
FAMILIES = {
    "linear": linear,
    "deep_linear": deep_linear,
    "relu_mlp": relu_mlp,
    "leaky_relu_mlp": leaky_relu_mlp,
    "quadratic_mlp": quadratic_mlp,
}


def build_model(family: str, *args, **kwargs) -> HomogeneousModel:
    """The model that `family`'s builder makes of the other arguments."""
    if family not in FAMILIES:
        raise ValueError(f"unknown model family {family!r}")
    return FAMILIES[family](*args, **kwargs)


def init_params(model: HomogeneousModel, rng: np.random.Generator,
                scale: float = 1.0) -> np.ndarray:
    """Seeded Gaussian init, per-layer 1/sqrt(fan_in) scaling."""
    data = np.empty(model.param_count)
    for b in model.blocks:
        data[b.start:b.stop] = (rng.standard_normal(b.stop - b.start)
                                / np.sqrt(b.shape[0]))
    return scale * data
