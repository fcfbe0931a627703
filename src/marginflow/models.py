"""Homogeneous architectures with declared homogeneity structure.

Every built-in model is bias-free, so the network output scales as
Phi(c * theta; x) = c^L Phi(theta; x). Each dense layer forms a block
with its own multi-homogeneity exponent k_i, and sum(k_i) == L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import ForwardCache, compile_chain, forward


@dataclass(frozen=True)
class Layer:
    kind: str  # "dense" | "relu" | "leaky_relu" | "square"
    in_dim: int = 0
    out_dim: int = 0
    offset: int = 0  # start of the weight slice in the flat parameter vector
    alpha: float = 0.0  # LeakyReLU negative-side slope


@dataclass(frozen=True)
class Block:
    """A parameter slice with its multi-homogeneity exponent k_i."""

    name: str
    start: int
    stop: int
    k: float


class ParamVector:
    """Flat float64 parameter vector with a cached Euclidean norm and
    direction."""

    __slots__ = ("data", "_rho", "_unit")

    def __init__(self, data):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self._rho = self._unit = None

    @property
    def rho(self) -> float:
        if self._rho is None:
            self._rho = math.sqrt(self.data @ self.data)
        return self._rho

    def unit(self) -> np.ndarray:
        """theta / rho, computed once and shared by every caller; the zero
        vector has no direction and maps to itself."""
        if self._unit is None:
            self._unit = (np.zeros_like(self.data) if self.rho == 0.0
                          else self.data / self.rho)
        return self._unit

    def __len__(self) -> int:
        return self.data.size


def as_params(theta) -> ParamVector:
    if isinstance(theta, ParamVector):
        return theta
    return ParamVector(theta)


@dataclass(frozen=True)
class HomogeneousModel:
    """Architecture description consumed by the autodiff engine."""

    name: str
    graph: tuple[Layer, ...]
    order_L: float
    blocks: tuple[Block, ...]
    input_dim: int
    num_outputs: int
    param_count: int
    plan: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "plan", compile_chain(self.graph))
        total = sum(b.k for b in self.blocks)
        if abs(total - self.order_L) > 1e-12:
            raise ValueError(
                f"block exponents sum to {total}, expected order {self.order_L}"
            )

    def forward(self, theta, x) -> tuple[np.ndarray, ForwardCache]:
        return forward(self.plan, as_params(theta).data, x)


def _dense_chain(name: str, dims: list[int], activation: str | None,
                 alpha: float = 0.0, block_ks=None) -> HomogeneousModel:
    layers = []
    blocks = []
    offset = 0
    n_dense = len(dims) - 1
    for i in range(n_dense):
        layers.append(Layer("dense", dims[i], dims[i + 1], offset))
        size = dims[i] * dims[i + 1]
        k = 1.0 if block_ks is None else block_ks[i]
        blocks.append(Block(f"dense{i}", offset, offset + size, k))
        offset += size
        if activation is not None and i < n_dense - 1:
            layers.append(Layer(activation, alpha=alpha))
    order = sum(b.k for b in blocks)
    return HomogeneousModel(
        name=name,
        graph=tuple(layers),
        order_L=order,
        blocks=tuple(blocks),
        input_dim=dims[0],
        num_outputs=dims[-1],
        param_count=offset,
    )


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


_FAMILIES = {
    "linear": linear,
    "deep_linear": deep_linear,
    "relu_mlp": relu_mlp,
    "leaky_relu_mlp": leaky_relu_mlp,
    "quadratic_mlp": quadratic_mlp,
}


def build_model(family: str, input_dim: int, widths=None, alpha: float = 0.1,
                num_outputs: int = 1) -> HomogeneousModel:
    """Build a model from run-config fields."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown model family {family!r}")
    if family == "linear":
        return linear(input_dim, num_outputs)
    if family == "leaky_relu_mlp":
        return leaky_relu_mlp(input_dim, list(widths), alpha, num_outputs)
    return _FAMILIES[family](input_dim, list(widths), num_outputs)


def init_params(model: HomogeneousModel, rng: np.random.Generator,
                scale: float = 1.0) -> ParamVector:
    """Seeded Gaussian init, per-layer 1/sqrt(fan_in) scaling."""
    data = np.empty(model.param_count)
    for layer in model.graph:
        if layer.kind != "dense":
            continue
        size = layer.in_dim * layer.out_dim
        data[layer.offset : layer.offset + size] = rng.standard_normal(size) / np.sqrt(
            layer.in_dim
        )
    return ParamVector(scale * data)


def per_sample_grad_norms(model: HomogeneousModel, cache: ForwardCache) -> np.ndarray:
    """Norms ||grad_theta Phi(theta; x_n)|| for every row of the batch that
    `model.forward` recorded in `cache`: shaped (B,) like its output, or
    (S, B) for a forward over S stacked parameter vectors.

    Uses the layer structure directly: for a dense layer the per-sample
    weight gradient is an outer product, so its Frobenius norm factors
    into activation norm times sensitivity norm. The sensitivities come
    from the backward pass's reverse loop, seeded with ones.
    """
    if model.num_outputs != 1:
        raise ValueError("per_sample_grad_norms expects a single-output model")
    sq_norms = np.zeros(cache.out.shape)
    for h_in, delta, _, _ in cache.adjoints(np.ones(cache.out.shape + (1,))):
        sq_norms += np.einsum("...bi,...bi->...b", h_in, h_in) * np.einsum(
            "...bo,...bo->...b", delta, delta
        )
    return np.sqrt(sq_norms)
