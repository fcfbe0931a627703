"""Dataset container, synthetic families, CSV rows, and IDX ingestion."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801


class IdxFormatError(ValueError):
    """Malformed IDX content; carries the byte offset of the problem."""

    def __init__(self, path, offset: int, message: str):
        self.path = str(path)
        self.offset = offset
        super().__init__(f"{path}: byte {offset}: {message}")


@dataclass(frozen=True)
class Dataset:
    """Inputs are N x d float64; labels are -1/+1 or class indices, also
    kept as float64 in `y_float`."""

    X: np.ndarray
    y: np.ndarray
    provenance: str = "unknown"

    def __post_init__(self):
        object.__setattr__(self, "X", np.asarray(self.X, dtype=np.float64))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=np.int64))
        if self.X.ndim != 2 or self.X.shape[0] < 1:
            raise ValueError(f"inputs must be (N, d) with N >= 1, got {self.X.shape}")
        if self.y.shape != (self.X.shape[0],):
            raise ValueError("labels must be one per input row")
        # cached: read on every loss/gradient evaluation
        object.__setattr__(
            self, "is_binary", bool(np.all(np.isin(self.y, (-1, 1)))))
        if not self.is_binary and np.any(self.y < 0):
            raise ValueError("class labels must be -1/+1 or nonnegative indices")
        object.__setattr__(self, "y_float", self.y.astype(np.float64))
        object.__setattr__(self, "_label_masks", {})

    def label_masks(self, c: int) -> tuple[np.ndarray, np.ndarray]:
        """(on, off): the (N, c) masks of each row's label entry and of
        its c - 1 other entries, built once per class count c."""
        masks = self._label_masks.get(c)
        if masks is None:
            on = np.zeros((self.n, c), dtype=bool)
            on[np.arange(self.n), self.y] = True
            masks = self._label_masks[c] = (on, ~on)
        return masks

    @property
    def n(self) -> int:
        return self.X.shape[0]


def two_gaussians(n: int = 16, dim: int = 2, separation: float = 3.0,
                  seed: int = 0) -> Dataset:
    """Two spherical clusters at +/- separation/2 along the first axis."""
    rng = np.random.default_rng(seed)
    half = n // 2
    y = np.concatenate([np.ones(half), -np.ones(n - half)]).astype(np.int64)
    X = rng.standard_normal((n, dim))
    X[:, 0] += y * (separation / 2.0)
    return Dataset(X, y, provenance=f"two_gaussians(n={n},seed={seed})")


def xor_points(n: int = 4, jitter: float = 0.0, seed: int = 0) -> Dataset:
    """XOR-like quadrant data: label is the sign of x1*x2."""
    rng = np.random.default_rng(seed)
    base = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
    reps = -(-n // 4)
    X = np.tile(base, (reps, 1))[:n]
    if jitter > 0.0:
        X = X + jitter * rng.standard_normal(X.shape)
    y = np.sign(X[:, 0] * X[:, 1]).astype(np.int64)
    return Dataset(X, y, provenance=f"xor(n={n},seed={seed})")


def ring(n: int = 16, inner: float = 0.5, outer: float = 2.0,
         seed: int = 0) -> Dataset:
    """Inner disk labeled -1 against an outer ring labeled +1."""
    rng = np.random.default_rng(seed)
    half = n // 2
    y = np.concatenate([np.ones(half), -np.ones(n - half)]).astype(np.int64)
    radius = np.where(y > 0, outer, inner) * (1.0 + 0.1 * rng.standard_normal(n))
    angle = rng.uniform(0.0, 2.0 * np.pi, n)
    X = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
    return Dataset(X, y, provenance=f"ring(n={n},seed={seed})")


def from_rows(rows, provenance: str = "inline") -> Dataset:
    """Rows of [x_1, ..., x_d, label]."""
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise ValueError("need rows of at least one feature plus a label")
    return Dataset(arr[:, :-1], arr[:, -1].astype(np.int64), provenance)


def from_csv(path) -> Dataset:
    rows = np.loadtxt(path, delimiter=",", ndmin=2)
    return from_rows(rows, provenance=f"csv:{path}")


def read_idx(path) -> np.ndarray:
    """Parse one IDX file (big-endian) into a uint8 array.

    Layout: magic (2 zero bytes, type 0x08, ndim), then ndim uint32
    dimension sizes, then the raw data bytes.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4:
        raise IdxFormatError(path, 0, "file shorter than the 4-byte magic")
    (magic,) = struct.unpack(">I", blob[:4])
    if magic not in (IDX_MAGIC_IMAGES, IDX_MAGIC_LABELS):
        raise IdxFormatError(path, 0, f"bad magic 0x{magic:08x}")
    ndim = magic & 0xFF
    header = 4 + 4 * ndim
    if len(blob) < header:
        raise IdxFormatError(path, len(blob), "truncated dimension header")
    dims = struct.unpack(f">{ndim}I", blob[4:header])
    expected = int(np.prod(dims))
    if len(blob) - header != expected:
        raise IdxFormatError(
            path, header, f"expected {expected} data bytes, found {len(blob) - header}"
        )
    return np.frombuffer(blob[header:], dtype=np.uint8).reshape(dims)


def from_idx(images_path, labels_path, count: int | None = None,
             classes: tuple[int, int] | None = None) -> Dataset:
    """IDX image/label pair; pixels scaled into [0, 1] by 1/255.

    classes=(a, b) restricts to two digits mapped to -1/+1; otherwise
    all labels are kept as class indices. count takes the first rows
    after filtering, keeping ingestion deterministic.
    """
    images = read_idx(images_path)
    labels = read_idx(labels_path)
    if images.ndim != 3:
        raise IdxFormatError(images_path, 0, f"expected 3-d image file, got {images.ndim}-d")
    if labels.ndim != 1:
        raise IdxFormatError(labels_path, 0, f"expected 1-d label file, got {labels.ndim}-d")
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(labels_path, 4, "image/label counts differ")
    X = images.reshape(images.shape[0], -1).astype(np.float64) / 255.0
    y = labels.astype(np.int64)
    if classes is not None:
        a, b = classes
        keep = np.isin(y, (a, b))
        X, y = X[keep], np.where(y[keep] == b, 1, -1)
    if count is not None:
        X, y = X[:count], y[:count]
    return Dataset(X, y, provenance=f"idx:{images_path}")


def load_dataset(source) -> Dataset:
    """Build a dataset from a config source: path string or kind dict."""
    if isinstance(source, str):
        return from_csv(source)
    kind = source.get("kind")
    opts = {k: v for k, v in source.items() if k != "kind"}
    if kind == "csv":
        return from_csv(opts["path"])
    if kind == "inline":
        return from_rows(opts["rows"])
    if kind == "two_gaussians":
        return two_gaussians(**opts)
    if kind == "xor":
        return xor_points(**opts)
    if kind == "ring":
        return ring(**opts)
    if kind == "idx":
        if "classes" in opts and opts["classes"] is not None:
            opts["classes"] = tuple(opts["classes"])
        return from_idx(**opts)
    raise ValueError(f"unknown dataset source kind {kind!r}")
