"""Dataset container, synthetic generators, CSV, and IDX parsing."""

import struct

import numpy as np
import pytest

from marginflow.datasets import (Dataset, IDX_MAGIC_IMAGES, IDX_MAGIC_LABELS,
                                 IdxFormatError, from_csv, from_idx,
                                 from_rows, load_dataset, read_idx, ring,
                                 two_gaussians, xor_points)


# -------------------------------------------------------------- container

def test_dataset_coerces_and_exposes_shape():
    ds = Dataset([[1, 2], [3, 4], [5, 6]], [1, -1, 1])
    assert ds.X.dtype == np.float64 and ds.y.dtype == np.int64
    assert (ds.n, ds.X.shape[1]) == (3, 2)
    assert ds.is_binary


def test_dataset_multiclass_labels():
    ds = Dataset(np.zeros((4, 2)), [0, 2, 1, 2])
    assert not ds.is_binary


def test_dataset_label_masks_built_once_per_class_count():
    ds = Dataset(np.zeros((4, 2)), [0, 2, 1, 2])
    on, off = ds.label_masks(3)
    assert np.array_equal(on, np.eye(3, dtype=bool)[[0, 2, 1, 2]])
    assert np.array_equal(off, ~on)
    assert all(a is b for a, b in zip(ds.label_masks(3), (on, off)))
    assert ds.label_masks(4)[0].shape == (4, 4)  # more outputs than labels
    assert ds.y_float.dtype == np.float64
    assert np.array_equal(ds.y_float, [0.0, 2.0, 1.0, 2.0])


def test_dataset_rejects_bad_shapes_and_labels():
    with pytest.raises(ValueError, match="N, d"):
        Dataset(np.zeros(3), [1, -1, 1])
    with pytest.raises(ValueError, match="one per input row"):
        Dataset(np.zeros((3, 2)), [1, -1])
    with pytest.raises(ValueError, match="-1/\\+1 or nonnegative"):
        Dataset(np.zeros((2, 2)), [-3, 1])


# ------------------------------------------------------------- synthetic

def test_two_gaussians_deterministic_and_balanced():
    a = two_gaussians(16, 3, separation=3.0, seed=7)
    b = two_gaussians(16, 3, separation=3.0, seed=7)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    assert int(np.sum(a.y == 1)) == 8
    # clusters actually sit on opposite sides along the first axis
    assert np.mean(a.X[a.y == 1, 0]) > 0.5
    assert np.mean(a.X[a.y == -1, 0]) < -0.5


def test_xor_points_labels_match_quadrants():
    ds = xor_points(4)
    assert ds.n == 4 and ds.X.shape[1] == 2
    assert np.array_equal(ds.y, np.sign(ds.X[:, 0] * ds.X[:, 1]))


def test_ring_radii_sorted_by_label():
    ds = ring(20, inner=0.5, outer=2.0, seed=1)
    r = np.linalg.norm(ds.X, axis=1)
    assert r[ds.y > 0].min() > r[ds.y < 0].max()


# ------------------------------------------------------------- rows / csv

def test_from_rows_splits_features_and_label():
    ds = from_rows([[1.0, 2.0, 1], [3.0, 4.0, -1]])
    assert np.array_equal(ds.X, [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(ds.y, [1, -1])


def test_from_rows_rejects_featureless_rows():
    with pytest.raises(ValueError, match="feature plus a label"):
        from_rows([[1.0], [2.0]])


def test_from_csv_round_trip(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("0.5,1.25,1\n-2.0,0.0,-1\n")
    ds = from_csv(p)
    assert np.array_equal(ds.X, [[0.5, 1.25], [-2.0, 0.0]])
    assert np.array_equal(ds.y, [1, -1])
    assert ds.provenance.startswith("csv:")


# ------------------------------------------------------------------ idx

def _idx_images(tmp_path, pixels: np.ndarray, name="imgs"):
    n, h, w = pixels.shape
    p = tmp_path / name
    p.write_bytes(struct.pack(">IIII", IDX_MAGIC_IMAGES, n, h, w)
                  + pixels.astype(np.uint8).tobytes())
    return p


def _idx_labels(tmp_path, labels: np.ndarray, name="labels"):
    p = tmp_path / name
    p.write_bytes(struct.pack(">II", IDX_MAGIC_LABELS, labels.size)
                  + labels.astype(np.uint8).tobytes())
    return p


def test_read_idx_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(10, 4, 3), dtype=np.uint8)
    arr = read_idx(_idx_images(tmp_path, pixels))
    assert arr.dtype == np.uint8
    assert np.array_equal(arr, pixels)


def test_read_idx_bad_magic(tmp_path):
    p = tmp_path / "bad"
    p.write_bytes(struct.pack(">I", 0x00000907))
    with pytest.raises(IdxFormatError, match="bad magic") as exc:
        read_idx(p)
    assert exc.value.offset == 0


def test_read_idx_truncated_header(tmp_path):
    p = tmp_path / "short"
    blob = struct.pack(">III", IDX_MAGIC_IMAGES, 10, 4)  # missing one dim
    p.write_bytes(blob)
    with pytest.raises(IdxFormatError, match="truncated dimension") as exc:
        read_idx(p)
    assert exc.value.offset == len(blob)


def test_read_idx_wrong_byte_count(tmp_path):
    p = tmp_path / "count"
    p.write_bytes(struct.pack(">IIII", IDX_MAGIC_IMAGES, 2, 2, 2)
                  + bytes(7))  # one byte short of 8
    with pytest.raises(IdxFormatError, match="expected 8 data bytes") as exc:
        read_idx(p)
    assert exc.value.offset == 16  # magic + three uint32 dims


def test_read_idx_empty_file(tmp_path):
    p = tmp_path / "empty"
    p.write_bytes(b"\x00\x00")
    with pytest.raises(IdxFormatError, match="4-byte magic"):
        read_idx(p)


def test_from_idx_scaling_is_exact(tmp_path):
    rng = np.random.default_rng(3)
    pixels = rng.integers(0, 256, size=(10, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=10, dtype=np.uint8)
    ds = from_idx(_idx_images(tmp_path, pixels), _idx_labels(tmp_path, labels))
    assert ds.X.shape == (10, 784)
    # /255 must be reversible bit-for-bit
    assert np.array_equal((ds.X * 255.0).astype(np.uint8),
                          pixels.reshape(10, -1))
    assert np.array_equal(ds.y, labels)


def test_from_idx_two_class_filter(tmp_path):
    pixels = np.arange(5 * 2 * 2, dtype=np.uint8).reshape(5, 2, 2)
    labels = np.array([3, 8, 3, 1, 8], dtype=np.uint8)
    ds = from_idx(_idx_images(tmp_path, pixels), _idx_labels(tmp_path, labels),
                  classes=(3, 8))
    assert np.array_equal(ds.y, [-1, 1, -1, 1])
    assert ds.n == 4 and ds.is_binary


def test_from_idx_count_truncates_after_filter(tmp_path):
    pixels = np.zeros((6, 2, 2), dtype=np.uint8)
    labels = np.array([1, 0, 1, 0, 1, 0], dtype=np.uint8)
    ds = from_idx(_idx_images(tmp_path, pixels), _idx_labels(tmp_path, labels),
                  classes=(0, 1), count=3)
    assert ds.n == 3


def test_from_idx_count_mismatch(tmp_path):
    pixels = np.zeros((3, 2, 2), dtype=np.uint8)
    labels = np.zeros(4, dtype=np.uint8)
    with pytest.raises(IdxFormatError, match="counts differ"):
        from_idx(_idx_images(tmp_path, pixels), _idx_labels(tmp_path, labels))


# ---------------------------------------------------------- load_dataset

def test_load_dataset_dispatch(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,2,1\n3,4,-1\n")
    assert load_dataset(str(p)).n == 2
    assert load_dataset({"kind": "csv", "path": str(p)}).n == 2
    assert load_dataset({"kind": "inline",
                         "rows": [[0, 1, 1], [2, 3, -1]]}).n == 2
    assert load_dataset({"kind": "two_gaussians", "n": 8, "seed": 1}).n == 8
    assert load_dataset({"kind": "xor", "n": 4}).n == 4
    assert load_dataset({"kind": "ring", "n": 10}).n == 10


def test_load_dataset_idx_kind(tmp_path):
    pixels = np.zeros((4, 2, 2), dtype=np.uint8)
    labels = np.array([0, 1, 0, 1], dtype=np.uint8)
    ds = load_dataset({
        "kind": "idx",
        "images_path": str(_idx_images(tmp_path, pixels)),
        "labels_path": str(_idx_labels(tmp_path, labels)),
        "classes": [0, 1],
    })
    assert ds.is_binary and ds.n == 4


def test_load_dataset_unknown_kind():
    with pytest.raises(ValueError, match="unknown dataset source kind"):
        load_dataset({"kind": "parquet"})
