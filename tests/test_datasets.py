"""Dataset container, synthetic generators, CSV, and IDX parsing."""

import json
import struct

import numpy as np
import pytest

from marginflow.cli import main as cli_main
from marginflow.datasets import (KINDS, Dataset, IDX_MAGIC_IMAGES,
                                 IDX_MAGIC_LABELS, IdxFormatError, from_csv,
                                 from_idx, from_rows, load_dataset, read_idx,
                                 ring, two_gaussians, xor_points)
from marginflow.margin import label_masks


# -------------------------------------------------------------- container

def test_dataset_coerces_and_exposes_shape():
    ds = Dataset([[1, 2], [3, 4], [5, 6]], [1, -1, 1])
    assert ds.X.dtype == np.float64 and ds.y.dtype == np.int64
    assert (ds.n, ds.X.shape[1]) == (3, 2)
    assert ds.is_binary


def test_dataset_multiclass_labels():
    ds = Dataset(np.zeros((4, 2)), [0, 2, 1, 2])
    assert not ds.is_binary


def test_label_masks_and_float_labels_of_class_labels():
    ds = Dataset(np.zeros((4, 2)), [0, 2, 1, 2])
    on, off = label_masks(ds.y, 3)
    assert np.array_equal(on, np.eye(3, dtype=bool)[[0, 2, 1, 2]])
    assert np.array_equal(off, ~on)
    assert label_masks(ds.y, 4)[0].shape == (4, 4)  # more outputs than labels
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


@pytest.mark.parametrize("rows, row, label", [
    ([[1, 2, 1], [3, 4, -0.5], [0, 1, 1.7]], 1, "-0.5"),
    ([[1, 2, -1.9]], 0, "-1.9"),
    ([[1, 2, 1], [3, 4, 0], [0, 1, float("nan")]], 2, "nan"),
    ([[1, 2, float("inf")]], 0, "inf")])
def test_from_rows_rejects_non_integer_labels(rows, row, label):
    # a cast to int64 would truncate them: -0.5 to 0, 1.7 to 1, -1.9 to -1
    with pytest.raises(ValueError,
                       match=f"row {row}: label {label} is not an integer"):
        from_rows(rows)


def test_from_rows_and_csv_take_integer_valued_float_labels(tmp_path):
    ds = from_rows([[1.0, 2.0, 1.0], [3.0, 4.0, -1.0]])
    assert ds.y.tolist() == [1, -1] and ds.y.dtype == np.int64
    assert from_rows([[1.0, 2.0, 0.0], [3.0, 4.0, 2.0]]).y.tolist() == [0, 2]
    p = tmp_path / "pts.csv"
    p.write_text("0.5,1.25,1.0\n-2.0,0.0,0.5\n")
    with pytest.raises(ValueError, match="row 1: label 0.5"):
        from_csv(p)


def test_from_rows_rejects_featureless_rows():
    with pytest.raises(ValueError, match="feature plus a label"):
        from_rows([[1.0], [2.0]])


def test_from_csv_round_trip(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("0.5,1.25,1\n-2.0,0.0,-1\n")
    ds = from_csv(p)
    assert np.array_equal(ds.X, [[0.5, 1.25], [-2.0, 0.0]])
    assert np.array_equal(ds.y, [1, -1])


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


def test_idx_pair_runs_through_the_cli(tmp_path):
    # digits 3 and 8 as -1/+1, a 5 filtered out; the README's IDX keys
    pixels = np.zeros((5, 2, 2), dtype=np.uint8)
    pixels[[0, 2], 0, 0] = 200
    pixels[[1, 3], 1, 1] = 250
    pixels[4] = 90
    labels = np.array([3, 8, 3, 8, 5], dtype=np.uint8)
    config = tmp_path / "idx.yaml"
    config.write_text(json.dumps({
        "scenario": "flow_margin", "loss": "logistic",
        "model": {"family": "linear", "input_dim": 4},
        "dataset": {"kind": "idx",
                    "images_path": str(_idx_images(tmp_path, pixels)),
                    "labels_path": str(_idx_labels(tmp_path, labels)),
                    "classes": [3, 8]},
        "target_log_inv_loss": 5.0, "step_tol": 0.003, "seeds": [0]}))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 0
    summary = json.loads((out / "flow_margin-seed0.summary.json").read_text())
    assert summary["failures"] == [] and summary["final"]["x"] >= 5.0


def test_dataset_path_string_loads_and_runs(tmp_path):
    # a config's dataset given as a string is the path of a CSV file
    rows = [[2.2, 0.3, 1], [1.4, 1.1, 1], [-1.7, 0.4, -1], [-1.1, -1.0, -1]]
    data = tmp_path / "d.csv"
    data.write_text("".join(",".join(map(str, r)) + "\n" for r in rows))
    config = tmp_path / "csv.yaml"
    config.write_text(json.dumps({
        "scenario": "flow_margin", "loss": "logistic",
        "model": {"family": "linear", "input_dim": 2}, "dataset": str(data),
        "target_log_inv_loss": 5.0, "step_tol": 0.003, "seeds": [0]}))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 0
    summary = json.loads((out / "flow_margin-seed0.summary.json").read_text())
    assert summary["failures"] == [] and summary["final"]["x"] >= 5.0


@pytest.mark.parametrize("missing", ["csv", "csv_string", "images_path",
                                     "labels_path"])
def test_missing_dataset_file_is_rejected_at_load(tmp_path, missing):
    # before, np.loadtxt and read_idx raised a FileNotFoundError that
    # named no config key; the load fails before the output directory
    gone = str(tmp_path / "nonexistent")
    idx = {"kind": "idx", "classes": [3, 8],
           "images_path": str(_idx_images(tmp_path, np.zeros((2, 2, 2)))),
           "labels_path": str(_idx_labels(tmp_path, np.array([3, 8])))}
    key = "path" if missing.startswith("csv") else missing
    dataset = {"csv": {"kind": "csv", "path": gone},
               "csv_string": gone}.get(missing, {**idx, key: gone})
    config = tmp_path / "bad.yaml"
    config.write_text(json.dumps({
        "scenario": "flow_margin", "model": {"family": "linear",
                                             "input_dim": 4},
        "dataset": dataset}))
    with pytest.raises(ValueError, match=f"dataset '{key}': no file '"):
        cli_main(["run", "--config", str(config),
                  "--out", str(tmp_path / "o")])
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("classes", [[3], [3, 8, 1], [3.0, 8], "38", 3])
def test_from_idx_rejects_classes_other_than_two_ints(tmp_path, classes):
    with pytest.raises(ValueError, match="classes must be two ints"):
        from_idx(tmp_path / "imgs", tmp_path / "labels", classes=classes)


@pytest.mark.parametrize("count", [0, -1, 2.0, "2"])
def test_from_idx_rejects_counts_other_than_positive_ints(tmp_path, count):
    # before, -1 dropped the last row and "2" raised a TypeError
    with pytest.raises(ValueError, match="count must be a positive int"):
        from_idx(tmp_path / "imgs", tmp_path / "labels", count=count)


def test_load_dataset_unknown_kind():
    with pytest.raises(ValueError, match="unknown dataset source kind"):
        load_dataset({"kind": "parquet"})


def test_every_kind_loads_x_c_contiguous_float64(tmp_path):
    # the dense-chain kernel takes one batch layout, C-contiguous; inline
    # rows and CSV files take X from the columns of a wider row array
    csv = tmp_path / "pts.csv"
    csv.write_text("0.5,1.25,2.0,1\n-2.0,0.0,1.0,-1\n1.0,1.0,1.0,1\n")
    images = _idx_images(tmp_path, np.arange(6 * 4, dtype=np.uint8)
                         .reshape(6, 2, 2))
    labels = _idx_labels(tmp_path, np.array([3, 5, 3, 7, 5, 3]))
    sources = {
        "inline": {"rows": [[1.0, 2.0, 3.0, 1], [4.0, 5.0, 6.0, -1]]},
        "csv": {"path": str(csv)},
        "idx": {"images_path": str(images), "labels_path": str(labels),
                "classes": [3, 5], "count": 4},
        "two_gaussians": {"n": 6, "dim": 3, "seed": 2},
        "xor": {"n": 8, "jitter": 0.1, "seed": 1},
        "ring": {"n": 6, "seed": 3},
    }
    assert set(sources) == set(KINDS)
    for kind, params in sources.items():
        ds = load_dataset({"kind": kind, **params})
        assert ds.X.flags.c_contiguous, kind
        assert ds.X.dtype == np.float64, kind
