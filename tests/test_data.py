import struct

import numpy as np
import pytest

from lutc.data import (
    DataFormatError,
    Dataset,
    IDX_IMAGE_MAGIC,
    IDX_LABEL_MAGIC,
    gen_spirals,
    load_csv,
    load_idx,
    split_normalize,
)


# ---------------------------------------------------------------------------
# CSV


CSV_FIXTURE = """\
a,b,label
1.0,2.5,cat
-3.0,0.5,dog
4.0,-1.5,cat
"""


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_fixture(tmp_path):
    ds = load_csv(write_csv(tmp_path, CSV_FIXTURE), "label")
    assert np.array_equal(ds.features, [[1.0, 2.5], [-3.0, 0.5], [4.0, -1.5]])
    assert np.array_equal(ds.labels, [0, 1, 0])  # cat < dog sorted
    assert ds.n_classes == 2


def test_load_csv_skips_a_utf8_byte_order_mark(tmp_path):
    # spreadsheet tools' "CSV UTF-8" starts with EF BB BF, which used to be
    # read into the first column's name: "label column 'label' not in header"
    text = "label,a,b\ncat,1.0,2.5\ndog,-3.0,0.5\ncat,4.0,-1.5\n"
    plain = write_csv(tmp_path, text, name="plain.csv")
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    for columns in (None, ["a", "b"]):
        want, got = load_csv(plain, "label", columns), load_csv(bom, "label", columns)
        assert np.array_equal(got.features, want.features)
        assert np.array_equal(got.labels, want.labels)
        assert got.n_classes == want.n_classes == 2
    bom.write_bytes(b"\xef\xbb\xbf" + CSV_FIXTURE.encode("utf-8"))
    assert np.array_equal(load_csv(bom, "label", ["a"]).features, [[1.0], [-3.0], [4.0]])


def test_load_csv_numeric_label_classes(tmp_path):
    ds = load_csv(write_csv(tmp_path, "x,label\n1,0\n2,1\n3,0\n"), "label")
    assert np.array_equal(ds.labels, [0, 1, 0])


def test_load_csv_column_subset(tmp_path):
    ds = load_csv(write_csv(tmp_path, CSV_FIXTURE), "label", ["b"])
    assert np.array_equal(ds.features, [[2.5], [0.5], [-1.5]])


def test_load_csv_duplicate_names_read_the_first_column(tmp_path):
    text = "a,label,a,b,label\n1,x,2,3,y\n4,y,5,6,x\n"
    ds = load_csv(write_csv(tmp_path, text), "label")
    # the default selection names "a" twice; both read column 0
    assert np.array_equal(ds.features, [[1, 1, 3], [4, 4, 6]])
    assert np.array_equal(ds.labels, [0, 1])  # labels from column 1
    ds = load_csv(write_csv(tmp_path, text), "label", ["b", "a"])
    assert np.array_equal(ds.features, [[3, 1], [6, 4]])


def test_load_csv_wide_header(tmp_path):
    names = [f"c{i}" for i in range(2000)]
    rows = np.arange(3 * 2000).reshape(3, 2000) % 97
    text = "\n".join([",".join(names + ["label"])]
                     + [",".join(map(str, row.tolist() + [k % 2])) for k, row in enumerate(rows)])
    path = write_csv(tmp_path, text + "\n")
    ds = load_csv(path, "label")
    assert np.array_equal(ds.features, rows)
    ds = load_csv(path, "label", ["c1999", "c0", "c1000"])
    assert np.array_equal(ds.features, rows[:, [1999, 0, 1000]])
    with pytest.raises(DataFormatError, match=r"missing feature columns \['c2000'\]"):
        load_csv(path, "label", ["c5", "c2000"])


def test_load_csv_missing_label_column(tmp_path):
    with pytest.raises(DataFormatError, match="label column"):
        load_csv(write_csv(tmp_path, CSV_FIXTURE), "nope")


def test_load_csv_empty_feature_selection(tmp_path):
    with pytest.raises(DataFormatError, match="empty feature selection"):
        load_csv(write_csv(tmp_path, "label\n0\n"), "label")


def test_load_csv_ragged_row_has_line_number(tmp_path):
    text = "a,b,label\n1,2,x\n1,2\n"
    with pytest.raises(DataFormatError, match=":3:"):
        load_csv(write_csv(tmp_path, text), "label")


def test_load_csv_non_numeric_cell_has_line_number(tmp_path):
    text = "a,b,label\n1,2,x\n1,zzz,y\n"
    with pytest.raises(DataFormatError, match=":3:"):
        load_csv(write_csv(tmp_path, text), "label")


def test_load_csv_empty_file(tmp_path):
    with pytest.raises(DataFormatError, match="empty"):
        load_csv(write_csv(tmp_path, ""), "label")


# ---------------------------------------------------------------------------
# IDX


def write_idx_pair(tmp_path, images, labels, prefix=""):
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    ipath = tmp_path / f"{prefix}imgs.idx"
    with open(ipath, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols))
        f.write(images.tobytes())
    lpath = tmp_path / f"{prefix}labs.idx"
    with open(lpath, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, len(labels)))
        f.write(bytes(labels))
    return ipath, lpath


def test_load_idx_fixture(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(2, 28, 28)).astype(np.uint8)
    ipath, lpath = write_idx_pair(tmp_path, images, [3, 7])
    ds = load_idx(ipath, lpath)
    assert ds.features.shape == (2, 784)
    assert np.array_equal(ds.features, images.reshape(2, 784) / 255.0)
    assert np.array_equal(ds.labels, [3, 7])
    assert ds.n_classes == 8


def test_load_idx_count_zero_pair(tmp_path):
    # an image file of 0 images still has rows * cols feature columns
    ipath, lpath = write_idx_pair(tmp_path, np.zeros((0, 28, 28), dtype=np.uint8), [])
    ds = load_idx(ipath, lpath)
    assert ds.features.shape == (0, 784) and ds.labels.shape == (0,)
    assert ds.n_classes == 1


def test_load_idx_pixel_scaling(tmp_path):
    images = np.full((1, 2, 2), 255, dtype=np.uint8)
    ipath, lpath = write_idx_pair(tmp_path, images, [0])
    ds = load_idx(ipath, lpath)
    assert np.all(ds.features == 1.0)


def test_load_idx_bad_label_magic(tmp_path):
    images = np.zeros((1, 2, 2), dtype=np.uint8)
    ipath, lpath = write_idx_pair(tmp_path, images, [0])
    # pass the images file where labels are expected: wrong magic
    with pytest.raises(DataFormatError, match="magic"):
        load_idx(ipath, ipath)


def test_load_idx_truncated_payload(tmp_path):
    images = np.zeros((2, 2, 2), dtype=np.uint8)
    ipath, lpath = write_idx_pair(tmp_path, images, [0, 1])
    data = ipath.read_bytes()
    ipath.write_bytes(data[:-3])
    with pytest.raises(DataFormatError, match="truncated"):
        load_idx(ipath, lpath)


def test_load_idx_count_mismatch(tmp_path):
    images = np.zeros((2, 2, 2), dtype=np.uint8)
    ipath, _ = write_idx_pair(tmp_path, images, [0, 1])
    _, lpath = write_idx_pair(tmp_path, images[:1], [0], prefix="short_")
    with pytest.raises(DataFormatError, match="does not match"):
        load_idx(ipath, lpath)


# ---------------------------------------------------------------------------
# Spirals


def test_spirals_rotation_symmetry():
    ds = gen_spirals(50, noise_sd=0.0)
    n = 50
    assert np.allclose(ds.features[n:], -ds.features[:n])


def test_spirals_deterministic_and_balanced():
    a = gen_spirals(500, noise_sd=0.1, turns=1.75, seed=3)
    b = gen_spirals(500, noise_sd=0.1, turns=1.75, seed=3)
    assert np.array_equal(a.features, b.features)
    assert int((a.labels == 0).sum()) == 500
    assert int((a.labels == 1).sum()) == 500


def test_spirals_validation():
    with pytest.raises(ValueError):
        gen_spirals(0)


# ---------------------------------------------------------------------------
# Split + normalization


def test_split_sizes():
    ds = Dataset(features=np.arange(20, dtype=np.float64).reshape(10, 2),
                 labels=np.zeros(10, dtype=np.int64), n_classes=1)
    tr, te = split_normalize(ds, 0.5, seed=0)
    assert tr.n == 5 and te.n == 5


def test_normalization_affine_map():
    feats = np.array([[0.0], [8.0], [4.0]])
    ds = Dataset(features=feats, labels=np.zeros(3, dtype=np.int64), n_classes=1)
    tr, te = split_normalize(ds, 0.99, seed=0)  # all rows land in train
    # train max 8, min 0: value 4 maps to 0.0
    row = np.nonzero(np.isclose(tr.features[:, 0], 0.0))[0]
    assert row.size == 1
    assert tr.features.min() == -1.0 and tr.features.max() == 1.0


def test_constant_feature_warns_and_zeroes():
    feats = np.column_stack([np.ones(10), np.arange(10, dtype=np.float64)])
    ds = Dataset(features=feats, labels=np.zeros(10, dtype=np.int64), n_classes=1)
    with pytest.warns(UserWarning, match="constant feature"):
        tr, te = split_normalize(ds, 0.5, seed=1)
    assert np.all(tr.features[:, 0] == 0.0)
    assert np.all(te.features[:, 0] == 0.0)


def test_no_test_leakage():
    rng = np.random.default_rng(4)
    ds = Dataset(features=rng.normal(size=(40, 3)),
                 labels=np.zeros(40, dtype=np.int64), n_classes=1)
    tr, te = split_normalize(ds, 0.6, seed=2)
    # training rows always land in [-1, 1]; both splits share one record
    assert np.all(tr.features >= -1.0) and np.all(tr.features <= 1.0)
    assert np.array_equal(tr.norm_min, te.norm_min)
    assert np.array_equal(tr.norm_max, te.norm_max)
    # undoing the affine map on train rows recovers exactly the recorded
    # per-feature min/max (i.e., the record derives from train only)
    span = tr.norm_max - tr.norm_min
    back = 0.5 * (tr.features + 1.0) * span + tr.norm_min
    assert np.allclose(back.min(axis=0), tr.norm_min)
    assert np.allclose(back.max(axis=0), tr.norm_max)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(features=np.zeros((2, 2)), labels=np.array([0, 5]), n_classes=2)
    with pytest.raises(ValueError):
        Dataset(features=np.array([[np.inf, 0.0]]), labels=np.array([0]), n_classes=1)


def test_split_fraction_validation():
    ds = gen_spirals(5)
    with pytest.raises(ValueError):
        split_normalize(ds, 1.5)
