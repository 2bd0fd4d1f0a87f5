"""Dataset loading and generation: CSV tables, IDX image containers, and
the synthetic two-spirals toy set, plus train/test splitting with
leakage-free min-max normalization."""

from __future__ import annotations

import csv
import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass
class Dataset:
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64 in [0, n_classes)
    n_classes: int
    # per-feature min/max of the training split, recorded after normalization
    norm_min: np.ndarray | None = None
    norm_max: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features must be (n, d) with one label per row")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise ValueError("labels must lie in [0, n_classes)")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


class DataFormatError(ValueError):
    pass


def load_csv(path, label_column: str, feature_columns: list | None = None) -> Dataset:
    """Parse a headered delimited file into features + contiguous class ids.

    feature_columns defaults to every column except the label.  Errors
    (missing columns, non-numeric cells, ragged rows) carry the 1-based
    line number.  A leading UTF-8 byte-order mark, as spreadsheet tools
    write, is not part of the first column's name.
    """
    with open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        column = {}  # name -> index of its first occurrence
        for i, h in enumerate(header):
            column.setdefault(h, i)
        if label_column not in column:
            raise DataFormatError(f"{path}: label column {label_column!r} not in header")
        if feature_columns is None:
            feature_columns = [h for h in header if h != label_column]
        if not feature_columns:
            raise DataFormatError(f"{path}: empty feature selection")
        missing = [c for c in feature_columns if c not in column]
        if missing:
            raise DataFormatError(f"{path}: missing feature columns {missing}")
        feat_idx = [column[c] for c in feature_columns]
        lab_idx = column[label_column]

        rows, raw_labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}"
                )
            try:
                rows.append([float(row[i]) for i in feat_idx])
            except ValueError as e:
                raise DataFormatError(f"{path}:{lineno}: non-numeric cell ({e})") from None
            raw_labels.append(row[lab_idx].strip())

    classes = sorted(set(raw_labels))
    mapping = {c: i for i, c in enumerate(classes)}
    features = np.array(rows, dtype=np.float64).reshape(len(rows), len(feat_idx))
    labels = np.array([mapping[v] for v in raw_labels], dtype=np.int64)
    return Dataset(features=features, labels=labels, n_classes=len(classes))


def _read_idx(path, magic: int, kind: str) -> tuple:
    """The dimension counts and the u8 payload of an IDX file whose
    big-endian magic must be magic; its low byte is the number of counts
    that follow it, one big-endian u32 each.  The payload must hold
    exactly their product of bytes.  kind names the file in a bad magic's
    message."""
    with open(path, "rb") as f:
        data = f.read()
    found = int.from_bytes(data[:4], "big")
    ndim = magic & 0xFF
    if len(data) >= 4 and found != magic:
        raise DataFormatError(f"{path}: bad {kind} magic 0x{found:08x} "
                              f"(expected 0x{magic:08x})")
    if len(data) < 4 + 4 * ndim:
        raise DataFormatError(f"{path}: truncated header")
    dims = struct.unpack_from(f">{ndim}I", data, 4)
    payload = np.frombuffer(data, dtype=np.uint8, offset=4 + 4 * ndim)
    if payload.size != math.prod(dims):
        raise DataFormatError(f"{path}: truncated payload "
                              f"({payload.size} bytes, expected {math.prod(dims)})")
    return dims, payload


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label pair: big-endian headers, u8 payloads, the
    images with magic IDX_IMAGE_MAGIC and three counts (images, rows,
    columns), the labels with IDX_LABEL_MAGIC and one.

    Images are flattened row-wise and scaled to [0, 1]; the label count
    must match the image count.  The image file is read and checked
    before the label file.
    """
    (count, rows, cols), images = _read_idx(images_path, IDX_IMAGE_MAGIC, "image")
    (lcount,), labels = _read_idx(labels_path, IDX_LABEL_MAGIC, "label")
    if lcount != count:
        raise DataFormatError(
            f"label count {lcount} does not match image count {count}"
        )
    n_classes = int(labels.max()) + 1 if labels.size else 1
    return Dataset(features=images.reshape(count, rows * cols).astype(np.float64) / 255.0,
                   labels=labels.astype(np.int64), n_classes=n_classes)


def gen_spirals(n_per_class: int, noise_sd: float = 0.1, turns: float = 1.75,
                seed: int = 0) -> Dataset:
    """Two interleaved Archimedean spirals with Gaussian radial noise.

    Class 1's k-th point is class 0's k-th point rotated by pi (exactly,
    when noise_sd == 0).  Deterministic for a given seed.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(np.random.PCG64(seed))
    t = np.linspace(0.0, 1.0, n_per_class)
    theta = t * turns * 2.0 * np.pi
    r = 0.1 + 0.9 * t
    if noise_sd > 0:
        r = r + rng.normal(0.0, noise_sd, size=n_per_class)
    x0 = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    x1 = -x0  # rotation by pi
    features = np.concatenate([x0, x1])
    labels = np.concatenate([np.zeros(n_per_class, dtype=np.int64),
                             np.ones(n_per_class, dtype=np.int64)])
    return Dataset(features=features, labels=labels, n_classes=2)


def split_normalize(ds: Dataset, train_fraction: float, seed: int = 0):
    """Seeded shuffle-split, then fit_normalize: a min-max map to [-1, 1]
    fitted on train only.  The test split may be empty; a training split
    without rows, which fits nothing, is an error.
    """
    if not (0.0 < train_fraction < 1.0):
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    n_train = int(round(ds.n * train_fraction))
    if n_train == 0:
        raise ValueError(f"train_fraction {train_fraction!r} splits {ds.n} rows into "
                         f"0 training and {ds.n} test rows")
    rng = np.random.default_rng(np.random.PCG64(seed))
    order = rng.permutation(ds.n)
    train, test = (Dataset(features=ds.features[idx], labels=ds.labels[idx],
                           n_classes=ds.n_classes)
                   for idx in (order[:n_train], order[n_train:]))
    return fit_normalize(train, test)


def fit_normalize(train: Dataset, test: Dataset):
    """Min-max map both datasets' features to [-1, 1] with the per-feature
    min and max of train's rows, which both results carry as norm_min and
    norm_max.  Test values may fall outside [-1, 1]; the input quantizer
    clamps them.  Constant training features map to 0 with a warning.  The
    two need the same feature count.
    """
    if test.d != train.d:
        raise DataFormatError(f"the training rows have {train.d} features and the test "
                              f"rows {test.d}")
    lo = train.features.min(axis=0)
    hi = train.features.max(axis=0)
    span = hi - lo
    degenerate = span == 0
    if np.any(degenerate):
        warnings.warn(
            f"{int(degenerate.sum())} constant feature(s) mapped to 0",
            stacklevel=3,
        )
    safe_span = np.where(degenerate, 1.0, span)

    def mk(ds):
        out = 2.0 * (ds.features - lo) / safe_span - 1.0
        return Dataset(features=np.where(degenerate, 0.0, out), labels=ds.labels,
                       n_classes=ds.n_classes, norm_min=lo.copy(), norm_max=hi.copy())

    return mk(train), mk(test)
