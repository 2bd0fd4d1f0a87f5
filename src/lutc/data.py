"""Dataset loading and generation: CSV tables, IDX image containers, and
the synthetic two-spirals toy set, plus train/test splitting with
leakage-free min-max normalization."""

from __future__ import annotations

import csv
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
    line number.
    """
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if label_column not in header:
            raise DataFormatError(f"{path}: label column {label_column!r} not in header")
        if feature_columns is None:
            feature_columns = [h for h in header if h != label_column]
        if not feature_columns:
            raise DataFormatError(f"{path}: empty feature selection")
        missing = [c for c in feature_columns if c not in header]
        if missing:
            raise DataFormatError(f"{path}: missing feature columns {missing}")
        feat_idx = [header.index(c) for c in feature_columns]
        lab_idx = header.index(label_column)

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


def _read_be32(f, path) -> int:
    data = f.read(4)
    if len(data) != 4:
        raise DataFormatError(f"{path}: truncated header")
    return struct.unpack(">I", data)[0]


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label pair (big-endian headers, u8 payloads).

    Images are flattened row-wise and scaled to [0, 1]; the label count
    must match the image count.
    """
    with open(images_path, "rb") as f:
        magic = _read_be32(f, images_path)
        if magic != IDX_IMAGE_MAGIC:
            raise DataFormatError(
                f"{images_path}: bad image magic 0x{magic:08x} "
                f"(expected 0x{IDX_IMAGE_MAGIC:08x})"
            )
        count = _read_be32(f, images_path)
        rows = _read_be32(f, images_path)
        cols = _read_be32(f, images_path)
        payload = f.read()
        if len(payload) != count * rows * cols:
            raise DataFormatError(
                f"{images_path}: truncated payload "
                f"({len(payload)} bytes, expected {count * rows * cols})"
            )
        images = np.frombuffer(payload, dtype=np.uint8).reshape(count, rows * cols)

    with open(labels_path, "rb") as f:
        magic = _read_be32(f, labels_path)
        if magic != IDX_LABEL_MAGIC:
            raise DataFormatError(
                f"{labels_path}: bad label magic 0x{magic:08x} "
                f"(expected 0x{IDX_LABEL_MAGIC:08x})"
            )
        lcount = _read_be32(f, labels_path)
        labels = np.frombuffer(f.read(), dtype=np.uint8)
        if labels.size != lcount:
            raise DataFormatError(f"{labels_path}: truncated payload")

    if lcount != count:
        raise DataFormatError(
            f"label count {lcount} does not match image count {count}"
        )
    n_classes = int(labels.max()) + 1 if labels.size else 1
    return Dataset(features=images.astype(np.float64) / 255.0,
                   labels=labels.astype(np.int64), n_classes=n_classes)


def gen_spirals(n_per_class: int, noise_sd: float = 0.1, turns: float = 1.75,
                seed: int = 0) -> Dataset:
    """Two interleaved Archimedean spirals with Gaussian radial noise.

    Class 1's k-th point is class 0's k-th point rotated by pi (exactly,
    when noise_sd == 0).  Deterministic for a given seed.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
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
    """Seeded shuffle-split, then min-max map to [-1, 1] fitted on train only.

    Test values may fall outside [-1, 1]; the input quantizer clamps them.
    Constant features map to 0 with a warning.
    """
    if not (0.0 < train_fraction < 1.0):
        raise ValueError("train_fraction must be in (0, 1)")
    rng = np.random.default_rng(np.random.PCG64(seed))
    order = rng.permutation(ds.n)
    n_train = int(round(ds.n * train_fraction))
    tr_idx, te_idx = order[:n_train], order[n_train:]

    lo = ds.features[tr_idx].min(axis=0)
    hi = ds.features[tr_idx].max(axis=0)
    span = hi - lo
    degenerate = span == 0
    if np.any(degenerate):
        warnings.warn(
            f"{int(degenerate.sum())} constant feature(s) mapped to 0",
            stacklevel=2,
        )
    safe_span = np.where(degenerate, 1.0, span)

    def norm(x):
        out = 2.0 * (x - lo) / safe_span - 1.0
        return np.where(degenerate, 0.0, out)

    def mk(idx):
        return Dataset(features=norm(ds.features[idx]), labels=ds.labels[idx],
                       n_classes=ds.n_classes, norm_min=lo.copy(), norm_max=hi.copy())

    return mk(tr_idx), mk(te_idx)
