import json
import shutil
import struct

import numpy as np
import pytest

from lutc.cli import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    build_parser,
    config_hash,
    load_dataset,
    main,
    resolve_config,
)
from lutc.data import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC
from lutc.model import NetworkSpec, init_model, save_checkpoint
from lutc.netlist import build_netlist, load_netlist, save_netlist
from lutc.tables import tabulate_model


def write_config(tmp_path, name="config.json"):
    """Desk-scale spiral configuration that trains in about a second."""
    cfg = {
        "profile": "spiral",
        "spec": {"layer_widths": [4, 2], "seed": 0},
        "dataset": {"kind": "spirals", "n_per_class": 40, "noise_sd": 0.05,
                    "turns": 1.5, "seed": 1, "train_fraction": 0.8},
        "train": {"epochs": 3, "batch_size": 32, "seed": 0},
    }
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def run(argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# Usage / config errors


def test_missing_profile_and_config(tmp_path):
    assert run(["train", "--out", tmp_path / "o"]) == EXIT_USAGE


def test_unknown_profile_rejected(tmp_path, capsys):
    # argparse enforces the choice list -> SystemExit(2)
    with pytest.raises(SystemExit) as e:
        run(["train", "--profile", "bogus", "--out", tmp_path / "o"])
    assert e.value.code == 2


def test_bad_config_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert run(["train", "--config", path, "--out", tmp_path / "o"]) == EXIT_USAGE


def test_config_may_start_with_a_utf8_byte_order_mark(tmp_path):
    # such a file used to exit 2 with "Unexpected UTF-8 BOM"
    plain = write_config(tmp_path)
    bom = tmp_path / "bom.json"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    parser = build_parser()
    resolved = [resolve_config(parser.parse_args(["train", "--config", str(path),
                                                  "--out", str(tmp_path / "o")]))
                for path in (plain, bom)]
    assert resolved[0] == resolved[1]


@pytest.mark.parametrize("cfg, message", [
    ([{"profile": "spiral"}], "c.json: not a JSON object"),
    ({"profile": "spiral", "spec": [4, 2]}, "config: spec is not a JSON object"),
    ({"profile": "spiral", "dataset": [{"kind": "spirals"}]},
     "config: dataset is not a JSON object"),
    ({"profile": "spiral", "train": ["epochs", 3]}, "config: train is not a JSON object"),
], ids=["config", "spec", "dataset", "train"])
def test_config_shapes_exit_2(tmp_path, capsys, cfg, message):
    # each used to end in an AttributeError, TypeError or ValueError traceback
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert run(["train", "--config", path, "--out", tmp_path / "o"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: config") and message in err, err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("cfg, message", [
    ({"profile": ["spiral"]}, "error: config: unknown profile ['spiral']"),
    ({"profile": 0}, "error: config: unknown profile 0"),
    ({"profile": "spiral", "dataset": dict(kind="spirals", n_per_class=[5])},
     "error: dataset: n_per_class must be int, got [5]"),
    ({"profile": "spiral", "dataset": dict(kind="csv", path="d.csv", label_column=["y"])},
     "error: dataset: label_column must be str, got ['y']"),
    ({"profile": "spiral", "spec": {"clock_period_ns": True}, "train": {"base_lr": True}},
     "error: spec: invalid NetworkSpec: clock_period_ns must be a real number, got True"),
    ({"profile": "spiral", "train": {"base_lr": True}},
     "error: train: base_lr must be a real number, got True"),
    ({"profile": "spiral", "train": {"base_lr": "0.1"}},
     "error: train: base_lr must be a real number, got '0.1'"),
], ids=["profile-list", "profile-0", "n-per-class-list", "label-column-list", "clock-bool",
        "base-lr-bool", "base-lr-str"])
def test_config_value_types_exit_2(tmp_path, monkeypatch, capsys, cfg, message):
    # the lists used to end in a TypeError traceback (exit 1), a profile of 0
    # was ignored, a bool trained as 1.0 and a str failed a comparison
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.csv").write_text("f0,f1,y\n0.1,0.2,a\n0.3,0.4,b\n", encoding="utf-8")
    (tmp_path / "c.json").write_text(json.dumps(cfg), encoding="utf-8")
    assert run(["train", "--config", tmp_path / "c.json", "--out", tmp_path / "o"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(message), err
    assert not (tmp_path / "o").exists()


def test_missing_dataset_path(tmp_path):
    cfg = {"profile": "jsc-m", "dataset": {"kind": "csv", "path": "/nope.csv",
                                           "label_column": "y"}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert run(["train", "--config", path, "--out", tmp_path / "o"]) == EXIT_USAGE


def test_missing_checkpoint(tmp_path):
    assert run(["compile", "--checkpoint", tmp_path / "none.npz",
                "--out", tmp_path / "o"]) == EXIT_USAGE


def test_missing_netlist_dir(tmp_path):
    assert run(["emit", "--netlist", tmp_path / "none",
                "--out", tmp_path / "o"]) == EXIT_USAGE


def test_invalid_spec_override(tmp_path):
    # degree 0 violates the spec invariants -> usage error
    assert run(["train", "--profile", "spiral", "--degree", "0",
                "--out", tmp_path / "o"]) == EXIT_USAGE


def test_train_rejects_one_bit_beta(tmp_path, capsys):
    # beta 1 used to end in a ZeroDivisionError from init_scales
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"profile": "spiral",
                                "spec": {"beta": 1, "layer_widths": [4, 2]}}), encoding="utf-8")
    assert run(["train", "--config", path, "--out", tmp_path / "o"]) == EXIT_USAGE
    assert "beta must be in [2, 8], got 1" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("epochs", 1.5), ("batch_size", 32.0), ("restart_period", "10"), ("restart_mult", True),
    ("seed", 2.5), ("weight_decay", -5.0), ("weight_decay", float("nan")),
    ("weight_decay", float("inf")),
])
def test_train_rejects_bad_train_config(tmp_path, capsys, key, value):
    # epochs 1.5 or seed 2.5 used to crash with a TypeError, and weight_decay -5
    # to train without decay
    path = write_config(tmp_path)
    cfg = json.loads(path.read_text(encoding="utf-8"))
    cfg["train"][key] = value
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert run(["train", "--config", path, "--out", tmp_path / "o"]) == EXIT_USAGE
    assert f"error: train: {key} must be" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("cells,fraction,message", [
    ("0.1,0.2,a\n0.3,oops,b\n0.5,0.6,a\n", 0.5, ":3: non-numeric cell"),
    ("0.1,0.2,a\n0.3,0.4,b\n0.5,0.6,a\n", 1.5, "train_fraction must be in (0, 1), got 1.5"),
    ("0.1,0.2,a\n0.3,0.4,b\n0.5,0.6,a\n", 0.1, "splits 3 rows into 0 training and 3 test rows"),
    ("0.1,0.2,a\n0.3,0.4,b\n0.5,0.6,a\n", 0.9, "the split has 3 training and 0 test rows"),
], ids=["malformed-csv", "fraction-outside", "empty-train", "empty-test"])
def test_train_data_errors_exit_2(tmp_path, capsys, cells, fraction, message):
    # each used to exit 1 with a traceback, or (an empty test side) to train
    # with a nan test accuracy and exit 0
    (tmp_path / "d.csv").write_text("f0,f1,y\n" + cells, encoding="utf-8")
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"profile": "spiral", "dataset": {
        "kind": "csv", "path": str(tmp_path / "d.csv"), "label_column": "y",
        "train_fraction": fraction}}), encoding="utf-8")
    assert run(["train", "--config", path, "--out", tmp_path / "o"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: dataset: ") and message in err, err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("widths", [[8, 1], [8, 2]])
@pytest.mark.parametrize("command", ["train", "sweep"])
def test_more_classes_than_the_outputs_hold_exit_2_before_training(
        tmp_path, capsys, monkeypatch, command, widths):
    # 3 classes used to end in an IndexError traceback on 2 outputs (exit 1),
    # and to train labels 0, 1 and 2 as binary targets on 1 output (exit 0)
    def no_training(*args, **kwargs):
        raise AssertionError("the command trained")

    monkeypatch.setattr("lutc.cli.train", no_training)
    rows = "".join(f"{i / 10},{(i * 7 % 10) / 10},{i % 3}\n" for i in range(12))
    (tmp_path / "d.csv").write_text("f0,f1,y\n" + rows, encoding="utf-8")
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"profile": "spiral", "spec": {"layer_widths": widths},
                                "dataset": {"kind": "csv", "path": str(tmp_path / "d.csv"),
                                            "label_column": "y"}}), encoding="utf-8")
    grid = ["--depths", "2", "--degrees", "1"] if command == "sweep" else []
    assert run([command, "--config", path, "--out", tmp_path / "o"] + grid) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: dataset: 3 classes, but an output layer of width {widths[-1]} holds 2"), err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("test_key", ["test_images", "test_labels"])
def test_idx_test_split_needs_both_files(tmp_path, capsys, test_key):
    # test_images alone used to end in a KeyError traceback (exit 1), and
    # test_labels alone was silently ignored
    ipath, lpath = tmp_path / "imgs.idx", tmp_path / "labs.idx"
    ipath.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, 4, 2, 2) + bytes(range(16)))
    lpath.write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, 4) + bytes([0, 1, 0, 1]))
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"profile": "jsc-m", "dataset": {
        "kind": "idx", "images": str(ipath), "labels": str(lpath),
        test_key: str(ipath if test_key == "test_images" else lpath)}}), encoding="utf-8")
    assert run(["train", "--config", path, "--out", tmp_path / "o"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "error: dataset.idx: 'test_images' and 'test_labels' go together\n", err
    assert not (tmp_path / "o").exists()


def no_training(*args, **kwargs):
    raise AssertionError("the command trained")


SPIRALS = {"kind": "spirals", "n_per_class": 20}


@pytest.mark.parametrize("cfg, message", [
    ({"spec": {"layer_widht": [4, 2]}}, "error: spec: NetworkSpec.__init__() got an "
                                        "unexpected keyword argument 'layer_widht'"),
    ({"spec": {"layer_widths": [4.7, 2]}},
     "error: spec: invalid NetworkSpec: layer_widths[0] must be an integer, got 4.7"),
    ({"spec": {"seed": True}}, "error: spec: invalid NetworkSpec: seed must be an integer, "
                               "got True"),
    ({"dataset": {"kind": "spirals", "n_per_clas": 10}},
     "error: dataset.spirals: got an unexpected keyword argument 'n_per_clas'"),
    ({"datset": SPIRALS}, "error: config: unknown keys ['datset']"),
    ({"dataset": dict(SPIRALS, n_per_class=20.7)},
     "error: dataset: n_per_class must be int, got 20.7"),
    ({"dataset": dict(SPIRALS, seed=True)}, "error: dataset: seed must be int, got True"),
    ({"dataset": dict(SPIRALS, noise_sd="0.1")},
     "error: dataset: noise_sd must be float, got '0.1'"),
    ({"dataset": {"kind": "csv", "path": "d.csv"}},
     "error: dataset.csv: missing a required argument: 'label_column'"),
    ({"dataset": {"kind": "idx", "images": "i.idx", "labels": "l.idx", "test_images": 3,
                  "test_labels": "l.idx"}},
     "error: dataset: test_images must be str, got 3"),
    ({"dataset": {"kind": "parquet"}},
     "error: dataset: kind 'parquet' is not one of ['csv', 'idx', 'spirals']"),
    ({"spec": {"seed": -1}}, "error: spec: invalid NetworkSpec: seed must be in [0, 2**63), "
                             "got -1"),
    ({"spec": {"seed": 2**64}}, "error: spec: invalid NetworkSpec: seed must be in "
                                "[0, 2**63), got 18446744073709551616"),
    ({"train": {"seed": -5}}, "error: train: seed must be >= 0, got -5"),
    ({"dataset": dict(SPIRALS, seed=-5)}, "error: dataset: seed must be >= 0, got -5"),
], ids=["spec-key", "spec-float-width", "spec-bool-seed", "dataset-key", "top-level-key",
        "float-int", "bool-int", "string-float", "csv-without-label-column", "int-path",
        "unknown-kind", "spec-negative-seed", "spec-seed-past-int64", "train-negative-seed",
        "dataset-negative-seed"])
@pytest.mark.parametrize("command", ["train", "sweep"])
def test_config_keys_and_types_exit_2_before_training(tmp_path, monkeypatch, capsys,
                                                      command, cfg, message):
    # the first eight used to train and exit 0: an unknown key was dropped,
    # a float width or count truncated, a bool read as 1 and a string parsed;
    # a negative spec or train seed ended in PCG64's traceback, a spec seed
    # of 2**64 in save_checkpoint's after training, and a negative dataset
    # seed's message named no key
    monkeypatch.setattr("lutc.cli.train", no_training)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.csv").write_text("f0,f1,y\n0.1,0.2,a\n0.3,0.4,b\n", encoding="utf-8")
    (tmp_path / "c.json").write_text(json.dumps(dict(cfg, profile="spiral")), encoding="utf-8")
    grid = ["--depths", "2", "--degrees", "1"] if command == "sweep" else []
    assert run([command, "--config", "c.json", "--out", "o"] + grid) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(message), err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_dataset_features_other_than_the_spec_inputs_exit_2(tmp_path, monkeypatch, capsys,
                                                            command):
    # sweep used to take a 3-feature CSV under the 2-input spiral profile
    # and end in a traceback (exit 1)
    monkeypatch.setattr("lutc.cli.train", no_training)
    rows = "".join(f"{i / 10},{i / 20},{i / 30},{i % 2}\n" for i in range(10))
    (tmp_path / "d.csv").write_text("f0,f1,f2,y\n" + rows, encoding="utf-8")
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"profile": "spiral", "dataset": {
        "kind": "csv", "path": str(tmp_path / "d.csv"), "label_column": "y"}}),
        encoding="utf-8")
    grid = ["--depths", "2", "--degrees", "1"] if command == "sweep" else []
    assert run([command, "--config", path, "--out", tmp_path / "o"] + grid) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: dataset: the training rows have 3 features and the test "
                          "rows 3, but spec.input_count is 2"), err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--degree", "1500"],
    ["sweep", "--depths", "2", "--degrees", "1,1500"],
], ids=["train", "sweep"])
def test_a_basis_past_the_term_cap_exits_2_before_training(tmp_path, monkeypatch, capsys,
                                                           argv):
    # C(1502, 2) = 1127251 monomials used to end in enumerate_basis's
    # ValueError traceback (exit 1); the sweep now checks its degree-1500
    # cells before it trains the degree-1 one
    monkeypatch.setattr("lutc.cli.train", no_training)
    assert run(argv + ["--profile", "spiral", "--out", tmp_path / "o"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: spec: invalid NetworkSpec: layer 0: a degree-1500 basis "
                          "in 2 inputs has more than the cap of 1048576 monomials"), err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_a_negative_seed_flag_exits_2_before_training(tmp_path, monkeypatch, capsys, command):
    # --seed -1 used to end in PCG64's ValueError traceback (exit 1)
    monkeypatch.setattr("lutc.cli.train", no_training)
    grid = ["--depths", "2", "--degrees", "1"] if command == "sweep" else []
    assert run([command, "--profile", "spiral", "--seed", "-1",
                "--out", tmp_path / "o"] + grid) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: spec: invalid NetworkSpec: seed must be in [0, 2**63), "
                          "got -1"), err
    assert not (tmp_path / "o").exists()


def test_profile_flag_overrides_the_config_profile(tmp_path):
    # the file's jsc-m profile used to win, and its 16 inputs reject the spirals
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"profile": "jsc-m", "dataset": SPIRALS,
                                "train": {"epochs": 1}}), encoding="utf-8")
    assert run(["train", "--config", path, "--profile", "spiral",
                "--out", tmp_path / "o"]) == EXIT_OK
    assert "layers 8,8,2" in (tmp_path / "o" / "summary.txt").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# Train


def test_train_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert run(["train", "--config", cfg, "--out", out]) == EXIT_OK
    for name in ("checkpoint.npz", "history.csv", "summary.txt"):
        assert (out / name).stat().st_size > 0
    summary = (out / "summary.txt").read_text()
    assert "config_hash" in summary
    assert "layers 4,2" in summary


def test_train_same_seed_identical_checkpoints(tmp_path):
    cfg = write_config(tmp_path)
    run(["train", "--config", cfg, "--out", tmp_path / "a"])
    run(["train", "--config", cfg, "--out", tmp_path / "b"])
    with np.load(tmp_path / "a" / "checkpoint.npz") as za, \
            np.load(tmp_path / "b" / "checkpoint.npz") as zb:
        assert sorted(za.files) == sorted(zb.files)
        for key in za.files:
            assert np.array_equal(za[key], zb[key]), key


@pytest.mark.parametrize("argv, option", [
    (["train", "--layers", "8,x,2"], "--layers"),
    (["sweep", "--layers", "8,x,2", "--depths", "2", "--degrees", "1"], "--layers"),
    (["sweep", "--depths", "2,a", "--degrees", "1"], "--depths"),
    (["sweep", "--depths", "", "--degrees", "1"], "--depths"),
    (["sweep", "--depths", "2,0", "--degrees", "1"], "--depths"),
    (["sweep", "--depths", "2", "--degrees", "1,"], "--degrees"),
    (["sweep", "--depths", "2", "--degrees", "1", "--target-k", "1"], "--target-k"),
    (["compile", "--target-k", "1"], "--target-k"),
], ids=["train-layers", "sweep-layers", "depths-not-int", "depths-empty", "depth-0",
        "degrees-trailing-comma", "sweep-target-k", "compile-target-k"])
def test_bad_option_value_exits_2_before_any_work(pipeline_dirs, tmp_path, capsys,
                                                   argv, option):
    if argv[0] == "compile":
        argv = argv + ["--checkpoint", pipeline_dirs / "run" / "checkpoint.npz"]
    else:
        argv = argv + ["--config", write_config(tmp_path)]
    with pytest.raises(SystemExit) as e:
        run(argv + ["--out", tmp_path / "out"])
    assert e.value.code == EXIT_USAGE
    assert f"error: argument {option}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("inside", [False, True], ids=["file", "inside-file"])
@pytest.mark.parametrize("command", ["train", "compile", "emit", "sweep"])
def test_out_through_a_file_exits_2_before_any_work(pipeline_dirs, tmp_path, capsys,
                                                    monkeypatch, command, inside):
    def no_work(*args, **kwargs):
        raise AssertionError("the command ran")

    for loader in ("load_dataset", "load_checkpoint", "load_netlist"):
        monkeypatch.setattr(f"lutc.cli.{loader}", no_work)
    argv = {"train": ["--config", write_config(tmp_path)],
            "compile": ["--checkpoint", pipeline_dirs / "run" / "checkpoint.npz"],
            "emit": ["--netlist", pipeline_dirs / "net"],
            "sweep": ["--config", write_config(tmp_path), "--depths", "2", "--degrees", "1"]}
    taken = tmp_path / "taken"
    taken.write_text("keep\n", encoding="utf-8")
    with pytest.raises(SystemExit) as e:
        run([command] + argv[command] + ["--out", taken / "sub" if inside else taken])
    assert e.value.code == EXIT_USAGE
    assert (f"error: argument --out: {taken} exists and is not a directory"
            in capsys.readouterr().err)
    assert taken.read_text(encoding="utf-8") == "keep\n"


def write_idx(path, images, labels):
    """An IDX image file at path.images.idx and a label file at
    path.labels.idx of (n, rows, cols) uint8 images and n labels."""
    n, rows, cols = images.shape
    img, lab = path.with_suffix(".images.idx"), path.with_suffix(".labels.idx")
    img.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols)
                    + images.astype(np.uint8).tobytes())
    lab.write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, n) + labels.astype(np.uint8).tobytes())
    return str(img), str(lab)


@pytest.mark.parametrize("test_pair", [False, True], ids=["split", "test-files"])
def test_train_on_idx_images(tmp_path, test_pair):
    rng = np.random.default_rng(0)
    labels = np.arange(40) % 2
    images = rng.integers(0, 100, size=(40, 2, 2)) + 150 * labels[:, None, None]
    ds = dict(zip(("images", "labels"), write_idx(tmp_path / "train", images, labels)))
    if test_pair:
        ds.update(zip(("test_images", "test_labels"),
                      write_idx(tmp_path / "test", images[:10], labels[:10])))
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"profile": "spiral",
                                "spec": {"layer_widths": [4, 2], "input_count": 4},
                                "dataset": dict(ds, kind="idx"),
                                "train": {"epochs": 2, "batch_size": 16}}), encoding="utf-8")
    assert run(["train", "--config", path, "--out", tmp_path / "o"]) == EXIT_OK
    assert "layers 4,2" in (tmp_path / "o" / "summary.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("key, value", [("train_fraction", 0.3), ("seed", 5)])
def test_idx_split_keys_do_not_go_with_test_files(tmp_path, capsys, key, value):
    # the test files are not split, so these keys used to be ignored
    rng = np.random.default_rng(2)
    labels = np.arange(30) % 2
    images = rng.integers(10, 200, size=(30, 2, 2))
    ds = dict(zip(("images", "labels"), write_idx(tmp_path / "train", images, labels)))
    spec = NetworkSpec(layer_widths=(4, 2), beta=4, fan_in=2, degree=3, input_count=4)
    train_ds, test_ds = load_dataset({"dataset": dict(ds, kind="idx", train_fraction=0.5,
                                                      seed=5)}, spec)
    assert (train_ds.n, test_ds.n) == (15, 15)  # the split path takes both keys
    ds.update(zip(("test_images", "test_labels"),
                  write_idx(tmp_path / "test", images[:10], labels[:10])))
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"profile": "spiral",
                                "spec": {"layer_widths": [4, 2], "input_count": 4},
                                "dataset": dict(ds, kind="idx", **{key: value})}),
                    encoding="utf-8")
    assert run(["train", "--config", path, "--out", tmp_path / "o"]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: dataset.idx: '{key}' splits the images, so it does not go with "
        "'test_images' and 'test_labels'\n")
    assert not (tmp_path / "o").exists()


def test_idx_test_files_are_normalized_by_the_training_rows(tmp_path):
    rng = np.random.default_rng(1)
    labels = np.arange(30) % 2
    images = rng.integers(10, 200, size=(30, 2, 2))
    ds = dict(zip(("images", "labels"), write_idx(tmp_path / "train", images[:20],
                                                   labels[:20])))
    ds.update(zip(("test_images", "test_labels"),
                  write_idx(tmp_path / "test", images[20:], labels[20:])))
    spec = NetworkSpec(layer_widths=(4, 2), beta=4, fan_in=2, degree=3, input_count=4)
    train_ds, test_ds = load_dataset({"dataset": dict(ds, kind="idx")}, spec)
    raw = images[:20].reshape(20, 4) / 255.0
    assert np.array_equal(train_ds.features.min(axis=0), [-1.0] * 4)
    assert np.array_equal(train_ds.features.max(axis=0), [1.0] * 4)
    for got in (train_ds, test_ds):
        assert np.array_equal(got.norm_min, raw.min(axis=0))
        assert np.array_equal(got.norm_max, raw.max(axis=0))
    want = 2.0 * (images[20:].reshape(10, 4) / 255.0 - raw.min(axis=0)) / np.ptp(raw, axis=0) - 1
    assert np.array_equal(test_ds.features, want)


def test_train_on_selected_csv_columns(tmp_path):
    rows = "".join(f"{i / 10},{i % 3},{(i * 7 % 10) / 10},{i % 2}\n" for i in range(20))
    (tmp_path / "d.csv").write_text("f0,f1,f2,y\n" + rows, encoding="utf-8")
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"profile": "spiral", "spec": {"layer_widths": [4, 2]},
                                "dataset": {"kind": "csv", "path": str(tmp_path / "d.csv"),
                                            "label_column": "y",
                                            "feature_columns": ["f2", "f0"]},
                                "train": {"epochs": 2}}), encoding="utf-8")
    assert run(["train", "--config", path, "--out", tmp_path / "o"]) == EXIT_OK
    assert (tmp_path / "o" / "checkpoint.npz").exists()


def test_clock_ns_sets_the_checkpoint_clock(tmp_path):
    assert run(["train", "--config", write_config(tmp_path), "--clock-ns", "2.5",
                "--out", tmp_path / "o"]) == EXIT_OK
    with np.load(tmp_path / "o" / "checkpoint.npz") as z:
        assert float(z["clock_period_ns"]) == 2.5


def nan_loss(logits, labels):
    return float("nan"), np.zeros_like(logits)


def test_train_exit1_when_the_loss_diverges(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("lutc.trainer.compute_loss", nan_loss)
    code = run(["train", "--config", write_config(tmp_path), "--out", tmp_path / "o"])
    assert code == EXIT_VERIFY
    assert capsys.readouterr().err == ("error: training diverged (non-finite loss) "
                                       "at epoch 0\n")
    assert not (tmp_path / "o").exists()


def test_seed_override_changes_model(tmp_path):
    cfg = write_config(tmp_path)
    run(["train", "--config", cfg, "--out", tmp_path / "a"])
    run(["train", "--config", cfg, "--seed", "9", "--out", tmp_path / "c"])
    with np.load(tmp_path / "a" / "checkpoint.npz") as za, \
            np.load(tmp_path / "c" / "checkpoint.npz") as zc:
        assert not np.array_equal(za["w_0"], zc["w_0"])


# ---------------------------------------------------------------------------
# Compile + emit pipeline


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    cfg = write_config(root)
    assert run(["train", "--config", cfg, "--out", root / "run"]) == EXIT_OK
    assert run(["compile", "--checkpoint", root / "run" / "checkpoint.npz",
                "--out", root / "net"]) == EXIT_OK
    return root


def test_compile_outputs(pipeline_dirs, capsys):
    net_dir = pipeline_dirs / "net"
    for name in ("netlist.json", "layer0_tables.txt", "layer1_tables.txt",
                 "report.txt", "report.csv"):
        assert (net_dir / name).stat().st_size > 0
    report = (net_dir / "report.txt").read_text()
    assert "mismatches: 0" in report
    # spiral profile: 2 layers at 1.6 ns
    assert "latency         : 3.200 ns" in report


def test_compile_exit1_on_injected_fault(pipeline_dirs, tmp_path, monkeypatch):
    # inject a fault between tabulation and verification: equivalence
    # checking must catch it and the command must exit 1
    import lutc.cli as cli_mod
    from lutc.tables import tabulate_model as real_tabulate

    def corrupted(model):
        tables = real_tabulate(model)
        tables[1][0] ^= 1  # every lookup through this node is wrong
        return tables

    monkeypatch.setattr(cli_mod, "tabulate_model", corrupted)
    code = run(["compile", "--checkpoint",
                pipeline_dirs / "run" / "checkpoint.npz",
                "--out", tmp_path / "bad"])
    assert code == EXIT_VERIFY


def test_compile_exit1_names_a_hidden_table_the_outputs_mask(tmp_path, monkeypatch, capsys):
    # an untrained jsc-xl-shaped net hides this layer-0 fault from its
    # outputs on every checked vector; the per-layer check names the table
    import lutc.cli as cli_mod
    from lutc.model import save_checkpoint, spec_from_profile
    from lutc.tables import tabulate_model as real_tabulate
    from lutc.trainer import init_scales

    def corrupted(model):
        tables = real_tabulate(model)
        tables[0][0] ^= 1
        return tables

    model = init_model(spec_from_profile("jsc-xl", seed=1, layer_widths=(16, 16, 5)))
    init_scales(model, np.random.default_rng(1).uniform(-1.0, 1.0, size=(128, 16)))
    save_checkpoint(model, tmp_path / "checkpoint.npz")
    monkeypatch.setattr(cli_mod, "tabulate_model", corrupted)
    assert run(["compile", "--checkpoint", tmp_path / "checkpoint.npz",
                "--out", tmp_path / "net"]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert "equivalence: 10000 vectors, mismatches: 10000" in captured.out
    assert "faulty nodes: [(0, 0)]" in captured.err


def corrupt_checkpoint(src, dst, key, edit):
    with np.load(src) as z:
        arrays = {k: z[k].copy() for k in z.files}
    edit(arrays[key])
    np.savez(dst, **arrays)
    return dst


@pytest.mark.parametrize("key, edit, where", [
    ("w_0", lambda w: w.__setitem__((1, 2), np.nan), "layer 0 neuron 1"),
    ("w_1", lambda w: w.__setitem__((0, 0), np.nan), "layer 1 neuron 0"),
    ("mask_1", lambda m: m.__setitem__(0, [3, 3]), "layer 1 neuron 0: mask [3, 3]"),
], ids=["nan-hidden-weight", "nan-output-weight", "duplicate-mask"])
def test_compile_rejects_corrupt_checkpoint(pipeline_dirs, tmp_path, capsys,
                                            key, edit, where):
    ck = corrupt_checkpoint(pipeline_dirs / "run" / "checkpoint.npz",
                            tmp_path / "bad.npz", key, edit)
    code = run(["compile", "--checkpoint", ck, "--out", tmp_path / "net"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert where in err
    assert not (tmp_path / "net").exists()


def test_compile_rejects_an_infinite_clock_period_before_tabulating(
        pipeline_dirs, tmp_path, capsys, monkeypatch):
    def no_tables(model):
        raise AssertionError("tabulated")

    monkeypatch.setattr("lutc.cli.tabulate_model", no_tables)
    ck = corrupt_checkpoint(pipeline_dirs / "run" / "checkpoint.npz", tmp_path / "bad.npz",
                            "clock_period_ns", lambda c: c.fill(np.inf))
    code = run(["compile", "--checkpoint", ck, "--out", tmp_path / "net"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint ") and "clock_period_ns" in err, err
    assert not (tmp_path / "net").exists()


def test_train_rejects_an_infinite_clock_period(tmp_path, capsys):
    cfg = json.loads(write_config(tmp_path).read_text(encoding="utf-8"))
    cfg["spec"]["clock_period_ns"] = float("inf")  # json writes the token Infinity
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert "Infinity" in path.read_text(encoding="utf-8")
    assert run(["train", "--config", path, "--out", tmp_path / "o"]) == EXIT_USAGE
    assert "clock_period_ns must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_compile_rejects_checkpoint_missing_an_array(pipeline_dirs, tmp_path, capsys):
    with np.load(pipeline_dirs / "run" / "checkpoint.npz") as z:
        arrays = {k: z[k] for k in z.files if k != "scale_1"}
    np.savez(tmp_path / "bad.npz", **arrays)
    code = run(["compile", "--checkpoint", tmp_path / "bad.npz", "--out", tmp_path / "net"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint ") and "scale_1" in err, err
    assert not (tmp_path / "net").exists()


@pytest.mark.parametrize("name, malformed", [
    ("scalars", lambda s: s[:5]),
    ("scalars", lambda s: np.append(s[0] + 0.5, s[1:])),
    ("layer_widths", lambda w: w + 0.5),
], ids=["short-scalars", "float-scalars", "float-layer-widths"])
def test_compile_rejects_checkpoint_with_malformed_spec_arrays(pipeline_dirs, tmp_path,
                                                               capsys, name, malformed):
    """A scalars array of 5 entries, or of floats (beta 3.5), and float layer
    widths are named, not indexed past their end or truncated."""
    with np.load(pipeline_dirs / "run" / "checkpoint.npz") as z:
        arrays = {k: z[k] for k in z.files}
    arrays[name] = malformed(arrays[name])
    np.savez(tmp_path / "bad.npz", **arrays)
    code = run(["compile", "--checkpoint", tmp_path / "bad.npz", "--out", tmp_path / "net"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint ") and name in err, err
    assert not (tmp_path / "net").exists()


def cut_checkpoint(size):
    """Corruption that keeps the checkpoint's first size bytes."""
    def write(src, dst):
        dst.write_bytes(src.read_bytes()[:size])
    return write


def replace_array(name, value):
    """Corruption that saves value(array) in place of the named array."""
    def write(src, dst):
        with np.load(src) as z:
            arrays = {k: z[k] for k in z.files}
        arrays[name] = value(arrays[name])
        np.savez(dst, **arrays)
    return write


SCALARS = ("version", "scale_1", "bn_eps_0", "input_scale", "clock_period_ns")


@pytest.mark.parametrize("write, where", [
    (lambda src, dst: dst.mkdir(), "not an .npz checkpoint"),
    (cut_checkpoint(0), "not an .npz checkpoint"),
    (cut_checkpoint(300), "not an .npz checkpoint"),
    *[(replace_array(name, lambda a: np.array([1.0, 2.0])), f"{name} is float64 (2,)")
      for name in SCALARS],
    (replace_array("bn_1", lambda a: a[:3]), "layer 1: bn_1 is float64 (3, 2)"),
    (replace_array("w_0", lambda a: a.astype(str)),
     "layer 0: weights and batch-norm statistics must be real floating arrays, got <U"),
    (replace_array("bn_1", lambda a: a + 1j),
     "layer 1: weights and batch-norm statistics must be real floating arrays, got complex128"),
    *[(replace_array("input_scale", lambda a, v=value: np.float64(v)),
       f"input_scale {value} is not positive and finite") for value in (np.nan, -1.0, np.inf)],
    (replace_array("bn_eps_0", lambda a: np.float64(np.inf)),
     "layer 0: batch-norm eps inf is not finite"),
], ids=["directory", "empty", "cut-to-300-bytes", *[f"{name}-of-two" for name in SCALARS],
        "bn-of-3-rows", "string-weights", "complex-bn", "input-scale-nan", "input-scale-minus-1",
        "input-scale-inf", "bn-eps-0-inf"])
def test_compile_rejects_an_unreadable_checkpoint(pipeline_dirs, tmp_path, capsys,
                                                  write, where):
    """A directory, an empty or cut file, a scalar saved as a length-2
    array, a batch-norm array of 3 rows, string weights, complex
    batch-norm statistics, an input_scale that is not positive and finite
    and an infinite batch-norm eps exit 2, naming the file, the array or
    the layer (string weights used to end in a TypeError traceback,
    complex statistics to compile without their imaginary part, an
    input_scale of NaN or -1 in a message naming no array, one of inf in
    a fault blamed on neuron 0, and an infinite eps to compile)."""
    ck = tmp_path / "bad.npz"
    write(pipeline_dirs / "run" / "checkpoint.npz", ck)
    code = run(["compile", "--checkpoint", ck, "--out", tmp_path / "net"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {ck}: ") and where in err, err
    assert not (tmp_path / "net").exists()


@pytest.mark.parametrize("count, input_beta, where", [
    (2**62, -1, "input_count 4611686018427387904 of 4 bits exceeds the 65536-bit input port"),
    (2**16 + 1, 1, "input_count 65537 of 1 bits exceeds the 65536-bit input port"),
], ids=["2**62-inputs", "2**16+1-one-bit-inputs"])
def test_compile_rejects_an_input_port_wider_than_verilog_guarantees(
        pipeline_dirs, tmp_path, capsys, count, input_beta, where):
    """IEEE 1364-2001 guarantees vectors of 2**16 bits: a wider top-level
    port exits 2 before any file is written."""
    ck = tmp_path / "wide.npz"
    replace_array("scalars", lambda s: np.array([*s[:3], count, input_beta, *s[5:]]))(
        pipeline_dirs / "run" / "checkpoint.npz", ck)
    assert run(["compile", "--checkpoint", ck, "--out", tmp_path / "net"]) == EXIT_USAGE
    assert where in capsys.readouterr().err
    assert not (tmp_path / "net").exists()


def test_compile_rejects_checkpoint_that_lifts_the_enum_guard(lifted_guard_checkpoint,
                                                              tmp_path, capsys):
    # 32 address bits: a (1, 2**32) table must not be asked for
    code = run(["compile", "--checkpoint", lifted_guard_checkpoint, "--out", tmp_path / "net"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint ") and "layer 0: enumeration guard" in err, err
    assert not (tmp_path / "net").exists()


def test_train_exit1_on_nonfinite_activation(tmp_path, monkeypatch, capsys):
    import lutc.cli as cli_mod

    def diverging(*args, **kwargs):
        raise FloatingPointError("non-finite batch-norm output in layer 0")

    monkeypatch.setattr(cli_mod, "train", diverging)
    code = run(["train", "--config", write_config(tmp_path), "--out", tmp_path / "o"])
    assert code == EXIT_VERIFY
    assert "error: non-finite batch-norm output in layer 0" in capsys.readouterr().err


def test_emit_outputs(pipeline_dirs):
    out = pipeline_dirs / "rtl"
    assert run(["emit", "--netlist", pipeline_dirs / "net", "--out", out]) == EXIT_OK
    for name in ("top.v", "tb.v", "vectors.hex", "manifest.txt"):
        assert (out / name).stat().st_size > 0
    assert (out / "layer0_n0.v").exists()


def test_emit_deterministic(pipeline_dirs):
    run(["emit", "--netlist", pipeline_dirs / "net", "--out", pipeline_dirs / "r1"])
    run(["emit", "--netlist", pipeline_dirs / "net", "--out", pipeline_dirs / "r2"])
    for p in sorted((pipeline_dirs / "r1").iterdir()):
        assert p.read_bytes() == (pipeline_dirs / "r2" / p.name).read_bytes()


def test_emit_flags_stale_modules_of_a_wider_emission(pipeline_dirs, tmp_path, capsys):
    # pipeline_dirs' netlist has widths 4,2; a 6,2 emission leaves two ROMs it lacks
    model = init_model(NetworkSpec(layer_widths=[6, 2], beta=2, fan_in=2, degree=2,
                                   input_count=2))
    save_netlist(build_netlist(model, tabulate_model(model)), tmp_path / "wide")
    assert run(["emit", "--netlist", tmp_path / "wide", "--out", tmp_path / "rtl"]) == EXIT_OK
    code = run(["emit", "--netlist", pipeline_dirs / "net", "--out", tmp_path / "rtl"])
    assert code == EXIT_VERIFY
    err = capsys.readouterr().err
    assert "layer0_n4: not present in the netlist" in err
    assert "layer0_n5: not present in the netlist" in err


def test_netlist_round_trip_is_byte_exact(pipeline_dirs, tmp_path):
    net_dir = pipeline_dirs / "net"
    save_netlist(load_netlist(net_dir), tmp_path)
    names = ["netlist.json"] + sorted(p.name for p in net_dir.glob("layer*_tables.txt"))
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    for name in names:
        assert (tmp_path / name).read_bytes() == (net_dir / name).read_bytes(), name


def edit_netlist(edit):
    """Corruption that rewrites netlist.json through edit(doc)."""
    def corrupt(net_dir):
        path = net_dir / "netlist.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        edit(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
    return corrupt


def truncate_dump(net_dir):
    path = net_dir / "layer1_tables.txt"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-3]), encoding="utf-8")


def set_source(layer, node, k, value):
    return edit_netlist(lambda doc: doc["layers"][layer][node].__setitem__(k, value))


def set_field(key, value):
    return edit_netlist(lambda doc: doc.__setitem__(key, value))


def as_v1(doc):
    """Rewrite a lut-netlist v2 doc as v1 held the same wiring: every node
    numbered globally, the primary inputs first, sources named by id."""
    base, next_id = 0, doc["input_count"]
    for layer, rows in enumerate(doc["layers"]):
        doc["layers"][layer] = [{"id": next_id + j, "sources": [base + s for s in row]}
                                for j, row in enumerate(rows)]
        base, next_id = next_id, next_id + len(rows)
    doc["format"] = "lut-netlist v1"


# pipeline_dirs' netlist: layer 0 reads the 2 inputs, layer 1 the 4 nodes of layer 0
@pytest.mark.parametrize("corrupt, where", [
    (edit_netlist(lambda doc: doc["layers"][1][1].append(2)), "layer 1 neuron 1"),
    (set_source(0, 1, 0, 2), "layer 0 neuron 1"),
    (set_source(1, 1, 1, 4), "layer 1 neuron 1"),
    (edit_netlist(lambda doc: doc["layers"][1].__setitem__(0, [3, 3])), "layer 1 neuron 0"),
    (set_source(1, 1, 1, 2.0), "layer 1 neuron 1"),
    (set_source(0, 2, 0, True), "layer 0 neuron 2"),
    (set_source(1, 0, 0, 10**30), "layer 1 neuron 0"),
    (edit_netlist(lambda doc: doc["layers"][1].pop(0)), "layer 1: (1, 2) sources"),
    (edit_netlist(lambda doc: doc["layers"].__setitem__(1, [])), "layer 1: [] is not"),
    (edit_netlist(lambda doc: doc["layers"].__setitem__(1, 5)), "layer 1: 5 is not"),
    (edit_netlist(lambda doc: doc["layers"].append(doc["layers"][1])), "layer2_tables.txt"),
    (lambda net_dir: (net_dir / "layer1_tables.txt").unlink(), "layer1_tables.txt"),
    (edit_netlist(lambda doc: doc.__setitem__("layers", [])),
     "layers [] is not a list of one or more layers"),
    (truncate_dump, "layer 1 neuron 1"),
    (edit_netlist(lambda doc: doc.pop("input_bits")), "input_bits null"),
    (set_field("input_bits", 2.9), "input_bits 2.9"),
    (set_field("input_count", "2"), 'input_count "2"'),
    (edit_netlist(as_v1), "format 'lut-netlist v1', not 'lut-netlist v2': re-run lutc compile"),
    (set_field("clock_period_ns", -1.0), "-1.0 ns clock"),
    (set_field("clock_period_ns", float("nan")), "nan ns clock"),
    (set_field("input_count", 2**62), "input_count 4611686018427387904 of 4 bits exceeds"),
    (edit_netlist(lambda doc: doc.update(input_count=2**16 + 1, input_bits=1)),
     "input_count 65537 of 1 bits exceeds the 65536-bit input port"),
], ids=["extra-source", "source-past-inputs", "source-past-layer", "duplicate-source",
        "float-source", "bool-source", "huge-source", "missing-sources", "empty-layer",
        "layer-not-a-list", "extra-layer", "missing-dump", "no-layers", "truncated-dump",
        "missing-input-bits", "float-input-bits", "string-input-count", "v1-file",
        "negative-clock", "nan-clock", "2**62-inputs", "2**16+1-one-bit-inputs"])
def test_emit_rejects_malformed_netlist(pipeline_dirs, tmp_path, capsys, corrupt, where):
    net_dir = tmp_path / "net"
    shutil.copytree(pipeline_dirs / "net", net_dir)
    corrupt(net_dir)
    code = run(["emit", "--netlist", net_dir, "--out", tmp_path / "rtl"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert where in err
    assert not (tmp_path / "rtl").exists()


def test_emit_reads_only_the_dumps_of_the_netlists_layers(tmp_path, capsys):
    # a 3-layer net compiled over a 4-layer one leaves its layer3_tables.txt,
    # which emit used to count and exit 2 on
    for widths in ([4, 4, 4, 2], [4, 4, 2]):
        model = init_model(NetworkSpec(layer_widths=widths, beta=2, fan_in=2, degree=2,
                                       input_count=2))
        save_checkpoint(model, tmp_path / "checkpoint.npz")
        assert run(["compile", "--checkpoint", tmp_path / "checkpoint.npz",
                    "--out", tmp_path / "net"]) == EXIT_OK
    assert (tmp_path / "net" / "layer3_tables.txt").exists()
    assert run(["emit", "--netlist", tmp_path / "net", "--out", tmp_path / "rtl"]) == EXIT_OK
    assert "emitted 10 neuron modules" in capsys.readouterr().out
    assert not (tmp_path / "rtl" / "layer3_n0.v").exists()


# the first layer reads the 2 inputs, the second the 4 nodes of the first
@pytest.mark.parametrize("layer, sources, quoted", [
    (1, [2, 4], "sources [2, 4] are not distinct indices below 4"),
    (1, [3, 3], "sources [3, 3] are not distinct indices below 4"),
    (0, [1, 2], "sources [1, 2] are not distinct indices below 2"),
    (1, [2, 3.0], "sources [2, 3.0] are not a list of int64 integers"),
    (0, [True, 0], "sources [true, 0] are not a list of int64 integers"),
], ids=["past-layer", "duplicate", "an-input", "a-float", "a-bool"])
def test_emit_error_quotes_file_ids(pipeline_dirs, tmp_path, capsys, layer, sources, quoted):
    # the error shows neuron 1's sources as netlist.json holds them
    net_dir = tmp_path / "net"
    shutil.copytree(pipeline_dirs / "net", net_dir)
    edit_netlist(lambda doc: doc["layers"][layer].__setitem__(1, sources))(net_dir)
    assert run(["emit", "--netlist", net_dir, "--out", tmp_path / "rtl"]) == EXIT_USAGE
    assert f"layer {layer} neuron 1: {quoted}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Sweep


def test_sweep_grid(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "sweep"
    assert run(["sweep", "--config", cfg, "--depths", "2,3",
                "--degrees", "1,2", "--out", out]) == EXIT_OK
    lines = (out / "results.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 4  # header + 2 depths x 2 degrees
    header = lines[0].split(",")
    assert header[:3] == ["depth", "degree", "status"]
    pareto = (out / "pareto.txt").read_text()
    assert "latency (ns) vs test error front:" in pareto
    assert "estimated LUTs vs test error front:" in pareto
    # depth-2 cells are 2 cycles, depth-3 cells 3 cycles at the same clock
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    lat = {(r["depth"], r["degree"]): float(r["latency_ns"]) for r in rows}
    assert lat[("2", "1")] < lat[("3", "1")]


def test_sweep_records_a_diverged_cell_as_failed(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("lutc.trainer.compute_loss", nan_loss)
    out = tmp_path / "sweep"
    assert run(["sweep", "--config", write_config(tmp_path), "--depths", "2",
                "--degrees", "1", "--out", out]) == EXIT_OK
    assert "depth=2 degree=1: training diverged" in capsys.readouterr().err
    row = (out / "results.csv").read_text().splitlines()[1]
    assert row.startswith("2,1,failed,nan,nan,nan,"), row


def test_sweep_deeper_than_an_output_only_spec_exits_2(tmp_path, capsys, monkeypatch):
    # used to end in an IndexError at hidden[-1], after loading the data
    def no_training(*args, **kwargs):
        raise AssertionError("sweep trained before rejecting the grid")

    monkeypatch.setattr("lutc.cli.train", no_training)
    out = tmp_path / "sweep"
    assert run(["sweep", "--profile", "spiral", "--layers", "2", "--depths", "1,2",
                "--degrees", "1", "--out", out]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: sweep: depth 2 ") and "only the output layer" in err, err
    assert not out.exists()


def test_config_hash_stable():
    cfg = {"spec": {"beta": 2}, "train": {}, "dataset": None}
    assert config_hash(cfg) == config_hash(json.loads(json.dumps(cfg)))
    assert config_hash(cfg) != config_hash({"spec": {"beta": 3}, "train": {},
                                            "dataset": None})


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["train", "--profile", "spiral", "--out", "x"])
    assert args.command == "train"
    with pytest.raises(SystemExit):
        parser.parse_args(["bogus"])
