import json
import shutil

import numpy as np
import pytest

from lutc.cli import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    build_parser,
    config_hash,
    main,
)
from lutc.model import NetworkSpec, init_model
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
    (["compile", "--budget", "-5"], "--budget"),
    (["compile", "--exhaustive-limit", "200"], "--exhaustive-limit"),
    (["compile", "--exhaustive-limit", "25"], "--exhaustive-limit"),
    (["compile", "--exhaustive-limit", "-1"], "--exhaustive-limit"),
], ids=["train-layers", "sweep-layers", "depths-not-int", "depths-empty", "depth-0",
        "degrees-trailing-comma", "sweep-target-k", "compile-target-k", "compile-budget",
        "exhaustive-limit-200", "exhaustive-limit-over-cap", "exhaustive-limit-negative"])
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


def test_exhaustive_limit_cap_is_accepted(pipeline_dirs, tmp_path, capsys):
    # the spiral net has 2 x 4 input bits: the cap checks all 256 vectors
    assert run(["compile", "--checkpoint", pipeline_dirs / "run" / "checkpoint.npz",
                "--out", tmp_path / "net", "--exhaustive-limit", "24"]) == EXIT_OK
    assert "equivalence: 256 vectors, mismatches: 0" in capsys.readouterr().out


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


def test_compile_exit1_when_nothing_is_checked(pipeline_dirs, tmp_path, capsys):
    # exhaustive checking off and no random vectors: 0 vectors verify nothing
    code = run(["compile", "--checkpoint", pipeline_dirs / "run" / "checkpoint.npz",
                "--out", tmp_path / "net", "--exhaustive-limit", "0", "--budget", "0"])
    assert code == EXIT_VERIFY
    assert "equivalence vectors checked: 0" in (tmp_path / "net" / "report.txt").read_text()
    assert "error: 0 equivalence vectors checked" in capsys.readouterr().err


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
    return edit_netlist(lambda doc: doc["layers"][layer][node]["sources"].__setitem__(k, value))


# pipeline_dirs' netlist: inputs are ids 0-1, layer 0 ids 2-5, layer 1 ids 6-7
@pytest.mark.parametrize("corrupt, where", [
    (edit_netlist(lambda doc: doc["layers"][1][0]["sources"].append(2)), "layer 1 neuron 0"),
    (set_source(0, 1, 0, 2), "layer 0 neuron 1"),
    (set_source(1, 1, 1, 9), "layer 1 neuron 1"),
    (edit_netlist(lambda doc: doc["layers"][1][0].__setitem__("sources", [3, 3])),
     "layer 1 neuron 0"),
    (edit_netlist(lambda doc: doc["layers"][1][1].__setitem__("id", 8)), "layer 1 neuron 1"),
    (edit_netlist(lambda doc: doc["layers"][1][0].pop("sources")), "layer 1 neuron 0"),
    (edit_netlist(lambda doc: doc["layers"].append(doc["layers"][1])),
     "netlist.json has 3 layers, the table dumps 2"),
    (lambda net_dir: (net_dir / "layer1_tables.txt").unlink(),
     "netlist.json has 2 layers, the table dumps 1"),
    (edit_netlist(lambda doc: doc.pop("input_bits")), "input_bits"),
    (edit_netlist(lambda doc: doc["layers"].__setitem__(1, 5)), "netlist.json: missing or invalid"),
    (truncate_dump, "layer 1 neuron 1"),
], ids=["extra-source", "source-past-inputs", "source-past-layer", "duplicate-source",
        "non-dense-id", "missing-sources", "extra-layer", "missing-dump",
        "missing-input-bits", "layer-not-a-list", "truncated-dump"])
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


@pytest.mark.parametrize("sources", [[2, 9], [3, 3], [1, 6]],
                         ids=["past-layer", "duplicate", "an-input"])
def test_emit_error_quotes_file_ids(pipeline_dirs, tmp_path, capsys, sources):
    # layer 1 reads layer 0's ids 2-5; the error shows the ids as written
    net_dir = tmp_path / "net"
    shutil.copytree(pipeline_dirs / "net", net_dir)
    edit_netlist(lambda doc: doc["layers"][1][1].__setitem__("sources", sources))(net_dir)
    assert run(["emit", "--netlist", net_dir, "--out", tmp_path / "rtl"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "layer 1 neuron 1" in err
    assert f"'sources': {sources}" in err
    assert "ids 2..5" in err


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
