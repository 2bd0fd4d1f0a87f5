import json

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
        tables[1][0].entries[:] ^= 1  # every lookup through this node is wrong
        return tables

    monkeypatch.setattr(cli_mod, "tabulate_model", corrupted)
    code = run(["compile", "--checkpoint",
                pipeline_dirs / "run" / "checkpoint.npz",
                "--out", tmp_path / "bad"])
    assert code == EXIT_VERIFY


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
