"""The benchmark's workloads: seeded input generators and the lutc CLI
commands that run on them.

Every generator takes the workload seed as an argument; lutc itself only
sees the files (and CLI arguments) generated here.  DEFAULT_SEED is the
seed to quote figures at; HELD_OUT_SEED is kept out of tuning, so that a
claimed gain can be confirmed on inputs it was not developed against.

Each command writes under one of three directories of a pass, so that the
harness can inspect outputs the same way on every workload:
RUN_DIR (train), NET_DIR (compile) and RTL_DIR (emit).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

RUN_DIR, NET_DIR, RTL_DIR = "run", "net", "rtl"

# spiral-e2e: the spiral profile's bundled dataset (lutc.cli.SPIRAL_DATASET
# at the time of writing), with the workload seed in place of its fixed seed.
SPIRAL_DATASET = dict(kind="spirals", n_per_class=500, noise_sd=0.08, turns=1.75,
                      train_fraction=0.8)

# hdr-train: 48 synthetic 784-feature rows split 32 train / 16 test,
# one epoch of two 16-row batches; short, so that a run holds several passes.
HDR_FEATURES, HDR_CLASSES, HDR_ROWS = 784, 10, 48
HDR_TRAIN = dict(epochs=1, batch_size=16)

# jsc-narrow-compile: jsc-xl's neuron shape (beta 5, fan-in 3, degree 4;
# layer 0 reads 7-bit codes with fan-in 2) at widths short enough that a
# run holds several passes, and the batch that calibrates its scales.
JSC_WIDTHS = (16, 16, 5)
JSC_ROWS = 128


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json and README.md say why each exists."""

    name: str
    # setup(inputs_dir, seed) writes the workload's input files
    setup: Callable[[Path, int], None]
    # commands(inputs_dir, pass_dir, seed) -> [(stage, lutc argv)]
    commands: Callable[[Path, Path, int], list]


def spiral_e2e(config: dict | None = None) -> Workload:
    """`lutc train/compile/emit` with the spiral profile on the bundled
    two-spirals generator, whose dataset seed is the workload seed; with a
    config, train from that config instead (the harness self-test uses a
    tiny one)."""

    def setup(inputs: Path, seed: int) -> None:
        cfg = config if config is not None else {
            "profile": "spiral", "dataset": dict(SPIRAL_DATASET, seed=seed)}
        (inputs / "spiral.json").write_text(json.dumps(cfg), encoding="utf-8")

    def commands(inputs: Path, out: Path, seed: int) -> list:
        return [
            ("train", ["train", "--config", inputs / "spiral.json", "--seed", seed,
                       "--out", out / RUN_DIR]),
            ("compile", ["compile", "--checkpoint", out / RUN_DIR / "checkpoint.npz",
                         "--out", out / NET_DIR]),
            ("emit", ["emit", "--netlist", out / NET_DIR, "--out", out / RTL_DIR]),
        ]

    # a config makes another workload, with its own digest and training records
    return Workload(name="spiral-e2e" if config is None else "spiral-custom",
                    setup=setup, commands=commands)


def _hdr_setup(inputs: Path, seed: int) -> None:
    rng = np.random.default_rng(np.random.PCG64(seed))
    prototypes = rng.random((HDR_CLASSES, HDR_FEATURES))
    labels = rng.permutation(np.arange(HDR_ROWS) % HDR_CLASSES)
    x = 0.7 * prototypes[labels] + 0.3 * rng.random((HDR_ROWS, HDR_FEATURES))
    header = ",".join(f"px{i}" for i in range(HDR_FEATURES)) + ",label"
    np.savetxt(inputs / "hdr.csv", np.column_stack([x, labels]), delimiter=",",
               fmt=["%.4f"] * HDR_FEATURES + ["%d"], header=header, comments="")
    config = {
        "profile": "hdr",
        "spec": {"seed": seed},
        "dataset": {"kind": "csv", "path": str(inputs / "hdr.csv"),
                    "label_column": "label", "seed": seed,
                    "train_fraction": 2 / 3},
        "train": dict(HDR_TRAIN, seed=seed),
    }
    (inputs / "hdr.json").write_text(json.dumps(config), encoding="utf-8")


def _jsc_setup(inputs: Path, seed: int) -> None:
    from lutc.model import init_model, save_checkpoint, spec_from_profile
    from lutc.trainer import init_scales

    model = init_model(spec_from_profile("jsc-xl", seed=seed, layer_widths=JSC_WIDTHS))
    rows = np.random.default_rng(np.random.PCG64(seed)).uniform(
        -1.0, 1.0, size=(JSC_ROWS, model.spec.input_count))
    init_scales(model, rows)
    save_checkpoint(model, inputs / "checkpoint.npz")


WORKLOADS = {w.name: w for w in [
    spiral_e2e(),
    Workload(
        name="jsc-narrow-compile",
        setup=_jsc_setup,
        commands=lambda inputs, out, seed: [
            ("compile", ["compile", "--checkpoint", inputs / "checkpoint.npz",
                         "--out", out / NET_DIR]),
            ("emit", ["emit", "--netlist", out / NET_DIR, "--out", out / RTL_DIR]),
        ]),
    Workload(
        name="hdr-train",
        setup=_hdr_setup,
        commands=lambda inputs, out, seed: [
            ("train", ["train", "--config", inputs / "hdr.json", "--out", out / RUN_DIR]),
        ]),
]}
