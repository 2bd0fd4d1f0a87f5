"""Command-line front end: train / compile / emit / sweep.

Exit codes: 0 success, 1 verification or training failure, 2 usage or
configuration error.  Every command is deterministic given its inputs and
--seed; output files carry the resolved-config hash.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import data as data_mod
from .model import (
    NetworkSpec,
    PROFILES,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from .netlist import (
    build_netlist,
    equivalence_check,
    load_netlist,
    layer_luts,
    pareto_front,
    report,
    save_netlist,
)
from .rtl import emit_bundle
from .tables import tabulate_model
from .trainer import TrainConfig, TrainingDiverged, check_classes, train, write_history_csv

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2

SPIRAL_DATASET = dict(kind="spirals", n_per_class=500, noise_sd=0.08,
                      turns=1.75, seed=1, train_fraction=0.8)


class ConfigError(Exception):
    pass


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None


def resolve_config(args) -> dict:
    """Merge profile defaults, config file, and CLI overrides."""
    cfg: dict = {"spec": {}, "dataset": None, "train": {}}
    if getattr(args, "config", None):
        file_cfg = _load_json(args.config)
    elif getattr(args, "profile", None):
        file_cfg = {"profile": args.profile}
    else:
        raise ConfigError("one of --config or --profile is required")
    if not isinstance(file_cfg, dict):
        raise ConfigError(f"config {args.config}: not a JSON object")
    for key in ("spec", "dataset", "train"):
        if key in file_cfg and not isinstance(file_cfg[key], dict):
            raise ConfigError(f"config: {key} is not a JSON object")
    profile = file_cfg.get("profile")
    if profile is not None:
        if not isinstance(profile, str) or profile not in PROFILES:
            raise ConfigError(f"config: unknown profile {profile!r}; "
                              f"available: {sorted(PROFILES)}")
        cfg["spec"].update(PROFILES[profile])
        if profile == "spiral":
            cfg["dataset"] = dict(SPIRAL_DATASET)
    cfg["spec"].update(file_cfg.get("spec", {}))
    if "dataset" in file_cfg:
        cfg["dataset"] = file_cfg["dataset"]
    cfg["train"].update(file_cfg.get("train", {}))

    if getattr(args, "degree", None) is not None:
        cfg["spec"]["degree"] = args.degree
    if getattr(args, "layers", None):
        cfg["spec"]["layer_widths"] = args.layers
    if getattr(args, "clock_ns", None) is not None:
        cfg["spec"]["clock_period_ns"] = args.clock_ns
    if getattr(args, "seed", None) is not None:
        cfg["spec"]["seed"] = args.seed
        cfg["train"]["seed"] = args.seed
    return cfg


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]


def build_spec(cfg: dict) -> NetworkSpec:
    fields = {k: v for k, v in cfg["spec"].items()
              if k in NetworkSpec.__dataclass_fields__}
    try:
        return NetworkSpec(**fields)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"spec: {e}") from None


def load_dataset(cfg: dict, output_width: int):
    """The (train, test) datasets the config names.  A malformed file, a
    bad split, a split with an empty side or more classes than
    output_width outputs hold is a configuration error."""
    try:
        train_ds, test_ds = _load_dataset(cfg)
        check_classes(output_width, train_ds, test_ds)
    except (OSError, ValueError) as e:  # DataFormatError is a ValueError
        raise ConfigError(f"dataset: {e}") from None
    if train_ds.n == 0 or test_ds.n == 0:
        raise ConfigError(f"dataset: the split has {train_ds.n} training and {test_ds.n} "
                          f"test rows; both need at least one")
    return train_ds, test_ds


def _load_dataset(cfg: dict):
    ds_cfg = cfg.get("dataset")
    if not ds_cfg:
        raise ConfigError("dataset: missing configuration "
                          "(only the spiral profile bundles data)")

    def get(key, kind, default=None):
        """ds_cfg[key], or default, as kind; a value that kind does not
        take (a list for a number, anything but a string for str) is a
        configuration error naming the key."""
        value = ds_cfg.get(key, default)
        try:
            if kind is str and not isinstance(value, str):
                raise TypeError
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"dataset: {key} must be {kind.__name__}, got {value!r}") from None

    kind = ds_cfg.get("kind")
    if kind == "spirals":
        ds = data_mod.gen_spirals(
            n_per_class=get("n_per_class", int, 500),
            noise_sd=get("noise_sd", float, 0.08),
            turns=get("turns", float, 1.75),
            seed=get("seed", int, 1),
        )
        return data_mod.split_normalize(ds, get("train_fraction", float, 0.8),
                                        seed=get("seed", int, 1))
    if kind == "csv":
        if "path" not in ds_cfg or "label_column" not in ds_cfg:
            raise ConfigError("dataset.csv: 'path' and 'label_column' are required")
        path, columns = get("path", str), ds_cfg.get("feature_columns")
        if not os.path.exists(path):
            raise ConfigError(f"dataset path not found: {path}")
        if columns is not None and not (isinstance(columns, list)
                                        and all(isinstance(c, str) for c in columns)):
            raise ConfigError(f"dataset: feature_columns must be a list of str, got {columns!r}")
        ds = data_mod.load_csv(path, get("label_column", str), columns)
        return data_mod.split_normalize(ds, get("train_fraction", float, 0.8),
                                        seed=get("seed", int, 0))
    if kind == "idx":
        for key in ("images", "labels"):
            if key not in ds_cfg:
                raise ConfigError(f"dataset.idx: '{key}' is required")
            if not os.path.exists(get(key, str)):
                raise ConfigError(f"dataset path not found: {ds_cfg[key]}")
        if ("test_images" in ds_cfg) != ("test_labels" in ds_cfg):
            raise ConfigError("dataset.idx: 'test_images' and 'test_labels' go together")
        train_ds = data_mod.load_idx(ds_cfg["images"], ds_cfg["labels"])
        if "test_images" in ds_cfg:
            test_ds = data_mod.load_idx(get("test_images", str), get("test_labels", str))
            return train_ds, test_ds
        return data_mod.split_normalize(train_ds, get("train_fraction", float, 0.85),
                                        seed=get("seed", int, 0))
    raise ConfigError(f"dataset: unknown kind {kind!r}")


def build_train_config(cfg: dict) -> TrainConfig:
    try:
        return TrainConfig(**(cfg.get("train") or {}))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"train: {e}") from None


# ---------------------------------------------------------------------------
# Commands


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    spec = build_spec(cfg)
    train_ds, test_ds = load_dataset(cfg, spec.layer_widths[-1])
    if train_ds.d != spec.input_count:
        raise ConfigError(
            f"dataset has {train_ds.d} features but spec.input_count is {spec.input_count}"
        )
    tc = build_train_config(cfg)

    model = init_model(spec)
    try:
        trained, history = train(model, train_ds, test_ds, tc)
    except (TrainingDiverged, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VERIFY

    os.makedirs(args.out, exist_ok=True)
    save_checkpoint(trained, os.path.join(args.out, "checkpoint.npz"))
    write_history_csv(history, os.path.join(args.out, "history.csv"))
    final = history[-1]
    with open(os.path.join(args.out, "summary.txt"), "w", encoding="utf-8") as f:
        f.write(f"config_hash {config_hash(cfg)}\n")
        f.write(f"layers {','.join(map(str, spec.layer_widths))}\n")
        f.write(f"beta {spec.beta} fan_in {spec.fan_in} degree {spec.degree}\n")
        f.write(f"epochs {tc.epochs} final_train_loss {final['train_loss']:.6f} "
                f"final_test_accuracy {final['test_accuracy']:.4f}\n")
    print(f"trained {spec.n_layers} layers; final loss {final['train_loss']:.4f}, "
          f"test accuracy {final['test_accuracy']:.4f}")
    print(f"wrote checkpoint.npz, history.csv, summary.txt to {args.out}")
    return EXIT_OK


def cmd_compile(args) -> int:
    if not os.path.exists(args.checkpoint):
        raise ConfigError(f"checkpoint not found: {args.checkpoint}")
    try:
        model = load_checkpoint(args.checkpoint)
        net = build_netlist(model, tabulate_model(model))
    except ValueError as e:
        raise ConfigError(f"checkpoint {args.checkpoint}: {e}") from None
    save_netlist(net, args.out)

    rep = equivalence_check(net, model)
    cost = report(net, target_k=args.target_k)
    with open(os.path.join(args.out, "report.txt"), "w", encoding="utf-8") as f:
        f.write(cost.as_text() + "\n")
        f.write(f"equivalence vectors checked: {rep.n_checked}\n")
        f.write(f"mismatches: {rep.n_mismatches}\n")
    with open(os.path.join(args.out, "report.csv"), "w", encoding="utf-8") as f:
        f.write("layer,estimated_luts\n")
        for layer, n in enumerate(cost.per_layer_luts):
            f.write(f"{layer},{n}\n")
        f.write(f"total,{cost.total_luts}\n")
    print(cost.as_text())
    print(f"equivalence: {rep.n_checked} vectors, mismatches: {rep.n_mismatches}")
    if not rep.ok:
        print(f"faulty nodes: {rep.faulty_nodes}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_emit(args) -> int:
    try:
        net = load_netlist(args.netlist)
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot load netlist from {args.netlist}: {e}") from None
    problems = emit_bundle(net, args.out)
    if problems:
        print("RTL check failed:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return EXIT_VERIFY
    print(f"emitted {sum(lut.width for lut in net.layers)} neuron modules + top.v, tb.v, "
          f"vectors.hex, manifest.txt to {args.out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = resolve_config(args)
    base_spec = build_spec(cfg)
    widths = list(base_spec.layer_widths)
    hidden, out_width = widths[:-1], widths[-1]
    if not hidden and max(args.depths) > 1:
        raise ConfigError(f"sweep: depth {max(args.depths)} repeats the last hidden width, "
                          f"but layer_widths {widths} has only the output layer")
    train_ds, test_ds = load_dataset(cfg, out_width)
    tc = build_train_config(cfg)

    rows, nan = [], float("nan")
    for depth in args.depths:
        layer_widths = (hidden + hidden[-1:] * depth)[: depth - 1] + [out_width]
        for degree in args.degrees:
            spec = build_spec({"spec": dict(cfg["spec"], layer_widths=layer_widths,
                                            degree=degree)})
            row = dict(depth=depth, degree=degree, status="failed", train_loss=nan,
                       test_accuracy=nan, test_error=nan,
                       est_luts=sum(layer_luts(w, spec.beta, spec.table_address_bits(l),
                                               args.target_k)
                                    for l, w in enumerate(spec.layer_widths)),
                       latency_ns=spec.n_layers * spec.clock_period_ns)
            try:
                _, history = train(init_model(spec), train_ds, test_ds, tc)
            except (TrainingDiverged, FloatingPointError) as e:
                print(f"depth={depth} degree={degree}: {e}", file=sys.stderr)
            else:
                final = history[-1]
                row.update(status="ok", train_loss=final["train_loss"],
                           test_accuracy=final["test_accuracy"],
                           test_error=1.0 - final["test_accuracy"])
            rows.append(row)

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "results.csv"), "w", encoding="utf-8") as f:
        f.write("depth,degree,status,train_loss,test_accuracy,test_error,"
                "est_luts,latency_ns\n")
        for r in rows:
            f.write(f"{r['depth']},{r['degree']},{r['status']},"
                    f"{r['train_loss']:.6f},{r['test_accuracy']:.4f},"
                    f"{r['test_error']:.4f},{r['est_luts']},{r['latency_ns']}\n")

    ok_rows = [r for r in rows if r["status"] == "ok"]
    lat_front = pareto_front([(r["latency_ns"], r["test_error"]) for r in ok_rows])
    lut_front = pareto_front([(r["est_luts"], r["test_error"]) for r in ok_rows])
    with open(os.path.join(args.out, "pareto.txt"), "w", encoding="utf-8") as f:
        f.write(f"config_hash {config_hash(cfg)}\n")
        f.write("latency (ns) vs test error front:\n")
        for a, b in lat_front:
            f.write(f"  {a:.3f} {b:.4f}\n")
        f.write("estimated LUTs vs test error front:\n")
        for a, b in lut_front:
            f.write(f"  {a:.0f} {b:.4f}\n")
    print(f"swept {len(rows)} cells ({len(ok_rows)} ok); "
          f"results.csv and pareto.txt in {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _ints(least: int, many: bool = False):
    """An argparse type: an integer >= least, or with many a comma list of
    them; anything else exits 2 before the command runs."""
    def parse(text: str):
        try:
            values = [int(v) for v in text.split(",")] if many else [int(text)]
        except ValueError:
            values = []
        if not values or min(values) < least:
            kind = "a comma list of integers" if many else "an integer"
            raise argparse.ArgumentTypeError(f"expected {kind} >= {least}, got {text!r}")
        return values if many else values[0]
    return parse


def _out_dir(text: str) -> str:
    """An argparse type: a directory to write into, or one that can be
    made; a path that is, or runs through, an existing file exits 2 before
    the command runs."""
    probe = os.path.abspath(text)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise argparse.ArgumentTypeError(f"{probe} exists and is not a directory")
    return text


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lutc",
        description="Train sparse quantized polynomial networks, compile them "
                    "to LUT netlists, and emit Verilog RTL.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--profile", choices=sorted(PROFILES),
                        help="named architecture preset")
        sp.add_argument("--seed", type=int, help="override spec and trainer seeds")
        sp.add_argument("--degree", type=int, help="override polynomial degree")
        sp.add_argument("--layers", type=_ints(1, many=True),
                        help="override layer widths, e.g. 8,8,2")
        sp.add_argument("--clock-ns", type=float, dest="clock_ns",
                        help="target clock period in ns")

    sp = sub.add_parser("train", help="train a model and write a checkpoint")
    common(sp)
    sp.add_argument("--out", required=True, type=_out_dir)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("compile",
                        help="tabulate, build + verify the netlist, report costs")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--out", required=True, type=_out_dir)
    sp.add_argument("--target-k", type=_ints(2), default=6, dest="target_k")
    sp.set_defaults(func=cmd_compile)

    sp = sub.add_parser("emit", help="emit the Verilog bundle from a compiled netlist")
    sp.add_argument("--netlist", required=True, help="directory written by compile")
    sp.add_argument("--out", required=True, type=_out_dir)
    sp.set_defaults(func=cmd_emit)

    sp = sub.add_parser("sweep", help="train a depth x degree grid and report fronts")
    common(sp)
    sp.add_argument("--depths", required=True, type=_ints(1, many=True),
                    help="comma list, e.g. 2,3,4,5")
    sp.add_argument("--degrees", required=True, type=_ints(1, many=True),
                    help="comma list, e.g. 1,2,3")
    sp.add_argument("--out", required=True, type=_out_dir)
    sp.add_argument("--target-k", type=_ints(2), default=6, dest="target_k")
    sp.set_defaults(func=cmd_sweep)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
