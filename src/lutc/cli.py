"""Command-line front end: train / compile / emit / sweep.

Exit codes: 0 success, 1 verification or training failure, 2 usage or
configuration error.  Every command is deterministic given its inputs and
--seed; output files carry the resolved-config hash.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import sys
import typing

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

class ConfigError(Exception):
    pass


def _load_json(path) -> dict:
    """The config file's JSON; a leading UTF-8 byte-order mark is skipped."""
    try:
        with open(path, "r", encoding="utf-8-sig") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None


def resolve_config(args) -> dict:
    """Merge profile defaults, config file, and CLI overrides (--profile
    over the file's profile too)."""
    if not (args.config or args.profile):
        raise ConfigError("one of --config or --profile is required")
    file_cfg = _load_json(args.config) if args.config else {}
    if not isinstance(file_cfg, dict):
        raise ConfigError(f"config {args.config}: not a JSON object")
    unknown = sorted(set(file_cfg) - {"profile", "spec", "dataset", "train"})
    if unknown:
        raise ConfigError(f"config: unknown keys {unknown}; a config holds "
                          "profile, spec, dataset and train")
    for key in ("spec", "dataset", "train"):
        if key in file_cfg and not isinstance(file_cfg[key], dict):
            raise ConfigError(f"config: {key} is not a JSON object")
    profile = args.profile or file_cfg.get("profile")
    if profile is not None and not (isinstance(profile, str) and profile in PROFILES):
        raise ConfigError(f"config: unknown profile {profile!r}; available: {sorted(PROFILES)}")
    cfg = {"spec": {**PROFILES.get(profile, {}), **file_cfg.get("spec", {})},
           "dataset": file_cfg.get("dataset",
                                   dict(SPIRAL_DATASET) if profile == "spiral" else None),
           "train": dict(file_cfg.get("train", {}))}
    overrides = dict(degree=args.degree, layer_widths=args.layers,
                     clock_period_ns=args.clock_ns, seed=args.seed)
    cfg["spec"].update((k, v) for k, v in overrides.items() if v is not None)
    if args.seed is not None:
        cfg["train"]["seed"] = args.seed
    return cfg


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]


def _build(section: str, make, kwargs: dict):
    """make(**kwargs), the object a config section builds; a key make does
    not take, a required key that is absent or a value it rejects is a
    configuration error naming the section."""
    try:
        return make(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{section}: {e}") from None


def load_dataset(cfg: dict, spec: NetworkSpec):
    """The (train, test) datasets the config names, checked against spec.
    A malformed file, a bad split, a split with an empty side, more
    classes than the output layer holds or a feature count other than
    spec.input_count is a configuration error."""
    try:
        train_ds, test_ds = _read_dataset(cfg["dataset"])
        check_classes(spec.layer_widths[-1], train_ds, test_ds)
    except (OSError, ValueError) as e:  # DataFormatError is a ValueError
        raise ConfigError(f"dataset: {e}") from None
    if train_ds.n == 0 or test_ds.n == 0:
        raise ConfigError(f"dataset: the split has {train_ds.n} training and {test_ds.n} "
                          f"test rows; both need at least one")
    if {train_ds.d, test_ds.d} != {spec.input_count}:
        raise ConfigError(f"dataset: the training rows have {train_ds.d} features and the "
                          f"test rows {test_ds.d}, but spec.input_count is {spec.input_count}")
    return train_ds, test_ds


# One function per dataset kind: its keyword arguments are the keys that
# kind's config section takes, with their defaults.


def _spirals(*, n_per_class: int = 500, noise_sd: float = 0.08, turns: float = 1.75,
             seed: int = 1, train_fraction: float = 0.8):
    ds = data_mod.gen_spirals(n_per_class, noise_sd, turns, seed)
    return data_mod.split_normalize(ds, train_fraction, seed=seed)


def _csv(*, path: str, label_column: str, feature_columns: list | None = None,
         train_fraction: float = 0.8, seed: int = 0):
    if feature_columns is not None and not all(isinstance(c, str) for c in feature_columns):
        raise ConfigError(f"dataset: feature_columns must be a list of str, "
                          f"got {feature_columns!r}")
    ds = data_mod.load_csv(path, label_column, feature_columns)
    return data_mod.split_normalize(ds, train_fraction, seed=seed)


def _idx(*, images: str, labels: str, test_images: str | None = None,
         test_labels: str | None = None, train_fraction: float | None = None,
         seed: int | None = None):
    if (test_images is None) != (test_labels is None):
        raise ConfigError("dataset.idx: 'test_images' and 'test_labels' go together")
    train_ds = data_mod.load_idx(images, labels)
    if test_images is None:
        return data_mod.split_normalize(train_ds, 0.85 if train_fraction is None else
                                        train_fraction, seed=seed or 0)
    for key, value in (("train_fraction", train_fraction), ("seed", seed)):
        if value is not None:
            raise ConfigError(f"dataset.idx: '{key}' splits the images, so it does not go "
                              "with 'test_images' and 'test_labels'")
    return data_mod.fit_normalize(train_ds, data_mod.load_idx(test_images, test_labels))


DATASET_KINDS = {"spirals": _spirals, "csv": _csv, "idx": _idx}
SPIRAL_DATASET = dict(kind="spirals", **_spirals.__kwdefaults__)


def _read_dataset(ds_cfg):
    """The kind function's (train, test) at the other keys of ds_cfg.  A
    key it does not take, a required key that is absent, or a value that
    is not of the key's JSON type (an int key takes integers only, a
    float key integers and reals) is a configuration error naming it."""
    args = dict(ds_cfg or {})
    kind = args.pop("kind", None)
    if not (isinstance(kind, str) and kind in DATASET_KINDS):
        raise ConfigError(f"dataset: kind {kind!r} is not one of {sorted(DATASET_KINDS)} "
                          "(only the spiral profile has a default dataset)")
    make = DATASET_KINDS[kind]
    try:
        inspect.signature(make).bind(**args)
    except TypeError as e:
        raise ConfigError(f"dataset.{kind}: {e}") from None
    hints = typing.get_type_hints(make)
    for key, value in args.items():
        takes = typing.get_args(hints[key]) or (hints[key],)  # str | None: (str, NoneType)
        if float in takes:
            takes += (int,)
        if isinstance(value, bool) or not isinstance(value, takes):
            raise ConfigError(f"dataset: {key} must be {takes[0].__name__}, got {value!r}")
    return make(**args)


# ---------------------------------------------------------------------------
# Commands


def _training_inputs(args):
    """The resolved config, its spec and TrainConfig, and the (train, test)
    datasets checked against the spec: what train and sweep start from."""
    cfg = resolve_config(args)
    spec = _build("spec", NetworkSpec, cfg["spec"])
    tc = _build("train", TrainConfig, cfg["train"])
    return cfg, spec, tc, *load_dataset(cfg, spec)


def _train_or_none(spec, train_ds, test_ds, tc, label: str):
    """train's (model, history) from init_model(spec), or None after
    printing label and the error when training diverges or meets a
    non-finite activation."""
    try:
        return train(init_model(spec), train_ds, test_ds, tc)
    except (TrainingDiverged, FloatingPointError) as e:
        print(f"{label}: {e}", file=sys.stderr)
        return None


def cmd_train(args) -> int:
    cfg, spec, tc, train_ds, test_ds = _training_inputs(args)
    result = _train_or_none(spec, train_ds, test_ds, tc, "error")
    if result is None:
        return EXIT_VERIFY
    trained, history = result

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
    cfg, base_spec, tc, train_ds, test_ds = _training_inputs(args)
    widths = list(base_spec.layer_widths)
    hidden, out_width = widths[:-1], widths[-1]
    if not hidden and max(args.depths) > 1:
        raise ConfigError(f"sweep: depth {max(args.depths)} repeats the last hidden width, "
                          f"but layer_widths {widths} has only the output layer")
    cells = []  # every cell's spec is built, and so checked, before the first cell trains
    for depth in args.depths:
        layer_widths = (hidden + hidden[-1:] * depth)[: depth - 1] + [out_width]
        cells += [(depth, degree, _build("spec", NetworkSpec, dict(
                      cfg["spec"], degree=degree, layer_widths=layer_widths)))
                  for degree in args.degrees]

    rows, nan = [], float("nan")
    for depth, degree, spec in cells:
        row = dict(depth=depth, degree=degree, status="failed", train_loss=nan,
                   test_accuracy=nan, test_error=nan,
                   est_luts=sum(layer_luts(w, spec.beta, spec.table_address_bits(l),
                                           args.target_k)
                                for l, w in enumerate(spec.layer_widths)),
                   latency_ns=spec.n_layers * spec.clock_period_ns)
        result = _train_or_none(spec, train_ds, test_ds, tc, f"depth={depth} degree={degree}")
        if result is not None:
            final = result[1][-1]
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
