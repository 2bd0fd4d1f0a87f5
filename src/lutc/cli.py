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
    EXHAUSTIVE_CAP_BITS,
    EXHAUSTIVE_LIMIT_BITS,
    build_netlist,
    equivalence_check,
    load_netlist,
    lut_cost,
    pareto_front,
    report,
    save_netlist,
)
from .rtl import check_bundle, emit_bundle
from .tables import tabulate_model
from .trainer import TrainConfig, TrainingDiverged, train, write_history_csv

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
    profile = file_cfg.get("profile")
    if profile:
        cfg["spec"].update(PROFILES.get(profile) or _bad_profile(profile))
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


def _bad_profile(name):
    raise ConfigError(f"unknown profile {name!r}; available: {sorted(PROFILES)}")


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


def load_dataset(cfg: dict):
    ds_cfg = cfg.get("dataset")
    if not ds_cfg:
        raise ConfigError("dataset: missing configuration "
                          "(only the spiral profile bundles data)")
    kind = ds_cfg.get("kind")
    if kind == "spirals":
        ds = data_mod.gen_spirals(
            n_per_class=int(ds_cfg.get("n_per_class", 500)),
            noise_sd=float(ds_cfg.get("noise_sd", 0.08)),
            turns=float(ds_cfg.get("turns", 1.75)),
            seed=int(ds_cfg.get("seed", 1)),
        )
        return data_mod.split_normalize(ds, float(ds_cfg.get("train_fraction", 0.8)),
                                        seed=int(ds_cfg.get("seed", 1)))
    if kind == "csv":
        if "path" not in ds_cfg or "label_column" not in ds_cfg:
            raise ConfigError("dataset.csv: 'path' and 'label_column' are required")
        if not os.path.exists(ds_cfg["path"]):
            raise ConfigError(f"dataset path not found: {ds_cfg['path']}")
        ds = data_mod.load_csv(ds_cfg["path"], ds_cfg["label_column"],
                               ds_cfg.get("feature_columns"))
        return data_mod.split_normalize(ds, float(ds_cfg.get("train_fraction", 0.8)),
                                        seed=int(ds_cfg.get("seed", 0)))
    if kind == "idx":
        for key in ("images", "labels"):
            if key not in ds_cfg:
                raise ConfigError(f"dataset.idx: '{key}' is required")
            if not os.path.exists(ds_cfg[key]):
                raise ConfigError(f"dataset path not found: {ds_cfg[key]}")
        train_ds = data_mod.load_idx(ds_cfg["images"], ds_cfg["labels"])
        if "test_images" in ds_cfg:
            test_ds = data_mod.load_idx(ds_cfg["test_images"], ds_cfg["test_labels"])
            return train_ds, test_ds
        return data_mod.split_normalize(train_ds,
                                        float(ds_cfg.get("train_fraction", 0.85)),
                                        seed=int(ds_cfg.get("seed", 0)))
    raise ConfigError(f"dataset: unknown kind {kind!r}")


def build_train_config(cfg: dict, output_width: int) -> TrainConfig:
    t = dict(cfg.get("train") or {})
    t.setdefault("loss_kind", "bce" if output_width == 1 else "softmax")
    try:
        return TrainConfig(**t)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"train: {e}") from None


# ---------------------------------------------------------------------------
# Commands


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    spec = build_spec(cfg)
    train_ds, test_ds = load_dataset(cfg)
    if train_ds.d != spec.input_count:
        raise ConfigError(
            f"dataset has {train_ds.d} features but spec.input_count is {spec.input_count}"
        )
    tc = build_train_config(cfg, spec.layer_widths[-1])

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

    rep = equivalence_check(net, model, budget=args.budget,
                            exhaustive_limit=args.exhaustive_limit)
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
    if rep.n_checked == 0:
        print("error: 0 equivalence vectors checked, nothing was verified", file=sys.stderr)
        return EXIT_VERIFY
    if not rep.ok:
        print(f"faulty nodes: {rep.faulty_nodes}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_emit(args) -> int:
    try:
        net = load_netlist(args.netlist)
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot load netlist from {args.netlist}: {e}") from None
    emit_bundle(net, args.out)
    problems = check_bundle(args.out, net)
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
    train_ds, test_ds = load_dataset(cfg)

    widths = list(base_spec.layer_widths)
    hidden, out_width = widths[:-1], widths[-1]

    rows = []
    for depth in args.depths:
        h = (hidden + [hidden[-1]] * depth)[: depth - 1] if depth > 1 else []
        layer_widths = h + [out_width]
        for degree in args.degrees:
            spec_kwargs = dict(cfg["spec"])
            spec_kwargs.update(layer_widths=layer_widths, degree=degree)
            spec = build_spec({"spec": spec_kwargs})
            tc = build_train_config(cfg, out_width)
            est_luts = sum(
                lut_cost(spec.table_address_bits(l), args.target_k) * spec.beta * w
                for l, w in enumerate(spec.layer_widths)
            )
            latency = spec.n_layers * spec.clock_period_ns
            try:
                _, history = train(init_model(spec), train_ds, test_ds, tc)
                final = history[-1]
                rows.append(dict(depth=depth, degree=degree, status="ok",
                                 train_loss=final["train_loss"],
                                 test_accuracy=final["test_accuracy"],
                                 test_error=1.0 - final["test_accuracy"],
                                 est_luts=est_luts, latency_ns=latency))
            except (TrainingDiverged, FloatingPointError) as e:
                print(f"depth={depth} degree={degree}: {e}", file=sys.stderr)
                rows.append(dict(depth=depth, degree=degree, status="failed",
                                 train_loss=float("nan"), test_accuracy=float("nan"),
                                 test_error=float("nan"), est_luts=est_luts,
                                 latency_ns=latency))

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


def _ints(least: int, many: bool = False, most: int | None = None):
    """An argparse type: an integer >= least (and <= most, when given), or
    with many a comma list of them; anything else exits 2 before the
    command runs."""
    def parse(text: str):
        try:
            values = [int(v) for v in text.split(",")] if many else [int(text)]
        except ValueError:
            values = []
        if not values or min(values) < least or (most is not None and max(values) > most):
            kind = "a comma list of integers" if many else "an integer"
            bound = f">= {least}" if most is None else f"in [{least}, {most}]"
            raise argparse.ArgumentTypeError(f"expected {kind} {bound}, got {text!r}")
        return values if many else values[0]
    return parse


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
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("compile",
                        help="tabulate, build + verify the netlist, report costs")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--budget", type=_ints(0), default=10000,
                    help="random vectors when exhaustive checking is infeasible")
    sp.add_argument("--exhaustive-limit", type=_ints(0, most=EXHAUSTIVE_CAP_BITS),
                    default=EXHAUSTIVE_LIMIT_BITS, dest="exhaustive_limit",
                    help="max total input bits for exhaustive equivalence "
                         f"(at most {EXHAUSTIVE_CAP_BITS}: 2**{EXHAUSTIVE_CAP_BITS} vectors)")
    sp.add_argument("--target-k", type=_ints(2), default=6, dest="target_k")
    sp.set_defaults(func=cmd_compile)

    sp = sub.add_parser("emit", help="emit the Verilog bundle from a compiled netlist")
    sp.add_argument("--netlist", required=True, help="directory written by compile")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_emit)

    sp = sub.add_parser("sweep", help="train a depth x degree grid and report fronts")
    common(sp)
    sp.add_argument("--depths", required=True, type=_ints(1, many=True),
                    help="comma list, e.g. 2,3,4,5")
    sp.add_argument("--degrees", required=True, type=_ints(1, many=True),
                    help="comma list, e.g. 1,2,3")
    sp.add_argument("--out", required=True)
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
