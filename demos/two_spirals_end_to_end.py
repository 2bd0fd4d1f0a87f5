# End-to-end tour: train a tiny polynomial network on the two-spirals toy
# set, compile every neuron into a truth table, wire the tables into a
# netlist, prove the netlist bit-exact against the model, and price it.
#
# Run:  python3 demos/two_spirals_end_to_end.py

import numpy as np

from lutc import (
    NetworkSpec,
    TrainConfig,
    accuracy,
    build_netlist,
    equivalence_check,
    gen_spirals,
    init_model,
    report,
    split_normalize,
    tabulate_model,
    train,
)

# ----------------------------------------------------------------------
# 1. Data.  Two interleaved spirals, normalized to [-1, 1] using only the
#    training split's min/max (no test leakage).

ds = gen_spirals(n_per_class=500, noise_sd=0.05, turns=1.5, seed=1)
train_ds, test_ds = split_normalize(ds, train_fraction=0.8, seed=1)
print(f"dataset: {train_ds.n} train / {test_ds.n} test rows, d={train_ds.d}")

# ----------------------------------------------------------------------
# 2. Architecture.  Three sparse layers; every neuron sees F=2 predecessor
#    outputs and expands them into all monomials of degree <= 3 (10 terms).
#    beta=4 gives 4-bit activation codes; the 2 raw features enter through
#    a 6-bit signed quantizer.

spec = NetworkSpec(layer_widths=[16, 16, 2], beta=4, fan_in=2, degree=3,
                   input_count=2, input_beta=6, seed=0)
model = init_model(spec)
print(f"spec: widths {spec.layer_widths}, beta={spec.beta}, "
      f"F={spec.fan_in}, D={spec.degree}")

# ----------------------------------------------------------------------
# 3. Training.  Quantization-aware (straight-through estimator), AdamW
#    with decoupled decay, cosine schedule with warm restarts.  The whole
#    loop is deterministic: same seed, same model, bit for bit.

config = TrainConfig(epochs=120, batch_size=128, base_lr=3e-2, min_lr=1e-3,
                     restart_period=50, seed=0)
model, history = train(model, train_ds, test_ds, config)
print(f"trained {config.epochs} epochs: "
      f"loss {history[0]['train_loss']:.3f} -> {history[-1]['train_loss']:.3f}, "
      f"test accuracy {history[-1]['test_accuracy']:.3f}")

# ----------------------------------------------------------------------
# 4. Tabulation.  Each neuron becomes one 2^(beta*F)-entry truth table by
#    exhaustively enumerating its quantized inputs through the *same*
#    inference path the model itself uses.  A layer's tables are the rows
#    of one (neurons, entries) array.

tables = tabulate_model(model)
n_tables = sum(len(t) for t in tables)
print(f"tabulated {n_tables} neurons, "
      f"{tables[1].shape[1]} entries each in the hidden layers")

# ----------------------------------------------------------------------
# 5. Netlist + equivalence.  Wiring copies the training-time sparsity
#    masks.  The input space here is 2 features x 6 bits = 12 bits, so the
#    check is exhaustive: all 4096 input patterns, integer equality.

netlist = build_netlist(model, tables)
rep = equivalence_check(netlist, model)
print(f"equivalence: {rep.n_checked} vectors, {rep.n_mismatches} mismatches")
assert rep.n_mismatches == 0

# The netlist *is* the model: its argmax decisions match everywhere.
test_acc = accuracy(model, test_ds.features, test_ds.labels)
print(f"bit-exact netlist test accuracy: {test_acc:.3f}")

# ----------------------------------------------------------------------
# 6. Cost.  Latency is one clock per layer; area is an explicit mux-tree
#    upper bound over K-input physical LUTs (real synthesis does better).

cost = report(netlist, target_k=6)
print(cost.as_text())
