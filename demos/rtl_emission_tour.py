# From netlist to Verilog: emit one truth-table ROM per neuron, a top
# module wired by the sparsity masks, golden vectors, and a self-checking
# testbench -- then check every written file against the netlist.
#
# Run:  python3 demos/rtl_emission_tour.py [out_dir]

import os
import sys
import tempfile

from lutc import (
    NetworkSpec,
    TrainConfig,
    build_netlist,
    check_bundle,
    emit_bundle,
    gen_spirals,
    init_model,
    split_normalize,
    tabulate_model,
    train,
)

# A deliberately small network keeps the emitted text skimmable: 2-bit
# codes and fan-in 2 give 16-entry ROMs.
ds = gen_spirals(200, noise_sd=0.05, turns=1.5, seed=1)
train_ds, test_ds = split_normalize(ds, 0.8, seed=1)
spec = NetworkSpec(layer_widths=[4, 4, 2], beta=2, fan_in=2, degree=2,
                   input_count=2, seed=0)
model, _ = train(init_model(spec), train_ds, test_ds,
                 TrainConfig(epochs=20, batch_size=128, seed=0))
netlist = build_netlist(model, tabulate_model(model))

# The bundle is the directory emit_bundle writes: each ROM file goes to
# disk as soon as its text is formatted, and is read back and compared
# with that text.
out_dir = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(prefix="rtl_")
assert emit_bundle(netlist, out_dir) == []
roms = [f for f in os.listdir(out_dir) if f.startswith("layer")]
print(f"wrote {len(roms)} neuron ROMs, top.v, tb.v, vectors.hex and "
      f"manifest.txt to {out_dir}")


def read(fname):
    with open(os.path.join(out_dir, fname), encoding="utf-8") as f:
        return f.read()


# Every neuron module is a synchronous ROM: one truth-table constant per
# output bit, BIT_k, whose bit i is bit k of table entry i (address 15 in
# the first hex digit), read into a registered output.  Here is the first
# one:
print("\n--- layer0_n0.v " + "-" * 40)
print(read("layer0_n0.v"))

# The top module concatenates address slices per the activation masks;
# input 0 of a neuron is the least significant slice.
print("--- top.v (wiring excerpt) " + "-" * 30)
print("\n".join(ln for ln in read("top.v").splitlines() if "assign" in ln)[:800])

# Golden vectors pair packed input words with the bit-exact simulator's
# packed outputs; the emitted tb.v replays them in any Verilog simulator.
pairs = [tuple(int(word, 16) for word in line.split())
         for line in read("vectors.hex").splitlines()]
print(f"\n{len(pairs)} golden vectors, first: in=0x{pairs[0][0]:x} "
      f"out=0x{pairs[0][1]:x}")

# The self-checker checks every written file against the netlist: each
# must be exactly what the emitter writes -- every ROM its table's
# constants, top.v wired per the masks, vectors.hex the 64 seeded vectors
# with the netlist's outputs.
problems = check_bundle(out_dir, netlist)
print(f"self-check against the netlist: {len(problems)} problems")
assert not problems
