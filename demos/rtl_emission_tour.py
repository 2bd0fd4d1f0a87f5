# From netlist to Verilog: emit one case-statement ROM per neuron, a top
# module wired by the sparsity masks, golden vectors, and a self-checking
# testbench -- then read our own output back to prove it holds the netlist.
#
# Run:  python3 demos/rtl_emission_tour.py [out_dir]

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
from lutc.rtl import parse_golden_vectors, write_bundle

# A deliberately small network keeps the emitted text skimmable: 2-bit
# codes and fan-in 2 give 16-entry ROMs.
ds = gen_spirals(200, noise_sd=0.05, turns=1.5, seed=1)
train_ds, test_ds = split_normalize(ds, 0.8, seed=1)
spec = NetworkSpec(layer_widths=[4, 4, 2], beta=2, fan_in=2, degree=2,
                   input_count=2, seed=0)
model, _ = train(init_model(spec), train_ds, test_ds,
                 TrainConfig(epochs=20, batch_size=128, seed=0))
netlist = build_netlist(model, tabulate_model(model))

bundle = emit_bundle(netlist)
print(f"emitted {len(bundle.modules)} neuron ROMs")

# Every neuron module is a synchronous ROM: registered output, full case
# coverage plus a default arm.  Here is the first one:
first = next(iter(bundle.modules))
print(f"\n--- {first}.v " + "-" * 40)
print(bundle.modules[first])

# The top module concatenates address slices per the activation masks;
# input 0 of a neuron is the least significant slice.
print("--- top.v (wiring excerpt) " + "-" * 30)
print("\n".join(ln for ln in bundle.top.splitlines() if "assign" in ln)[:800])

# Golden vectors pair packed input words with the bit-exact simulator's
# packed outputs; the emitted tb.v replays them in any Verilog simulator.
pairs = parse_golden_vectors(bundle.vectors)
print(f"\n{len(pairs)} golden vectors, first: in=0x{pairs[0][0]:x} "
      f"out=0x{pairs[0][1]:x}")

# The self-checker reads the emitted text back: every ROM's arms become a
# table that must equal the netlist's (and match its manifest digest), the
# top-level wiring must follow the masks, and the golden vectors are
# replayed through the netlist read back from the Verilog.
problems = check_bundle(bundle, netlist)
print(f"read-back self-check: {len(problems)} problems")
assert not problems

out_dir = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(prefix="rtl_")
written = write_bundle(bundle, out_dir)
print(f"wrote {len(written)} files to {out_dir}")
