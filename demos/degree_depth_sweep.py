# Design-space exploration: sweep network depth against polynomial degree
# on the two-spirals task and extract the Pareto frontier of (latency,
# test error).  Higher degrees buy accuracy at zero latency cost, so the
# frontier shifts down rather than right.
#
# Run:  python3 demos/degree_depth_sweep.py

from lutc import (
    NetworkSpec,
    TrainConfig,
    gen_spirals,
    init_model,
    pareto_front,
    split_normalize,
    train,
)
from lutc.netlist import layer_luts

ds = gen_spirals(n_per_class=250, noise_sd=0.05, turns=1.5, seed=1)
train_ds, test_ds = split_normalize(ds, 0.8, seed=1)

CLOCK_NS = 1.6
config = TrainConfig(epochs=120, batch_size=128, base_lr=3e-2, min_lr=1e-3,
                     restart_period=50, seed=0)

rows = []
for depth in (2, 3, 4):
    widths = [16] * (depth - 1) + [2]
    for degree in (1, 2, 3):
        spec = NetworkSpec(layer_widths=widths, beta=4, fan_in=2, degree=degree,
                           input_count=2, input_beta=6, seed=0,
                           clock_period_ns=CLOCK_NS)
        _, history = train(init_model(spec), train_ds, test_ds, config)
        error = 1.0 - history[-1]["test_accuracy"]
        latency = depth * CLOCK_NS
        luts = sum(layer_luts(w, spec.beta, spec.table_address_bits(l))
                   for l, w in enumerate(spec.layer_widths))
        rows.append((depth, degree, latency, luts, error))
        print(f"depth={depth} D={degree}: test error {error:.3f}, "
              f"latency {latency:.1f} ns, ~{luts} P-LUTs")

# Latency depends only on depth; cost only on topology.  Degree is the
# free knob: at fixed depth the D>1 cells should sit at or below D=1.
print("\nPareto frontier, latency (ns) vs test error:")
for lat, err in pareto_front([(r[2], r[4]) for r in rows]):
    best = [f"depth={r[0]} D={r[1]}" for r in rows
            if r[2] == lat and abs(r[4] - err) < 1e-12]
    print(f"  {lat:4.1f} ns  {err:.3f}   <- {', '.join(best)}")

print("\nPareto frontier, estimated P-LUTs vs test error:")
for luts, err in pareto_front([(r[3], r[4]) for r in rows]):
    print(f"  {luts:6.0f}    {err:.3f}")
