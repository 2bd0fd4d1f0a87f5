"""Acceptance gate: ten end-to-end criteria, one printed pass/fail line each.

Every number asserted here is produced by an independent oracle (brute-force
enumeration, finite differences, exhaustive simulation, O(n^2) filtering) or
is a frozen constant checked at its stated tolerance.  Only criterion 2
swaps code: its reference, an explicit bias + linear map, stands in for the
trainer's basis expansion through the linear_reference fixture
(tests/conftest.py).  Nothing else is stubbed.
"""

import functools
import struct
import time

import numpy as np
import pytest

from lutc.basis import count_monomials, enumerate_basis
from lutc.data import (
    DataFormatError,
    gen_spirals,
    load_csv,
    load_idx,
    split_normalize,
)
from lutc.model import NetworkSpec, accuracy, init_model, spec_from_profile
from lutc.netlist import build_netlist, equivalence_check, pareto_front, report
from lutc.quantize import quantize
from lutc.rtl import check_bundle, emit_bundle
from lutc.tables import tabulate_layer, tabulate_model
from lutc.trainer import TrainConfig, backward, compute_loss, forward, train


def record(num, slug, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    line = f"[acceptance] criterion {num} {slug}: {'PASS' if ok else 'FAIL'}{suffix}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# Shared spiral task (seeds and sizes frozen; see README)


@functools.lru_cache(maxsize=None)
def spiral_splits():
    ds = gen_spirals(500, noise_sd=0.05, turns=1.5, seed=1)
    return split_normalize(ds, 0.8, seed=1)


def spiral_spec(widths, degree):
    return NetworkSpec(layer_widths=list(widths), beta=4, fan_in=2, degree=degree,
                       input_count=2, input_beta=6, seed=0)


def spiral_config(epochs):
    return TrainConfig(epochs=epochs, batch_size=128, base_lr=3e-2, min_lr=1e-3,
                       restart_period=50, seed=0)


@functools.lru_cache(maxsize=None)
def spiral_run(depth, degree, epochs=120):
    widths = (16,) * (depth - 1) + (2,)
    tr, te = spiral_splits()
    model, history = train(init_model(spiral_spec(widths, degree)), tr, te,
                           spiral_config(epochs))
    return model, history


# ---------------------------------------------------------------------------


def test_criterion_1_basis_correctness():
    # The 1 s bound covers the exhaustive oracle (every tuple in
    # range(deg+1)^fan, summed by repeated np.add.outer) as well as the library
    # calls; the oracle is vectorized so the bound does not time the interpreter.
    t0 = time.perf_counter()
    counts_ok = True
    for deg in range(0, 7):
        axis = np.arange(deg + 1, dtype=np.int8)
        sums = np.zeros((), dtype=np.int8)
        for fan in range(1, 9):
            sums = np.add.outer(sums, axis)
            brute = np.count_nonzero(sums <= deg)
            counts_ok &= count_monomials(fan, deg) == brute
    listing = [tuple(r) for r in enumerate_basis(2, 3).exponents]
    expected = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
                (3, 0), (2, 1), (1, 2), (0, 3)]
    elapsed = time.perf_counter() - t0
    record(1, "basis-correctness",
           counts_ok and listing == expected and elapsed < 1.0,
           f"{elapsed * 1e3:.0f} ms")


def test_criterion_2_strict_generalization(linear_reference):
    tr, te = spiral_splits()
    spec = spiral_spec((16, 16, 2), degree=1)
    cfg = spiral_config(epochs=50)
    m_poly, h_poly = train(init_model(spec), tr, te, cfg)
    with linear_reference() as calls:  # an explicit bias + linear map (tests/conftest.py)
        m_lin, h_lin = train(init_model(spec), tr, te, cfg)
    losses_equal = [h["train_loss"] for h in h_poly] == [h["train_loss"] for h in h_lin]
    weights_equal = all(
        np.array_equal(a.weights, b.weights)
        for a, b in zip(m_poly.params, m_lin.params)
    )
    record(2, "strict-generalization",
           losses_equal and weights_equal and min(calls.values()) > 0,
           f"50-epoch loss trajectories bitwise equal; reference calls {calls}")


def test_criterion_3_bit_exact_equivalence():
    t0 = time.perf_counter()
    # (a) beta=2, F=2, 3-layer spiral network, exhaustive input space
    tr, te = spiral_splits()
    spec_a = NetworkSpec(layer_widths=[4, 4, 2], beta=2, fan_in=2, degree=2,
                         input_count=2, seed=0)
    model_a, _ = train(init_model(spec_a), tr, te,
                       TrainConfig(epochs=20, batch_size=128, seed=0))
    net_a = build_netlist(model_a, tabulate_model(model_a))
    rep_a = equivalence_check(net_a, model_a)
    exhaustive_ok = rep_a.n_checked == 16 and rep_a.n_mismatches == 0

    # (b) HDR-like small model, 10^4 random vectors
    rng = np.random.default_rng(0)
    feats = rng.uniform(-1.0, 1.0, size=(256, 20))
    labels = rng.integers(0, 10, 256)
    from lutc.data import Dataset
    synth = Dataset(features=feats, labels=labels, n_classes=10)
    spec_b = NetworkSpec(layer_widths=[32, 16, 10], beta=2, fan_in=6, degree=2,
                         input_count=20, seed=0)
    model_b, _ = train(init_model(spec_b), synth, None,
                       TrainConfig(epochs=3, batch_size=64, seed=0))
    net_b = build_netlist(model_b, tabulate_model(model_b))
    rep_b = equivalence_check(net_b, model_b)
    random_ok = rep_b.n_checked >= 10000 and rep_b.n_mismatches == 0
    elapsed = time.perf_counter() - t0
    record(3, "bit-exact-equivalence",
           exhaustive_ok and random_ok and elapsed < 60.0,
           f"16 exhaustive + {rep_b.n_checked} random vectors, {elapsed:.1f} s")


def test_criterion_4_gradient_checks():
    worst = 0.0
    # (a) weights and BN parameters, quantizers bypassed (differentiable path)
    rng = np.random.default_rng(0)
    spec = NetworkSpec(layer_widths=[4, 2], beta=4, fan_in=2, degree=2,
                       input_count=2, seed=0)
    model = init_model(spec)
    x = rng.uniform(-1.0, 1.0, size=(16, 2))
    y = rng.integers(0, 2, 16)

    def loss_of(m):
        logits, caches = forward(m, x, quant_bypass=True)
        loss, d = compute_loss(logits, y)
        return loss, caches, d

    loss, caches, dlogits = loss_of(model)
    grads = backward(model, caches, dlogits)
    h = 1e-5
    for layer, p in enumerate(model.params):
        targets = [(p.weights, grads[f"w{layer}"]),
                   (p.bn.gamma, grads[f"gamma{layer}"]),
                   (p.bn.beta_shift, grads[f"beta{layer}"])]
        for arr, g in targets:
            flat, gflat = arr.ravel(), np.asarray(g).ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                lp, _, _ = loss_of(model)
                flat[i] = orig - h
                lm, _, _ = loss_of(model)
                flat[i] = orig
                fd = (lp - lm) / (2 * h)
                denom = max(1.0, abs(fd), abs(gflat[i]))
                worst = max(worst, abs(fd - gflat[i]) / denom)

    # (b) quantizer scale, quantizers active, inputs off rounding boundaries
    spec1 = NetworkSpec(layer_widths=[2], beta=4, fan_in=2, degree=2,
                        input_count=2, seed=3)
    m1 = init_model(spec1)
    m1.params[0].quant_scale = 0.37
    x1 = rng.uniform(-1.0, 1.0, size=(8, 2))
    y1 = rng.integers(0, 2, 8)

    def scale_loss(s):
        m1.params[0].quant_scale = s
        logits, caches = forward(m1, x1)
        loss, d = compute_loss(logits, y1)
        return loss, caches, d

    base_s = 0.37
    loss1, caches1, d1 = scale_loss(base_s)
    # distance of every pre-quantization ratio from the nearest rounding edge
    ratios = caches1[0]["h"] / base_s
    edge_dist = float(np.min(np.abs(np.abs(ratios % 1.0) - 0.5)))
    grads1 = backward(m1, caches1, d1)
    hs = 1e-6
    lp, _, _ = scale_loss(base_s + hs)
    lm, _, _ = scale_loss(base_s - hs)
    fd = (lp - lm) / (2 * hs)
    an = float(grads1["s0"])
    rel_scale = abs(fd - an) / max(1.0, abs(fd))
    ok = worst < 1e-4 and rel_scale < 1e-4 and edge_dist > 1e-3
    record(4, "gradient-checks", ok,
           f"weights/bn rel {worst:.2e}, scale rel {rel_scale:.2e}, "
           f"boundary margin {edge_dist:.1e}")


def test_criterion_5_degree_benefit():
    t0 = time.perf_counter()
    tr, _ = spiral_splits()
    acc = {}
    loss = {}
    for depth in (2, 3):
        for degree in (1, 2, 3):
            model, history = spiral_run(depth, degree)
            acc[(depth, degree)] = accuracy(model, tr.features, tr.labels)
            loss[(depth, degree)] = history[-1]["train_loss"]
    gap = acc[(3, 3)] - acc[(3, 1)]
    loss_ok = all(loss[(d, 2)] <= loss[(d, 1)] for d in (2, 3))
    elapsed = time.perf_counter() - t0
    record(5, "degree-benefit", gap >= 0.05 and loss_ok and elapsed < 300.0,
           f"D3-D1 train-accuracy gap {gap * 100:.1f} pts, "
           f"loss(D2)<=loss(D1) at depths 2,3, {elapsed:.0f} s")


def test_criterion_6_tabulation_scale():
    model = init_model(spec_from_profile("jsc-m"))
    t0 = time.perf_counter()
    layer0 = tabulate_layer(model, 0)
    elapsed = time.perf_counter() - t0
    entries_ok = layer0.shape[1] == 4096  # beta=3, F=4
    record(6, "tabulation-scale",
           entries_ok and len(layer0) == 64 and elapsed < 10.0,
           f"4096 entries/neuron, 64 neurons in {elapsed:.2f} s")


def test_criterion_7_latency_model():
    spec = NetworkSpec(layer_widths=[2, 2, 2, 2, 2], beta=2, fan_in=2, degree=1,
                       input_count=2, clock_period_ns=1.6)
    model = init_model(spec)
    rep = report(build_netlist(model, tabulate_model(model)))
    ok = rep.cycles == 5 and rep.latency_ns == pytest.approx(8.0)
    record(7, "latency-model", ok, f"5 layers x 1.6 ns = {rep.latency_ns:.1f} ns")


def test_criterion_8_rtl_structural_suite(tmp_path):
    tr, te = spiral_splits()
    spec = NetworkSpec(layer_widths=[4, 4, 2], beta=2, fan_in=2, degree=2,
                       input_count=2, seed=0)
    model, _ = train(init_model(spec), tr, te,
                     TrainConfig(epochs=20, batch_size=128, seed=0))
    net = build_netlist(model, tabulate_model(model))
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    emit_bundle(net, dir_a)
    emit_bundle(net, dir_b)
    problems = check_bundle(dir_a, net)
    files_a, files_b = ({p.name: p.read_bytes() for p in d.iterdir()} for d in (dir_a, dir_b))
    identical = files_a == files_b
    modules = sum(name.startswith("layer") for name in files_a)
    record(8, "rtl-structural-suite", problems == [] and identical,
           f"{modules} modules, 0 structural problems, "
           "byte-identical re-emission")


FIG8_POINTS = [
    (2.476, 30.27), (4.797, 28.6), (6.38, 28.22), (8.9, 28.14),
    (2.624, 29.09), (4.659, 27.85), (7.456, 27.61), (11.285, 27.7),
    (2.784, 28.21), (4.884, 27.9), (6.692, 27.57), (11.63, 27.68),
    (3.08, 28.58), (4.854, 27.73), (7.092, 27.58), (9.755, 27.54),
    (2.724, 28.36), (4.716, 27.99), (7.644, 27.63), (10.44, 27.59),
    (2.684, 28.64), (4.647, 27.71), (7.248, 27.67), (9.4, 27.54),
]


def test_criterion_9_pareto_front():
    def brute(points):
        keep = []
        for a, b in points:
            if not any((c <= a and d <= b) and (c < a or d < b)
                       for c, d in points):
                keep.append((float(a), float(b)))
        return sorted(set(keep))

    rng = np.random.default_rng(0)
    random_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 25))
        pts = [tuple(p) for p in rng.integers(0, 10, size=(n, 2))]
        random_ok &= sorted(set(pareto_front(pts))) == brute(pts)

    front = pareto_front(FIG8_POINTS)
    anchors_ok = (2.476, 30.27) in front and (2.784, 28.21) in front
    record(9, "pareto-front", random_ok and anchors_ok,
           f"1000 random sets vs O(n^2); joint front of 24 transcribed "
           f"points has {len(front)} members incl. both anchors")


def test_criterion_10_parsers(tmp_path):
    # CSV round-trip
    csv_path = tmp_path / "f.csv"
    csv_path.write_text("a,b,label\n1.5,-2.0,x\n0.25,3.0,y\n", encoding="utf-8")
    ds = load_csv(csv_path, "label")
    csv_ok = (np.array_equal(ds.features, [[1.5, -2.0], [0.25, 3.0]])
              and np.array_equal(ds.labels, [0, 1]))

    # IDX round-trip, byte-exact reconstruction
    rng = np.random.default_rng(0)
    imgs = rng.integers(0, 256, size=(3, 28, 28)).astype(np.uint8)
    labs = np.array([1, 0, 2], dtype=np.uint8)
    ipath, lpath = tmp_path / "i.idx", tmp_path / "l.idx"
    ipath.write_bytes(struct.pack(">IIII", 0x803, 3, 28, 28) + imgs.tobytes())
    lpath.write_bytes(struct.pack(">II", 0x801, 3) + labs.tobytes())
    idx_ds = load_idx(ipath, lpath)
    rebuilt = (np.round(idx_ds.features * 255.0).astype(np.uint8).tobytes())
    idx_ok = (rebuilt == imgs.tobytes()
              and np.array_equal(idx_ds.labels, labs))

    # malformed inputs raise the specified errors
    errors_ok = True
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("a,label\n1\n", encoding="utf-8")
    for fn in (
        lambda: load_csv(bad_csv, "label"),  # ragged row
        lambda: load_csv(csv_path, "missing"),  # absent label column
        lambda: load_idx(lpath, lpath),  # wrong image magic
    ):
        try:
            fn()
            errors_ok = False
        except DataFormatError:
            pass
    record(10, "parsers", csv_ok and idx_ok and errors_ok,
           "CSV/IDX fixtures byte-exact, malformed inputs rejected")
