import tracemalloc

import numpy as np
import pytest

import lutc.model as model_mod
from lutc.model import (NetworkSpec, eval_codes, forward_codes, init_model,
                        labels_from_codes, spec_from_profile)
from lutc.netlist import (
    EXHAUSTIVE_CAP_BITS,
    EquivalenceReport,
    Netlist,
    build_netlist,
    equivalence_check,
    load_netlist,
    lut_cost,
    pareto_front,
    report,
    save_netlist,
    simulate,
)
from lutc.quantize import decode_bits, encode_bits, quantize
from lutc.tables import decode_address, tabulate_model
from lutc.trainer import init_scales


def n_nodes(net):
    return sum(lut.width for lut in net.layers)


def compiled(layer_widths=(3, 2), beta=2, fan_in=2, degree=2, input_count=2,
             **overrides):
    spec = NetworkSpec(layer_widths=list(layer_widths), beta=beta, fan_in=fan_in,
                       degree=degree, input_count=input_count, **overrides)
    model = init_model(spec)
    tables = tabulate_model(model)
    return model, tables, build_netlist(model, tables)


# ---------------------------------------------------------------------------
# Build


def test_build_shapes():
    model, tables, net = compiled()
    assert net.n_layers == 2
    assert n_nodes(net) == 5
    assert net.input_count == 2 and net.input_bits == 2
    # wiring copies the masks: local indices into the previous layer
    assert np.array_equal(net.layers[0].sources, model.masks[0])
    assert np.array_equal(net.layers[1].sources, model.masks[1])
    assert net.layers[0].tables.shape == (3, 16) and net.layers[0].tables.dtype == np.uint32


def test_build_wraps_tabulated_arrays():
    _, tables, net = compiled()
    assert [lut.tables is t for lut, t in zip(net.layers, tables)] == [True, True]


def test_build_single_node():
    _, _, net = compiled(layer_widths=(1,))
    assert n_nodes(net) == 1
    assert net.layers[0].sources.tolist() == [[0, 1]]  # fed by primary inputs


def test_build_rejects_wrong_table_count():
    model, tables, _ = compiled()
    with pytest.raises(ValueError):
        build_netlist(model, tables[:1])
    with pytest.raises(ValueError, match=r"layer 0: tables of shape \(2, 16\)"):
        build_netlist(model, [tables[0][:2], tables[1]])
    with pytest.raises(ValueError, match=r"layer 1: tables of shape \(2, 4\)"):
        build_netlist(model, [tables[0], tables[1][:, :4]])


def rebuilt(net):
    return Netlist(input_count=net.input_count, input_bits=net.input_bits,
                   layers=net.layers, clock_period_ns=net.clock_period_ns)


def test_netlist_rejects_cross_layer_wiring():
    model, tables, net = compiled()
    net.layers[1].sources[1] = [0, 3]  # layer 0 has 3 nodes: index 3 is past its end
    with pytest.raises(ValueError, match="layer 1 neuron 1"):
        rebuilt(net)
    net.layers[1].sources[1] = [-1, 0]
    with pytest.raises(ValueError, match="layer 1 neuron 1"):
        rebuilt(net)


def test_netlist_rejects_duplicate_sources():
    model, tables, net = compiled()
    net.layers[0].sources[2] = [1, 1]
    with pytest.raises(ValueError, match="layer 0 neuron 2"):
        rebuilt(net)


def test_netlist_rejects_mis_sized_tables():
    model, tables, net = compiled()
    net.layers[1].sources = net.layers[1].sources[:, :1]  # 1 source of 2 bits: 4 entries
    with pytest.raises(ValueError, match="layer 1"):
        rebuilt(net)


def test_netlist_rejects_out_of_range_entries():
    model, tables, net = compiled()  # 2-bit codes
    net.layers[0].tables[2, 5] = 3
    rebuilt(net)
    net.layers[0].tables[2, 5] = 4
    with pytest.raises(ValueError, match="layer 0 neuron 2: entry 4 exceeds the 2-bit range"):
        rebuilt(net)
    net.layers[0].tables[2, 5] = 0
    net.layers[1].tables = net.layers[1].tables.astype(np.int64)
    with pytest.raises(ValueError, match="layer 1: .* int64 tables"):
        rebuilt(net)


# ---------------------------------------------------------------------------
# Simulation


def test_simulate_constant_tables():
    model, tables, net = compiled()
    for lut in net.layers:
        lut.tables[:] = 2
    out = simulate(net, np.array([[0, 0], [3, 1], [2, 2]]))
    assert np.all(out == 2)


def test_simulate_trace_length():
    _, _, net = compiled(layer_widths=(3, 3, 2))
    out, traces = simulate(net, np.zeros((4, 2), dtype=np.int64), trace=True)
    assert len(traces) == 3
    assert traces[-1].shape == out.shape


def test_simulate_rejects_out_of_range():
    _, _, net = compiled()
    with pytest.raises(ValueError):
        simulate(net, np.array([[4, 0]]))  # 4 needs 3 bits, inputs are 2-bit
    with pytest.raises(ValueError):
        simulate(net, np.array([[-1, 0]]))


def test_simulate_matches_model_exhaustively():
    model, _, net = compiled(layer_widths=(4, 3, 2))
    addrs = np.arange(16)
    stim = np.column_stack([addrs & 3, addrs >> 2])
    got = simulate(net, stim)
    from lutc.model import forward_codes
    from lutc.quantize import decode_bits
    codes_in = decode_bits(stim, model.input_quantizer)
    want = encode_bits(forward_codes(model, codes_in),
                       model.layer_quantizer(model.spec.n_layers - 1))
    assert np.array_equal(got, want.astype(np.int64))


# ---------------------------------------------------------------------------
# Equivalence


def test_equivalence_clean_exhaustive():
    model, _, net = compiled(layer_widths=(4, 3, 2))
    rep = equivalence_check(net, model)
    assert rep.n_checked == 16  # 2 inputs x 2 bits, exhaustive
    assert rep.ok and rep.n_mismatches == 0


def test_equivalence_locates_injected_fault():
    model, tables, net = compiled(layer_widths=(4, 3, 2))
    net.layers[2].tables[1] ^= 1  # output node: every lookup wrong
    rep = equivalence_check(net, model)
    assert not rep.ok
    assert rep.n_mismatches == rep.n_checked
    assert rep.faulty_nodes == [(2, 1)]


def test_equivalence_random_path_reports_accuracy():
    from lutc.data import gen_spirals, split_normalize
    model, _, net = compiled(layer_widths=(4, 2), beta=4, input_beta=6)
    ds = gen_spirals(50, seed=1)
    tr, _ = split_normalize(ds, 0.9, seed=1)
    rep = equivalence_check(net, model, dataset=tr, budget=500,
                            exhaustive_limit=4)  # force the sampled path
    assert rep.n_checked == tr.n + 500
    assert rep.ok
    assert rep.netlist_accuracy == rep.model_accuracy  # same argmax when exact


def whole_array_equivalence(netlist, model, dataset=None, budget=10000, seed=0,
                            exhaustive_limit=20):
    """equivalence_check with every stimulus and both full traces in memory
    at once: the reference the streamed check must reproduce."""
    bits, count, q0 = netlist.input_bits, model.spec.input_count, model.input_quantizer
    patterns, labels = [], None
    if count * bits <= exhaustive_limit:
        patterns.append(decode_address(np.arange(1 << (count * bits)), bits, count))
    else:
        if dataset is not None:
            patterns.append(encode_bits(quantize(dataset.features, q0), q0).astype(np.int64))
            labels = dataset.labels
        rng = np.random.default_rng(np.random.PCG64(seed))
        patterns.append(rng.integers(0, 1 << bits, size=(budget, count)))
    stim = np.concatenate(patterns)
    model_codes, model_trace = forward_codes(model, decode_bits(stim, q0), trace=True)
    net_patterns, traces = simulate(netlist, stim, trace=True)
    diffs = [t != encode_bits(c, model.layer_quantizer(layer))
             for layer, (t, c) in enumerate(zip(traces, model_trace))]
    bad = diffs[-1].any(axis=1)
    faulty = set()
    for row in np.flatnonzero(bad)[:64]:
        layer = next(layer for layer, d in enumerate(diffs) if d[row].any())
        faulty.add((layer, int(np.argmax(diffs[layer][row]))))
    net_acc = mod_acc = None
    if labels is not None:
        out_q = model.layer_quantizer(model.spec.n_layers - 1)
        net_labels = labels_from_codes(decode_bits(net_patterns[: len(labels)], out_q))
        net_acc = float(np.mean(net_labels == labels))
        mod_acc = float(np.mean(labels_from_codes(model_codes[: len(labels)]) == labels))
    return EquivalenceReport(n_checked=len(stim), n_mismatches=int(bad.sum()),
                             faulty_nodes=sorted(faulty), netlist_accuracy=net_acc,
                             model_accuracy=mod_acc)


def faulty_spiral_netlist():
    """A calibrated 4-bit two-input net whose layer-0 tables are wrong at
    about a fifth of their entries, so that only some vectors mismatch."""
    model, _, net = compiled(layer_widths=(6, 4, 2), beta=4, input_beta=5)
    init_scales(model, np.random.default_rng(4).uniform(-1.0, 1.0, size=(64, 2)))
    net = build_netlist(model, tabulate_model(model))
    rng, tables = np.random.default_rng(5), net.layers[0].tables
    flip = rng.random(tables.shape) < 0.2
    tables[flip] = rng.integers(0, 16, size=int(flip.sum()))
    return model, net


@pytest.mark.parametrize("chunk", [1 << 19, 200], ids=["default-chunks", "small-chunks"])
@pytest.mark.parametrize("mode", ["exhaustive", "dataset", "random"])
def test_streamed_equivalence_matches_whole_array_reference(monkeypatch, chunk, mode):
    from lutc.data import gen_spirals, split_normalize
    model, net = faulty_spiral_netlist()
    ds = split_normalize(gen_spirals(300, seed=2), 0.5, seed=2)[0] if mode == "dataset" else None
    kwargs = dict(dataset=ds, budget=3000, seed=7,
                  exhaustive_limit=10 if mode == "exhaustive" else 4)
    want = whole_array_equivalence(net, model, **kwargs)
    monkeypatch.setattr(model_mod, "CHUNK_ELEMENTS", chunk)
    got = equivalence_check(net, model, **kwargs)
    assert got == want
    assert 64 < got.n_mismatches < got.n_checked  # the fault reports stop at 64 vectors
    if mode == "dataset":
        assert got.netlist_accuracy is not None and got.model_accuracy is not None
        assert got.n_checked == ds.n + 3000


def test_equivalence_memory_is_flat_in_budget():
    """The stimuli stream through in row chunks: 25 times the random
    vectors need no more than 1.2 times the memory."""
    model = init_model(spec_from_profile("jsc-xl", seed=1, layer_widths=(16, 16, 5)))
    init_scales(model, np.random.default_rng(1).uniform(-1.0, 1.0, size=(128, 16)))
    net = build_netlist(model, tabulate_model(model))
    peaks = []
    for budget in (2_000, 50_000):
        tracemalloc.start()
        try:
            assert equivalence_check(net, model, budget=budget).ok
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0], peaks


def test_equivalence_rejects_exhaustive_limit_over_cap():
    model, _, net = compiled()
    with pytest.raises(ValueError, match="exceeds the cap"):
        equivalence_check(net, model, exhaustive_limit=EXHAUSTIVE_CAP_BITS + 1)


# ---------------------------------------------------------------------------
# Cost model


def test_lut_cost_values():
    assert lut_cost(6, 6) == 1
    assert lut_cost(4, 6) == 1
    assert lut_cost(12, 6) == 127
    assert lut_cost(12, 6) * 3 == 381  # beta=3, F=4 neuron
    assert lut_cost(7, 6) == 3


def test_lut_cost_validation():
    with pytest.raises(ValueError):
        lut_cost(0, 6)
    with pytest.raises(ValueError):
        lut_cost(4, 1)


def test_cost_independent_of_degree():
    _, _, n1 = compiled(degree=1)
    _, _, n3 = compiled(degree=3)
    assert report(n1).total_luts == report(n3).total_luts


def test_report_latency():
    _, _, net5 = compiled(layer_widths=(2, 2, 2, 2, 2), clock_period_ns=1.6)
    rep5 = report(net5)
    assert rep5.cycles == 5
    assert rep5.latency_ns == pytest.approx(8.0)
    _, _, net2 = compiled(layer_widths=(2, 2), clock_period_ns=1.6)
    assert report(net2).latency_ns == pytest.approx(3.2)


def test_report_jsc_m_total():
    model = init_model(spec_from_profile("jsc-m"))
    net = build_netlist(model, tabulate_model(model))
    rep = report(net, target_k=6)
    # 165 neurons, each 12-bit address -> 127 P-LUTs per output bit x 3 bits
    assert rep.total_luts == 165 * 381 == 62865
    assert rep.per_layer_luts[0] == 64 * 381
    assert "n/a (external tools)" in rep.as_text()


# ---------------------------------------------------------------------------
# Pareto


def brute_force_front(points):
    out = []
    for i, (a, b) in enumerate(points):
        dominated = any(
            (c <= a and d <= b) and (c < a or d < b) for c, d in points
        )
        if not dominated:
            out.append((float(a), float(b)))
    out.sort()
    return out


def test_pareto_examples():
    assert pareto_front([(2, 30), (3, 29), (4, 28)]) == [(2, 30), (3, 29), (4, 28)]
    assert pareto_front([(2, 30), (3, 30)]) == [(2, 30)]
    assert pareto_front([]) == []
    assert pareto_front([(1, 1), (1, 1)]) == [(1, 1), (1, 1)]  # duplicates stay


def test_pareto_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        pts = [tuple(p) for p in rng.integers(0, 8, size=(n, 2))]
        got = sorted(set(pareto_front(pts)))
        want = sorted(set(brute_force_front(pts)))
        assert got == want


def test_pareto_output_is_nondominated():
    rng = np.random.default_rng(1)
    pts = [tuple(p) for p in rng.normal(size=(50, 2))]
    front = pareto_front(pts)
    assert sorted(set(front)) == sorted(set(brute_force_front(pts)))
    # sorted by first coordinate
    assert front == sorted(front)


# ---------------------------------------------------------------------------
# Export / import


def test_save_load_roundtrip(tmp_path):
    model, tables, net = compiled(layer_widths=(3, 2), clock_period_ns=2.5)
    save_netlist(net, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "layer0_tables.txt", "layer1_tables.txt", "netlist.json"]
    back = load_netlist(tmp_path)
    assert back == net


def test_load_rejects_bad_format(tmp_path):
    model, tables, net = compiled()
    save_netlist(net, tmp_path)
    path = tmp_path / "netlist.json"
    path.write_text(path.read_text().replace("lut-netlist v1", "v0"))
    with pytest.raises(ValueError, match="format"):
        load_netlist(tmp_path)
