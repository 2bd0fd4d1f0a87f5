import json
import re
import tracemalloc

import numpy as np
import pytest

import lutc.model as model_mod
import lutc.netlist as netlist_mod
from lutc.model import NetworkSpec, forward_codes, init_model, layer_eval, spec_from_profile
from lutc.netlist import (
    RANDOM_VECTORS,
    EquivalenceReport,
    LutLayer,
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
from lutc.quantize import decode_bits, encode_bits
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
    with pytest.raises(ValueError, match=r"layer 0: \(3, 2\) sources of 2 bits do not "
                                         r"address \(2, 16\) uint32 tables"):
        build_netlist(model, [tables[0][:2], tables[1]])
    with pytest.raises(ValueError, match=r"layer 1: \(2, 2\) sources of 2 bits do not "
                                         r"address \(2, 4\) uint32 tables"):
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


@pytest.mark.parametrize("field, value", [
    ("input_count", 0), ("input_bits", 0), ("input_bits", 9), ("clock_period_ns", 0.0),
    ("clock_period_ns", -1.0), ("clock_period_ns", float("nan")),
    ("clock_period_ns", float("inf")),
])
def test_netlist_rejects_bad_scalar_fields(field, value):
    _, _, net = compiled(layer_widths=(1,))
    fields = dict(input_count=2, input_bits=2, clock_period_ns=1.6) | {field: value}
    with pytest.raises(ValueError, match="at least one input of 1 to 8 bits and a positive "
                                         "finite clock period"):
        Netlist(layers=net.layers, **fields)


def test_netlist_bounds_the_top_level_ports():
    """No port wider than the 2**16 bits IEEE 1364-2001 guarantees: 2**16
    + 1 one-bit inputs, 2**62 inputs or 2**15 + 1 two-bit outputs."""
    for count, bits in ((2**16 + 1, 1), (2**62, 2)):
        with pytest.raises(ValueError, match=f"input_count {count} of {bits} bits exceeds the "
                                             "65536-bit input port"):
            Netlist(input_count=count, input_bits=bits, layers=[], clock_period_ns=1.6)
    wide = LutLayer(tables=np.zeros((2**15 + 1, 4), dtype=np.uint32),
                    sources=np.zeros((2**15 + 1, 1), dtype=np.int64), output_bits=2)
    with pytest.raises(ValueError, match="32769 outputs of 2 bits exceed the 65536-bit "
                                         "output port"):
        Netlist(input_count=2, input_bits=2, layers=[wide], clock_period_ns=1.6)
    wide.tables, wide.sources = wide.tables[1:], wide.sources[1:]
    Netlist(input_count=2, input_bits=2, layers=[wide], clock_period_ns=1.6)


# ---------------------------------------------------------------------------
# Simulation


def test_simulate_constant_tables():
    model, tables, net = compiled()
    for lut in net.layers:
        lut.tables[:] = 2
    out = simulate(net, np.array([[0, 0], [3, 1], [2, 2]]))
    assert np.all(out == 2)


def test_simulate_rejects_inputs_of_another_width():
    _, _, net = compiled()
    for bad in (np.zeros((3, 3), dtype=np.int64), np.zeros(2, dtype=np.int64)):
        with pytest.raises(ValueError, match=re.escape("expected (n, 2) input patterns")):
            simulate(net, bad)


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


def test_equivalence_rejects_a_netlist_of_another_depth():
    model, _, net = compiled(layer_widths=(4, 3, 2))
    short = Netlist(input_count=2, input_bits=2, layers=net.layers[:2], clock_period_ns=1.6)
    with pytest.raises(ValueError, match="a netlist of 2 layers for a model of 3"):
        equivalence_check(short, model)


def test_equivalence_locates_injected_fault():
    model, tables, net = compiled(layer_widths=(4, 3, 2))
    net.layers[2].tables[1] ^= 1  # output node: every lookup wrong
    rep = equivalence_check(net, model)
    assert not rep.ok
    assert rep.n_mismatches == rep.n_checked
    assert rep.faulty_nodes == [(2, 1)]


def jsc_narrow(seed=1):
    """A calibrated untrained net with jsc-xl neurons at widths 16, 16, 5:
    16 inputs of 7 bits, too wide for exhaustive checking."""
    model = init_model(spec_from_profile("jsc-xl", seed=seed, layer_widths=(16, 16, 5)))
    init_scales(model, np.random.default_rng(seed).uniform(-1.0, 1.0, size=(128, 16)))
    return model, build_netlist(model, tabulate_model(model))


@pytest.mark.parametrize("layer", [0, 1])
def test_equivalence_names_a_hidden_table_the_outputs_mask(layer):
    """Every entry of one hidden table is off by its low bit, yet the
    untrained layers after it hide that from the outputs on every random
    vector: the per-layer check still names the table on every vector."""
    model, net = jsc_narrow()
    net.layers[layer].tables[0] ^= 1
    q0, out_q = model.input_quantizer, model.layer_quantizer(model.spec.n_layers - 1)
    stim = np.random.default_rng(np.random.PCG64(0)).integers(0, 1 << 7, size=(10000, 16))
    want = encode_bits(forward_codes(model, decode_bits(stim, q0)), out_q)
    assert np.array_equal(simulate(net, stim), want)
    rep = equivalence_check(net, model)
    assert rep.faulty_nodes == [(layer, 0)]
    assert rep.n_mismatches == rep.n_checked == 10000


def test_equivalence_evaluates_each_reached_tuple_of_a_narrow_layer_once(monkeypatch):
    """On the 10 000 random vectors of jsc-narrow, layers 1 and 2 reach
    few distinct source-code tuples: the check fills its memo with them
    and evaluates under a tenth of the 10 000 x W codes of the per-neuron
    path, and still names an edited table there."""
    model, net = jsc_narrow()
    counts, kernel = {}, model_mod.layer_eval

    def counted(model, layer, codes):
        counts[layer] = counts.get(layer, 0) + codes.shape[0] * len(model.params[layer].weights)
        return kernel(model, layer, codes)

    monkeypatch.setattr(model_mod, "layer_eval", counted)
    assert equivalence_check(net, model).ok
    for layer in (1, 2):
        assert 0 < counts[layer] <= 0.1 * 10000 * net.layers[layer].width, counts
    net.layers[2].tables[3] ^= 1
    assert equivalence_check(net, model).faulty_nodes == [(2, 3)]


def calibrated_net(input_count=6, input_beta=4):
    """A calibrated (6, 4, 2) net of 4-bit codes; at the default 6 x 4 = 24
    input bits it is checked on random vectors, not exhaustively."""
    model, _, _ = compiled(layer_widths=(6, 4, 2), beta=4, input_count=input_count,
                           input_beta=input_beta)
    init_scales(model, np.random.default_rng(4).uniform(-1.0, 1.0, size=(64, input_count)))
    return model, build_netlist(model, tabulate_model(model))


def test_equivalence_random_path_reports_accuracy():
    model, net = calibrated_net()
    rep = equivalence_check(net, model)
    assert rep.n_checked == RANDOM_VECTORS
    assert rep.ok


def whole_array_equivalence(netlist, model):
    """equivalence_check with every stimulus and every layer's codes in
    memory at once, and the table lookups written out: the reference the
    streamed check must reproduce."""
    bits, count = netlist.input_bits, model.spec.input_count
    if count * bits <= 20:
        stim = decode_address(np.arange(1 << (count * bits)), bits, count)
    else:
        rng = np.random.default_rng(np.random.PCG64(0))
        stim = rng.integers(0, 1 << bits, size=(RANDOM_VECTORS, count))
    codes, vals = decode_bits(stim, model.input_quantizer), stim
    bad, faulty = np.zeros(len(stim), dtype=bool), set()
    for layer, (lut, mask) in enumerate(zip(netlist.layers, model.masks)):
        codes = layer_eval(model, layer, codes[:, mask])
        want = encode_bits(codes, model.layer_quantizer(layer)).astype(np.int64)
        addrs = sum(vals[:, lut.sources[:, f]] << (f * bits) for f in range(mask.shape[1]))
        diff = np.take_along_axis(lut.tables.T, addrs, axis=0) != want
        bad |= diff.any(axis=1)
        faulty |= {(layer, int(j)) for j in np.flatnonzero(diff.any(axis=0))}
        vals, bits = want, lut.output_bits
    return EquivalenceReport(n_checked=len(stim), n_mismatches=int(bad.sum()),
                             faulty_nodes=sorted(faulty))


def faulty_netlist(mode):
    """A calibrated 4-bit net whose layer-0 tables are wrong at about a
    fifth of their entries, so that only some vectors mismatch: 2 x 5
    input bits (exhaustive) or 6 x 4."""
    model, net = calibrated_net(2, 5) if mode == "exhaustive" else calibrated_net()
    rng, tables = np.random.default_rng(5), net.layers[0].tables
    flip = rng.random(tables.shape) < 0.2
    tables[flip] = rng.integers(0, 16, size=int(flip.sum()))
    return model, net


@pytest.mark.parametrize("chunk", [1 << 19, 200], ids=["default-chunks", "small-chunks"])
@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_streamed_equivalence_matches_whole_array_reference(monkeypatch, chunk, mode):
    model, net = faulty_netlist(mode)
    want = whole_array_equivalence(net, model)
    monkeypatch.setattr(model_mod, "CHUNK_ELEMENTS", chunk)
    got = equivalence_check(net, model)
    assert got == want
    assert 0 < got.n_mismatches < got.n_checked
    assert {layer for layer, _ in got.faulty_nodes} == {0}  # only layer 0 is wrong
    assert got.n_checked == {"exhaustive": 1 << 10, "random": RANDOM_VECTORS}[mode]


def test_equivalence_memory_is_flat_in_budget(monkeypatch):
    """The stimuli stream through in row chunks: 25 times the random
    vectors need no more than 1.2 times the memory."""
    model, net = jsc_narrow()
    peaks = []
    for rows in (2_000, 50_000):
        monkeypatch.setattr(netlist_mod, "RANDOM_VECTORS", rows)
        tracemalloc.start()
        try:
            rep = equivalence_check(net, model)
            assert rep.ok and rep.n_checked == rows
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0], peaks


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
    path.write_text(path.read_text().replace("lut-netlist v2", "v0"))
    with pytest.raises(ValueError, match="format"):
        load_netlist(tmp_path)


@pytest.mark.parametrize("key, value, message", [
    ("clock_period_ns", "1.6", 'clock_period_ns "1.6" is not a number'),
    ("layers", {"0": []}, 'layers {"0": []} is not a list'),
], ids=["string-clock", "layers-object"])
def test_load_rejects_mistyped_fields(tmp_path, key, value, message):
    _, _, net = compiled()
    save_netlist(net, tmp_path)
    path = tmp_path / "netlist.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc[key] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=f"netlist.json: {re.escape(message)}"):
        load_netlist(tmp_path)
