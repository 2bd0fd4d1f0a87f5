import numpy as np
import pytest

from lutc.model import NetworkSpec, init_model, spec_from_profile
from lutc.quantize import bn_identity, decode_bits
from lutc.tables import (
    TruthTable,
    decode_address,
    dump_tables,
    load_tables,
    pack_address,
    tabulate_layer,
    tabulate_model,
    tabulate_neuron,
    verify_table,
)


def small_model(**overrides):
    kwargs = dict(layer_widths=[3, 2], beta=2, fan_in=2, degree=2, input_count=2)
    kwargs.update(overrides)
    return init_model(NetworkSpec(**kwargs))


# ---------------------------------------------------------------------------
# Address packing


def test_address_roundtrip():
    rng = np.random.default_rng(0)
    for bits, fan in [(2, 3), (3, 4), (1, 7)]:
        addrs = rng.integers(0, 1 << (bits * fan), size=50)
        fields = decode_address(addrs, bits, fan)
        assert np.array_equal(pack_address(fields, bits), addrs)


def test_input0_is_least_significant():
    fields = decode_address(np.array([0b1101_10]), 2, 3)
    assert fields.tolist() == [[0b10, 0b01, 0b11]]


# ---------------------------------------------------------------------------
# TruthTable container


def test_truth_table_validation():
    with pytest.raises(ValueError):
        TruthTable(input_bits=2, output_bits=2, entries=np.zeros(3))
    with pytest.raises(ValueError):
        TruthTable(input_bits=2, output_bits=2, entries=np.full(4, 7))


def test_truth_table_hash_tracks_content():
    a = TruthTable(input_bits=2, output_bits=2, entries=np.array([0, 1, 2, 3]))
    b = TruthTable(input_bits=2, output_bits=2, entries=np.array([0, 1, 2, 3]))
    c = TruthTable(input_bits=2, output_bits=2, entries=np.array([0, 1, 2, 2]))
    assert a == b and a.sha256() == b.sha256()
    assert a != c and a.sha256() != c.sha256()


# ---------------------------------------------------------------------------
# Tabulation


def test_entry_count_beta3_fan4():
    model = init_model(spec_from_profile("jsc-m"))
    table = tabulate_layer(model, 1)[0]
    assert table.input_bits == 12
    assert table.entries.size == 4096  # 2**(beta * F)


def test_zero_weights_constant_table():
    model = small_model()
    model.params[0].weights[:] = 0.0
    for table in tabulate_layer(model, 0):
        assert np.all(table.entries == table.entries[0])


def test_d1_passthrough_neuron():
    """Unit weight on input 0, identity BN, matched scale: the entry at
    address a is the clamp of input 0's decoded code."""
    model = small_model(layer_widths=[2, 2, 2], degree=1)
    layer = 1  # hidden-to-hidden: unsigned in, unsigned out
    model.params[layer].bn = bn_identity(2, eps=0.0)
    model.params[layer].weights[:] = 0.0
    model.params[layer].weights[0, 1] = 1.0  # basis [1, x0, x1] -> select x0
    model.params[layer].quant_scale = model.params[layer - 1].quant_scale
    table = tabulate_layer(model, layer)[0]
    qin = model.source_quantizer(layer)
    for addr in range(table.entries.size):
        code0 = decode_bits(np.array(addr & 0b11), qin)
        assert table.entries[addr] == code0  # unsigned codes pass through


def test_tabulate_model_counts():
    model = init_model(spec_from_profile("jsc-m-lite", degree=1))
    tables = tabulate_model(model)
    assert sum(len(t) for t in tables) == 101  # 64 + 32 + 5 neurons
    assert [len(t) for t in tables] == [64, 32, 5]


def test_single_neuron_model():
    model = small_model(layer_widths=[1])
    tables = tabulate_model(model)
    assert len(tables) == 1 and len(tables[0]) == 1


def test_tabulate_deterministic():
    model = small_model()
    t1 = tabulate_model(model)
    t2 = tabulate_model(model)
    assert all(a == b for la, lb in zip(t1, t2) for a, b in zip(la, lb))


def test_enum_guard_enforced():
    model = small_model()
    object.__setattr__(model.spec, "enum_guard", 3)
    with pytest.raises(ValueError, match="guard"):
        tabulate_layer(model, 0)


# ---------------------------------------------------------------------------
# Verification


def test_tabulate_neuron_is_a_layer_row():
    model = small_model()
    layer = tabulate_layer(model, 0)
    assert [tabulate_neuron(model, 0, j) for j in range(3)] == layer
    assert tabulate_layer(model, 0, [2, 0]) == [layer[2], layer[0]]


def test_verify_fresh_table_clean():
    model = small_model()
    for j, table in enumerate(tabulate_layer(model, 0)):
        assert verify_table(model, table, 0, j).size == 0


def test_verify_flipped_entry():
    model = small_model()
    table = tabulate_layer(model, 0)[1]
    table.entries[5] ^= 1
    bad = verify_table(model, table, 0, 1)
    assert bad.tolist() == [5]


def test_verify_exhaustive_16():
    model = small_model()  # beta=2, F=2 -> 16 addresses, exhaustive
    table = tabulate_layer(model, 1)[0]
    assert table.entries.size == 16
    assert verify_table(model, table, 1, 0).size == 0


# ---------------------------------------------------------------------------
# Dump / load


def test_dump_load_roundtrip(tmp_path):
    model = small_model()
    tables = tabulate_model(model)
    paths = dump_tables(tables, tmp_path)
    assert [p.endswith("_tables.txt") for p in paths] == [True, True]
    back = load_tables(tmp_path)
    assert all(a == b for la, lb in zip(tables, back) for a, b in zip(la, lb))


def test_load_tables_missing_dir(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_tables(tmp_path)


def test_load_tables_non_contiguous(tmp_path):
    model = small_model()
    dump_tables(tabulate_model(model), tmp_path)
    (tmp_path / "layer0_tables.txt").rename(tmp_path / "layer9_tables.txt")
    with pytest.raises(ValueError, match="non-contiguous"):
        load_tables(tmp_path)
