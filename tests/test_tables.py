import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lutc.model import NetworkSpec, init_model, layer_eval, load_checkpoint, spec_from_profile
from lutc.netlist import LutLayer, build_netlist, dump_tables, load_tables
from lutc.quantize import bn_identity, decode_bits, encode_bits
from lutc.rtl import emit_bundle
from lutc.tables import decode_address, pack_address, tabulate_layer, tabulate_model


def small_model(**overrides):
    kwargs = dict(layer_widths=[3, 2], beta=2, fan_in=2, degree=2, input_count=2)
    kwargs.update(overrides)
    return init_model(NetworkSpec(**kwargs))


def verify_table(model, table, layer, neuron):
    """Re-evaluate every address of a table row through layer_eval;
    returns the mismatching addresses."""
    spec, addrs = model.spec, np.arange(table.size, dtype=np.int64)
    fields = decode_address(addrs, spec.layer_input_bits(layer), spec.layer_fan_in(layer))
    codes = decode_bits(fields, model.source_quantizer(layer))[:, None, :]
    want = encode_bits(layer_eval(model, layer, codes)[:, neuron],
                       model.layer_quantizer(layer))
    return addrs[table[addrs] != want]


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
# Table rows


def test_truth_table_validation():
    """A netlist table row holds 2**N entries, each below 2**output_bits."""
    model = small_model()  # 2-bit codes, 16-entry tables
    tables = tabulate_model(model)
    with pytest.raises(ValueError, match=r"layer 1: .* do not address \(2, 15\) uint32 tables"):
        build_netlist(model, [tables[0], tables[1][:, :15]])
    tables[1][1, 9] = 7
    with pytest.raises(ValueError, match="layer 1 neuron 1: entry 7 exceeds the 2-bit range"):
        build_netlist(model, tables)


def test_truth_table_hash_tracks_content(tmp_path):
    """manifest.txt digests each row's entries as little-endian uint32 words."""
    model = small_model(layer_widths=[3])
    tables = tabulate_model(model)
    tables[0][1] = tables[0][0]
    tables[0][2] = tables[0][0] ^ (np.arange(16) == 5)
    emit_bundle(build_netlist(model, tables), tmp_path)
    lines = (tmp_path / "manifest.txt").read_text().split("\n")[2:5]
    digests = [line.rsplit(" ", 1)[1] for line in lines]
    assert digests[0] == hashlib.sha256(tables[0][0].astype("<u4").tobytes()).hexdigest()
    assert digests[0] == digests[1] != digests[2]


# ---------------------------------------------------------------------------
# Tabulation


def test_entry_count_beta3_fan4():
    model = init_model(spec_from_profile("jsc-m"))
    tables = tabulate_layer(model, 1)
    assert tables.shape == (32, 4096)  # 2**(beta * F) = 2**12 entries per neuron
    assert tables.dtype == np.uint32


def test_zero_weights_constant_table():
    model = small_model()
    model.params[0].weights[:] = 0.0
    for table in tabulate_layer(model, 0):
        assert np.all(table == table[0])


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
    for addr in range(table.size):
        code0 = decode_bits(np.array(addr & 0b11), qin)
        assert table[addr] == code0  # unsigned codes pass through


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
    assert all(np.array_equal(a, b) for a, b in zip(t1, t2))


def test_enum_guard_enforced(lifted_guard_checkpoint):
    # the cap is 24 address bits whatever guard a checkpoint carries
    with pytest.raises(ValueError, match=r"layer 0: enumeration guard violated "
                                         r"\(32 address bits > cap 24\)"):
        load_checkpoint(lifted_guard_checkpoint)


# ---------------------------------------------------------------------------
# Verification


def test_verify_fresh_table_clean():
    model = small_model()
    for j, table in enumerate(tabulate_layer(model, 0)):
        assert verify_table(model, table, 0, j).size == 0


def test_verify_flipped_entry():
    model = small_model()
    table = tabulate_layer(model, 0)[1]
    table[5] ^= 1
    bad = verify_table(model, table, 0, 1)
    assert bad.tolist() == [5]


def test_verify_exhaustive_16():
    model = small_model()  # beta=2, F=2 -> 16 addresses, exhaustive
    table = tabulate_layer(model, 1)[0]
    assert table.size == 16
    assert verify_table(model, table, 1, 0).size == 0


# ---------------------------------------------------------------------------
# Dump / load


def test_dump_load_roundtrip(tmp_path):
    model = small_model()
    net = build_netlist(model, tabulate_model(model))
    paths = dump_tables(net.layers, tmp_path)
    assert [p.endswith("_tables.txt") for p in paths] == [True, True]
    back = load_tables(tmp_path, 2)
    assert [(t.dtype, t.tolist(), b) for t, b in back] == \
        [(np.uint32, lut.tables.tolist(), 2) for lut in net.layers]


def test_load_tables_missing_dir(tmp_path):
    with pytest.raises(FileNotFoundError, match="layer0_tables.txt"):
        load_tables(tmp_path, 1)


def test_load_tables_non_contiguous(tmp_path):
    # the dumps are read by layer number, so a hole is a missing dump
    model = small_model()
    dump_tables(build_netlist(model, tabulate_model(model)).layers, tmp_path)
    (tmp_path / "layer0_tables.txt").rename(tmp_path / "layer9_tables.txt")
    with pytest.raises(FileNotFoundError, match="layer0_tables.txt"):
        load_tables(tmp_path, 2)


def test_load_tables_reads_only_the_layers_asked_for(tmp_path):
    # a stale dump of a deeper net, even a malformed one, is not read
    model = small_model()
    layers = build_netlist(model, tabulate_model(model)).layers
    dump_tables(layers, tmp_path)
    (tmp_path / "layer2_tables.txt").write_text("stale", encoding="utf-8")
    assert [t.tolist() for t, _ in load_tables(tmp_path, 2)] == \
        [lut.tables.tolist() for lut in layers]
    assert [t.tolist() for t, _ in load_tables(tmp_path, 1)] == [layers[0].tables.tolist()]


@pytest.mark.parametrize("name", ["layer01_tables.txt", "layer\u0661_tables.txt"],
                         ids=["leading-zero", "arabic-indic-digit"])
def test_load_tables_reads_only_dumped_file_names(tmp_path, name):
    # another name for layer 1's dump, which int() would read as 1
    model = small_model()
    layers = build_netlist(model, tabulate_model(model)).layers
    dump_tables(layers, tmp_path)
    (tmp_path / "layer1_tables.txt").rename(tmp_path / name)
    with pytest.raises(FileNotFoundError, match="layer1_tables.txt"):
        load_tables(tmp_path, 2)


@pytest.mark.parametrize("text, where", [
    # no "layer" line and no neurons
    ("lut-tables v1\nneurons 0\ninput_bits 1\noutput_bits 1\n",
     "layer 0: .*not a lut-tables v1 header for layer 0"),
    # 2**70 entries per table: more than numpy can allocate, even for no rows
    ("lut-tables v1\nlayer 0\nneurons 1\ninput_bits 70\noutput_bits 1\nneuron 0\n1 0\n",
     r"layer 0 neuron 0: .*cannot hold 2\*\*70 entries"),
], ids=["short-header", "huge-input-bits"])
def test_load_tables_rejects_bad_header(tmp_path, text, where):
    (tmp_path / "layer0_tables.txt").write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=where):
        load_tables(tmp_path, 1)


def test_load_tables_rejects_non_ascii(tmp_path):
    model = small_model()
    dump_tables(build_netlist(model, tabulate_model(model)).layers, tmp_path)
    path = tmp_path / "layer1_tables.txt"
    # a no-break space between the last two entries: str.split would split on
    # it, the reader rejects it
    path.write_text("\u00a0".join(path.read_text(encoding="utf-8").rsplit(" ", 1)),
                    encoding="utf-8")
    with pytest.raises(ValueError, match=r"^layer 1 neuron 1: .*one space apart"):
        load_tables(tmp_path, 2)


def test_load_tables_rejects_value_lines_not_cut_16_to_a_line(tmp_path):
    lut = LutLayer(tables=np.arange(64, dtype=np.uint32).reshape(2, 32), output_bits=8,
                   sources=np.tile(np.arange(5), (2, 1)))
    dump_tables([lut], tmp_path)
    path = tmp_path / "layer0_tables.txt"
    lines = path.read_text(encoding="utf-8").split("\n")
    # neuron 1's 32 entries in its two lines, cut 20 + 12
    assert lines[8] == "neuron 1"
    values = " ".join(lines[9:11]).split(" ")
    lines[9:11] = [" ".join(values[:20]), " ".join(values[20:])]
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match=r"^layer 0 neuron 1: .*16 to a line"):
        load_tables(tmp_path, 1)


def test_dump_tables_holds_about_one_row(tmp_path):
    """Two 2**16-entry tables of 8-bit values: the writer formats one
    neuron at a time in a few arrays of 2**16 elements (the nibble index,
    the byte grid, its keep mask and the kept bytes: about 17 bytes per
    entry, 1.1 MB).  Formatting a row as 2 * 2**16 strings held 2.64 MB."""
    tables = np.random.default_rng(5).integers(0, 256, size=(2, 1 << 16)).astype(np.uint32)
    lut = LutLayer(tables=tables, output_bits=8, sources=np.tile(np.arange(16), (2, 1)))
    dump_tables([lut], tmp_path)  # first-call allocations out of the way
    tracemalloc.start()
    try:
        dump_tables([lut], tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_500_000, peak


def test_load_tables_reads_a_wide_layer(tmp_path):
    rng = np.random.default_rng(3)
    tables = rng.integers(0, 256, size=(3, 1 << 16)).astype(np.uint32)
    lut = LutLayer(tables=tables, output_bits=8, sources=np.tile(np.arange(16), (3, 1)))
    dump_tables([lut], tmp_path)
    path = tmp_path / "layer0_tables.txt"
    text = path.read_text(encoding="utf-8")
    (back, bits), = load_tables(tmp_path, 1)
    assert back.tolist() == tables.tolist() and bits == 8
    # a bad token two thirds into the file is found, and its neuron named
    lines = text.split("\n")
    k = len(lines) * 2 // 3
    lines[k] = "1g" + lines[k][lines[k].index(" "):]
    path.write_text("\n".join(lines), encoding="utf-8")
    neuron = sum(ln.startswith("neuron ") for ln in lines[:k]) - 1
    with pytest.raises(ValueError, match=rf"^layer 0 neuron {neuron}: .*'1g'"):
        load_tables(tmp_path, 1)


# ---------------------------------------------------------------------------
# Independence from the BLAS and SIMD setup


DIGEST_SCRIPT = """
import hashlib
import numpy as np
from lutc.model import eval_codes, init_model, spec_from_profile
from lutc.tables import tabulate_model
from lutc.trainer import init_scales

digest = hashlib.sha256()
for profile, widths in (("jsc-xl", (16, 16, 5)), ("hdr", (32, 16, 10)), ("jsc-m", None)):
    spec = spec_from_profile(profile, seed=3, **({"layer_widths": widths} if widths else {}))
    model, rng = init_model(spec), np.random.default_rng(7)
    init_scales(model, rng.uniform(-1.0, 1.0, size=(128, spec.input_count)))
    for tables in tabulate_model(model):
        digest.update(tables.tobytes())
    digest.update(eval_codes(model, rng.uniform(-1.0, 1.0, size=(256, spec.input_count))))
print(digest.hexdigest())
"""


def test_tables_do_not_depend_on_blas_threads_or_simd_dispatch():
    """Seeded, calibrated nets tabulate and evaluate to the same bits in a
    child process whatever its BLAS thread count, OpenBLAS kernel or numpy
    SIMD targets.  Disabling X86_V3 drops numpy's dispatch to its X86_V2
    baseline on CPUs whose best numpy target is X86_V3."""
    root = Path(__file__).resolve().parent.parent
    settings = [{}, {"OPENBLAS_NUM_THREADS": "1"},
                {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"},
                {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"},
                {"OPENBLAS_CORETYPE": "Haswell"}]
    digests = []
    for setting in settings:
        env = dict(os.environ, **setting)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-c", DIGEST_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (setting, proc.stderr)
        digests.append(proc.stdout)
    assert len(set(digests)) == 1, list(zip(settings, digests))
