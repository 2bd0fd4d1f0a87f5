import tracemalloc

import numpy as np
import pytest

import lutc.rtl as rtl
from lutc.model import NetworkSpec, init_model
from lutc.netlist import LutLayer, Netlist, build_netlist, simulate
from lutc.rtl import (
    check_bundle,
    emit_bundle,
    emit_golden_vectors,
    emit_top,
    parse_golden_vectors,
)
from lutc.tables import tabulate_model


def compiled(layer_widths=(3, 2), beta=2, fan_in=2, degree=2, input_count=2,
             **overrides):
    spec = NetworkSpec(layer_widths=list(layer_widths), beta=beta, fan_in=fan_in,
                       degree=degree, input_count=input_count, **overrides)
    model = init_model(spec)
    return model, build_netlist(model, tabulate_model(model))


# ---------------------------------------------------------------------------
# Neuron modules


def one_layer_netlist(tables, output_bits, input_bits=1):
    """tables (W, 2**N) as the only layer, each neuron reading N primary
    inputs of input_bits bits in order."""
    fan = (tables.shape[1].bit_length() - 1) // input_bits
    layer = LutLayer(tables=np.asarray(tables, dtype=np.uint32),
                     sources=np.tile(np.arange(fan), (len(tables), 1)), output_bits=output_bits)
    return Netlist(input_count=fan, input_bits=input_bits, layers=[layer], clock_period_ns=1.0)


def test_rom_entry_count(tmp_path):
    emit_bundle(one_layer_netlist(np.arange(16)[None] % 4, 2), tmp_path)
    text = (tmp_path / "layer0_n0.v").read_text()
    assert text.count("data <=") == 16 + 1  # all arms + default
    assert "case (addr)" in text
    assert "always @(posedge clk)" in text
    assert "input  wire [3:0] addr" in text
    assert "output reg  [1:0] data" in text


def test_rom_constant_table(tmp_path):
    emit_bundle(one_layer_netlist(np.full((1, 4), 3), 2), tmp_path)
    text = (tmp_path / "layer0_n0.v").read_text()
    arms = [ln for ln in text.splitlines() if ": data <=" in ln and "default" not in ln]
    assert len(arms) == 4
    assert all(ln.strip().endswith("data <= 2'h3;") for ln in arms)


# ---------------------------------------------------------------------------
# Top module


def test_emit_top_pipeline_stages():
    _, net = compiled(layer_widths=(3, 3, 2))
    top = emit_top(net)
    # one data bus per layer, output from the last
    for layer in range(3):
        assert f"layer{layer}_data" in top
    assert "assign out_data = layer2_data;" in top
    assert top.count(" u_layer") == 8  # one instance per neuron


def test_emit_top_single_node():
    _, net = compiled(layer_widths=(1,))
    top = emit_top(net)
    assert top.count(" u_layer") == 1


# ---------------------------------------------------------------------------
# Golden vectors


def test_golden_vectors_roundtrip():
    _, net = compiled()
    vectors = np.array([[0, 0], [1, 2], [3, 3]])
    text = emit_golden_vectors(net, vectors)
    pairs = parse_golden_vectors(text)
    assert len(pairs) == 3
    outs = simulate(net, vectors)
    for (win, wout), vec, out in zip(pairs, vectors, outs):
        assert win == int(vec[0]) | (int(vec[1]) << net.input_bits)
        packed = 0
        for j, v in enumerate(out):
            packed |= int(v) << (j * net.output_bits)
        assert wout == packed


def test_golden_vectors_exhaustive_single_neuron():
    _, net = compiled(layer_widths=(1,))
    addrs = np.arange(16)
    vectors = np.column_stack([addrs & 3, addrs >> 2])
    text = emit_golden_vectors(net, vectors)
    assert len(text.strip().splitlines()) == 16


def test_golden_vectors_wide_input_words():
    # 30 inputs x 2 bits = 60-bit words: must not overflow fixed-width ints
    _, net = compiled(layer_widths=(4, 2), input_count=30, fan_in=4)
    rng = np.random.default_rng(0)
    vectors = rng.integers(0, 4, size=(8, 30))
    pairs = parse_golden_vectors(emit_golden_vectors(net, vectors))
    want = sum(int(v) << (2 * j) for j, v in enumerate(vectors[0]))
    assert pairs[0][0] == want


# ---------------------------------------------------------------------------
# Bundle + structural checker: every edit is made to the files on disk


def edit_file(path, edit):
    """Rewrite a written file as edit(its text), with no newline translation."""
    path.write_bytes(edit(path.read_bytes().decode("utf-8")).encode("utf-8"))


def test_bundle_passes_checker(tmp_path):
    _, net = compiled(layer_widths=(4, 3, 2))
    emit_bundle(net, tmp_path)
    assert check_bundle(tmp_path, net) == []
    assert len(list(tmp_path.glob("layer*_n*.v"))) == 9
    assert "rtl-manifest v1" in (tmp_path / "manifest.txt").read_text()


def test_bundle_deterministic(tmp_path):
    # re-emitting into the same directory writes the same paths and bytes
    _, net = compiled()
    first = emit_bundle(net, tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert emit_bundle(net, tmp_path) == first
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_write_bundle_byte_identical(tmp_path):
    _, net = compiled()
    emit_bundle(net, tmp_path / "a")
    emit_bundle(net, tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_emit_bundle_files(tmp_path):
    _, net = compiled(layer_widths=(2, 2))
    written = emit_bundle(net, tmp_path)
    names = {p.split("/")[-1] for p in map(str, written)}
    assert {"top.v", "tb.v", "vectors.hex", "manifest.txt",
            "layer0_n0.v", "layer0_n1.v", "layer1_n0.v", "layer1_n1.v"} == names
    for p in written:
        assert (tmp_path / str(p).split("/")[-1]).stat().st_size > 0


def test_checker_flags_tampered_wiring(tmp_path):
    _, net = compiled(layer_widths=(3, 2))
    emit_bundle(net, tmp_path)
    sources = net.layers[1].sources
    # claim different wiring than the emitted top actually uses
    sources[0] = sources[0][::-1].copy()
    problems = check_bundle(tmp_path, net)
    assert any("wiring" in p or "slice" in p for p in problems)


def test_checker_flags_missing_arm(tmp_path):
    _, net = compiled(layer_widths=(1,))
    emit_bundle(net, tmp_path)

    def drop_arm(text):
        lines = text.splitlines()
        drop = next(i for i, ln in enumerate(lines)
                    if ": data <=" in ln and "default" not in ln)
        return "\n".join(lines[:drop] + lines[drop + 1:])

    edit_file(tmp_path / "layer0_n0.v", drop_arm)
    problems = check_bundle(tmp_path, net)
    assert any("case arms" in p for p in problems)


@pytest.mark.parametrize("edit", [
    lambda arms: [arms[0].replace("4'h0:", "4'hzz:")] + arms[1:],
    lambda arms: arms[:1] + arms,
], ids=["malformed-address", "duplicated-arm"])
def test_checker_flags_bad_arm(tmp_path, edit):
    _, net = compiled(layer_widths=(1,))  # 4 address bits
    emit_bundle(net, tmp_path)

    def edit_arms(text):
        lines = text.splitlines()
        first = next(i for i, ln in enumerate(lines) if ": data <=" in ln)
        arms = lines[first:first + 16]
        return "\n".join(lines[:first] + edit(arms) + lines[first + 16:]) + "\n"

    edit_file(tmp_path / "layer0_n0.v", edit_arms)
    problems = check_bundle(tmp_path, net)
    assert any(p.startswith("layer0_n0: ") and "case arm" in p for p in problems)


def test_checker_flags_unclocked_output(tmp_path):
    _, net = compiled(layer_widths=(1,))
    emit_bundle(net, tmp_path)
    edit_file(tmp_path / "layer0_n0.v",
              lambda text: text.replace("always @(posedge clk)", "always @(*)"))
    assert check_bundle(tmp_path, net) == [
        "layer0_n0: line 6 is '    always @(*) begin', expected '    always @(posedge clk) begin'"]


@pytest.mark.parametrize("old, new, line", [
    ("input  wire clk", "input  wire lk", 2),
    ("input  wire clk", "input wire clk", 2),
    (");", ")x;", 5),
    ("begin", "begin // x", 6),
], ids=["port-name", "port-spacing", "declaration-end", "comment"])
def test_checker_flags_edited_rom_header(tmp_path, old, new, line):
    _, net = compiled(layer_widths=(3, 2))
    emit_bundle(net, tmp_path)
    assert (tmp_path / "layer1_n1.v").read_text().count(old) == 1
    edit_file(tmp_path / "layer1_n1.v", lambda text: text.replace(old, new))
    problems = check_bundle(tmp_path, net)
    assert len(problems) == 1 and problems[0].startswith(f"layer1_n1: line {line} is ")


def test_checker_flags_renamed_top_module(tmp_path):
    _, net = compiled(layer_widths=(3, 2))
    emit_bundle(net, tmp_path)
    edit_file(tmp_path / "top.v", lambda text: text.replace("module top (", "module top2 ("))
    assert check_bundle(tmp_path, net) == [
        "top.v: line 1 is 'module top2 (', expected 'module top ('"]


def arm_lines(text):
    """A ROM's lines and the indices of its case arms (not the default)."""
    lines = text.split("\n")
    return lines, [i for i, ln in enumerate(lines) if ": data <=" in ln and "default" not in ln]


def change_arm_value(out):
    def edit(text):
        lines, arms = arm_lines(text)
        head, _, value = lines[arms[3]].rpartition("'h")
        lines[arms[3]] = f"{head}'h{int(value[:-1], 16) ^ 1:x};"
        return "\n".join(lines)
    edit_file(out / "layer1_n0.v", edit)
    return "layer1_n0"


def swap_arms(out):
    def edit(text):
        lines, arms = arm_lines(text)
        lines[arms[1]], lines[arms[2]] = lines[arms[2]], lines[arms[1]]
        return "\n".join(lines)
    edit_file(out / "layer1_n0.v", edit)
    return "layer1_n0"


def swap_data_outputs(out):
    first, second = ".data(layer0_data[0*2 +: 2])", ".data(layer0_data[1*2 +: 2])"

    def edit(text):
        assert first in text and second in text
        return text.replace(first, "@").replace(second, first).replace("@", second)
    edit_file(out / "top.v", edit)
    return "top.v: u_layer0_n0 drives layer0_data[1*2 +: 2]"


def replacing(old, new):
    """An edit that replaces old, which must occur in the text, by new."""
    def edit(text):
        assert old in text
        return text.replace(old, new)
    return edit


def narrow_address_wire(out):
    edit_file(out / "top.v", replacing("wire [3:0] layer1_n0_addr;",
                                       "wire [2:0] layer1_n0_addr;"))
    return "top.v"


def edit_testbench(out):
    edit_file(out / "tb.v", replacing("@(posedge clk);", "@(negedge clk);"))
    return "tb.v"


def wrong_digest(out):
    def edit(text):
        lines = text.split("\n")
        lines[2] = lines[2][:-1] + ("1" if lines[2].endswith("0") else "0")
        return "\n".join(lines)
    edit_file(out / "manifest.txt", edit)
    return "manifest.txt"


def edit_vector(out):
    def edit(text):
        lines = text.split("\n")
        word_in, word_out = lines[5].split()
        lines[5] = f"{word_in} {int(word_out, 16) ^ 1:0{len(word_out)}x}"
        return "\n".join(lines)
    edit_file(out / "vectors.hex", edit)
    return "vectors.hex"


@pytest.mark.parametrize("tamper", [change_arm_value, swap_arms, swap_data_outputs,
                                    narrow_address_wire, edit_testbench, wrong_digest,
                                    edit_vector],
                         ids=lambda tamper: tamper.__name__)
def test_checker_flags_tampering(tmp_path, tamper):
    _, net = compiled(layer_widths=(3, 2))  # layer 1: 4 address bits
    emit_bundle(net, tmp_path)
    assert check_bundle(tmp_path, net) == []
    blamed = tamper(tmp_path)
    problems = check_bundle(tmp_path, net)
    assert any(p.startswith(blamed if ": " in blamed else f"{blamed}: ")
               for p in problems), problems


@pytest.mark.parametrize("edit", [
    lambda arm: arm.replace("6'ha:", "6'h0a:"),
    lambda arm: arm.replace("6'ha:", "6'hA:"),
    lambda arm: arm.replace("5'h7", "5'h07"),
    lambda arm: arm.replace("5'h7", "5'hB"),
    lambda arm: arm.replace(";", ","),
    lambda arm: arm.replace("data <=", "date <="),
    lambda arm: arm.replace("            6'h", "\t           6'h"),
], ids=["address-leading-zero", "upper-case-address", "value-leading-zero", "upper-case-value",
        "no-semicolon", "wrong-register", "tab-indent"])
def test_checker_flags_noncanonical_arm(tmp_path, edit):
    # 6 address bits and 5-bit values: two-digit tokens, so that a leading
    # zero keeps a token within its width
    tables = np.arange(2 * 64, dtype=np.uint32).reshape(2, 64) % 32
    tables[0, 10] = 7
    net = Netlist(input_count=2, input_bits=3, clock_period_ns=1.0, layers=[
        LutLayer(tables=tables, sources=np.array([[0, 1], [1, 0]]), output_bits=5)])
    emit_bundle(net, tmp_path)
    lines, arms = arm_lines((tmp_path / "layer0_n0.v").read_text())
    assert lines[arms[10]] == "            6'ha: data <= 5'h7;"
    edited = edit(lines[arms[10]])
    edit_file(tmp_path / "layer0_n0.v", lambda text: text.replace(lines[arms[10]], edited))
    assert check_bundle(tmp_path, net) == [f"layer0_n0: case arm 10 is malformed: {edited!r}"]


def test_checker_reads_roms_larger_than_a_read_window(tmp_path):
    # 14 address bits: 16384 arms of about 35 bytes, read in three windows
    rng = np.random.default_rng(0)
    layer = LutLayer(tables=rng.integers(0, 8, size=(2, 1 << 14)).astype(np.uint32),
                     sources=np.array([[0, 1], [1, 0]]), output_bits=3)
    net = Netlist(input_count=2, input_bits=7, layers=[layer], clock_period_ns=1.0)
    emit_bundle(net, tmp_path)
    assert check_bundle(tmp_path, net) == []

    def swap(text):
        lines, arms = arm_lines(text)
        lines[arms[12000]], lines[arms[12001]] = lines[arms[12001]], lines[arms[12000]]
        return "\n".join(lines)

    edit_file(tmp_path / "layer0_n1.v", swap)
    assert check_bundle(tmp_path, net) == ["layer0_n1: case arm 12000 has address 2ee1, "
                                           "expected 2ee0"]


@pytest.mark.parametrize("edit", [
    lambda text: text.replace(text[text.index("case (addr)\n") + 12:
                                   text.index("            default:")], ""),
    lambda text: text.replace("4'h3:", "4'h\u0663:"),
    lambda text: text[:text.index("default:") + 10],
    lambda text: text.replace("case (addr)", "case(addr)"),
], ids=["empty-case-body", "non-ascii-address", "truncated-default-arm", "no-case-line"])
def test_checker_reports_unreadable_rom(tmp_path, edit):
    _, net = compiled(layer_widths=(1,))  # 4 address bits
    emit_bundle(net, tmp_path)
    edit_file(tmp_path / "layer0_n0.v", edit)
    problems = check_bundle(tmp_path, net)
    assert any(p.startswith("layer0_n0: ") for p in problems), problems


@pytest.mark.parametrize("fault, blamed", [
    (lambda out: edit_file(out / "layer1_n0.v", lambda text: text[:text.index("4'h5:") + 9]),
     "layer1_n0: "),
    (lambda out: edit_file(out / "layer1_n0.v", lambda text: text.replace("\n", "\r\n")),
     "layer1_n0: line 1 is 'module layer1_n0 (\\r', expected 'module layer1_n0 ('"),
    (lambda out: (out / "layer1_n0.v").unlink(), "layer1_n0.v: cannot read: "),
    (lambda out: (out / "vectors.hex").unlink(), "vectors.hex: cannot read: "),
    (lambda out: (out / "layer9_n0.v").write_text("module layer9_n0;\nendmodule\n"),
     "layer9_n0: not present in the netlist"),
], ids=["truncated-mid-arm", "crlf-line-ends", "deleted-rom", "deleted-vectors", "stray-rom"])
def test_checker_blames_disk_faults(tmp_path, fault, blamed):
    _, net = compiled(layer_widths=(3, 2))  # layer 1: 4 address bits
    emit_bundle(net, tmp_path)
    fault(tmp_path)
    problems = check_bundle(tmp_path, net)
    assert problems and all(p.startswith(blamed) for p in problems), problems


def test_checker_reports_missing_top_once(tmp_path):
    _, net = compiled(layer_widths=(3, 2))  # 5 modules, each wired in top.v
    emit_bundle(net, tmp_path)
    (tmp_path / "top.v").unlink()
    problems = check_bundle(tmp_path, net)
    assert len(problems) == 1 and problems[0].startswith("top.v: cannot read: "), problems


@pytest.mark.parametrize("window", [1, 37, rtl._WINDOW])
def test_checker_blames_the_first_bad_arm_at_every_window(tmp_path, monkeypatch, window):
    # arms 3 and 4 swapped, and arm 9 without its ';': arm 3 is the first bad one
    _, net = compiled(layer_widths=(1,))  # 4 address bits
    emit_bundle(net, tmp_path)

    def edit(text):
        lines, arms = arm_lines(text)
        lines[arms[3]], lines[arms[4]] = lines[arms[4]], lines[arms[3]]
        lines[arms[9]] = lines[arms[9]].replace(";", ",")
        return "\n".join(lines)

    edit_file(tmp_path / "layer0_n0.v", edit)
    monkeypatch.setattr(rtl, "_WINDOW", window)
    assert check_bundle(tmp_path, net) == ["layer0_n0: case arm 3 has address 4, expected 3"]


def test_checker_memory_is_bounded_on_wide_roms(tmp_path):
    # 2**15-arm ROMs: the address table is 2**15 words and 2**15 digit
    # counts, built without 2**15-entry index arrays, and the check holds
    # under three times the bytes of one ROM file
    rng = np.random.default_rng(0)
    layer = LutLayer(tables=rng.integers(0, 32, size=(2, 1 << 15)).astype(np.uint32),
                     sources=np.array([[0, 1, 2], [2, 1, 0]]), output_bits=5)
    net = Netlist(input_count=3, input_bits=5, layers=[layer], clock_period_ns=1.0)
    emit_bundle(net, tmp_path)
    rom_bytes = (tmp_path / "layer0_n0.v").stat().st_size
    tracemalloc.start()
    try:
        words, digits = rtl._address_words(15)
        table_peak = tracemalloc.get_traced_memory()[1]
        del words, digits
        tracemalloc.reset_peak()
        problems = check_bundle(tmp_path, net)
        check_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert problems == []
    assert table_peak <= 9 * (1 << 15) + 4096, table_peak
    assert check_peak < 3 * rom_bytes, (check_peak, rom_bytes)
