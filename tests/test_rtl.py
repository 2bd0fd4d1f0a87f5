import numpy as np
import pytest

from lutc.model import NetworkSpec, init_model
from lutc.netlist import LutLayer, Netlist, build_netlist, simulate
from lutc.rtl import (
    check_bundle,
    emit_bundle,
    emit_golden_vectors,
    emit_top,
    parse_golden_vectors,
    write_bundle,
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


def test_rom_entry_count():
    text = emit_bundle(one_layer_netlist(np.arange(16)[None] % 4, 2)).modules["layer0_n0"]
    assert text.count("data <=") == 16 + 1  # all arms + default
    assert "case (addr)" in text
    assert "always @(posedge clk)" in text
    assert "input  wire [3:0] addr" in text
    assert "output reg  [1:0] data" in text


def test_rom_constant_table():
    text = emit_bundle(one_layer_netlist(np.full((1, 4), 3), 2)).modules["layer0_n0"]
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
# Bundle + structural checker


def test_bundle_passes_checker():
    _, net = compiled(layer_widths=(4, 3, 2))
    bundle = emit_bundle(net)
    assert check_bundle(bundle, net) == []
    assert len(bundle.modules) == 9
    assert "rtl-manifest v1" in bundle.manifest


def test_bundle_deterministic():
    model, net = compiled()
    a = emit_bundle(net)
    b = emit_bundle(net)
    assert a.modules == b.modules
    assert a.top == b.top
    assert a.vectors == b.vectors
    assert a.manifest == b.manifest


def test_checker_flags_tampered_wiring():
    _, net = compiled(layer_widths=(3, 2))
    bundle = emit_bundle(net)
    sources = net.layers[1].sources
    # claim different wiring than the emitted top actually uses
    sources[0] = sources[0][::-1].copy()
    problems = check_bundle(bundle, net)
    assert any("wiring" in p or "slice" in p for p in problems)


def test_checker_flags_missing_arm():
    _, net = compiled(layer_widths=(1,))
    bundle = emit_bundle(net)
    name = next(iter(bundle.modules))
    lines = bundle.modules[name].splitlines()
    drop = next(i for i, ln in enumerate(lines)
                if ": data <=" in ln and "default" not in ln)
    bundle.modules[name] = "\n".join(lines[:drop] + lines[drop + 1:])
    problems = check_bundle(bundle, net)
    assert any("case arms" in p for p in problems)


@pytest.mark.parametrize("edit", [
    lambda arms: [arms[0].replace("4'h0:", "4'hzz:")] + arms[1:],
    lambda arms: arms[:1] + arms,
], ids=["malformed-address", "duplicated-arm"])
def test_checker_flags_bad_arm(edit):
    _, net = compiled(layer_widths=(1,))  # 4 address bits
    bundle = emit_bundle(net)
    name = next(iter(bundle.modules))
    lines = bundle.modules[name].splitlines()
    first = next(i for i, ln in enumerate(lines) if ": data <=" in ln)
    arms = lines[first:first + 16]
    bundle.modules[name] = "\n".join(lines[:first] + edit(arms) + lines[first + 16:]) + "\n"
    problems = check_bundle(bundle, net)
    assert any(p.startswith(f"{name}: ") and "case arm" in p for p in problems)


def test_checker_flags_unclocked_output():
    _, net = compiled(layer_widths=(1,))
    bundle = emit_bundle(net)
    name = next(iter(bundle.modules))
    bundle.modules[name] = bundle.modules[name].replace(
        "always @(posedge clk)", "always @(*)"
    )
    assert check_bundle(bundle, net) == [
        f"{name}: line 6 is '    always @(*) begin', expected '    always @(posedge clk) begin'"]


@pytest.mark.parametrize("old, new, line", [
    ("input  wire clk", "input  wire lk", 2),
    ("input  wire clk", "input wire clk", 2),
    (");", ")x;", 5),
    ("begin", "begin // x", 6),
], ids=["port-name", "port-spacing", "declaration-end", "comment"])
def test_checker_flags_edited_rom_header(old, new, line):
    _, net = compiled(layer_widths=(3, 2))
    bundle = emit_bundle(net)
    assert bundle.modules["layer1_n1"].count(old) == 1
    bundle.modules["layer1_n1"] = bundle.modules["layer1_n1"].replace(old, new)
    problems = check_bundle(bundle, net)
    assert len(problems) == 1 and problems[0].startswith(f"layer1_n1: line {line} is ")


def test_checker_flags_renamed_top_module():
    _, net = compiled(layer_widths=(3, 2))
    bundle = emit_bundle(net)
    bundle.top = bundle.top.replace("module top (", "module top2 (")
    assert check_bundle(bundle, net) == [
        "top.v: line 1 is 'module top2 (', expected 'module top ('"]


def arm_lines(text):
    """A ROM's lines and the indices of its case arms (not the default)."""
    lines = text.split("\n")
    return lines, [i for i, ln in enumerate(lines) if ": data <=" in ln and "default" not in ln]


def change_arm_value(bundle):
    lines, arms = arm_lines(bundle.modules["layer1_n0"])
    head, _, value = lines[arms[3]].rpartition("'h")
    lines[arms[3]] = f"{head}'h{int(value[:-1], 16) ^ 1:x};"
    bundle.modules["layer1_n0"] = "\n".join(lines)
    return "layer1_n0"


def swap_arms(bundle):
    lines, arms = arm_lines(bundle.modules["layer1_n0"])
    lines[arms[1]], lines[arms[2]] = lines[arms[2]], lines[arms[1]]
    bundle.modules["layer1_n0"] = "\n".join(lines)
    return "layer1_n0"


def swap_data_outputs(bundle):
    first, second = ".data(layer0_data[0*2 +: 2])", ".data(layer0_data[1*2 +: 2])"
    assert first in bundle.top and second in bundle.top
    bundle.top = bundle.top.replace(first, "@").replace(second, first).replace("@", second)
    return "top.v: u_layer0_n0 drives layer0_data[1*2 +: 2]"


def narrow_address_wire(bundle):
    assert "wire [3:0] layer1_n0_addr;" in bundle.top
    bundle.top = bundle.top.replace("wire [3:0] layer1_n0_addr;", "wire [2:0] layer1_n0_addr;")
    return "top.v"


def edit_testbench(bundle):
    assert "@(posedge clk);" in bundle.testbench
    bundle.testbench = bundle.testbench.replace("@(posedge clk);", "@(negedge clk);")
    return "tb.v"


def wrong_digest(bundle):
    lines = bundle.manifest.split("\n")
    lines[2] = lines[2][:-1] + ("1" if lines[2].endswith("0") else "0")
    bundle.manifest = "\n".join(lines)
    return "manifest.txt"


def edit_vector(bundle):
    lines = bundle.vectors.split("\n")
    word_in, word_out = lines[5].split()
    lines[5] = f"{word_in} {int(word_out, 16) ^ 1:0{len(word_out)}x}"
    bundle.vectors = "\n".join(lines)
    return "vectors.hex"


@pytest.mark.parametrize("tamper", [change_arm_value, swap_arms, swap_data_outputs,
                                    narrow_address_wire, edit_testbench, wrong_digest,
                                    edit_vector],
                         ids=lambda tamper: tamper.__name__)
def test_checker_flags_tampering(tamper):
    _, net = compiled(layer_widths=(3, 2))  # layer 1: 4 address bits
    bundle = emit_bundle(net)
    assert check_bundle(bundle, net) == []
    blamed = tamper(bundle)
    problems = check_bundle(bundle, net)
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
def test_checker_flags_noncanonical_arm(edit):
    # 6 address bits and 5-bit values: two-digit tokens, so that a leading
    # zero keeps a token within its width
    tables = np.arange(2 * 64, dtype=np.uint32).reshape(2, 64) % 32
    tables[0, 10] = 7
    net = Netlist(input_count=2, input_bits=3, clock_period_ns=1.0, layers=[
        LutLayer(tables=tables, sources=np.array([[0, 1], [1, 0]]), output_bits=5)])
    bundle = emit_bundle(net)
    lines, arms = arm_lines(bundle.modules["layer0_n0"])
    assert lines[arms[10]] == "            6'ha: data <= 5'h7;"
    lines[arms[10]] = edit(lines[arms[10]])
    bundle.modules["layer0_n0"] = "\n".join(lines)
    assert check_bundle(bundle, net) == ["layer0_n0: case arm 10 is malformed: "
                                         f"{lines[arms[10]]!r}"]


def test_checker_reads_roms_larger_than_a_read_window():
    # 14 address bits: 16384 arms of about 35 bytes, read in three windows
    rng = np.random.default_rng(0)
    layer = LutLayer(tables=rng.integers(0, 8, size=(2, 1 << 14)).astype(np.uint32),
                     sources=np.array([[0, 1], [1, 0]]), output_bits=3)
    net = Netlist(input_count=2, input_bits=7, layers=[layer], clock_period_ns=1.0)
    assert check_bundle(emit_bundle(net), net) == []
    bundle = emit_bundle(net)
    lines, arms = arm_lines(bundle.modules["layer0_n1"])
    lines[arms[12000]], lines[arms[12001]] = lines[arms[12001]], lines[arms[12000]]
    bundle.modules["layer0_n1"] = "\n".join(lines)
    assert check_bundle(bundle, net) == ["layer0_n1: case arm 12000 has address 2ee1, "
                                         "expected 2ee0"]


@pytest.mark.parametrize("edit", [
    lambda text: text.replace(text[text.index("case (addr)\n") + 12:
                                   text.index("            default:")], ""),
    lambda text: text.replace("4'h3:", "4'h\u0663:"),
    lambda text: text[:text.index("default:") + 10],
    lambda text: text.replace("case (addr)", "case(addr)"),
], ids=["empty-case-body", "non-ascii-address", "truncated-default-arm", "no-case-line"])
def test_checker_reports_unreadable_rom(edit):
    _, net = compiled(layer_widths=(1,))  # 4 address bits
    bundle = emit_bundle(net)
    bundle.modules["layer0_n0"] = edit(bundle.modules["layer0_n0"])
    problems = check_bundle(bundle, net)
    assert any(p.startswith("layer0_n0: ") for p in problems), problems


def test_write_bundle_files(tmp_path):
    _, net = compiled(layer_widths=(2, 2))
    bundle = emit_bundle(net)
    written = write_bundle(bundle, tmp_path)
    names = {p.split("/")[-1] for p in map(str, written)}
    assert {"top.v", "tb.v", "vectors.hex", "manifest.txt",
            "layer0_n0.v", "layer0_n1.v", "layer1_n0.v", "layer1_n1.v"} == names
    for p in written:
        assert (tmp_path / str(p).split("/")[-1]).stat().st_size > 0


def test_write_bundle_byte_identical(tmp_path):
    _, net = compiled()
    write_bundle(emit_bundle(net), tmp_path / "a")
    write_bundle(emit_bundle(net), tmp_path / "b")
    for p in sorted((tmp_path / "a").iterdir()):
        assert p.read_bytes() == (tmp_path / "b" / p.name).read_bytes()
