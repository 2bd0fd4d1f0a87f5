import builtins
import tracemalloc

import numpy as np
import pytest

import lutc.rtl as rtl_mod
from lutc.model import NetworkSpec, init_model
from lutc.netlist import LutLayer, Netlist, build_netlist, simulate
from lutc.rtl import (
    check_bundle,
    emit_bundle,
    emit_golden_vectors,
    emit_testbench,
    emit_top,
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
    # bit k of entry i is bit i of BIT_k, address 15 in the first digit
    emit_bundle(one_layer_netlist(np.arange(16)[None] % 4, 2), tmp_path)
    text = (tmp_path / "layer0_n0.v").read_text()
    assert text.count("localparam") == 2
    assert "    localparam [15:0] BIT_0 = 16'haaaa;\n" in text
    assert "    localparam [15:0] BIT_1 = 16'hcccc;\n" in text
    assert "always @(posedge clk)" in text
    assert "        data <= {BIT_1[addr], BIT_0[addr]};\n" in text
    assert "input  wire [3:0] addr" in text
    assert "output reg  [1:0] data" in text


def test_rom_constant_table(tmp_path):
    emit_bundle(one_layer_netlist(np.full((1, 4), 3), 2), tmp_path)
    text = (tmp_path / "layer0_n0.v").read_text()
    constants = [ln for ln in text.splitlines() if "localparam" in ln]
    assert constants == ["    localparam [3:0] BIT_0 = 4'hf;",
                         "    localparam [3:0] BIT_1 = 4'hf;"]


def test_rom_splits_constants_above_16_address_bits(tmp_path):
    # 17 address bits: each bit's constant is two 2**16-bit pieces, the
    # second holding addresses 0x10000-0x1ffff, selected by addr[16:16]
    rng = np.random.default_rng(0)
    net = one_layer_netlist(rng.integers(0, 4, size=(1, 1 << 17)), 2)
    emit_bundle(net, tmp_path)
    assert check_bundle(tmp_path, net) == []
    path = tmp_path / "layer0_n0.v"
    text = path.read_text()
    lines = text.split("\n")
    assert [ln[:ln.index("'h") + 2] for ln in lines[5:9]] == [
        f"    localparam [65535:0] BIT_{k}_P{p} = 65536'h" for k in (0, 1) for p in (0, 1)]
    assert lines[9:14] == [
        "    always @(posedge clk) begin", "        case (addr[16:16])",
        "            1'h0: data <= {BIT_1_P0[addr[15:0]], BIT_0_P0[addr[15:0]]};",
        "            1'h1: data <= {BIT_1_P1[addr[15:0]], BIT_0_P1[addr[15:0]]};",
        "        endcase"]
    # bit 0 of address 0x1fffd is the second-lowest bit of BIT_0_P1's first digit
    first = text.index("BIT_0_P1 = 65536'h") + 18
    flipped = f"{int(text[first], 16) ^ 2:x}"
    for digit in (flipped, "G"):
        edit_file(path, lambda text: text[:first] + digit + text[first + 1:])
        problems = check_bundle(tmp_path, net)
        assert len(problems) == 1 and problems[0].startswith(
            f"layer0_n0: line 7 is ...\" localparam [65535:0] BIT_0_P1 = 65536'h{digit}"), problems


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


def parse_golden_vectors(text):
    """(input, output) word pairs of a vectors.hex text."""
    return [tuple(int(word, 16) for word in line.split()) for line in text.splitlines()]


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
    assert emit_bundle(net, tmp_path) == []
    assert check_bundle(tmp_path, net) == []
    assert len(list(tmp_path.glob("layer*_n*.v"))) == 9
    assert "rtl-manifest v1" in (tmp_path / "manifest.txt").read_text()


def test_bundle_deterministic(tmp_path):
    # re-emitting into the same directory writes the same files and bytes
    _, net = compiled()
    assert emit_bundle(net, tmp_path) == []
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert emit_bundle(net, tmp_path) == []
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_write_bundle_byte_identical(tmp_path):
    _, net = compiled()
    assert emit_bundle(net, tmp_path / "a") == []
    assert emit_bundle(net, tmp_path / "b") == []
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_emit_bundle_files(tmp_path):
    _, net = compiled(layer_widths=(2, 2))
    assert emit_bundle(net, tmp_path) == []
    written = list(tmp_path.iterdir())
    assert {"top.v", "tb.v", "vectors.hex", "manifest.txt", "layer0_n0.v", "layer0_n1.v",
            "layer1_n0.v", "layer1_n1.v"} == {p.name for p in written}
    for p in written:
        assert p.stat().st_size > 0


def test_emit_bundle_writes_the_formatters_bytes(tmp_path):
    """lutc emit's one writer puts the formatters' texts on disk byte for
    byte and finds no problem with them, nor does check_bundle."""
    _, net = compiled(layer_widths=(4, 3, 2))
    assert emit_bundle(net, tmp_path) == []
    assert (tmp_path / "top.v").read_bytes() == emit_top(net).encode("utf-8")
    assert (tmp_path / "tb.v").read_bytes() == emit_testbench(net).encode("utf-8")
    assert check_bundle(tmp_path, net) == []


def test_emit_bundle_reports_stray_modules(tmp_path):
    """A ROM left by an earlier, wider netlist is reported as check_bundle
    reports it."""
    _, wide = compiled(layer_widths=(4, 2))
    _, narrow = compiled(layer_widths=(3, 2))
    assert emit_bundle(wide, tmp_path) == []
    assert emit_bundle(narrow, tmp_path) == ["layer0_n3: not present in the netlist"]
    assert check_bundle(tmp_path, narrow) == ["layer0_n3: not present in the netlist"]


def test_emit_bundle_reads_back_what_was_written(tmp_path, monkeypatch):
    """The comparison reads the bytes the file holds: a write that loses
    the last byte of each file is named at the file's last line."""
    class Lossy:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.f.__exit__(*exc)

        def write(self, data):
            return self.f.write(data[:-1])

        def __getattr__(self, name):
            return getattr(self.f, name)

    _, net = compiled()
    monkeypatch.setattr(rtl_mod, "open", lambda *a, **k: Lossy(builtins.open(*a, **k)),
                        raising=False)
    problems = emit_bundle(net, tmp_path)
    assert problems and all("expected" in p for p in problems)
    assert any(p.startswith("top.v: line") for p in problems)


def test_checker_flags_tampered_wiring(tmp_path):
    _, net = compiled(layer_widths=(3, 2))
    emit_bundle(net, tmp_path)
    sources = net.layers[1].sources
    # claim different wiring than the emitted top actually uses
    sources[0] = sources[0][::-1].copy()
    problems = check_bundle(tmp_path, net)
    assert any(p.startswith("top.v: line 18 is '    assign layer1_n0_addr = {")
               for p in problems), problems


def constant_lines(text):
    """A ROM's lines and the indices of its constant lines."""
    lines = text.split("\n")
    return lines, [i for i, ln in enumerate(lines) if ln.startswith("    localparam ")]


def test_checker_flags_missing_arm(tmp_path):
    # a ROM without the line of one of its constants
    _, net = compiled(layer_widths=(1,))
    emit_bundle(net, tmp_path)

    def drop_constant(text):
        lines, constants = constant_lines(text)
        return "\n".join(lines[:constants[0]] + lines[constants[0] + 1:])

    edit_file(tmp_path / "layer0_n0.v", drop_constant)
    problems = check_bundle(tmp_path, net)
    assert len(problems) == 1 and problems[0].startswith("layer0_n0: line 6 is "), problems


@pytest.mark.parametrize("edit, line", [
    (lambda lines, i: lines[:i] + [lines[i].replace("[15:0]", "[16:0]")] + lines[i + 1:], 7),
    (lambda lines, i: lines[:i] + lines[i:i + 1] + lines[i:], 8),
], ids=["malformed-address", "duplicated-arm"])
def test_checker_flags_bad_arm(tmp_path, edit, line):
    # a constant line with the wrong address range, or one written twice
    _, net = compiled(layer_widths=(1,))  # 4 address bits, 2 output bits
    emit_bundle(net, tmp_path)

    def edit_constants(text):
        lines, constants = constant_lines(text)
        return "\n".join(edit(lines, constants[1]))

    edit_file(tmp_path / "layer0_n0.v", edit_constants)
    problems = check_bundle(tmp_path, net)
    assert len(problems) == 1 and problems[0].startswith(f"layer0_n0: line {line} is "), problems


def test_checker_flags_unclocked_output(tmp_path):
    _, net = compiled(layer_widths=(1,))
    emit_bundle(net, tmp_path)
    edit_file(tmp_path / "layer0_n0.v",
              lambda text: text.replace("always @(posedge clk)", "always @(*)"))
    assert check_bundle(tmp_path, net) == [
        "layer0_n0: line 8 is '    always @(*) begin', expected '    always @(posedge clk) begin'"]


@pytest.mark.parametrize("old, new, line", [
    ("input  wire clk", "input  wire lk", 2),
    ("input  wire clk", "input wire clk", 2),
    (");", ")x;", 5),
    ("begin", "begin // x", 8),
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


def change_arm_value(out):
    """Change one digit of a constant to another hex digit."""
    def edit(text):
        lines, constants = constant_lines(text)
        line = lines[constants[0]]
        lines[constants[0]] = f"{line[:-2]}{int(line[-2], 16) ^ 1:x};"
        return "\n".join(lines)
    edit_file(out / "layer1_n0.v", edit)
    return "layer1_n0: line 6 is "


def swap_arms(out):
    """Swap the lines of two constants."""
    def edit(text):
        lines, constants = constant_lines(text)
        lines[constants[0]], lines[constants[1]] = lines[constants[1]], lines[constants[0]]
        return "\n".join(lines)
    edit_file(out / "layer1_n0.v", edit)
    return "layer1_n0: line 6 is "


def swap_data_outputs(out):
    first, second = ".data(layer0_data[0*2 +: 2])", ".data(layer0_data[1*2 +: 2])"

    def edit(text):
        assert first in text and second in text
        return text.replace(first, "@").replace(second, first).replace("@", second)
    edit_file(out / "top.v", edit)
    return "top.v: line 9 is "


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


def substitute_vector(out):
    """Another input word in place of one, with the netlist's own output for
    it: tb.v would pass the line, but it is not one of the seeded vectors."""
    def edit(text):
        lines = text.split("\n")
        lines[5] = next(ln for ln in lines[6:] if ln.split()[0] != lines[5].split()[0])
        return "\n".join(lines)
    edit_file(out / "vectors.hex", edit)
    return "vectors.hex: line 6 is "


@pytest.mark.parametrize("tamper", [change_arm_value, swap_arms, swap_data_outputs,
                                    narrow_address_wire, edit_testbench, wrong_digest,
                                    edit_vector, substitute_vector],
                         ids=lambda tamper: tamper.__name__)
def test_checker_flags_tampering(tmp_path, tamper):
    _, net = compiled(layer_widths=(3, 2))  # layer 1: 4 address bits
    emit_bundle(net, tmp_path)
    assert check_bundle(tmp_path, net) == []
    blamed = tamper(tmp_path)
    problems = check_bundle(tmp_path, net)
    assert any(p.startswith(blamed if ": " in blamed else f"{blamed}: ")
               for p in problems), problems
    # the edited file alone is blamed
    assert all(p.startswith(blamed.split(": ")[0] + ": ") for p in problems), problems


EXPECTED_BIT_0 = ", expected \"    localparam [63:0] BIT_0 = 64'haaaaaaaaaaaaaeaa;\""


@pytest.mark.parametrize("old, new, problem", [
    ("[63:0] BIT_0", "[063:0] BIT_0",
     "line 6 is \"    localparam [063:0] BIT_0 = 64'haaaaaaaaaaaaaeaa;\"" + EXPECTED_BIT_0),
    ("BIT_0 = 64'h", "BIT_0 = 64'H",
     "line 6 is \"    localparam [63:0] BIT_0 = 64'Haaaaaaaaaaaaaeaa;\"" + EXPECTED_BIT_0),
    ("BIT_0 = 64'h", "BIT_0 = 64'h0",
     "line 6 is \"    localparam [63:0] BIT_0 = 64'h0aaaaaaaaaaaaaeaa;\"" + EXPECTED_BIT_0),
    ("aeaa;", "aEaa;",
     "line 6 is \"    localparam [63:0] BIT_0 = 64'haaaaaaaaaaaaaEaa;\"" + EXPECTED_BIT_0),
    ("aeaa;", "aeaa,",
     "line 6 is \"    localparam [63:0] BIT_0 = 64'haaaaaaaaaaaaaeaa,\"" + EXPECTED_BIT_0),
    ("data <=", "date <=",
     "line 12 is '        date <= {BIT_4[addr], BIT_3[addr], BIT_2[addr], BIT_1[addr], "
     "BIT_0[addr]'..., expected '        data <= {BIT_4[addr], BIT_3[addr], BIT_2[addr], "
     "BIT_1[addr], BIT_0[addr]'..."),
    ("    localparam [63:0] BIT_0", "\tlocalparam [63:0] BIT_0",
     "line 6 is \"\\tlocalparam [63:0] BIT_0 = 64'haaaaaaaaaaaaaeaa;\"" + EXPECTED_BIT_0),
    ("aeaa;", "agaa;",
     "line 6 is \"    localparam [63:0] BIT_0 = 64'haaaaaaaaaaaaagaa;\"" + EXPECTED_BIT_0),
    ("aeaa;", "a\u0663aa;",
     "line 6 is \"    localparam [63:0] BIT_0 = 64'haaaaaaaaaaaaa\u0663aa;\"" + EXPECTED_BIT_0),
], ids=["address-leading-zero", "upper-case-address", "value-leading-zero", "upper-case-value",
        "no-semicolon", "wrong-register", "tab-indent", "non-hex-value", "non-ascii-value"])
def test_checker_flags_noncanonical_arm(tmp_path, old, new, problem):
    # 6 address bits and 5-bit values: BIT_0 is 16 digits, entry 10 the
    # only even entry with bit 0 set
    tables = np.arange(2 * 64, dtype=np.uint32).reshape(2, 64) % 32
    tables[0, 10] = 7
    net = Netlist(input_count=2, input_bits=3, clock_period_ns=1.0, layers=[
        LutLayer(tables=tables, sources=np.array([[0, 1], [1, 0]]), output_bits=5)])
    emit_bundle(net, tmp_path)
    lines, constants = constant_lines((tmp_path / "layer0_n0.v").read_text())
    assert lines[constants[0]] == "    localparam [63:0] BIT_0 = 64'haaaaaaaaaaaaaeaa;"
    edit_file(tmp_path / "layer0_n0.v", replacing(old, new))
    assert check_bundle(tmp_path, net) == [f"layer0_n0: {problem}"]


@pytest.mark.parametrize("n, digit", [(1, "4"), (1, "8"), (2, "8")],
                         ids=["pad-bit-2", "pad-bit-3", "no-pad-bits"])
def test_checker_flags_set_pad_bit(tmp_path, n, digit):
    # a constant of 2**n < 4 bits fills its one digit's low bits only
    net = one_layer_netlist(np.zeros((1, 1 << n), dtype=np.uint32), 2)
    emit_bundle(net, tmp_path)
    edit_file(tmp_path / "layer0_n0.v", replacing(f"BIT_1 = {1 << n}'h0;",
                                                  f"BIT_1 = {1 << n}'h{digit};"))
    line = f"    localparam [{(1 << n) - 1}:0] BIT_1 = {1 << n}'h"
    assert check_bundle(tmp_path, net) == [
        f"layer0_n0: line 7 is {line + digit + ';'!r}, expected {line + '0;'!r}"]


@pytest.mark.parametrize("edit", [
    lambda text: "".join(ln for ln in text.splitlines(True) if "localparam" not in ln),
    lambda text: text.replace("[15:0] BIT_1", "[1\u0665:0] BIT_1"),
    lambda text: text[:text.index("endmodule")],
    lambda text: text.replace("    always @(posedge clk) begin\n", ""),
], ids=["empty-case-body", "non-ascii-address", "truncated-default-arm", "no-case-line"])
def test_checker_reports_unreadable_rom(tmp_path, edit):
    # no constants, a non-ASCII range, no endmodule, no always line
    _, net = compiled(layer_widths=(1,))  # 4 address bits
    emit_bundle(net, tmp_path)
    edit_file(tmp_path / "layer0_n0.v", edit)
    problems = check_bundle(tmp_path, net)
    assert len(problems) == 1 and problems[0].startswith("layer0_n0: line "), problems


@pytest.mark.parametrize("fault, blamed", [
    (lambda out: edit_file(out / "layer1_n0.v",
                           lambda text: text[:text.index("BIT_1 = 16'h") + 14]),
     "layer1_n0: line 7 is \"    localparam [15:0] BIT_1 = 16'h"),
    (lambda out: edit_file(out / "layer1_n0.v", lambda text: text.replace("\n", "\r\n")),
     "layer1_n0: line 1 is 'module layer1_n0 (\\r', expected 'module layer1_n0 ('"),
    (lambda out: (out / "layer1_n0.v").unlink(), "layer1_n0.v: cannot read: "),
    (lambda out: (out / "vectors.hex").unlink(), "vectors.hex: cannot read: "),
    (lambda out: edit_file(out / "vectors.hex", lambda text: "".join(text.splitlines(True)[:10])),
     "vectors.hex: line 11 is '', expected "),
    (lambda out: (out / "vectors.hex").write_text(""),
     "vectors.hex: line 1 is '', expected "),
    (lambda out: (out / "layer9_n0.v").write_text("module layer9_n0;\nendmodule\n"),
     "layer9_n0: not present in the netlist"),
], ids=["truncated-mid-arm", "crlf-line-ends", "deleted-rom", "deleted-vectors",
        "truncated-vectors", "emptied-vectors", "stray-rom"])
def test_checker_blames_disk_faults(tmp_path, fault, blamed):
    _, net = compiled(layer_widths=(3, 2))  # layer 1: 4 address bits
    emit_bundle(net, tmp_path)
    fault(tmp_path)
    problems = check_bundle(tmp_path, net)
    assert problems and all(p.startswith(blamed) for p in problems), problems


@pytest.mark.parametrize("fname, blamed, line", [("top.v", "top.v", "top ("),
                                                 ("layer1_n0.v", "layer1_n0", "layer1_n0 (")])
def test_checker_names_an_invalid_byte_at_its_line(tmp_path, fname, blamed, line):
    # a byte that is not UTF-8 is escaped in the quote of its line, in a
    # ROM as in any other file
    _, net = compiled(layer_widths=(3, 2))
    emit_bundle(net, tmp_path)
    path = tmp_path / fname
    path.write_bytes(path.read_bytes().replace(b"module ", b"module \xff", 1))
    assert check_bundle(tmp_path, net) == [
        f"{blamed}: line 1 is 'module \\\\xff{line}', expected 'module {line}'"]


def test_checker_reports_missing_top_once(tmp_path):
    _, net = compiled(layer_widths=(3, 2))  # 5 modules, each wired in top.v
    emit_bundle(net, tmp_path)
    (tmp_path / "top.v").unlink()
    problems = check_bundle(tmp_path, net)
    assert len(problems) == 1 and problems[0].startswith("top.v: cannot read: "), problems


@pytest.mark.parametrize("first, second, problem", [
    ("BIT_0", "BIT_1", "line 6 is "),
    ("BIT_1", "BIT_0", "line 6 is "),
], ids=["line-first", "digit-first"])
def test_checker_blames_the_first_fault_in_the_file(tmp_path, first, second, problem):
    # a ';' edited on the line of one constant and a digit on the other's
    _, net = compiled(layer_widths=(1,))  # 4 address bits, 2 output bits
    emit_bundle(net, tmp_path)

    def edit(text):
        lines = text.split("\n")
        for i, line in enumerate(lines):
            if f" {first} = " in line:
                lines[i] = line.replace(";", ",")
            elif f" {second} = " in line:
                lines[i] = line[:-5] + "g" + line[-4:]  # its first digit
        return "\n".join(lines)

    edit_file(tmp_path / "layer0_n0.v", edit)
    problems = check_bundle(tmp_path, net)
    assert len(problems) == 1 and problems[0].startswith(f"layer0_n0: {problem}"), problems


def test_checker_memory_is_bounded_on_wide_roms(tmp_path):
    # 2**15-entry, 5-bit ROMs: a file is its digits and a bounded text per
    # constant, not a line per address, and the check holds a few copies
    # of one table's entries
    n, b = 15, 5
    rng = np.random.default_rng(0)
    layer = LutLayer(tables=rng.integers(0, 1 << b, size=(2, 1 << n)).astype(np.uint32),
                     sources=np.array([[0, 1, 2], [2, 1, 0]]), output_bits=b)
    net = Netlist(input_count=3, input_bits=5, layers=[layer], clock_period_ns=1.0)
    emit_bundle(net, tmp_path)
    for path in tmp_path.glob("layer*_n*.v"):
        assert path.stat().st_size <= b * (-(-(1 << n) // 4) + 64) + 256, path
    tracemalloc.start()
    try:
        problems = check_bundle(tmp_path, net)
        check_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert problems == []
    assert check_peak <= 3 * 1.19e6, check_peak
    assert check_peak <= 6 * layer.tables[0].nbytes, check_peak
