"""Verilog-2001 emission: one registered truth-table ROM per neuron, a
top module `top` wired per the sparsity masks, golden vectors, a
testbench for external HDL simulators, and a self-checker that needs no
external tools.

A ROM of n address bits and b output bits is written the way a LUT is
configured, one truth table per output bit: for each bit k a constant
`BIT_k` of 2**n bits whose bit i is bit k of table entry i, in
lower-case hex with address 2**n-1 in its first digit, and the module
registers `data <= {BIT_{b-1}[addr], ..., BIT_0[addr]}`.  IEEE 1364-2001
lets a tool cap a vector at 2**16 bits, so above 16 address bits each
bit's constant is split into 2**16-bit pieces, `BIT_k_P{p}` holding the
addresses from p*2**16 on, and a case on addr[n-1:16] selects the piece.
Each constant is formatted from the table row with np.packbits and
bytes.hex, and each file is written as soon as its text is formatted.

A table has one canonical digit string, so a ROM holds the netlist's
table exactly when the file is the emitted text.  _bundle yields every
file's name and text in emission order; emit_bundle writes each file,
reads it back as soon as it is written and compares it with the same
formatting of its text, and check_bundle makes that comparison for a
bundle already on disk, byte for byte, naming the first line that
differs.
Every file is checked against the netlist it was emitted from, so a
fault is blamed on its own file: top.v is emit_top's text for the
netlist, so its wiring follows the masks and any wiring or instance edit
is a changed line; vectors.hex is exactly the 64 seeded vectors and the
netlist's outputs that tb.v replays in a simulator.

Emission is deterministic: the same netlist always yields byte-identical
files.  Filenames: layer{l}_n{n}.v, top.v, tb.v, vectors.hex, manifest.txt.
"""

from __future__ import annotations

import glob
import hashlib
import os

import numpy as np

from .netlist import Netlist, simulate


PIECE_BITS = 16  # address bits of one constant: a vector of at most 2**16 bits


def _bus(width: int) -> str:
    return f"[{width - 1}:0]"


def _hex_rows(bits: np.ndarray, digits: int) -> list:
    """The number whose bit i is column i of each row of bits (rows, w), as
    its last `digits` lower-case hex digits: no Python int, so of any width.
    packbits puts bit i at bit i % 8 of byte i // 8, so the reversed bytes
    read in hex are the number."""
    packed = np.packbits(bits, axis=1, bitorder="little")[:, ::-1]
    text, width = packed.tobytes().hex(), 2 * packed.shape[1]
    return [text[at - digits:at] for at in range(width, len(text) + 1, width)]


def _rom_text(name: str, row: np.ndarray, n: int, b: int):
    """A ROM module's text: the ports, one line per constant (output bit k,
    then piece), and the registered read, through a case on the piece when
    the constants are split."""
    bits = min(n, PIECE_BITS)
    size, pieces = 1 << bits, 1 << (n - bits)

    def constant(k, piece):
        return f"BIT_{k}" if pieces == 1 else f"BIT_{k}_P{piece}"

    yield (f"module {name} (\n    input  wire clk,\n    input  wire {_bus(n)} addr,\n"
           f"    output reg  {_bus(b)} data\n);\n")
    for k in range(b):
        for piece in range(pieces):
            bits_k = (row[None, piece * size:(piece + 1) * size] & (1 << k)) != 0
            yield (f"    localparam {_bus(size)} {constant(k, piece)} = {size}'h"
                   f"{_hex_rows(bits_k, -(-size // 4))[0]};\n")
    index = "addr" if pieces == 1 else f"addr[{bits - 1}:0]"

    def read(piece):
        return ", ".join(f"{constant(k, piece)}[{index}]" for k in reversed(range(b)))

    if pieces == 1:
        body = f"        data <= {{{read(0)}}};\n"
    else:
        body = (f"        case (addr[{n - 1}:{bits}])\n"
                + "".join(f"            {n - bits}'h{piece:x}: data <= {{{read(piece)}}};\n"
                          for piece in range(pieces))
                + "        endcase\n")
    yield f"    always @(posedge clk) begin\n{body}    end\nendmodule\n"


def _module_name(layer: int, index: int) -> str:
    return f"layer{layer}_n{index}"


def emit_top(netlist: Netlist) -> str:
    """Instantiate every neuron ROM; inter-layer wiring follows the masks.

    The neuron ROMs register their outputs, so the pipeline depth equals
    the layer count.  Input i of a neuron occupies address bits
    [i*b, (i+1)*b), matching the truth-table packing.
    """
    in_w = netlist.input_count * netlist.input_bits
    out_w = netlist.layers[-1].width * netlist.output_bits
    lines = [
        "module top (",
        "    input  wire clk,",
        f"    input  wire {_bus(in_w)} in_data,",
        f"    output wire {_bus(out_w)} out_data",
        ");",
    ]
    bits_in = netlist.input_bits
    for layer, lut in enumerate(netlist.layers):
        bits_out = lut.output_bits
        src_bus = "in_data" if layer == 0 else f"layer{layer - 1}_data"
        lines.append(f"    wire {_bus(lut.width * bits_out)} layer{layer}_data;")
        for j, sources in enumerate(lut.sources.tolist()):
            # input 0 is the least significant slice, hence last in the concat
            concat = ", ".join(
                f"{src_bus}[{s}*{bits_in} +: {bits_in}]" for s in reversed(sources)
            )
            mod = _module_name(layer, j)
            lines.append(f"    wire {_bus(lut.address_bits)} {mod}_addr;")
            lines.append(f"    assign {mod}_addr = {{{concat}}};")
            lines.append(
                f"    {mod} u_{mod} (.clk(clk), .addr({mod}_addr), "
                f".data(layer{layer}_data[{j}*{bits_out} +: {bits_out}]));"
            )
        bits_in = bits_out
    lines.append(f"    assign out_data = layer{netlist.n_layers - 1}_data;")
    lines.extend(["endmodule", ""])
    return "\n".join(lines)


def emit_golden_vectors(netlist: Netlist, vectors: np.ndarray) -> str:
    """Pair each packed input word with the simulator's packed output word;
    field j of a word of `bits`-bit fields is at bits [j * bits, (j + 1) * bits)."""
    vectors = np.asarray(vectors, dtype=np.int64)
    outs = simulate(netlist, vectors)

    def words(fields, bits):
        width = fields.shape[1] * bits
        word_bits = ((fields[:, :, None] >> np.arange(bits)) & 1).reshape(len(fields), width)
        return _hex_rows(word_bits, (width + 3) // 4)

    in_words, out_words = words(vectors, netlist.input_bits), words(outs, netlist.output_bits)
    return "".join(f"{i} {o}\n" for i, o in zip(in_words, out_words))


def emit_testbench(netlist: Netlist) -> str:
    """Self-checking testbench replaying vectors.hex against the pipeline."""
    in_w = netlist.input_count * netlist.input_bits
    out_w = netlist.layers[-1].width * netlist.output_bits
    depth = netlist.n_layers
    return f"""`timescale 1ns/1ps
module tb;
    reg clk = 0;
    reg [{in_w - 1}:0] in_data;
    wire [{out_w - 1}:0] out_data;
    integer fd, n, errors, i;
    reg [{in_w - 1}:0] stim_in;
    reg [{out_w - 1}:0] expect_out;

    top dut (.clk(clk), .in_data(in_data), .out_data(out_data));

    always #5 clk = ~clk;

    initial begin
        errors = 0;
        fd = $fopen("vectors.hex", "r");
        if (fd == 0) begin $display("cannot open vectors.hex"); $finish; end
        while ($fscanf(fd, "%h %h", stim_in, expect_out) == 2) begin
            in_data = stim_in;
            // flush the {depth}-stage pipeline before checking
            for (i = 0; i < {depth}; i = i + 1) @(posedge clk);
            #1;
            if (out_data !== expect_out) begin
                errors = errors + 1;
                $display("MISMATCH in=%h got=%h exp=%h", stim_in, out_data, expect_out);
            end
        end
        $fclose(fd);
        if (errors == 0) $display("PASS");
        else $display("FAIL: %0d mismatches", errors);
        $finish;
    end
endmodule
"""


def _manifest(netlist: Netlist) -> str:
    """manifest.txt: the top module's widths, then the sha256 digest of
    each ROM's table, its entries as little-endian uint32 words."""
    lines = [
        "rtl-manifest v1",
        f"top top in_bits {netlist.input_count * netlist.input_bits} "
        f"out_bits {netlist.layers[-1].width * netlist.output_bits} "
        f"stages {netlist.n_layers}",
    ]
    for layer, lut in enumerate(netlist.layers):
        for j, row in enumerate(lut.tables):
            digest = hashlib.sha256(np.ascontiguousarray(row, dtype="<u4")).hexdigest()
            lines.append(f"module {_module_name(layer, j)} input_bits {lut.address_bits} "
                         f"output_bits {lut.output_bits} sha256 {digest}")
    return "\n".join(lines) + "\n"


def _golden_vectors(netlist: Netlist) -> str:
    """vectors.hex: 64 seeded random input words and the netlist's outputs
    for them."""
    rng = np.random.default_rng(np.random.PCG64(0))
    vectors = rng.integers(0, 1 << netlist.input_bits, size=(64, netlist.input_count))
    return emit_golden_vectors(netlist, vectors)


def _bundle(netlist: Netlist):
    """Yield the name of each file of the bundle, in emission order, and an
    iterable over its text: each neuron's ROM, one constant line at a time,
    then top.v, tb.v, vectors.hex and manifest.txt."""
    for layer, lut in enumerate(netlist.layers):
        for j, row in enumerate(lut.tables):
            name = _module_name(layer, j)
            yield f"{name}.v", _rom_text(name, row, lut.address_bits, lut.output_bits)
    for fname, emit in (("top.v", emit_top), ("tb.v", emit_testbench),
                        ("vectors.hex", _golden_vectors), ("manifest.txt", _manifest)):
        yield fname, [emit(netlist)]


def emit_bundle(netlist: Netlist, out_dir) -> list:
    """Write every file of the bundle into out_dir, the one writer of the
    bundle, and return check_bundle's problems for it (an empty list means
    it is sound), formatting each file once: its text is written, read
    back through the same handle and compared with the text."""
    os.makedirs(out_dir, exist_ok=True)

    def written():
        for fname, slices in _bundle(netlist):
            text = "".join(slices)
            with open(os.path.join(out_dir, fname), "w+b") as f:
                f.write(text.encode("utf-8"))
                f.seek(0)
                yield fname, text, f.read()

    return _check(out_dir, written())


# ---------------------------------------------------------------------------
# Self-checker: check each emitted file against the netlist

_QUOTE = 80  # characters of a long line quoted in a problem


def check_bundle(out_dir, netlist: Netlist) -> list:
    """Return the problems of the bundle in out_dir (an empty list means it
    is sound), each naming the file that cannot be read, or the module,
    top.v, tb.v, vectors.hex or manifest.txt at fault.

    Every file must be exactly the bytes emit_bundle writes for the
    netlist: each ROM its table's constants, top.v the instances wired per
    the masks, vectors.hex the 64 seeded vectors with the netlist's
    outputs, manifest.txt the sha256 digests of the netlist's tables.
    """
    return _check(out_dir, _on_disk(netlist, out_dir))


def _on_disk(netlist: Netlist, out_dir):
    """Yield the name and text of each file of the bundle, with the bytes
    of the file of that name in out_dir, or the OSError that reading it
    raised."""
    for fname, slices in _bundle(netlist):
        try:
            with open(os.path.join(out_dir, fname), "rb") as f:
                data = f.read()
        except OSError as e:
            data = e
        yield fname, "".join(slices), data


def _check(out_dir, files) -> list:
    """The problems of (name, text, bytes or OSError) triples, one file at
    a time: a file that cannot be read, or the first line where its bytes,
    decoded as UTF-8 with any invalid byte escaped, differ from its text.
    A layer*_n*.v file in out_dir that is not among the names is
    reported."""
    problems, fnames = [], set()
    for fname, want, data in files:
        fnames.add(fname)
        if isinstance(data, OSError):
            problems.append(f"{fname}: cannot read: {data}")
            continue
        # a ROM's problems name its module; no emitted file holds a
        # backslash, so an escaped byte is always a difference
        problems += _first_difference(fname[:-2] if fname.startswith("layer") else fname,
                                      data.decode("utf-8", "backslashreplace"), want)
    problems += [f"{fname[:-2]}: not present in the netlist"
                 for fname in sorted(glob.glob("layer*_n*.v", root_dir=out_dir))
                 if fname not in fnames]
    return problems


def _first_difference(fname: str, got: str, want: str) -> list:
    """A problem naming the first line where got differs from want, if any;
    a line over _QUOTE characters is quoted from shortly before the column
    where it differs."""
    if got == want:
        return []
    got, want = got.split("\n"), want.split("\n")
    k = next((k for k, (g, w) in enumerate(zip(got, want)) if g != w),
             min(len(got), len(want)))
    start = 0
    if k < min(len(got), len(want)) and max(len(got[k]), len(want[k])) > _QUOTE:
        start = max(0, len(os.path.commonprefix([got[k], want[k]])) - _QUOTE // 2)
    got_k, want_k = ((_quote(lines[k], start) if k < len(lines) else "the end of the file")
                     for lines in (got, want))
    return [f"{fname}: line {k + 1} is {got_k}, expected {want_k}"]


def _quote(line: str, start: int) -> str:
    """line quoted from column start for _QUOTE characters, '...' marking a cut."""
    cut = line[start:start + _QUOTE]
    return f"{'...' if start else ''}{cut!r}{'...' if start + len(cut) < len(line) else ''}"
