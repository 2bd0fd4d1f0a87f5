"""Verilog-2001 emission: one registered case-statement ROM per neuron, a
top module `top` wired per the sparsity masks, golden vectors, a
testbench for external HDL simulators, and a self-checker that needs no
external tools.

The checker reads the emitted files back into a netlist: every ROM's case
arms into its table (numpy over the ASCII bytes of each module, a window
of lines at a time, the canonical hex tokens through tables.hex_tokens,
the reader of the table dumps; arm i must carry address i and every
value must fit the width, which bounds their digits), and the sources
and output slice of every instance from top.v.  Those tables must equal
the netlist's and match the manifest digests, the wiring must follow the
masks, and each ROM's text around its arms, top.v and tb.v must be
byte-exact.  vectors.hex is replayed through the netlist read back, the
offline stand-in for running tb.v in a simulator.

The ROM files are written from each layer's (W, 2**N) table array of
the netlist, each as soon as its text is formatted and in slices of
ROM_SLICE_ARMS case arms, so no whole ROM is ever one string: the
case-arm prefixes are built once per run of layers of one (address bits,
output bits) shape and shared by their neurons, and only the distinct
values of the array are formatted (tables.hex_rows).

Emission is deterministic: the same netlist always yields byte-identical
files.  Filenames: layer{l}_n{n}.v, top.v, tb.v, vectors.hex, manifest.txt.
"""

from __future__ import annotations

import glob
import hashlib
import itertools
import os
import re

import numpy as np

from .netlist import LutLayer, Netlist, simulate
from .tables import hex_rows, hex_tokens


ROM_SLICE_ARMS = 1 << 12  # case arms formatted into one string per write


def _bus(width: int) -> str:
    return f"[{width - 1}:0]"


def _rom_files(netlist: Netlist):
    """Yield the file name and text of each neuron's synchronous ROM module,
    one at a time: a registered output, one case arm per address in the
    table packing convention, then a default arm.  The text comes as an
    iterator of slices of ROM_SLICE_ARMS arms, each joined when it is drawn
    from one list of parts; that list, with its case-arm prefixes, is built
    once per run of consecutive layers of one (address bits, output bits)
    shape.  Draw every slice of a file before drawing the next file."""
    shape = None
    for layer, lut in enumerate(netlist.layers):
        n, b, size = lut.address_bits, lut.output_bits, lut.tables.shape[1]
        if (n, b) != shape:
            shape, parts = (n, b), [None] * (2 + 2 * size)
            parts[1:-1:2] = [f"            {n}'h{addr:x}: data <= {b}'h" for addr in range(size)]
            parts[-1] = _rom_tail(b)
        for j, values in enumerate(hex_rows(lut.tables, ";\n")):
            name = _module_name(layer, j)
            parts[0] = _rom_head(name, n, b)
            parts[2:-1:2] = values
            yield f"{name}.v", ("".join(parts[start : start + 2 * ROM_SLICE_ARMS])
                                for start in range(0, len(parts), 2 * ROM_SLICE_ARMS))


def _rom_head(name: str, n: int, b: int) -> str:
    """A ROM module's text before its first address arm."""
    return (f"module {name} (\n    input  wire clk,\n    input  wire {_bus(n)} addr,\n"
            f"    output reg  {_bus(b)} data\n);\n"
            "    always @(posedge clk) begin\n        case (addr)\n")


def _rom_tail(b: int) -> str:
    """A ROM module's text after its last address arm."""
    return f"            default: data <= {b}'h0;\n        endcase\n    end\nendmodule\n"


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
    """Pair each packed input word with the simulator's packed output word."""
    vectors = np.asarray(vectors, dtype=np.int64)
    outs = simulate(netlist, vectors)

    def pack_words(fields, bits):  # python ints: immune to >64-bit widths
        return [sum(int(v) << (j * bits) for j, v in enumerate(row)) for row in fields]

    in_words = pack_words(vectors, netlist.input_bits)
    out_words = pack_words(outs, netlist.output_bits)
    in_w = netlist.input_count * netlist.input_bits
    out_w = netlist.layers[-1].width * netlist.output_bits
    in_digits = (in_w + 3) // 4
    out_digits = (out_w + 3) // 4
    return "".join(
        f"{int(i):0{in_digits}x} {int(o):0{out_digits}x}\n"
        for i, o in zip(in_words, out_words)
    )


def parse_golden_vectors(text: str):
    """Inverse of emit_golden_vectors' formatting: (input, output) word pairs."""
    pairs = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        a, b = line.split()
        pairs.append((int(a, 16), int(b, 16)))
    return pairs


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


def emit_bundle(netlist: Netlist, out_dir) -> list:
    """Write every file of the bundle into out_dir, each ROM as soon as its
    text is formatted, and return their paths; vectors.hex holds 64 seeded
    random input words and the netlist's outputs for them."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(np.random.PCG64(0))
    vectors = rng.integers(0, 1 << netlist.input_bits, size=(64, netlist.input_count))
    written = []
    for fname, slices in itertools.chain(_rom_files(netlist), [
            ("top.v", [emit_top(netlist)]), ("tb.v", [emit_testbench(netlist)]),
            ("vectors.hex", [emit_golden_vectors(netlist, vectors)]),
            ("manifest.txt", [_manifest(netlist)])]):
        written.append(os.path.join(out_dir, fname))
        with open(written[-1], "w", encoding="utf-8") as f:
            f.writelines(slices)
    return written


# ---------------------------------------------------------------------------
# Self-checker: read the emitted files back into a netlist

_ASSIGN_RE = re.compile(r"assign\s+(\w+)_addr\s*=\s*\{([^}]*)\};")
_INSTANCE_RE = re.compile(
    r"^ *(\w+) u_(\w+) \(\.clk\(clk\), \.addr\((\w+)_addr\), \.data\(([^()]*)\)\);$", re.M)
_SLICE_RE = re.compile(r"(\w+)\[(\d+)\*(\d+)\s*\+:\s*(\d+)\]")
_DEFAULT_ARM = "\n            default:"
_WINDOW = 1 << 18  # bytes of case arms read at once: bounds the temporary arrays


def check_bundle(out_dir, netlist: Netlist) -> list:
    """Return the problems of the bundle in out_dir (an empty list means it
    is sound), each naming the file that cannot be read, or the module,
    top.v, tb.v, manifest.txt or vectors.hex at fault.

    Each file is read when its check needs it, without newline translation.
    Every ROM must begin and end with the emitted text, and its case arms
    must follow the emitted template, one arm per address in address order,
    each address and value a canonical hex token.  The values read back
    must equal the netlist's tables, and manifest.txt must list their
    sha256 digests.  Each instance's address concatenation and .data slice
    are read back from top.v and must follow the masks, and top.v and tb.v
    must be exactly what emit_top and emit_testbench write.  A layer*_n*.v
    file the netlist does not name is reported.  The ROMs and wiring read
    back form a netlist, and every vectors.hex line is replayed through it:
    the offline stand-in for running tb.v.
    """
    problems = []

    def read(fname: str):
        try:
            with open(os.path.join(out_dir, fname), encoding="utf-8", newline="") as f:
                return f.read()
        except (OSError, UnicodeDecodeError) as e:
            problems.append(f"{fname}: cannot read: {e}")
            return None

    top, testbench = read("top.v"), read("tb.v")
    for fname, text, want in [("top.v", top, emit_top), ("tb.v", testbench, emit_testbench)]:
        if text is not None:
            problems += _first_difference(fname, text, want(netlist))
    wires = {m.group(1): m.group(2) for m in _ASSIGN_RE.finditer(top or "")}
    instances = {m.group(2): m.groups() for m in _INSTANCE_RE.finditer(top or "")}
    layers, bits_in, prev = [], netlist.input_bits, netlist.input_count
    for layer, lut in enumerate(netlist.layers):
        n, b = lut.address_bits, lut.output_bits
        src_bus = "in_data" if layer == 0 else f"layer{layer - 1}_data"
        # the read-back tables share the netlist's until a ROM reads back differently
        tables, sources = lut.tables, np.empty_like(lut.sources)
        complete = top is not None  # an unreadable top.v is one problem, not one per module
        for j in range(lut.width):
            name = _module_name(layer, j)
            text = read(f"{name}.v")
            values = None if text is None else _read_rom(name, text, n, b, problems)
            complete &= values is not None
            if values is not None and not np.array_equal(values, lut.tables[j]):
                diff = np.flatnonzero(values != lut.tables[j])
                problems.append(f"{name}: {len(diff)} case arm values differ from the "
                                f"netlist table, first at address {diff[0]:x}")
                tables = lut.tables.copy() if tables is lut.tables else tables
                tables[j] = values
            if top is not None:
                complete &= _read_wiring(name, wires.get(name), src_bus, bits_in, prev,
                                         lut.sources[j].tolist(), sources[j], problems)
                complete &= _read_instance(name, instances.get(name), f"layer{layer}_data",
                                           j, b, lut.width, problems)
        if complete:
            layers.append(LutLayer(tables=tables, sources=sources, output_bits=b))
        bits_in, prev = b, lut.width
    names = {_module_name(layer, j) for layer, lut in enumerate(netlist.layers)
             for j in range(lut.width)}
    problems += [f"{fname[:-2]}: not present in the netlist"
                 for fname in sorted(glob.glob("layer*_n*.v", root_dir=out_dir))
                 if fname[:-2] not in names]
    if len(layers) == netlist.n_layers:
        try:
            readback = Netlist(input_count=netlist.input_count, input_bits=netlist.input_bits,
                               layers=layers, clock_period_ns=netlist.clock_period_ns)
        except ValueError as e:
            problems.append(f"top.v: {e}")
        else:
            manifest, vectors = read("manifest.txt"), read("vectors.hex")
            if manifest is not None:
                problems += _first_difference("manifest.txt", manifest, _manifest(readback))
            if vectors is not None:
                problems += _vector_problems(vectors, readback)
    return problems


def _read_rom(name: str, text: str, n: int, b: int, problems: list):
    """The table read back from a ROM module, or None (with a problem) if
    it cannot be read."""
    head = _rom_head(name, n, b)
    if not text.startswith(head):
        problems += _first_difference(name, text[:len(head)], head)
        return None
    if not text.endswith("\n" + _rom_tail(b)):
        problems.append(f"{name}: does not end with the default arm and endmodule")
    values = _read_arms(text, len(head), n, b)
    if isinstance(values, str):
        problems.append(f"{name}: {values}")
        return None
    return values


def _read_arms(text: str, start: int, n: int, b: int):
    """A ROM's case-arm values in address order, or what prevents reading
    them; the arms begin at start.  They are read as ASCII bytes, a window
    of whole lines at a time: the lines end at the newlines, each holds one
    ':', and around its address and value hex tokens lie the template's
    fixed bytes."""
    stop = text.rfind(_DEFAULT_ARM, start - 1) + 1
    if stop < start:
        return "missing default arm"
    count = text.count("\n", start, stop)
    if count != 1 << n:
        return f"{count} case arms, expected {1 << n}"
    prefix, infix = f"            {n}'h".encode(), f": data <= {b}'h".encode()
    # padding keeps every fixed-offset read of a short or bad line in bounds
    pad = "\0" * (len(prefix) + len(infix) + 16)
    values = np.empty(count, dtype=np.int64)
    first = 0
    while start < stop:
        cut = text.find("\n", min(start + _WINDOW, stop) - 1, stop) + 1
        try:
            buf = np.frombuffer((text[start:cut] + pad).encode("ascii"), dtype=np.uint8)
        except UnicodeEncodeError:
            return "non-ASCII case arms"
        ends = np.flatnonzero(buf[:cut - start] == ord("\n"))
        fault = _parse_arms(buf, first, ends, prefix, infix, n, b,
                            values[first:first + len(ends)])
        if fault:
            return fault
        first, start = first + len(ends), cut
    return values


def _parse_arms(buf: np.ndarray, first: int, ends: np.ndarray, prefix: bytes, infix: bytes,
                n: int, b: int, out: np.ndarray) -> str:
    """Parse the arm lines of buf, which end at ends, into out, the values
    of addresses first onwards; returns what is wrong with the first bad
    line, or ''."""
    starts = np.empty_like(ends)
    starts[0], starts[1:] = 0, ends[:-1] + 1
    colons = np.flatnonzero(buf[:ends[-1]] == ord(":"))
    if len(colons) != len(ends) or (colons > ends).any() or (colons < starts).any():
        once = np.diff(np.searchsorted(colons, ends), prepend=0) == 1
        return _bad_arm(buf, first, starts, ends, once)
    words = np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))
    addr_start, value_start = starts + len(prefix), colons + len(infix)
    addr_len, value_len = colons - addr_start, ends - 1 - value_start
    addrs, ok = hex_tokens(buf, addr_start, addr_len)
    values, value_ok = hex_tokens(buf, value_start, value_len)
    ok &= (value_ok & (values < 1 << b) & (buf[ends - 1] == ord(";"))
           & _template_at(words, starts, prefix) & _template_at(words, colons, infix))
    if not ok.all():
        return _bad_arm(buf, first, starts, ends, ok)
    wrong = np.flatnonzero(addrs != np.arange(first, first + len(ends)))
    if len(wrong):
        i = first + wrong[0]
        return f"case arm {i} has address {addrs[wrong[0]]:x}, expected {i:x}"
    out[:] = values
    return ""


def _template_at(words: np.ndarray, starts: np.ndarray, template: bytes) -> np.ndarray:
    """Whether template (8 bytes or more) begins at each start, compared as
    8-byte words; words holds the little-endian word at each byte offset."""
    ok = np.ones(len(starts), dtype=bool)
    for k in sorted({*range(0, len(template) - 8, 8), len(template) - 8}):
        ok &= words[starts + k] == int.from_bytes(template[k:k + 8], "little")
    return ok


def _bad_arm(buf: np.ndarray, first: int, starts: np.ndarray, ends: np.ndarray,
             ok: np.ndarray) -> str:
    i = int(np.argmin(ok))
    return f"case arm {first + i} is malformed: {buf[starts[i]:ends[i]].tobytes().decode()!r}"


def _slice_index(text: str, bus: str, bits: int, count: int) -> int:
    """k if text is the slice bus[k*bits +: bits] of a bus of count slices,
    else -1."""
    m = _SLICE_RE.fullmatch(text)
    if m and m.group(1) == bus and int(m.group(3)) == bits and int(m.group(4)) == bits:
        k = int(m.group(2))
        return k if k < count else -1
    return -1


def _read_wiring(name: str, concat, src_bus: str, bits: int, count: int, want: list,
                 out: np.ndarray, problems: list) -> bool:
    """Read a module's sources from its address concatenation in top.v
    (input 0 is the last slice) into out and report where they differ from
    want; returns whether out was filled."""
    if concat is None:
        problems.append(f"top.v: no address assign for {name}")
        return False
    got = []
    for part in reversed(concat.split(", ")):
        got.append(_slice_index(part, src_bus, bits, count))
        if got[-1] < 0:
            problems.append(f"top.v: {name} reads from unexpected slice {part}")
    if got != want:
        problems.append(f"top.v: {name} wiring {got} != mask {want}")
    if len(got) != len(out) or min(got) < 0:
        return False
    out[:] = got
    return True


def _read_instance(name: str, instance, bus: str, j: int, b: int, width: int,
                   problems: list) -> bool:
    """Whether module name's instance is u_{name}, reads {name}_addr and
    drives slice j of bus; reports where it does not."""
    if instance is None:
        problems.append(f"top.v: no instance u_{name}")
        return False
    module, _, wire, data = instance
    if module != name or wire != name:
        problems.append(f"top.v: u_{name} instantiates {module} on {wire}_addr")
    if _slice_index(data, bus, b, width) != j:
        problems.append(f"top.v: u_{name} drives {data}, expected {bus}[{j}*{b} +: {b}]")
        return False
    return module == name and wire == name


def _first_difference(fname: str, got: str, want: str) -> list:
    """A problem naming the first line where got differs from want, if any."""
    if got == want:
        return []
    got, want = got.split("\n"), want.split("\n")
    k = next((k for k, (g, w) in enumerate(zip(got, want)) if g != w),
             min(len(got), len(want)))
    got_k, want_k = ((repr(lines[k]) if k < len(lines) else "the end of the file")
                     for lines in (got, want))
    return [f"{fname}: line {k + 1} is {got_k}, expected {want_k}"]


def _vector_problems(text: str, readback: Netlist) -> list:
    """Replay every vectors.hex input word through the read-back netlist;
    each line must be what emit_golden_vectors writes for that word."""
    in_w = readback.input_count * readback.input_bits
    lines = text.split("\n")
    if lines.pop() != "":
        return ["vectors.hex: does not end with a newline"]
    fields = np.empty((len(lines), readback.input_count), dtype=np.int64)
    mask = (1 << readback.input_bits) - 1
    for k, line in enumerate(lines):
        try:
            word = int(line.split(" ")[0], 16)
        except ValueError:
            word = -1
        if not 0 <= word < 1 << in_w:
            return [f"vectors.hex: line {k + 1} {line!r} has no {in_w}-bit input word"]
        fields[k] = [(word >> (i * readback.input_bits)) & mask
                     for i in range(readback.input_count)]
    want = emit_golden_vectors(readback, fields).split("\n")
    bad = [k for k, (g, w) in enumerate(zip(lines, want)) if g != w]
    if not bad:
        return []
    return [f"vectors.hex: {len(bad)} of {len(lines)} lines disagree with the read-back "
            f"netlist, first line {bad[0] + 1}: {lines[bad[0]]!r}, expected {want[bad[0]]!r}"]
