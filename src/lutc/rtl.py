"""Verilog-2001 emission: one registered case-statement ROM per neuron, a
top module wired per the sparsity masks, golden vectors, a testbench for
external HDL simulators, and a structural self-checker that re-parses the
emitted text (entry counts, port widths, wiring) without external tools.

The ROMs are formatted one layer at a time: the case-arm prefixes are
built once per layer and shared by its neurons, and only the distinct
values of the layer's (W, 2**N) tables are formatted (tables.hex_rows).

Emission is deterministic: the same netlist always yields byte-identical
files.  Filenames: layer{l}_n{n}.v, top.v, tb.v, vectors.hex, manifest.txt.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

from .netlist import Netlist, simulate
from .tables import TruthTable, hex_rows


@dataclass
class RtlBundle:
    modules: dict  # name -> Verilog text, insertion-ordered
    top: str
    testbench: str
    vectors: str  # hex text, one transaction per line
    manifest: str


def _bus(width: int) -> str:
    return f"[{width - 1}:0]"


def emit_neuron(table, name: str, existing_names: set | None = None) -> str:
    """Synchronous ROM module: registered output, full case coverage plus a
    default arm; address bit order matches the table packing convention."""
    if existing_names is not None:
        if name in existing_names:
            raise ValueError(f"module name collision: {name}")
        existing_names.add(name)
    return next(_rom_modules(table.entries[None], table.input_bits, table.output_bits, [name]))


def _rom_modules(tables: np.ndarray, n: int, b: int, names: list):
    """Yield the ROM module text of each row of a layer's (W, 2**n) tables
    of b-bit entries, named by names."""
    parts = [None] * (2 + 2 * tables.shape[1])
    parts[1:-1:2] = [f"            {n}'h{addr:x}: data <= {b}'h"
                     for addr in range(tables.shape[1])]
    parts[-1] = (f"            default: data <= {b}'h0;\n"
                 "        endcase\n    end\nendmodule\n")
    for name, values in zip(names, hex_rows(tables, ";\n")):
        parts[0] = (f"module {name} (\n    input  wire clk,\n    input  wire {_bus(n)} addr,\n"
                    f"    output reg  {_bus(b)} data\n);\n"
                    "    always @(posedge clk) begin\n        case (addr)\n")
        parts[2:-1:2] = values
        yield "".join(parts)


def _module_name(layer: int, index: int) -> str:
    return f"layer{layer}_n{index}"


def emit_top(netlist: Netlist, name: str = "top") -> str:
    """Instantiate every neuron ROM; inter-layer wiring follows the masks.

    The neuron ROMs register their outputs, so the pipeline depth equals
    the layer count.  Input i of a neuron occupies address bits
    [i*b, (i+1)*b), matching the truth-table packing.
    """
    in_w = netlist.input_count * netlist.input_bits
    out_w = netlist.layers[-1].width * netlist.output_bits
    lines = [
        f"module {name} (",
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


def emit_testbench(netlist: Netlist, top_name: str = "top") -> str:
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

    {top_name} dut (.clk(clk), .in_data(in_data), .out_data(out_data));

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


def emit_bundle(netlist: Netlist, vectors: np.ndarray | None = None,
                top_name: str = "top") -> RtlBundle:
    modules = {}
    manifest_lines = [
        "rtl-manifest v1",
        f"top {top_name} in_bits {netlist.input_count * netlist.input_bits} "
        f"out_bits {netlist.layers[-1].width * netlist.output_bits} "
        f"stages {netlist.n_layers}",
    ]
    for layer, lut in enumerate(netlist.layers):
        names = [_module_name(layer, j) for j in range(lut.width)]
        texts = _rom_modules(lut.tables, lut.address_bits, lut.output_bits, names)
        for name, entries, text in zip(names, lut.tables, texts):
            table = TruthTable(lut.address_bits, lut.output_bits, entries)
            modules[name] = text
            manifest_lines.append(
                f"module {name} input_bits {table.input_bits} "
                f"output_bits {table.output_bits} sha256 {table.sha256()}"
            )
    top = emit_top(netlist, top_name)
    if vectors is None:
        rng = np.random.default_rng(np.random.PCG64(0))
        vectors = rng.integers(0, 1 << netlist.input_bits,
                               size=(64, netlist.input_count)).astype(np.int64)
    vec_text = emit_golden_vectors(netlist, vectors)
    tb = emit_testbench(netlist, top_name)
    return RtlBundle(modules=modules, top=top, testbench=tb, vectors=vec_text,
                     manifest="\n".join(manifest_lines) + "\n")


def write_bundle(bundle: RtlBundle, out_dir) -> list:
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, text in bundle.modules.items():
        path = os.path.join(out_dir, f"{name}.v")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        written.append(path)
    for fname, text in [("top.v", bundle.top), ("tb.v", bundle.testbench),
                        ("vectors.hex", bundle.vectors),
                        ("manifest.txt", bundle.manifest)]:
        path = os.path.join(out_dir, fname)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# Structural self-checker (a light parser over our own emission)

_MODULE_RE = re.compile(r"^module\s+(\w+)\s*\(", re.M)
_ADDR_RE = re.compile(r"input\s+wire\s+\[(\d+):0\]\s+addr")
_DATA_RE = re.compile(r"output\s+reg\s+\[(\d+):0\]\s+data")
_ARM_RE = re.compile(r"^\s*\d+'h[0-9a-f]+\s*:\s*data\s*<=", re.M)
_ASSIGN_RE = re.compile(r"assign\s+(\w+)_addr\s*=\s*\{([^}]*)\};")
_SLICE_RE = re.compile(r"(\w+)\[(\d+)\*(\d+)\s*\+:\s*(\d+)\]")


def check_bundle(bundle: RtlBundle, netlist: Netlist) -> list:
    """Return structural problems (empty list means the bundle is sound).

    Checks: module declarations, registered outputs, one case arm per
    address, port widths, and mask-faithful top-level wiring.
    """
    problems: list[str] = []
    wires = {m.group(1): m.group(2) for m in _ASSIGN_RE.finditer(bundle.top)}
    names = set()
    bits_in = netlist.input_bits
    for layer, lut in enumerate(netlist.layers):
        src_bus = "in_data" if layer == 0 else f"layer{layer - 1}_data"
        for j, sources in enumerate(lut.sources.tolist()):
            name = _module_name(layer, j)
            names.add(name)
            problems += _module_problems(name, bundle.modules.get(name, ""),
                                         lut.address_bits, lut.output_bits)
            concat = wires.get(name)
            if concat is None:
                problems.append(f"top: no address assign for {name}")
                continue
            got = []
            for bus, idx, width, width2 in reversed(_SLICE_RE.findall(concat)):  # MSB first
                if bus != src_bus or width != width2 or int(width) != bits_in:
                    problems.append(f"top: {name} reads from unexpected slice "
                                    f"{bus}[{idx}*{width} +: {width2}]")
                got.append(int(idx))
            if got != sources:
                problems.append(f"top: {name} wiring {got} != mask {sources}")
        bits_in = lut.output_bits
    problems += [f"{name}: not present in the netlist" for name in bundle.modules
                 if name not in names]
    return problems


def _module_problems(name: str, text: str, addr_bits: int, data_bits: int) -> list:
    m = _MODULE_RE.search(text)
    if not m or m.group(1) != name:
        return [f"{name}: missing or mismatched module declaration"]
    problems = []
    am = _ADDR_RE.search(text)
    dm = _DATA_RE.search(text)
    if not am or int(am.group(1)) + 1 != addr_bits:
        problems.append(f"{name}: addr port width != {addr_bits}")
    if not dm or int(dm.group(1)) + 1 != data_bits:
        problems.append(f"{name}: data is not a registered {data_bits}-bit output")
    if "always @(posedge clk)" not in text:
        problems.append(f"{name}: output is not clocked")
    arms = len(_ARM_RE.findall(text))
    if arms != (1 << addr_bits):
        problems.append(f"{name}: {arms} case arms, expected {1 << addr_bits}")
    if "default:" not in text:
        problems.append(f"{name}: missing default arm")
    return problems
