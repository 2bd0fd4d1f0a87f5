"""A reading of the Verilog subset that lutc emits, for the tests: it
parses a bundle's ROM modules, top.v and tb.v, and replays vectors.hex
through them one clock edge at a time, with no HDL simulator.  It reads
only the files and shares no code with the emitter.

The subset, each statement on a line of its own:
- a ROM module: ports clk, addr and a registered data output;
  `localparam [H:0] NAME = W'h...;` constants; an `always @(posedge clk)`
  block that registers `data <= {C_{b-1}[index], ..., C_0[index]};`, the
  first element the most significant, either directly or in the arms
  `K'hP:` of a `case (addr[h:l])` that selects a piece;
- top.v: ports clk, in_data and out_data, `wire` buses, `assign NAME =
  {bus[s*b +: b], ...};` concatenations (most significant first), one
  instance per ROM whose data drives `bus[j*b +: b]`, and
  `assign out_data = bus;`;
- tb.v: `in_data = stim_in;`, the flush loop `for (i = 0; i < N; i = i +
  1) @(posedge clk);`, `#1;` and the `out_data !== expect_out` check, in
  that order.
Anything else raises SubsetError naming the file and the line.

Each bus value is a pair of ints (value, x): bit k of x set means bit k
is unknown.  Every register starts unknown, an index with an unknown bit
reads an unknown bit, and a case whose selector is unknown or matches no
item leaves data as it was, as in a simulator."""

from __future__ import annotations

import os
import re

_NAME = r"[A-Za-z_]\w*"
_SLICE = re.compile(rf"({_NAME})\[(\d+)(?:\*(\d+))? \+: (\d+)\]$")  # bus[s*b +: w]
_INDEX = re.compile(rf"({_NAME})\[addr(?:\[(\d+):(\d+)\])?\]$")  # C[addr] or C[addr[h:l]]


class SubsetError(ValueError):
    pass


def _lines(path):
    """(line number, stripped text) of each non-blank line of the file."""
    with open(path, encoding="ascii") as f:
        return [(k, line.strip()) for k, line in enumerate(f, start=1) if line.strip()]


def _elements(text, pattern, where):
    """The matches of pattern for each element of a {a, b, ...} concatenation."""
    if not (text.startswith("{") and text.endswith("}")):
        raise SubsetError(f"{where}: {text!r} is not a concatenation")
    parts = [part.strip() for part in text[1:-1].split(",")]
    matches = [pattern.match(part) for part in parts]
    if not all(matches):
        raise SubsetError(f"{where}: {text!r} holds an element outside the subset")
    return matches


def _bits(value, x, low, width):
    """Bits [low, low + width) of the pair (value, x)."""
    mask = (1 << width) - 1
    return (value >> low) & mask, (x >> low) & mask


class Rom:
    """A ROM module file: its port widths, constants and registered read."""

    def __init__(self, path, module):
        self.constants = {}  # name -> (width, value)
        self.select = None  # (h, l) of the case selector, if constants are split
        self.arms = {}  # case item (None without a case) -> [(constant, (h, l) or None)]
        where = os.path.basename(path)
        lines = _lines(path)
        head = [text for _, text in lines[:5]]
        ports = [re.fullmatch(p, t) for p, t in zip(
            (rf"module ({_NAME}) \(", r"input\s+wire clk,", r"input\s+wire \[(\d+):0\] addr,",
             r"output\s+reg\s+\[(\d+):0\] data", r"\);"), head)]
        if len(ports) != 5 or not all(ports) or ports[0][1] != module:
            raise SubsetError(f"{where}: the ports are not module {module}'s clk, addr, data")
        self.addr_bits, self.data_bits = int(ports[2][1]) + 1, int(ports[3][1]) + 1
        body = iter(lines[5:])
        for k, text in body:
            m = re.fullmatch(rf"localparam \[(\d+):0\] ({_NAME}) = (\d+)'h([0-9a-fA-F_]+);", text)
            if not m:
                break
            width = int(m[1]) + 1
            value = int(m[4].replace("_", ""), 16)
            if int(m[3]) != width or value >> width:
                raise SubsetError(f"{where}:{k}: {m[2]} does not fit its {width} bits")
            self.constants[m[2]] = (width, value)
        else:
            raise SubsetError(f"{where}: no always block")
        if text != "always @(posedge clk) begin":
            raise SubsetError(f"{where}:{k}: {text!r} is not the always block")
        for k, text in body:
            if text in ("end", "endcase"):
                continue
            if text == "endmodule":
                break
            m = re.fullmatch(r"case \(addr\[(\d+):(\d+)\]\)", text)
            if m and self.select is None and not self.arms:
                self.select = int(m[1]), int(m[2])
                continue
            m = re.fullmatch(r"(?:(\d+)'h([0-9a-fA-F]+):\s*)?data <= (\{.*\});", text)
            if not m or (m[1] is None) != (self.select is None):
                raise SubsetError(f"{where}:{k}: {text!r} is outside the subset")
            item = None if m[1] is None else int(m[2], 16)
            if item is not None and int(m[1]) != self.select[0] - self.select[1] + 1:
                raise SubsetError(f"{where}:{k}: case item {m[1]}'h{m[2]} is not as wide "
                                  "as the selector")
            reads = []
            for e in _elements(m[3], _INDEX, f"{where}:{k}"):
                if e[1] not in self.constants:
                    raise SubsetError(f"{where}:{k}: {e[1]} is not a constant")
                reads.append((e[1], None if e[2] is None else (int(e[2]), int(e[3]))))
            if len(reads) != self.data_bits:
                raise SubsetError(f"{where}:{k}: {len(reads)} bits read into "
                                  f"{self.data_bits}-bit data")
            self.arms[item] = reads
        else:
            raise SubsetError(f"{where}: no endmodule")

    def read(self, addr, data):
        """data after a clock edge at address addr, both (value, x) pairs."""
        if self.select is None:
            reads = self.arms[None]
        else:
            h, l = self.select
            item, unknown = _bits(*addr, l, h - l + 1)
            reads = None if unknown else self.arms.get(item)
            if reads is None:
                return data
        value = x = 0
        for name, field in reads:
            width, constant = self.constants[name]
            index, unknown = addr if field is None else _bits(*addr, field[1],
                                                               field[0] - field[1] + 1)
            bad = bool(unknown) or index >= width
            value = value << 1 | (0 if bad else constant >> index & 1)
            x = x << 1 | bad
        return value, x


class Top:
    """top.v and the ROM modules it instantiates."""

    def __init__(self, bundle):
        self.widths = {}  # bus -> bits
        self.assigns = {}  # wire -> [(bus, low, width)], most significant first
        self.instances = []  # (rom, addr wire, data bus, low)
        self.out = None
        lines = _lines(os.path.join(bundle, "top.v"))
        head = [text for _, text in lines[:5]]
        ports = [re.fullmatch(p, t) for p, t in zip(
            (r"module top \(", r"input\s+wire clk,", r"input\s+wire \[(\d+):0\] in_data,",
             r"output\s+wire \[(\d+):0\] out_data", r"\);"), head)]
        if len(ports) != 5 or not all(ports):
            raise SubsetError("top.v: the ports are not top's clk, in_data, out_data")
        self.in_bits, self.out_bits = int(ports[2][1]) + 1, int(ports[3][1]) + 1
        self.widths["in_data"] = self.in_bits
        for k, text in lines[5:-1]:
            where = f"top.v:{k}"
            if m := re.fullmatch(rf"wire \[(\d+):0\] ({_NAME});", text):
                self.widths[m[2]] = int(m[1]) + 1
            elif m := re.fullmatch(rf"assign out_data = ({_NAME});", text):
                self.out = self._bus(m[1], where)
            elif m := re.fullmatch(rf"assign ({_NAME}) = (\{{.*\}});", text):
                parts = [(self._bus(e[1], where), int(e[2]) * int(e[3] or 1), int(e[4]))
                         for e in _elements(m[2], _SLICE, where)]
                if sum(w for _, _, w in parts) != self.widths[self._bus(m[1], where)]:
                    raise SubsetError(f"{where}: the concatenation is not {m[1]}'s width")
                self.assigns[m[1]] = parts
            elif m := re.fullmatch(rf"({_NAME}) u_{_NAME} \(\.clk\(clk\), \.addr\(({_NAME})\), "
                                   rf"\.data\(({_NAME})\[(\d+)\*(\d+) \+: (\d+)\]\)\);", text):
                rom = Rom(os.path.join(bundle, f"{m[1]}.v"), m[1])
                if m[2] not in self.assigns or (rom.addr_bits, rom.data_bits) != (
                        self.widths[m[2]], int(m[6])):
                    raise SubsetError(f"{where}: {m[1]}'s ports do not fit its wires")
                self.instances.append((rom, m[2], self._bus(m[3], where),
                                       int(m[4]) * int(m[5])))
            else:
                raise SubsetError(f"{where}: {text!r} is outside the subset")
        if lines[-1][1] != "endmodule" or self.out is None:
            raise SubsetError("top.v: no out_data assignment before endmodule")
        if self.widths[self.out] != self.out_bits:
            raise SubsetError(f"top.v: out_data is driven by {self.out}, not as wide")

    def _bus(self, name, where):
        """name, if it is a declared bus."""
        if name not in self.widths:
            raise SubsetError(f"{where}: {name} is not declared")
        return name

    def stages(self):
        """Register stages from in_data to out_data: one per ROM on the
        longest path."""
        depth = {"in_data": 0}
        for _, wire, bus, _ in self.instances:
            reads = max(depth.get(src, 0) for src, _, _ in self.assigns[wire])
            depth[bus] = max(depth.get(bus, 0), reads + 1)
        return depth.get(self.out, 0)

    def buses(self, stim, state):
        """Each bus's (value, x) pair with in_data = stim and the instances'
        registers at state; a bit no instance drives is unknown."""
        buses = {name: (0, (1 << width) - 1) for name, width in self.widths.items()}
        buses["in_data"] = (stim & ((1 << self.in_bits) - 1), 0)
        for (rom, _, bus, low), (value, x) in zip(self.instances, state):
            old_v, old_x = buses[bus]
            keep = ~(((1 << rom.data_bits) - 1) << low)
            buses[bus] = (old_v & keep | value << low, old_x & keep | x << low)
        return buses

    def run(self, stim, edges, state):
        """state after edges clock edges with in_data = stim: one (value, x)
        pair per instance, all registers sampled at once on each edge."""
        for _ in range(edges):
            buses, new = self.buses(stim, state), []
            for (rom, wire, _, _), data in zip(self.instances, state):
                value = x = 0
                for src, low, width in self.assigns[wire]:
                    v, u = _bits(*buses[src], low, width)
                    value, x = value << width | v, x << width | u
                new.append(rom.read((value, x), data))
            state = new
        return state


def testbench_wait(bundle):
    """The number of clock edges tb.v waits between applying a vector and
    comparing out_data."""
    with open(os.path.join(bundle, "tb.v"), encoding="ascii") as f:
        text = f.read()
    m = re.search(r"in_data = stim_in;\s*(?://[^\n]*\s*)?"
                  r"for \(i = 0; i < (\d+); i = i \+ 1\) @\(posedge clk\);\s*#1;\s*"
                  r"if \(out_data !== expect_out\)", text)
    if not m or len(re.findall(r"@\(posedge clk\)", text)) != 1:
        raise SubsetError("tb.v: no single flush loop between applying a vector and the check")
    return int(m[1])


def replay(bundle):
    """(mismatching vectors, problems) of vectors.hex replayed as tb.v
    does: each vector applied in turn, without reset, and out_data
    compared after the flush loop's edges.  A problem is a flush loop
    that waits other than top.v's register stages."""
    top, wait = Top(bundle), testbench_wait(bundle)
    problems = []
    if wait != top.stages():
        problems.append(f"tb.v waits {wait} clock edges for top.v's {top.stages()} stages")
    state = [(0, (1 << rom.data_bits) - 1) for rom, _, _, _ in top.instances]
    mismatches = 0
    with open(os.path.join(bundle, "vectors.hex"), encoding="ascii") as f:
        for line in f:
            stim, expect = (int(word, 16) for word in line.split())
            state = top.run(stim, wait, state)
            value, x = top.buses(stim, state)[top.out]
            mismatches += bool(x) or value != expect
    return mismatches, problems
