"""Layered LUT netlists: assembly, bit-exact simulation, layer-by-layer
equivalence checking against the trained model, and cost/latency/Pareto
reporting.

A layer is W truth tables of 2**(F*b) entries each, the rows of one
(W, 2**(F*b)) uint32 array as tabulation returns it, read through one
(W, F) wiring matrix of source indices into the previous layer (the
primary inputs for layer 0); the wiring copies the training-time
sparsity masks.  Every way of making a Netlist checks the layer chain
and that each entry fits its layer's output bits.  Simulation is a pure
integer path (one packed-address gather per layer, no floating point),
one pipeline stage per layer.  The equivalence check makes the same
gather per layer at the model's own codes of the layer before, from
model.layer_codes, so that a table that disagrees with its neuron is
named even where later layers mask it.

A netlist directory is netlist.json, the format line and wiring, and
one lut-tables v1 dump per layer, layer{l}_tables.txt; this module
names, writes and reads every one of them.  Table text is written and
read one layer at a time.  dump_tables formats one neuron's row at a
time as a byte grid.  load_tables reads the dumps of the layers it is
asked for, by name (netlist.json names its layer count), and each back
only as dump_tables writes it, byte for byte: the header, then each
neuron's line and value lines at fixed line numbers, one neuron at a
time, its values through hex_tokens.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .model import PORT_BITS, TrainedModel, layer_codes, row_chunks
from .quantize import decode_bits, encode_bits
from .tables import decode_address, pack_address

DEFAULT_K = 6  # native physical-LUT input count assumed by the cost model
EXHAUSTIVE_LIMIT_BITS = 20  # input spaces this wide are checked on every vector
RANDOM_VECTORS = 10000  # seeded vectors checked on a wider input space
FORMAT = "lut-netlist v2"  # netlist.json's format line


@dataclass(eq=False)
class LutLayer:
    """W lookup tables with F sources each, input 0 in the least
    significant address slice."""

    tables: np.ndarray  # (W, 2**address_bits) uint32 output bit patterns
    sources: np.ndarray  # (W, F) int64 indices into the previous layer
    output_bits: int

    @property
    def width(self) -> int:
        return self.tables.shape[0]

    @property
    def address_bits(self) -> int:
        return self.tables.shape[1].bit_length() - 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LutLayer)
            and self.output_bits == other.output_bits
            and np.array_equal(self.tables, other.tables)
            and np.array_equal(self.sources, other.sources)
        )


@dataclass
class Netlist:
    input_count: int
    input_bits: int  # code width of each primary input
    layers: list  # list[LutLayer]
    clock_period_ns: float

    def __post_init__(self):
        if not (self.input_count >= 1 and 1 <= self.input_bits <= 8
                and 0 < self.clock_period_ns < math.inf):
            raise ValueError(f"{self.input_count} inputs of {self.input_bits} bits at a "
                             f"{self.clock_period_ns} ns clock: a netlist needs at least one "
                             "input of 1 to 8 bits and a positive finite clock period")
        if self.input_count * self.input_bits > PORT_BITS:
            raise ValueError(f"input_count {self.input_count} of {self.input_bits} bits "
                             f"exceeds the {PORT_BITS}-bit input port")
        prev, bits = self.input_count, self.input_bits
        for layer, lut in enumerate(self.layers):
            tables, sources = lut.tables, lut.sources
            if (tables.dtype != np.uint32 or len(sources) != len(tables)
                    or tables.shape[1] != 1 << (sources.shape[1] * bits)):
                raise ValueError(f"layer {layer}: {sources.shape} sources of {bits} bits "
                                 f"do not address {tables.shape} {tables.dtype} tables")
            over = tables.max(axis=1) >= 1 << lut.output_bits
            if over.any():
                j = int(np.argmax(over))
                raise ValueError(f"layer {layer} neuron {j}: entry {tables[j].max()} "
                                 f"exceeds the {lut.output_bits}-bit range")
            ordered = np.sort(sources, axis=1)
            bad = (((sources < 0) | (sources >= prev)).any(axis=1)
                   | (ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
            if bad.any():
                j = int(np.argmax(bad))
                raise ValueError(f"layer {layer} neuron {j}: sources {sources[j].tolist()} "
                                 f"are not distinct indices below {prev}")
            prev, bits = len(tables), lut.output_bits
        if prev * bits > PORT_BITS:
            raise ValueError(f"{prev} outputs of {bits} bits exceed the {PORT_BITS}-bit "
                             "output port")

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def output_bits(self) -> int:
        return self.layers[-1].output_bits


def build_netlist(model: TrainedModel, tables: list) -> Netlist:
    """Wire each layer's (W, 2**N) table array, as tabulate_model returns
    it and without a copy, according to the sparsity masks."""
    spec = model.spec
    if len(tables) != spec.n_layers:
        raise ValueError("one table array per layer required")
    layers = [LutLayer(tables=layer_tables, sources=np.array(mask, dtype=np.int64),
                       output_bits=spec.beta)
              for layer_tables, mask in zip(tables, model.masks)]
    return Netlist(input_count=spec.input_count, input_bits=spec.layer_input_bits(0),
                   layers=layers, clock_period_ns=spec.clock_period_ns)


def simulate(netlist: Netlist, inputs: np.ndarray) -> np.ndarray:
    """Table lookups layer by layer on raw input bit patterns.

    inputs: (n, input_count) unsigned code patterns.  Returns the (n, W)
    output patterns of the last layer.
    """
    vals = np.asarray(inputs, dtype=np.int64)
    if vals.ndim != 2 or vals.shape[1] != netlist.input_count:
        raise ValueError(f"expected (n, {netlist.input_count}) input patterns")
    if np.any(vals < 0) or np.any(vals >= (1 << netlist.input_bits)):
        raise ValueError(f"input pattern outside {netlist.input_bits}-bit range")
    bits = netlist.input_bits
    for lut in netlist.layers:
        out = np.empty((vals.shape[0], lut.width), dtype=np.int64)
        for rows in row_chunks(vals.shape[0], lut.sources.size):
            out[rows] = _lookup(lut, vals[rows], bits)
        vals, bits = out, lut.output_bits
    return vals


def _lookup(lut: LutLayer, vals: np.ndarray, bits: int) -> np.ndarray:
    """The layer's (n, W) table entries at the addresses packed from the
    (n, previous width) bits-bit patterns vals through its sources."""
    return lut.tables[np.arange(lut.width), pack_address(vals[:, lut.sources], bits)]


@dataclass
class EquivalenceReport:
    n_checked: int
    n_mismatches: int
    faulty_nodes: list  # every (layer, index) whose table disagreed with the model

    @property
    def ok(self) -> bool:
        return self.n_mismatches == 0


def equivalence_check(netlist: Netlist, model: TrainedModel) -> EquivalenceReport:
    """Compare every layer of the netlist with the quantized model, integer-exact.

    The stimuli are every input vector when input_count * input_bits is
    within EXHAUSTIVE_LIMIT_BITS, else RANDOM_VECTORS seeded random
    vectors.  For each model.layer_codes row chunk and layer, the model's
    codes at the previous layer's model codes are compared with the
    layer's tables looked up at those same codes through the netlist's
    own sources.  When no layer disagrees, the netlist equals the model on
    every vector, by induction over the layers.  The report counts the
    vectors on which any layer disagrees and names every (layer, neuron)
    that did.  The memo keys its tuples with its own packing, not
    pack_address, so a packing fault on either side shows; its errors
    are model.memo_layer_eval's.  The memo's rules are listed there; it
    checks no code ranges, and needs none here: the stimuli are decoded
    bit patterns, in the input range by construction.
    """
    spec = model.spec
    if netlist.n_layers != spec.n_layers:
        raise ValueError(f"a netlist of {netlist.n_layers} layers for a model of {spec.n_layers}")
    count, draw = _stimuli(netlist, model)
    bits = [netlist.input_bits] + [lut.output_bits for lut in netlist.layers]
    n_mismatches, faulty = 0, set()
    for _, codes in layer_codes(model, count,
                                lambda rows: decode_bits(draw(rows), model.input_quantizer)):
        bad = np.zeros(len(codes[0]), dtype=bool)
        for layer, lut in enumerate(netlist.layers):
            vals = encode_bits(codes[layer], model.source_quantizer(layer))
            want = encode_bits(codes[layer + 1], model.layer_quantizer(layer))
            diff = _lookup(lut, vals, bits[layer]) != want
            bad |= diff.any(axis=1)
            faulty.update((layer, int(j)) for j in np.flatnonzero(diff.any(axis=0)))
        n_mismatches += int(bad.sum())
    return EquivalenceReport(n_checked=count, n_mismatches=n_mismatches,
                             faulty_nodes=sorted(faulty))


def _stimuli(netlist: Netlist, model: TrainedModel):
    """equivalence_check's pattern count and draw(rows), the patterns of
    the slice rows, called on consecutive slices: every input vector when
    the input space is within EXHAUSTIVE_LIMIT_BITS bits, else
    RANDOM_VECTORS seeded random vectors, drawn as asked."""
    bits, count = netlist.input_bits, model.spec.input_count
    if count * bits <= EXHAUSTIVE_LIMIT_BITS:
        return 1 << (count * bits), lambda rows: decode_address(
            np.arange(rows.start, rows.stop, dtype=np.int64), bits, count)
    rng = np.random.default_rng(np.random.PCG64(0))
    return RANDOM_VECTORS, lambda rows: rng.integers(
        0, 1 << bits, size=(rows.stop - rows.start, count))


# ---------------------------------------------------------------------------
# Cost model and reporting


def lut_cost(input_bits: int, target_k: int = DEFAULT_K) -> int:
    """Estimated physical LUTs for one output bit of an N-input function.

    1 when the function fits a single K-LUT, else a full Shannon
    decomposition: 2**(N-K+1) - 1 nodes (leaf cofactor LUTs plus a 2:1
    mux tree, one physical LUT each).  An upper bound; real synthesis
    usually does better.
    """
    if input_bits < 1:
        raise ValueError("input_bits must be >= 1")
    if target_k < 2:
        raise ValueError("target_k must be >= 2")
    if input_bits <= target_k:
        return 1
    return (1 << (input_bits - target_k + 1)) - 1


def layer_luts(width: int, output_bits: int, address_bits: int,
               target_k: int = DEFAULT_K) -> int:
    """Estimated physical LUTs of a layer: lut_cost per output bit of
    each of its width neurons."""
    return width * output_bits * lut_cost(address_bits, target_k)


@dataclass
class CostReport:
    per_layer_luts: list
    total_luts: int
    cycles: int
    latency_ns: float
    target_k: int

    def as_text(self) -> str:
        lines = [f"pipeline stages : {self.cycles}",
                 f"latency         : {self.latency_ns:.3f} ns",
                 f"estimated P-LUTs (K={self.target_k}): {self.total_luts}"]
        for layer, n in enumerate(self.per_layer_luts):
            lines.append(f"  layer {layer}: {n}")
        lines.append("FF/BRAM/DSP      : n/a (external tools)")
        return "\n".join(lines)


def report(netlist: Netlist, target_k: int = DEFAULT_K) -> CostReport:
    """Total estimated LUT cost plus the layers-times-clock latency model."""
    per_layer = [layer_luts(lut.width, lut.output_bits, lut.address_bits, target_k)
                 for lut in netlist.layers]
    cycles = netlist.n_layers
    return CostReport(per_layer_luts=per_layer, total_luts=sum(per_layer),
                      cycles=cycles, latency_ns=cycles * netlist.clock_period_ns,
                      target_k=target_k)


def pareto_front(points: list) -> list:
    """Non-dominated subset under coordinate-wise minimization.

    A point is dropped iff some other point is <= in both coordinates and
    strictly smaller in at least one.  Output is sorted by the first
    coordinate (ties keep input order); duplicates of a front point stay.
    """
    pts = [(float(a), float(b)) for a, b in points]
    return sorted((p for p in pts
                   if not any(q[0] <= p[0] and q[1] <= p[1] and q != p for q in pts)),
                  key=lambda p: p[0])


# ---------------------------------------------------------------------------
# Export / import: netlist.json and, beside it, one lut-tables v1 dump per layer


_HEX = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)  # value -> lower-case hex digit
# byte -> value of a lower-case hex digit, 16 for every other byte
_HEX_VALUE = np.full(256, 16, dtype=np.uint8)
_HEX_VALUE[_HEX] = np.arange(16)
_HEX_DIGITS = 15  # the most hex digits hex_tokens reads into an int64
# a dump's header; its numbers are plain decimal below 10**9
_HEADER = re.compile(rb"lut-tables v1\nlayer (0|[1-9][0-9]{0,8})\nneurons ([1-9][0-9]{0,8})\n"
                     rb"input_bits (0|[1-9][0-9]{0,8})\noutput_bits ([1-9][0-9]{0,8})\n")


def save_netlist(netlist: Netlist, out_dir) -> str:
    """Write netlist.json and, beside it, the table dumps; returns the
    path of netlist.json.  The file holds each layer's (W, F) sources as
    W lists of F indices into the previous layer."""
    os.makedirs(out_dir, exist_ok=True)
    doc = {
        "format": FORMAT,
        "input_count": netlist.input_count,
        "input_bits": netlist.input_bits,
        "clock_period_ns": netlist.clock_period_ns,
        "layers": [lut.sources.tolist() for lut in netlist.layers],
    }
    path = os.path.join(out_dir, "netlist.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    dump_tables(netlist.layers, out_dir)
    return path


def load_netlist(in_dir) -> Netlist:
    """Read netlist.json and, beside it, the table dump of each layer it
    lists; no other dump is read.  Only what JSON can get wrong and an
    int64 array cannot is checked here: the format line, the types of the
    fields and the shape of each layer's source lists.  Netlist checks the
    wiring itself.  A malformed or inconsistent file raises ValueError
    naming the layer and neuron, and a missing dump FileNotFoundError
    naming the file."""
    with open(os.path.join(in_dir, "netlist.json"), "r", encoding="utf-8") as f:
        doc = json.load(f)
    found = doc.get("format") if isinstance(doc, dict) else None
    if found != FORMAT:
        raise ValueError(f"netlist.json is in the format {found!r}, not {FORMAT!r}: "
                         "re-run lutc compile to write it")
    count, bits, clock, doc_layers = (doc.get(key) for key in
                                      ("input_count", "input_bits", "clock_period_ns", "layers"))
    if not (_is_int64(count) and _is_int64(bits)):
        raise ValueError(f"netlist.json: input_count {json.dumps(count)} and input_bits "
                         f"{json.dumps(bits)} are not both JSON integers")
    if not (type(clock) is float or _is_int64(clock)):
        raise ValueError(f"netlist.json: clock_period_ns {json.dumps(clock)} is not a number")
    if not (isinstance(doc_layers, list) and doc_layers):
        raise ValueError(f"netlist.json: layers {json.dumps(doc_layers)} is not a list of "
                         "one or more layers")
    tables = load_tables(in_dir, len(doc_layers))
    layers = [LutLayer(tables=layer_tables, sources=_sources(layer, rows), output_bits=out_bits)
              for layer, (rows, (layer_tables, out_bits)) in enumerate(zip(doc_layers, tables))]
    return Netlist(input_count=count, input_bits=bits, layers=layers,
                   clock_period_ns=float(clock))


def _sources(layer: int, rows) -> np.ndarray:
    """A layer's (W, F) int64 sources from its netlist.json entry, a
    non-empty list of equal-length lists of JSON integers."""
    if not isinstance(rows, list) or not rows:
        raise ValueError(f"layer {layer}: {json.dumps(rows)} is not a non-empty list of "
                         "source lists")
    fan_in = len(rows[0]) if isinstance(rows[0], list) else None
    for j, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == fan_in and all(map(_is_int64, row))):
            raise ValueError(f"layer {layer} neuron {j}: sources {json.dumps(row)} are not a "
                             "list of int64 integers as long as neuron 0's")
    return np.array(rows, dtype=np.int64)


def _is_int64(value) -> bool:
    """A JSON integer that fits an int64: not a bool, a float or a string."""
    return type(value) is int and -1 << 63 <= value < 1 << 63


def dump_tables(layers: list, out_dir) -> list:
    """Write the tables of each netlist layer (LutLayer) to
    layer{l}_tables.txt; returns the written paths.

    A neuron's entries are formatted at once, in a (D + 1, 2**N) byte grid
    that holds entry k in column k: its D hex digits, most significant
    first (D is the digit count of the layer's largest value), then its
    separator, a newline after every 16th entry and after the last, else
    a space.  A mask drops each entry's leading zero digits, and what it
    keeps, read entry by entry, is the neuron's value lines.  Only one
    neuron's grid, mask and digit indices are alive at a time."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for layer, lut in enumerate(layers):
        size = lut.tables.shape[1]
        digits = max(1, -(-int(lut.tables.max(initial=0)).bit_length() // 4))
        grid = np.empty((digits + 1, size), dtype=np.uint8)
        grid[digits] = ord(" ")
        grid[digits, 15::16] = grid[digits, -1] = ord("\n")
        keep = np.ones(grid.shape, dtype=bool)
        nibble = np.empty(size, dtype=np.intp)
        path = os.path.join(out_dir, f"layer{layer}_tables.txt")
        with open(path, "wb") as f:
            f.write(b"lut-tables v1\nlayer %d\nneurons %d\ninput_bits %d\noutput_bits %d\n"
                    % (layer, lut.width, lut.address_bits, lut.output_bits))
            for j, row in enumerate(lut.tables):
                for c in range(digits):
                    place = 4 * (digits - 1 - c)
                    np.bitwise_and(np.right_shift(row, place, out=nibble), 15, out=nibble)
                    np.take(_HEX, nibble, out=grid[c])
                    if c < digits - 1:  # the last digit stays, 0 included
                        np.greater_equal(row, 1 << place, out=keep[c])
                f.write(b"neuron %d\n" % j)
                f.write(grid.T[keep.T])
        paths.append(path)
    return paths


def load_tables(in_dir, n_layers: int) -> list:
    """Read back layer{l}_tables.txt for each layer l < n_layers: one
    (tables, output_bits) pair per layer, tables a (W, 2**input_bits)
    uint32 array.  No other file is read, and a missing dump is a
    FileNotFoundError naming it."""
    return [_load_layer(os.path.join(in_dir, f"layer{layer}_tables.txt"), layer)
            for layer in range(n_layers)]


def _load_layer(path, layer: int) -> tuple:
    """A dump's tables and output bits, if its bytes are exactly what
    dump_tables writes.  The lines sit at fixed places: the header, then
    for neuron j the line "neuron j" and its entries, 16 to a line.  The
    neurons are read in order, one at a time, and a fault past the header
    names the neuron whose lines hold it: neuron 0's lines begin after the
    header, and neuron j's run on to the place of "neuron j+1", the last
    neuron's to the end of the file."""
    with open(path, "rb") as f:
        data = f.read()

    def fault(j: int, what: str) -> ValueError:
        return ValueError(f"layer {layer} neuron {j}: {path}: {what}")

    m = _HEADER.match(data)
    if not m or int(m[1]) != layer or not 1 <= int(m[4]) <= 32:
        raise ValueError(f"layer {layer}: {path}: not a lut-tables v1 header for layer {layer}")
    width, input_bits, output_bits = int(m[2]), int(m[3]), int(m[4])
    if input_bits >= len(data).bit_length():  # 2**N entries take over 2**N bytes
        raise fault(0, f"{len(data)} bytes cannot hold 2**{input_bits} entries")
    size = 1 << input_bits
    rows = -(-size // 16)
    stride = 1 + rows  # a neuron's lines: "neuron j", then its value lines
    buf = np.frombuffer(data, dtype=np.uint8)
    # line k ends at ends[k]: the newlines, then the end of a last line without one
    ends = np.append(np.flatnonzero(buf == ord("\n")), len(data))
    held = min(width, (len(ends) - 6) // stride)  # neurons with all their lines
    entries = np.empty((held, size), dtype=np.uint32)
    # the separator after each entry: a newline after every 16th and the last
    want = np.full(size, ord(" "), dtype=np.uint8)
    want[15::16] = want[-1] = ord("\n")
    for j in range(width):
        head = 5 + j * stride
        line = data[ends[head - 1] + 1:ends[head]]
        if line != b"neuron %d" % j:
            raise fault(max(j - 1, 0), f"line {head + 1} is {line!r}, not 'neuron {j}'")
        if j == held:
            raise fault(j, f"the file ends inside its {rows} value lines")
        seg = buf[ends[head] + 1:ends[head + rows] + 1]
        seps = np.flatnonzero((seg == ord(" ")) | (seg == ord("\n")))
        if len(seps) != size or not np.array_equal(seg[seps], want):
            raise fault(j, f"its {rows} value lines do not hold {size} entries one space "
                        "apart, 16 to a line")
        starts = np.append(0, seps[:-1] + 1)
        values, ok = hex_tokens(seg, starts, seps - starts)
        ok &= values < 1 << output_bits
        if not ok.all():
            k = int(np.argmin(ok))
            token = seg[starts[k]:seps[k]].tobytes().decode("ascii", "backslashreplace")
            raise fault(j, f"entry {k} is {token!r}, not lower-case hex below "
                        f"2**{output_bits} without leading zeros")
        entries[j] = values
    if ends[4 + width * stride] != len(data) - 1:
        raise fault(width - 1, f"the file goes on after its {rows} value lines")
    return entries, output_bits


def hex_tokens(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> tuple:
    """Values of the tokens buf[starts:starts + lengths] read as hex, and a
    mask of the canonical ones, the form dump_tables writes: 1 to 15
    lower-case hex digits (an int64 holds any such value) and no leading
    zero unless the token is 0.  The other tokens' values are meaningless.
    The tokens are read a length at a time, and only those of 1 to 15
    bytes, so each reads only its own bytes."""
    values = np.zeros(len(starts), dtype=np.int64)
    ok = np.zeros(len(starts), dtype=bool)
    for width in range(1, min(int(lengths.max(initial=0)), _HEX_DIGITS) + 1):
        sel = np.flatnonzero(lengths == width)
        if not len(sel):
            continue
        at = starts[sel]
        first = worst = _HEX_VALUE[buf[at]]
        value = first.astype(np.int64)
        for k in range(1, width):
            digit = _HEX_VALUE[buf[at + k]]
            value = value * 16 + digit
            worst = np.maximum(worst, digit)
        values[sel] = value
        ok[sel] = (worst < 16) & ((first > 0) | (width == 1))
    return values, ok
