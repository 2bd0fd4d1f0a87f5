"""Neuron-to-truth-table conversion by exhaustive enumeration.

Each neuron becomes one logical LUT: 2**(input_bits) entries of
output_bits-wide codes.  A layer's tables are one (W, 2**input_bits)
uint32 array, row j the table of neuron j; the netlist holds that array
as it is, and the dumps and the Verilog ROMs are written from it.  All
neurons of a layer read the same address space through the same
quantizer, so a layer is tabulated at once: each chunk of addresses is
decoded, and each of its monomials formed, once for every neuron of the
layer (model.layer_eval).

Address packing puts input 0 in the least significant bit slice, input j
in bits [j*b, (j+1)*b); signed codes are stored as two's-complement bit
patterns.  The emitted RTL uses the same convention, so simulation and
hardware agree bit for bit.

Table text is written and read one layer at a time.  hex_rows formats
only the distinct values of a layer's (W, 2**N) array (the dumps and the
Verilog ROMs both use it).  load_tables reads back only what dump_tables
writes, byte for byte: the header, then each neuron's line and value
lines at fixed line numbers, one neuron at a time, its values through
hex_tokens, the hex reader rtl.check_bundle also runs on ROM files.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .model import TrainedModel, layer_eval, row_chunks, row_elements
from .quantize import decode_bits, encode_bits


def decode_address(addrs: np.ndarray, bits_per_input: int, fan_in: int) -> np.ndarray:
    """Split packed addresses into (n, fan_in) raw bit fields, input 0 at LSB."""
    addrs = np.asarray(addrs, dtype=np.int64)
    fields = np.empty(addrs.shape + (fan_in,), dtype=np.int64)
    mask = (1 << bits_per_input) - 1
    for j in range(fan_in):
        fields[..., j] = (addrs >> (j * bits_per_input)) & mask
    return fields


def pack_address(fields: np.ndarray, bits_per_input: int) -> np.ndarray:
    """Inverse of decode_address: (n, fan_in) raw fields -> packed addresses."""
    fields = np.asarray(fields, dtype=np.int64)
    addrs = np.zeros(fields.shape[:-1], dtype=np.int64)
    for j in range(fields.shape[-1]):
        addrs |= fields[..., j] << (j * bits_per_input)
    return addrs


def _entries(model: TrainedModel, layer: int, addrs: np.ndarray, neurons) -> np.ndarray:
    """Bit patterns (n, W) of the neurons' outputs at packed addresses."""
    spec = model.spec
    fields = decode_address(addrs, spec.layer_input_bits(layer), spec.layer_fan_in(layer))
    codes = decode_bits(fields, model.source_quantizer(layer))[:, None, :]
    return encode_bits(layer_eval(model, layer, codes, neurons), model.layer_quantizer(layer))


def tabulate_layer(model: TrainedModel, layer: int, neurons=None) -> np.ndarray:
    """The (W, 2**N) uint32 tables of a layer's neurons (default all of
    them), enumerating the layer's address space once through the
    bit-exact model path."""
    spec = model.spec
    addr_bits = spec.table_address_bits(layer)
    if addr_bits > spec.enum_guard:
        raise ValueError(
            f"layer {layer}: {addr_bits} address bits exceed the enumeration "
            f"guard ({spec.enum_guard})"
        )
    width = spec.layer_widths[layer] if neurons is None else len(neurons)
    entries = np.empty((width, 1 << addr_bits), dtype=np.uint32)
    for rows in row_chunks(1 << addr_bits, row_elements(model.bases[layer], 1, width)):
        addrs = np.arange(rows.start, rows.stop, dtype=np.int64)
        entries[:, rows] = _entries(model, layer, addrs, neurons).T
    return entries


def tabulate_neuron(model: TrainedModel, layer: int, neuron: int) -> np.ndarray:
    """Enumerate every input combination of one neuron: its table row."""
    return tabulate_layer(model, layer, [neuron])[0]


def tabulate_model(model: TrainedModel) -> list:
    """One (W, 2**N) table array per layer."""
    return [tabulate_layer(model, layer) for layer in range(model.spec.n_layers)]


# ---------------------------------------------------------------------------
# Dump format: one text file per layer, header + hex entries


# byte -> value of a lower-case hex digit, 16 for every other byte
_HEX_VALUE = np.full(256, 16, dtype=np.uint8)
_HEX_VALUE[np.frombuffer(b"0123456789abcdef", dtype=np.uint8)] = np.arange(16)
_HEX_DIGITS = 15  # the most hex digits hex_tokens reads into an int64
# a dump's header; its numbers are plain decimal below 10**9
_HEADER = re.compile(rb"lut-tables v1\nlayer (0|[1-9][0-9]{0,8})\nneurons ([1-9][0-9]{0,8})\n"
                     rb"input_bits (0|[1-9][0-9]{0,8})\noutput_bits ([1-9][0-9]{0,8})\n")


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values; np.unique would import numpy.ma on first use."""
    values = np.sort(values)
    return values[np.append(True, values[1:] != values[:-1])]


def hex_rows(rows, suffix: str = ""):
    """Yield each of a layer's table rows as a list of lowercase hex
    strings, each followed by suffix.  Only the layer's distinct values are
    formatted, and index arrays are built one row at a time."""
    values = _distinct(np.concatenate([_distinct(row) for row in rows]))
    strings = np.array([f"{v:x}{suffix}" for v in values.tolist()], dtype=object)
    for row in rows:
        yield strings[np.searchsorted(values, row)].tolist()


def dump_tables(layers: list, out_dir) -> list:
    """Write the tables of each netlist layer (netlist.LutLayer) to
    layer{l}_tables.txt; returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for layer, lut in enumerate(layers):
        size = lut.tables.shape[1]
        # "neuron j" line, then each entry and its separator: entry k ends
        # its line when it is the 16th of the line or the last
        parts = [None] * (1 + 2 * size)
        parts[2::2] = ["\n" if k % 16 == 15 or k == size - 1 else " " for k in range(size)]
        path = os.path.join(out_dir, f"layer{layer}_tables.txt")
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"lut-tables v1\nlayer {layer}\nneurons {lut.width}\n"
                    f"input_bits {lut.address_bits}\noutput_bits {lut.output_bits}\n")
            for j, row in enumerate(hex_rows(lut.tables)):
                parts[0] = f"neuron {j}\n"
                parts[1::2] = row
                f.write("".join(parts))
        paths.append(path)
    return paths


def load_tables(in_dir) -> list:
    """Read back every layer{l}_tables.txt in layer order: one
    (tables, output_bits) pair per layer, tables a (W, 2**input_bits)
    uint32 array.  Only the file names dump_tables writes are read."""
    pattern = re.compile(r"layer(0|[1-9][0-9]*)_tables\.txt")
    found = {}
    for name in os.listdir(in_dir):
        m = pattern.fullmatch(name)
        if m:
            found[int(m.group(1))] = os.path.join(in_dir, name)
    if not found:
        raise FileNotFoundError(f"no table dumps found in {in_dir}")
    if sorted(found) != list(range(len(found))):
        raise ValueError(f"non-contiguous layer dumps in {in_dir}: {sorted(found)}")
    return [_load_layer(found[layer], layer) for layer in range(len(found))]


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
    mask of the canonical ones, the form hex_rows writes: 1 to 15
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
