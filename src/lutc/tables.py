"""Neuron-to-truth-table conversion by exhaustive enumeration.

Each neuron becomes one logical LUT: 2**(input_bits) entries of
output_bits-wide codes.  A layer's tables are one (W, 2**input_bits)
uint32 array, row j the table of neuron j; the netlist holds that array
as it is, and the dumps and the Verilog ROMs are written from it.  All
neurons of a layer read the same address space through the same
quantizer, so a layer is tabulated at once: each chunk of addresses is
decoded and expanded into monomials once, then weighted by every neuron
of the layer (model.layer_eval).

Address packing puts input 0 in the least significant bit slice, input j
in bits [j*b, (j+1)*b); signed codes are stored as two's-complement bit
patterns.  The emitted RTL uses the same convention, so simulation and
hardware agree bit for bit.

Table text is written and read one layer at a time: hex_rows formats
only the distinct values of a layer's (W, 2**N) array (the dumps and the
Verilog ROMs both use it), and load_tables parses each distinct token
once, filling one such array per layer.
"""

from __future__ import annotations

import os
import re
from itertools import chain

import numpy as np

from .model import TrainedModel, layer_eval, row_chunks
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
    for rows in row_chunks(1 << addr_bits, width * len(model.bases[layer])):
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


class _HexTokens(dict):
    """Token -> table entry: int(token, 16), parsed once per distinct
    token, so every token int() accepts (upper case, leading zeros) loads."""

    def __init__(self, output_bits: int):
        super().__init__()
        self.output_bits = output_bits

    def __missing__(self, token: str) -> int:
        value = int(token, 16)
        if value >= 1 << self.output_bits:
            raise ValueError(f"entry {token!r} exceeds {self.output_bits}-bit range")
        self[token] = value
        return value


def load_tables(in_dir) -> list:
    """Read back every layer{l}_tables.txt in layer order: one
    (tables, output_bits) pair per layer, tables a (W, 2**input_bits)
    uint32 array."""
    pattern = re.compile(r"layer(\d+)_tables\.txt$")
    found = {}
    for name in os.listdir(in_dir):
        m = pattern.match(name)
        if m:
            found[int(m.group(1))] = os.path.join(in_dir, name)
    if not found:
        raise FileNotFoundError(f"no table dumps found in {in_dir}")
    if sorted(found) != list(range(len(found))):
        raise ValueError(f"non-contiguous layer dumps in {in_dir}: {sorted(found)}")
    return [_load_layer(found[layer], layer) for layer in range(len(found))]


def _load_layer(path, layer: int) -> tuple:
    with open(path, "r", encoding="utf-8") as f:
        lines = [ln for ln in map(str.strip, f) if ln]
    if not lines or lines[0] != "lut-tables v1":
        raise ValueError(f"{path}: bad header {lines[:1]}")
    try:
        head = dict(ln.split() for ln in lines[1:5])
        n_neurons, input_bits, output_bits = (
            int(head[k]) for k in ("neurons", "input_bits", "output_bits"))
        size, tokens = 1 << input_bits, _HexTokens(output_bits)
    except (KeyError, ValueError) as e:
        raise ValueError(f"layer {layer}: {path}: bad header field {e}") from None
    # Find each neuron's value lines first, so that the layer array holds no
    # more entries than the file does.  A fault ends the walk and is raised
    # after the neurons before it are parsed: the first bad neuron is named.
    spans, fault, pos = [], None, 5
    for j in range(n_neurons):
        got = lines[pos] if pos < len(lines) else "end of file"
        if got != f"neuron {j}":
            fault = f"layer {layer} neuron {j}: {path}: got {got!r}"
            break
        start = pos = pos + 1
        count = 0
        while count < size and pos < len(lines) and not lines[pos].startswith("neuron"):
            count += len(lines[pos].split())
            pos += 1
        if count != size:
            fault = f"layer {layer} neuron {j}: {path}: expected {size} entries, got {count}"
            break
        spans.append((start, pos))
    else:
        if pos < len(lines):
            fault = f"layer {layer}: {path}: unexpected line {lines[pos]!r}"
        elif pos > len(lines):
            fault = f"layer {layer}: {path}: header shorter than 5 lines"
    # no rows, no allocation: a header's input_bits may exceed numpy's limits
    entries = np.empty((len(spans), size if spans else 0), dtype=np.uint32)
    for j, (start, stop) in enumerate(spans):
        try:
            values = chain.from_iterable(map(str.split, lines[start:stop]))
            entries[j] = np.fromiter(map(tokens.__getitem__, values), dtype=np.uint32, count=size)
        except (ValueError, OverflowError) as e:
            raise ValueError(f"layer {layer} neuron {j}: {path}: {e}") from None
    if fault is not None:
        raise ValueError(fault)
    return entries, output_bits
