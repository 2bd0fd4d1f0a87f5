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

Table text is written and read one layer at a time.  hex_rows formats
only the distinct values of a layer's (W, 2**N) array (the dumps and the
Verilog ROMs both use it).  load_tables reads a dump's bytes with numpy:
token and line bounds come from whitespace and line-end masks, each
neuron's value lines from a walk over per-line token counts, and the
values from hex_tokens, the hex reader rtl.check_bundle also uses.  Only
a token that is not lower-case hex digits (1F, 0x1f, +5, 1_0) goes
through int(token, 16).  A dump must be ASCII.
"""

from __future__ import annotations

import os
import re
from bisect import bisect_left

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


# byte -> value of a lower-case hex digit, 16 for every other byte
_HEX_VALUE = np.full(256, 16, dtype=np.uint8)
_HEX_VALUE[np.frombuffer(b"0123456789abcdef", dtype=np.uint8)] = np.arange(16)
_HEX_DIGITS = 15  # the most hex digits hex_tokens reads into an int64
_WINDOW = 1 << 18  # bytes of a dump searched for token bounds at once


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
    with open(path, "rb") as f:
        data = f.read()
    buf = np.frombuffer(data, dtype=np.uint8)
    if len(buf) and buf.max() >= 0x80:
        raise ValueError(f"layer {layer}: {path}: non-ASCII byte at offset "
                         f"{int(np.argmax(buf >= 0x80))}")
    # firsts[k] is the first token of the k-th line that holds any: the lines
    # of a text-mode read after strip, empty ones dropped; firsts[-1] counts all
    starts, lengths, firsts = _tokens(buf)
    # the lines that start with "neuron", each ending the value lines before it
    at = starts[firsts[:-1]]
    heads = np.flatnonzero(lengths[firsts[:-1]] >= 6)
    for k, byte in enumerate(b"neuron"):
        heads = heads[buf[at[heads] + k] == byte]
    firsts = firsts.tolist()
    n_lines = len(firsts) - 1
    heads = heads.tolist() + [n_lines]

    def line(k: int) -> str:
        last = firsts[k + 1] - 1
        return data[starts[firsts[k]]:starts[last] + lengths[last]].decode("ascii")

    lines = [line(k) for k in range(min(n_lines, 5))]
    if not lines or lines[0] != "lut-tables v1":
        raise ValueError(f"{path}: bad header {lines[:1]}")
    try:
        head = dict(ln.split() for ln in lines[1:5])
        n_neurons, input_bits, output_bits = (
            int(head[k]) for k in ("neurons", "input_bits", "output_bits"))
        size = 1 << input_bits
    except (KeyError, ValueError) as e:
        raise ValueError(f"layer {layer}: {path}: bad header field {e}") from None
    # Find each neuron's value lines first, so that the layer array holds no
    # more entries than the file does: they run to the first line at which
    # the neuron holds size entries, the next "neuron" line or the end.  A
    # fault ends the walk and is raised after the neurons before it are
    # parsed: the first bad neuron is named.
    spans, fault, pos = [], None, 5
    for j in range(n_neurons):
        got = line(pos) if pos < n_lines else "end of file"
        if got != f"neuron {j}":
            fault = f"layer {layer} neuron {j}: {path}: got {got!r}"
            break
        start = pos + 1
        pos = min(bisect_left(firsts, firsts[start] + size, start),
                  heads[bisect_left(heads, start)])
        count = firsts[pos] - firsts[start]
        if count != size:
            fault = f"layer {layer} neuron {j}: {path}: expected {size} entries, got {count}"
            break
        spans.append(firsts[start])
    else:
        if pos < n_lines:
            fault = f"layer {layer}: {path}: unexpected line {line(pos)!r}"
        elif pos > n_lines:
            fault = f"layer {layer}: {path}: header shorter than 5 lines"
    # no rows, no allocation: a header's input_bits may exceed numpy's limits
    entries = np.empty((len(spans), size if spans else 0), dtype=np.uint32)
    for j, first in enumerate(spans):
        try:
            entries[j] = _row(buf, starts[first:first + size], lengths[first:first + size],
                              output_bits)
        except ValueError as e:
            raise ValueError(f"layer {layer} neuron {j}: {path}: {e}") from None
    if fault is not None:
        raise ValueError(fault)
    return entries, output_bits


def _tokens(buf: np.ndarray) -> tuple:
    """The start and length of each token of buf, split as str.split splits,
    and the index of the first token of each line that holds any, then the
    token count.  A line ends at "\n", "\r\n" or "\r", as in a text-mode
    read."""
    # str.split's ASCII whitespace is 9-13 and 28-32 (uint8 differences wrap)
    space = (buf - np.uint8(9) <= 13 - 9) | (buf - np.uint8(28) <= 32 - 28)
    change = np.diff(space, prepend=True, append=True)
    # the positions where change is set alternate between token starts and
    # token ends; they are found a window at a time, so that the only array
    # of all of them holds int32
    dtype = np.int32 if len(buf) < 1 << 31 else np.int64
    edges, filled = np.empty(np.count_nonzero(change), dtype=dtype), 0
    for a in range(0, len(change), _WINDOW):
        found = np.flatnonzero(change[a:a + _WINDOW])
        np.add(found, a, out=edges[filled:filled + len(found)], casting="unsafe")
        filled += len(found)
    starts = edges[0::2]
    lengths = edges[1::2] - starts
    eol = buf == ord("\n")
    cr = np.flatnonzero(buf == ord("\r"))
    eol[cr[~eol[np.minimum(cr + 1, len(buf) - 1)]]] = True  # unless an LF follows
    ends = np.flatnonzero(eol).astype(dtype)
    # tokens before each line end, so before each line and after the last
    bounds = np.concatenate(([0], np.searchsorted(starts, ends), [len(starts)]))
    return starts, lengths, np.append(bounds[:-1][bounds[1:] > bounds[:-1]], len(starts))


def _row(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray, output_bits: int):
    """The entries of a table row from its tokens: tokens of lower-case hex
    digits through hex_tokens, any other token (upper case, 0x1f, +5, 1_0)
    through int(token, 16)."""
    values, ok = hex_tokens(buf, starts, lengths)
    bits = min(output_bits, 32)  # the array's entries are uint32
    over = np.flatnonzero(ok & (values >= 1 << bits))[:1]
    stop = over[0] if len(over) else len(ok)
    # the other tokens before the first hex token out of range, then that one
    for i in np.flatnonzero(~ok[:stop]).tolist() + over.tolist():
        token = buf[starts[i]:starts[i] + lengths[i]].tobytes().decode("ascii")
        value = int(token, 16)
        if not 0 <= value < 1 << bits:
            raise ValueError(f"entry {token!r} is outside the {bits}-bit range")
        values[i] = value
    return values


def hex_tokens(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> tuple:
    """Values of the tokens buf[starts:starts + lengths] read as hex, and a
    mask of the tokens that are 1 to 15 lower-case hex digits, the form
    hex_rows writes (an int64 holds any such value); the other tokens'
    values are meaningless.  The tokens are read a length at a time, and
    only those of 1 to 15 bytes, so each reads only its own bytes."""
    values = np.zeros(len(starts), dtype=np.int64)
    ok = np.zeros(len(starts), dtype=bool)
    for width in range(1, min(int(lengths.max(initial=0)), _HEX_DIGITS) + 1):
        sel = np.flatnonzero(lengths == width)
        if not len(sel):
            continue
        at = starts[sel]
        worst = digit = _HEX_VALUE[buf[at]]
        value = digit.astype(np.int64)
        for k in range(1, width):
            digit = _HEX_VALUE[buf[at + k]]
            value = value * 16 + digit
            worst = np.maximum(worst, digit)
        values[sel] = value
        ok[sel] = worst < 16
    return values, ok
