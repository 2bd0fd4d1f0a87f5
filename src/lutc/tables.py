"""Neuron-to-truth-table conversion by exhaustive enumeration.

Each neuron becomes one logical LUT: 2**(input_bits) entries of
output_bits-wide codes.  All neurons of a layer read the same address
space through the same quantizer, so a layer is tabulated at once: each
chunk of addresses is decoded and expanded into monomials once, then
weighted by every neuron of the layer (model.layer_eval).

Address packing puts input 0 in the least significant bit slice, input j
in bits [j*b, (j+1)*b); signed codes are stored as two's-complement bit
patterns.  The emitted RTL uses the same convention, so simulation and
hardware agree bit for bit.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass

import numpy as np

from .model import TrainedModel, layer_eval, row_chunks
from .quantize import decode_bits, encode_bits


@dataclass
class TruthTable:
    input_bits: int
    output_bits: int
    entries: np.ndarray  # (2**input_bits,) uint32 bit patterns

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.uint32)
        if self.entries.shape != (1 << self.input_bits,):
            raise ValueError(
                f"expected {1 << self.input_bits} entries, got {self.entries.shape}"
            )
        if self.entries.size and int(self.entries.max()) >= (1 << self.output_bits):
            raise ValueError(f"entry exceeds {self.output_bits}-bit range")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruthTable)
            and self.input_bits == other.input_bits
            and self.output_bits == other.output_bits
            and np.array_equal(self.entries, other.entries)
        )

    def sha256(self) -> str:
        return hashlib.sha256(self.entries.astype("<u4").tobytes()).hexdigest()


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


def tabulate_layer(model: TrainedModel, layer: int, neurons=None) -> list:
    """Tables of a layer's neurons (default all of them), enumerating the
    layer's address space once through the bit-exact model path."""
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
    return [TruthTable(input_bits=addr_bits, output_bits=spec.beta, entries=e)
            for e in entries]


def tabulate_neuron(model: TrainedModel, layer: int, neuron: int) -> TruthTable:
    """Enumerate every input combination of one neuron."""
    return tabulate_layer(model, layer, [neuron])[0]


def tabulate_model(model: TrainedModel) -> list:
    """One table per neuron, grouped per layer."""
    return [tabulate_layer(model, layer) for layer in range(model.spec.n_layers)]


def verify_table(model: TrainedModel, table: TruthTable, layer: int, neuron: int,
                 sample_count: int = 4096, seed: int = 0) -> np.ndarray:
    """Re-evaluate addresses through the model path; returns mismatching
    addresses.  Exhaustive when the table has at most 2**16 entries."""
    total = table.entries.size
    if total <= (1 << 16):
        addrs = np.arange(total, dtype=np.int64)
    else:
        rng = np.random.default_rng(np.random.PCG64(seed))
        addrs = rng.integers(0, total, size=sample_count, dtype=np.int64)
    return addrs[table.entries[addrs] != _entries(model, layer, addrs, [neuron])[:, 0]]


# ---------------------------------------------------------------------------
# Dump format: one text file per layer, header + hex entries


def dump_tables(tables: list, out_dir) -> list:
    """Write layer{l}_tables.txt files; returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for layer, layer_tables in enumerate(tables):
        path = os.path.join(out_dir, f"layer{layer}_tables.txt")
        with open(path, "w", encoding="utf-8") as f:
            f.write("lut-tables v1\n")
            f.write(f"layer {layer}\n")
            f.write(f"neurons {len(layer_tables)}\n")
            f.write(f"input_bits {layer_tables[0].input_bits}\n")
            f.write(f"output_bits {layer_tables[0].output_bits}\n")
            for j, table in enumerate(layer_tables):
                f.write(f"neuron {j}\n")
                ent = table.entries
                for start in range(0, ent.size, 16):
                    f.write(" ".join(f"{v:x}" for v in ent[start : start + 16]) + "\n")
        paths.append(path)
    return paths


def load_tables(in_dir) -> list:
    """Read back every layer{l}_tables.txt in layer order."""
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

    tables = []
    for layer in range(len(found)):
        with open(found[layer], "r", encoding="utf-8") as f:
            lines = [ln.strip() for ln in f if ln.strip()]
        if lines[0] != "lut-tables v1":
            raise ValueError(f"{found[layer]}: bad header {lines[0]!r}")
        head = dict(ln.split() for ln in lines[1:5])
        n_neurons = int(head["neurons"])
        input_bits = int(head["input_bits"])
        output_bits = int(head["output_bits"])
        size = 1 << input_bits
        layer_tables = []
        pos = 5
        for j in range(n_neurons):
            if lines[pos] != f"neuron {j}":
                raise ValueError(f"{found[layer]}: expected 'neuron {j}', got {lines[pos]!r}")
            pos += 1
            vals = []
            while len(vals) < size:
                vals.extend(int(v, 16) for v in lines[pos].split())
                pos += 1
            layer_tables.append(
                TruthTable(input_bits=input_bits, output_bits=output_bits,
                           entries=np.array(vals, dtype=np.uint32))
            )
        tables.append(layer_tables)
    return tables
