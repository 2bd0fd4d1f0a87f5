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
hardware agree bit for bit.  The tables are written to and read from
disk by netlist.py, beside the wiring.
"""

from __future__ import annotations

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


def _entries(model: TrainedModel, layer: int, addrs: np.ndarray) -> np.ndarray:
    """Bit patterns (n, W) of the layer's outputs at packed addresses."""
    spec = model.spec
    fields = decode_address(addrs, spec.layer_input_bits(layer), spec.layer_fan_in(layer))
    codes = decode_bits(fields, model.source_quantizer(layer))[:, None, :]
    return encode_bits(layer_eval(model, layer, codes), model.layer_quantizer(layer))


def tabulate_layer(model: TrainedModel, layer: int) -> np.ndarray:
    """The (W, 2**N) uint32 tables of a layer's neurons, enumerating the
    layer's address space once through the bit-exact model path."""
    spec = model.spec
    addr_bits = spec.table_address_bits(layer)
    width = spec.layer_widths[layer]
    entries = np.empty((width, 1 << addr_bits), dtype=np.uint32)
    for rows in row_chunks(1 << addr_bits, row_elements(model.bases[layer], 1, width)):
        addrs = np.arange(rows.start, rows.stop, dtype=np.int64)
        entries[:, rows] = _entries(model, layer, addrs).T
    return entries


def tabulate_model(model: TrainedModel) -> list:
    """One (W, 2**N) table array per layer."""
    return [tabulate_layer(model, layer) for layer in range(model.spec.n_layers)]
