"""Independent reference check of compiled truth tables.

`equivalence_check` in lutc compares the netlist against the model path
that produced the tables, so a fault shared by both (a NaN weight, a
wrong basis order) passes it.  This module re-derives table entries from
the checkpoint with its own code and the documented conventions only:

  address  input k occupies bits [k*b, (k+1)*b), input 0 at the LSB
  codes    layer 0 reads signed (two's complement) input codes, hidden
           layers read unsigned codes, the output layer writes signed codes
  neuron   dequantize (code * scale), monomials of degree <= D in graded
           order (by total degree, ties in descending lexicographic order
           of the exponent tuple), weighted sum, batch norm with running
           statistics, ReLU on hidden layers, divide by the layer's scale,
           round half away from zero, clamp to the code range

A sampled entry that differs from the reference counts as a disagreement
unless the reference value lies within REF_TOL code units of a rounding
boundary, where summation order may legitimately decide the rounding.
"""

from __future__ import annotations

import itertools
import os

import numpy as np

REF_TOL = 1e-6  # code units
REF_SAMPLES = 256  # addresses per table; every address of smaller tables


def basis_exponents(fan_in: int, degree: int) -> list:
    terms = []
    for d in range(degree + 1):
        terms += sorted((e for e in itertools.product(range(d + 1), repeat=fan_in)
                         if sum(e) == d), reverse=True)
    return terms


def read_checkpoint(path) -> dict:
    with np.load(path) as z:
        s = z["scalars"]
        ck = dict(widths=[int(w) for w in z["layer_widths"]], beta=int(s[0]),
                  fan_in=int(s[1]), degree=int(s[2]),
                  input_beta=int(s[4]) if int(s[4]) >= 0 else int(s[0]),
                  input_fan_in=int(s[5]) if int(s[5]) >= 0 else int(s[1]),
                  input_scale=float(z["input_scale"]), layers=[])
        for layer in range(len(ck["widths"])):
            ck["layers"].append(dict(w=z[f"w_{layer}"], bn=z[f"bn_{layer}"],
                                     eps=float(z[f"bn_eps_{layer}"]),
                                     scale=float(z[f"scale_{layer}"])))
    return ck


def _read_text_tables(path, layer: int):
    """(neurons, input_bits, lookup(neuron, addrs)) for a `lut-tables v1`
    dump; lookup parses only the entries it is asked for."""
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().split("\n")
    head = dict(ln.split() for ln in lines[1:5])
    if lines[0] != "lut-tables v1" or int(head["layer"]) != layer:
        raise ValueError(f"{path}: not a lut-tables v1 dump of layer {layer}")
    size = 1 << int(head["input_bits"])
    stride = 1 + -(-size // 16)
    n = int(head["neurons"])

    def lookup(neuron: int, addrs: np.ndarray) -> np.ndarray:
        base = 5 + neuron * stride
        if lines[base] != f"neuron {neuron}":
            raise ValueError(f"{path}: expected 'neuron {neuron}' at line {base + 1}")
        return np.array([int(lines[base + 1 + a // 16].split()[a % 16], 16)
                         for a in addrs.tolist()], dtype=np.int64)

    return n, int(head["input_bits"]), lookup


def _table_readers(net_dir, n_layers: int) -> list:
    paths = [os.path.join(net_dir, f"layer{l}_tables.txt") for l in range(n_layers)]
    if all(os.path.exists(p) for p in paths):
        return [_read_text_tables(p, l) for l, p in enumerate(paths)]
    # another dump format: read it back through the library's public reader
    from lutc.tables import load_tables

    readers = []
    for layer_tables in load_tables(net_dir):
        readers.append((len(layer_tables), layer_tables[0].input_bits,
                        lambda j, a, t=layer_tables: t[j].entries[a].astype(np.int64)))
    return readers


def reference_codes(ck: dict, layer: int, addrs: np.ndarray):
    """Reference output bit patterns for (width, n) addresses of one layer,
    with masks of the entries whose value sits within REF_TOL of a rounding
    boundary and of those whose value is not finite."""
    last = layer == len(ck["widths"]) - 1
    fan = ck["input_fan_in"] if layer == 0 else ck["fan_in"]
    bits_in = ck["input_beta"] if layer == 0 else ck["beta"]
    s_in = ck["input_scale"] if layer == 0 else ck["layers"][layer - 1]["scale"]
    p = ck["layers"][layer]

    v = []
    for k in range(fan):
        code = (addrs >> (k * bits_in)) & ((1 << bits_in) - 1)
        if layer == 0:  # signed source codes
            code = np.where(code >= 1 << (bits_in - 1), code - (1 << bits_in), code)
        v.append(code.astype(np.float64) * s_in)

    z = np.zeros(addrs.shape)
    for i, exps in enumerate(basis_exponents(fan, ck["degree"])):
        term = np.ones(addrs.shape)
        for k, e in enumerate(exps):
            for _ in range(e):
                term = term * v[k]
        z = z + p["w"][:, i, None] * term
    gamma, shift, mean, var = (row[:, None] for row in p["bn"])
    h = gamma * (z - mean) / np.sqrt(var + p["eps"]) + shift
    if not last:
        h = np.maximum(h, 0.0)
    y = h / p["scale"]
    code = np.copysign(np.floor(np.abs(y) + 0.5), y)
    lo, hi = (-(1 << (ck["beta"] - 1)), (1 << (ck["beta"] - 1)) - 1) if last \
        else (0, (1 << ck["beta"]) - 1)
    finite = np.isfinite(y)
    code = np.clip(np.where(finite, code, 0.0), lo, hi).astype(np.int64)
    near_tie = finite & (np.abs(np.abs(y) % 1.0 - 0.5) <= REF_TOL)
    return code & ((1 << ck["beta"]) - 1), near_tie, ~finite


def check_tables(checkpoint_path, net_dir, seed: int) -> tuple[int, int]:
    """(disagreements, entries checked) over a seeded sample of every table."""
    ck = read_checkpoint(checkpoint_path)
    readers = _table_readers(net_dir, len(ck["widths"]))
    disagree = checked = 0
    for layer, (n_neurons, input_bits, lookup) in enumerate(readers):
        if n_neurons != ck["widths"][layer]:
            raise ValueError(f"layer {layer}: {n_neurons} tables for "
                             f"{ck['widths'][layer]} neurons")
        fan = ck["input_fan_in"] if layer == 0 else ck["fan_in"]
        bits_in = ck["input_beta"] if layer == 0 else ck["beta"]
        if input_bits != fan * bits_in:
            raise ValueError(f"layer {layer}: {input_bits}-bit tables for "
                             f"{fan} inputs of {bits_in} bits")
        size = 1 << input_bits
        rng = np.random.default_rng([seed, layer])
        if size <= REF_SAMPLES:
            addrs = np.broadcast_to(np.arange(size), (n_neurons, size))
        else:
            addrs = rng.integers(0, size, size=(n_neurons, REF_SAMPLES))
        expect, near_tie, nonfinite = reference_codes(ck, layer, addrs)
        got = np.stack([lookup(j, addrs[j]) for j in range(n_neurons)])
        bad = ((got != expect) & ~near_tie) | nonfinite
        disagree += int(bad.sum())
        checked += bad.size
    return disagree, checked
