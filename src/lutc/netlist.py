"""Layered LUT netlists: assembly, bit-exact simulation, equivalence
checking against the trained model, and cost/latency/Pareto reporting.

A netlist node holds one truth table and the ids of its sources; wiring
copies the training-time sparsity masks.  Simulation is a pure integer
path (packed-address lookups, no floating point), one pipeline stage per
layer.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .model import TrainedModel, forward_codes, labels_from_codes
from .quantize import decode_bits, encode_bits, quantize
from .tables import TruthTable, decode_address, load_tables, pack_address

DEFAULT_K = 6  # native physical-LUT input count assumed by the cost model
EXHAUSTIVE_LIMIT_BITS = 20


@dataclass
class LutNode:
    id: int
    layer: int
    index: int
    table: TruthTable
    sources: tuple  # global ids: previous-layer nodes, or primary inputs for layer 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LutNode)
            and (self.id, self.layer, self.index, self.sources)
            == (other.id, other.layer, other.index, other.sources)
            and self.table == other.table
        )


@dataclass
class Netlist:
    input_count: int
    input_bits: int  # code width of each primary input
    layers: list  # list of list[LutNode]
    clock_period_ns: float

    def __post_init__(self):
        next_id = self.input_count
        for layer, nodes in enumerate(self.layers):
            lo = 0 if layer == 0 else self.layers[layer - 1][0].id
            hi = self.input_count if layer == 0 else lo + len(self.layers[layer - 1])
            for node in nodes:
                if node.id != next_id:
                    raise ValueError(f"node ids must be dense; expected {next_id}")
                if any(s < lo or s >= hi for s in node.sources):
                    raise ValueError(
                        f"node {node.id} (layer {layer}) wires outside layer {layer - 1}"
                    )
                next_id += 1

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def n_nodes(self) -> int:
        return sum(len(nodes) for nodes in self.layers)

    @property
    def output_bits(self) -> int:
        return self.layers[-1][0].table.output_bits

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Netlist)
            and (self.input_count, self.input_bits) == (other.input_count, other.input_bits)
            and self.clock_period_ns == other.clock_period_ns
            and self.layers == other.layers
        )


def build_netlist(model: TrainedModel, tables: list) -> Netlist:
    """Wire the per-neuron tables according to the sparsity masks."""
    spec = model.spec
    if len(tables) != spec.n_layers:
        raise ValueError("one table list per layer required")
    layers = []
    next_id = spec.input_count
    base = 0  # global id of the first node in the previous layer
    for layer in range(spec.n_layers):
        width = spec.layer_widths[layer]
        if len(tables[layer]) != width:
            raise ValueError(f"layer {layer}: expected {width} tables, got {len(tables[layer])}")
        fan = spec.layer_fan_in(layer)
        nodes = []
        for j in range(width):
            table = tables[layer][j]
            if table.input_bits != spec.table_address_bits(layer):
                raise ValueError(
                    f"layer {layer} neuron {j}: table input_bits {table.input_bits} "
                    f"does not match {spec.table_address_bits(layer)}"
                )
            mask = model.masks[layer][j]
            if len(mask) != fan:
                raise ValueError(f"layer {layer} neuron {j}: mask arity mismatch")
            nodes.append(
                LutNode(id=next_id, layer=layer, index=j, table=table,
                        sources=tuple(int(base + s) for s in mask))
            )
            next_id += 1
        base = nodes[0].id
        layers.append(nodes)
    return Netlist(input_count=spec.input_count, input_bits=spec.layer_input_bits(0),
                   layers=layers, clock_period_ns=spec.clock_period_ns)


def simulate(netlist: Netlist, inputs: np.ndarray, *, trace: bool = False):
    """Table lookups layer by layer on raw input bit patterns.

    inputs: (n, input_count) unsigned code patterns.  Returns the output
    patterns, or (outputs, per-layer trace) with trace=True.
    """
    vals = np.asarray(inputs, dtype=np.int64)
    if vals.ndim != 2 or vals.shape[1] != netlist.input_count:
        raise ValueError(f"expected (n, {netlist.input_count}) input patterns")
    if np.any(vals < 0) or np.any(vals >= (1 << netlist.input_bits)):
        raise ValueError(f"input pattern outside {netlist.input_bits}-bit range")
    traces = []
    base = 0
    for layer, nodes in enumerate(netlist.layers):
        bits_in = netlist.input_bits if layer == 0 else netlist.layers[layer - 1][0].table.output_bits
        out = np.empty((vals.shape[0], len(nodes)), dtype=np.int64)
        for j, node in enumerate(nodes):
            fields = vals[:, [s - base for s in node.sources]]
            addrs = pack_address(fields, bits_in)
            out[:, j] = node.table.entries[addrs]
        base = nodes[0].id
        vals = out
        if trace:
            traces.append(out.copy())
    return (vals, traces) if trace else vals


@dataclass
class EquivalenceReport:
    n_checked: int
    n_mismatches: int
    faulty_nodes: list  # (layer, index) of first divergence per mismatching vector
    netlist_accuracy: float | None = None
    model_accuracy: float | None = None

    @property
    def ok(self) -> bool:
        return self.n_mismatches == 0


def equivalence_check(netlist: Netlist, model: TrainedModel, dataset=None,
                      budget: int = 10000, seed: int = 0,
                      exhaustive_limit: int = EXHAUSTIVE_LIMIT_BITS) -> EquivalenceReport:
    """Compare netlist simulation against the quantized model, integer-exact.

    Exhaustive over the full input space when input_count * input_bits is
    within exhaustive_limit; otherwise dataset rows (if given) plus budget
    random vectors.
    """
    spec = model.spec
    total_bits = spec.input_count * netlist.input_bits
    patterns = []
    labels = None
    if total_bits <= exhaustive_limit:
        addrs = np.arange(1 << total_bits, dtype=np.int64)
        patterns.append(decode_address(addrs, netlist.input_bits, spec.input_count))
    else:
        if dataset is not None:
            codes = quantize(dataset.features, model.input_quantizer)
            patterns.append(encode_bits(codes, model.input_quantizer).astype(np.int64))
            labels = dataset.labels
        rng = np.random.default_rng(np.random.PCG64(seed))
        patterns.append(
            rng.integers(0, 1 << netlist.input_bits,
                         size=(budget, spec.input_count)).astype(np.int64)
        )
    stim = np.concatenate(patterns)

    model_codes, model_trace = forward_codes(model, decode_bits(stim, model.input_quantizer),
                                             trace=True)
    net_patterns, traces = simulate(netlist, stim, trace=True)
    diffs = [t != encode_bits(c, model.layer_quantizer(layer))
             for layer, (t, c) in enumerate(zip(traces, model_trace))]
    bad = diffs[-1].any(axis=1)
    faulty = set()
    # locate the first diverging node for each of the first 64 mismatching vectors
    for row in np.flatnonzero(bad)[:64]:
        layer = next(layer for layer, d in enumerate(diffs) if d[row].any())
        faulty.add((layer, int(np.argmax(diffs[layer][row]))))

    net_acc = mod_acc = None
    if labels is not None:
        nd = labels.shape[0]
        net_codes = decode_bits(net_patterns[:nd], model.layer_quantizer(spec.n_layers - 1))
        net_acc = float(np.mean(labels_from_codes(net_codes) == labels))
        mod_acc = float(np.mean(labels_from_codes(model_codes[:nd]) == labels))
    return EquivalenceReport(n_checked=stim.shape[0], n_mismatches=int(bad.sum()),
                             faulty_nodes=sorted(faulty), netlist_accuracy=net_acc,
                             model_accuracy=mod_acc)


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
    per_layer = []
    for nodes in netlist.layers:
        per_layer.append(sum(
            lut_cost(n.table.input_bits, target_k) * n.table.output_bits for n in nodes
        ))
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
    pts = [(float(a), float(b), i) for i, (a, b) in enumerate(points)]
    pts.sort(key=lambda t: (t[0], t[1], t[2]))
    kept = []
    best_prev = np.inf  # min second coordinate over strictly smaller first coords
    i = 0
    while i < len(pts):
        j = i
        while j < len(pts) and pts[j][0] == pts[i][0]:
            j += 1
        group = pts[i:j]
        group_min = group[0][1]
        for a, b, idx in group:
            # strictly-cheaper x with y <= b dominates; same x needs y < b
            if b < best_prev and b <= group_min:
                kept.append((a, b, idx))
        best_prev = min(best_prev, group_min)
        i = j
    kept.sort(key=lambda t: (t[0], t[2]))
    return [(a, b) for a, b, _ in kept]


# ---------------------------------------------------------------------------
# Export / import (netlist.json alongside the table dumps)


def save_netlist(netlist: Netlist, out_dir) -> str:
    """Write netlist.json; the table dumps live in the same directory."""
    os.makedirs(out_dir, exist_ok=True)
    doc = {
        "format": "lut-netlist v1",
        "input_count": netlist.input_count,
        "input_bits": netlist.input_bits,
        "clock_period_ns": netlist.clock_period_ns,
        "layers": [
            [{"id": n.id, "sources": list(n.sources)} for n in nodes]
            for nodes in netlist.layers
        ],
    }
    path = os.path.join(out_dir, "netlist.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return path


def load_netlist(in_dir) -> Netlist:
    with open(os.path.join(in_dir, "netlist.json"), "r", encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("format") != "lut-netlist v1":
        raise ValueError(f"unrecognized netlist format {doc.get('format')!r}")
    tables = load_tables(in_dir)
    layers = []
    for layer, nodes in enumerate(doc["layers"]):
        if len(nodes) != len(tables[layer]):
            raise ValueError(f"layer {layer}: table dump does not match the netlist")
        layers.append([
            LutNode(id=int(n["id"]), layer=layer, index=j,
                    table=tables[layer][j], sources=tuple(int(s) for s in n["sources"]))
            for j, n in enumerate(nodes)
        ])
    return Netlist(input_count=int(doc["input_count"]), input_bits=int(doc["input_bits"]),
                   layers=layers, clock_period_ns=float(doc["clock_period_ns"]))
