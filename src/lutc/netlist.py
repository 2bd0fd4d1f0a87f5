"""Layered LUT netlists: assembly, bit-exact simulation, equivalence
checking against the trained model, and cost/latency/Pareto reporting.

A layer is W truth tables of 2**(F*b) entries each, the rows of one
(W, 2**(F*b)) uint32 array as tabulation returns it, read through one
(W, F) wiring matrix of source indices into the previous layer (the
primary inputs for layer 0); the wiring copies the training-time
sparsity masks.  Every way of making a Netlist checks the layer chain
and that each entry fits its layer's output bits.  Simulation is a pure
integer path (one packed-address gather per layer, no floating point),
one pipeline stage per layer.
Global node ids exist only in the netlist.json file format.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .model import TrainedModel, forward_chunks, forward_codes, labels_from_codes, row_chunks
from .quantize import decode_bits, encode_bits, quantize
from .tables import decode_address, dump_tables, load_tables, pack_address

DEFAULT_K = 6  # native physical-LUT input count assumed by the cost model
EXHAUSTIVE_LIMIT_BITS = 20
# The largest exhaustive_limit accepted: 2**24 vectors at most.
EXHAUSTIVE_CAP_BITS = 24
FAULT_VECTORS = 64  # mismatching vectors whose first diverging node is located


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
    layers = []
    for layer, (width, layer_tables) in enumerate(zip(spec.layer_widths, tables)):
        shape = (width, 1 << spec.table_address_bits(layer))
        if layer_tables.shape != shape:
            raise ValueError(f"layer {layer}: tables of shape {layer_tables.shape}, "
                             f"expected {shape}")
        layers.append(LutLayer(tables=layer_tables,
                               sources=np.array(model.masks[layer], dtype=np.int64),
                               output_bits=spec.beta))
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
    bits = netlist.input_bits
    for lut in netlist.layers:
        out = np.empty((vals.shape[0], lut.width), dtype=np.int64)
        neurons = np.arange(lut.width)
        for rows in row_chunks(vals.shape[0], lut.sources.size):
            out[rows] = lut.tables[neurons, pack_address(vals[rows][:, lut.sources], bits)]
        vals, bits = out, lut.output_bits
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
    within exhaustive_limit (at most EXHAUSTIVE_CAP_BITS); otherwise dataset
    rows (if given) plus budget random vectors.  The stimuli are streamed
    one forward_codes row chunk at a time through the model trace, the
    netlist trace and the comparison, so memory does not grow with the
    vector count.  The report counts the vectors whose outputs differ,
    names the first diverging node of each of the first FAULT_VECTORS of
    them and, with a dataset, gives netlist and model accuracy on its rows.
    """
    if exhaustive_limit > EXHAUSTIVE_CAP_BITS:
        raise ValueError(f"exhaustive_limit {exhaustive_limit} exceeds the cap "
                         f"of {EXHAUSTIVE_CAP_BITS} input bits")
    spec, q0 = model.spec, model.input_quantizer
    n_checked = n_mismatches = n_labelled = net_right = model_right = 0
    faulty, located = set(), 0
    for stim, labels in _stimuli(netlist, model, dataset, budget, seed, exhaustive_limit):
        model_codes, model_trace = forward_codes(model, decode_bits(stim, q0), trace=True)
        net_patterns, traces = simulate(netlist, stim, trace=True)
        diffs = [t != encode_bits(c, model.layer_quantizer(layer))
                 for layer, (t, c) in enumerate(zip(traces, model_trace))]
        bad = np.flatnonzero(diffs[-1].any(axis=1))
        # locate the first diverging node for each of the first mismatching vectors
        for row in bad[: FAULT_VECTORS - located]:
            layer = next(layer for layer, d in enumerate(diffs) if d[row].any())
            faulty.add((layer, int(np.argmax(diffs[layer][row]))))
        located = min(FAULT_VECTORS, located + len(bad))
        n_checked, n_mismatches = n_checked + len(stim), n_mismatches + len(bad)
        if labels is not None:
            net_codes = decode_bits(net_patterns, model.layer_quantizer(spec.n_layers - 1))
            net_right += int(np.count_nonzero(labels_from_codes(net_codes) == labels))
            model_right += int(np.count_nonzero(labels_from_codes(model_codes) == labels))
            n_labelled += len(labels)

    net_acc = mod_acc = None
    if dataset is not None and spec.input_count * netlist.input_bits > exhaustive_limit:
        net_acc, mod_acc = (right / n_labelled if n_labelled else float("nan")
                            for right in (net_right, model_right))
    return EquivalenceReport(n_checked=n_checked, n_mismatches=n_mismatches,
                             faulty_nodes=sorted(faulty), netlist_accuracy=net_acc,
                             model_accuracy=mod_acc)


def _stimuli(netlist: Netlist, model: TrainedModel, dataset, budget: int, seed: int,
             exhaustive_limit: int):
    """Yield equivalence_check's input patterns in forward_chunks row chunks,
    each with its dataset labels or None: every input vector when the input
    space is within exhaustive_limit bits, else the dataset rows, then
    budget seeded random vectors."""
    bits, count, q0 = netlist.input_bits, model.spec.input_count, model.input_quantizer
    if count * bits <= exhaustive_limit:
        for rows in forward_chunks(model, 1 << (count * bits)):
            addrs = np.arange(rows.start, rows.stop, dtype=np.int64)
            yield decode_address(addrs, bits, count), None
        return
    if dataset is not None:
        for rows in forward_chunks(model, len(dataset.labels)):
            codes = quantize(dataset.features[rows], q0)
            yield encode_bits(codes, q0).astype(np.int64), dataset.labels[rows]
    rng = np.random.default_rng(np.random.PCG64(seed))
    for rows in forward_chunks(model, budget):
        yield rng.integers(0, 1 << bits, size=(rows.stop - rows.start, count)), None


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
    per_layer = [lut.width * lut.output_bits * lut_cost(lut.address_bits, target_k)
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
    """Write netlist.json and, beside it, the table dumps; returns the
    path of netlist.json.

    The file numbers the primary inputs 0..input_count-1 and then every
    node in layer order, and names each node's sources by those ids.
    """
    os.makedirs(out_dir, exist_ok=True)
    layers = []
    base, next_id = 0, netlist.input_count  # global ids of source 0 and of the next node
    for lut in netlist.layers:
        layers.append([{"id": next_id + j, "sources": [base + s for s in row]}
                       for j, row in enumerate(lut.sources.tolist())])
        base, next_id = next_id, next_id + lut.width
    doc = {
        "format": "lut-netlist v1",
        "input_count": netlist.input_count,
        "input_bits": netlist.input_bits,
        "clock_period_ns": netlist.clock_period_ns,
        "layers": layers,
    }
    path = os.path.join(out_dir, "netlist.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    dump_tables(netlist.layers, out_dir)
    return path


def load_netlist(in_dir) -> Netlist:
    """Read netlist.json and the table dumps beside it.  A malformed or
    inconsistent file raises ValueError naming the layer and neuron."""
    with open(os.path.join(in_dir, "netlist.json"), "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or doc.get("format") != "lut-netlist v1":
        raise ValueError("netlist.json is not in the lut-netlist v1 format")
    try:
        input_count, input_bits = int(doc["input_count"]), int(doc["input_bits"])
        clock_period_ns = float(doc["clock_period_ns"])
        doc_layers = [list(nodes) for nodes in doc["layers"]]
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"netlist.json: missing or invalid field {e}") from None
    tables = load_tables(in_dir)
    if len(doc_layers) != len(tables):
        raise ValueError(f"netlist.json has {len(doc_layers)} layers, "
                         f"the table dumps {len(tables)}")
    layers = []
    base, next_id, bits = 0, input_count, input_bits
    for layer, (nodes, (layer_tables, output_bits)) in enumerate(zip(doc_layers, tables)):
        if not 0 < len(nodes) == len(layer_tables):
            raise ValueError(f"layer {layer}: {len(nodes)} nodes in netlist.json, "
                             f"{len(layer_tables)} tables in the dump")
        addr_bits, sources = layer_tables.shape[1].bit_length() - 1, []
        for j, node in enumerate(nodes):
            try:
                ids = node["sources"]
                ok = (node["id"] == next_id + j and len(ids) * bits == addr_bits
                      and len(set(ids)) == len(ids) and all(base <= s < next_id for s in ids))
                sources.append([s - base for s in ids])
            except (KeyError, TypeError):
                ok = False
            if not ok:
                raise ValueError(f"layer {layer} neuron {j}: expected id {next_id + j} and "
                                 f"distinct {bits}-bit sources among ids {base}..{next_id - 1} "
                                 f"filling {addr_bits} address bits, got {node}")
        layers.append(LutLayer(tables=layer_tables, sources=np.array(sources, dtype=np.int64),
                               output_bits=output_bits))
        base, next_id, bits = next_id, next_id + len(nodes), layers[-1].output_bits
    return Netlist(input_count=input_count, input_bits=input_bits, layers=layers,
                   clock_period_ns=clock_period_ns)
