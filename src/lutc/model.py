"""Architecture description and trained-model container.

A network is a stack of fully-pipelined sparse layers.  Each neuron sees
exactly F predecessor outputs (fixed before training by a seeded mask),
expands them into the monomial basis of degree <= D, applies a weight
vector, batch norm, an activation, and a learned-scale quantizer.  Hidden
layers use quantized ReLU (unsigned codes); the output layer uses batch
norm + identity with a signed quantizer, and classification is argmax
over the output codes.

layer_eval, which evaluates all neurons of a layer at once, is the one
inference path: tabulation enumerates it, and layer_codes chains it a row
chunk at a time, through memo_layer_eval, for forward_codes and the
equivalence check; its last step, activate (ReLU and one rounding), is
the trainer's too.  Its weighted sum is basis.weighted_expand,
which adds each monomial's weighted value as soon as it is formed, in
basis order with elementwise multiply-adds, so a code depends on neither
the batch nor the BLAS kernel.  The kernel keeps only the terms of
degree < D alive, and row chunks are sized by the elements it and the
layer's other arrays keep per row (row_elements), not by W * M.
"""

from __future__ import annotations

import numbers
import zipfile
from dataclasses import dataclass, field

import numpy as np

# expand is not called here, but lutc.model.expand stays bound: perfbench's
# tracer test wraps and restores it through this module
from .basis import MAX_TERMS, MonomialBasis, count_monomials, enumerate_basis, expand, weighted_expand  # noqa: F401
from .quantize import (
    BatchNormParams,
    Quantizer,
    bn_apply,
    bn_identity,
    dequantize,
    quantize,
    round_half_away,
)

# Hard cap on beta * fan_in so a single truth table never exceeds 2**24 entries.
ENUM_GUARD_BITS = 24

# Widest top-level port, in bits: IEEE 1364-2001 guarantees vectors of 2**16 bits.
PORT_BITS = 1 << 16

# Row chunks keep about this many 8-byte elements alive (see row_elements).
CHUNK_ELEMENTS = 1 << 19

CHECKPOINT_VERSION = 1

# Benchmark architecture presets plus a desk-scale toy profile.  input_count is the raw
# feature dimension each dataset presents to layer 0.
PROFILES: dict[str, dict] = {
    "jsc-m": dict(layer_widths=[64, 32, 32, 32, 5], beta=3, fan_in=4, degree=2,
                  input_count=16, clock_period_ns=1.6),
    "jsc-m-lite": dict(layer_widths=[64, 32, 5], beta=3, fan_in=4, degree=6,
                       input_count=16, clock_period_ns=1.6),
    "jsc-xl": dict(layer_widths=[128, 64, 64, 64, 5], beta=5, fan_in=3, degree=4,
                   input_count=16, input_beta=7, input_fan_in=2,
                   clock_period_ns=2.0),
    "nid-lite": dict(layer_widths=[686, 147, 98, 49, 1], beta=2, fan_in=7, degree=4,
                     input_count=49, input_beta=1, clock_period_ns=1.6),
    "hdr": dict(layer_widths=[256, 100, 100, 100, 100, 10], beta=2, fan_in=6,
                degree=4, input_count=784, clock_period_ns=2.0),
    "spiral": dict(layer_widths=[8, 8, 2], beta=4, fan_in=2, degree=3,
                   input_count=2, clock_period_ns=1.6),
}


@dataclass(frozen=True)
class NetworkSpec:
    """Compile-time architecture description (one benchmark-table row)."""

    layer_widths: tuple
    beta: int
    fan_in: int
    degree: int
    input_count: int
    input_beta: int | None = None  # layer-0 override for the input code width
    input_fan_in: int | None = None  # layer-0 override for the fan-in
    seed: int = 0
    clock_period_ns: float = 1.6

    def __post_init__(self):
        violations = validate_spec(self)
        if violations:
            raise ValueError("invalid NetworkSpec: " + "; ".join(violations))
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))

    @property
    def n_layers(self) -> int:
        return len(self.layer_widths)

    def layer_fan_in(self, layer: int) -> int:
        if layer == 0 and self.input_fan_in is not None:
            return self.input_fan_in
        return self.fan_in

    def layer_input_bits(self, layer: int) -> int:
        """Code width of each source feeding this layer."""
        if layer == 0:
            return self.input_beta if self.input_beta is not None else self.beta
        return self.beta

    def prev_width(self, layer: int) -> int:
        return self.input_count if layer == 0 else self.layer_widths[layer - 1]

    def table_address_bits(self, layer: int) -> int:
        return self.layer_input_bits(layer) * self.layer_fan_in(layer)


def validate_spec(spec) -> list[str]:
    """Return every violated invariant (empty list means the spec is valid).
    A field of the wrong type (an integer field given a bool or a float,
    clock_period_ns given a bool or a non-real) is reported alone, before
    any invariant is checked."""
    widths = tuple(spec.layer_widths)
    ints = [(k, getattr(spec, k)) for k in ("beta", "fan_in", "degree", "input_count",
                                            "input_beta", "input_fan_in", "seed")]
    ints += [(f"layer_widths[{i}]", w) for i, w in enumerate(widths)]
    v = [f"{k} must be an integer, got {x!r}" for k, x in ints
         if x is not None and (isinstance(x, bool) or not isinstance(x, (int, np.integer)))]
    clock = spec.clock_period_ns
    if isinstance(clock, bool) or not isinstance(clock, numbers.Real):
        v.append(f"clock_period_ns must be a real number, got {clock!r}")
    if v:
        return v
    if len(widths) < 1:
        v.append("at least one layer required")
    if any(w < 1 for w in widths):
        v.append("all layer widths must be >= 1")
    if not (2 <= spec.beta <= 8):
        v.append(f"beta must be in [2, 8], got {spec.beta}: a signed "
                 f"{spec.beta}-bit output layer has no positive code")
    if spec.input_beta is not None and not (1 <= spec.input_beta <= 8):
        v.append(f"input_beta must be in [1, 8], got {spec.input_beta}")
    if spec.fan_in < 1:
        v.append(f"fan_in must be >= 1, got {spec.fan_in}")
    if spec.input_fan_in is not None and spec.input_fan_in < 1:
        v.append(f"input_fan_in must be >= 1, got {spec.input_fan_in}")
    if spec.degree < 1:
        v.append(f"degree must be >= 1, got {spec.degree}")
    if spec.input_count < 1:
        v.append(f"input_count must be >= 1, got {spec.input_count}")
    if not (0 <= spec.seed < 1 << 63):  # the checkpoint stores it as an int64
        v.append(f"seed must be in [0, 2**63), got {spec.seed}")
    if not (0 < spec.clock_period_ns < np.inf):
        v.append(f"clock_period_ns must be positive and finite, got {spec.clock_period_ns}")
    if not v:
        bits = spec.layer_input_bits(0)
        if spec.input_count * bits > PORT_BITS:
            v.append(f"input_count {spec.input_count} of {bits} bits exceeds the "
                     f"{PORT_BITS}-bit input port")
        if widths[-1] * spec.beta > PORT_BITS:
            v.append(f"{widths[-1]} outputs of {spec.beta} bits exceed the "
                     f"{PORT_BITS}-bit output port")
        for layer in range(len(widths)):
            fan = spec.layer_fan_in(layer)
            prev = spec.prev_width(layer)
            if fan > prev:
                v.append(f"layer {layer}: fan_in {fan} exceeds predecessor width {prev}")
            bits = spec.table_address_bits(layer)
            if bits > ENUM_GUARD_BITS:
                v.append(
                    f"layer {layer}: enumeration guard violated "
                    f"({bits} address bits > cap {ENUM_GUARD_BITS})"
                )
            try:
                too_many = count_monomials(fan, spec.degree) > MAX_TERMS
            except OverflowError:
                too_many = True
            if too_many:
                v.append(f"layer {layer}: a degree-{spec.degree} basis in {fan} inputs has "
                         f"more than the cap of {MAX_TERMS} monomials")
    return v


def spec_from_profile(name: str, **overrides) -> NetworkSpec:
    if name not in PROFILES:
        raise KeyError(f"unknown profile {name!r}; available: {sorted(PROFILES)}")
    kwargs = dict(PROFILES[name])
    kwargs.update(overrides)
    return NetworkSpec(**kwargs)


# ---------------------------------------------------------------------------
# Sparsity masks


def _covered_draw(rng, width: int, prev: int, fan: int) -> np.ndarray:
    """Random (width, fan) wiring that uses every predecessor output.

    A permutation of the predecessors is dealt round-robin over a shuffled
    neuron order (at most ceil(prev/width) <= fan distinct entries per
    neuron), then, in neuron order, the remaining slots of each short
    neuron are filled uniformly without replacement from its unused
    predecessors: rng.choice draws ranks k among the prev - dealt unused
    ones, and the k-th unused predecessor is k plus the number of dealt
    ones at or below it.
    """
    order, perm = rng.permutation(width), rng.permutation(prev)
    owner = order[np.arange(prev) % width]
    dealt = perm[np.lexsort((perm, owner))]  # by neuron, each ascending
    ends = np.cumsum(np.bincount(owner, minlength=width))
    out = np.empty((width, fan), dtype=np.int64)
    for n, mine in enumerate(np.split(dealt, ends[:-1])):
        count = len(mine)
        out[n, :count] = mine
        if count < fan:
            k = rng.choice(prev - count, size=fan - count, replace=False)
            out[n, count:] = k + np.searchsorted(mine - np.arange(count), k, side="right")
    out.sort(axis=1)
    return out


def build_masks(spec: NetworkSpec, seed: int) -> list[np.ndarray]:
    """Draw per-neuron fixed fan-in wiring, one (width, F) index array per layer.

    Indices are distinct and sorted per neuron.  Whenever a layer draws at
    least as many wires as its predecessor has outputs, every predecessor
    output must be used at least once; such layers are drawn with
    _covered_draw, which covers them by construction (whole-layer
    rejection is hopeless at benchmark scale).  Narrower layers draw each
    neuron uniformly.
    """
    rng = np.random.default_rng(np.random.PCG64(seed))
    masks = []
    for layer in range(spec.n_layers):
        width = spec.layer_widths[layer]
        prev = spec.prev_width(layer)
        fan = spec.layer_fan_in(layer)
        if fan * width >= prev:
            m = _covered_draw(rng, width, prev, fan)
        else:
            m = np.stack([np.sort(rng.choice(prev, size=fan, replace=False))
                          for _ in range(width)])
        m.setflags(write=False)
        masks.append(m)
    return masks


# ---------------------------------------------------------------------------
# Trained parameters


@dataclass
class LayerParams:
    weights: np.ndarray  # (width, M)
    bn: BatchNormParams
    quant_scale: float


@dataclass
class TrainedModel:
    spec: NetworkSpec
    masks: list
    params: list
    input_quantizer: Quantizer
    bases: list = field(default_factory=list)

    def __post_init__(self):
        if len(self.masks) != self.spec.n_layers or len(self.params) != self.spec.n_layers:
            raise ValueError("masks/params length must equal the layer count")
        if not self.bases:
            fans = [self.spec.layer_fan_in(l) for l in range(self.spec.n_layers)]
            shared = {fan: enumerate_basis(fan, self.spec.degree) for fan in set(fans)}
            self.bases = [shared[fan] for fan in fans]

    def layer_quantizer(self, layer: int) -> Quantizer:
        signed = layer == self.spec.n_layers - 1
        return Quantizer(bits=self.spec.beta, signed=signed,
                         scale=self.params[layer].quant_scale)

    def source_quantizer(self, layer: int) -> Quantizer:
        return self.input_quantizer if layer == 0 else self.layer_quantizer(layer - 1)


def input_quantizer_for(spec: NetworkSpec) -> Quantizer:
    """Signed quantizer covering normalized features in [-1, 1] with beta0 bits."""
    bits = spec.layer_input_bits(0)
    scale = 1.0 / max(1, (1 << (bits - 1)) - 1)
    return Quantizer(bits=bits, signed=True, scale=scale)


def init_model(spec: NetworkSpec, seed: int | None = None) -> TrainedModel:
    """Masks from the seeded generator, weights uniform in +-sqrt(1/M),
    identity batch norm, unit quantizer scales (retuned by the trainer)."""
    if seed is None:
        seed = spec.seed
    masks = build_masks(spec, seed)
    rng = np.random.default_rng(np.random.PCG64(seed + 1))
    params = []
    for layer in range(spec.n_layers):
        width = spec.layer_widths[layer]
        m = count_monomials(spec.layer_fan_in(layer), spec.degree)
        bound = np.sqrt(1.0 / m)
        w = rng.uniform(-bound, bound, size=(width, m))
        params.append(LayerParams(weights=w, bn=bn_identity(width), quant_scale=1.0))
    return TrainedModel(spec=spec, masks=masks, params=params,
                        input_quantizer=input_quantizer_for(spec))


# ---------------------------------------------------------------------------
# Bit-exact inference path


def row_chunks(n: int, row_elements: int) -> list:
    """Slices of max(1, CHUNK_ELEMENTS // row_elements) rows covering range(n), or [0:0]."""
    step = max(1, CHUNK_ELEMENTS // max(1, row_elements))
    return [slice(start, min(start + step, n)) for start in range(0, max(n, 1), step)]


def row_elements(basis: MonomialBasis, code_rows: int, width: int) -> int:
    """The 8-byte elements layer_eval keeps alive per row of
    (n, code_rows, F) codes for width neurons: per code row, the integer
    codes, their dequantized and transposed copies and weighted_expand's
    kept terms; per neuron, the sums, batch-norm outputs and activations."""
    return code_rows * (3 * basis.fan_in + basis.parents) + 6 * width


def layer_eval(model: TrainedModel, layer: int, codes: np.ndarray) -> np.ndarray:
    """Quantized output codes (n, W) of the layer's neurons.  codes
    (n, W, F) holds each neuron's masked source codes in mask order;
    (n, 1, F) codes are shared by all W neurons: tabulation's addresses,
    and the source-code tuples memo_layer_eval stores."""
    p = model.params[layer]
    # transposed once per call: in Fortran order, w.T is what weighted_expand reads
    w = np.asfortranarray(p.weights)
    width = w.shape[0]
    codes, fan = np.asarray(codes, dtype=np.int64), model.spec.layer_fan_in(layer)
    if codes.ndim != 3 or codes.shape[1] not in (1, width) or codes.shape[2] != fan:
        raise ValueError(f"layer {layer}: expected (n, {width} or 1, {fan}) codes")
    qin, qout = model.source_quantizer(layer), model.layer_quantizer(layer)
    hidden = layer < model.spec.n_layers - 1
    basis = model.bases[layer]
    out = np.empty((codes.shape[0], width), dtype=np.int64)
    for rows in row_chunks(codes.shape[0], row_elements(basis, codes.shape[1], width)):
        z = weighted_expand(dequantize(codes[rows], qin), basis, w)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            h = bn_apply(z, p.bn)
        bad = ~np.isfinite(h).all(axis=0)
        if bad.any():
            raise ValueError(f"layer {layer} neuron {np.argmax(bad)}: non-finite pre-activation")
        out[rows] = activate(h, qout, hidden)[0]
    return out


def activate(h: np.ndarray, q: Quantizer, hidden: bool):
    """The step after batch norm, shared by layer_eval and the trainer: ReLU
    on hidden layers, then the quantizer with one rounding.  Returns the
    codes (float64) and u = round(r / s); codes == u where no clamp acted."""
    u = round_half_away((np.maximum(h, 0.0) if hidden else h) / q.scale)
    return np.minimum(np.maximum(u, q.code_min), q.code_max), u


def forward_chunks(model: TrainedModel, n: int) -> list:
    """The row chunks of n rows that layer_codes runs through every layer:
    sized for the layer whose per-neuron codes keep the most elements
    alive, so that a chunk that memo_layer_eval sends per neuron stays
    within CHUNK_ELEMENTS."""
    return row_chunks(n, max(row_elements(b, w, w)
                             for w, b in zip(model.spec.layer_widths, model.bases)))


def layer_codes(model: TrainedModel, n: int, inputs):
    """Yield (rows, codes) for each forward_chunks chunk of n rows: codes[0]
    is inputs(rows), the chunk's input codes, called once per chunk in
    order, and codes[l + 1] is layer l's codes at codes[l], from
    memo_layer_eval with a memo for this call.  A call of one chunk has
    none: no later chunk could reuse a tuple, and on its few rows
    layer_eval's cost is mostly per call.  codes is emptied before the
    next chunk, so that no two chunks' codes are alive at once.  The
    input codes must lie in the input quantizer's range; nothing here
    checks them."""
    chunks = forward_chunks(model, n)
    memo = [None] * model.spec.n_layers if len(chunks) > 1 else None
    for rows in chunks:
        codes = [inputs(rows)]
        for layer in range(model.spec.n_layers):
            codes.append(memo_layer_eval(model, memo, layer, codes[-1]))
        yield rows, codes
        codes.clear()


def memo_layer_eval(model: TrainedModel, memo: list | None, layer: int,
                    acts: np.ndarray) -> np.ndarray:
    """The layer's (n, W) codes at the previous layer's codes acts (n,
    previous width): layer_eval(model, layer, acts[:, mask])'s codes, with
    each distinct source-code tuple evaluated at most once per call.

    memo is None, which runs per neuron, or one call's store (layer_codes
    makes it), one entry per layer: None until the layer's first chunk,
    False if that chunk went per neuron, else the layer's (2**N, W) int8
    or uint8 codes by tuple and a (2**N,) mask of the tuples filled.

    Each (row, neuron) is keyed by its F source codes, each offset by
    code_min and packed b bits apiece, input 0 lowest.  When a chunk's
    new tuples are no more than its rows, one layer_eval call evaluates
    them for all W neurons through the shared (n, 1, F) path and stores
    them, and the codes are one gather from the memo; otherwise the chunk
    goes per neuron and nothing is stored.  So no chunk evaluates more
    codes, or holds more, than the per-neuron path would on it.  A layer
    whose first chunk goes per neuron stays so for the call: jsc-narrow's
    layer 0 reaches 9 774 tuples on the check's first 936 rows, and the
    trained hdr-train checkpoint's layers 1-4 reach 400-650 on 18 rows.  A
    layer whose memo would exceed 8 * CHUNK_ELEMENTS bytes goes per neuron
    too.  Those are all the rules.  acts must lie in the source
    quantizer's range, or a key would address another tuple: layer_codes'
    callers see to it (forward_codes checks its inputs, hidden codes come
    from the quantizer, and the equivalence check decodes bit patterns).

    The codes are layer_eval's bit for bit.  Its errors are not quite: a
    fill evaluates every neuron at each new tuple, so a neuron that is
    non-finite only at a tuple another neuron reaches is named, as
    tabulation would name it, where the per-neuron path would not.
    """
    mask = model.masks[layer]
    width, fan = mask.shape
    qin = model.source_quantizer(layer)
    size = 1 << (qin.bits * fan)
    entry = False if memo is None else memo[layer]
    if entry is False or width * size > 8 * CHUNK_ELEMENTS:
        return layer_eval(model, layer, acts[:, mask])
    keys = acts[:, mask[:, 0]] - qin.code_min
    for j in range(1, fan):
        keys |= (acts[:, mask[:, j]] - qin.code_min) << (j * qin.bits)
    reached = np.zeros(size, dtype=bool)
    reached[keys.reshape(-1)] = True
    new = np.flatnonzero(reached if entry is None else reached & ~entry[1])
    if len(new) > len(acts):
        if entry is None:
            memo[layer] = False
        return layer_eval(model, layer, acts[:, mask])
    if entry is None:
        signed = model.layer_quantizer(layer).signed
        entry = memo[layer] = (np.empty((size, width), dtype=np.int8 if signed else np.uint8),
                               np.zeros(size, dtype=bool))
    store, filled = entry
    if len(new):
        fields = (new[:, None] >> (qin.bits * np.arange(fan))) & ((1 << qin.bits) - 1)
        store[new] = layer_eval(model, layer, (fields + qin.code_min)[:, None, :])
        filled[new] = True
    return np.take(store.reshape(-1), keys * width + np.arange(width)).astype(np.int64)


def forward_codes(model: TrainedModel, codes0: np.ndarray) -> np.ndarray:
    """Layer-by-layer quantized inference from input codes to output codes:
    the last layer's codes from layer_codes (see memo_layer_eval).  Input
    codes that layer 0 reads are checked once per call, a column's
    extremes at a time; a code outside the input quantizer's range raises
    ValueError."""
    acts = np.asarray(codes0, dtype=np.int64)
    if acts.ndim != 2 or acts.shape[1] != model.spec.input_count:
        raise ValueError(f"expected (n, {model.spec.input_count}) input codes")
    if len(acts):  # dequantize raises on a code outside the input range
        dequantize(np.stack([acts.min(axis=0), acts.max(axis=0)])[:, model.masks[0]],
                   model.input_quantizer)
    out = np.empty((acts.shape[0], model.spec.layer_widths[-1]), dtype=np.int64)
    for rows, codes in layer_codes(model, acts.shape[0], acts.__getitem__):
        out[rows] = codes[-1]
    return out


def eval_codes(model: TrainedModel, x: np.ndarray) -> np.ndarray:
    """Quantize real features and run the bit-exact inference path."""
    codes0 = quantize(np.asarray(x, dtype=np.float64), model.input_quantizer)
    return forward_codes(model, codes0)


def predict(model: TrainedModel, x: np.ndarray) -> np.ndarray:
    return labels_from_codes(eval_codes(model, x))


def labels_from_codes(out_codes: np.ndarray) -> np.ndarray:
    """Argmax over output codes; a single output column is thresholded at 0."""
    if out_codes.shape[1] == 1:
        return (out_codes[:, 0] > 0).astype(np.int64)
    return np.argmax(out_codes, axis=1)


def accuracy(model: TrainedModel, features: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(predict(model, features) == labels))


def validate_model(model: TrainedModel) -> list[str]:
    """Return every violated parameter invariant, naming input_scale or
    the layer and the neuron (empty list means the model is sound)."""
    v: list[str] = []
    spec = model.spec
    if not 0 < model.input_quantizer.scale < np.inf:
        v.append(f"input_scale {model.input_quantizer.scale} is not positive and finite")
    for layer, (mask, p) in enumerate(zip(model.masks, model.params)):
        width, fan = spec.layer_widths[layer], spec.layer_fan_in(layer)
        prev, mask = spec.prev_width(layer), np.asarray(mask)
        if mask.shape != (width, fan) or not np.issubdtype(mask.dtype, np.integer):
            v.append(f"layer {layer}: mask is {mask.dtype} {mask.shape}, "
                     f"expected integer {(width, fan)}")
        else:
            bad = (((mask < 0) | (mask >= prev)).any(axis=1)
                   | (np.diff(mask, axis=1) <= 0).any(axis=1))
            v += [f"layer {layer} neuron {j}: mask {mask[j].tolist()} is not sorted "
                  f"distinct sources below {prev}" for j in np.flatnonzero(bad)]
        terms = count_monomials(fan, spec.degree)
        stats = [p.bn.gamma, p.bn.beta_shift, p.bn.running_mean, p.bn.running_var]
        kinds = sorted({str(a.dtype) for a in [p.weights] + stats if a.dtype.kind != "f"})
        if kinds:
            v.append(f"layer {layer}: weights and batch-norm statistics must be real floating "
                     f"arrays, got {', '.join(kinds)}")
            continue
        if p.weights.shape != (width, terms) or any(a.shape != (width,) for a in stats):
            v.append(f"layer {layer}: weights {p.weights.shape} or batch-norm shapes "
                     f"do not match {width} neurons of {terms} monomials")
            continue
        rows = np.column_stack([p.weights] + stats)
        v += [f"layer {layer} neuron {j}: non-finite parameter"
              for j in np.flatnonzero(~np.isfinite(rows).all(axis=1))]
        v += [f"layer {layer} neuron {j}: batch-norm variance + eps is not positive"
              for j in np.flatnonzero(~(p.bn.running_var + p.bn.eps > 0))]
        if not np.isfinite(p.bn.eps):
            v.append(f"layer {layer}: batch-norm eps {p.bn.eps} is not finite")
        if not (np.isfinite(p.quant_scale) and p.quant_scale > 0):
            v.append(f"layer {layer}: quantizer scale {p.quant_scale} is not positive")
    return v


# ---------------------------------------------------------------------------
# Checkpoint serialization (versioned .npz; round-trips bit-exactly)


def save_checkpoint(model: TrainedModel, path) -> None:
    spec = model.spec
    arrays = {
        "version": np.int64(CHECKPOINT_VERSION),
        "layer_widths": np.array(spec.layer_widths, dtype=np.int64),
        "scalars": np.array(
            [spec.beta, spec.fan_in, spec.degree, spec.input_count,
             -1 if spec.input_beta is None else spec.input_beta,
             -1 if spec.input_fan_in is None else spec.input_fan_in,
             spec.seed, ENUM_GUARD_BITS],  # the cap is written, not read back
            dtype=np.int64,
        ),
        "clock_period_ns": np.float64(spec.clock_period_ns),
        "input_scale": np.float64(model.input_quantizer.scale),
    }
    for layer, (mask, p) in enumerate(zip(model.masks, model.params)):
        arrays[f"mask_{layer}"] = np.asarray(mask, dtype=np.int64)
        arrays[f"w_{layer}"] = p.weights
        arrays[f"bn_{layer}"] = np.stack(
            [p.bn.gamma, p.bn.beta_shift, p.bn.running_mean, p.bn.running_var]
        )
        arrays[f"bn_eps_{layer}"] = np.float64(p.bn.eps)
        arrays[f"scale_{layer}"] = np.float64(p.quant_scale)
    np.savez(path, **arrays)


def load_checkpoint(path) -> TrainedModel:
    """Read a checkpoint written by save_checkpoint.  A path that is not an
    .npz archive, a missing array, a scalar array of another shape or
    kind, a scalars array that is not 8 integers, layer_widths that are
    not a 1-d integer array, a bn array that is not 4 rows, an
    input_scale that is not positive and finite or a model that fails
    validate_model raises ValueError naming the array or the layer."""
    try:
        with np.load(path) as z:
            version = int(_scalar(z, "version"))
            if version != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {version}")
            s, widths = z["scalars"], z["layer_widths"]
            if s.shape != (8,) or not np.issubdtype(s.dtype, np.integer):
                raise ValueError(f"scalars is {s.dtype} {s.shape}, expected integer (8,)")
            if widths.ndim != 1 or not np.issubdtype(widths.dtype, np.integer):
                raise ValueError(f"layer_widths is {widths.dtype} {widths.shape}, "
                                 "expected a 1-d integer array")
            spec = NetworkSpec(
                layer_widths=tuple(int(w) for w in widths),
                beta=int(s[0]), fan_in=int(s[1]), degree=int(s[2]),
                input_count=int(s[3]),
                input_beta=None if int(s[4]) < 0 else int(s[4]),
                input_fan_in=None if int(s[5]) < 0 else int(s[5]),
                seed=int(s[6]),
                clock_period_ns=_scalar(z, "clock_period_ns"),
            )
            masks, params = [], []
            for layer in range(spec.n_layers):
                masks.append(z[f"mask_{layer}"])
                stats = z[f"bn_{layer}"]
                if stats.shape[:1] != (4,):
                    raise ValueError(f"layer {layer}: bn_{layer} is {stats.dtype} "
                                     f"{stats.shape}, expected 4 rows of batch-norm statistics")
                bn = BatchNormParams(*stats, eps=_scalar(z, f"bn_eps_{layer}"))
                params.append(LayerParams(z[f"w_{layer}"], bn, _scalar(z, f"scale_{layer}")))
            input_scale = _scalar(z, "input_scale")
            if not 0 < input_scale < np.inf:  # before Quantizer rejects it unnamed
                raise ValueError(f"input_scale {input_scale} is not positive and finite")
            iq = input_quantizer_for(spec).with_scale(input_scale)
    except KeyError as e:  # np.load's "<name> is not a file in the archive"
        raise ValueError(f"missing array ({e.args[0]})") from None
    except (OSError, EOFError, zipfile.BadZipFile) as e:  # a directory, an empty or cut file
        raise ValueError(f"not an .npz checkpoint: {e}") from None
    model = TrainedModel(spec=spec, masks=masks, params=params, input_quantizer=iq)
    violations = validate_model(model)
    if violations:
        raise ValueError("invalid checkpoint: " + "; ".join(violations))
    return model


def _scalar(z, name: str):
    """The archive's 0-d integer or float array name, as a float."""
    a = z[name]
    if a.ndim != 0 or a.dtype.kind not in "iuf":
        raise ValueError(f"{name} is {a.dtype} {a.shape}, expected a scalar")
    return float(a)
