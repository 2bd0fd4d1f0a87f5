"""Architecture description and trained-model container.

A network is a stack of fully-pipelined sparse layers.  Each neuron sees
exactly F predecessor outputs (fixed before training by a seeded mask),
expands them into the monomial basis of degree <= D, applies a weight
vector, batch norm, an activation, and a learned-scale quantizer.  Hidden
layers use quantized ReLU (unsigned codes); the output layer uses batch
norm + identity with a signed quantizer, and classification is argmax
over the output codes.

layer_eval, which evaluates all neurons of a layer at once, is the one
inference path: forward_codes chains it, tabulation enumerates it and
the equivalence check replays it; its last step, activate (ReLU and one
rounding), is the trainer's too.  Its weighted sum is basis.weighted_expand,
which adds each monomial's weighted value as soon as it is formed, in
basis order with elementwise multiply-adds, so a code depends on neither
the batch nor the BLAS kernel.  The kernel keeps only the terms of
degree < D alive, and row chunks are sized by the elements it and the
layer's other arrays keep per row (row_elements), not by W * M.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# expand is not called here, but lutc.model.expand stays bound: perfbench's
# tracer test wraps and restores it through this module
from .basis import MonomialBasis, count_monomials, enumerate_basis, expand, weighted_expand  # noqa: F401
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
    enum_guard: int = ENUM_GUARD_BITS

    def __post_init__(self):
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        violations = validate_spec(self)
        if violations:
            raise ValueError("invalid NetworkSpec: " + "; ".join(violations))

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
    """Return every violated invariant (empty list means the spec is valid)."""
    v: list[str] = []
    widths = tuple(spec.layer_widths)
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
    if not (spec.clock_period_ns > 0):
        v.append("clock_period_ns must be positive")
    if not v:
        for layer in range(len(widths)):
            fan = spec.layer_fan_in(layer)
            prev = spec.prev_width(layer)
            if fan > prev:
                v.append(f"layer {layer}: fan_in {fan} exceeds predecessor width {prev}")
            bits = spec.table_address_bits(layer)
            if bits > spec.enum_guard:
                v.append(
                    f"layer {layer}: enumeration guard violated "
                    f"({bits} address bits > cap {spec.enum_guard})"
                )
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
    neuron), then the remaining slots are filled uniformly without
    replacement from each neuron's unused predecessors.
    """
    rows: list[list[int]] = [[] for _ in range(width)]
    order = rng.permutation(width)
    for pos, p in enumerate(rng.permutation(prev)):
        rows[order[pos % width]].append(int(p))
    out = np.empty((width, fan), dtype=np.int64)
    for n, r in enumerate(rows):
        missing = fan - len(r)
        if missing:
            free = np.ones(prev, dtype=bool)
            free[r] = False
            r = r + rng.choice(np.flatnonzero(free), size=missing, replace=False).tolist()
        out[n] = np.sort(r)
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


def layer_eval(model: TrainedModel, layer: int, codes: np.ndarray,
               neurons=None) -> np.ndarray:
    """Quantized output codes (n, W) of the layer's neurons (or of the
    subset `neurons`).  codes (n, W, F) holds each neuron's masked source
    codes in mask order; (n, 1, F) codes are shared by all W neurons."""
    p = model.params[layer]
    sel = slice(None) if neurons is None else np.asarray(neurons, dtype=np.int64)
    w = p.weights[sel]
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
            h = bn_apply(z, p.bn, sel)
        bad = ~np.isfinite(h).all(axis=0)
        if bad.any():
            neuron = np.arange(len(p.weights))[sel][np.argmax(bad)]
            raise ValueError(f"layer {layer} neuron {neuron}: non-finite pre-activation")
        out[rows] = activate(h, qout, hidden)[0]
    return out


def activate(h: np.ndarray, q: Quantizer, hidden: bool):
    """The step after batch norm, shared by layer_eval and the trainer: ReLU
    on hidden layers, then the quantizer with one rounding.  Returns the
    codes (float64) and u = round(r / s); codes == u where no clamp acted."""
    u = round_half_away((np.maximum(h, 0.0) if hidden else h) / q.scale)
    return np.minimum(np.maximum(u, q.code_min), q.code_max), u


def forward_chunks(model: TrainedModel, n: int) -> list:
    """The row chunks of n rows that forward_codes runs through every layer
    at once: sized for the layer whose per-neuron codes keep the most
    elements alive."""
    return row_chunks(n, max(row_elements(b, w, w)
                             for w, b in zip(model.spec.layer_widths, model.bases)))


def forward_codes(model: TrainedModel, codes0: np.ndarray, *, trace: bool = False):
    """Layer-by-layer quantized inference from input codes to output codes,
    or (output codes, per-layer codes) with trace=True.  Row chunks go
    through every layer, so the gathered (rows, W, F) codes stay bounded."""
    acts = np.asarray(codes0, dtype=np.int64)
    if acts.ndim != 2 or acts.shape[1] != model.spec.input_count:
        raise ValueError(f"expected (n, {model.spec.input_count}) input codes")
    chunks = []
    for rows in forward_chunks(model, acts.shape[0]):
        a, layers = acts[rows], []
        for layer, mask in enumerate(model.masks):
            a = layer_eval(model, layer, a[:, mask])
            layers.append(a)
        chunks.append(layers if trace else [a])
    outs = [np.concatenate(c) for c in zip(*chunks)]
    return (outs[-1], outs) if trace else outs[-1]


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
    """Return every violated parameter invariant, naming the layer and the
    neuron (empty list means the model is sound)."""
    v: list[str] = []
    spec = model.spec
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
        if p.weights.shape != (width, terms) or any(a.shape != (width,) for a in stats):
            v.append(f"layer {layer}: weights {p.weights.shape} or batch-norm shapes "
                     f"do not match {width} neurons of {terms} monomials")
            continue
        rows = np.column_stack([p.weights] + stats)
        v += [f"layer {layer} neuron {j}: non-finite parameter"
              for j in np.flatnonzero(~np.isfinite(rows).all(axis=1))]
        v += [f"layer {layer} neuron {j}: batch-norm variance + eps is not positive"
              for j in np.flatnonzero(~(p.bn.running_var + p.bn.eps > 0))]
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
             spec.seed, spec.enum_guard],
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
    with np.load(path) as z:
        version = int(z["version"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        s = z["scalars"]
        spec = NetworkSpec(
            layer_widths=tuple(int(w) for w in z["layer_widths"]),
            beta=int(s[0]), fan_in=int(s[1]), degree=int(s[2]),
            input_count=int(s[3]),
            input_beta=None if int(s[4]) < 0 else int(s[4]),
            input_fan_in=None if int(s[5]) < 0 else int(s[5]),
            seed=int(s[6]), enum_guard=int(s[7]),
            clock_period_ns=float(z["clock_period_ns"]),
        )
        masks, params = [], []
        for layer in range(spec.n_layers):
            masks.append(z[f"mask_{layer}"])
            gamma, shift, mean, var = z[f"bn_{layer}"]
            bn = BatchNormParams(gamma, shift, mean, var, eps=float(z[f"bn_eps_{layer}"]))
            params.append(LayerParams(z[f"w_{layer}"], bn, float(z[f"scale_{layer}"])))
        iq = input_quantizer_for(spec).with_scale(float(z["input_scale"]))
    model = TrainedModel(spec=spec, masks=masks, params=params, input_quantizer=iq)
    violations = validate_model(model)
    if violations:
        raise ValueError("invalid checkpoint: " + "; ".join(violations))
    return model
