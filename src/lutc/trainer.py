"""Quantization-aware training of sparse polynomial networks.

Forward per layer: gather masked (dequantized) inputs, weigh the
monomial basis (basis.weighted_expand, which never holds all M terms),
batch-normalize, then model.activate: ReLU (hidden layers only) and the
layer's learned-scale quantizer, which rounds once; the straight-through
mask is where that rounding needed no clamp.  The backward pass is
derived by hand: the straight-through estimator passes upstream
gradients inside the code interval and takes the clamped code itself as
the scale gradient.

Each layer's cache holds its gathered inputs (n, W, F), not its (n, W, M)
monomials.  Backward expands a layer just before that layer's weight
gradient and input gradient, and drops the monomials before it moves to
the layer below, so at most one layer's expansion is alive.  expand
multiplies out the same terms as the forward pass, so the gradients are
the bits that cached monomials gave.

While training, every trained parameter (all weights, then batch-norm
gammas, shifts and quantizer scales) lives in one flat float64 vector:
the model's arrays are views of it (param_views), backward fills a
gradient vector of the same layout, and AdamW updates it with a few
whole-vector operations.  Features are quantized and dequantized once
per train, not per batch.

The whole loop is deterministic: given the same spec, data, config, and
seed, the trained model and history are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .basis import expand, expand_vjp, weighted_expand, weighted_sum
from .model import LayerParams, TrainedModel, accuracy, activate
from .quantize import BatchNormParams, bn_apply, dequantize, quantize

BN_MOMENTUM = 0.1
SCALE_FLOOR = 1e-6


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"training diverged (non-finite loss) at epoch {epoch}")
        self.epoch = epoch


@dataclass
class TrainConfig:
    epochs: int = 200
    batch_size: int = 128
    base_lr: float = 2e-2
    min_lr: float = 1e-4
    weight_decay: float = 1e-4
    restart_period: int = 50
    restart_mult: int = 2
    seed: int = 0
    loss_kind: str = "softmax"  # "softmax" | "bce"

    def __post_init__(self):
        for key in ("epochs", "batch_size", "restart_period", "restart_mult", "seed"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not (0 < self.min_lr <= self.base_lr):
            raise ValueError("need 0 < min_lr <= base_lr")
        if not (0.0 <= self.weight_decay < math.inf):
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay!r}")
        if self.restart_period < 1 or self.restart_mult < 1:
            raise ValueError("restart_period and restart_mult must be >= 1")
        if self.loss_kind not in ("softmax", "bce"):
            raise ValueError(f"unknown loss_kind {self.loss_kind!r}")


def sgdr_lr(step: int, config: TrainConfig) -> float:
    """Cosine decay from base_lr to min_lr, restarting with period growth."""
    if step < 0:
        raise ValueError("step must be >= 0")
    t, period = step, config.restart_period
    while t >= period:
        t -= period
        period *= config.restart_mult
    return config.min_lr + 0.5 * (config.base_lr - config.min_lr) * (
        1.0 + math.cos(math.pi * t / period)
    )


# ---------------------------------------------------------------------------
# Flat parameter vector


def _trained(model: TrainedModel) -> list:
    """(key, value) of every trained parameter in flat-vector order: all
    weights first, so that weight decay covers one prefix, then the
    batch-norm gammas, the batch-norm shifts and the quantizer scales."""
    ps = model.params
    return ([(f"w{l}", p.weights) for l, p in enumerate(ps)]
            + [(f"gamma{l}", p.bn.gamma) for l, p in enumerate(ps)]
            + [(f"beta{l}", p.bn.beta_shift) for l, p in enumerate(ps)]
            + [(f"s{l}", np.float64(p.quant_scale)) for l, p in enumerate(ps)])


def param_views(model: TrainedModel, flat: np.ndarray | None = None) -> dict:
    """Views of a flat vector (a new one when flat is None) keyed w{l},
    gamma{l}, beta{l} and s{l} (0-d), laid out like the model's parameters."""
    entries, views, at = _trained(model), {}, 0
    if flat is None:
        flat = np.empty(sum(np.size(value) for _, value in entries))
    for key, value in entries:
        views[key] = flat[at : at + np.size(value)].reshape(np.shape(value))
        at += np.size(value)
    return views


# ---------------------------------------------------------------------------
# Forward / backward


def forward(model: TrainedModel, xb: np.ndarray, *, training: bool = True,
            track_stats: bool | None = None, quant_bypass: bool = False,
            linear: bool = False, context: str = ""):
    """Run the batch forward pass, returning (logits, per-layer caches).

    xb holds real features, or input codes (an integer array), which are
    only dequantized; forward_layers runs the layers from there (train
    calls it directly, on features it dequantizes once).  training selects
    batch statistics for batch norm; with running stats instead, the codes
    are forward_codes'.  track_stats (defaults to training) updates the
    running statistics.  quant_bypass turns every quantize-dequantize
    into the identity, which makes the loss differentiable end to end for
    gradient checking.  linear replaces the basis expansion with an
    explicit bias + linear map (only valid for degree-1 specs); used as
    the strict-generalization reference.
    """
    spec = model.spec
    x = np.asarray(xb)
    if x.ndim != 2 or x.shape[1] != spec.input_count:
        raise ValueError(f"expected batch of shape (n, {spec.input_count})")
    if linear and spec.degree != 1:
        raise ValueError("linear reference path requires degree == 1")

    q0 = model.input_quantizer
    if np.issubdtype(x.dtype, np.integer):
        a = dequantize(x, q0)
    else:
        x = x.astype(np.float64, copy=False)
        a = x if quant_bypass else dequantize(quantize(x, q0), q0)
    return forward_layers(model, a, training=training,
                          track_stats=training if track_stats is None else track_stats,
                          quant_bypass=quant_bypass, linear=linear, context=context)


def _monomials(model: TrainedModel, layer: int, xg: np.ndarray, linear: bool) -> np.ndarray:
    """The (n, W, M) monomials of a layer's gathered inputs xg (n, W, F):
    expand's, or with linear a constant bias term and then the inputs,
    stored term-major like expand's terms."""
    if not linear:
        return expand(xg, model.bases[layer])
    terms = np.concatenate([np.ones((1,) + xg.shape[:2]), np.moveaxis(xg, 2, 0)])
    return np.moveaxis(terms, 0, 2)


def forward_layers(model: TrainedModel, a: np.ndarray, *, training: bool,
                   track_stats: bool, quant_bypass: bool, linear: bool, context: str):
    """forward's layer loop from the dequantized inputs a (n, input_count).
    Each layer's cache holds its gathered inputs xg (n, W, F), from which
    backward expands the layer's monomials again."""
    spec = model.spec
    n, caches = a.shape[0], []
    for layer in range(spec.n_layers):
        p = model.params[layer]
        xg = a[:, model.masks[layer]]  # (n, W, F)
        z = (weighted_sum(_monomials(model, layer, xg, linear), p.weights) if linear
             else weighted_expand(xg, model.bases[layer], p.weights))

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if training:  # the operation order of np.mean and np.var
                mu = np.add.reduce(z, axis=0) / n
                xhat = z - mu  # scaled by invstd below
                var = np.add.reduce(xhat * xhat, axis=0) / n
                invstd = 1.0 / np.sqrt(var + p.bn.eps)
                xhat *= invstd
                h = p.bn.gamma * xhat + p.bn.beta_shift
            else:
                invstd = 1.0 / np.sqrt(p.bn.running_var + p.bn.eps)
                xhat = (z - p.bn.running_mean) * invstd
                h = bn_apply(z, p.bn)
        if not np.isfinite(h).all():
            what = "batch-norm output" if np.isfinite(z).all() else "activation"
            raise FloatingPointError(f"non-finite {what} in layer {layer} {context}")
        if training and track_stats:
            p.bn.running_mean = (1 - BN_MOMENTUM) * p.bn.running_mean + BN_MOMENTUM * mu
            p.bn.running_var = (1 - BN_MOMENTUM) * p.bn.running_var + BN_MOMENTUM * var

        last = layer == spec.n_layers - 1
        if quant_bypass:
            c = ste = None
            a = h if last else np.maximum(h, 0.0)
        else:
            q = model.layer_quantizer(layer)
            c, u = activate(h, q, not last)
            ste = c == u  # where the rounded code needed no clamping
            a = c * q.scale

        caches.append(dict(xg=xg, invstd=invstd, xhat=xhat, h=h,
                           c=c, ste=ste, batch_stats=training, last=last))
    return a, caches


def backward(model: TrainedModel, caches: list, dlogits: np.ndarray,
             *, linear: bool = False, out: dict | None = None) -> dict:
    """Chain rule through every layer into one flat gradient vector laid
    out like the trained parameters; returns its param_views (weights,
    batch-norm gamma/shift and each layer's quantizer scale).  out, when
    given, is the param_views of the vector to fill."""
    spec = model.spec
    da = np.asarray(dlogits, dtype=np.float64)
    if da.shape != (caches[-1]["h"].shape[0], spec.layer_widths[-1]):
        raise ValueError("upstream gradient shape does not match the output layer")
    grads = param_views(model) if out is None else out
    n = da.shape[0]
    for layer in reversed(range(spec.n_layers)):
        cache = caches[layer]
        p = model.params[layer]
        bypass = cache["c"] is None  # quantizer bypassed on this path
        grads[f"s{layer}"][...] = 0.0 if bypass else np.add.reduce(da * cache["c"], axis=None)
        dr = da if bypass else da * cache["ste"]
        dh = dr if cache["last"] else dr * (cache["h"] > 0)

        xhat = cache["xhat"]
        np.add.reduce(dh * xhat, axis=0, out=grads[f"gamma{layer}"])
        np.add.reduce(dh, axis=0, out=grads[f"beta{layer}"])
        dxhat = dh * p.bn.gamma
        if cache["batch_stats"]:  # the operation order of np.mean
            dz = dxhat - np.add.reduce(dxhat, axis=0) / n
            dz -= xhat * (np.add.reduce(dxhat * xhat, axis=0) / n)
            dz *= cache["invstd"]
        else:
            dz = dxhat * cache["invstd"]

        m = _monomials(model, layer, cache["xg"], linear)
        # einsum's out= into the view runs ~10x slower than this copy
        grads[f"w{layer}"][...] = np.einsum("nwm,nw->wm", m, dz)

        if layer == 0:
            continue
        dm = dz[:, :, None] * p.weights[None, :, :]
        dxg = dm[:, :, 1:] if linear else expand_vjp(m, dm, model.bases[layer])
        del m, dm  # one layer's monomials are alive at a time, freed before the scatter
        da = _scatter_sources(dxg, model.masks[layer], spec.layer_widths[layer - 1])
        del dxg  # with linear, a view of dm
    return grads


def _scatter_sources(dxg: np.ndarray, mask: np.ndarray, width: int) -> np.ndarray:
    """Sum dxg (n, W, F), the gradient of each neuron's gathered inputs,
    back through the sparsity mask (W, F) into the (n, width) activations
    they were gathered from.  Each sum starts from 0.0 and adds its terms
    in increasing (neuron, input) order, as np.add.at would, so the result
    is the same bits."""
    n = dxg.shape[0]
    at = np.arange(n)[:, None] * width + mask.ravel()
    return np.bincount(at.ravel(), weights=dxg.ravel(), minlength=n * width).reshape(n, width)


# ---------------------------------------------------------------------------
# Losses


def softmax_ce(logits: np.ndarray, labels: np.ndarray):
    n = logits.shape[0]
    zs = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    logz = np.log(np.add.reduce(np.exp(zs), axis=1, keepdims=True))
    logp = zs - logz
    rows = np.arange(n)
    loss = -float(np.add.reduce(logp[rows, labels]) / n)  # np.mean's operation order
    d = np.exp(logp)
    d[rows, labels] -= 1.0
    return loss, d / n


def bce_logit(logits: np.ndarray, labels: np.ndarray):
    if logits.shape[1] != 1:
        raise ValueError("binary cross-entropy expects a single output column")
    z = logits[:, 0]
    y = labels.astype(np.float64)
    # log(1 + exp(-|z|)) formulation for stability
    loss = float(np.mean(np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))))
    sig = 1.0 / (1.0 + np.exp(-z))
    return loss, ((sig - y) / z.shape[0])[:, None]


def compute_loss(logits, labels, loss_kind: str):
    if loss_kind == "bce":
        return bce_logit(logits, labels)
    return softmax_ce(logits, labels)


# ---------------------------------------------------------------------------
# AdamW with decoupled weight decay


@dataclass
class AdamWState:
    """Moments and scratch buffers of AdamW over a flat vector of `size`
    entries, whose first `n_decay` entries weight decay multiplies."""

    size: int
    n_decay: int
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0

    def __post_init__(self):
        self.m, self.v = np.zeros(self.size), np.zeros(self.size)
        self.buf = np.empty((2, self.size))


def adamw_step(theta: np.ndarray, grad: np.ndarray, state: AdamWState, lr: float,
               weight_decay: float) -> None:
    """One AdamW update of the flat vector theta in place: m = b1*m + (1-b1)*g,
    v = b2*v + (1-b2)*g*g, theta -= lr*mhat / (sqrt(vhat) + eps), in that
    operation order, into preallocated buffers.  Decay multiplies
    theta[:state.n_decay] directly (decoupled from the adaptive step); the
    entries after it (batch-norm parameters and scales) stay exempt."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - math.pow(state.beta1, t)
    bc2 = 1.0 - math.pow(state.beta2, t)
    m, v, (a, b) = state.m, state.v, state.buf
    m *= state.beta1
    m += np.multiply(grad, 1.0 - state.beta1, out=a)
    v *= state.beta2
    v += np.multiply(np.multiply(grad, 1.0 - state.beta2, out=a), grad, out=a)
    np.sqrt(np.divide(v, bc2, out=b), out=b)
    b += state.eps
    np.multiply(np.divide(m, bc1, out=a), lr, out=a)
    theta -= np.divide(a, b, out=a)
    if weight_decay != 0.0:
        theta[: state.n_decay] *= 1.0 - lr * weight_decay


# ---------------------------------------------------------------------------
# Training loop


def init_scales(model: TrainedModel, warm_batch: np.ndarray, *,
                linear: bool = False) -> None:
    """Set each layer's quantizer scale to max|activation| / max code over
    one bypassed warm-up batch, so the initial code range covers the data."""
    _, caches = forward(model, warm_batch, training=True, track_stats=True,
                        quant_bypass=True, linear=linear)
    for layer, cache in enumerate(caches):
        q = model.layer_quantizer(layer)
        r = cache["h"] if cache["last"] else np.maximum(cache["h"], 0.0)
        peak = float(np.max(np.abs(r)))
        model.params[layer].quant_scale = max(peak / q.code_max, SCALE_FLOOR)


def train(model: TrainedModel, train_ds, test_ds, config: TrainConfig,
          *, linear: bool = False):
    """Train a copy of the model; returns (trained_model, history).

    history holds one dict per epoch: epoch, lr, train_loss,
    test_accuracy.  Deterministic given (model, data, config).
    """
    # a copy of the model whose weights and batch-norm gammas and shifts are
    # views of theta; theta holds the scales too, which quant_scale mirrors
    theta = np.concatenate([np.ravel(value) for _, value in _trained(model)])
    v = param_views(model, theta)
    model = replace(model, params=[LayerParams(v[f"w{l}"], BatchNormParams(
        v[f"gamma{l}"], v[f"beta{l}"], p.bn.running_mean.copy(), p.bn.running_var.copy(),
        p.bn.eps), p.quant_scale) for l, p in enumerate(model.params)])
    rng = np.random.default_rng(np.random.PCG64(config.seed))
    feats, labels = train_ds.features, train_ds.labels
    n = feats.shape[0]

    init_scales(model, feats[: min(config.batch_size, n)], linear=linear)
    scales = theta[-model.spec.n_layers :]  # the last entries, one per layer
    scales[:] = [p.quant_scale for p in model.params]
    q0 = model.input_quantizer  # not trained: the inputs are quantized once
    a0 = dequantize(quantize(feats, q0), q0)

    grad = np.empty_like(theta)
    grads = param_views(model, grad)
    opt_state = AdamWState(theta.size, sum(p.weights.size for p in model.params))
    history = []
    for epoch in range(config.epochs):
        lr = sgdr_lr(epoch, config)
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            logits, caches = forward_layers(model, a0[idx], training=True,
                                            track_stats=True, quant_bypass=False,
                                            linear=linear, context=f"at epoch {epoch}")
            loss, dlogits = compute_loss(logits, labels[idx], config.loss_kind)
            if not np.isfinite(loss):
                raise TrainingDiverged(epoch)
            backward(model, caches, dlogits, linear=linear, out=grads)
            del logits, caches, dlogits  # two batches' caches are never alive at once
            adamw_step(theta, grad, opt_state, lr, config.weight_decay)
            np.maximum(scales, SCALE_FLOOR, out=scales)
            for p, s in zip(model.params, scales.tolist()):
                p.quant_scale = s
            losses.append(loss)
        entry = dict(epoch=epoch, lr=lr, train_loss=float(np.mean(losses)),
                     test_accuracy=math.nan)
        if test_ds is not None:
            entry["test_accuracy"] = accuracy(model, test_ds.features, test_ds.labels)
        history.append(entry)
    return model, history


def write_history_csv(history: list, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("epoch,lr,train_loss,test_accuracy\n")
        for row in history:
            f.write(f"{row['epoch']},{row['lr']!r},{row['train_loss']!r},"
                    f"{row['test_accuracy']!r}\n")
