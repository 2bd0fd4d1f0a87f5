"""Quantization-aware training of sparse polynomial networks.

Forward per layer: gather masked (dequantized) inputs, expand into the
monomial basis, weight, batch-normalize, ReLU (hidden layers only), then
quantize with the layer's learned scale.  The backward pass is derived by
hand; the rounding step uses the straight-through estimator, passing
upstream gradients inside the unclamped code interval and the clamped
code itself as the scale gradient.

The whole loop is deterministic: given the same spec, data, config, and
seed, the trained model and history are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import expand, expand_vjp, weighted_sum
from .model import TrainedModel, accuracy
from .quantize import dequantize, quantize, ste_mask

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
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (0 < self.min_lr <= self.base_lr):
            raise ValueError("need 0 < min_lr <= base_lr")
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
# Forward / backward


def forward(model: TrainedModel, xb: np.ndarray, *, training: bool = True,
            track_stats: bool | None = None, quant_bypass: bool = False,
            linear: bool = False, context: str = ""):
    """Run the batch forward pass, returning (logits, per-layer caches).

    training selects batch statistics for batch norm (vs running stats);
    track_stats (defaults to training) updates the running statistics.
    quant_bypass turns every quantize-dequantize into the identity, which
    makes the loss differentiable end to end for gradient checking.
    linear replaces the basis expansion with an explicit bias + linear
    map (only valid for degree-1 specs); used as the strict-generalization
    reference implementation.
    """
    if track_stats is None:
        track_stats = training
    spec = model.spec
    x = np.asarray(xb, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.input_count:
        raise ValueError(f"expected batch of shape (n, {spec.input_count})")
    if linear and spec.degree != 1:
        raise ValueError("linear reference path requires degree == 1")

    q0 = model.input_quantizer
    a = x if quant_bypass else dequantize(quantize(x, q0), q0)

    caches = []
    for layer in range(spec.n_layers):
        p = model.params[layer]
        xg = a[:, model.masks[layer]]  # (n, W, F)
        if linear:  # a constant bias term, then the inputs, stored like expand's terms
            terms = np.concatenate([np.ones((1,) + xg.shape[:2]), np.moveaxis(xg, 2, 0)])
            m = np.moveaxis(terms, 0, 2)
        else:
            m = expand(xg, model.bases[layer])
        z = weighted_sum(m, p.weights)
        if not np.all(np.isfinite(z)):
            raise FloatingPointError(f"non-finite activation in layer {layer} {context}")

        if training:
            mu = z.mean(axis=0)
            var = z.var(axis=0)
            if track_stats:
                p.bn.running_mean = (1 - BN_MOMENTUM) * p.bn.running_mean + BN_MOMENTUM * mu
                p.bn.running_var = (1 - BN_MOMENTUM) * p.bn.running_var + BN_MOMENTUM * var
        else:
            mu, var = p.bn.running_mean, p.bn.running_var
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            invstd = 1.0 / np.sqrt(var + p.bn.eps)
            xhat = (z - mu) * invstd
            h = p.bn.gamma * xhat + p.bn.beta_shift
        if not np.all(np.isfinite(h)):
            raise FloatingPointError(
                f"non-finite batch-norm output in layer {layer} {context}")

        last = layer == spec.n_layers - 1
        r = h if last else np.maximum(h, 0.0)

        q = model.layer_quantizer(layer)
        if quant_bypass:
            c, ste, a = None, None, r
        else:
            c = quantize(r, q)
            ste = ste_mask(r, q)
            a = c * q.scale

        caches.append(dict(m=m, invstd=invstd, xhat=xhat, h=h,
                           c=c, ste=ste, batch_stats=training, last=last))
    return a, caches


def backward(model: TrainedModel, caches: list, dlogits: np.ndarray,
             *, linear: bool = False) -> dict:
    """Chain rule through every layer; returns gradients keyed like
    params_as_dict (weights, bn gamma/shift, per-layer quantizer scale)."""
    spec = model.spec
    da = np.asarray(dlogits, dtype=np.float64)
    if da.shape != (caches[-1]["h"].shape[0], spec.layer_widths[-1]):
        raise ValueError("upstream gradient shape does not match the output layer")
    grads: dict[str, np.ndarray] = {}
    for layer in reversed(range(spec.n_layers)):
        cache = caches[layer]
        p = model.params[layer]
        if cache["c"] is None:  # quantizer bypassed on this path
            dr = da
            grads[f"s{layer}"] = np.float64(0.0)
        else:
            grads[f"s{layer}"] = np.float64(np.sum(da * cache["c"]))
            dr = da * cache["ste"]
        dh = dr if cache["last"] else dr * (cache["h"] > 0)

        xhat = cache["xhat"]
        grads[f"gamma{layer}"] = np.sum(dh * xhat, axis=0)
        grads[f"beta{layer}"] = np.sum(dh, axis=0)
        dxhat = dh * p.bn.gamma
        if cache["batch_stats"]:
            dz = cache["invstd"] * (
                dxhat - dxhat.mean(axis=0) - xhat * (dxhat * xhat).mean(axis=0)
            )
        else:
            dz = dxhat * cache["invstd"]

        m = cache["m"]
        grads[f"w{layer}"] = np.einsum("nwm,nw->wm", m, dz)

        if layer == 0:
            continue
        dm = dz[:, :, None] * p.weights[None, :, :]
        dxg = dm[:, :, 1:] if linear else expand_vjp(m, dm, model.bases[layer])
        # scatter-add through the sparsity mask into the previous activations
        n = dxg.shape[0]
        da_t = np.zeros((spec.layer_widths[layer - 1], n))
        np.add.at(da_t, model.masks[layer].ravel(),
                  dxg.transpose(1, 2, 0).reshape(-1, n))
        da = da_t.T
    return grads


# ---------------------------------------------------------------------------
# Losses


def softmax_ce(logits: np.ndarray, labels: np.ndarray):
    n = logits.shape[0]
    zs = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(zs).sum(axis=1, keepdims=True))
    logp = zs - logz
    loss = -float(np.mean(logp[np.arange(n), labels]))
    d = np.exp(logp)
    d[np.arange(n), labels] -= 1.0
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
class OptimizerState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adamw_step(params: dict, grads: dict, state: OptimizerState, lr: float,
               weight_decay: float, decay_keys: set) -> None:
    """One AdamW update in place.  Decay multiplies the parameter directly
    (decoupled from the adaptive gradient step) and only touches keys in
    decay_keys; batch-norm parameters and quantizer scales stay exempt."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - math.pow(state.beta1, t)
    bc2 = 1.0 - math.pow(state.beta2, t)
    for key, g in grads.items():
        g = np.asarray(g, dtype=np.float64)
        if key not in state.m:
            state.m[key] = np.zeros_like(g)
            state.v[key] = np.zeros_like(g)
        state.m[key] = state.beta1 * state.m[key] + (1.0 - state.beta1) * g
        state.v[key] = state.beta2 * state.v[key] + (1.0 - state.beta2) * g * g
        mhat = state.m[key] / bc1
        vhat = state.v[key] / bc2
        params[key] = params[key] - lr * mhat / (np.sqrt(vhat) + state.eps)
        if key in decay_keys and weight_decay > 0.0:
            params[key] = params[key] * (1.0 - lr * weight_decay)


def params_as_dict(model: TrainedModel) -> dict:
    out = {}
    for layer, p in enumerate(model.params):
        out[f"w{layer}"] = p.weights
        out[f"gamma{layer}"] = p.bn.gamma
        out[f"beta{layer}"] = p.bn.beta_shift
        out[f"s{layer}"] = np.float64(p.quant_scale)
    return out


def apply_param_dict(model: TrainedModel, params: dict) -> None:
    for layer, p in enumerate(model.params):
        p.weights = params[f"w{layer}"]
        p.bn.gamma = params[f"gamma{layer}"]
        p.bn.beta_shift = params[f"beta{layer}"]
        p.quant_scale = max(float(params[f"s{layer}"]), SCALE_FLOOR)


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
    model = replace(model, params=[p.copy() for p in model.params])
    rng = np.random.default_rng(np.random.PCG64(config.seed))
    feats, labels = train_ds.features, train_ds.labels
    n = feats.shape[0]

    init_scales(model, feats[: min(config.batch_size, n)], linear=linear)

    opt_state = OptimizerState()
    decay = {f"w{layer}" for layer in range(model.spec.n_layers)}
    history = []
    for epoch in range(config.epochs):
        lr = sgdr_lr(epoch, config)
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            logits, caches = forward(model, feats[idx], training=True,
                                     linear=linear, context=f"at epoch {epoch}")
            loss, dlogits = compute_loss(logits, labels[idx], config.loss_kind)
            if not np.isfinite(loss):
                raise TrainingDiverged(epoch)
            grads = backward(model, caches, dlogits, linear=linear)
            params = params_as_dict(model)
            adamw_step(params, grads, opt_state, lr, config.weight_decay, decay)
            apply_param_dict(model, params)
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
