"""Uniform quantizers with learned scales, plus batch-norm primitives.

Codes are plain integers: unsigned codes span [0, 2**bits - 1], signed
codes span [-2**(bits-1), 2**(bits-1) - 1] (two's complement when packed
into address bits).  Rounding is half away from zero everywhere so the
trained model, the tabulated truth tables, and the emitted RTL agree
bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


def round_half_away(y: np.ndarray) -> np.ndarray:
    """Round to nearest integer, ties away from zero."""
    y = np.asarray(y, dtype=np.float64)
    return np.copysign(np.floor(np.abs(y) + 0.5), y)


@dataclass(frozen=True)
class Quantizer:
    bits: int
    signed: bool
    scale: float

    def __post_init__(self):
        if not (1 <= self.bits <= 8):
            raise ValueError(f"bits must be in [1, 8], got {self.bits}")
        if not (self.scale > 0):
            raise ValueError(f"scale must be positive, got {self.scale}")

    @property
    def code_min(self) -> int:
        return -(1 << (self.bits - 1)) if self.signed else 0

    @property
    def code_max(self) -> int:
        return (1 << (self.bits - 1)) - 1 if self.signed else (1 << self.bits) - 1

    def with_scale(self, scale: float) -> "Quantizer":
        return replace(self, scale=scale)


def quantize(v: np.ndarray, q: Quantizer) -> np.ndarray:
    """Real value -> integer code: clamp(round(v / s)) onto the code range."""
    codes = round_half_away(np.asarray(v, dtype=np.float64) / q.scale)
    return np.clip(codes, q.code_min, q.code_max).astype(np.int64)


def dequantize(c: np.ndarray, q: Quantizer) -> np.ndarray:
    """Integer code -> real value c * s.  Codes must lie in range."""
    c = np.asarray(c)
    if np.any(c < q.code_min) or np.any(c > q.code_max):
        raise ValueError(
            f"code outside [{q.code_min}, {q.code_max}] for {q.bits}-bit "
            f"{'signed' if q.signed else 'unsigned'} quantizer"
        )
    return c.astype(np.float64) * q.scale


def ste_mask(v: np.ndarray, q: Quantizer) -> np.ndarray:
    """True where round(v / s) lands inside the code range without clamping."""
    codes = round_half_away(np.asarray(v, dtype=np.float64) / q.scale)
    return (codes >= q.code_min) & (codes <= q.code_max)


def ste_backward(upstream_grad: np.ndarray, v: np.ndarray, q: Quantizer) -> np.ndarray:
    """Straight-through estimator: pass the gradient where unclamped, else 0."""
    return np.where(ste_mask(v, q), upstream_grad, 0.0)


def scale_grad(v: np.ndarray, q: Quantizer) -> np.ndarray:
    """Gradient of the dequantized output w.r.t. the scale.

    d(c(v) * s)/ds with c treated as locally constant equals the (clamped)
    code itself, including at the clamp rails.
    """
    return quantize(v, q).astype(np.float64)


def encode_bits(c: np.ndarray, q: Quantizer) -> np.ndarray:
    """Code -> raw bit pattern (two's complement for signed codes)."""
    c = np.asarray(c, dtype=np.int64)
    return (c & ((1 << q.bits) - 1)).astype(np.uint32)


def decode_bits(bits: np.ndarray, q: Quantizer) -> np.ndarray:
    """Raw bit pattern -> code (sign-extend for signed quantizers)."""
    c = np.asarray(bits, dtype=np.int64) & ((1 << q.bits) - 1)
    if q.signed:
        sign = 1 << (q.bits - 1)
        c = np.where(c >= sign, c - (1 << q.bits), c)
    return c


@dataclass
class BatchNormParams:
    """Per-channel affine normalization using finalized running statistics."""

    gamma: np.ndarray
    beta_shift: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-5

    def copy(self) -> "BatchNormParams":
        return BatchNormParams(
            gamma=self.gamma.copy(),
            beta_shift=self.beta_shift.copy(),
            running_mean=self.running_mean.copy(),
            running_var=self.running_var.copy(),
            eps=self.eps,
        )


def bn_identity(width: int, eps: float = 1e-5) -> BatchNormParams:
    return BatchNormParams(
        gamma=np.ones(width),
        beta_shift=np.zeros(width),
        running_mean=np.zeros(width),
        running_var=np.ones(width),
        eps=eps,
    )


def bn_apply(x: np.ndarray, p: BatchNormParams, channel: int | None = None) -> np.ndarray:
    """Inference-mode batch norm: gamma * (x - mean) / sqrt(var + eps) + beta.

    With channel=None, x's last axis indexes channels; with a channel
    index (or index array), x is normalized by those channels' statistics.
    """
    c = slice(None) if channel is None else channel
    g, b, mu, var = p.gamma[c], p.beta_shift[c], p.running_mean[c], p.running_var[c]
    return g * (x - mu) / np.sqrt(var + p.eps) + b
