import numpy as np
import pytest

from lutc.quantize import (
    BatchNormParams,
    Quantizer,
    bn_apply,
    bn_identity,
    decode_bits,
    dequantize,
    encode_bits,
    quantize,
    round_half_away,
)


def ste_mask(v, q):
    """Straight-through oracle: True where round(v / s) lands inside the
    code range without clamping."""
    codes = round_half_away(np.asarray(v, dtype=np.float64) / q.scale)
    return (codes >= q.code_min) & (codes <= q.code_max)


def ste_backward(upstream_grad, v, q):
    """Pass the gradient where the code is unclamped, else 0."""
    return np.where(ste_mask(v, q), upstream_grad, 0.0)


def scale_grad(v, q):
    """d(c(v) * s)/ds with c held constant: the clamped code itself."""
    return quantize(v, q).astype(np.float64)


def q_unsigned(bits, scale=1.0):
    return Quantizer(bits=bits, signed=False, scale=scale)


def q_signed(bits, scale=1.0):
    return Quantizer(bits=bits, signed=True, scale=scale)


def test_quantize_rounding_and_clamps():
    q = q_unsigned(2)
    assert quantize(2.4, q) == 2
    assert quantize(-1.0, q) == 0
    assert quantize(100.0, q) == 3


def test_round_half_away_from_zero():
    q = q_signed(4)
    assert quantize(0.5, q) == 1
    assert quantize(-0.5, q) == -1
    assert quantize(2.5, q) == 3


def test_dequantize_examples():
    assert dequantize(3, q_unsigned(2, 0.5)) == 1.5
    assert dequantize(0, q_unsigned(2, 0.5)) == 0.0


def test_dequantize_range_check():
    with pytest.raises(ValueError):
        dequantize(4, q_unsigned(2))
    with pytest.raises(ValueError):
        dequantize(-5, q_signed(3))


def test_roundtrip_is_nearest_code():
    # quantize picks the code minimizing |v - c*s| (ties away from zero)
    rng = np.random.default_rng(0)
    for q in [q_unsigned(3, 0.7), q_signed(3, 0.35), q_unsigned(1, 1.3)]:
        codes = np.arange(q.code_min, q.code_max + 1)
        for v in rng.uniform(-4, 4, 200):
            c = quantize(v, q)
            best = np.abs(v - codes * q.scale).min()
            assert abs(v - c * q.scale) <= best + 1e-12


def test_quantize_monotone():
    rng = np.random.default_rng(1)
    for q in [q_unsigned(2, 0.5), q_signed(4, 0.13)]:
        v = np.sort(rng.uniform(-10, 10, 500))
        c = quantize(v, q)
        assert np.all(np.diff(c) >= 0)


def test_code_range_cardinality_and_reachability():
    for q in [q_unsigned(3, 0.5), q_signed(3, 0.5), q_unsigned(1, 1.0)]:
        assert q.code_max - q.code_min + 1 == 1 << q.bits
        reached = {int(quantize(c * q.scale, q)) for c in range(q.code_min, q.code_max + 1)}
        assert reached == set(range(q.code_min, q.code_max + 1))


def test_ste_passes_inside_range():
    q = q_unsigned(2)
    assert ste_backward(5.0, 1.2, q) == 5.0
    assert ste_backward(5.0, 100.0, q) == 0.0


def test_ste_boundary_rounds_to_max_unclamped():
    q = q_unsigned(2, 1.0)
    v = q.scale * (2**q.bits - 1) + 0.4 * q.scale  # rounds to max without clamping
    assert quantize(v, q) == 3
    assert ste_mask(v, q)
    assert ste_backward(2.0, v, q) == 2.0
    # a hair further and rounding exceeds the range
    assert not ste_mask(v + 0.2 * q.scale, q)


def test_scale_grad_equals_code():
    q = q_unsigned(2)
    assert scale_grad(2.4, q) == 2
    assert scale_grad(100.0, q) == 3


def test_scale_grad_finite_difference():
    rng = np.random.default_rng(2)
    q = q_unsigned(3, 0.8)
    checked = 0
    for v in rng.uniform(0, 7, 300):
        y = v / q.scale
        if abs(y - np.round(y)) <= 0.1:  # keep off rounding boundaries
            continue
        h = 1e-6
        fd = (
            quantize(v, q.with_scale(q.scale + h)) * (q.scale + h)
            - quantize(v, q.with_scale(q.scale - h)) * (q.scale - h)
        ) / (2 * h)
        an = scale_grad(v, q)
        assert abs(fd - an) / max(1.0, abs(fd)) < 1e-4
        checked += 1
    assert checked > 100


def test_bit_packing_roundtrip():
    for q in [q_signed(3, 1.0), q_unsigned(4, 1.0), q_signed(1, 1.0)]:
        codes = np.arange(q.code_min, q.code_max + 1)
        assert np.array_equal(decode_bits(encode_bits(codes, q), q), codes)


def test_bn_apply():
    p = bn_identity(1, eps=0.0)
    assert bn_apply(np.array([3.7]), p) == 3.7
    p2 = BatchNormParams(
        gamma=np.array([2.0]), beta_shift=np.array([0.0]),
        running_mean=np.array([1.0]), running_var=np.array([4.0]), eps=0.0,
    )
    assert bn_apply(np.array([3.0]), p2) == 2.0
    # x == mean -> beta_shift
    p3 = BatchNormParams(
        gamma=np.array([5.0]), beta_shift=np.array([0.25]),
        running_mean=np.array([2.0]), running_var=np.array([9.0]), eps=0.0,
    )
    assert bn_apply(np.array([2.0]), p3) == 0.25


def test_quantizer_validation():
    with pytest.raises(ValueError):
        Quantizer(bits=0, signed=False, scale=1.0)
    with pytest.raises(ValueError):
        Quantizer(bits=9, signed=False, scale=1.0)
    with pytest.raises(ValueError):
        Quantizer(bits=3, signed=False, scale=0.0)
