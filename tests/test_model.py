import tracemalloc

import numpy as np
import pytest

from lutc.model import (
    CHUNK_ELEMENTS,
    NetworkSpec,
    PROFILES,
    build_masks,
    init_model,
    input_quantizer_for,
    labels_from_codes,
    layer_eval,
    load_checkpoint,
    row_elements,
    save_checkpoint,
    spec_from_profile,
    validate_model,
    validate_spec,
)


def small_spec(**overrides):
    kwargs = dict(layer_widths=[4, 2], beta=2, fan_in=2, degree=2, input_count=3)
    kwargs.update(overrides)
    return NetworkSpec(**kwargs)


def test_profiles_are_valid():
    for name in PROFILES:
        spec = spec_from_profile(name)
        assert validate_spec(spec) == []


def test_jsc_m_profile_shape():
    spec = spec_from_profile("jsc-m")
    assert spec.layer_widths == (64, 32, 32, 32, 5)
    assert (spec.beta, spec.fan_in) == (3, 4)


def test_enum_guard_arithmetic():
    assert validate_spec(small_spec(beta=3, fan_in=4, input_count=8)) == []  # 12 <= 24
    bad = validate_spec(_raw_spec(beta=5, fan_in=6, input_count=8))  # 30 > 24
    assert any("enumeration guard" in v for v in bad)


def _raw_spec(**overrides):
    """Bypass __post_init__ validation so validate_spec can be probed directly."""
    kwargs = dict(layer_widths=(4, 2), beta=2, fan_in=2, degree=2, input_count=3,
                  input_beta=None, input_fan_in=None, seed=0,
                  clock_period_ns=1.6, enum_guard=24)
    kwargs.update(overrides)
    spec = object.__new__(NetworkSpec)
    for k, v in kwargs.items():
        object.__setattr__(spec, k, v)
    return spec


def test_validate_reports_every_violation():
    bad = _raw_spec(beta=0, fan_in=0, degree=0)
    v = validate_spec(bad)
    assert len(v) >= 3


def test_fan_in_exceeds_predecessor():
    v = validate_spec(_raw_spec(fan_in=5, input_count=3))
    assert any("fan_in 5 exceeds" in s for s in v)


def test_input_overrides_affect_layer0_only():
    spec = small_spec(input_beta=1, input_fan_in=3)
    assert spec.layer_input_bits(0) == 1
    assert spec.layer_input_bits(1) == 2
    assert spec.layer_fan_in(0) == 3
    assert spec.layer_fan_in(1) == 2
    assert spec.table_address_bits(0) == 3  # 2**(beta0*F0) domain


def test_unknown_profile():
    with pytest.raises(KeyError):
        spec_from_profile("nope")


# ---------------------------------------------------------------------------
# Masks


def test_masks_forced_draw():
    spec = NetworkSpec(layer_widths=[3, 1], beta=2, fan_in=2, degree=1, input_count=2)
    masks = build_masks(spec, seed=0)
    assert np.array_equal(masks[0], [[0, 1]] * 3)


def test_masks_deterministic():
    spec = small_spec()
    a = build_masks(spec, seed=5)
    b = build_masks(spec, seed=5)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = build_masks(spec, seed=6)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_masks_coverage_when_feasible():
    spec = NetworkSpec(layer_widths=[16, 8, 2], beta=2, fan_in=4, degree=1,
                       input_count=16)
    masks = build_masks(spec, seed=7)
    # 8 * 4 = 32 >= 16: every layer-0 output must feed layer 1
    assert set(np.unique(masks[1])) == set(range(16))


def test_masks_shape_and_invariants():
    spec = small_spec()
    masks = build_masks(spec, seed=3)
    for layer, m in enumerate(masks):
        assert m.shape == (spec.layer_widths[layer], spec.layer_fan_in(layer))
        for row in m:
            assert len(set(row.tolist())) == len(row)
            assert np.all(np.diff(row) > 0)  # sorted, distinct
            assert row.max() < spec.prev_width(layer)


def test_masks_coverage_at_benchmark_scale():
    # 32 neurons x fan 4 = 128 wires must cover all 64 predecessors;
    # rejection sampling would essentially never succeed here
    spec = NetworkSpec(layer_widths=[64, 32], beta=3, fan_in=4, degree=2,
                       input_count=16)
    masks = build_masks(spec, seed=1)
    assert set(np.unique(masks[1])) == set(range(64))
    for row in masks[1]:
        assert len(set(row.tolist())) == 4


def masks_by_set_difference(spec, seed):
    """Reference for build_masks: the same draws, each neuron's pool of
    unused predecessors built with np.setdiff1d."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    masks = []
    for layer in range(spec.n_layers):
        width, prev, fan = (spec.layer_widths[layer], spec.prev_width(layer),
                            spec.layer_fan_in(layer))
        if fan * width < prev:
            masks.append(np.stack([np.sort(rng.choice(prev, size=fan, replace=False))
                                   for _ in range(width)]))
            continue
        rows = [[] for _ in range(width)]
        order = rng.permutation(width)
        for pos, p in enumerate(rng.permutation(prev)):
            rows[order[pos % width]].append(int(p))
        for n, r in enumerate(rows):
            if len(r) < fan:
                pool = np.setdiff1d(np.arange(prev), r)
                rows[n] = r + rng.choice(pool, size=fan - len(r), replace=False).tolist()
        masks.append(np.sort(np.array(rows, dtype=np.int64), axis=1))
    return masks


@pytest.mark.parametrize("profile", ["hdr", "nid-lite", "jsc-xl", "jsc-m", "spiral"])
@pytest.mark.parametrize("seed", [0, 1, 2, 7919])
def test_masks_match_set_difference_reference(profile, seed):
    spec = spec_from_profile(profile, seed=seed)
    got, want = build_masks(spec, seed), masks_by_set_difference(spec, seed)
    assert [(m.dtype, m.tolist()) for m in got] == [(m.dtype, m.tolist()) for m in want]


# ---------------------------------------------------------------------------
# Model construction and inference helpers


def test_layers_of_one_shape_share_a_basis():
    model = init_model(spec_from_profile("hdr"))
    assert model.bases[1] is model.bases[2]
    assert not model.bases[1].exponents.flags.writeable


def test_init_model_shapes():
    spec = small_spec()
    model = init_model(spec)
    assert len(model.params) == 2
    assert model.params[0].weights.shape == (4, 6)  # C(2+2,2) = 6 monomials
    assert model.params[0].quant_scale == 1.0
    assert model.input_quantizer.signed


def test_input_quantizer_scale():
    spec = small_spec(input_beta=6)
    q = input_quantizer_for(spec)
    assert q.bits == 6
    assert q.scale == pytest.approx(1.0 / 31.0)
    spec1 = small_spec(input_beta=1)
    assert input_quantizer_for(spec1).scale == 1.0


def test_layer_quantizer_signedness():
    model = init_model(small_spec())
    assert not model.layer_quantizer(0).signed  # hidden: quantized ReLU
    assert model.layer_quantizer(1).signed  # output layer


def test_layer_eval_zero_weights():
    model = init_model(small_spec())
    model.params[0].weights[:] = 0.0
    codes_in = np.zeros((5, 4, 2), dtype=np.int64)
    out = layer_eval(model, 0, codes_in)
    assert out.shape == (5, 4)
    assert np.all(out == 0)  # quantize(ReLU(BN(0))) with identity BN


def test_layer_eval_shared_codes_match_per_neuron_codes():
    model = init_model(small_spec())
    rng = np.random.default_rng(0)
    codes = rng.integers(-2, 2, size=(7, 1, 2))
    shared = layer_eval(model, 0, codes)
    per_neuron = layer_eval(model, 0, np.repeat(codes, 4, axis=1))
    assert np.array_equal(shared, per_neuron)
    assert np.array_equal(layer_eval(model, 0, codes, [3, 1]), shared[:, [3, 1]])


def test_layer_eval_holds_less_than_the_monomial_tensor():
    """One chunk of jsc-xl's per-neuron codes peaks below the bytes of the
    (rows, W, M) monomial tensor that expanding before weighing built."""
    model = init_model(spec_from_profile("jsc-xl", seed=1))
    basis, width = model.bases[1], model.spec.layer_widths[1]
    rows = CHUNK_ELEMENTS // row_elements(basis, width, width)
    codes = np.random.default_rng(1).integers(0, 32, size=(rows, width, 3))
    layer_eval(model, 1, codes[:2])  # warm the basis' cached tables
    tracemalloc.start()
    try:
        layer_eval(model, 1, codes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rows * width * len(basis) * 8, (peak, rows)


def test_layer_eval_rejects_bad_shape():
    model = init_model(small_spec())
    with pytest.raises(ValueError, match="layer 0"):
        layer_eval(model, 0, np.zeros((5, 3, 2), dtype=np.int64))


def test_layer_eval_nonfinite_names_layer_and_neuron():
    model = init_model(small_spec())
    model.params[1].weights[1, 0] = np.nan
    with pytest.raises(ValueError, match="layer 1 neuron 1: non-finite"):
        layer_eval(model, 1, np.zeros((3, 1, 2), dtype=np.int64))
    model.params[1].weights[1, 0] = 0.0
    model.params[1].bn.running_var[0] = 0.0
    model.params[1].bn.eps = 0.0
    with pytest.raises(ValueError, match="layer 1 neuron 0: non-finite"):
        layer_eval(model, 1, np.zeros((3, 1, 2), dtype=np.int64))


def test_validate_model_names_every_violation():
    model = init_model(small_spec())
    assert validate_model(model) == []
    model.masks[1] = np.array([[1, 1], [0, 4]])
    model.params[0].weights[2, 1] = np.inf
    model.params[1].bn.running_var[1] = -1.0
    v = validate_model(model)
    assert any(s.startswith("layer 1 neuron 0: mask [1, 1]") for s in v)
    assert any(s.startswith("layer 1 neuron 1: mask [0, 4]") for s in v)
    assert "layer 0 neuron 2: non-finite parameter" in v
    assert "layer 1 neuron 1: batch-norm variance + eps is not positive" in v
    model = init_model(small_spec())
    model.params[1].weights = model.params[1].weights[:, :-1]
    assert any("weights (2, 5)" in s for s in validate_model(model))


def test_labels_from_codes():
    assert np.array_equal(labels_from_codes(np.array([[1, 3], [2, 0]])), [1, 0])
    assert np.array_equal(labels_from_codes(np.array([[1], [0], [-2]])), [1, 0, 0])


# ---------------------------------------------------------------------------
# Checkpoints


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    spec = small_spec(input_beta=3, input_fan_in=2, seed=11, clock_period_ns=2.0)
    model = init_model(spec)
    model.params[0].quant_scale = 0.123456789
    model.params[1].bn.running_mean[:] = [0.5, -0.5]
    path = tmp_path / "ck.npz"
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    assert back.spec == spec
    assert back.input_quantizer == model.input_quantizer
    for layer in range(spec.n_layers):
        assert np.array_equal(back.masks[layer], model.masks[layer])
        assert np.array_equal(back.params[layer].weights, model.params[layer].weights)
        assert np.array_equal(back.params[layer].bn.running_mean,
                              model.params[layer].bn.running_mean)
        assert np.array_equal(back.params[layer].bn.running_var,
                              model.params[layer].bn.running_var)
        assert back.params[layer].quant_scale == model.params[layer].quant_scale
        assert back.params[layer].bn.eps == model.params[layer].bn.eps


def test_checkpoint_rejects_nonfinite_weight(tmp_path):
    model = init_model(small_spec())
    model.params[1].weights[0, 3] = np.nan
    path = tmp_path / "ck.npz"
    save_checkpoint(model, path)
    with pytest.raises(ValueError, match="layer 1 neuron 0: non-finite"):
        load_checkpoint(path)


def test_checkpoint_version_guard(tmp_path):
    model = init_model(small_spec())
    path = tmp_path / "ck.npz"
    save_checkpoint(model, path)
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    arrays["version"] = np.int64(99)
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)
