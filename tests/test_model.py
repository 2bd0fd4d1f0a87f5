import re
import tracemalloc

import numpy as np
import pytest

import lutc.model as model_mod
from lutc.model import (
    CHUNK_ELEMENTS,
    NetworkSpec,
    PROFILES,
    build_masks,
    forward_codes,
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
from lutc.trainer import init_scales


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
                  clock_period_ns=1.6)
    kwargs.update(overrides)
    spec = object.__new__(NetworkSpec)
    for k, v in kwargs.items():
        object.__setattr__(spec, k, v)
    return spec


def test_validate_reports_every_violation():
    bad = _raw_spec(beta=0, fan_in=0, degree=0)
    v = validate_spec(bad)
    assert len(v) >= 3


@pytest.mark.parametrize("clock", [0.0, -1.0, np.nan, np.inf])
def test_spec_rejects_a_clock_period_that_is_not_positive_and_finite(clock):
    with pytest.raises(ValueError, match=f"clock_period_ns must be positive and finite, "
                                         f"got {clock}"):
        small_spec(clock_period_ns=clock)


def test_spec_bounds_the_top_level_ports():
    """IEEE 1364-2001 guarantees vectors of 2**16 bits: the input and the
    output port may be that wide, and no wider."""
    assert validate_spec(_raw_spec(input_count=2**16, input_beta=1)) == []
    assert validate_spec(_raw_spec(input_count=2**16 + 1, input_beta=1)) == [
        "input_count 65537 of 1 bits exceeds the 65536-bit input port"]
    assert validate_spec(_raw_spec(input_count=2**62)) == [
        "input_count 4611686018427387904 of 2 bits exceeds the 65536-bit input port"]
    assert validate_spec(_raw_spec(layer_widths=(4, 2**15))) == []
    assert validate_spec(_raw_spec(layer_widths=(4, 2**15 + 1))) == [
        "32769 outputs of 2 bits exceed the 65536-bit output port"]


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


def counted_layer_eval(monkeypatch):
    """Wrap model.layer_eval, which forward_codes' memo step calls; the
    returned dict maps each layer to [codes evaluated per neuron, codes
    evaluated for shared tuples]."""
    counts, kernel = {}, model_mod.layer_eval

    def counted(model, layer, codes):
        counts.setdefault(layer, [0, 0])[codes.shape[1] == 1] += codes.shape[0] * len(
            model.params[layer].weights)
        return kernel(model, layer, codes)

    monkeypatch.setattr(model_mod, "layer_eval", counted)
    return counts


@pytest.mark.parametrize("rows", [16, 200])
def test_forward_codes_evaluates_no_more_codes_than_per_neuron(monkeypatch, rows):
    """hdr's rows reach thousands of layer-0 tuples across its 256
    neurons, more than the rows: no layer evaluates more than the rows x W
    codes of the per-neuron path.  16 rows are one row chunk and go per
    neuron on every layer; 200 rows are 12 chunks."""
    model = init_model(spec_from_profile("hdr", seed=1))
    codes = np.random.default_rng(1).integers(-2, 2, size=(rows, 784))
    counts = counted_layer_eval(monkeypatch)
    forward_codes(model, codes)
    assert counts[0] == [rows * 256, 0]
    for layer, width in enumerate(model.spec.layer_widths):
        assert sum(counts[layer]) <= rows * width, counts
    if rows == 16:
        assert all(shared == 0 for _, shared in counts.values()), counts


def test_forward_codes_evaluates_a_repeated_row_once(monkeypatch):
    """2 000 copies of 3 rows, 10 row chunks: every layer fills its memo
    with at most the 3 rows' tuples, for all of its neurons, and
    evaluates nothing per neuron."""
    model = init_model(spec_from_profile("jsc-xl", seed=1, layer_widths=(16, 16, 5)))
    init_scales(model, np.random.default_rng(1).uniform(-1.0, 1.0, size=(128, 16)))
    codes = np.random.default_rng(2).integers(-64, 64, size=(3, 16))
    want = np.tile(forward_codes(model, codes), (2000, 1))
    counts = counted_layer_eval(monkeypatch)
    assert np.array_equal(forward_codes(model, np.tile(codes, (2000, 1))), want)
    for layer, width in enumerate(model.spec.layer_widths):
        assert counts[layer][0] == 0 and 0 < counts[layer][1] <= 3 * width * width, counts


def test_forward_codes_memory_is_flat_in_rows():
    """Rows stream through in chunks and the memo is one byte per tuple
    and neuron: beyond the codes it returns, forward_codes needs no more
    than 1.2 times the memory for 25 times the rows."""
    model = init_model(spec_from_profile("jsc-xl", seed=1, layer_widths=(16, 16, 5)))
    init_scales(model, np.random.default_rng(1).uniform(-1.0, 1.0, size=(128, 16)))
    peaks = []
    for rows in (2_000, 50_000):
        codes = np.random.default_rng(rows).integers(-64, 64, size=(rows, 16))
        tracemalloc.start()
        try:
            out = forward_codes(model, codes)
            peaks.append(tracemalloc.get_traced_memory()[1] - out.nbytes)
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0], peaks


def test_layer_codes_draws_each_chunk_once_in_order(monkeypatch):
    """30 spiral rows in 7-row chunks: layer_codes asks for each chunk's
    inputs once, in order, yields each layer's codes at the layer before,
    and empties a chunk's codes before it makes the next chunk's."""
    model = init_model(spec_from_profile("spiral", seed=1))
    monkeypatch.setattr(model_mod, "CHUNK_ELEMENTS", 7 * max(
        row_elements(b, w, w) for w, b in zip(model.spec.layer_widths, model.bases)))
    codes0 = np.random.default_rng(0).integers(-8, 8, size=(30, 2))
    asked, seen = [], []

    def inputs(rows):
        asked.append(rows)
        return codes0[rows]

    for rows, codes in model_mod.layer_codes(model, 30, inputs):
        assert asked[-1] == rows and all(not c for c in seen)
        for layer, mask in enumerate(model.masks):
            want = layer_eval(model, layer, codes[layer][:, mask])
            assert np.array_equal(codes[layer + 1], want)
        seen.append(codes)
    assert asked == model_mod.forward_chunks(model, 30) and len(asked) == 5
    assert all(not c for c in seen)


def test_forward_codes_runs_a_call_of_one_chunk_per_neuron(monkeypatch):
    """200 copies of one spiral row are one row chunk: no later chunk could
    reuse a tuple, so every layer evaluates its 200 x W codes per neuron."""
    model = init_model(spec_from_profile("spiral", seed=1))
    counts = counted_layer_eval(monkeypatch)
    forward_codes(model, np.zeros((200, 2), dtype=np.int64))
    assert counts == {layer: [200 * width, 0]
                      for layer, width in enumerate(model.spec.layer_widths)}


def test_memo_pays_for_a_fill_with_rows_it_served(monkeypatch):
    """Each chunk pays for its own fill: 2 000 rows of zeros fill the one
    tuple they reach for the 16 neurons; 100 random rows then reach 1 506
    new tuples, more than their rows, so they go per neuron and store
    nothing; a following chunk of zeros is still served from the memo and
    evaluates nothing."""
    model = init_model(spec_from_profile("jsc-xl", seed=1, layer_widths=(16, 16, 5)))
    zeros = np.zeros((2000, 16), dtype=np.int64)
    memo, counts = [None] * 3, counted_layer_eval(monkeypatch)
    for rows, evaluated in ((zeros, [0, 16]),
                            (np.random.default_rng(3).integers(-64, 64, size=(100, 16)),
                             [100 * 16, 0]),
                            (zeros, [0, 0])):
        want = model_mod.layer_eval(model, 0, rows[:, model.masks[0]])
        counts.clear()
        assert np.array_equal(model_mod.memo_layer_eval(model, memo, 0, rows), want)
        assert counts.get(0, [0, 0]) == evaluated, counts
        assert memo[0][1].sum() == 1


def test_memo_keeps_a_layer_per_neuron_after_its_first_chunk_went_so(monkeypatch):
    """A first chunk of 100 random rows reaches more tuples than rows and
    goes per neuron; the layer then stays per neuron for the call, even
    on rows of zeros that reach one tuple."""
    model = init_model(spec_from_profile("jsc-xl", seed=1, layer_widths=(16, 16, 5)))
    memo, counts = [None] * 3, counted_layer_eval(monkeypatch)
    for rows in (np.random.default_rng(3).integers(-64, 64, size=(100, 16)),
                 np.zeros((2000, 16), dtype=np.int64)):
        counts.clear()
        model_mod.memo_layer_eval(model, memo, 0, rows)
        assert counts == {0: [len(rows) * 16, 0]}


def test_spec_rejects_a_basis_past_the_term_cap():
    with pytest.raises(ValueError, match="layer 0: a degree-1500 basis in 2 inputs has more "
                                         "than the cap of 1048576 monomials"):
        small_spec(degree=1500)
    # C(10**6 + 12, 12) is past int64: count_monomials' OverflowError counts too
    with pytest.raises(ValueError, match="layer 0: a degree-1000000 basis in 12 inputs"):
        NetworkSpec(layer_widths=[1], beta=2, fan_in=12, degree=10**6, input_count=12)


def test_forward_codes_rejects_inputs_of_another_width():
    model = init_model(small_spec())
    for bad in (np.zeros((4, 2), dtype=np.int64), np.zeros(3, dtype=np.int64)):
        with pytest.raises(ValueError, match=re.escape("expected (n, 3) input codes")):
            forward_codes(model, bad)


def test_forward_codes_rejects_out_of_range_codes_it_reads():
    """A code outside the input quantizer's range is rejected where a
    neuron reads it, and ignored on an input no neuron reads."""
    model = init_model(small_spec(layer_widths=[1, 1], input_count=3, fan_in=1))
    codes = np.zeros((4, 3), dtype=np.int64)
    unread = np.setdiff1d(np.arange(3), model.masks[0])
    codes[:, unread] = 9
    assert np.array_equal(forward_codes(model, codes), forward_codes(model, 0 * codes))
    codes[2, model.masks[0][0, 0]] = 2  # 2-bit signed codes stop at 1
    with pytest.raises(ValueError, match="code outside"):
        forward_codes(model, codes)


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


def test_wide_layer_chunks_weigh_within_their_element_budget(monkeypatch):
    """On a layer as wide as nid-lite's layer 0 (686 neurons of 330 terms,
    1.8 MB of weights), a chunk is a few rows, and its weighted expansion
    stays within CHUNK_ELEMENTS * 8 bytes: layer_eval transposes the
    weights once per call, so no chunk copies them."""
    spec = NetworkSpec(layer_widths=[686, 1], beta=2, fan_in=7, degree=4, input_count=49,
                       input_beta=1, seed=1)
    model = init_model(spec)
    basis, width = model.bases[0], spec.layer_widths[0]
    rows = CHUNK_ELEMENTS // row_elements(basis, width, width)
    assert rows < 8 and width * len(basis) * 8 > CHUNK_ELEMENTS * 8 // 4
    codes = np.random.default_rng(1).integers(-1, 1, size=(3 * rows, width, 7))
    want = layer_eval(model, 0, codes)
    kernel, peaks = model_mod.weighted_expand, []

    def measured(*args):
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        z = kernel(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - held)
        return z

    monkeypatch.setattr(model_mod, "weighted_expand", measured)
    tracemalloc.start()
    try:
        got = layer_eval(model, 0, codes)
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert len(peaks) == 3 and max(peaks) <= CHUNK_ELEMENTS * 8, peaks


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


def test_checkpoint_rejects_an_infinite_clock_period(tmp_path):
    path = tmp_path / "ck.npz"
    save_checkpoint(init_model(small_spec()), path)
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    arrays["clock_period_ns"] = np.float64(np.inf)
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="clock_period_ns must be positive and finite"):
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
