"""Property tests: invariances of the layer-wise inference path and of
netlist simulation, the memoised forward_codes and equivalence check
against per-neuron references on both sides of the memo's selection,
the training forward's straight-through mask, the fused weighted
expansion, the training weighing and expand_vjp's
summation order and term-major layout, covered masks against a
per-neuron draw, round
trips of the quantizer and the bit-level codecs, the layer-wise
table text (dump bytes and Verilog ROMs) against per-entry references, the
RTL checker's blame for emitted and edited bundle files and of
edited ROM constants against a per-line reader, and the trainer's
gradient scatter against np.add.at."""

import os
import pathlib
import re
import tempfile
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import lutc.model as model_mod
import lutc.netlist as netlist_mod
from lutc.basis import enumerate_basis, expand, expand_vjp, weighted_expand, weighted_sum
from lutc.model import NetworkSpec, forward_chunks, forward_codes, init_model, layer_eval
from lutc.netlist import (LutLayer, Netlist, build_netlist, dump_tables, equivalence_check,
                          load_tables, simulate)
from lutc.quantize import (Quantizer, decode_bits, dequantize, encode_bits, quantize,
                           round_half_away)
from lutc.rtl import check_bundle, emit_bundle
from lutc.tables import decode_address, pack_address, tabulate_model
from lutc.trainer import _scatter_sources, forward, init_scales

SETTINGS = settings(max_examples=25, deadline=None)


def calibrated_model(seed):
    """A small untrained model whose scales spread its codes over the range."""
    spec = NetworkSpec(layer_widths=[6, 4, 3], beta=3, fan_in=2, degree=3,
                       input_count=4, seed=seed)
    model = init_model(spec)
    rows = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(64, 4))
    init_scales(model, rows)
    return model


@contextmanager
def chunk_elements(value):
    """Set model.CHUNK_ELEMENTS for the duration of the block."""
    saved = model_mod.CHUNK_ELEMENTS
    model_mod.CHUNK_ELEMENTS = value
    try:
        yield
    finally:
        model_mod.CHUNK_ELEMENTS = saved


def random_input_codes(model, n, seed):
    q = model.input_quantizer
    rng = np.random.default_rng(seed)
    return rng.integers(q.code_min, q.code_max + 1, size=(n, model.spec.input_count))


@SETTINGS
@given(seed=st.integers(0, 2**16), chunk=st.integers(1, 5000))
def test_tables_do_not_depend_on_chunk_size(seed, chunk):
    model = calibrated_model(seed)
    want = tabulate_model(model)
    with chunk_elements(chunk):
        got = tabulate_model(model)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@SETTINGS
@given(seed=st.integers(0, 2**16), n=st.integers(1, 300), split=st.integers(1, 300),
       chunk=st.integers(1, 5000))
def test_forward_codes_rows_are_independent(seed, n, split, chunk):
    model = calibrated_model(seed)
    codes = random_input_codes(model, n, seed)
    want = forward_codes(model, codes)
    perm = np.random.default_rng(seed).permutation(n)
    with chunk_elements(chunk):
        assert np.array_equal(forward_codes(model, codes[perm]), want[perm])
    batches = [forward_codes(model, codes[s : s + split]) for s in range(0, n, split)]
    assert np.array_equal(np.concatenate(batches), want)


@contextmanager
def patched(module, **values):
    """Set the module's attributes for the duration of the block."""
    saved = {name: getattr(module, name) for name in values}
    for name, value in values.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


@st.composite
def memo_models(draw):
    """Seeded untrained models with fan-in 1-4, degree 1-4, input codes of
    1-4 bits and layer codes of 2-4, and 1-3 layers of 1-6 neurons, whose
    scales spread the codes over the range."""
    fan = draw(st.integers(1, 4))
    hidden = draw(st.lists(st.integers(fan, 6), max_size=2))
    spec = NetworkSpec(layer_widths=hidden + [draw(st.integers(1, 6))],
                       beta=draw(st.integers(2, 4)), fan_in=fan, degree=draw(st.integers(1, 4)),
                       input_count=draw(st.integers(fan, 6)), input_beta=draw(st.integers(1, 4)),
                       seed=draw(st.integers(0, 2**16)))
    model = init_model(spec)
    init_scales(model, np.random.default_rng(spec.seed).uniform(-1.0, 1.0,
                                                                size=(64, spec.input_count)))
    return model


def per_neuron_forward(model, codes):
    """Reference: forward_codes without a memo, each row chunk through
    layer_eval's per-neuron path."""
    out = [np.empty((0, model.spec.layer_widths[-1]), dtype=np.int64)]
    for rows in forward_chunks(model, len(codes)):
        a = codes[rows]
        for layer, mask in enumerate(model.masks):
            a = layer_eval(model, layer, a[:, mask])
        out.append(a)
    return np.concatenate(out)


def per_neuron_equivalence(netlist, model):
    """Reference: equivalence_check's (n_checked, n_mismatches,
    faulty_nodes) on the same stimuli, each layer's codes from
    layer_eval's per-neuron path and its tables read one source at a
    time."""
    n_checked = n_mismatches = 0
    faulty = set()
    count, draw = netlist_mod._stimuli(netlist, model)
    for rows in forward_chunks(model, count):
        stim = draw(rows)
        codes, vals, bits = decode_bits(stim, model.input_quantizer), stim, netlist.input_bits
        bad = np.zeros(len(stim), dtype=bool)
        for layer, (lut, mask) in enumerate(zip(netlist.layers, model.masks)):
            codes = layer_eval(model, layer, codes[:, mask])
            want = encode_bits(codes, model.layer_quantizer(layer)).astype(np.int64)
            addrs = sum(vals[:, lut.sources[:, k]] << (k * bits) for k in range(mask.shape[1]))
            diff = np.take_along_axis(lut.tables.T, addrs, axis=0) != want
            bad |= diff.any(axis=1)
            faulty |= {(layer, int(j)) for j in np.flatnonzero(diff.any(axis=0))}
            vals, bits = want, lut.output_bits
        n_checked, n_mismatches = n_checked + len(stim), n_mismatches + int(bad.sum())
    return n_checked, n_mismatches, sorted(faulty)


@contextmanager
def paths_taken():
    """Record, per layer, whether model.layer_eval ran on per-neuron codes
    (False) or on the shared codes of a memo fill (True), and the codes it
    evaluated; the two paths look alike on a one-neuron layer, which
    counts as per neuron."""
    taken, kernel = {}, model_mod.layer_eval

    def recorded(model, layer, codes):
        width = len(model.params[layer].weights)
        key = layer, codes.shape[1] == 1 and width > 1
        taken[key] = taken.get(key, 0) + len(codes) * width
        return kernel(model, layer, codes)

    with patched(model_mod, layer_eval=recorded):
        yield taken


def assert_no_more_codes_than_per_neuron(taken, model, n):
    """Each layer evaluated at most the n x W codes of the per-neuron path."""
    for layer, width in enumerate(model.spec.layer_widths):
        assert taken.get((layer, False), 0) + taken.get((layer, True), 0) <= n * width, taken


# rows per forward_chunks chunk, or None for the default CHUNK_ELEMENTS
MEMO_CHUNKS = st.sampled_from([2, 16, 64, None])
# 1-300 rows, drawn towards the larger counts that span several chunks
MEMO_ROWS = st.one_of(st.integers(1, 300), st.integers(150, 300))


def chunk_rows(model, rows):
    """Set CHUNK_ELEMENTS so that forward_chunks makes chunks of rows rows,
    or leave the default for None."""
    if rows is None:
        return chunk_elements(model_mod.CHUNK_ELEMENTS)
    return chunk_elements(rows * max(model_mod.row_elements(b, w, w)
                                     for w, b in zip(model.spec.layer_widths, model.bases)))


@SETTINGS
@given(model=memo_models(), n=MEMO_ROWS,
       pool=st.one_of(st.integers(1, 8), st.integers(1, 300)), chunk=MEMO_CHUNKS,
       seed=st.integers(0, 2**16))
def test_memoised_forward_codes_equal_a_per_neuron_reference(model, n, pool, chunk, seed):
    """n rows drawn from pool distinct ones.  A small pool reaches few
    tuples, which the memo serves; a large pool on wide layers reaches
    more tuples than rows, which go per neuron.  Chunks of 2, 16 or 64
    rows let the memo serve later chunks; at the default CHUNK_ELEMENTS
    the rows are one chunk and go per neuron."""
    rng = np.random.default_rng(seed)
    codes = random_input_codes(model, pool, seed)[rng.integers(0, pool, size=n)]
    with chunk_rows(model, chunk):
        want = per_neuron_forward(model, codes)
        with paths_taken() as taken:
            got = forward_codes(model, codes)
    assert np.array_equal(got, want)
    assert_no_more_codes_than_per_neuron(taken, model, n)
    for layer, shared in sorted(taken):
        event(f"layer {layer} {'memo' if shared else 'per neuron'}")


@SETTINGS
@given(model=memo_models(), n=MEMO_ROWS, chunk=MEMO_CHUNKS, data=st.data())
def test_memoised_equivalence_equals_a_per_neuron_reference(model, n, chunk, data):
    """n random vectors on a netlist with up to 3 edited entries per
    layer anywhere, and in every layer one entry that the first vector
    reads set off the model's code, so that an edit is reached whichever
    path serves the layer."""
    net = build_netlist(model, tabulate_model(model))
    with patched(netlist_mod, RANDOM_VECTORS=n, EXHAUSTIVE_LIMIT_BITS=0), chunk_rows(model, chunk):
        count, draw = netlist_mod._stimuli(net, model)
        vals, bits = draw(forward_chunks(model, count)[0])[:1], net.input_bits
        codes = decode_bits(vals, model.input_quantizer)
        for layer, (lut, mask) in enumerate(zip(net.layers, model.masks)):
            for _ in range(data.draw(st.integers(0, 3), label=f"layer {layer} edits")):
                lut.tables.flat[data.draw(st.integers(0, lut.tables.size - 1))] ^= 1
            j = data.draw(st.integers(0, lut.width - 1), label=f"layer {layer} neuron")
            addr = pack_address(vals[0, lut.sources[j]], bits)
            codes = layer_eval(model, layer, codes[:, mask])
            vals, bits = encode_bits(codes, model.layer_quantizer(layer)), lut.output_bits
            lut.tables[j, addr] = vals[0, j] ^ 1
        want = per_neuron_equivalence(net, model)
        with paths_taken() as taken:
            got = equivalence_check(net, model)
    assert (got.n_checked, got.n_mismatches, got.faulty_nodes) == want
    assert got.n_mismatches > 0
    assert_no_more_codes_than_per_neuron(taken, model, n)
    for layer, shared in sorted(taken):
        event(f"layer {layer} {'memo' if shared else 'per neuron'}")


@SETTINGS
@given(model=memo_models(), n=MEMO_ROWS, chunk=MEMO_CHUNKS, data=st.data())
def test_memoised_paths_name_the_layer_and_neuron_of_a_non_finite_weight(model, n, chunk,
                                                                        data):
    """A NaN bias makes one neuron's every pre-activation NaN: forward_codes
    and the equivalence check fail naming its layer and neuron, as the
    per-neuron reference does."""
    net = build_netlist(model, tabulate_model(model))
    layer = data.draw(st.integers(0, model.spec.n_layers - 1), label="layer")
    j = data.draw(st.integers(0, model.spec.layer_widths[layer] - 1), label="neuron")
    model.params[layer].weights[j, 0] = np.nan
    codes = random_input_codes(model, n, n)
    message = f"^layer {layer} neuron {j}: non-finite pre-activation$"
    with patched(netlist_mod, RANDOM_VECTORS=n, EXHAUSTIVE_LIMIT_BITS=0), chunk_rows(model, chunk):
        for run in (per_neuron_forward, forward_codes):
            with pytest.raises(ValueError, match=message):
                run(model, codes)
        with pytest.raises(ValueError, match=message):
            equivalence_check(net, model)


@SETTINGS
@given(fan_in=st.integers(1, 5), degree=st.integers(1, 5), seed=st.integers(0, 2**16))
def test_expand_matches_power_reference_on_integers(fan_in, degree, seed):
    basis = enumerate_basis(fan_in, degree)
    x = np.random.default_rng(seed).integers(-7, 8, size=(3, fan_in)).astype(np.float64)
    # integer-valued products below 2**53 are exact whatever the order
    want = np.prod(x[None, :, :] ** basis.exponents[:, None, :], axis=2)  # term-major
    assert np.array_equal(expand(x, basis), want)


def bits_of(a):
    """The float64 bit patterns of a, so that -0.0 != 0.0 and NaN == NaN."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def awkward_floats(rng, shape):
    """Normal values at a random scale, with some signed zeros."""
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4)
    x[rng.random(shape) < 0.1] = -0.0
    x[rng.random(shape) < 0.1] = 0.0
    return x


@SETTINGS
@given(fan_in=st.integers(1, 6), degree=st.integers(1, 5), width=st.integers(1, 5),
       lead=st.lists(st.integers(0, 6), max_size=2).map(tuple), shared=st.booleans(),
       seed=st.integers(0, 2**16))
@example(fan_in=3, degree=1, width=4, lead=(5,), shared=False, seed=0)
@example(fan_in=2, degree=3, width=3, lead=(0,), shared=True, seed=0)
@example(fan_in=3, degree=4, width=1, lead=(9,), shared=True, seed=1)  # shared, one neuron
@example(fan_in=3, degree=4, width=5, lead=(1,), shared=True, seed=2)  # shared, one row
@example(fan_in=2, degree=2, width=4, lead=(), shared=True, seed=3)
@example(fan_in=2, degree=3, width=3, lead=(2, 3), shared=True, seed=4)
@example(fan_in=2, degree=3, width=3, lead=(2, 3), shared=False, seed=5)
def test_weighted_expand_equals_weighted_sum_of_expand(fan_in, degree, width, lead, shared,
                                                       seed):
    """Shared codes (K == 1, laid out neuron-major) and per-neuron codes
    (K == W) give the reference's bits, with zero, one or two axes before
    (K, F)."""
    basis = enumerate_basis(fan_in, degree)
    rng = np.random.default_rng(seed)
    x = awkward_floats(rng, lead + (1 if shared else width, fan_in))
    w = awkward_floats(rng, (width, len(basis)))
    got = weighted_expand(x, basis, w)
    assert got.shape == lead + (width,)
    assert np.array_equal(bits_of(got), bits_of(weighted_sum(expand(x, basis), w)))


def lowered_terms(basis):
    """(j, i, parents, e_ij) per variable j over the terms i holding x_j,
    each parent found by looking up term i's exponents with e_ij lowered
    by one: a reference that does not use the prefix rule."""
    index = {tuple(row): k for k, row in enumerate(basis.exponents.tolist())}
    for j, e in enumerate(basis.exponents.T):
        i = np.flatnonzero(e)
        lowered = basis.exponents[i] - np.eye(basis.fan_in, dtype=np.int64)[j]
        yield j, i, np.array([index[tuple(row)] for row in lowered.tolist()]), e[i]


@SETTINGS
@given(fan_in=st.integers(1, 6), degree=st.integers(1, 5), n=st.integers(1, 6),
       width=st.integers(1, 6), seed=st.integers(0, 2**16))
def test_expand_vjp_adds_terms_in_basis_order(fan_in, degree, n, width, seed):
    """For n * W > 1, entry j of expand_vjp is a zeroed sum that adds
    (dm_i * m_parent) * e_ij, dm = w.T * dz, one term at a time in basis
    order (einsum's dot path at n * W == 1 may round otherwise; see its
    docstring)."""
    assume(n * width > 1)
    basis = enumerate_basis(fan_in, degree)
    rng = np.random.default_rng(seed)
    m = expand(awkward_floats(rng, (n, width, fan_in)), basis)
    dz, w = awkward_floats(rng, (n, width)), awkward_floats(rng, (width, len(basis)))
    dm = w.T[:, None, :] * dz
    want = np.zeros((n, width, fan_in))
    for j, terms, parents, exps in lowered_terms(basis):
        for i, parent, e in zip(terms, parents, exps):
            want[..., j] += (dm[i] * m[parent]) * float(e)
    assert np.array_equal(bits_of(expand_vjp(m, w, dz, basis)), bits_of(want))


def ordered_weighted_sum(terms, w):
    """sum_i w[:, i] * terms[i] over term-major terms (M, n, W), added one
    weighted term at a time in basis order, starting from the first."""
    z = terms[0] * w[:, 0]
    for i in range(1, len(terms)):
        z = z + terms[i] * w[:, i]
    return z


@SETTINGS
@given(fan_in=st.integers(1, 5), degree=st.integers(1, 4), width=st.integers(1, 5),
       n=st.integers(1, 12), negative_zero=st.booleans(), seed=st.integers(0, 2**16))
@example(fan_in=5, degree=4, width=1, n=1, negative_zero=False, seed=0)
@example(fan_in=3, degree=3, width=1, n=1, negative_zero=True, seed=0)
@example(fan_in=2, degree=4, width=4, n=1, negative_zero=False, seed=1)
@example(fan_in=2, degree=4, width=1, n=9, negative_zero=False, seed=2)
@example(fan_in=4, degree=1, width=3, n=5, negative_zero=True, seed=3)
@example(fan_in=4, degree=1, width=1, n=1, negative_zero=False, seed=4)
def test_training_weighing_is_the_ordered_sum(fan_in, degree, width, n, negative_zero, seed):
    """The training forward's weighted sum over its term-major monomials is
    the ordered per-term sum, bit for bit; with weights of -0.0 on
    non-negative inputs every product is -0.0, and so must the sum be."""
    spec = NetworkSpec(layer_widths=[width], beta=3, fan_in=fan_in, degree=degree,
                       input_count=fan_in)
    model, rng = init_model(spec), np.random.default_rng(seed)
    xg = awkward_floats(rng, (n, width, fan_in))
    w = awkward_floats(rng, (width, len(model.bases[0])))
    if negative_zero:
        xg, w = np.abs(xg), np.full_like(w, -0.0)
    terms = expand(xg, model.bases[0])
    assert terms.shape == (len(w.T), n, width) and terms.flags.c_contiguous
    want = ordered_weighted_sum(terms.copy(), w)
    got = weighted_sum(terms, w)
    assert np.array_equal(bits_of(got), bits_of(want))
    if negative_zero:
        assert np.signbit(got).all()


def expand_vjp_last_axis(m, dm, basis):
    """expand_vjp over monomials on the last axis (..., M), each term
    gathered with dm[..., i]: the reference for the term-major kernel."""
    out = np.empty(m.shape[:-1] + (basis.fan_in,))
    for j, i, parent, e in lowered_terms(basis):
        out[..., j] = np.einsum("...k,k->...", dm[..., i] * m[..., parent], e)
    return out


@SETTINGS
@given(fan_in=st.integers(1, 6), degree=st.integers(1, 5), n=st.integers(1, 6),
       width=st.integers(1, 6), seed=st.integers(0, 2**16))
@example(fan_in=4, degree=4, n=1, width=1, seed=0)
@example(fan_in=3, degree=2, n=1, width=5, seed=1)
@example(fan_in=3, degree=2, n=5, width=1, seed=2)
def test_expand_vjp_term_major_equals_last_axis_reference(fan_in, degree, n, width, seed):
    """expand_vjp of the weights and dz gives the bits of dm = dz * w laid
    out (n, W, M) through the last-axis reference, at every n * W, 1
    included."""
    basis = enumerate_basis(fan_in, degree)
    rng = np.random.default_rng(seed)
    m = expand(awkward_floats(rng, (n, width, fan_in)), basis)
    dz, w = awkward_floats(rng, (n, width)), awkward_floats(rng, (width, len(basis)))
    want = expand_vjp_last_axis(np.moveaxis(m, 0, -1), dz[:, :, None] * w[None, :, :], basis)
    got = expand_vjp(m, w, dz, basis)
    assert np.array_equal(bits_of(got), bits_of(want))


def covered_draw_per_neuron(rng, width, prev, fan):
    """_covered_draw one neuron at a time: each short neuron's unused
    predecessors from a boolean pool, then rng.choice over them."""
    rows = [[] for _ in range(width)]
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


@SETTINGS
@given(width=st.integers(1, 12), fan=st.integers(1, 6), spare=st.integers(0, 60),
       seed=st.integers(0, 2**16))
@example(width=4, fan=3, spare=0, seed=0)  # prev == fan * width: nothing missing
@example(width=3, fan=2, spare=1, seed=1)  # one short neuron, two full ones
@example(width=1, fan=5, spare=0, seed=2)
def test_covered_draw_matches_per_neuron_reference(width, fan, spare, seed):
    """Covered masks (prev <= fan * width) equal the per-neuron draw, and the
    generator is left in the same state for the layers after."""
    prev = max(fan, fan * width - spare)
    got_rng, want_rng = (np.random.default_rng(np.random.PCG64(seed)) for _ in range(2))
    got = model_mod._covered_draw(got_rng, width, prev, fan)
    want = covered_draw_per_neuron(want_rng, width, prev, fan)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(np.unique(got), np.arange(prev))
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@SETTINGS
@given(bits=st.integers(1, 8), fan=st.integers(1, 7), seed=st.integers(0, 2**16))
def test_address_pack_decode_round_trip(bits, fan, seed):
    rng = np.random.default_rng(seed)
    fields = rng.integers(0, 1 << bits, size=(20, fan))
    addrs = pack_address(fields, bits)
    assert np.all((addrs >= 0) & (addrs < 1 << (bits * fan)))
    assert np.array_equal(decode_address(addrs, bits, fan), fields)
    assert np.array_equal(pack_address(decode_address(addrs, bits, fan), bits), addrs)


@SETTINGS
@given(bits=st.integers(1, 8), signed=st.booleans(), seed=st.integers(0, 2**16))
def test_code_bits_round_trip(bits, signed, seed):
    q = Quantizer(bits=bits, signed=signed, scale=1.0)
    codes = np.random.default_rng(seed).integers(q.code_min, q.code_max + 1, size=50)
    patterns = encode_bits(codes, q)
    assert np.all(patterns < 1 << bits)
    assert np.array_equal(decode_bits(patterns, q), codes)
    every = np.arange(1 << bits)
    assert np.array_equal(encode_bits(decode_bits(every, q), q), every)


@SETTINGS
@given(bits=st.integers(1, 8), signed=st.booleans(),
       scale=st.floats(min_value=1e-30, max_value=1e30))
def test_quantize_dequantize_round_trip(bits, signed, scale):
    q = Quantizer(bits=bits, signed=signed, scale=scale)
    codes = np.arange(q.code_min, q.code_max + 1)
    assert np.array_equal(quantize(dequantize(codes, q), q), codes)


def random_model(seed):
    """An untrained model of random shape whose scales spread its codes over
    the range, then shrink so that some codes clamp, with random
    batch-norm affine parameters."""
    rng = np.random.default_rng(seed)
    fan = int(rng.integers(1, 4))
    spec = NetworkSpec(layer_widths=rng.integers(fan, 6, size=rng.integers(1, 4)).tolist(),
                       beta=int(rng.integers(2, 5)), fan_in=fan, degree=int(rng.integers(1, 4)),
                       input_count=fan + int(rng.integers(0, 3)),
                       input_beta=int(rng.integers(2, 7)), seed=seed)
    model = init_model(spec)
    init_scales(model, rng.uniform(-1.0, 1.0, size=(32, spec.input_count)))
    for p in model.params:
        p.quant_scale *= rng.uniform(0.3, 1.5)
        width = len(p.weights)
        p.bn.gamma, p.bn.beta_shift = rng.uniform(0.5, 2.0, width), rng.normal(0, 0.3, width)
    return model, rng.uniform(-1.2, 1.2, size=(int(rng.integers(2, 60)), spec.input_count))


@SETTINGS
@given(seed=st.integers(0, 2**16))
def test_straight_through_mask_is_where_the_clamp_did_not_act(seed):
    model, x = random_model(seed)
    _, caches = forward(model, x)
    for layer, cache in enumerate(caches):
        q = model.layer_quantizer(layer)
        r = cache["h"] if cache["last"] else np.maximum(cache["h"], 0.0)
        u = round_half_away(r / q.scale)
        assert np.array_equal(cache["c"], np.clip(u, q.code_min, q.code_max))
        assert np.array_equal(cache["ste"], np.clip(u, q.code_min, q.code_max) == u)
        # the two roundings this step replaced: quantize, and the range test
        assert np.array_equal(cache["c"], quantize(r, q))
        assert np.array_equal(cache["ste"], (u >= q.code_min) & (u <= q.code_max))


def add_at_scatter(dxg, mask, width):
    """Reference scatter: np.add.at of each row's (neuron, input) terms
    into its sources, one row per column of a (width, n) accumulator."""
    n = dxg.shape[0]
    out = np.zeros((width, n))
    np.add.at(out, mask.ravel(), dxg.transpose(1, 2, 0).reshape(-1, n))
    return np.ascontiguousarray(out.T)


@SETTINGS
@given(seed=st.integers(0, 2**16), rows=st.integers(1, 40), batch=st.integers(1, 16))
@example(seed=0, rows=1, batch=1)
@example(seed=1, rows=17, batch=8)  # a last batch of one row
def test_gradient_scatter_matches_add_at(seed, rows, batch):
    rng = np.random.default_rng(seed)
    width = int(rng.integers(1, 9))
    fan, neurons = int(rng.integers(1, width + 1)), int(rng.integers(1, 7))
    # sources drawn per neuron, so neurons share them
    mask = np.stack([np.sort(rng.choice(width, fan, replace=False)) for _ in range(neurons)])
    # magnitudes far apart, so a different summation order changes the bits
    dxg = rng.normal(size=(rows, neurons, fan)) * 10.0 ** rng.integers(-8, 9, (rows, neurons, fan))
    dxg[rng.random(dxg.shape) < 0.2] = -0.0
    for start in range(0, rows, batch):
        part = dxg[start:start + batch]
        got, want = _scatter_sources(part, mask, width), add_at_scatter(part, mask, width)
        assert got.shape == want.shape == (len(part), width)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def random_netlist(seed):
    """A netlist of random tables and random distinct wiring, with input
    and output code widths that differ from layer to layer."""
    rng = np.random.default_rng(seed)
    prev, bits = int(rng.integers(1, 6)), int(rng.integers(1, 4))
    net_in = (prev, bits)
    layers = []
    for _ in range(int(rng.integers(1, 4))):
        width, out_bits = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        fan = int(rng.integers(1, min(prev, 9 // bits) + 1))
        sources = np.array([rng.permutation(prev)[:fan] for _ in range(width)])
        tables = rng.integers(0, 1 << out_bits, size=(width, 1 << (fan * bits)))
        layers.append(LutLayer(tables=tables.astype(np.uint32), sources=sources,
                               output_bits=out_bits))
        prev, bits = width, out_bits
    return Netlist(input_count=net_in[0], input_bits=net_in[1], layers=layers,
                   clock_period_ns=1.0)


def simulate_per_neuron(net, inputs):
    """Reference: one table lookup per neuron and row, addresses packed
    one source at a time."""
    vals, bits = inputs, net.input_bits
    for lut in net.layers:
        out = np.empty((len(vals), lut.width), dtype=np.int64)
        for j in range(lut.width):
            for r in range(len(vals)):
                addr = 0
                for k, s in enumerate(lut.sources[j]):
                    addr |= int(vals[r, s]) << (k * bits)
                out[r, j] = lut.tables[j, addr]
        vals, bits = out, lut.output_bits
    return vals


@SETTINGS
@given(seed=st.integers(0, 2**16), n=st.integers(0, 60), split=st.integers(1, 60),
       chunk=st.integers(1, 200))
def test_simulate_matches_per_neuron_lookups(seed, n, split, chunk):
    net = random_netlist(seed)
    rng = np.random.default_rng(seed)
    inputs = rng.integers(0, 1 << net.input_bits, size=(n, net.input_count))
    want = simulate_per_neuron(net, inputs)
    assert np.array_equal(simulate(net, inputs), want)
    perm = rng.permutation(n)
    with chunk_elements(chunk):
        assert np.array_equal(simulate(net, inputs[perm]), want[perm])
    batches = [simulate(net, inputs[s : s + split]) for s in range(0, n, split)]
    assert np.array_equal(np.concatenate([want[:0]] + batches), want)


@st.composite
def table_layers(draw):
    """One to three layers of 1-3 tables; entries come from a pool of 1-40
    values, so constant tables and repeated values are common.  Each
    layer's neurons read the 1-bit inputs 0..N-1 in order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    layers = []
    for _ in range(draw(st.integers(1, 3))):
        addr_bits, out_bits = draw(st.integers(1, 10)), draw(st.integers(1, 32))
        pool = rng.integers(0, 1 << out_bits, size=draw(st.integers(1, 40)), dtype=np.uint64)
        width = draw(st.integers(1, 3))
        tables = rng.choice(pool, size=(width, 1 << addr_bits)).astype(np.uint32)
        layers.append(LutLayer(tables=tables, output_bits=out_bits,
                               sources=np.tile(np.arange(addr_bits), (width, 1))))
    return layers


def table_layer(*rows, output_bits):
    """One layer of the given table rows, read from 1-bit inputs."""
    tables = np.array(rows, dtype=np.uint32)
    n = tables.shape[1].bit_length() - 1
    return LutLayer(tables=tables, output_bits=output_bits,
                    sources=np.tile(np.arange(n), (len(tables), 1)))


def dump_per_entry(layer, lut):
    """Reference: a dump's bytes joined one entry at a time, 16 entries to
    a line."""
    text = [f"lut-tables v1\nlayer {layer}\nneurons {lut.width}\n"
            f"input_bits {lut.address_bits}\noutput_bits {lut.output_bits}\n"]
    for j, row in enumerate(lut.tables.tolist()):
        text.append(f"neuron {j}\n")
        text += [" ".join(f"{v:x}" for v in row[k:k + 16]) + "\n"
                 for k in range(0, len(row), 16)]
    return "".join(text).encode("ascii")


@SETTINGS
@given(layers=table_layers())
@example(layers=[table_layer([0, 0], output_bits=1)])
@example(layers=[table_layer([2**32 - 1] * 16, [0] * 16, output_bits=32)])
@example(layers=[table_layer(range(32), output_bits=5),
                 table_layer([2**32 - 1, 0] * 16, output_bits=32)])
@example(layers=[table_layer(range(1 << 16), range((1 << 16) - 1, -1, -1), output_bits=16)])
def test_dump_bytes_equal_a_per_entry_reference(layers):
    with tempfile.TemporaryDirectory() as out:
        got = [pathlib.Path(p).read_bytes() for p in dump_tables(layers, out)]
    assert got == [dump_per_entry(layer, lut) for layer, lut in enumerate(layers)]


@SETTINGS
@given(layers=table_layers())
def test_dump_load_round_trip(layers):
    with tempfile.TemporaryDirectory() as out:
        dump_tables(layers, out)
        back = load_tables(out, len(layers))
    assert [(t.dtype, t.tolist(), b) for t, b in back] == \
        [(np.uint32, lut.tables.tolist(), lut.output_bits) for lut in layers]


def rom_lines(n, b, name):
    """The lines of a ROM of n <= 16 address bits before and after its b
    constant lines."""
    head = [f"module {name} (", "    input  wire clk,", f"    input  wire [{n - 1}:0] addr,",
            f"    output reg  [{b - 1}:0] data", ");"]
    read = ", ".join(f"BIT_{k}[addr]" for k in reversed(range(b)))
    tail = ["    always @(posedge clk) begin", f"        data <= {{{read}}};", "    end",
            "endmodule", ""]
    return head, tail


def rom_per_entry(table, n, b, name):
    """Reference: each constant a Python int built one table entry at a
    time, bit i from entry i."""
    head, tail = rom_lines(n, b, name)
    constants = []
    for k in range(b):
        value = sum(((int(v) >> k) & 1) << i for i, v in enumerate(table))
        constants.append(f"    localparam [{(1 << n) - 1}:0] BIT_{k} = {1 << n}'h"
                         f"{value:0{-(-(1 << n) // 4)}x};")
    return "\n".join(head + constants + tail)


@SETTINGS
@given(layers=table_layers())
def test_roms_match_per_entry_reference(layers):
    for lut in layers:  # each layer as the only layer of a netlist of 1-bit inputs
        net = Netlist(input_count=lut.address_bits, input_bits=1, layers=[lut],
                      clock_period_ns=1.0)
        with tempfile.TemporaryDirectory() as out:
            assert emit_bundle(net, out) == []
            names = [f"layer0_n{j}" for j in range(lut.width)]
            assert sorted(os.listdir(out)) == sorted(
                [f"{name}.v" for name in names] + ["top.v", "tb.v", "vectors.hex", "manifest.txt"])
            for name, table in zip(names, lut.tables):
                want = rom_per_entry(table, lut.address_bits, lut.output_bits, name)
                with open(os.path.join(out, f"{name}.v"), encoding="utf-8", newline="") as f:
                    assert f.read().split("\n") == want.split("\n")  # a list diff stays cheap


def edit_token(token, kind, rng):
    if kind == "upper":
        return token.upper()
    if kind == "zeros":
        return "0" * int(rng.integers(1, 4)) + token
    if kind == "prefix":
        return "0x" + token
    if kind == "bad":
        return "zz"
    if kind == "wide":
        return "1" + "0" * 8  # 2**32
    if kind == "plus":
        return "+" + token
    if kind == "underscore":
        return token[0] + "_" + (token[1:] or "0")
    return "-" + token


def respace(text, kind, rng):
    """Rewrite some line ends of a dump as "\r\n" ("crlf") or "\r" ("cr"),
    or some spaces as runs of other ASCII whitespace and add runs around
    some lines ("tabs"): a text-mode read and str.split see the same lines
    and tokens."""
    if kind == "tabs":
        def run():
            return "".join(rng.choice(list(" \t\x0b\x0c\x1c\x1f"), size=rng.integers(1, 4)))
        parts = text.split(" ")
        text = "".join(p + (run() if rng.random() < 0.5 else " ") for p in parts[:-1]) \
            + parts[-1]
        return "\n".join(run() + ln + run() if rng.random() < 0.3 else ln
                         for ln in text.split("\n"))
    end = "\r\n" if kind == "crlf" else "\r"
    parts = text.split("\n")
    return "".join(p + (end if rng.random() < 0.5 else "\n") for p in parts[:-1]) + parts[-1]


def rewrap(lines, rng):
    """Re-cut the value lines between "neuron" lines into lines of 1 to 20
    entries."""
    out, values = [], []
    for ln in lines + ["neuron"]:
        if ln.startswith("neuron"):
            while values:
                n = int(rng.integers(1, 21))
                out.append(" ".join(values[:n]))
                values = values[n:]
            out.append(ln)
        else:
            values += ln.split()
    return out[:-1]


EDIT_KINDS = ["upper", "zeros", "prefix", "bad", "wide", "negative", "plus", "underscore",
              "drop-token", "extra-token", "drop-line", "split-line", "extra-line", "rewrap",
              "crlf", "cr", "tabs"]


def read_edited_dump(layers, kind, rng):
    """Dump the layers, make one edit of the given kind to one layer's
    dump, and read the dumps back with load_tables.  Returns the edited
    layer, whether its edited bytes equal the dumped ones, the neuron whose
    lines hold the first line that differs (-1 for a header line), and the
    tables read back or the error message.  Neuron 0's lines begin after
    the header, and neuron j's run on to the place of "neuron j+1", the
    last neuron's to the end of the file: a wrong line where "neuron j+1"
    belongs ends neuron j's value lines wrongly."""
    with tempfile.TemporaryDirectory() as out:
        dump_tables(layers, out)
        layer = int(rng.integers(len(layers)))
        path = os.path.join(out, f"layer{layer}_tables.txt")
        with open(path, encoding="utf-8") as f:
            original = f.read()
        lines = original.split("\n")
        k = int(rng.integers(5, len(lines) - 1))
        while lines[k].startswith("neuron") and kind not in ("drop-line", "extra-line"):
            k += 1
        tokens = lines[k].split(" ")
        t = int(rng.integers(len(tokens)))
        if kind == "drop-token":
            del tokens[t]
        elif kind == "extra-token":
            tokens.insert(t, tokens[t])
        elif kind not in ("drop-line", "split-line", "extra-line", "rewrap", "crlf", "cr",
                          "tabs"):
            tokens = [edit_token(tok, kind, rng) if rng.random() < 0.5 or i == t else tok
                      for i, tok in enumerate(tokens)]
        lines[k] = " ".join(tokens)
        if kind == "drop-line":
            del lines[k]
        elif kind == "split-line":
            lines[k] = "\n\t".join(tokens)
        elif kind == "extra-line":
            lines.insert(k, lines[k])
        elif kind == "rewrap":
            lines = lines[:5] + rewrap(lines[5:], rng)
        text = "\n".join(lines)
        if kind in ("crlf", "cr", "tabs"):
            text = respace(text, kind, rng)
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        try:
            got = [(t.tolist(), b) for t, b in load_tables(out, len(layers))]
        except ValueError as e:
            got = str(e)
    old, new = original.split("\n"), text.split("\n")
    first = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new)))
    lut = layers[layer]
    stride = 1 + -(-lut.tables.shape[1] // 16)  # "neuron j" and its value lines
    neuron = min(max((first - 6) // stride, 0), lut.width - 1) if first >= 5 else -1
    return layer, text == original, neuron, got


@settings(max_examples=20, deadline=None)
@given(layers=table_layers(), seed=st.integers(0, 2**16))
def test_load_tables_reads_only_the_dumped_bytes(layers, seed):
    """Under every kind of edit, a dump loads exactly when its bytes are
    still those dump_tables wrote, and a rejection names the layer, and
    the neuron whose lines hold the first line that differs.  Each example
    runs every kind."""
    for kind in EDIT_KINDS:
        layer, same, neuron, got = read_edited_dump(layers, kind, np.random.default_rng(seed))
        if same:
            assert got == [(lut.tables.tolist(), lut.output_bits) for lut in layers], kind
        else:
            where = f"layer {layer} neuron {neuron}: " if neuron >= 0 else f"layer {layer}: "
            assert isinstance(got, str) and got.startswith(where), (kind, got)


def edit_file(path, edit):
    """Rewrite a written file as edit(its text), with no newline translation."""
    path.write_bytes(edit(path.read_bytes().decode("utf-8")).encode("utf-8"))


def edit_bytes(out, kind, rng):
    """Insert, delete or substitute one byte (any of the 256) at a random
    place in a random file of the bundle written to out, or write the file
    back unchanged; returns the module or file check_bundle must blame, or
    None for an unchanged bundle."""
    fname = str(rng.choice(sorted(os.listdir(out))))
    path = pathlib.Path(out, fname)
    data = path.read_bytes()
    k = int(rng.integers(len(data) + (kind == "insert")))
    byte = bytes([int(rng.integers(256))])
    if kind == "substitute":
        byte = bytes([(data[k] + int(rng.integers(1, 256))) % 256])  # another byte
    path.write_bytes({"insert": data[:k] + byte + data[k:], "delete": data[:k] + data[k + 1:],
                      "substitute": data[:k] + byte + data[k + 1:], "noop": data}[kind])
    if kind == "noop":
        return None
    return fname[:-2] if fname.startswith("layer") else fname


def edit_bundle(out, net, kind, rng):
    """Make one edit of the given kind to a random module, wire, manifest
    digest or vector in the bundle written to out; returns the module or
    file check_bundle must blame."""
    if kind in ("insert", "delete", "substitute", "noop"):
        return edit_bytes(out, kind, rng)
    layer = int(rng.integers(net.n_layers))
    lut = net.layers[layer]
    j = int(rng.integers(lut.width))
    name = f"layer{layer}_n{j}"
    fname = {"wire": "top.v", "digest": "manifest.txt", "vector": "vectors.hex"}.get(kind)

    def edit(text):
        lines = text.split("\n")
        if kind in ("line", "digit"):
            constants = [i for i, ln in enumerate(lines) if ln.startswith("    localparam ")]
            a = int(rng.choice(constants))
            if kind == "line":
                del lines[a]
            else:  # another hex digit in place of one of the constant's
                k = int(rng.integers(lines[a].index("'h") + 2, len(lines[a]) - 1))
                new = f"{(int(lines[a][k], 16) + int(rng.integers(1, 16))) % 16:x}"
                lines[a] = lines[a][:k] + new + lines[a][k + 1:]
        elif kind == "wire":
            k = next(i for i, ln in enumerate(lines) if ln.startswith(f"    assign {name}_addr ="))
            s = int(rng.choice(lut.sources[j]))
            lines[k] = lines[k].replace(f"[{s}*", f"[{s + 1}*")
        elif kind == "digest":
            k = 2 + sum(other.width for other in net.layers[:layer]) + j
            lines[k] = lines[k][:-1] + ("1" if lines[k].endswith("0") else "0")
        else:
            k = int(rng.integers(len(lines) - 1))
            word_in, word_out = lines[k].split()
            lines[k] = f"{word_in} {int(word_out, 16) ^ 1:0{len(word_out)}x}"
        return "\n".join(lines)

    edit_file(pathlib.Path(out, fname or f"{name}.v"), edit)
    return fname or name


@SETTINGS
@given(seed=st.integers(0, 2**16),
       kind=st.sampled_from(["line", "digit", "wire", "digest", "vector",
                             "insert", "delete", "substitute", "noop"]))
def test_check_bundle_passes_emission_and_flags_one_edit(seed, kind):
    net = random_netlist(seed)
    # a directory per example: tmp_path would be shared by all of them
    with tempfile.TemporaryDirectory() as out:
        emit_bundle(net, out)
        assert check_bundle(out, net) == []
        blamed = edit_bundle(out, net, kind, np.random.default_rng(seed))
        problems = check_bundle(out, net)
    if blamed is None:
        assert problems == []
    else:
        assert problems and all(p.startswith(f"{blamed}: ") for p in problems), problems


def reference_rom(text, n, b, name):
    """A per-line reader of a ROM: the lines around its constants must be
    the emitted ones, and line 6 + k must be BIT_k's line with exactly
    ceil(2**n / 4) lower-case hex digits, read by int(..., 16), below
    2**(2**n).  Returns the table, or the number of the first line that is
    not so."""
    head, tail = rom_lines(n, b, name)
    size, digits = 1 << n, -(-(1 << n) // 4)
    want = head + [None] * b + tail
    lines = text.split("\n")
    values = np.zeros(size, dtype=np.uint32)
    for i, line in enumerate(lines[:len(want)]):
        if want[i] is not None:
            if line != want[i]:
                return i + 1
            continue
        k = i - len(head)
        m = re.fullmatch(rf"    localparam \[{size - 1}:0\] BIT_{k} = {size}'h(.{{{digits}}});",
                         line)
        if not m or not re.fullmatch("[0-9a-f]+", m[1]) or int(m[1], 16) >= 1 << size:
            return i + 1
        value = int(m[1], 16)
        values |= np.array([(value >> a) & 1 for a in range(size)], dtype=np.uint32) << k
    if len(lines) != len(want):
        return min(len(lines), len(want)) + 1
    return values


def edit_rom_text(text, kind, rng):
    """One edit of a character of a ROM's text, of the given kind: half of
    the time inside the digits of a constant, else anywhere."""
    if rng.random() < 0.5:
        spans = [m.span(1) for m in re.finditer("'h([0-9a-f]+);", text)]
        start, stop = spans[int(rng.integers(len(spans)))]
        k = int(rng.integers(start, stop))
    else:
        k = int(rng.integers(len(text)))
    new = str(rng.choice(list("0179afgAF:; \t\n\u00e9\u0663")))
    if kind == "substitute":
        return text[:k] + new + text[k + 1:]
    if kind == "delete":
        return text[:k] + text[k + 1:]
    return text[:k] + new + text[k:]


@SETTINGS
@given(seed=st.integers(0, 2**16), n=st.integers(1, 11), b=st.integers(1, 12),
       kind=st.sampled_from(["substitute", "delete", "insert"]))
@example(seed=0, n=1, b=2, kind="substitute")
@example(seed=1, n=10, b=10, kind="insert")
def test_check_bundle_reads_constants_as_a_per_line_reference_does(seed, n, b, kind):
    rng = np.random.default_rng(seed)
    layer = LutLayer(tables=rng.integers(0, 1 << b, size=(1, 1 << n)).astype(np.uint32),
                     sources=np.arange(n)[None], output_bits=b)
    net = Netlist(input_count=n, input_bits=1, layers=[layer], clock_period_ns=1.0)
    with tempfile.TemporaryDirectory() as out:
        emit_bundle(net, out)
        path = pathlib.Path(out, "layer0_n0.v")
        edit_file(path, lambda text: edit_rom_text(text, kind, rng))
        got = [p for p in check_bundle(out, net) if p.startswith("layer0_n0: ")]
        want = reference_rom(path.read_bytes().decode("utf-8"), n, b, "layer0_n0")
    if isinstance(want, int):
        line = want
    else:  # the line of the first constant whose bits are not the table's
        line = next((6 + k for k in range(b) if ((want ^ layer.tables[0]) >> k & 1).any()),
                    None)
    if line is None:
        assert got == []
    else:
        assert len(got) == 1 and got[0].startswith(f"layer0_n0: line {line} is "), (line, got)
