"""Property tests: invariances of the layer-wise inference path and
round trips of the bit-level codecs."""

from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import lutc.model as model_mod
from lutc.basis import enumerate_basis, expand
from lutc.model import NetworkSpec, forward_codes, init_model
from lutc.quantize import Quantizer, decode_bits, encode_bits
from lutc.tables import decode_address, pack_address, tabulate_model
from lutc.trainer import init_scales

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
        assert tabulate_model(model) == want


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


@SETTINGS
@given(fan_in=st.integers(1, 5), degree=st.integers(1, 5), seed=st.integers(0, 2**16))
def test_expand_matches_power_reference_on_integers(fan_in, degree, seed):
    basis = enumerate_basis(fan_in, degree)
    x = np.random.default_rng(seed).integers(-7, 8, size=(3, fan_in)).astype(np.float64)
    # integer-valued products below 2**53 are exact whatever the order
    want = np.prod(x[:, None, :] ** basis.exponents[None, :, :], axis=2)
    assert np.array_equal(expand(x, basis), want)


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
