"""Property tests: invariances of the layer-wise inference path and of
netlist simulation, the training forward pass against that path, the
fused weighted expansion and expand_vjp's summation order, round
trips of the quantizer and the bit-level codecs, the layer-wise
table text (dumps and Verilog ROMs) against per-entry references, the
RTL checker's read-back of emitted and edited bundle files, and the
trainer's gradient scatter against np.add.at."""

import os
import pathlib
import tempfile
from contextlib import contextmanager

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lutc.model as model_mod
import lutc.rtl as rtl_mod
from lutc.basis import enumerate_basis, expand, expand_vjp, weighted_expand, weighted_sum
from lutc.model import NetworkSpec, forward_codes, init_model
from lutc.netlist import LutLayer, Netlist, simulate
from lutc.quantize import (Quantizer, decode_bits, dequantize, encode_bits, quantize,
                           round_half_away)
from lutc.rtl import check_bundle, emit_bundle
from lutc.tables import decode_address, dump_tables, load_tables, pack_address, tabulate_model
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


@SETTINGS
@given(fan_in=st.integers(1, 5), degree=st.integers(1, 5), seed=st.integers(0, 2**16))
def test_expand_matches_power_reference_on_integers(fan_in, degree, seed):
    basis = enumerate_basis(fan_in, degree)
    x = np.random.default_rng(seed).integers(-7, 8, size=(3, fan_in)).astype(np.float64)
    # integer-valued products below 2**53 are exact whatever the order
    want = np.prod(x[:, None, :] ** basis.exponents[None, :, :], axis=2)
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
       n=st.integers(0, 12), shared=st.booleans(), seed=st.integers(0, 2**16))
@example(fan_in=3, degree=1, width=4, n=5, shared=False, seed=0)
@example(fan_in=2, degree=3, width=3, n=0, shared=True, seed=0)
def test_weighted_expand_equals_weighted_sum_of_expand(fan_in, degree, width, n, shared, seed):
    basis = enumerate_basis(fan_in, degree)
    rng = np.random.default_rng(seed)
    x = awkward_floats(rng, (n, 1 if shared else width, fan_in))
    w = awkward_floats(rng, (width, len(basis)))
    got = weighted_expand(x, basis, w)
    assert got.shape == (n, width)
    assert np.array_equal(bits_of(got), bits_of(weighted_sum(expand(x, basis), w)))


@SETTINGS
@given(fan_in=st.integers(1, 6), degree=st.integers(1, 5), n=st.integers(1, 6),
       width=st.integers(1, 6), seed=st.integers(0, 2**16))
def test_expand_vjp_adds_terms_in_basis_order(fan_in, degree, n, width, seed):
    """For n * W > 1, entry j of expand_vjp is a zeroed sum that adds
    (dm_i * m_parent) * e_ij one term at a time in basis order (einsum's
    dot path at n * W == 1 may round otherwise; see its docstring)."""
    assume(n * width > 1)
    basis = enumerate_basis(fan_in, degree)
    rng = np.random.default_rng(seed)
    m = expand(awkward_floats(rng, (n, width, fan_in)), basis)
    dm = awkward_floats(rng, m.shape)
    want = np.zeros((n, width, fan_in))
    for j, (terms, parents, exps) in enumerate(basis.vjp_terms):
        for i, parent, e in zip(terms, parents, exps):
            want[..., j] += (dm[..., i] * m[..., parent]) * float(e)
    assert np.array_equal(bits_of(expand_vjp(m, dm, basis)), bits_of(want))


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
    running statistics and batch-norm affine parameters."""
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
        p.bn.running_mean = rng.normal(0, 0.3, width)
        p.bn.running_var = rng.uniform(0.2, 2.0, width)
    return model, rng.uniform(-1.2, 1.2, size=(int(rng.integers(2, 60)), spec.input_count))


@SETTINGS
@given(seed=st.integers(0, 2**16))
def test_forward_inference_codes_are_forward_codes(seed):
    model, x = random_model(seed)
    _, want = forward_codes(model, quantize(x, model.input_quantizer), trace=True)
    for xb in (x, quantize(x, model.input_quantizer)):  # features, or input codes
        _, caches = forward(model, xb, training=False)
        for layer, cache in enumerate(caches):
            assert np.array_equal(cache["c"], want[layer])


@SETTINGS
@given(seed=st.integers(0, 2**16))
def test_straight_through_mask_is_where_the_clamp_did_not_act(seed):
    model, x = random_model(seed)
    _, caches = forward(model, x, training=True, track_stats=False)
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


@SETTINGS
@given(layers=table_layers())
def test_dump_load_round_trip(layers):
    with tempfile.TemporaryDirectory() as out:
        dump_tables(layers, out)
        back = load_tables(out)
    assert [(t.dtype, t.tolist(), b) for t, b in back] == \
        [(np.uint32, lut.tables.tolist(), lut.output_bits) for lut in layers]


def rom_per_entry(table, n, b, name):
    """Reference: one f-string per table entry."""
    lines = [f"module {name} (", "    input  wire clk,", f"    input  wire [{n - 1}:0] addr,",
             f"    output reg  [{b - 1}:0] data", ");", "    always @(posedge clk) begin",
             "        case (addr)"]
    for addr, val in enumerate(table):
        lines.append(f"            {n}'h{addr:x}: data <= {b}'h{int(val):x};")
    lines.append(f"            default: data <= {b}'h0;")
    lines.extend(["        endcase", "    end", "endmodule", ""])
    return "\n".join(lines)


@SETTINGS
@given(layers=table_layers())
def test_roms_match_per_entry_reference(layers):
    for lut in layers:  # each layer as the only layer of a netlist of 1-bit inputs
        net = Netlist(input_count=lut.address_bits, input_bits=1, layers=[lut],
                      clock_period_ns=1.0)
        with tempfile.TemporaryDirectory() as out:
            written = emit_bundle(net, out)
            names = [f"layer0_n{j}" for j in range(lut.width)]
            assert written[:-4] == [os.path.join(out, f"{name}.v") for name in names]
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
            got = [(t.tolist(), b) for t, b in load_tables(out)]
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


def edit_bundle(out, net, kind, rng):
    """Make one edit of the given kind to a random module, wire, manifest
    digest or vector in the bundle written to out; returns the module or
    file check_bundle must blame."""
    layer = int(rng.integers(net.n_layers))
    lut = net.layers[layer]
    j = int(rng.integers(lut.width))
    name = f"layer{layer}_n{j}"
    fname = {"wire": "top.v", "digest": "manifest.txt", "vector": "vectors.hex"}.get(kind)

    def edit(text):
        lines = text.split("\n")
        if kind in ("arm", "value"):
            arms = [i for i, ln in enumerate(lines) if ": data <=" in ln and "default" not in ln]
            a, c = (arms[i] for i in rng.choice(len(arms), size=2, replace=False))
            if kind == "arm":
                lines[a], lines[c] = lines[c], lines[a]
            else:
                head, _, token = lines[a].rpartition("'h")
                size = 1 << lut.output_bits
                value = (int(token[:-1], 16) + int(rng.integers(1, size))) % size
                lines[a] = f"{head}'h{value:x};"
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


@contextmanager
def rtl_window(value):
    """Set rtl._WINDOW, the bytes of case arms read at once, for the block."""
    saved = rtl_mod._WINDOW
    rtl_mod._WINDOW = value
    try:
        yield
    finally:
        rtl_mod._WINDOW = saved


@SETTINGS
@given(seed=st.integers(0, 2**16),
       kind=st.sampled_from(["arm", "value", "wire", "digest", "vector"]),
       window=st.sampled_from([1, 37, 512, rtl_mod._WINDOW]))
def test_check_bundle_passes_emission_and_flags_one_edit(seed, kind, window):
    net = random_netlist(seed)
    # a directory per example: tmp_path would be shared by all of them
    with tempfile.TemporaryDirectory() as out, rtl_window(window):
        emit_bundle(net, out)
        assert check_bundle(out, net) == []
        blamed = edit_bundle(out, net, kind, np.random.default_rng(seed))
        problems = check_bundle(out, net)
    assert any(p.startswith(f"{blamed}: ") for p in problems), problems
