"""What the emitted Verilog computes: vectors.hex replayed through top.v
and the ROM files by verilog_subset, a reading of the subset lutc emits
that shares no code with lutc.rtl.  The real emitter's bundles replay
with no mismatch, and text mutants of a bundle that the digests alone
would catch only as changed bytes are flagged as wrong behaviour."""

import re
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lutc.netlist import LutLayer, Netlist
from lutc.rtl import emit_bundle
from verilog_subset import replay


def random_netlist(rng, input_count, input_bits, shapes):
    """A netlist of random tables; shapes holds each layer's (width, fan-in,
    output bits), and each neuron reads fan-in distinct random sources."""
    prev, bits, layers = input_count, input_bits, []
    for width, fan, out_bits in shapes:
        sources = np.array([rng.permutation(prev)[:fan] for _ in range(width)])
        tables = rng.integers(0, 1 << out_bits, size=(width, 1 << (fan * bits)), dtype=np.uint32)
        layers.append(LutLayer(tables=tables, sources=sources, output_bits=out_bits))
        prev, bits = width, out_bits
    return Netlist(input_count=input_count, input_bits=input_bits, layers=layers,
                   clock_period_ns=1.0)


@st.composite
def netlists(draw):
    """1-4 layers of 1-18 address bits and 1-4 output bits; a layer of
    over 12 address bits has at most 2 neurons, to keep the ROMs few.  The
    input count and each fan-in are their largest about half the time, so
    that constants split into pieces (over 16 address bits) are common."""

    def up_to(top):
        return draw(st.one_of(st.just(top), st.integers(1, top)))

    input_bits, input_count = draw(st.integers(1, 4)), up_to(18)
    prev, bits, shapes = input_count, input_bits, []
    for _ in range(draw(st.integers(1, 4))):
        fan = up_to(min(prev, 18 // bits))
        width = draw(st.integers(1, 6 if fan * bits <= 12 else 2))
        shapes.append((width, fan, draw(st.integers(1, 4))))
        prev, bits = width, shapes[-1][2]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_netlist(rng, input_count, input_bits, shapes)


@settings(max_examples=30, deadline=None)
@given(net=netlists())
def test_emitted_bundles_compute_their_vectors(net):
    with tempfile.TemporaryDirectory() as out:
        assert emit_bundle(net, out) == []
        assert replay(out) == (0, [])


# (input count, input bits, layer shapes) of a three-layer net of 4 address
# bits, and of a net whose last layer's constants are split into two
# pieces: 17 one-bit sources
BUNDLES = {
    "narrow": (4, 2, [(3, 2, 3), (2, 2, 2), (2, 2, 3)]),
    "pieces": (18, 1, [(17, 1, 1), (1, 17, 2)]),
}


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    out = {}
    for name, (count, bits, shapes) in BUNDLES.items():
        net = random_netlist(np.random.default_rng(7), count, bits, shapes)
        out[name] = tmp_path_factory.mktemp(name)
        assert emit_bundle(net, out[name]) == []
        assert replay(out[name]) == (0, [])
    return out


def reverse_concat(line):
    head, _, elements = line.rpartition("{")
    elements, _, tail = elements.partition("}")
    return head + "{" + ", ".join(reversed(elements.split(", "))) + "}" + tail


def m1_address_in_source_order(out):
    """One neuron's address concatenation in source order, input 0 first."""
    top = (out / "top.v").read_text()
    line = next(ln for ln in top.splitlines() if "_addr = {" in ln and ", " in ln)
    (out / "top.v").write_text(top.replace(line, reverse_concat(line), 1))


def m2_data_bits_ascending(out):
    """One ROM's data <= {...} reads in ascending bit order, BIT_0 first."""
    path = next(p for p in sorted(out.glob("layer*_n*.v"))
                if "BIT_1" in p.read_text())
    text = path.read_text()
    path.write_text("\n".join(reverse_concat(ln) if "data <= {" in ln else ln
                              for ln in text.split("\n")))


def m3_one_edge_short(out):
    """tb.v's flush loop waits one clock edge fewer than the stages."""
    text = (out / "tb.v").read_text()
    (out / "tb.v").write_text(re.sub(r"i < (\d+);", lambda m: f"i < {int(m[1]) - 1};", text))


@pytest.mark.parametrize("mutant", [m1_address_in_source_order, m2_data_bits_ascending,
                                    m3_one_edge_short], ids=["M1", "M2", "M3"])
@pytest.mark.parametrize("bundle", list(BUNDLES))
def test_mutants_are_flagged(bundles, tmp_path, bundle, mutant):
    out = tmp_path / "rtl"
    shutil.copytree(bundles[bundle], out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    mutant(out)
    assert {p.name: p.read_bytes() for p in out.iterdir()} != before
    mismatches, problems = replay(out)
    assert mismatches > 0
    if mutant is m3_one_edge_short:
        assert problems == [f"tb.v waits {len(BUNDLES[bundle][2]) - 1} clock edges for "
                            f"top.v's {len(BUNDLES[bundle][2])} stages"]
