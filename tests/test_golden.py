"""Golden artifacts: the bytes of every file compile and emit write for
fixed netlists.  The tables are integers drawn from a seeded generator
(no floating point), wired by the masks of a small `init_model`, so the
digests below change only when a file format or the emission changes."""

import hashlib

import numpy as np

from lutc.model import NetworkSpec, init_model
from lutc.netlist import build_netlist, save_netlist
from lutc.rtl import emit_bundle, write_bundle
from lutc.tables import TruthTable, dump_tables

GOLDEN_SHA256 = {
    "net/layer0_tables.txt": "1ed5a7c0e6f034a2e599b51e3f304dc71e0c0874480745d7c2068daaa8f876dc",
    "net/layer1_tables.txt": "e2c7eb49acf9fa96bccd7bd984af440202ce0aeb3d9e5f10219c87a09e23a245",
    "net/layer2_tables.txt": "2530e56ae2e86f72d60e8f125fab26be822657153da440b63f6b6017658a99d1",
    "net/netlist.json": "ce2b1207b4c2b2c1dab72e1039fb3850a0f24854efb34718c4c9d9db835c7cf5",
    "rtl/layer0_n0.v": "5e6abaed5baf24907ef2778b8ab62dd9aac9728a533bfb0fc7e08c1924cba0e4",
    "rtl/layer0_n1.v": "52483a85ef7b36f2834e7cce2621892ab43b8734a9b00f30d07ebdd920ae6636",
    "rtl/layer0_n2.v": "25c568907a7a8f3ff323048b4f2bbec00974ed34dfd653c16e0c9ddaf79d9019",
    "rtl/layer0_n3.v": "450cc9c4550a9a6edef246c20b97e0ad323473b543eb3dce17a1eac7ea109971",
    "rtl/layer1_n0.v": "d204933dcaac15edc433704e20aeaa5683581cb1d90223200db20a585740b81d",
    "rtl/layer1_n1.v": "96e96116d737d09629f4bac2bfdec250082ef42bd7652db0b17581edac4422c1",
    "rtl/layer1_n2.v": "4a553a641fdd49b7c0234da10d6c1adff650c08f92aa317fdbe1a0cb0f925cdb",
    "rtl/layer2_n0.v": "41c4d30a5dad379bfac498bd67bede7d04d01c3b8f642017dd21b401d0fec456",
    "rtl/layer2_n1.v": "80907a9ebd7ef56ecd4b4383b33099524b885454938b32d13d6bb7a86de25646",
    "rtl/manifest.txt": "20ea9761b1377819bd4c1e86a082f598de497a2b275e78d62ee8cbbc2cc65977",
    "rtl/tb.v": "7afbef6dca42bbc91d36500801025508b821b5583e9a65d917a970d926f19991",
    "rtl/top.v": "19b632395d23739886c202c7fa2e603f40ee7b25aa01552446e7ad505a01298d",
    "rtl/vectors.hex": "995bac5715004da96fbb30899e2871718907e718696a3bf307c7063b391b6c5e",
}


# 8-entry layer-0 tables (one short dump line per neuron), 5-bit codes
# (two hex digits) and one constant table
NARROW_SHA256 = {
    "net/layer0_tables.txt": "0af4b9ff1e2f1662334429041b7a9f9509f6aa07191ca8e7fceaeaf938a54692",
    "net/layer1_tables.txt": "396709b830f114e626e1c8d3a75c4c72f3995b4560fe760d84d17e9dbbc79e72",
    "net/netlist.json": "545b7371e4d823967a1a7d5a72dee1ad6a8f29abbb9d752f3f842553ccf8a6db",
    "rtl/layer0_n0.v": "5bd2b4ed56532c16ba273b33a4e6f3515f03fa18ceef715253690c0a5789861e",
    "rtl/layer0_n1.v": "b8bb352aa83a74dfdc14c23f55d51f9e3948a9c97291f318201a771b0818b057",
    "rtl/layer0_n2.v": "ac6e66cbe6363c7dc04d3c2b39236d003cbfee1fe98045dcc303564506db88a1",
    "rtl/layer1_n0.v": "a9e202d01018cf5bf49dbc8897d68d3e97ab1cf979bd9eb6d819642ec9b670b6",
    "rtl/layer1_n1.v": "b959be59b46f980e065cefd879b66d8d53c73c85da599c2dbc00ea6e21b9543c",
    "rtl/manifest.txt": "344b791efdf7b9aecd8a445083b7153d03c47ec6fa0484d809f40c6d16392459",
    "rtl/tb.v": "eb7d67f104f4a7a0cbfdae92ca4f8741a47791c4e5be55fcfaea210cab2ac019",
    "rtl/top.v": "4f8d3498e4102bcc3342618f736e73ddd0e835ea8f644e88e27d976adccba14d",
    "rtl/vectors.hex": "fb0a7067b7502cd567549d2bbe1ba2b10f56ea14f0023ea56b4f85cf4a941528",
}


def golden_netlist(spec, seed, constant=None):
    """Seeded random tables for spec; constant=(layer, neuron, value) pins
    one table to a single value."""
    model = init_model(spec)
    rng = np.random.default_rng(np.random.PCG64(seed))
    tables = [
        [TruthTable(input_bits=spec.table_address_bits(layer), output_bits=spec.beta,
                    entries=rng.integers(0, 1 << spec.beta,
                                         size=1 << spec.table_address_bits(layer)))
         for _ in range(width)]
        for layer, width in enumerate(spec.layer_widths)
    ]
    if constant is not None:
        layer, neuron, value = constant
        tables[layer][neuron].entries[:] = value
    return tables, build_netlist(model, tables)


def artifact_digests(tables, net, out_dir):
    dump_tables(tables, out_dir / "net")
    save_netlist(net, out_dir / "net")
    write_bundle(emit_bundle(net), out_dir / "rtl")
    return {f"{p.parent.name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*/*"))}


def test_artifacts_match_golden_digests(tmp_path):
    spec = NetworkSpec(layer_widths=[4, 3, 2], beta=2, fan_in=2, degree=2,
                       input_count=3, input_beta=3, input_fan_in=3, seed=5)
    assert artifact_digests(*golden_netlist(spec, 11), tmp_path) == GOLDEN_SHA256


def test_narrow_artifacts_match_golden_digests(tmp_path):
    spec = NetworkSpec(layer_widths=[3, 2], beta=5, fan_in=2, degree=2,
                       input_count=2, input_beta=3, input_fan_in=1, seed=3)
    tables, net = golden_netlist(spec, 13, constant=(0, 2, 0x1d))
    assert artifact_digests(tables, net, tmp_path) == NARROW_SHA256
