"""Golden artifacts: the bytes of every file compile and emit write for a
fixed netlist.  The tables are integers drawn from a seeded generator
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


def golden_netlist():
    spec = NetworkSpec(layer_widths=[4, 3, 2], beta=2, fan_in=2, degree=2,
                       input_count=3, input_beta=3, input_fan_in=3, seed=5)
    model = init_model(spec)
    rng = np.random.default_rng(np.random.PCG64(11))
    tables = [
        [TruthTable(input_bits=spec.table_address_bits(layer), output_bits=spec.beta,
                    entries=rng.integers(0, 1 << spec.beta,
                                         size=1 << spec.table_address_bits(layer)))
         for _ in range(width)]
        for layer, width in enumerate(spec.layer_widths)
    ]
    return tables, build_netlist(model, tables)


def test_artifacts_match_golden_digests(tmp_path):
    tables, net = golden_netlist()
    dump_tables(tables, tmp_path / "net")
    save_netlist(net, tmp_path / "net")
    write_bundle(emit_bundle(net), tmp_path / "rtl")
    got = {f"{p.parent.name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.glob("*/*"))}
    assert got == GOLDEN_SHA256
