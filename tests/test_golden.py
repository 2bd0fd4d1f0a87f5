"""Golden artifacts: the bytes of every file compile and emit write for
fixed netlists, and the arrays and history that training writes.

The netlist tables are integers drawn from a seeded generator (no
floating point), wired by the masks of a small `init_model`, so their
digests change only when a file format or the emission changes.  The
training digests pin the float64 arithmetic of the training loop: they
change when that arithmetic changes, on purpose or not (a numpy build
whose elementwise kernels round differently moves them too)."""

import hashlib

import numpy as np

from lutc.data import Dataset, gen_spirals, split_normalize
from lutc.model import NetworkSpec, init_model, save_checkpoint, spec_from_profile
from lutc.netlist import build_netlist, save_netlist
from lutc.rtl import emit_bundle
from lutc.trainer import TrainConfig, train, write_history_csv

GOLDEN_SHA256 = {
    "net/layer0_tables.txt": "1ed5a7c0e6f034a2e599b51e3f304dc71e0c0874480745d7c2068daaa8f876dc",
    "net/layer1_tables.txt": "e2c7eb49acf9fa96bccd7bd984af440202ce0aeb3d9e5f10219c87a09e23a245",
    "net/layer2_tables.txt": "2530e56ae2e86f72d60e8f125fab26be822657153da440b63f6b6017658a99d1",
    "net/netlist.json": "8a5025733c654cf6ca5c5fbbd279001235cda0d730588e7beb94d6029ec74662",
    "rtl/layer0_n0.v": "80baadd1a89ce149f8e48b5e18fb0f5b2b095d0c635d74bd577e417c78c49789",
    "rtl/layer0_n1.v": "7e056ffc3222574a76cea8f44a7df83d42d42ad7b39d1e86abb408abd187e1b5",
    "rtl/layer0_n2.v": "4af29b2b853dc46496db01c8d889a6511ee3c63759dfec3df3bf090d9bec398e",
    "rtl/layer0_n3.v": "182d01cfac075d31ff99b18bbc3d40da2c61fb229408185f1dd2648c5358a001",
    "rtl/layer1_n0.v": "be9a2b88a1cb155ad55674c9dcd8a361e870b02b2d5d88e890b479ca6484e186",
    "rtl/layer1_n1.v": "076ee9420572c3844f6c456ebb1e03f6114c4d9d67eb1bef70f024f7d15bb314",
    "rtl/layer1_n2.v": "f9801eadb9b35e6d5f6f554e08abfab00c404fce8e6037db7eef83cdb03fcafa",
    "rtl/layer2_n0.v": "ced61f7095690555aee279868fa0cb2af182d2466dd63471e18cd9508aa2f395",
    "rtl/layer2_n1.v": "754f6dabd14aa16d501eafe9cd28803abec01b7e67c0fb59298c4538b5e54a73",
    "rtl/manifest.txt": "20ea9761b1377819bd4c1e86a082f598de497a2b275e78d62ee8cbbc2cc65977",
    "rtl/tb.v": "7afbef6dca42bbc91d36500801025508b821b5583e9a65d917a970d926f19991",
    "rtl/top.v": "19b632395d23739886c202c7fa2e603f40ee7b25aa01552446e7ad505a01298d",
    "rtl/vectors.hex": "995bac5715004da96fbb30899e2871718907e718696a3bf307c7063b391b6c5e",
}


# 8-entry layer-0 tables (one short dump line and 2-digit constants per
# neuron), 5-bit codes (two hex digits in a dump, five constants in a ROM)
# and one constant table
NARROW_SHA256 = {
    "net/layer0_tables.txt": "0af4b9ff1e2f1662334429041b7a9f9509f6aa07191ca8e7fceaeaf938a54692",
    "net/layer1_tables.txt": "396709b830f114e626e1c8d3a75c4c72f3995b4560fe760d84d17e9dbbc79e72",
    "net/netlist.json": "11a9ad223ce4d21f2a40db9e85aeddfbc0b7f71c027f6ebabbbe5e68b42c9ec0",
    "rtl/layer0_n0.v": "e316e9c1a9eee49379ad64b7272d6a50a1c3945763f8282ac00bc5d3edac378d",
    "rtl/layer0_n1.v": "9c2a30b8f2a5d007821add47ea9949b634ad1240c690abc1e03ae19ff12c0efa",
    "rtl/layer0_n2.v": "eaa688c55ecde5fac48abea2416fc384700c27e848ba87c1b9757a93db4f7078",
    "rtl/layer1_n0.v": "28b4c4a69e1ccfc7b342db20c10a45323ac34618fc5e668e32a8bd6523bf0070",
    "rtl/layer1_n1.v": "e5857888c5a69b5073d461b6d3d2519b0f05ac0e1e7101a13b20b9ff39bbdb78",
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
    # one neuron's table at a time, in the order the digests were recorded with
    tables = [
        np.array([rng.integers(0, 1 << spec.beta, size=1 << spec.table_address_bits(layer))
                  for _ in range(width)], dtype=np.uint32)
        for layer, width in enumerate(spec.layer_widths)
    ]
    if constant is not None:
        layer, neuron, value = constant
        tables[layer][neuron] = value
    return build_netlist(model, tables)


def artifact_digests(net, out_dir):
    save_netlist(net, out_dir / "net")
    emit_bundle(net, out_dir / "rtl")
    return {f"{p.parent.name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*/*"))}


def test_artifacts_match_golden_digests(tmp_path):
    spec = NetworkSpec(layer_widths=[4, 3, 2], beta=2, fan_in=2, degree=2,
                       input_count=3, input_beta=3, input_fan_in=3, seed=5)
    assert artifact_digests(golden_netlist(spec, 11), tmp_path) == GOLDEN_SHA256


def test_narrow_artifacts_match_golden_digests(tmp_path):
    spec = NetworkSpec(layer_widths=[3, 2], beta=5, fan_in=2, degree=2,
                       input_count=2, input_beta=3, input_fan_in=1, seed=3)
    net = golden_netlist(spec, 13, constant=(0, 2, 0x1d))
    assert artifact_digests(net, tmp_path) == NARROW_SHA256


TRAINING_SHA256 = {
    "spiral/bn_0": "6635ebb3933a31bc4a0d923874338f30bf9a47be458017d8d546a0f88e52e19c",
    "spiral/bn_1": "1cc9606ee904c498fe965edbca505e9359266a2b3f0b6f412d649258315a9b2f",
    "spiral/bn_2": "a7fffd0d05e3f94a8a76146f48bfeac06c6a402ec1f00d03d751f5bcba59fb33",
    "spiral/bn_eps_0": "2222dc29f184b5ab32d3eb7e14b2f553a6cccc385196b15f5fb66a28435601b4",
    "spiral/bn_eps_1": "2222dc29f184b5ab32d3eb7e14b2f553a6cccc385196b15f5fb66a28435601b4",
    "spiral/bn_eps_2": "2222dc29f184b5ab32d3eb7e14b2f553a6cccc385196b15f5fb66a28435601b4",
    "spiral/clock_period_ns": "6bc9e4ed5b4f2e59dceda36bead138341ef830c057746b03e12f990de65f6098",
    "spiral/input_scale": "b145f8e08eba5c644267956f5511194399ec30b278320f82e58a46f226069a99",
    "spiral/layer_widths": "51c428c7bd0d01d915a114d5a2a45d1b74e6f4fc9667858821ebb86cdd470774",
    "spiral/mask_0": "3382115ec300a398f776a5ceab6ac1807cb1dd02ca78e579a71c189e6c5bf7ed",
    "spiral/mask_1": "f871080cd929d15196a3302dd83c703b5e8191efc8292612e338527fde1bac41",
    "spiral/mask_2": "20931ec34c3e0d938e5f486fcf1301cd9be0b285952bf260ea46e3f9c13c79c3",
    "spiral/scalars": "e8f0c081d18c19a003eda7d79182adb76eb56f7f180b9fae1eb303273b35f2fb",
    "spiral/scale_0": "2a5246ae6837c0d1e82edcd989bc2a0fb56f6fb23e11fa60f77fe22c783e158b",
    "spiral/scale_1": "7e629f8b5e1fb2312accb9321534b6294b73db2acee4fde8fb6db3e334d315e5",
    "spiral/scale_2": "dff094de8f0f8c121873aef5981ae810184fb0e53382f59bedfa3661b8d857ca",
    "spiral/version": "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8",
    "spiral/w_0": "8428fdd476d4311f9689aeb365650a1d49b4f761a4abe5cd8d5f2e79f36e2660",
    "spiral/w_1": "2016e8a3cb79ad517b7ea79cbfd23ea47b6ea9be0137a2680084b5f0671f9df3",
    "spiral/w_2": "96a2198491c91dbddfc07a2b512b415ddc64b95c5f13abdd0ed6ff0a58ff1dd0",
    "spiral/history.csv": "b62236daf850e68790282d66a9e1e4ca39bb044de528773e765d644df805c222",
    "wide/bn_0": "ce54e4de5b557193bbf298354bdda5b56920d190f24b507e764967f5afacf360",
    "wide/bn_1": "1adf87d81fce946d7cf412543708b45a7ca7cf98f3618a508a9257a688864685",
    "wide/bn_eps_0": "2222dc29f184b5ab32d3eb7e14b2f553a6cccc385196b15f5fb66a28435601b4",
    "wide/bn_eps_1": "2222dc29f184b5ab32d3eb7e14b2f553a6cccc385196b15f5fb66a28435601b4",
    "wide/clock_period_ns": "6bc9e4ed5b4f2e59dceda36bead138341ef830c057746b03e12f990de65f6098",
    "wide/input_scale": "9327e29fb26cdc73f5247fe463c0a619d7da9fa1a20ad5dbd8f555090f1a21d6",
    "wide/layer_widths": "000367f9a7226af1f7d0403e18cc78b03b0909100524f9cdc4246b9495e637c8",
    "wide/mask_0": "1d18e19463714d1fb10c513e0251cd0219fd4f1c400388842fd58643ad3d3575",
    "wide/mask_1": "f190072c5052f4f440d4a607c25f5bced487c420806c9aab4ca5b0653e72da61",
    "wide/scalars": "55538bacd9c352984831baf26a5c7e14e59f34125dbe3a8bcb509e1773af80ca",
    "wide/scale_0": "65497de942a0bf1e92d2ae31c4f4ff4e0f63a759a42dc3ce936cc845afb6444f",
    "wide/scale_1": "e6a7b9b41bb156eebd3ce1ae6eb0993c6905b597ad55f207d7d36286758b2d4a",
    "wide/version": "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8",
    "wide/w_0": "1a74ef7d582a36c65898c8d9caa0093dbed1553a800f4a7a8c20c08acf36f1af",
    "wide/w_1": "487797109c4f8615cbd157dd87f8aab8e2209c1ab1e8f0b63d0c1eba607c0bf7",
    "wide/history.csv": "6a74e42398498b3fbd032f32693c94a6d203894eed477b2538d62b9fa588c317",
}


def training_digests(model, train_ds, test_ds, config, out_dir):
    """SHA-256 of every checkpoint array (the .npz container stores write
    times) and of history.csv after training."""
    trained, history = train(model, train_ds, test_ds, config)
    save_checkpoint(trained, out_dir / "checkpoint.npz")
    write_history_csv(history, out_dir / "history.csv")
    with np.load(out_dir / "checkpoint.npz") as z:
        out = {k: hashlib.sha256(np.ascontiguousarray(z[k]).tobytes()).hexdigest()
               for k in sorted(z.files)}
    out["history.csv"] = hashlib.sha256((out_dir / "history.csv").read_bytes()).hexdigest()
    return out


def training_runs(tmp_path):
    # the spiral profile on its two-spirals data, three epochs of 7 batches
    tr, te = split_normalize(gen_spirals(500, noise_sd=0.08, turns=1.75, seed=1), 0.8,
                             seed=1)
    spiral = init_model(spec_from_profile("spiral", seed=1))
    (tmp_path / "spiral").mkdir()
    got = {"spiral/" + k: v for k, v in training_digests(
        spiral, tr, te, TrainConfig(epochs=3, restart_period=2, seed=1),
        tmp_path / "spiral").items()}

    # degree 4 over fan-in 6 (210 monomials), one output column (binary loss)
    rng = np.random.default_rng(np.random.PCG64(5))
    x = rng.uniform(-1.0, 1.0, size=(48, 8))
    y = (x[:, 0] * x[:, 3] + x[:, 5] > 0).astype(np.int64)
    tr6, te6 = split_normalize(Dataset(x, y, 2), 0.75, seed=5)
    spec = NetworkSpec(layer_widths=[6, 1], beta=2, fan_in=6, degree=4,
                       input_count=8, input_beta=3, seed=5)
    (tmp_path / "wide").mkdir()
    got.update({"wide/" + k: v for k, v in training_digests(
        init_model(spec), tr6, te6,
        TrainConfig(epochs=2, batch_size=12, weight_decay=1e-2, seed=5),
        tmp_path / "wide").items()})
    return got


def test_training_matches_golden_digest(tmp_path):
    assert training_runs(tmp_path) == TRAINING_SHA256
