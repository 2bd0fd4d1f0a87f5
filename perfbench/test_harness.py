"""Fast self-test of the benchmark harness, on a tiny spiral network.

    python3 -m pytest -q perfbench

Keeps the harness from rotting: the traced and untraced paths must
produce every metric BENCHMARK.json names, the checks must pass on a
healthy compile and catch a corrupt one, and the runner must refuse to
run where there is no lutc source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import lutc  # noqa: E402
import lutc.cli  # noqa: E402
import refcheck  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "profile": "spiral",
    "spec": {"layer_widths": [4, 2]},
    "dataset": {"kind": "spirals", "n_per_class": 40, "noise_sd": 0.05,
                "turns": 1.5, "seed": 1, "train_fraction": 0.8},
    "train": {"epochs": 3, "batch_size": 32},
}
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(tmp_path, trace: bool) -> dict:
    return run.run_benchmark(workloads.spiral_e2e(TINY), seed=3, seconds=0, trace=trace,
                             work=tmp_path / "work", record=tmp_path / "digests.jsonl",
                             nproc=1, reference=run.BASELINE["training"])


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    res = bench(tmp_path, trace=False)
    assert res["correct"], res["problems"]
    assert (res["attempted"], res["failed"]) == (6, 0)  # warm-up and one timed pass
    assert set(res["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(v > 0 for v in res["metrics"].values())
    assert res["checks"]["mismatches"] == 0 and res["checks"]["ref_disagree"] == 0


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    res = bench(tmp_path, trace=True)
    assert res["correct"], res["problems"]
    m = res["metrics"]
    assert set(m) == {x["name"] for x in BENCH["per_layer"]}
    for name in ("basis.expand.calls", "trainer.forward.calls", "model.neuron_eval.calls",
                 "tables.entries", "quantize.calls", "cli.cmd_train.s", "cli.cmd_compile.s",
                 "cli.cmd_emit.s", "rtl.emit_bundle.s", "data.gen_spirals.s"):
        assert m[name] > 0, name
    assert m["data.load_csv.s"] == 0  # never called on spiral
    # spans below cli.main, not its own argument parsing, hold the time
    assert 0.9 <= m["trace.covered_share"] <= 1.0
    assert m["tables.entries"] == 4 * 256 + 2 * 256


def test_failed_command_is_counted_and_reported(tmp_path):
    res = run.run_benchmark(workloads.spiral_e2e({"profile": "no-such-profile"}), seed=3,
                            seconds=0, trace=True, work=tmp_path / "work",
                            record=tmp_path / "digests.jsonl", nproc=1,
                            reference=run.BASELINE["training"])
    assert not res["correct"]
    # train fails in the warm-up; compile and emit have no input; nothing more runs
    assert (res["attempted"], res["failed"]) == (3, 3)
    assert set(res["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}


def test_rerun_of_a_seed_repeats_its_digests(tmp_path):
    first = bench(tmp_path, trace=False)
    second = bench(tmp_path, trace=False)
    assert second["correct"], second["problems"]
    assert first["digests"] == second["digests"]
    record = tmp_path / "r.jsonl"
    key = dict(workload="w", seed=1)
    assert run.check_repeatable(record, key, {"a": "1"})
    assert run.check_repeatable(record, key, {"a": "1"})
    assert not run.check_repeatable(record, key, {"a": "2"})


def test_training_must_match_the_record_at_recorded_seeds():
    ref = {"hdr-train": {"5": dict(first_train_loss=2.5, train_loss=2.5, test_accuracy=0.25)},
           "spiral-e2e": {"5": dict(first_train_loss=0.8, train_loss=0.5, test_accuracy=0.8)}}
    hdr = dict(ref["hdr-train"]["5"])
    assert run.training_problems("hdr-train", 5, hdr, ref) == []
    assert run.training_problems("hdr-train", 5, dict(hdr, first_train_loss=2.5001), ref) == []
    for bad in (dict(hdr, first_train_loss=2.49), dict(hdr, test_accuracy=0.3125),
                dict(hdr, train_loss=float("nan"))):
        assert run.training_problems("hdr-train", 5, bad, ref), bad
    # a seed without a record is judged on finite figures only
    assert run.training_problems("hdr-train", 6, dict(hdr, test_accuracy=0.0), ref) == []
    # spiral's final figures are chaotic in rounding, so only its first epoch counts
    spiral = dict(ref["spiral-e2e"]["5"])
    assert run.training_problems("spiral-e2e", 5, dict(spiral, test_accuracy=0.6), ref) == []
    assert run.training_problems("spiral-e2e", 5, dict(spiral, first_train_loss=0.9), ref)


def test_tracer_wraps_every_binding_and_restores_it():
    originals = (lutc.basis.expand, lutc.model.expand, lutc.trainer.expand, lutc.expand)
    with spans.Tracer() as tracer:
        wrapped = {lutc.basis.expand, lutc.model.expand, lutc.trainer.expand, lutc.expand}
        assert len(wrapped) == 1 and wrapped.isdisjoint(originals)
        lutc.model.expand(np.zeros((5, 2)), lutc.basis.enumerate_basis(2, 2))
    assert (lutc.basis.expand, lutc.model.expand, lutc.trainer.expand,
            lutc.expand) == originals
    summary = tracer.summary()
    assert summary.fn("basis.expand").calls == 1
    assert summary.fn("basis.enumerate_basis").calls == 1
    assert summary.fn("no.such_function").calls == 0


def test_reference_check_catches_a_nan_weight_that_equivalence_passes(tmp_path):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(TINY), encoding="utf-8")
    assert lutc.cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    with np.load(tmp_path / "run" / "checkpoint.npz") as z:
        arrays = {k: z[k] for k in z.files}
    # in the output layer: a NaN in a hidden layer makes compile raise instead
    arrays["w_1"] = arrays["w_1"].copy()
    arrays["w_1"][0, 1] = np.nan
    bad = tmp_path / "nan.npz"
    np.savez(bad, **arrays)
    assert lutc.cli.main(["compile", "--checkpoint", str(bad),
                          "--out", str(tmp_path / "net")]) == 0
    disagree, checked = refcheck.check_tables(bad, tmp_path / "net", seed=0)
    assert checked == 4 * 256 + 2 * 256
    assert disagree >= 256  # every entry of the poisoned neuron


def test_runner_refuses_a_directory_without_lutc(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spiral-e2e", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
