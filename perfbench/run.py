#!/usr/bin/env python3
"""lutc benchmark: run one workload through the lutc CLI and print its metrics.

    python3 perfbench/run.py --workload spiral-e2e --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports lutc from ./src.
One process, one client, closed loop: the workload's CLI commands run one
after another through `lutc.cli.main`, one untimed warm-up pass and then
pass after pass, while the next pass still fits in --seconds (at least
one pass).  Only the import time in setup_s is taken in short-lived
child interpreters.  BLAS and OpenMP threads are capped at the number of
usable cores.  Work files go to .bench_work/ and are removed at the end;
artifact digests are appended to .bench_runs/.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, timed with
tracing off.  Timings are in reference seconds: each pass's wall time is
scaled by the speed of a fixed reference kernel that does not use lutc,
timed just before and just after it (reference_kernel_s), so that drift
of the shared machine's speed cancels out; raw wall times are printed as
well.  --trace 1 runs the same untraced passes, then one more pass with
every public lutc function wrapped (see spans.py), and prints the
per-layer metrics.  Either way every pass is checked: each command must
exit 0, the netlist must match the model, sampled table entries must
match an independent reference (refcheck.py), training must match the
per-seed record in baseline.json (RECORDED), and artifact digests must
repeat across passes and across earlier runs of the same seed and source.
The last line of output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BASELINE = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
SETUP_REPEATS = 3
IMPORT_SAMPLES = 9  # fresh interpreters timed importing lutc, after one warm-up
# Training figures that must match the per-seed record in baseline.json
# (record_training.py) within RECORD_RTOL of it, at a recorded seed.  The
# first epoch is a few Adam steps: reordering float ops in the optimizer,
# in backward or in basis.expand changed its loss by at most the last bit
# at every seed tried, while skipping updates or breaking a gradient
# changed it.  Later epochs amplify rounding (one reordering moved single
# seeds' final spiral accuracy by up to 0.2 either way), so only
# hdr-train, which trains for one epoch, checks its final accuracy.
RECORDED = {
    "hdr-train": ("first_train_loss", "test_accuracy"),
    "spiral-e2e": ("first_train_loss",),
}
RECORD_RTOL = 1e-3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Median time of reference_kernel_s() on the machine where baseline.json
# was recorded: a time t measured while the kernel takes r seconds is
# reported as t * REFERENCE_S / r, in reference seconds.
REFERENCE_S = BASELINE["reference_kernel_s"]


def cap_threads() -> int:
    """Limit BLAS/OpenMP threads to the usable cores; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


# ---------------------------------------------------------------------------
# One pass: the workload's commands, then checks on what they wrote


def reference_kernel_s() -> float:
    """Wall time of a fixed piece of work that does not use lutc.

    On the shared machines the benchmark runs on, speed drifts by 20% and
    more over minutes, and moves every timing of a run together; comparing
    a pass with this kernel, timed next to it, cancels that drift.  The
    kernel mixes the kinds of work lutc's passes do, because the drift
    does not slow them alike: interpreted string formatting and dict
    updates (as in RTL emission), monomial products on small arrays, where
    the cost is numpy's per-call overhead (as in spiral's training
    batches), and the same products with exponent arrays on an array of
    160k entries, where the cost is `pow` itself (as in hdr's backward and
    in tabulation).
    """
    import numpy as np

    t = time.perf_counter()
    rng = np.random.default_rng(12345)
    lines, fanin = [], {}
    for i in range(40000):
        lines.append(f"    assign n{i} = t{i % 37}[{i & 1023:#06x}] ^ r{i % 5};")
        fanin[i % 997] = fanin.get(i % 997, 0) + len(lines[-1])
    "\n".join(lines).encode()
    exps = rng.integers(0, 5, size=(210, 6))
    x = rng.uniform(-1.0, 1.0, size=(16, 6))
    for _ in range(500):
        y = np.ones((16, 35))
        for j in range(6):
            y *= x[:, j:j + 1] ** exps[:35, j]
        x = np.tanh(y @ rng.standard_normal((35, 6)) * 0.1)
    xg = rng.uniform(-1.0, 1.0, size=(16, 48, 6))
    for _ in range(2):
        m = np.ones((16, 48, 210))
        for j in range(6):
            m *= xg[..., j:j + 1] ** exps[:, j]
        xg = np.tanh(m @ rng.standard_normal((210, 6)) * 0.05)
    return time.perf_counter() - t


@dataclass
class Pass:
    stage_s: dict = field(default_factory=dict)  # stage -> wall seconds
    ref_s: float = 0.0  # mean reference kernel time just before and after the pass
    attempted: int = 0
    failed: int = 0
    info: dict = field(default_factory=dict)  # what the outputs say
    problems: list = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return sum(self.stage_s.values())

    @property
    def total_ref_s(self) -> float:
        return self.total_s * REFERENCE_S / self.ref_s


def call_cli(argv: list, log) -> int:
    import lutc.cli

    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        try:
            return lutc.cli.main([str(a) for a in argv])
        except SystemExit as e:
            return e.code if isinstance(e.code, int) else 1
        except Exception:  # a crash is a failed command, not a dead benchmark
            traceback.print_exc(file=log)
            return 1


def run_pass(workload, inputs: Path, out: Path, seed: int, tracer=None) -> Pass:
    """Run the workload's commands once (traced only while they run), then
    check what they wrote."""
    out.mkdir(parents=True)
    result = Pass()
    commands = workload.commands(inputs, out, seed)
    with open(out / "cli.log", "w", encoding="utf-8") as log, \
            tracer if tracer is not None else contextlib.nullcontext():
        for stage, argv in commands:
            result.attempted += 1
            if result.failed:  # a command after a failed one has no input
                result.failed += 1
                continue
            t = time.perf_counter()
            rc = call_cli(argv, log)
            result.stage_s[stage] = time.perf_counter() - t
            if rc != 0:
                result.failed += 1
                result.problems.append(f"lutc {stage} exited {rc}")
    if result.failed:
        sys.stderr.write((out / "cli.log").read_text(encoding="utf-8")[-4000:])
        return result
    try:
        inspect_outputs(result, commands, out, seed)
    except (OSError, ValueError, KeyError, IndexError, StopIteration) as e:
        result.problems.append(f"outputs could not be checked: {e!r}")
    return result


def _file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _checkpoint_sha256(path: Path) -> str:
    """Digest of the arrays in an .npz; the zip container itself records
    write times, so its bytes differ between identical saves."""
    import numpy as np

    h = hashlib.sha256()
    with np.load(path) as z:
        for key in sorted(z.files):
            a = np.ascontiguousarray(z[key])
            h.update(f"{key} {a.dtype.str} {a.shape}\n".encode())
            h.update(a.tobytes())
    return h.hexdigest()


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def read_history(path: Path) -> dict:
    """The figures of `lutc train`'s history.csv that training is judged by."""
    with open(path, encoding="utf-8") as f:
        rows = [line.split(",") for line in f.read().strip().splitlines()[1:]]
    return dict(epochs=len(rows), first_train_loss=float(rows[0][2]),
                train_loss=float(rows[-1][2]), test_accuracy=float(rows[-1][3]))


def inspect_outputs(result: Pass, commands: list, out: Path, seed: int) -> None:
    import refcheck
    from workloads import NET_DIR, RTL_DIR, RUN_DIR

    info, digests = result.info, {}
    run, net, rtl = out / RUN_DIR, out / NET_DIR, out / RTL_DIR
    info["output_bytes"] = sum(_dir_bytes(d) for d in (run, net, rtl) if d.is_dir())
    if run.is_dir():
        info.update(read_history(run / "history.csv"))
    if net.is_dir():
        report = dict(line.rsplit(":", 1) for line in
                      (net / "report.txt").read_text(encoding="utf-8").splitlines()
                      if line.startswith(("equivalence vectors checked:", "mismatches:")))
        info["vectors"] = int(report["equivalence vectors checked"])
        info["mismatches"] = int(report["mismatches"])
        with open(net / "report.csv", encoding="utf-8") as f:
            info["est_luts"] = int(f.read().strip().splitlines()[-1].split(",")[1])
        info["artifact_bytes"] = _dir_bytes(net)
        compile_argv = next(a for stage, a in commands if stage == "compile")
        checkpoint = Path(compile_argv[compile_argv.index("--checkpoint") + 1])
        digests["checkpoint"] = _checkpoint_sha256(checkpoint)
        info["ref_disagree"], info["ref_checked"] = refcheck.check_tables(checkpoint, net, seed)
        for p in sorted(net.iterdir()):
            if p.name.startswith("layer") or p.name == "netlist.json":
                digests[p.name] = _file_sha256(p)
        if info["mismatches"]:
            result.problems.append(f"{info['mismatches']} equivalence mismatches")
        if info["ref_disagree"]:
            result.problems.append(f"{info['ref_disagree']} of {info['ref_checked']} "
                                   "table entries disagree with the reference")
    elif run.is_dir():
        digests["checkpoint"] = _checkpoint_sha256(run / "checkpoint.npz")
    if rtl.is_dir():
        info["rtl_bytes"] = _dir_bytes(rtl)
        digests["manifest.txt"] = _file_sha256(rtl / "manifest.txt")
    info["digests"] = digests


# ---------------------------------------------------------------------------
# Records: environment and cross-run determinism


def source_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(directory.rglob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode() + b"\n")
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def environment(nproc: int, seed: int) -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():  # never report the commit of an enclosing repository
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                    capture_output=True, text=True).stdout.strip() or None
    blas = {}
    with contextlib.suppress(Exception):  # show_config's layout varies by version
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return dict(nproc=nproc, python=platform.python_version(), numpy=np.__version__,
                blas={k: blas.get(k) for k in ("name", "version", "openblas configuration")},
                threads={v: os.environ.get(v) for v in THREAD_VARS},
                git_commit=commit, source=source_digest(ROOT / "src" / "lutc"),
                bench=source_digest(HERE), seed=seed,
                machine=platform.machine())


def check_repeatable(record: Path, key: dict, digests: dict) -> bool:
    """Append this run's digests; False if an earlier run with the same key
    (workload, seed, lutc source, benchmark source) recorded different ones."""
    same = True
    if record.exists():
        for line in record.read_text(encoding="utf-8").splitlines():
            entry = json.loads(line)
            if all(entry.get(k) == v for k, v in key.items()):
                same = same and entry["digests"] == digests
    record.parent.mkdir(parents=True, exist_ok=True)
    with open(record, "a", encoding="utf-8") as f:
        f.write(json.dumps(dict(key, digests=digests), sort_keys=True) + "\n")
    return same


def import_time_s() -> float:
    """Median time a fresh interpreter takes to import lutc.cli (numpy
    included), over IMPORT_SAMPLES interpreters after one warm-up.  One
    cold in-process import is too noisy to compare between runs."""
    code = ("import time; t = time.perf_counter(); import lutc.cli; "
            "print(time.perf_counter() - t, lutc.__file__)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(IMPORT_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        seconds, path = proc.stdout.split()
        if Path(path).resolve().parent != ROOT / "src" / "lutc":
            raise RuntimeError(f"a fresh interpreter imported lutc from {path}")
        times.append(float(seconds))
    return statistics.median(times[1:])


def training_problems(name: str, seed: int, info: dict, reference: dict) -> list:
    """What is wrong with a pass's training: figures that are not finite,
    or that differ from `reference` (workload -> seed -> recorded figures)
    where RECORDED says they must match."""
    figures = {k: info[k] for k in ("first_train_loss", "train_loss", "test_accuracy")
               if k in info}
    if not all(map(math.isfinite, figures.values())):
        return [f"non-finite training figures: {figures}"]
    ref = reference.get(name, {}).get(str(seed), {})
    return [f"{k} {figures[k]!r} differs from the {ref[k]!r} recorded for seed {seed}"
            for k in RECORDED.get(name, ()) if k in figures and k in ref
            and abs(figures[k] - ref[k]) > RECORD_RTOL * abs(ref[k])]


# ---------------------------------------------------------------------------
# Metrics


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(passes: list, setup_s: float) -> dict:
    return {
        "total_ref_s": _median(p.total_ref_s for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "output_mb": _median(p.info.get("output_bytes") for p in passes) / 1e6,
    }


def per_layer_metrics(names: list, summary, traced: Pass, untraced: list) -> dict:
    """Per-layer metrics by name.  `module.function.kind` (kind s, self_s or
    calls) reads the trace of that function; the rest are derived below."""

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    fn, c, info = summary.fn, summary.counters, traced.info
    quant = [fn(f"quantize.{f}") for f in ("quantize", "dequantize", "encode_bits",
                                           "decode_bits")]
    every = untraced + [traced]
    derived = {
        "quantize.s": sum(st.s for st in quant),
        "quantize.calls": sum(st.calls for st in quant),
        "trainer.rows_per_s": rate(c.get("trainer.rows", 0), fn("trainer.train").s),
        "tables.entries": c.get("tables.entries", 0),
        "tables.entries_per_s": rate(c.get("tables.entries", 0),
                                     fn("tables.tabulate_model").s),
        "netlist.simulate.rows_per_s": rate(c.get("netlist.simulate.rows", 0),
                                            fn("netlist.simulate").s),
        "trainer.test_accuracy": info.get("test_accuracy", 0.0),
        "netlist.est_luts": info.get("est_luts", 0),
        "netlist.mismatch_rate": rate(info.get("mismatches", 0), info.get("vectors", 0)),
        "tables.ref_disagree_rate": rate(info.get("ref_disagree", 0),
                                         info.get("ref_checked", 0)),
        "cli.artifact_mb": info.get("artifact_bytes", 0) / 1e6,
        "rtl.rtl_mb": info.get("rtl_bytes", 0) / 1e6,
        "cli.cmd_fail_rate": rate(sum(p.failed for p in every),
                                  sum(p.attempted for p in every)),
        "trace.total_s": traced.total_s,
        "trace.overhead_s": traced.total_s - _median(p.total_s for p in untraced),
        "trace.covered_share": rate(summary.covered_s - fn("cli.main").self_s,
                                    traced.total_s),
        "trace.spans": summary.n_spans,
    }
    derived.update({f"{layer}.self_s": s for layer, s in summary.module_self_s.items()})
    metrics = {}
    for name in names:
        function, kind = name.rsplit(".", 1)
        if name.count(".") == 2 and kind in ("s", "self_s", "calls"):
            metrics[name] = getattr(fn(function), kind)
        else:
            metrics[name] = derived[name]
    return metrics


# ---------------------------------------------------------------------------


def run_benchmark(workload, seed: int, seconds: float, trace: bool, work: Path,
                  record: Path, nproc: int, reference: dict) -> dict:
    """Set up, measure and check one workload in `work`, appending its
    artifact digests to `record` and judging training against `reference`
    (see training_problems); returns the result object with the metrics
    BENCHMARK.json lists."""
    import spans

    # the reference kernel runs before set-up, after it and after each pass
    ref = [reference_kernel_s()]
    import_s = import_time_s()
    inputs = work / "inputs"
    setup_times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        t = time.perf_counter()
        workload.setup(inputs, seed)
        setup_times.append(time.perf_counter() - t)
    ref.append(reference_kernel_s())
    setup_wall_s = import_s + statistics.median(setup_times)
    setup_s = setup_wall_s * REFERENCE_S / ((ref[0] + ref[1]) / 2)

    # one warm-up pass, checked but not timed (a run's first pass is often
    # slower), then pass after pass while the next one, as long as the
    # last, fits in `seconds`
    warmup = run_pass(workload, inputs, work / "warmup", seed)
    shutil.rmtree(work / "warmup")
    ref.append(reference_kernel_s())
    warmup.ref_s = (ref[-2] + ref[-1]) / 2
    passes: list[Pass] = []
    start = last = time.perf_counter()
    while not warmup.failed and (
            not passes or 2 * time.perf_counter() - last - start <= seconds):
        last = time.perf_counter()
        out = work / f"pass{len(passes)}"
        passes.append(run_pass(workload, inputs, out, seed))
        shutil.rmtree(out)
        ref.append(reference_kernel_s())
        passes[-1].ref_s = (ref[-2] + ref[-1]) / 2
        if passes[-1].failed:
            break
    timed = passes or [warmup]  # a failed warm-up is all there is to report

    summary = traced = None
    if trace and not timed[-1].failed:
        tracer = spans.Tracer()
        traced = run_pass(workload, inputs, work / "traced", seed, tracer)
        shutil.rmtree(work / "traced")
        summary = tracer.summary()

    every = [warmup] + passes + ([traced] if traced else [])
    problems = [p for ps in every for p in ps.problems]
    problems += sorted({p for ps in every
                        for p in training_problems(workload.name, seed, ps.info, reference)})
    digests = [ps.info["digests"] for ps in every if "digests" in ps.info]
    if any(d != digests[0] for d in digests):
        problems.append("artifact digests differ between passes of this run")
    env = environment(nproc, seed)
    key = dict(workload=workload.name, seed=seed, source=env["source"], bench=env["bench"])
    if digests and not check_repeatable(record, key, digests[0]):
        problems.append("artifact digests differ from an earlier run of this seed and source")

    if summary is not None:
        metrics = per_layer_metrics([m["name"] for m in BENCH["per_layer"]],
                                    summary, traced, timed)
    else:
        metrics = end_to_end_metrics(timed, setup_s)
    return dict(
        correct=not problems,
        attempted=sum(p.attempted for p in every),
        failed=sum(p.failed for p in every),
        metrics=metrics,
        problems=problems,
        warmup_s=warmup.total_s,
        passes=[p.total_s for p in timed],
        reference_s=ref,
        total_wall_s=_median(p.total_s for p in timed),
        stage_s={stage: _median(p.stage_s.get(stage) for p in timed)
                 for stage in timed[0].stage_s},
        setup_runs_s=setup_times,
        import_s=import_s,
        setup_wall_s=setup_wall_s,
        digests=digests[0] if digests else {},
        checks={k: v for k, v in timed[0].info.items() if k != "digests"},
        env=env,
    )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: workloads.DEFAULT_SEED)")
    p.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "lutc" / "__init__.py").is_file():
        print(f"error: no lutc source at {ROOT / 'src' / 'lutc'}", file=sys.stderr)
        return 2
    nproc = cap_threads()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import lutc.cli  # noqa: F401  (imports the whole pipeline)
    import workloads

    if Path(lutc.__file__).resolve().parent != ROOT / "src" / "lutc":
        print(f"error: imported lutc from {lutc.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    kind = "per_layer" if args.trace else "end_to_end"

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        res = run_benchmark(workloads.WORKLOADS[args.workload], seed, args.seconds,
                            bool(args.trace), work, ROOT / ".bench_runs" / "digests.jsonl",
                            nproc, BASELINE["training"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]}
               for m in BENCH[kind]}
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']!r} {m['unit']}")
    for key in ("warmup_s", "passes", "reference_s", "total_wall_s", "stage_s", "import_s",
                "setup_runs_s", "setup_wall_s", "checks", "digests", "env"):
        print(f"{key} {json.dumps(res[key], sort_keys=True)}")
    for problem in res["problems"]:
        print(f"problem: {problem}")
    print(json.dumps(dict(correct=res["correct"], attempted=res["attempted"],
                          failed=res["failed"], metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
