#!/usr/bin/env python3
"""Record what training produces at each seed into baseline.json.

    python3 perfbench/record_training.py --workload hdr-train --seeds 0-99,7919

Runs the workload's `lutc train` command once per seed, in this process,
and stores the first epoch's and the last epoch's train loss and the final
test accuracy of its history under baseline.json's "training" ->
workload -> seed.  run.py judges training passes against these figures
(see run.RECORDED).  Re-record only when a change alters training on
purpose, and say so.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 0-99,7919")
    args = p.parse_args()

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run
    import spread

    run.cap_threads()  # before numpy loads
    import lutc.cli
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    figures = {}
    for seed in spread.parse_seeds(args.seeds):
        work = ROOT / ".bench_work"
        work.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            inputs, out = Path(tmp) / "inputs", Path(tmp) / "pass"
            inputs.mkdir()
            workload.setup(inputs, seed)
            stage, argv = workload.commands(inputs, out, seed)[0]
            assert stage == "train", f"{workload.name} does not train"
            with contextlib.redirect_stdout(io.StringIO()):
                rc = lutc.cli.main([str(a) for a in argv])
            if rc != 0:
                print(f"seed {seed}: lutc train exited {rc}", file=sys.stderr)
                return 1
            h = run.read_history(out / workloads.RUN_DIR / "history.csv")
        figures[str(seed)] = {k: h[k] for k in ("first_train_loss", "train_loss",
                                                "test_accuracy")}
        print(f"seed {seed}: {figures[str(seed)]}", flush=True)

    path = HERE / "baseline.json"
    baseline = json.loads(path.read_text(encoding="utf-8"))
    baseline.setdefault("training", {}).setdefault(workload.name, {}).update(figures)
    path.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
