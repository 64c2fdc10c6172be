#!/usr/bin/env python3
"""Fast self-check of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/selfcheck.py

Asserts that ``--trace 0`` emits exactly the end-to-end metrics of
``BENCHMARK.json`` and ``--trace 1`` exactly the per-layer ones, each with
its unit, and that a deliberately corrupted forecast trips the output
check.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench import run  # noqa: E402


def tiny_config() -> dict:
    cfg = json.loads((HERE / "config.json").read_text())
    cfg["setup_repeats"] = 2
    cfg["train"].update(steps=4, val_every=2, eval_batches=1, target_mae=1e9)
    serve = cfg["serve"]
    serve.update(warmup_s=0.2, segments=2, check_share=1.0)
    for mix in serve["mixes"].values():
        mix.update(nominal_rps=40, ladder_rps=[60])
    return cfg


def emitted(workload: str, trace: int, cfg: dict) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)], cfg
        )
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def main() -> int:
    if not run._load_repro():
        print("selfcheck: no program sources", file=sys.stderr)
        return 2
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    cfg = tiny_config()
    failures = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for workload in cfg["workloads"]:
            code, result = emitted(workload, trace, cfg)
            wanted = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if code != 0 or not result["correct"]:
                failures.append(f"{workload} trace {trace}: exit {code}, {result['correct']=}")
            if got != wanted:
                differ = sorted(set(got.items()) ^ set(wanted.items()))
                failures.append(f"{workload} trace {trace}: metrics/units differ: {differ}")
            if trace:
                break  # one traced workload covers every per-layer name

    one_per_mix = {spec["serve"]: name for name, spec in cfg["workloads"].items()}
    for workload in one_per_mix.values():
        result = run.run_pass(
            copy.deepcopy(cfg), workload, 1, 1.0, traced=False, corrupt=lambda f: f + 1e-3
        )
        if not result.failed or not any("differs" in p for p in result.problems):
            failures.append(f"{workload}: a corrupted forecast passed the output check")

    for failure in failures:
        print(f"selfcheck FAILED: {failure}")
    print("selfcheck ok" if not failures else f"selfcheck: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
