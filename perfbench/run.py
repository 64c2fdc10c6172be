#!/usr/bin/env python3
"""The repo benchmark: ST-WA time-to-accuracy and fleet-served latency.

Run from the repository root::

    python3 perfbench/run.py --workload serial-live --seed 1 --seconds 10 --trace 0

Every workload runs two phases in one process:

1. **train** — ST-WA on PEMS08-sim through ``Trainer.fit()`` with the serial
   or the 2-worker pooled executor, for a fixed step budget, validating
   every fixed number of steps (``perfbench/train.py``);
2. **serve** — two tenants behind ``FleetRouter`` under open-loop Poisson
   load, live or ad-hoc traffic, first at the nominal rate and then up the
   rate ladder (``perfbench/serve.py``).

Workload names are ``<executor>-<traffic>``.  ``perfbench/config.json`` fixes
the target MAE, step budget, rates, ladders and the p99 limit;
``perfbench/predictions.json`` records which end-to-end metric each layer
metric should move, and on which workload.

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``.
``--trace 1`` runs the workload once untraced and once traced, prints every
per-layer metric (the traced pass) and the tracing overhead (traced minus
untraced, per end-to-end metric), and writes the spans as JSONL under
``.perfbench/``.  The last line of standard output is the JSON result.  The
exit code is 1 when an output check fails, 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def _load_repro() -> bool:
    """Import the program from this checkout's ``src/`` only."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(ROOT / "src"))
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    return True


@dataclass
class PassResult:
    """One full workload pass, as ``main`` reports it."""

    e2e: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str]
    layers: Dict[str, float]  # traced pass only
    tracer: object  # traced pass only
    val_mae: List[float]
    rungs: List[Dict]


def run_pass(
    cfg: Dict, workload: str, seed: int, seconds: float, traced: bool, corrupt=None
) -> PassResult:
    """Train, then serve; ``corrupt`` alters every served forecast before the checks."""
    from perfbench import serve as serve_phase
    from perfbench import train as train_phase
    from perfbench.host import TreeMemory
    from perfbench.trace import Tracer

    spec = cfg["workloads"][workload]
    tracer = Tracer() if traced else None
    layers: Dict[str, float] = {}
    gc.collect()
    with TreeMemory() as memory:
        train_setups = []
        for _ in range(cfg["setup_repeats"]):
            trainer, timing = train_phase.build_trainer(cfg["train"], spec["train"], seed)
            train_setups.append(timing)
        allocs = train_phase.instrument(tracer, trainer, spec["train"]) if traced else None
        try:
            run = train_phase.train(trainer, cfg["train"])
        finally:
            if traced:
                train_phase.uninstrument(tracer)
        if traced:
            layers.update(train_phase.layer_metrics(tracer, run, allocs, train_setups))
        del trainer
        gc.collect()

        probe = serve_phase.BatchProbe() if traced else None
        serve_setups = []
        deployment = None
        for _ in range(cfg["setup_repeats"]):
            if deployment is not None:
                deployment.close()
            start = time.perf_counter()
            deployment = serve_phase.deploy(cfg["serve"], seed, sink=probe)
            serve_setups.append(time.perf_counter() - start)
        executors = serve_phase.instrument(tracer, deployment, probe) if traced else None
        try:
            served = serve_phase.serve(
                deployment, cfg["serve"], spec["serve"], seed, seconds, corrupt
            )
        finally:
            if traced:
                tracer.restore()
            deployment.close()
        nominal = served.rungs[0]
        if traced:
            layers.update(
                serve_phase.layer_metrics(tracer, served, probe, executors, deployment.tenants)
            )
            for name in ("lag_p99_ms", "p90_ms", "p99_ms"):
                layers[("loadgen." if name.startswith("lag") else "serve.") + name] = nominal[name]
        peak_mb = memory.peak_mb()

    attempted, failed = run.attempted_failed(cfg["train"]["steps"])
    problems = list(served.problems)
    if run.error:
        problems.append(f"training: {run.error}")
    if run.tta_s is None:
        problems.append(f"training: target MAE {cfg['train']['target_mae']} not reached")
    e2e = {
        "setup_s": statistics.median(t["setup_s"] for t in train_setups)
        + statistics.median(serve_setups),
        **run.metrics(),
        **served.metrics(),
        "peak_rss_mb": peak_mb,
    }
    return PassResult(
        e2e,
        attempted + served.attempted,
        failed + served.failed,
        problems,
        layers,
        tracer,
        run.val_mae,
        served.rungs,
    )


def self_time_table(tracer) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total and self milliseconds."""
    from perfbench.trace import self_seconds

    own = self_seconds(tracer.spans)
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
    )
    for span in tracer.spans:
        row = table[span.name]
        row["calls"] += 1
        row["total_ms"] += 1e3 * span.seconds
        row["self_ms"] += 1e3 * own[span.span_id]
    return dict(table)


def main(argv: Optional[list] = None, cfg: Optional[Dict] = None) -> int:
    """CLI entry; ``cfg`` replaces ``perfbench/config.json`` (the self-check's tiny sizes)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not _load_repro():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench.host import fingerprint

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    cfg = cfg or json.loads((HERE / "config.json").read_text())
    if args.workload not in cfg["workloads"]:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(cfg['workloads'])}")
    host = fingerprint()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("host " + json.dumps(host, sort_keys=True))

    result = run_pass(cfg, args.workload, args.seed, args.seconds, traced=False)
    attempted, failed, problems = result.attempted, result.failed, list(result.problems)
    if args.trace:
        traced = run_pass(cfg, args.workload, args.seed, args.seconds, traced=True)
        attempted, failed = attempted + traced.attempted, failed + traced.failed
        problems += traced.problems
        layers = traced.layers
        for name, value in result.e2e.items():
            layers[f"trace.overhead.{name}"] = traced.e2e[name] - value
        table = self_time_table(traced.tracer)
        path = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        traced.tracer.write_jsonl(path)
        with open(path, "a") as handle:
            handle.write(json.dumps({"host": host, "self_time": table, "layers": layers}) + "\n")
        print("self time by span (traced pass):")
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_ms"]):
            print(
                f"  {name:34s} calls {row['calls']:7d}  total {row['total_ms']:10.1f} ms"
                f"  self {row['self_ms']:10.1f} ms"
            )
        print(f"spans written to {path.relative_to(ROOT)}")
        metrics, wanted = layers, bench["per_layer"]
    else:
        metrics, wanted = result.e2e, bench["end_to_end"]

    print(f"training val MAE by interval: {' '.join(f'{v:.1f}' for v in result.val_mae)}")
    for rung in result.rungs:
        print(
            "serve rung {rate_rps:g} req/s: ops {ops} failed {failed} p50 {p50_ms:.3f} ms "
            "p90 {p90_ms:.3f} ms p99 {p99_ms:.3f} ms lag_p99 {lag_p99_ms:.3f} ms "
            "lag_growth {lag_growth_ms:.3f} ms achieved {achieved_rps:.1f} req/s "
            "sustained {sustained}".format(**rung)
        )
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 1
    for metric in wanted:
        print(f"{metric['name']:44s} {metrics[metric['name']]:14.6g} {metric['unit']}")
    print(
        f"{'error_rate':44s} {failed / attempted:14.6g} "
        f"({failed} of {attempted} operations failed)"
    )
    for tail in ("p90_ms", "p99_ms"):
        print(f"{tail + ' (no bound)':44s} {result.rungs[0][tail]:14.6g} ms")
    print(f"latency sample count: {result.rungs[0]['forecasts']} forecasts at the nominal rate")
    for problem in problems[:20]:
        print(f"check failed: {problem}")

    correct = failed == 0 and not problems
    line = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
