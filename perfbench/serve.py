"""Serving phase: two tenants behind ``FleetRouter`` under open-loop load.

Tenants ``pems08-st-wa`` (ST-WA, N=10) and ``pems07-simst`` (SimST, N=53)
serve seeded-init artifacts through ``ServeConfig(executor=compiled)``; all
other settings are the defaults.  Each tenant's live stream replays its
dataset's test split one tick per ingest.

Traffic mixes:

* ``live`` — forecasts of the live window, with ingest ticks interleaved,
  so most forecasts are served from the prediction cache;
* ``adhoc`` — every forecast carries its own window (a test window plus
  seeded jitter), so none can be served from the cache.

Arrivals follow a seeded Poisson schedule.  At most ``nproc`` generator
threads send it; each takes the next due operation, sleeps until it is due,
and sends it.  Latency is timed from the due time, so a stall also delays
every operation queued behind it, and ``lag`` (send minus due) measures how
late the generator ran.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.baselines.registry import BuildSpec, build_from_spec
from repro.compile import CompiledExecutor
from repro.data import load_dataset
from repro.exec import ExecutorSpec, InferenceExecutor
from repro.fleet import FleetConfig, FleetRouter
from repro.obs import MetricsSink
from repro.serve import (
    ForecasterArtifact,
    MicroBatcher,
    PredictionCache,
    ServeConfig,
    ServingEngine,
    StreamStateStore,
)

from .trace import Tracer, mean_ms, select


@dataclass
class Tenant:
    """One deployed tenant plus the benchmark's record of its stream."""

    name: str
    dataset: object
    artifact: ForecasterArtifact
    #: data version -> the (N, F) tick ingested to produce it
    ticks: Dict[int, np.ndarray] = field(default_factory=dict)
    started: int = 0  # ingests sent
    done: int = 0  # ingests returned
    cursor: int = 0  # next test-split column to ingest
    lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def stream(self) -> np.ndarray:
        return self.dataset.test_raw

    def next_tick(self) -> np.ndarray:
        column = self.stream[:, self.cursor % self.stream.shape[1], :]
        self.cursor += 1
        return column

    def window_at(self, version: int, history: int) -> np.ndarray:
        return np.stack([self.ticks[v] for v in range(version - history + 1, version + 1)], axis=1)


@dataclass
class Deployment:
    router: FleetRouter
    tenants: Dict[str, Tenant]
    history: int

    def ingest(self, tenant: Tenant, values: np.ndarray) -> int:
        with tenant.lock:
            tenant.started += 1
        version = self.router.ingest(tenant.name, values)
        tenant.ticks[version] = values
        with tenant.lock:
            tenant.done += 1
        return version

    def close(self) -> None:
        self.router.close()


def deploy(cfg: Dict, seed: int, sink: Optional[MetricsSink] = None) -> Deployment:
    """Build both tenants' artifacts and the router; prime and warm them."""
    router = FleetRouter(
        FleetConfig(serve=ServeConfig(executor=ExecutorSpec.compiled()), sink=sink)
    )
    history, horizon = cfg["history"], cfg["horizon"]
    deployment = Deployment(router, {}, history)
    for name, spec in cfg["tenants"].items():
        dataset = load_dataset(spec["dataset"], spec["profile"])
        model = build_from_spec(
            spec["model"], BuildSpec(dataset=dataset, history=history, horizon=horizon, seed=seed)
        )
        artifact = ForecasterArtifact(
            model, scaler=dataset.scaler, model_name=spec["model"], history=history, horizon=horizon
        )
        router.add_model(name, artifact, dataset.num_sensors)
        tenant = Tenant(name, dataset, artifact)
        deployment.tenants[name] = tenant
        for _ in range(history):
            deployment.ingest(tenant, tenant.next_tick())
        # warm-up: one live and one ad-hoc forecast trace the batch-1 plans
        router.forecast(name)
        router.forecast(name, tenant.stream[:, -history:, :])
    return deployment


# ---------------------------------------------------------------------- #
# schedules
# ---------------------------------------------------------------------- #
@dataclass
class Op:
    due: float  # seconds after the phase starts
    kind: str  # "ingest" | "forecast"
    tenant: str
    payload: Optional[np.ndarray] = None  # ingest tick or ad-hoc window


def make_schedule(
    rng: np.random.Generator, deployment: Deployment, mix: Dict, rate: float, seconds: float
) -> List[Op]:
    """Seeded Poisson arrivals over both tenants, in due order."""
    names = sorted(deployment.tenants)
    ops: List[Op] = []
    history = deployment.history
    # a Poisson process holding a fixed count: arrival times are uniform
    for due in np.sort(rng.uniform(0.0, seconds, int(round(rate * seconds)))):
        tenant = deployment.tenants[names[rng.integers(len(names))]]
        if mix["kind"] == "live":
            if rng.random() < mix["ingest_share"]:
                ops.append(Op(due, "ingest", tenant.name, tenant.next_tick()))
            else:
                ops.append(Op(due, "forecast", tenant.name))
        else:
            stream = tenant.stream
            start = rng.integers(stream.shape[1] - history)
            window = stream[:, start : start + history, :]
            jitter = rng.normal(0.0, mix["jitter"] * float(np.nanstd(stream)), window.shape)
            ops.append(Op(due, "forecast", tenant.name, window + jitter))
    return ops


# ---------------------------------------------------------------------- #
# open-loop generator
# ---------------------------------------------------------------------- #
@dataclass
class Record:
    op: Op
    due: float
    sent: float
    done: float
    source: str = ""  # forecast source, "ingest", or "error"
    forecast: Optional[np.ndarray] = None
    version: Optional[int] = None  # data version a live forecast saw, if known
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.source in ("model", "cache", "ingest")


def _send(deployment: Deployment, op: Op, record: Record, corrupt) -> None:
    tenant = deployment.tenants[op.tenant]
    if op.kind == "ingest":
        deployment.ingest(tenant, op.payload)
        record.source = "ingest"
        return
    with tenant.lock:
        done_before = tenant.done
    result = deployment.router.forecast(op.tenant, op.payload)
    with tenant.lock:
        started_after = tenant.started
    record.source = result.source
    record.forecast = corrupt(result.forecast) if corrupt else result.forecast
    if op.payload is None and done_before == started_after:
        record.version = done_before  # no ingest overlapped the request


def run_open_loop(
    deployment: Deployment, ops: List[Op], threads: int, corrupt=None
) -> List[Record]:
    records: List[Optional[Record]] = [None] * len(ops)
    cursor = iter(range(len(ops)))
    lock = threading.Lock()
    origin = time.perf_counter() + 0.02

    def worker() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            op = ops[index]
            due = origin + op.due
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            record = Record(op, due, time.perf_counter(), 0.0)
            try:
                _send(deployment, op, record, corrupt)
            except Exception as error:  # an exception is a failed operation
                record.source = "error"
                record.error = f"{type(error).__name__}: {error}"
            record.done = time.perf_counter()
            records[index] = record

    pool = [threading.Thread(target=worker, name=f"perfbench-gen-{i}") for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    return records


def generator_threads() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


# ---------------------------------------------------------------------- #
# rung statistics and output checks
# ---------------------------------------------------------------------- #
def rung_stats(records: List[Record], cfg: Dict) -> Dict[str, float]:
    """Latency from the due time; a failed forecast counts as infinitely late.

    The rung is cut into equal time segments.  CPU stolen by a neighbouring
    VM only ever adds latency, and it comes in bursts, so ``p50_ms`` is the
    median of the least-disturbed segment (the smallest segment median).
    ``p90_ms`` is the median over segments of each segment's p90, and
    ``p99_ms`` is taken over the whole rung and decides the SLO.  The tail
    percentiles get no bound in ``BENCHMARK.json``: on a shared 2-vCPU host
    their spread between runs (0.3 to 0.7 of the median) is wider than any
    bound the benchmark may set.
    """
    forecasts = [r for r in records if r.op.kind == "forecast"]
    latency_ms = np.array(
        [1e3 * (r.done - r.due) if r.ok else np.inf for r in forecasts], dtype=float
    )
    due = np.array([r.due for r in forecasts])
    edges = np.linspace(due.min(), due.max(), cfg["segments"] + 1)[1:-1]
    segments = [s for s in np.split(latency_ms, np.searchsorted(due, edges)) if len(s)]
    lag_ms = np.array([1e3 * (r.sent - r.due) for r in records], dtype=float)
    third = max(1, len(lag_ms) // 3)
    lag_growth_ms = float(np.median(lag_ms[-third:]) - np.median(lag_ms[:third]))
    failed = sum(not r.ok for r in records)
    span = max(r.done for r in records) - min(r.due for r in records)
    p99 = float(np.percentile(latency_ms, 99, method="higher"))
    return {
        "ops": len(records),
        "forecasts": len(forecasts),
        "failed": failed,
        "p50_ms": float(min(np.percentile(s, 50, method="higher") for s in segments)),
        "p90_ms": float(np.median([np.percentile(s, 90, method="higher") for s in segments])),
        "p99_ms": p99,
        "lag_p99_ms": float(np.percentile(lag_ms, 99, method="higher")),
        "lag_growth_ms": lag_growth_ms,
        "achieved_rps": sum(r.ok for r in records) / span,
        "sustained": bool(
            failed == 0 and p99 <= cfg["p99_limit_ms"] and lag_growth_ms <= cfg["lag_growth_ms"]
        ),
    }


def check_outputs(
    deployment: Deployment, records: List[Record], rng: np.random.Generator, cfg: Dict
) -> List[str]:
    """Return one message per mismatching response (and mark it failed).

    A seeded sample of model responses is recomputed through a fresh
    ``InferenceExecutor`` of the same artifact; every cache response must
    equal the model response for the same tenant and data version.
    """
    history = deployment.history
    fresh = {
        name: InferenceExecutor(
            t.artifact.model, scaler=t.artifact.scaler, history=t.artifact.history
        ).open()
        for name, t in deployment.tenants.items()
    }
    model_by_version: Dict[tuple, np.ndarray] = {}
    for record in records:
        if record.source == "model" and record.version is not None:
            model_by_version.setdefault((record.op.tenant, record.version), record.forecast)
    problems = []

    def mismatch(record: Record, what: str) -> None:
        problems.append(f"{record.op.tenant} {record.source} response {what}")
        record.source = "mismatch"

    # a model response can be recomputed when its input window is known
    model = [
        r
        for r in records
        if r.source == "model" and (r.op.payload is not None or r.version is not None)
    ]
    sample = min(len(model), max(1, int(cfg["check_share"] * len(model))), cfg["check_max"])
    for index in rng.choice(len(model), size=sample, replace=False) if model else []:
        record = model[index]
        tenant = deployment.tenants[record.op.tenant]
        window = (
            record.op.payload
            if record.op.payload is not None
            else tenant.window_at(record.version, history)
        )
        expected = fresh[record.op.tenant].predict(None, window)
        error = float(np.max(np.abs(expected - record.forecast)))
        if not error <= cfg["atol"]:
            mismatch(record, f"differs from a fresh executor by {error:.3g}")
    for record in records:
        if record.source != "cache" or record.version is None:
            continue
        expected = model_by_version.get((record.op.tenant, record.version))
        if expected is None:
            tenant = deployment.tenants[record.op.tenant]
            window = tenant.window_at(record.version, history)
            expected = fresh[record.op.tenant].predict(None, window)
        if not np.max(np.abs(expected - record.forecast)) <= cfg["atol"]:
            mismatch(record, f"differs from the model forecast of version {record.version}")
    for executor in fresh.values():
        executor.close()
    return problems


# ---------------------------------------------------------------------- #
# the phase
# ---------------------------------------------------------------------- #
@dataclass
class ServeRun:
    rungs: List[Dict] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    window_ns: tuple = (0, 0)  # the nominal rung, for span selection
    counters: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def metrics(self) -> Dict[str, float]:
        nominal = self.rungs[0]
        best = 0.0
        for rung in self.rungs:
            if not rung["sustained"]:
                break
            best = rung["achieved_rps"]
        return {"p50_ms": nominal["p50_ms"], "max_rps_slo": best}


def _tenant_counters(router: FleetRouter) -> Dict[str, Dict[str, float]]:
    out = {}
    for name, block in router.snapshot()["tenants"].items():
        engine = block["engine"]
        out[name] = {
            "hits": engine["cache_hits"],
            "misses": engine["cache_misses"],
            "ingests": engine["ingests"],
            "invalidations": engine["cache"]["invalidations"],
            "fallbacks": engine["fallbacks"],
            "errors": engine["errors"],
            "sheds": block["sheds"],
        }
    return out


def serve(
    deployment: Deployment,
    cfg: Dict,
    mix_name: str,
    seed: int,
    seconds: float,
    corrupt: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> ServeRun:
    """Warm up, run the nominal rung, then the rest of the ladder.

    Every operation counts in ``attempted``; a shed, fallback, exception or
    wrong output counts in ``failed``.  ``corrupt`` alters every served
    forecast before the checks see it (the self-check uses it).
    """
    mix = cfg["mixes"][mix_name]
    rng = np.random.default_rng(seed)
    check_rng = np.random.default_rng(seed + 1)
    threads = generator_threads()
    run = ServeRun()

    def rung(ops: List[Op]) -> List[Record]:
        records = run_open_loop(deployment, ops, threads, corrupt)
        run.problems.extend(check_outputs(deployment, records, check_rng, cfg))
        run.problems.extend(
            f"{r.op.tenant} {r.op.kind}: {r.source} {r.error}".strip()
            for r in records
            if not r.ok and r.source != "mismatch"
        )
        run.attempted += len(records)
        run.failed += sum(not r.ok for r in records)
        return records

    # untimed warm-up at the nominal rate: the batcher forms its usual batch
    # sizes, so their compiled plans are traced before timing starts
    warm_rng = np.random.default_rng(seed + 2)
    rung(make_schedule(warm_rng, deployment, mix, mix["nominal_rps"], cfg["warmup_s"]))
    ladder_s = seconds * (1 - cfg["nominal_share"]) / len(mix["ladder_rps"])
    plan = [(mix["nominal_rps"], seconds * cfg["nominal_share"])]
    plan += [(rate, ladder_s) for rate in mix["ladder_rps"]]
    for rate, duration in plan:
        ops = make_schedule(rng, deployment, mix, rate, duration)
        before, start_ns = _tenant_counters(deployment.router), time.perf_counter_ns()
        records = rung(ops)
        if not run.rungs:  # the nominal rung feeds the per-layer metrics
            after = _tenant_counters(deployment.router)
            run.window_ns = (start_ns, time.perf_counter_ns())
            run.counters = {
                name: {key: after[name][key] - before[name][key] for key in after[name]}
                for name in after
            }
        run.rungs.append({"rate_rps": rate, **rung_stats(records, cfg)})
    return run


# ---------------------------------------------------------------------- #
# traced run
# ---------------------------------------------------------------------- #
class BatchProbe(MetricsSink):
    """Fleet sink for ``serve_batch`` events, plus the submit times they close.

    The micro-batcher takes requests first-in first-out and reports each
    batch as it starts, so the ``batch_size`` oldest pending submits of a
    tenant are the requests of that batch; linger is batch start minus
    submit.
    """

    def __init__(self):
        self.pending: Dict[str, deque] = defaultdict(deque)
        self.locks: Dict[str, threading.Lock] = defaultdict(threading.Lock)
        self.batches: List[tuple] = []  # (start_ns, tenant, size, queue_depth, [linger_s])

    def emit(self, event) -> None:
        if event.get("event") != "serve_batch":
            return
        now = time.perf_counter()
        tenant = event.get("tenant")
        pending = self.pending[tenant]
        size = int(event["batch_size"])
        lingers = [now - pending.popleft() for _ in range(min(size, len(pending)))]
        self.batches.append((time.perf_counter_ns(), tenant, size, event["queue_depth"], lingers))

    def submit_wrapper(self, tracer: Tracer, submit):
        def wrapped(batcher, window):
            current = tracer.current()
            tenant = current.attrs.get("tenant") if current else None
            with self.locks[tenant]:
                self.pending[tenant].append(time.perf_counter())
                return submit(batcher, window)

        return wrapped


def instrument(tracer: Tracer, deployment: Deployment, probe: BatchProbe) -> Dict[str, object]:
    """Patch the serving entry points; returns tenant -> compiled executor."""
    by_model = {id(t.artifact.model): name for name, t in deployment.tenants.items()}
    executors: Dict[str, object] = {}

    def predict_attrs(executor, weights, inputs):
        tenant = by_model.get(id(executor.model))
        executors.setdefault(tenant, executor)
        return {"tenant": tenant, "batch": len(inputs)}

    def tenant_attrs(router, model_id, *args, **kwargs):
        return {"tenant": model_id}

    tracer.patch(FleetRouter, "forecast", "fleet.forecast", attrs=tenant_attrs)
    tracer.patch(FleetRouter, "ingest", "fleet.ingest", attrs=tenant_attrs)
    tracer.patch(ServingEngine, "forecast", "serve.engine")
    tracer.patch(StreamStateStore, "window", "serve.window")
    tracer.patch(PredictionCache, "make_key", "serve.cache_key")
    tracer.replace(MicroBatcher, "submit", probe.submit_wrapper(tracer, MicroBatcher.submit))
    tracer.patch(CompiledExecutor, "predict", "exec.predict", attrs=predict_attrs)
    return executors


def layer_metrics(
    tracer: Tracer, run: ServeRun, probe: BatchProbe, executors: Dict[str, object], tenants
) -> Dict[str, float]:
    window = run.window_ns
    spans = [s for s in tracer.spans if window[0] <= s.start < window[1]]

    def mean(values) -> float:
        return float(np.mean(values)) if len(values) else 0.0

    engine_seconds = {s.parent_id: s.seconds for s in select(spans, "serve.engine")}
    out: Dict[str, float] = {}
    for name in tenants:
        routed = select(spans, "fleet.forecast", name)
        route = [s.seconds - engine_seconds.get(s.span_id, 0.0) for s in routed]
        counters = run.counters[name]
        lookups = counters["hits"] + counters["misses"]
        batches = [b for b in probe.batches if b[1] == name and window[0] <= b[0] < window[1]]
        lingers = [x for b in batches for x in b[4]]
        stats = getattr(executors.get(name), "stats", {}) or {}
        replays = stats.get("replays", 0)
        attempts = replays + stats.get("fallback_steps", 0)
        out.update(
            {
                f"fleet.route_ms.{name}": 1e3 * mean(route),
                f"serve.window_ms.{name}": mean_ms(select(spans, "serve.window", name)),
                f"serve.cache_key_ms.{name}": mean_ms(select(spans, "serve.cache_key", name)),
                f"fleet.ingest_ms.{name}": mean_ms(select(spans, "fleet.ingest", name)),
                f"serve.cache_hit_ratio.{name}": counters["hits"] / lookups if lookups else 0.0,
                f"serve.cache_invalidated_per_tick.{name}": (
                    counters["invalidations"] / counters["ingests"] if counters["ingests"] else 0.0
                ),
                f"serve.batch_linger_ms.{name}": 1e3 * mean(lingers),
                f"serve.batch_size_mean.{name}": mean([b[2] for b in batches]),
                f"serve.queue_depth_mean.{name}": mean([b[3] for b in batches]),
                f"exec.predict_ms.{name}": mean_ms(select(spans, "exec.predict", name)),
                f"compile.replay_ratio.{name}": replays / attempts if attempts else 0.0,
                f"compile.traces.{name}": float(stats.get("traces", 0)),
                f"fleet.sheds.{name}": float(counters["sheds"]),
                f"serve.fallbacks.{name}": float(counters["fallbacks"]),
                f"serve.errors.{name}": float(counters["errors"]),
            }
        )
    return out
