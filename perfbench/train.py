"""Training phase: ST-WA on PEMS08-sim until a fixed validation MAE.

The dataset is PEMS08-sim ``fast`` as the simulator ships it and the model
starts from fixed initial weights (``init_seed``); the workload seed draws
the order in which training windows arrive (and, on the pool, each worker's
latent noise).  Varying the initial weights as well spreads the steps to
the target MAE by more than the benchmark's bound.  The run takes a fixed
step budget with validation every fixed number of steps, through
``Trainer.fit()``.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import optim
from repro.baselines.registry import BuildSpec, build_from_spec
from repro.data import WindowSpec, load_dataset
from repro.exec import ExecutorSpec
from repro.parallel import WorkerPool
from repro.tensor import Tensor, set_grad_alloc_hook
from repro.training import Trainer, TrainerConfig
from repro.training import checkpoint as checkpoint_module

from .trace import TimedIterable, Tracer, mean_ms, select


def executor_spec(kind: str, cfg: Dict) -> ExecutorSpec:
    if kind == "serial":
        return ExecutorSpec.serial()
    return ExecutorSpec.parallel(n_workers=cfg["pooled_workers"])


def build_trainer(cfg: Dict, kind: str, seed: int) -> tuple:
    """Dataset, model and Trainer; returns ``(trainer, timings)``."""
    t0 = time.perf_counter()
    dataset = load_dataset(cfg["dataset"], cfg["profile"])
    t1 = time.perf_counter()
    model = build_from_spec(
        cfg["model"],
        BuildSpec(
            dataset=dataset, history=cfg["history"], horizon=cfg["horizon"], seed=cfg["init_seed"]
        ),
    )
    t2 = time.perf_counter()
    trainer = Trainer(
        model,
        dataset,
        WindowSpec(cfg["history"], cfg["horizon"]),
        TrainerConfig(
            batch_size=cfg["batch_size"],
            epochs=cfg["steps"] // cfg["val_every"],
            max_batches_per_epoch=cfg["val_every"],
            eval_batches=cfg["eval_batches"],
            patience=cfg["steps"],  # early stopping never cuts the budget
            seed=seed,
            executor=executor_spec(kind, cfg),
        ),
    )
    t3 = time.perf_counter()
    return trainer, {"dataset_s": t1 - t0, "model_s": t2 - t1, "setup_s": t3 - t0}


@dataclass
class TrainRun:
    """What one ``fit()`` produced, as the benchmark observed it."""

    fit_seconds: float = 0.0
    tta_s: Optional[float] = None
    eval_s_to_target: float = 0.0
    batch_sizes: List[int] = field(default_factory=list)
    losses: List[float] = field(default_factory=list)
    val_mae: List[float] = field(default_factory=list)
    epoch_seconds: List[float] = field(default_factory=list)
    error: str = ""

    def attempted_failed(self, budget_steps: int) -> tuple:
        """Each step is an operation, and so is reaching the target."""
        failed = sum(not np.isfinite(loss) for loss in self.losses)
        failed += budget_steps - len(self.losses)  # steps an exception cut
        failed += self.tta_s is None
        return budget_steps + 1, int(failed)

    def metrics(self) -> Dict[str, float]:
        # median over validation intervals, so a burst of CPU stolen by a
        # neighbouring VM skews one interval, not the run; epoch_seconds
        # exclude validation
        per_interval = len(self.batch_sizes) // max(1, len(self.epoch_seconds))
        rates = [
            sum(self.batch_sizes[i * per_interval : (i + 1) * per_interval]) / seconds
            for i, seconds in enumerate(self.epoch_seconds)
        ]
        return {
            "tta_s": self.tta_s if self.tta_s is not None else self.fit_seconds,
            "train_samples_per_s": statistics.median(rates) if rates else 0.0,
            "val_mae_final": self.val_mae[-1] if self.val_mae else float("inf"),
        }


def train(trainer: Trainer, cfg: Dict) -> TrainRun:
    """Run ``fit()`` once; time-to-target comes from the validation calls."""
    run = TrainRun()
    target = cfg["target_mae"]
    fit_start = 0.0
    evaluate = trainer.evaluate
    step = trainer.executor.train_step

    def timed_evaluate(split="test", max_batches=None):
        start = time.perf_counter()
        result = evaluate(split, max_batches=max_batches)
        end = time.perf_counter()
        if split == "val" and run.tta_s is None:
            run.eval_s_to_target += end - start
            if result["mae"] <= target:
                run.tta_s = end - fit_start
        return result

    def counted_step(weights, batch):
        result = step(weights, batch)
        run.losses.append(result.loss)
        run.batch_sizes.append(len(batch[0]))
        return result

    trainer.evaluate = timed_evaluate
    trainer.executor.train_step = counted_step
    fit_start = time.perf_counter()
    try:
        history = trainer.fit()
        run.val_mae = list(history.val_mae)
        run.epoch_seconds = list(history.epoch_seconds)
    except Exception as error:  # a failed run is reported, not raised
        run.error = f"{type(error).__name__}: {error}"
    run.fit_seconds = time.perf_counter() - fit_start
    return run


# ---------------------------------------------------------------------- #
# traced run
# ---------------------------------------------------------------------- #
class _OptimizerProbe:
    """``TrainerConfig.batch_hook``: a span from clipping to the Adam step."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.span = None

    def after_backward(self, trainer, epoch, batch_index) -> None:
        self.span = self.tracer.open("optim.step")

    def after_batch(self, trainer, epoch, batch_index) -> None:
        self.tracer.close(self.span)


def _shard_stats(results, pool, weights_blob, shards) -> Dict[str, float]:
    seconds = [result.seconds for result in results]
    wire = len(weights_blob or b"") * len(shards)
    wire += sum(x.nbytes + y.nbytes for x, y in shards)
    wire += sum(g.nbytes for result in results for g in result.grads if g is not None)
    return {
        "worker_max_s": max(seconds),
        "worker_mean_s": sum(seconds) / len(seconds),
        "wire_bytes": wire,
    }


def instrument(tracer: Tracer, trainer: Trainer, kind: str) -> Dict[str, int]:
    """Patch the training entry points; returns the grad-allocation tally."""
    executor = trainer.executor
    tracer.patch(trainer, "evaluate", "training.eval")
    tracer.patch(executor, "train_step", "exec.train_step")
    tracer.patch(executor, "open", "training.setup.executor_open")
    make_iterator = executor.make_batch_iterator
    tracer.replace(
        executor,
        "make_batch_iterator",
        lambda *a, **k: TimedIterable(make_iterator(*a, **k), tracer, "data.batch_wait"),
    )
    tracer.replace(trainer.config, "batch_hook", _OptimizerProbe(tracer))
    allocs = {"count": 0, "bytes": 0}
    if kind == "serial":
        # forward and backward run in this process only on the serial path;
        # patching them before the pool forks would trace inside workers
        tracer.patch(trainer.model, "forward", "core.forward")
        tracer.patch(Tensor, "backward", "tensor.backward")

        def on_alloc(nbytes: int) -> None:
            allocs["count"] += 1
            allocs["bytes"] += nbytes

        set_grad_alloc_hook(on_alloc)
    else:
        tracer.patch(checkpoint_module, "dumps_state_dict", "parallel.serialize")
        tracer.patch(WorkerPool, "train_step", "parallel.pool_step", after=_shard_stats)
        tracer.patch(optim, "all_reduce_gradients", "optim.allreduce")
    return allocs


def uninstrument(tracer: Tracer) -> None:
    tracer.restore()
    set_grad_alloc_hook(None)


def layer_metrics(
    tracer: Tracer, run: TrainRun, allocs: Dict[str, int], setup: List[Dict]
) -> Dict[str, float]:
    spans = tracer.spans
    steps = select(spans, "exec.train_step")
    n = max(1, len(steps))
    step_ids = {span.span_id for span in steps}

    def per_step_ms(name: str) -> float:
        inside = [s for s in select(spans, name) if s.parent_id in step_ids]
        return 1e3 * sum(s.seconds for s in inside) / n

    pool = select(spans, "parallel.pool_step")
    pool_n = max(1, len(pool))
    return {
        "data.batch_wait_ms": mean_ms(select(spans, "data.batch_wait")),
        "core.forward_ms": per_step_ms("core.forward"),
        "tensor.backward_ms": per_step_ms("tensor.backward"),
        "tensor.grad_allocs_per_step": allocs["count"] / n,
        "tensor.grad_alloc_mb_per_step": allocs["bytes"] / n / 2**20,
        "exec.train_step_ms": mean_ms(steps),
        "optim.step_ms": mean_ms(select(spans, "optim.step")),
        "training.eval_ms": mean_ms(select(spans, "training.eval")),
        "training.eval_share": run.eval_s_to_target / run.metrics()["tta_s"],
        "parallel.serialize_ms": mean_ms(select(spans, "parallel.serialize")),
        "parallel.pool_step_ms": mean_ms(pool),
        "parallel.worker_compute_ms": 1e3 * sum(s.attrs["worker_max_s"] for s in pool) / pool_n,
        "parallel.transport_ms": 1e3
        * sum(s.seconds - s.attrs["worker_max_s"] for s in pool)
        / pool_n,
        "parallel.worker_imbalance": sum(
            s.attrs["worker_max_s"] / s.attrs["worker_mean_s"] for s in pool
        )
        / pool_n,
        "parallel.wire_bytes_per_step": sum(s.attrs["wire_bytes"] for s in pool) / pool_n,
        "optim.allreduce_ms": mean_ms(select(spans, "optim.allreduce")),
        "training.setup.dataset_s": statistics.median(t["dataset_s"] for t in setup),
        "training.setup.model_s": statistics.median(t["model_s"] for t in setup),
        "training.setup.executor_open_s": sum(
            s.seconds for s in select(spans, "training.setup.executor_open")
        ),
    }
