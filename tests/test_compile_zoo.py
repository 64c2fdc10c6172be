"""Compiled-vs-serial equivalence across the whole registered model zoo.

Every trainable model in :func:`repro.baselines.available_models` runs three
Adam steps at batch 4 on ``tiny_dataset`` through both the interpreted
:class:`repro.exec.SerialExecutor` and :class:`repro.compile.CompiledExecutor`
from identical initial weights.  Losses, every parameter gradient and one
predict call must agree at rtol 1e-9 / atol 1e-12, and every model except
the known fallback must actually replay its compiled plan: one validation
replay at trace time plus two steady-state replays.

``simst`` is the known fallback: its top-k neighbour aggregation is a
host-NumPy gather the capture cannot see through, so its plan fails
validation and the executor serves it interpreted.  The equivalence checks
still hold for it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.registry import BuildSpec, available_models, build_from_spec
from repro.compile import CompiledExecutor
from repro.data import WindowSpec
from repro.data.windows import BatchIterator, SlidingWindowDataset
from repro.exec import SerialExecutor
from repro.optim import Adam

SPEC = WindowSpec(12, 3)
RTOL = 1e-9
ATOL = 1e-12
STEPS = 3
#: models whose compiled plan is known not to replay (see module docstring)
KNOWN_FALLBACKS = frozenset({"simst"})


def _build(name: str, dataset):
    return build_from_spec(
        name, BuildSpec(dataset=dataset, history=SPEC.history, horizon=SPEC.horizon, seed=3)
    )


def _trainable(name: str, dataset) -> bool:
    return any(True for _ in _build(name, dataset).parameters())


@pytest.fixture(scope="module")
def batches(tiny_dataset):
    windows = SlidingWindowDataset(tiny_dataset.train, SPEC, raw=tiny_dataset.train_raw)
    iterator = iter(BatchIterator(windows, batch_size=4, shuffle=False))
    out = []
    for _ in range(STEPS):
        x, y_raw = next(iterator)
        out.append((x, tiny_dataset.scaler.transform(y_raw)))
    return out


def _assert_close(actual, expected, what: str) -> None:
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=ATOL, err_msg=what)


@pytest.mark.parametrize("name", available_models())
def test_compiled_matches_serial(name, tiny_dataset, batches):
    if not _trainable(name, tiny_dataset):
        pytest.skip(f"{name} has no trainable parameters")
    serial_model = _build(name, tiny_dataset)
    compiled_model = _build(name, tiny_dataset)
    serial_opt = Adam(serial_model.parameters(), lr=1e-3)
    compiled_opt = Adam(compiled_model.parameters(), lr=1e-3)
    with SerialExecutor(serial_model) as serial, CompiledExecutor(compiled_model) as compiled:
        for step, batch in enumerate(batches):
            expected = serial.train_step(None, batch)
            actual = compiled.train_step(None, batch)
            _assert_close(actual.loss, expected.loss, f"{name} step {step} loss")
            assert len(actual.grads) == len(expected.grads)
            for i, (left, right) in enumerate(zip(expected.grads, actual.grads)):
                assert (left is None) == (right is None), f"{name} step {step} grad {i}"
                if left is not None:
                    _assert_close(right, left, f"{name} step {step} grad {i}")
            serial_opt.step()
            compiled_opt.step()
        x = batches[0][0]
        _assert_close(compiled.predict(None, x), serial.predict(None, x), f"{name} predict")
    if name in KNOWN_FALLBACKS:
        assert compiled.stats["replays"] < STEPS
    else:
        assert compiled.stats["replays"] == STEPS, compiled.stats["fallback_reasons"]
