"""Differentiable primitive operations for :class:`repro.tensor.Tensor`.

Every primitive is one entry of the op table :data:`OPS` — an :class:`Op`
holding its ``out=``-aware forward, its ``out=``-aware vector-Jacobian
product (VJP) per operand, its FLOP cost and whether it is elementwise.
Two consumers bind the same entries:

* the **tape** (this module): each public function below binds its
  arguments — which are tensor operands, which are static config — and
  calls :func:`_apply`, which runs the forward with ``out=None`` and
  records a backward closure calling the VJPs;
* the **compiled plan** (:mod:`repro.compile.plan`): lowering binds the
  same entries to preallocated arena buffers (``out=buf``), so a replayed
  step runs exactly the arithmetic of the interpreted one.

Adding an op means adding one table entry plus its public binding
function; the tape, the op-trace hook, the capture and the plan all pick
it up from the table.

Tape conventions (see ``Tensor._accumulate``):

* a VJP that allocates (``g * b``, ``g @ W.T``, …) hands its result over
  with ``own=True`` so the engine adopts it as the gradient buffer;
* a *view* VJP (``add``, ``reshape``, ``transpose``, slices) returns a
  view of the upstream gradient and is passed with ``own=False`` — the
  engine copies on first accumulation and ``+=``-s afterwards;
* broadcast reduction back to the operand shape is ``unbroadcast``'s job,
  centrally in ``Tensor._accumulate`` (and in the plan's gradient sink);
* scatter-style ops (``getitem``, ``gather``) have no VJP but a
  ``scatter(buf, g)`` that writes straight into the operand's gradient
  buffer (``Tensor._grad_buffer``) with slice-``+=`` or ``np.add.at``.

Every call passes through :func:`_apply`, which reports to an optional
trace hook (:func:`set_op_trace`, normally installed by
``repro.obs.profile``), the NaN/Inf screen and the compile capture.  With
none installed the cost is three global ``None`` checks.
"""

from __future__ import annotations

import builtins
import time as _time
from operator import attrgetter
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from . import tensor as tensor_module
from .tensor import ArrayLike, Tensor, as_tensor

Axis = Union[None, int, Tuple[int, ...]]


# --------------------------------------------------------------------- #
# the op table
# --------------------------------------------------------------------- #
def _fresh(key, shape, dtype=np.float64) -> np.ndarray:
    """Default workspace: a new uninitialised temporary on every call.

    Forwards and VJPs request temporaries as ``ws(key, shape, dtype)``; the
    compiled plan passes a workspace that allocates each key once and
    hands the same buffer back on every replay.
    """
    return np.empty(shape, dtype)


class Op:
    """One differentiable primitive, shared by the tape and the plan.

    ``forward(*xs, out=None, ws=_fresh, **static)`` computes the output from
    the operand arrays ``xs``; given ``out`` it writes there.  ``rebinds``
    ops (views and gathers) ignore ``out`` and return a new array or view.
    A forward that is a bare NumPy ufunc takes no ``ws``.

    ``vjp(i, g, y, *xs, out=None, ws=_fresh, **static)`` returns operand
    ``i``'s vector-Jacobian product from the upstream gradient ``g`` and the
    forward output ``y``, writing into ``out`` when given.  An elementwise
    op's VJP has the (broadcast) output shape; every other non-view VJP has
    its operand's shape.  Inputs listed by ``view`` (``True`` for all) get
    a pure view of ``g`` that reads nothing but shapes from ``y``/``xs``.
    ``scatter(buf, g, **static)`` replaces ``vjp`` for ops whose gradient is
    accumulated straight into the operand's gradient buffer.

    ``flops`` is the forward cost per output element, or a callable
    ``(xs, y) -> flops``.  ``elementwise`` ops broadcast their operands and
    fuse into chain instructions in the plan.
    """

    __slots__ = ("name", "forward", "vjp", "scatter", "view", "elementwise", "rebinds", "flops")

    def __init__(
        self,
        name: str,
        forward: Callable,
        vjp: Optional[Callable] = None,
        *,
        scatter: Optional[Callable] = None,
        view: Union[bool, Tuple[int, ...]] = False,
        elementwise: bool = False,
        rebinds: bool = False,
        flops: Union[float, Callable] = 1.0,
    ) -> None:
        self.name = name
        self.forward = forward
        self.vjp = vjp
        self.scatter = scatter
        self.view = view
        self.elementwise = elementwise
        self.rebinds = rebinds
        self.flops = flops
        OPS[name] = self

    def is_view(self, i: int) -> bool:
        """Whether operand ``i``'s VJP is a view of the upstream gradient."""
        return self.view is True or (self.view is not False and i in self.view)

    def cost(self, xs, y) -> float:
        """Analytic forward FLOPs of one call."""
        if callable(self.flops):
            return float(self.flops(xs, y))
        return float(y.size) * self.flops

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Op({self.name})"


#: name -> entry, in definition order
OPS: Dict[str, Op] = {}


def _per_input(xs, y) -> float:
    """Reductions are charged one flop per input element."""
    return float(xs[0].size)


def _gemm(xs, y) -> float:
    return 2.0 * float(y.size) * float(xs[0].shape[-1])


# --------------------------------------------------------------------- #
# op tracing (the repro.obs hook point)
# --------------------------------------------------------------------- #
#: hook(name, phase, seconds, flops, nbytes) or None when tracing is off
TraceHook = Callable[[str, str, float, float, int], None]

_trace_hook: Optional[TraceHook] = None

#: an AnomalyDetector (see repro.tensor.anomaly) or None when screening is off
_anomaly_check = None

#: a CaptureRecorder (see repro.compile.capture) or None when capture is off.
#: Installed by CompiledExecutor around a single trace step; every primitive
#: reports (name, tensor operands, static config, out) so the recorder can
#: rebuild the op stream as a replayable linear program.
_op_capture = None


def set_op_trace(hook: Optional[TraceHook]) -> Optional[TraceHook]:
    """Install (or clear, with ``None``) the global op trace hook.

    Returns the previously installed hook so callers can restore it —
    ``repro.obs.profile`` uses this to support nested profiling contexts.
    """
    global _trace_hook
    previous = _trace_hook
    _trace_hook = hook
    return previous


def op_trace_active() -> bool:
    """Whether an op trace hook (``repro.obs.profile``) is installed."""
    return _trace_hook is not None


def set_anomaly_check(detector):
    """Install (or clear, with ``None``) the global NaN/Inf screen.

    ``detector`` is a :class:`repro.tensor.anomaly.AnomalyDetector`; returns
    the previously installed one so :func:`repro.tensor.detect_anomaly` can
    nest contexts.
    """
    global _anomaly_check
    previous = _anomaly_check
    _anomaly_check = detector
    return previous


def anomaly_check_active():
    """The detector of the innermost active ``detect_anomaly`` context, if any."""
    return _anomaly_check


def set_op_capture(recorder):
    """Install (or clear, with ``None``) the global op-capture recorder.

    Returns the previously installed recorder so callers can restore it.
    Capture composes with the trace hook and the anomaly screen, but it
    does *not* see ops executed under ``inference_mode`` (observation is
    bypassed entirely there) — compiled predict traces run under
    ``no_grad`` instead.
    """
    global _op_capture
    previous = _op_capture
    _op_capture = recorder
    return previous


def op_capture_active() -> bool:
    """Whether a compile-capture recorder is installed."""
    return _op_capture is not None


def notify_host_input(value: np.ndarray, regen=None) -> np.ndarray:
    """Declare ``value`` a per-step host-generated input (RNG draw, mask).

    Modules that feed freshly generated NumPy arrays into traced ops each
    step (latent noise, dropout masks) call this right after drawing.  With
    no capture active it is a no-op returning ``value``.  Under capture the
    recorder registers the array so the plan treats it as a per-step input
    rather than a frozen constant; ``regen``, when given, is a closure that
    re-draws the value from the same generator so replay reproduces the
    serial RNG stream bit-exactly.
    """
    if _op_capture is not None:
        _op_capture.record_host_input(value, regen)
    return value


def notify_compile_unsupported(reason: str) -> None:
    """Declare that the current step has Python-level state the compiler
    cannot replay (running-stat updates, data-dependent masks).

    No-op unless a capture is active; under capture the recorder marks the
    trace dead so the executor permanently falls back to the interpreted
    path for this signature.
    """
    if _op_capture is not None:
        _op_capture.mark_unsupported(reason)


# --------------------------------------------------------------------- #
# the tape's binding of an entry
# --------------------------------------------------------------------- #
_data = attrgetter("data")


def _apply(op: Op, operands: Sequence[ArrayLike], **static) -> Tensor:
    """Apply ``op`` to tensor ``operands`` with ``static`` config.

    Runs the forward with ``out=None`` and records a backward closure that
    calls the entry's VJPs (or its scatter).  An active trace hook, anomaly
    screen or capture sees the call (none of them under ``inference_mode``).
    """
    tensors = list(map(as_tensor, operands))
    observed = (
        _trace_hook is not None or _anomaly_check is not None or _op_capture is not None
    ) and not tensor_module._state.inference_mode
    start = _time.perf_counter() if observed else 0.0
    xs = list(map(_data, tensors))
    y = op.forward(*xs, **static)
    vjp, scatter = op.vjp, op.scatter

    def backward(g: np.ndarray) -> None:
        for i, t in enumerate(tensors):
            if not t.requires_grad:
                continue
            if scatter is not None:
                scatter(t._grad_buffer(), g, **static)
            else:
                t._accumulate(vjp(i, g, y, *xs, **static), own=not op.is_view(i))

    out = Tensor._make(y, tensors, backward)
    if observed:
        _observe(op, tensors, static, out, start)
    return out


def _observe(op: Op, tensors: list, static: dict, out: Tensor, start: float) -> None:
    """Report one applied op to the trace hook, anomaly screen and capture."""
    name = op.name
    hook, anomaly, capture = _trace_hook, _anomaly_check, _op_capture
    if hook is not None:
        elapsed = _time.perf_counter() - start
        nbytes = int(out.data.nbytes)
        flops = op.cost(list(map(_data, tensors)), out.data)
        hook(name, "forward", elapsed, flops, nbytes)
    else:
        nbytes = 0
        flops = 0.0
    # may raise NumericalAnomalyError; returns the creation trace that a
    # later backward anomaly of this node will report
    trace = anomaly.after_forward(name, out.data) if anomaly is not None else None
    inner = out._backward_fn
    if inner is not None and (hook is not None or anomaly is not None):
        # Backward FLOPs are charged at the conventional 2x forward; the
        # gradient array has the output's shape, hence the same bytes.
        def traced_backward(grad: np.ndarray, _inner=inner, _trace=trace) -> None:
            backward_anomaly = _anomaly_check
            if backward_anomaly is not None:
                backward_anomaly.check_grad(name, grad, _trace)
            backward_hook = _trace_hook
            if backward_hook is None:
                _inner(grad)
                return
            t0 = _time.perf_counter()
            _inner(grad)
            backward_hook(name, "backward", _time.perf_counter() - t0, 2.0 * flops, nbytes)

        out._backward_fn = traced_backward
    if capture is not None:
        capture.record_op(name, tuple(tensors), static, out)


# --------------------------------------------------------------------- #
# elementwise arithmetic
# --------------------------------------------------------------------- #
def _identity_vjp(i, g, y, *xs, out=None, ws=_fresh):
    return g


ADD = Op("add", np.add, _identity_vjp, view=True, elementwise=True)


def add(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise ``a + b`` with broadcasting."""
    return _apply(ADD, (a, b))


def _sub_vjp(i, g, y, a, b, out=None, ws=_fresh):
    return g if i == 0 else np.negative(g, out=out)


SUB = Op("sub", np.subtract, _sub_vjp, view=(0,), elementwise=True)


def sub(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise ``a - b`` with broadcasting."""
    return _apply(SUB, (a, b))


def _mul_vjp(i, g, y, a, b, out=None, ws=_fresh):
    return np.multiply(g, b if i == 0 else a, out=out)


MUL = Op("mul", np.multiply, _mul_vjp, elementwise=True)


def mul(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise ``a * b`` with broadcasting."""
    return _apply(MUL, (a, b))


def _div_vjp(i, g, y, a, b, out=None, ws=_fresh):
    if i == 0:
        return np.divide(g, b, out=out)
    grad = np.negative(g, out=out)  # -g * a / (b * b)
    np.multiply(grad, a, out=grad)
    return np.divide(grad, np.multiply(b, b, out=ws(0, b.shape)), out=grad)


DIV = Op("div", np.divide, _div_vjp, elementwise=True)


def div(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise ``a / b`` with broadcasting."""
    return _apply(DIV, (a, b))


def _neg_vjp(i, g, y, a, out=None, ws=_fresh):
    return np.negative(g, out=out)


NEG = Op("neg", np.negative, _neg_vjp, elementwise=True)


def neg(a: ArrayLike) -> Tensor:
    """Elementwise negation."""
    return _apply(NEG, (a,))


def _power(a, out=None, ws=_fresh, *, exponent):
    return np.power(a, exponent, out=out)


def _power_vjp(i, g, y, a, out=None, ws=_fresh, *, exponent):
    grad = np.multiply(g, exponent, out=out)
    return np.multiply(grad, np.power(a, exponent - 1.0, out=ws(0, a.shape)), out=grad)


POWER = Op("power", _power, _power_vjp, elementwise=True, flops=2.0)


def power(a: ArrayLike, exponent: float) -> Tensor:
    """Elementwise ``a ** exponent`` for a scalar exponent."""
    return _apply(POWER, (a,), exponent=float(exponent))


def _exp_vjp(i, g, y, a, out=None, ws=_fresh):
    return np.multiply(g, y, out=out)


EXP = Op("exp", np.exp, _exp_vjp, elementwise=True, flops=4.0)


def exp(a: ArrayLike) -> Tensor:
    """Elementwise exponential."""
    return _apply(EXP, (a,))


def _log_vjp(i, g, y, a, out=None, ws=_fresh):
    return np.divide(g, a, out=out)


LOG = Op("log", np.log, _log_vjp, elementwise=True, flops=4.0)


def log(a: ArrayLike) -> Tensor:
    """Elementwise natural logarithm."""
    return _apply(LOG, (a,))


def _sqrt_vjp(i, g, y, a, out=None, ws=_fresh):
    grad = np.multiply(g, 0.5, out=out)
    return np.divide(grad, y, out=grad)


SQRT = Op("sqrt", np.sqrt, _sqrt_vjp, elementwise=True, flops=2.0)


def sqrt(a: ArrayLike) -> Tensor:
    """Elementwise square root."""
    return _apply(SQRT, (a,))


def _abs_vjp(i, g, y, a, out=None, ws=_fresh):
    return np.multiply(g, np.sign(a, out=ws(0, a.shape)), out=out)


ABS = Op("abs", np.abs, _abs_vjp, elementwise=True)


def abs(a: ArrayLike) -> Tensor:  # noqa: A001 - mirrors numpy naming
    """Elementwise absolute value (subgradient 0 at 0)."""
    return _apply(ABS, (a,))


def _extremum_vjp(a_wins):
    """VJP of an elementwise max/min: ``a_wins(a, b)`` routes ties to ``a``."""

    def vjp(i, g, y, a, b, out=None, ws=_fresh):
        mask = a_wins(a, b, out=ws(0, y.shape, bool))
        if i == 1:
            np.logical_not(mask, out=mask)
        return np.multiply(g, mask, out=out)

    return vjp


MAXIMUM = Op("maximum", np.maximum, _extremum_vjp(np.greater_equal), elementwise=True)
MINIMUM = Op("minimum", np.minimum, _extremum_vjp(np.less_equal), elementwise=True)


def maximum(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise maximum; ties route the gradient to the first operand."""
    return _apply(MAXIMUM, (a, b))


def minimum(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise minimum; ties route the gradient to the first operand."""
    return _apply(MINIMUM, (a, b))


def _clip(a, out=None, ws=_fresh, *, low, high):
    return a.clip(low, high, out=out)


def _clip_vjp(i, g, y, a, out=None, ws=_fresh, *, low, high):
    inside = np.greater_equal(a, low, out=ws(0, a.shape, bool))
    np.logical_and(inside, np.less_equal(a, high, out=ws(1, a.shape, bool)), out=inside)
    return np.multiply(g, inside, out=out)


CLIP = Op("clip", _clip, _clip_vjp, elementwise=True, flops=2.0)


def clip(a: ArrayLike, low: float, high: float) -> Tensor:
    """Clamp values to ``[low, high]``; gradient is 1 inside, 0 outside."""
    return _apply(CLIP, (a,), low=low, high=high)


def _where(a, b, out=None, ws=_fresh, *, condition):
    if out is None:
        out = np.empty(np.broadcast_shapes(condition.shape, a.shape, b.shape))
    np.copyto(out, b)
    np.copyto(out, a, where=condition)
    return out


def _where_vjp(i, g, y, a, b, out=None, ws=_fresh, *, condition):
    return np.multiply(g, condition if i == 0 else ~condition, out=out)


WHERE = Op("where", _where, _where_vjp, elementwise=True)


def where(condition: np.ndarray, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Select from ``a`` where ``condition`` else ``b`` (condition is data).

    The condition is a Python-level array the compile capture cannot see
    through (replay would freeze one batch's mask), so a captured step
    that calls ``where`` is declared unsupported.
    """
    notify_compile_unsupported("where: Python-level condition array")
    return _apply(WHERE, (a, b), condition=np.asarray(condition, dtype=bool))


def _huber(a, out=None, ws=_fresh, *, delta):
    magnitude = np.abs(a, out=ws(0, a.shape))
    inside = np.less_equal(magnitude, delta, out=ws(1, a.shape, bool))
    # linear branch: delta * (|a| - 0.5 * delta)
    np.subtract(magnitude, 0.5 * delta, out=magnitude)
    out = np.multiply(magnitude, delta, out=out)
    # quadratic branch: (0.5 * a) * a
    quadratic = np.multiply(a, 0.5, out=ws(2, a.shape))
    np.multiply(quadratic, a, out=quadratic)
    np.copyto(out, quadratic, where=inside)
    return out


def _huber_vjp(i, g, y, a, out=None, ws=_fresh, *, delta):
    grad = np.multiply(g, delta, out=out)  # outside: (g * delta) * sign(a)
    np.multiply(grad, np.sign(a, out=ws(0, a.shape)), out=grad)
    inside = np.less_equal(np.abs(a, out=ws(0, a.shape)), delta, out=ws(1, a.shape, bool))
    np.copyto(grad, np.multiply(g, a, out=ws(0, a.shape)), where=inside)
    return grad


HUBER = Op("huber", _huber, _huber_vjp, elementwise=True, flops=4.0)


def huber(a: ArrayLike, delta: float = 1.0) -> Tensor:
    """Elementwise Huber penalty of a residual: quadratic inside ``delta``.

    ``0.5 * a**2`` where ``|a| <= delta``, ``delta * (|a| - 0.5 * delta)``
    outside.  The region mask is internal to the op (recomputed from the
    input in backward), which keeps the loss a pure function of its tensor
    arguments — unlike a ``where(abs(a).data <= delta, ...)`` composite,
    whose Python-level condition array would be opaque to both the trace
    hook and the compile capture.
    """
    return _apply(HUBER, (a,), delta=float(delta))


# --------------------------------------------------------------------- #
# activations
# --------------------------------------------------------------------- #
def _tanh_vjp(i, g, y, a, out=None, ws=_fresh):
    grad = np.multiply(y, y, out=out)  # g * (1 - y * y)
    np.subtract(1.0, grad, out=grad)
    return np.multiply(g, grad, out=grad)


TANH = Op("tanh", np.tanh, _tanh_vjp, elementwise=True, flops=6.0)


def tanh(a: ArrayLike) -> Tensor:
    """Hyperbolic tangent."""
    return _apply(TANH, (a,))


def _sigmoid(x, out=None, ws=_fresh):
    """Stable logistic: ``1 / (1 + e)`` for ``x >= 0``, else ``e / (1 + e)``,
    with ``e = exp(-|x|)``."""
    e = np.abs(x, out=ws(0, x.shape))
    np.negative(e, out=e)
    np.exp(e, out=e)
    denominator = np.add(e, 1.0, out=ws(1, x.shape))
    out = np.divide(e, denominator, out=out)
    np.divide(1.0, denominator, out=denominator)
    np.copyto(out, denominator, where=np.greater_equal(x, 0.0, out=ws(2, x.shape, bool)))
    return out


def _sigmoid_vjp(i, g, y, a, out=None, ws=_fresh):
    grad = np.multiply(g, y, out=out)  # g * y * (1 - y)
    return np.multiply(grad, np.subtract(1.0, y, out=ws(0, y.shape)), out=grad)


SIGMOID = Op("sigmoid", _sigmoid, _sigmoid_vjp, elementwise=True, flops=6.0)


def sigmoid(a: ArrayLike) -> Tensor:
    """Numerically stable logistic sigmoid."""
    return _apply(SIGMOID, (a,))


def _relu(x, out=None, ws=_fresh):
    return np.multiply(x, np.greater(x, 0, out=ws(0, x.shape, bool)), out=out)


def _relu_vjp(i, g, y, a, out=None, ws=_fresh):
    return np.multiply(g, np.greater(a, 0, out=ws(0, a.shape, bool)), out=out)


RELU = Op("relu", _relu, _relu_vjp, elementwise=True)


def relu(a: ArrayLike) -> Tensor:
    """Rectified linear unit."""
    return _apply(RELU, (a,))


def _leaky_scale(x, negative_slope, ws):
    """1 where ``x > 0``, ``negative_slope`` elsewhere."""
    scale = ws(0, x.shape)
    scale.fill(negative_slope)
    np.copyto(scale, 1.0, where=np.greater(x, 0, out=ws(1, x.shape, bool)))
    return scale


def _leaky_relu(x, out=None, ws=_fresh, *, negative_slope):
    return np.multiply(x, _leaky_scale(x, negative_slope, ws), out=out)


def _leaky_relu_vjp(i, g, y, a, out=None, ws=_fresh, *, negative_slope):
    return np.multiply(g, _leaky_scale(a, negative_slope, ws), out=out)


LEAKY_RELU = Op("leaky_relu", _leaky_relu, _leaky_relu_vjp, elementwise=True, flops=2.0)


def leaky_relu(a: ArrayLike, negative_slope: float = 0.01) -> Tensor:
    """Leaky rectified linear unit."""
    return _apply(LEAKY_RELU, (a,), negative_slope=float(negative_slope))


def _softplus(x, out=None, ws=_fresh):
    tail = np.abs(x, out=ws(0, x.shape))  # log1p(exp(-|x|))
    np.negative(tail, out=tail)
    np.exp(tail, out=tail)
    np.log1p(tail, out=tail)
    return np.add(np.maximum(x, 0.0, out=ws(1, x.shape)), tail, out=out)


def _softplus_vjp(i, g, y, a, out=None, ws=_fresh):
    return np.multiply(g, _sigmoid(a, out=ws("sigmoid", a.shape), ws=ws), out=out)


SOFTPLUS = Op("softplus", _softplus, _softplus_vjp, elementwise=True, flops=8.0)


def softplus(a: ArrayLike) -> Tensor:
    """Numerically stable ``log(1 + exp(a))``."""
    return _apply(SOFTPLUS, (a,))


# --------------------------------------------------------------------- #
# linear algebra
# --------------------------------------------------------------------- #
def _into(value: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
    """``value``, copied into ``out`` when one is given."""
    if out is None:
        return value
    np.copyto(out, value)
    return out


def _matmul_vjp(i, g, y, a, b, out=None, ws=_fresh):
    if i == 0:
        if b.ndim == 1:
            # (..., n) @ (n,) -> (...,): d/da = grad ⊗ b
            return np.multiply(g[..., None], b, out=out)
        if a.ndim == 1:
            # (n,) @ (..., n, k) -> (..., k): d/da = sum over batch of b grad
            return _into(tensor_module.unbroadcast((b @ g[..., None])[..., 0], a.shape), out)
        b_t = b.swapaxes(-1, -2)
        if a.shape[:-1] == g.shape[:-1]:
            return np.matmul(g, b_t, out=out)
        return _into(tensor_module.unbroadcast(g @ b_t, a.shape), out)
    if a.ndim == 1:
        # (n,) @ (..., n, k) -> (..., k): d/db = a ⊗ grad
        return np.multiply(a[:, None], g[..., None, :], out=out)
    if b.ndim == 1:
        # (..., m, n) @ (n,) -> (..., m): d/db = sum over batch of aᵀ grad
        return _into(tensor_module.unbroadcast(a * g[..., None], b.shape), out)
    if b.ndim == 2 and g.ndim > 2:
        # shared weight: one flat GEMM replaces batched matmul + sum
        flat_a = a.reshape(-1, a.shape[-1])
        return np.matmul(flat_a.T, g.reshape(-1, g.shape[-1]), out=out)
    a_t = a.swapaxes(-1, -2)
    if b.shape[:-2] == g.shape[:-2]:
        return np.matmul(a_t, g, out=out)
    return _into(tensor_module.unbroadcast(a_t @ g, b.shape), out)


MATMUL = Op("matmul", np.matmul, _matmul_vjp, flops=_gemm)


def matmul(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Matrix product with NumPy batching semantics (``a @ b``).

    The backward pass multiplies against ``swapaxes`` *views* (never
    materialized transposes) and, for the ubiquitous ``(..., m, n) @ (n, k)``
    shared-weight case, collapses the batch into a single
    ``(M, n)^T @ (M, k)`` GEMM instead of a batched product followed by a
    broadcast reduction.
    """
    return _apply(MATMUL, (a, b))


def _linear(x, weight, bias=None, out=None, ws=_fresh):
    out = np.matmul(x, weight, out=out)
    if bias is not None:
        np.add(out, bias, out=out)
    return out


def _linear_vjp(i, g, y, x, weight, bias=None, out=None, ws=_fresh):
    if i == 0:
        return np.matmul(g, weight.T, out=out)
    flat_g = g.reshape(-1, g.shape[-1])
    if i == 1:
        return np.matmul(x.reshape(-1, x.shape[-1]).T, flat_g, out=out)
    return np.add.reduce(flat_g, axis=0, out=out)


LINEAR = Op("linear", _linear, _linear_vjp, flops=_gemm)


def linear(x: ArrayLike, weight: ArrayLike, bias: Optional[ArrayLike] = None) -> Tensor:
    """Fused affine map ``x @ W + b`` for a shared 2-D weight.

    One forward GEMM (the bias is added in place into the product buffer)
    and one backward pass producing all three gradients:

    * ``dx = grad @ W^T`` (``swapaxes`` view, no transpose copy),
    * ``dW = x_flat^T @ grad_flat`` — a single GEMM over the collapsed
      batch, never the batched outer-product + reduction ``matmul`` takes,
    * ``db = grad_flat.sum(axis=0)`` via one ``np.add.reduce``.

    A bias of any shape other than ``(out_features,)`` is added by a
    separate broadcasting :func:`add`.  Per-sample generated weights
    (``W.ndim != 2``) are not fused — use ``matmul``/``add`` (or
    :func:`repro.tensor.functional.linear`, which dispatches) for those.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    if weight.data.ndim != 2:
        raise ValueError(f"linear expects a 2-D weight, got shape {weight.data.shape}")
    if bias is None:
        return _apply(LINEAR, (x, weight))
    bias = as_tensor(bias)
    if bias.data.shape != weight.data.shape[1:]:
        return add(_apply(LINEAR, (x, weight)), bias)
    return _apply(LINEAR, (x, weight, bias))


def _transpose(a, out=None, ws=_fresh, *, axes):
    return a.transpose(axes)


def _transpose_vjp(i, g, y, a, out=None, ws=_fresh, *, axes):
    return g.transpose(None if axes is None else np.argsort(axes))


TRANSPOSE = Op("transpose", _transpose, _transpose_vjp, view=True, rebinds=True, flops=0.0)


def transpose(a: ArrayLike, axes: Optional[Tuple[int, ...]] = None) -> Tensor:
    """Permute axes (reverse order when ``axes`` is None)."""
    return _apply(TRANSPOSE, (a,), axes=None if axes is None else tuple(int(ax) for ax in axes))


def _swapaxes(a, out=None, ws=_fresh, *, axis1, axis2):
    return a.swapaxes(axis1, axis2)


def _swapaxes_vjp(i, g, y, a, out=None, ws=_fresh, *, axis1, axis2):
    return g.swapaxes(axis1, axis2)


SWAPAXES = Op("swapaxes", _swapaxes, _swapaxes_vjp, view=True, rebinds=True, flops=0.0)


def swapaxes(a: ArrayLike, axis1: int, axis2: int) -> Tensor:
    """Interchange two axes."""
    return _apply(SWAPAXES, (a,), axis1=int(axis1), axis2=int(axis2))


# --------------------------------------------------------------------- #
# shape manipulation
# --------------------------------------------------------------------- #
def _reshape(a, out=None, ws=_fresh, *, shape):
    return a.reshape(shape)


def _reshape_vjp(i, g, y, a, out=None, ws=_fresh, *, shape):
    return g.reshape(a.shape)


RESHAPE = Op("reshape", _reshape, _reshape_vjp, view=True, rebinds=True, flops=0.0)


def reshape(a: ArrayLike, shape: Tuple[int, ...]) -> Tensor:
    """Reshape without copying semantics (gradient reshapes back)."""
    return _apply(RESHAPE, (a,), shape=shape)


#: index components that keep NumPy in *basic* (view, duplicate-free) mode
_BASIC_INDEX_TYPES = (int, np.integer, slice, type(Ellipsis), type(None))


def _is_unique_index(index) -> bool:
    """True when ``index`` selects each source element at most once.

    Basic indices (ints/slices/ellipsis) and boolean masks never repeat an
    element, nor does an integer array of distinct non-negative entries;
    their gradient scatter can then be a direct ``buffer[index] += grad``
    instead of the much slower duplicate-safe ``np.add.at``.
    """
    if isinstance(index, np.ndarray):
        if index.dtype == bool:
            return True
        return (
            index.dtype.kind in "iu"
            and bool((index >= 0).all())
            and np.unique(index).size == index.size
        )
    if isinstance(index, tuple):
        return all(isinstance(part, _BASIC_INDEX_TYPES) for part in index)
    return isinstance(index, _BASIC_INDEX_TYPES)


def _getitem(a, out=None, ws=_fresh, *, index, unique):
    return a[index]


def _getitem_scatter(buf, g, *, index, unique):
    if unique:
        buf[index] += g
    else:
        np.add.at(buf, index, g)


GETITEM = Op("getitem", _getitem, scatter=_getitem_scatter, rebinds=True, flops=0.0)


def getitem(a: ArrayLike, index) -> Tensor:
    """Index ``a``; the gradient scatters back into the parent's buffer.

    Duplicate-free indices (ints/slices/ellipsis, boolean masks, distinct
    integer arrays) use direct slice-``+=`` into the preallocated gradient
    buffer; possibly duplicated index arrays fall back to ``np.add.at``.
    """
    return _apply(GETITEM, (a,), index=index, unique=_is_unique_index(index))


def _gather(a, out=None, ws=_fresh, *, axis, index, grids):
    return np.take_along_axis(a, index, axis=axis)


def _gather_scatter(buf, g, *, axis, index, grids):
    if grids is None:
        np.put_along_axis(buf, index, np.take_along_axis(buf, index, axis=axis) + g, axis=axis)
    else:
        np.add.at(buf, grids, g)


GATHER = Op("gather", _gather, scatter=_gather_scatter, rebinds=True, flops=0.0)


def gather(a: ArrayLike, axis: int, index: np.ndarray) -> Tensor:
    """Select along ``axis`` with ``np.take_along_axis`` semantics.

    ``index`` must be an integer array with ``index.ndim == a.ndim`` (sizes
    match ``a`` except along ``axis``).  The backward scatter uses
    ``np.put_along_axis`` (read-add-write) whenever no lane of ``index``
    repeats a source position — decided once at forward time — and falls
    back to duplicate-safe ``np.add.at`` otherwise.  This is the op behind
    per-node parameter selection in the decoders.
    """
    a = as_tensor(a)
    idx = np.asarray(index)
    if not np.issubdtype(idx.dtype, np.integer):
        raise TypeError(f"gather index must be integer, got dtype {idx.dtype}")
    if idx.ndim != a.data.ndim:
        raise ValueError(f"gather index ndim {idx.ndim} != input ndim {a.data.ndim}")
    axis = axis % a.data.ndim if a.data.ndim else 0
    grids = None
    if idx.shape[axis] > 1:
        ordered = np.sort(idx, axis=axis)
        keep = [slice(None)] * idx.ndim
        drop = list(keep)
        keep[axis], drop[axis] = slice(1, None), slice(None, -1)
        if (ordered[tuple(keep)] == ordered[tuple(drop)]).any():
            grids = list(np.ogrid[tuple(slice(n) for n in idx.shape)])
            grids[axis] = idx
            grids = tuple(grids)
    return _apply(GATHER, (a,), axis=axis, index=idx, grids=grids)


def _concat(*xs, out=None, ws=_fresh, axis):
    return np.concatenate(xs, axis=axis, out=out)


def _concat_vjp(i, g, y, *xs, out=None, ws=_fresh, axis):
    start = builtins.sum(x.shape[axis] for x in xs[:i])
    return g[(slice(None),) * axis + (slice(start, start + xs[i].shape[axis]),)]


CONCAT = Op("concat", _concat, _concat_vjp, view=True, flops=0.0)


def concat(tensors: Sequence[ArrayLike], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    return _apply(CONCAT, tensors, axis=axis % tensors[0].data.ndim)


def _stack(*xs, out=None, ws=_fresh, axis):
    return np.stack(xs, axis=axis, out=out)


def _stack_vjp(i, g, y, *xs, out=None, ws=_fresh, axis):
    return np.moveaxis(g, axis, 0)[i]


STACK = Op("stack", _stack, _stack_vjp, view=True, flops=0.0)


def stack(tensors: Sequence[ArrayLike], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    return _apply(STACK, list(tensors), axis=axis)


def _interior(shape, pad_width) -> tuple:
    return tuple(slice(before, n - after) for n, (before, after) in zip(shape, pad_width))


def _pad(a, out=None, ws=_fresh, *, pad_width):
    if out is None:
        out = np.zeros(tuple(n + before + after for n, (before, after) in zip(a.shape, pad_width)))
    else:
        out.fill(0.0)
    out[_interior(out.shape, pad_width)] = a
    return out


def _pad_vjp(i, g, y, a, out=None, ws=_fresh, *, pad_width):
    return g[_interior(g.shape, pad_width)]


PAD = Op("pad", _pad, _pad_vjp, view=True, flops=0.0)


def pad(a: ArrayLike, pad_width: Sequence[Tuple[int, int]]) -> Tensor:
    """Zero-pad; the gradient slices the padding away."""
    return _apply(PAD, (a,), pad_width=tuple((int(lo), int(hi)) for lo, hi in pad_width))


def _broadcast_to(a, out=None, ws=_fresh, *, shape):
    if out is None:
        out = np.empty(shape)
    np.copyto(out, a)
    return out


def _broadcast_to_vjp(i, g, y, a, out=None, ws=_fresh, *, shape):
    return g  # summed back to the operand shape by unbroadcast


BROADCAST_TO = Op("broadcast_to", _broadcast_to, _broadcast_to_vjp, view=True, flops=0.0)


def broadcast_to(a: ArrayLike, shape: Tuple[int, ...]) -> Tensor:
    """Broadcast to ``shape``; the gradient sums back (via unbroadcast)."""
    return _apply(BROADCAST_TO, (a,), shape=tuple(shape))


# --------------------------------------------------------------------- #
# reductions
# --------------------------------------------------------------------- #
def _kept(grad: np.ndarray, shape: Tuple[int, ...], axis: Axis, keepdims: bool) -> np.ndarray:
    """A reduction's output (or its gradient) in the ``keepdims`` layout,
    so it broadcasts against the reduced input of ``shape``."""
    if keepdims:
        return grad
    if axis is None:
        return np.reshape(grad, (1,) * len(shape))
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(ax % len(shape) for ax in axes)
    return np.reshape(grad, tuple(1 if i in axes else n for i, n in enumerate(shape)))


def _sum(a, out=None, ws=_fresh, *, axis, keepdims):
    return a.sum(axis=axis, keepdims=keepdims, out=out)


def _sum_vjp(i, g, y, a, out=None, ws=_fresh, *, axis, keepdims):
    return np.broadcast_to(_kept(g, a.shape, axis, keepdims), a.shape)


SUM = Op("sum", _sum, _sum_vjp, view=True, flops=_per_input)


def sum(a: ArrayLike, axis: Axis = None, keepdims: bool = False) -> Tensor:  # noqa: A001
    """Sum over ``axis``."""
    return _apply(SUM, (a,), axis=axis, keepdims=keepdims)


def _mean_vjp(i, g, y, a, out=None, ws=_fresh, *, axis, keepdims):
    count = a.size / builtins.max(y.size, 1)
    if out is None:
        out = np.empty(a.shape)
    return np.divide(_kept(g, a.shape, axis, keepdims), count, out=out)


def _mean(a, out=None, ws=_fresh, *, axis, keepdims):
    return a.mean(axis=axis, keepdims=keepdims, out=out)


MEAN = Op("mean", _mean, _mean_vjp, flops=_per_input)


def mean(a: ArrayLike, axis: Axis = None, keepdims: bool = False) -> Tensor:
    """Mean over ``axis``."""
    return _apply(MEAN, (a,), axis=axis, keepdims=keepdims)


def var(a: ArrayLike, axis: Axis = None, keepdims: bool = False) -> Tensor:
    """Biased variance over ``axis`` (composite, fully differentiable)."""
    a = as_tensor(a)
    centered = sub(a, mean(a, axis=axis, keepdims=True))
    return mean(mul(centered, centered), axis=axis, keepdims=keepdims)


def _max_vjp(i, g, y, a, out=None, ws=_fresh, *, axis, keepdims):
    # the gradient splits evenly across ties
    share = ws(1, a.shape)
    np.copyto(share, np.equal(a, _kept(y, a.shape, axis, keepdims), out=ws(0, a.shape, bool)))
    np.divide(share, share.sum(axis=axis, keepdims=True), out=share)
    return np.multiply(_kept(g, a.shape, axis, keepdims), share, out=out)


def _max(a, out=None, ws=_fresh, *, axis, keepdims):
    return a.max(axis=axis, keepdims=keepdims, out=out)


MAX = Op("max", _max, _max_vjp, flops=_per_input)


def max(a: ArrayLike, axis: Axis = None, keepdims: bool = False) -> Tensor:  # noqa: A001
    """Maximum over ``axis``; gradient splits evenly across ties."""
    return _apply(MAX, (a,), axis=axis, keepdims=keepdims)


def min(a: ArrayLike, axis: Axis = None, keepdims: bool = False) -> Tensor:  # noqa: A001
    """Minimum over ``axis``; gradient splits evenly across ties."""
    return neg(max(neg(a), axis=axis, keepdims=keepdims))


# --------------------------------------------------------------------- #
# softmax / normalization primitives
# --------------------------------------------------------------------- #
def _kept_shape(shape, axis) -> tuple:
    """``shape`` with ``axis`` reduced to 1 (the ``keepdims`` shape)."""
    kept = list(shape)
    kept[axis] = 1
    return tuple(kept)


def _softmax(x, out=None, ws=_fresh, *, axis):
    exps = np.subtract(x, x.max(axis=axis, keepdims=True), out=ws(0, x.shape))
    np.exp(exps, out=exps)
    return np.divide(exps, exps.sum(axis=axis, keepdims=True), out=out)


def _softmax_vjp(i, g, y, a, out=None, ws=_fresh, *, axis):
    grad = np.multiply(g, y, out=out)  # y * (g - sum(g * y))
    inner = grad.sum(axis=axis, keepdims=True, out=ws(0, _kept_shape(y.shape, axis)))
    np.subtract(g, inner, out=grad)
    return np.multiply(grad, y, out=grad)


SOFTMAX = Op("softmax", _softmax, _softmax_vjp, flops=8.0)


def softmax(a: ArrayLike, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` with a fused backward."""
    return _apply(SOFTMAX, (a,), axis=int(axis))


def _log_softmax(x, out=None, ws=_fresh, *, axis):
    shifted = np.subtract(x, x.max(axis=axis, keepdims=True), out=ws(0, x.shape))
    log_z = np.log(np.exp(shifted, out=ws(1, x.shape)).sum(axis=axis, keepdims=True))
    return np.subtract(shifted, log_z, out=out)


def _log_softmax_vjp(i, g, y, a, out=None, ws=_fresh, *, axis):
    grad = np.exp(y, out=out)  # g - softmax * sum(g)
    np.multiply(grad, g.sum(axis=axis, keepdims=True, out=ws(0, _kept_shape(y.shape, axis))), out=grad)
    return np.subtract(g, grad, out=grad)


LOG_SOFTMAX = Op("log_softmax", _log_softmax, _log_softmax_vjp, flops=8.0)


def log_softmax(a: ArrayLike, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    return _apply(LOG_SOFTMAX, (a,), axis=int(axis))


DROPOUT_MASK = Op("dropout_mask", np.multiply, _mul_vjp, elementwise=True)


def dropout_mask(a: ArrayLike, mask: np.ndarray) -> Tensor:
    """Apply a fixed (already scaled) dropout mask; gradient uses same mask."""
    return _apply(DROPOUT_MASK, (a, mask))


#: the primitive ops exposed to tracing; ``var`` and ``min`` are composites
#: whose constituent primitives are traced instead
TRACED_OPS = tuple(OPS)
