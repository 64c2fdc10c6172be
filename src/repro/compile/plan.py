"""Lowering: turn a captured op stream into a replayable linear program.

``lower_training_plan`` / ``lower_predict_plan`` walk a
:class:`repro.compile.capture.CaptureRecorder` exactly once and emit a
:class:`CompiledPlan`:

* a **node table** classifying every array in the trace as per-step input
  (``x``/``y``, rebound by name each replay), parameter (re-read through
  ``parameter.data`` so optimizer rebinds are seen), host input (per-step
  RNG draw, regenerated each replay to keep the serial RNG stream), or
  frozen constant (everything else — precomputed supports, scalars);
* a **forward program** binding each recorded op's table entry
  (:data:`repro.tensor.ops.OPS`) to preallocated arena buffers
  (consecutive single-consumer elementwise ops are fused into one chain
  instruction);
* an **adjoint program** emitted by walking the recorded graph once in
  reverse, binding the same entries' VJPs — assign-vs-accumulate is
  decided per gradient buffer at build time, so replay does no tape, no
  graph, and no autograd bookkeeping.

The capture records each call already bound (tensor operands plus static
config), so lowering needs no per-op argument parsing: the plan runs the
very forward and VJP code the interpreted tape runs.

Anything the op stream cannot faithfully replay raises
:class:`LoweringError` — host inputs without a regeneration closure, a
step output no op produced, or a training trace that never touches a
parameter.  The executor treats a :class:`LoweringError` as "this
signature is interpreted-only" and falls back.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..tensor.ops import OPS, Op
from ..tensor.tensor import Tensor, unbroadcast
from .capture import CaptureRecorder, TraceRecord

__all__ = ["CompiledPlan", "LoweringError", "lower_predict_plan", "lower_training_plan"]


class LoweringError(RuntimeError):
    """The captured step cannot be lowered to a replayable plan."""


class _LoweredOp:
    """One table entry bound to node-id operands and its static config.

    ``traced`` holds the trace-time ``(y, xs)`` arrays; view VJPs read
    their shapes once at build time.
    """

    __slots__ = ("op", "ins", "out", "static", "traced")

    def __init__(self, op: Op, ins: Tuple[int, ...], out: int, static: dict, traced: tuple) -> None:
        self.op = op
        self.ins = ins
        self.out = out
        self.static = static
        self.traced = traced


class _Node:
    __slots__ = ("kind", "shape", "dtype", "requires")

    def __init__(self, kind: str, shape: Tuple[int, ...], dtype, requires: bool) -> None:
        self.kind = kind
        self.shape = shape
        self.dtype = dtype
        self.requires = requires


def _scratch() -> Callable:
    """One instruction's workspace (an op's ``ws``): each ``(key, shape,
    dtype)`` is allocated on first use and the same buffer is handed back
    on every later replay, so steady-state replay allocates nothing."""

    @lru_cache(maxsize=None)
    def ws(key, shape, dtype=np.float64) -> np.ndarray:
        return np.empty(shape, dtype)

    return ws


class CompiledPlan:
    """A trace-once/replay-many program for one fixed-shape step."""

    def __init__(
        self,
        slots: list,
        input_binds: List[Tuple[int, str]],
        param_binds: List[Tuple[int, object]],
        host_binds: List[Tuple[Callable[[], np.ndarray], Optional[int]]],
        forward: List[Callable[[], None]],
        adjoint: List[Callable[[], None]],
        output: int,
        param_grads: List[Tuple[object, np.ndarray]],
        stats: dict,
    ) -> None:
        self._slots = slots
        self._input_binds = input_binds
        self._param_binds = param_binds
        self._host_binds = host_binds
        self._forward = forward
        self._adjoint = adjoint
        self._output = output
        self._param_grads = param_grads
        self.stats = stats

    def run_forward(self, bindings: Dict[str, np.ndarray]) -> np.ndarray:
        """Replay the forward program against fresh per-step ``bindings``."""
        slots = self._slots
        for nid, name in self._input_binds:
            slots[nid] = bindings[name]
        for nid, param in self._param_binds:
            slots[nid] = param.data
        for regen, nid in self._host_binds:
            # every regen runs, even for draws whose ops were pruned, so the
            # module generators stay in lockstep with the serial trajectory
            value = regen()
            if nid is not None:
                slots[nid] = value
        for instruction in self._forward:
            instruction()
        return slots[self._output]

    def run_adjoint(self) -> None:
        """Replay the precomputed adjoint program (no tape, no graph)."""
        for instruction in self._adjoint:
            instruction()

    def export_grads(self) -> None:
        """Hand the plan-owned gradient buffers to their parameters."""
        for param, buf in self._param_grads:
            param.grad = buf


class _PlanBuilder:
    """Node table + buffer arena + assign/accumulate bookkeeping."""

    def __init__(self, recorder: CaptureRecorder, need_grads: bool) -> None:
        self._recorder = recorder
        self._need_grads = need_grads
        self.nodes: List[_Node] = []
        self.slots: list = []
        self.grads: list = []
        self._by_tensor: Dict[int, int] = {}
        self._by_const: Dict[int, int] = {}
        self._const_keep: list = []  # pin key arrays so ids are never recycled
        self._by_host: Dict[int, int] = {}
        self._grad_seen: set = set()
        self._accum_scratch: Dict[Tuple[int, ...], np.ndarray] = {}
        self.buffer_bytes = 0
        self.input_binds: List[Tuple[int, str]] = []
        self.param_binds: List[Tuple[int, object]] = []

    # ------------------------------------------------------------------ #
    # node construction
    # ------------------------------------------------------------------ #
    def _new_node(self, kind: str, shape, dtype, requires: bool) -> int:
        nid = len(self.nodes)
        self.nodes.append(_Node(kind, tuple(shape), dtype, requires))
        self.slots.append(None)
        self.grads.append(None)
        return nid

    def add_param(self, param) -> int:
        nid = self._new_node(
            "param", param.data.shape, param.data.dtype,
            self._need_grads and bool(param.requires_grad),
        )
        self._by_tensor[id(param)] = nid
        self.param_binds.append((nid, param))
        return nid

    def add_input(self, name: str, tensor) -> int:
        nid = self._new_node("input", tensor.data.shape, tensor.data.dtype, False)
        self._by_tensor[id(tensor)] = nid
        self.input_binds.append((nid, name))
        return nid

    def _host_node(self, host_index: int, array: np.ndarray) -> int:
        nid = self._by_host.get(host_index)
        if nid is None:
            nid = self._new_node("host", array.shape, array.dtype, False)
            self._by_host[host_index] = nid
        return nid

    def _const_node(self, array: np.ndarray) -> int:
        key = id(array)
        nid = self._by_const.get(key)
        if nid is None:
            nid = self._new_node("const", array.shape, array.dtype, False)
            # frozen copy: the host may reuse or mutate the original buffer
            # (np.array, not ascontiguousarray — the latter promotes 0-d to 1-d)
            self.slots[nid] = np.array(array)
            self.buffer_bytes += self.slots[nid].nbytes
            self._by_const[key] = nid
            self._const_keep.append(array)
        return nid

    def tid(self, value: Tensor) -> int:
        """Node id for one tensor operand."""
        nid = self._by_tensor.get(id(value))
        if nid is None:
            host = self._recorder.host_index(value.data)
            nid = self._host_node(host, value.data) if host is not None else self._const_node(value.data)
            self._by_tensor[id(value)] = nid
        return nid

    def add_op_out(self, out_tensor, ins: Tuple[int, ...]) -> int:
        requires = self._need_grads and any(self.nodes[i].requires for i in ins)
        nid = self._new_node("op", out_tensor.data.shape, out_tensor.data.dtype, requires)
        self._by_tensor[id(out_tensor)] = nid
        return nid

    # ------------------------------------------------------------------ #
    # arena
    # ------------------------------------------------------------------ #
    def shape(self, nid: int) -> Tuple[int, ...]:
        return self.nodes[nid].shape

    def requires(self, nid: int) -> bool:
        return self.nodes[nid].requires

    def out_buffer(self, nid: int) -> np.ndarray:
        node = self.nodes[nid]
        buf = np.empty(node.shape, dtype=node.dtype)
        self.slots[nid] = buf
        self.buffer_bytes += buf.nbytes
        return buf

    def accum_scratch(self, shape) -> np.ndarray:
        """Shared staging buffer for accumulate-mode contributions.

        Adjoint instructions run strictly sequentially and each one consumes
        its staging buffer before the next starts, so one scratch per shape
        serves every accumulate site of that shape.
        """
        buf = self._accum_scratch.get(shape)
        if buf is None:
            buf = np.empty(shape, dtype=np.float64)
            self._accum_scratch[shape] = buf
            self.buffer_bytes += buf.nbytes
        return buf

    def grad_buffer(self, nid: int) -> np.ndarray:
        buf = self.grads[nid]
        if buf is None:
            buf = np.empty(self.nodes[nid].shape, dtype=np.float64)
            self.grads[nid] = buf
            self.buffer_bytes += buf.nbytes
        return buf

    def mark_contribution(self, nid: int) -> bool:
        """True for the first gradient contribution to ``nid`` (assign mode)."""
        first = nid not in self._grad_seen
        self._grad_seen.add(nid)
        return first


# --------------------------------------------------------------------- #
# binding table entries to the arena
# --------------------------------------------------------------------- #
def _lower_record(builder: _PlanBuilder, rec: TraceRecord) -> _LoweredOp:
    ins = tuple(builder.tid(t) for t in rec.args)
    # frozen copies of array-valued config (gather/getitem indices)
    static = {k: np.array(v) if isinstance(v, np.ndarray) else v for k, v in rec.kwargs.items()}
    traced = (rec.out.data, [t.data for t in rec.args])
    return _LoweredOp(OPS[rec.name], ins, builder.add_op_out(rec.out, ins), static, traced)


def _replay(call: Callable, s: list, nids: Tuple[int, ...], out, ws) -> Callable[[], np.ndarray]:
    """Instruction calling ``call(*slots[nids], out=out, ws=ws)`` on the
    slots' current values (unrolled for the common arities)."""
    if len(nids) == 1:
        (a,) = nids
        return lambda: call(s[a], out=out, ws=ws)
    if len(nids) == 2:
        a, b = nids
        return lambda: call(s[a], s[b], out=out, ws=ws)
    if len(nids) == 3:
        a, b, c = nids
        return lambda: call(s[a], s[b], s[c], out=out, ws=ws)
    if len(nids) == 4:
        a, b, c, d = nids
        return lambda: call(s[a], s[b], s[c], s[d], out=out, ws=ws)
    return lambda: call(*[s[k] for k in nids], out=out, ws=ws)


def _bind_forward(builder: _PlanBuilder, lop: _LoweredOp) -> Callable[[], None]:
    forward, s, ins = lop.op.forward, builder.slots, lop.ins
    if lop.op.rebinds:
        # views and gathers: one operand, a fresh result rebound each replay
        call, (a,), o = partial(forward, **lop.static), ins, lop.out

        def run():
            s[o] = call(s[a])

        return run
    buf = builder.out_buffer(lop.out)
    if isinstance(forward, np.ufunc):
        # a bare ufunc (unary or binary) takes no workspace
        if len(ins) == 1:
            (a,) = ins
            return lambda: forward(s[a], out=buf)
        a, b = ins
        return lambda: forward(s[a], s[b], out=buf)
    call = partial(forward, **lop.static) if lop.static else forward
    return _replay(call, s, ins, buf, _scratch())


def _sink(buf: np.ndarray, first: bool) -> Callable[[np.ndarray], None]:
    """Write (first contribution) or add a gradient value into ``buf``,
    summing broadcast axes like ``Tensor._accumulate`` does."""
    shape = buf.shape
    if first:
        return lambda value: np.copyto(buf, unbroadcast(value, shape))
    return lambda value: unbroadcast(value, shape, out=buf)


def _bind_vjp(builder: _PlanBuilder, lop: _LoweredOp, i: int, buf: np.ndarray, first: bool):
    """Operand ``i``'s VJP computed straight into its gradient buffer (first
    contribution) or the shared per-shape staging buffer plus one add."""
    ws = _scratch()
    natural = builder.shape(lop.out) if lop.op.elementwise else buf.shape
    if natural != buf.shape:
        dest = ws("vjp", natural)  # broadcast operand: full-shape VJP, then reduce
    elif first:
        dest = buf
    else:
        dest = builder.accum_scratch(buf.shape)
    call = partial(lop.op.vjp, i, builder.grad_buffer(lop.out), **lop.static)
    value = _replay(call, builder.slots, (lop.out,) + lop.ins, dest, ws)
    if dest is buf:
        return value
    if natural != buf.shape:
        sink = _sink(buf, first)
        return lambda: sink(value())

    def accumulate():
        value()
        np.add(buf, dest, out=buf)

    return accumulate


def _bind_scatter(scatter, buf: np.ndarray, go: np.ndarray, static: dict, first: bool):
    call = partial(scatter, buf, go, **static)
    if not first:
        return call

    def run():
        buf.fill(0.0)
        call()

    return run


def _bind_adjoint(builder: _PlanBuilder, lop: _LoweredOp) -> List[Callable[[], None]]:
    op = lop.op
    go = builder.grad_buffer(lop.out)
    fns = []
    for i, nid in enumerate(lop.ins):
        if not builder.requires(nid):
            continue
        first = builder.mark_contribution(nid)
        buf = builder.grad_buffer(nid)
        if op.scatter is not None:
            fns.append(_bind_scatter(op.scatter, buf, go, lop.static, first))
        elif op.is_view(i):
            # the gradient buffer is fixed for the plan's life, so the view
            # is taken once here and copied/added on every replay
            y, xs = lop.traced
            view = op.vjp(i, go, y, *xs, **lop.static)
            if view.shape != buf.shape:
                fns.append(partial(_sink(buf, first), view))
            elif first:
                fns.append(partial(np.copyto, buf, view))
            else:
                fns.append(partial(np.add, buf, view, out=buf))
        else:
            fns.append(_bind_vjp(builder, lop, i, buf, first))
    return fns


def _group(fns: List[Callable[[], None]]) -> Callable[[], None]:
    if len(fns) == 1:
        return fns[0]
    chain = tuple(fns)

    def fused() -> None:
        for fn in chain:
            fn()

    return fused


def _assign_chains(kept: List[_LoweredOp], consumers: Dict[int, int]) -> List[Optional[int]]:
    """Chain id per op: maximal runs of single-consumer elementwise ops."""
    chain_id: List[Optional[int]] = [None] * len(kept)
    next_id = 0
    i = 0
    while i < len(kept):
        if kept[i].op.elementwise:
            j = i
            while (
                j + 1 < len(kept)
                and kept[j + 1].op.elementwise
                and consumers.get(kept[j].out, 0) == 1
                and kept[j].out in kept[j + 1].ins
            ):
                j += 1
            if j > i:
                for k in range(i, j + 1):
                    chain_id[k] = next_id
                next_id += 1
            i = j + 1
        else:
            i += 1
    return chain_id


def _lower(recorder: CaptureRecorder, output_tensor, need_grads: bool) -> CompiledPlan:
    builder = _PlanBuilder(recorder, need_grads)
    for param in recorder.params:
        builder.add_param(param)
    for input_name, tensor in recorder.inputs.items():
        builder.add_input(input_name, tensor)
    if need_grads and not any(builder.nodes[nid].requires for nid, _ in builder.param_binds):
        raise LoweringError("training trace has no parameter requiring grad")

    ops = [_lower_record(builder, rec) for rec in recorder.records]
    output = builder._by_tensor.get(id(output_tensor))
    if output is None:
        raise LoweringError("step output was not produced by a traced op")

    # prune to the ancestors of the output (capture order is a topo order)
    needed = {output}
    keep = [False] * len(ops)
    for i in range(len(ops) - 1, -1, -1):
        if ops[i].out in needed:
            keep[i] = True
            needed.update(ops[i].ins)
    kept = [op for op, keeping in zip(ops, keep) if keeping]

    consumers: Dict[int, int] = {}
    for op in kept:
        for nid in op.ins:
            consumers[nid] = consumers.get(nid, 0) + 1
    consumers[output] = consumers.get(output, 0) + 1
    chain_id = _assign_chains(kept, consumers)

    # forward program: bind every entry, then group fused chains
    forward: List[Callable[[], None]] = []
    pending: List[Callable[[], None]] = []
    pending_chain: Optional[int] = None
    for op, cid in zip(kept, chain_id):
        fn = _bind_forward(builder, op)
        if cid is not None and cid == pending_chain:
            pending.append(fn)
            continue
        if pending:
            forward.append(_group(pending))
        pending, pending_chain = [fn], cid
    if pending:
        forward.append(_group(pending))

    # adjoint program: reverse walk, grouped by the same chains
    adjoint: List[Callable[[], None]] = []
    param_grads: List[Tuple[object, np.ndarray]] = []
    if need_grads:
        seed = builder.grad_buffer(output)
        seed.fill(1.0)
        builder.mark_contribution(output)
        pending, pending_chain = [], None
        for op, cid in zip(reversed(kept), reversed(chain_id)):
            if not builder.requires(op.out):
                continue
            fns = _bind_adjoint(builder, op)
            if not fns:
                continue
            if cid is not None and cid == pending_chain:
                pending.extend(fns)
                continue
            if pending:
                adjoint.append(_group(pending))
            pending, pending_chain = list(fns), cid
        if pending:
            adjoint.append(_group(pending))
        for nid, param in builder.param_binds:
            if builder.nodes[nid].requires and builder.grads[nid] is not None:
                param_grads.append((param, builder.grads[nid]))

    host_binds: List[Tuple[Callable[[], np.ndarray], Optional[int]]] = []
    for host_index, (_, regen) in enumerate(recorder.host_inputs):
        if regen is None:
            raise LoweringError("host input registered without a regeneration closure")
        host_binds.append((regen, builder._by_host.get(host_index)))

    fused_chains = len({cid for cid in chain_id if cid is not None})
    fused_ops = sum(1 for cid in chain_id if cid is not None)
    longest = max(Counter(cid for cid in chain_id if cid is not None).values()) if fused_chains else 0
    stats = {
        "ops_captured": len(recorder.records),
        "ops_kept": len(kept),
        "forward_instructions": len(forward),
        "adjoint_instructions": len(adjoint),
        "fused_chains": fused_chains,
        "fused_ops": fused_ops,
        "longest_chain": longest,
        "inputs": len(builder.input_binds),
        "params": len(builder.param_binds),
        "consts": len(builder._by_const),
        "host_inputs": len(host_binds),
        # arena bytes; per-instruction scratch is allocated on first replay
        "buffer_bytes": builder.buffer_bytes,
    }
    return CompiledPlan(
        builder.slots,
        builder.input_binds,
        builder.param_binds,
        host_binds,
        forward,
        adjoint,
        output,
        param_grads,
        stats,
    )


def lower_training_plan(recorder: CaptureRecorder, loss_tensor) -> CompiledPlan:
    """Lower one captured train step (forward + loss) to a plan with adjoints."""
    if recorder.dead:
        raise LoweringError(recorder.dead_reason or "capture marked unsupported")
    return _lower(recorder, output_tensor=loss_tensor, need_grads=True)


def lower_predict_plan(recorder: CaptureRecorder, output_tensor) -> CompiledPlan:
    """Lower one captured forward pass to a replay-only plan (no adjoints)."""
    if recorder.dead:
        raise LoweringError(recorder.dead_reason or "capture marked unsupported")
    return _lower(recorder, output_tensor, need_grads=False)
