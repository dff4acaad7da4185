"""Span tracer for the traced benchmark run.

Spans are recorded from outside the program: while a ``Tracer`` is installed
it replaces the public entry point of each layer (a module class's
``__call__`` or a module-level function) with a timed wrapper, and it wraps
the tape's node constructor ``Tensor._node`` so that every backward closure
is timed and charged to the layers that were open when its node was created.
``uninstall`` puts every original back, so the untraced run executes the
program exactly as shipped.

Per operation (one training step) the tracer keeps:
- inclusive and self seconds per span name (self = duration minus the time
  covered by child spans, so the self times of all spans sum to the
  operation's root span);
- backward seconds per forward layer and per op;
- tape node counts per op, and bytes held by the tape.

Tape bytes are computed from array sizes: each recorded node's output array
and every array its backward closure captures, resolved to the owning base
buffer and counted once per operation. Parameter arrays are not counted.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np

from mddcnet import ffn_attn, model as m_model, msddc, ssm, tensor

clock = time.perf_counter

# span name -> (owner, attribute) of the wrapped entry point
LAYER_ENTRY_POINTS = {
    "model": (m_model.MddcNet, "__call__"),
    "neck": (m_model.A2Fpn, "__call__"),
    "head": (m_model.Head, "__call__"),
    "msddc": (msddc.Msddc, "__call__"),
    "msddc.deform": (msddc, "deform_dilated_conv"),
    "ssm": (ssm.MambaBlock, "__call__"),
    "ssm.scan": (ssm, "selective_scan"),
    "ffn": (ffn_attn.CeFfn, "__call__"),
    "attn": (ffn_attn.Csca, "__call__"),
    "conv2d": (tensor.Conv2d, "__call__"),
}


def _op_name(backward) -> str:
    """'conv2d.<locals>.back' -> 'conv2d'; lambdas keep their enclosing name."""
    return backward.__qualname__.split(".<locals>")[0]


def _root(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def _held_arrays(value, depth: int = 0):
    """Arrays reachable from a closure cell: ndarrays, Tensors, objects with
    a ``tensor`` attribute (OffsetField), and one level of tuples/lists."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tensor.Tensor):
        yield value.data
    elif depth == 0 and isinstance(value, (tuple, list)):
        for item in value:
            yield from _held_arrays(item, 1)
    elif depth == 0 and isinstance(getattr(value, "tensor", None), tensor.Tensor):
        yield value.tensor.data


class NoTracer:
    """Stands in for a ``Tracer`` in untraced operations."""

    _null = nullcontext()

    def span(self, name):
        return self._null

    def operation(self, params):
        return self._null


class Tracer:
    """Aggregates spans and tape statistics over the traced operations of a run."""

    def __init__(self):
        self.op_seconds: list[float] = []
        self.incl = defaultdict(float)        # span name -> inclusive seconds
        self.self_s = defaultdict(float)      # span name -> self seconds
        self.calls = Counter()                # span name -> calls
        self.bwd_by_layer = defaultdict(float)  # layer on the stack -> seconds
        self.bwd_by_op = defaultdict(float)   # tape op -> seconds
        self.nodes_by_op = Counter()
        self.bytes_by_layer = Counter()       # layer on the stack -> bytes
        self.tape_bytes = 0
        self.ssm_tokens = 0
        self._stack: list[list] = []          # [name, start, child seconds]
        # buffers counted in this operation, kept alive so no id is reused
        self._seen: dict[int, np.ndarray] = {}
        self._param_ids: set[int] = set()
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str):
        self._stack.append([name, clock(), 0.0])

    def _exit(self):
        name, start, child = self._stack.pop()
        dur = clock() - start
        if all(f[0] != name for f in self._stack):
            self.incl[name] += dur
        self.self_s[name] += dur - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    @contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    @contextmanager
    def operation(self, params):
        """Root span of one training step. ``params`` are excluded from
        tape bytes; the arrays seen are released when the operation ends."""
        self._param_ids = {id(_root(p.data)) for p in params}
        self._seen.clear()
        self._enter("op")
        try:
            yield
        finally:
            self.op_seconds.append(self._exit())
            self._seen.clear()

    def _timed(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if name == "ssm":
                x = args[1]
                tracer.ssm_tokens += x.shape[0] * x.shape[1]
            tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit()
            return out

        return wrapper

    # -- tape ------------------------------------------------------------------

    def _node(self, orig):
        tracer = self

        def node(data, parents, backward):
            out = orig(data, parents, backward)
            if out._backward is None:
                return out
            op = _op_name(backward)
            layers = tuple(dict.fromkeys(f[0] for f in tracer._stack))
            owner = "bwd." + (layers[-1] if layers else "op")
            tracer.nodes_by_op[op] += 1
            new = 0
            cells = [c.cell_contents for c in (backward.__closure__ or ())]
            for arr in (a for v in [out.data] + cells for a in _held_arrays(v)):
                root = _root(arr)
                key = id(root)
                if key in tracer._param_ids or key in tracer._seen:
                    continue
                tracer._seen[key] = root
                new += root.nbytes
            tracer.tape_bytes += new
            for layer in layers:
                tracer.bytes_by_layer[layer] += new

            def timed_backward(g):
                tracer._enter(owner)
                try:
                    return backward(g)
                finally:
                    dt = tracer._exit()
                    tracer.bwd_by_op[op] += dt
                    for layer in layers:
                        tracer.bwd_by_layer[layer] += dt

            out._backward = timed_backward
            return out

        return node

    # -- install / uninstall -----------------------------------------------------

    def install(self):
        for name, (owner, attr) in LAYER_ENTRY_POINTS.items():
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, self._timed(name, orig))
        self._saved.append((tensor.Tensor, "_node",
                            tensor.Tensor.__dict__["_node"]))
        tensor.Tensor._node = staticmethod(self._node(tensor.Tensor._node))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- per-operation results -------------------------------------------------

    @property
    def ops(self) -> int:
        return len(self.op_seconds)

    def per_op(self, value: float) -> float:
        return value / max(self.ops, 1)
