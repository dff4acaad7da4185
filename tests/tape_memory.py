"""What a loss graph holds for backward, for the memory pins of the tests.

The method is ROADMAP's "Measured" one: walk the graph of one loss before
``backward()`` and collect the arrays its backward closures capture,
deduplicated by base array, with sparse matrices counted and parameters
excluded.
"""

from collections import Counter

import numpy as np
from scipy import sparse

from mddcnet.tensor import Tensor
from mddcnet.data import generate_split
from mddcnet.train import assign_targets, detection_loss, stack_targets


def n_toy_loss(model, n_scenes=2):
    """The detection loss of ``model`` on ``n_scenes`` 64² scenes, taped."""
    scenes = generate_split(0, n_scenes)
    x = Tensor(np.stack([s.image for s in scenes]))
    targets = stack_targets([assign_targets(s.annotations, 64) for s in scenes])
    return detection_loss(model(x), targets)["total"]


def backward_closures(loss):
    """The backward closure of every op in ``loss``'s graph, before backward()."""
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen or node._backward is None:
            continue
        seen.add(id(node))
        yield node._backward
        stack.extend(node._parents)


def free_vars(fn) -> dict:
    """A closure's free variables by name."""
    return dict(zip(fn.__code__.co_freevars,
                    (c.cell_contents for c in fn.__closure__)))


def base_array(value: np.ndarray) -> np.ndarray:
    """The array that owns ``value``'s memory."""
    while isinstance(value.base, np.ndarray):
        value = value.base
    return value


def held_roots(fn, exclude):
    """The base arrays a backward closure holds, by id: arrays its cells
    capture, in nested closures, tuples and lists too, with a sparse
    matrix's arrays counted and the arrays in ``exclude`` (ids) left out."""
    held, stack, closures = {}, [fn], set()
    while stack:
        value = stack.pop()
        if sparse.issparse(value):
            stack.extend(vars(value).values())    # CSR, COO, ... arrays
        elif isinstance(value, np.ndarray):
            value = base_array(value)
            if id(value) not in exclude:
                held[id(value)] = value
        elif isinstance(value, (tuple, list)):
            stack.extend(value)
        elif getattr(value, "__closure__", None) and id(value) not in closures:
            closures.add(id(value))
            stack.extend(c.cell_contents for c in value.__closure__)
    return held


def op_name(fn) -> str:
    """The op a backward closure belongs to: its qualname up to the first
    '<locals>', e.g. 'conv2d' or 'Tensor.gelu'."""
    return fn.__qualname__.split(".<locals>")[0]


def held_bytes_by_op(loss, exclude) -> Counter:
    """Bytes ``loss``'s graph holds for backward, by op name: each base array
    is counted once, for the first op of the walk that holds it, so the
    values add up to what the whole tape holds."""
    by_op, seen = Counter(), set()
    for fn in backward_closures(loss):
        for key, arr in held_roots(fn, exclude).items():
            if key not in seen:
                seen.add(key)
                by_op[op_name(fn)] += arr.nbytes
    return by_op
