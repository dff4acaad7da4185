"""The benchmark's span tracer (``perfbench/spans.py``) on one n-toy step:
it must not change what the step computes, must put back everything it
patches, and must still reach the layer entry points it names."""

import importlib.util
from pathlib import Path

import numpy as np

from mddcnet.model import MddcNet, variant_config
from mddcnet.tensor import Tensor

from tape_memory import n_toy_loss

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def _step(model, tracer):
    """One taped n-toy loss and its backward: the loss and the gradients."""
    model.zero_grad()
    with tracer.operation(model.parameters()):
        loss = n_toy_loss(model)
        loss.backward()
    return loss.data, [p.grad for p in model.parameters()]


def _patched():
    """The attributes a ``Tracer`` replaces, as they stand now."""
    points = [*spans.LAYER_ENTRY_POINTS.values(), (Tensor, "_node")]
    return {(owner, attr): owner.__dict__[attr] for owner, attr in points}


def test_tracer_leaves_the_step_and_the_program_as_they_were():
    untraced = _step(MddcNet(variant_config("n-toy"), np.random.default_rng(0)),
                     spans.NoTracer())
    model = MddcNet(variant_config("n-toy"), np.random.default_rng(0))
    before = _patched()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(_patched()[k] is not v for k, v in before.items())
        traced = _step(model, tracer)
    finally:
        tracer.uninstall()
    assert all(_patched()[k] is v for k, v in before.items())
    assert np.array_equal(traced[0], untraced[0])
    for got, want in zip(traced[1], untraced[1], strict=True):
        assert np.array_equal(got, want)
    # the Mamba block runs the scan's array kernel inside its own node, so
    # the "ssm.scan" span around ssm.selective_scan is never entered
    missed = {name for name in spans.LAYER_ENTRY_POINTS if not tracer.calls[name]}
    assert missed == {"ssm.scan"}
    assert tracer.ops == 1 and tracer.nodes_by_op and tracer.bwd_by_op
