"""Central finite-difference gradient oracle.

Compares analytic tape gradients against (f(θ+h)−f(θ−h))/2h per element.
Reports, never asserts; tolerance decisions belong to the caller.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = ["grad_check", "max_relative_error", "block_gradcheck_suite"]


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def grad_check(fn, params, h: float = 1e-4) -> dict[str, float]:
    """Per-parameter max relative error of analytic vs central-difference grads.

    ``fn`` is a deterministic scalar-valued callable of no arguments;
    ``params`` is an iterable of (name, Tensor) whose entries feed ``fn``.
    """
    params = list(params)
    for _, p in params:
        p.grad = None
    loss = fn()
    loss.backward()
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in params}

    report: dict[str, float] = {}
    for name, p in params:
        flat = p.data.ravel()
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = fn().item()
            flat[i] = orig - h
            fm = fn().item()
            flat[i] = orig
            numeric[i] = (fp - fm) / (2.0 * h)
        report[name] = max_relative_error(analytic[name].ravel(), numeric)
    return report


def _randomize(module, rng, scale: float = 0.3):
    """Perturb every parameter (zero-initialized ones included) so gradients
    actually flow through all branches."""
    for _, p in module.named_parameters():
        p.data = p.data + rng.normal(0.0, scale, p.data.shape)


def _check_module(module, shapes, rng, h):
    """Max relative error of a module's full parameter set over input shapes."""
    worst = 0.0
    for shape in shapes:
        x = Tensor(rng.standard_normal(shape))
        weights = rng.standard_normal(module(x).shape)

        def fn():
            return (module(x) * weights).sum()

        report = grad_check(fn, module.named_parameters(), h=h)
        worst = max(worst, max(report.values()))
    return worst


def block_gradcheck_suite(seed: int = 0, h: float = 1e-4) -> dict[str, float]:
    """Finite-difference checks of every block family on tiny random shapes.

    Returns {block name: max relative error across >=3 shapes}; callers decide
    the tolerance (1e-4 in double is the standard gate).
    """
    from .msddc import Msddc, MsddcConfig
    from .ssm import MambaBlock, MambaBlockConfig
    from .ffn_attn import (CeFfn, SpatialAttention, Mlca, ScaleCalibration,
                           Csca)
    from .model import HeadLevel
    from .train import assign_targets, stack_targets, detection_loss
    from .data import generate_scene

    rng = np.random.default_rng(seed)
    report: dict[str, float] = {}

    m = Msddc(MsddcConfig(2, 3, branch_channels=2), rng)
    _randomize(m, rng)
    report["msddc"] = _check_module(
        m, [(1, 2, 4, 4), (2, 2, 3, 5), (1, 2, 5, 3)], rng, h)

    blk = MambaBlock(MambaBlockConfig(d_model=4, d_state=2, dt_rank=2), rng)
    _randomize(blk, rng, 0.2)
    report["mamba"] = _check_module(
        blk, [(1, 3, 4), (2, 5, 4), (1, 1, 4)], rng, h)

    ffn = CeFfn(2, rng, expansion=2)
    _randomize(ffn, rng)
    report["ce_ffn"] = _check_module(
        ffn, [(1, 2, 3, 3), (2, 2, 2, 4), (1, 2, 4, 2)], rng, h)

    sa = SpatialAttention(rng)
    report["spatial_attention"] = _check_module(
        sa, [(1, 2, 4, 4), (2, 3, 3, 3), (1, 1, 5, 4)], rng, h)

    mlca = Mlca(grid=2)
    _randomize(mlca, rng)
    report["mlca"] = _check_module(
        mlca, [(1, 2, 4, 4), (2, 3, 3, 5), (1, 1, 2, 2)], rng, h)

    sc = ScaleCalibration(2, rng, pool_sizes=(1, 2))
    report["scale_calibration"] = _check_module(
        sc, [(1, 2, 4, 4), (2, 2, 3, 3), (1, 2, 5, 2)], rng, h)

    csca = Csca(2, rng)
    _randomize(csca, rng)
    report["csca"] = _check_module(
        csca, [(1, 2, 4, 4), (2, 2, 3, 3), (1, 2, 2, 5)], rng, h)

    head = HeadLevel(3, 4, 1, 2, rng)

    def head_scalar(x, weights):
        def fn():
            return sum((t * w).sum() for t, w in zip(head(x), weights))
        return fn

    worst = 0.0
    for shape in [(1, 3, 3, 3), (2, 3, 2, 2), (1, 3, 4, 2)]:
        x = Tensor(rng.standard_normal(shape))
        weights = [rng.standard_normal(t.shape) for t in head(x)]
        rep = grad_check(head_scalar(x, weights), head.named_parameters(), h=h)
        worst = max(worst, max(rep.values()))
    report["head"] = worst

    # loss w.r.t. the raw predictions (its only differentiable inputs)
    worst = 0.0
    for scene_seed in (11, 12, 13):
        scene = generate_scene(scene_seed, 64)
        targets = stack_targets([assign_targets(scene.annotations, 64)])
        preds = []
        for tgt, stride in zip(targets, (8, 16, 32)):
            _, gh, gw = tgt.obj.shape
            preds.append((Tensor(0.3 * rng.standard_normal((1, 3, gh, gw)),
                                 requires_grad=True),
                          Tensor(0.3 * rng.standard_normal((1, 1, gh, gw)),
                                 requires_grad=True),
                          Tensor(0.3 * rng.standard_normal((1, 4, gh, gw)),
                                 requires_grad=True)))

        def loss_fn():
            return detection_loss(preds, targets)["total"]

        named = [(f"level{li}.{part}", t)
                 for li, trio in enumerate(preds)
                 for part, t in zip(("cls", "obj", "box"), trio)]
        rep = grad_check(loss_fn, named, h=h)
        worst = max(worst, max(rep.values()))
    report["loss"] = worst
    return report
