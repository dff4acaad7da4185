"""Finite-difference gradient oracle.

Compares analytic tape gradients against a finite-difference derivative per
element: central differences (f(θ+h)−f(θ−h))/2h, or the five-point stencil.
Reports, never asserts; tolerance decisions belong to the caller.
"""

from __future__ import annotations

import numpy as np

__all__ = ["grad_check", "max_relative_error", "STENCILS"]

# stencil: (offsets in units of h, weights, divisor); f' ≈ Σ w·f(θ+k·h) / (divisor·h)
STENCILS = {
    "central": ((1, -1), (1, -1), 2),
    "five_point": ((2, 1, -1, -2), (-1, 8, -8, 1), 12),
}


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def grad_check(fn, params, h: float = 1e-4,
               stencil: str = "central") -> dict[str, float]:
    """Per-parameter max relative error of analytic vs finite-difference grads.

    ``fn`` is a deterministic scalar-valued callable of no arguments;
    ``params`` is an iterable of (name, Tensor) whose entries feed ``fn``;
    ``stencil`` names an entry of ``STENCILS``.
    """
    offsets, weights, divisor = STENCILS[stencil]
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
            total = 0.0
            for k, w in zip(offsets, weights):
                flat[i] = orig + k * h
                total += w * fn().item()
            flat[i] = orig
            numeric[i] = total / (divisor * h)
        report[name] = max_relative_error(analytic[name].ravel(), numeric)
    return report
