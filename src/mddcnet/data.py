"""Synthetic detection scenes: box / disc / triangle on smooth-noise fields.

Everything is seed-deterministic; a scene is a pure function of its seed and
image size. Object scales are log-uniform in [0.05, 0.5] of the image side,
so roughly 30% of objects fall below 0.1 (a small-object-heavy mix).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eval import box_iou
from .model import NUM_CLASSES

__all__ = ["SynthScene", "generate_scene", "generate_split",
           "CLASS_NAMES", "NUM_CLASSES"]

CLASS_NAMES = ("box", "disc", "triangle")


@dataclass
class SynthScene:
    image: np.ndarray                       # [3, H, W] float in [0, 1]
    annotations: list                       # (class_id, (x1, y1, x2, y2))
    seed: int


def _smooth_noise(rng: np.random.Generator, h: int, w: int, cells: int,
                  amp: float) -> np.ndarray:
    """Low-resolution noise bilinearly stretched to (h, w)."""
    coarse = rng.uniform(-amp, amp, (3, cells, cells))
    ys = np.linspace(0, cells - 1, h)
    xs = np.linspace(0, cells - 1, w)
    y0 = np.clip(ys.astype(int), 0, cells - 2)
    x0 = np.clip(xs.astype(int), 0, cells - 2)
    fy = (ys - y0)[None, :, None]
    fx = (xs - x0)[None, None, :]
    c00 = coarse[:, y0][:, :, x0]
    c01 = coarse[:, y0][:, :, x0 + 1]
    c10 = coarse[:, y0 + 1][:, :, x0]
    c11 = coarse[:, y0 + 1][:, :, x0 + 1]
    return (c00 * (1 - fy) * (1 - fx) + c01 * (1 - fy) * fx
            + c10 * fy * (1 - fx) + c11 * fy * fx)


def _shape_mask(cls: int, h: int, w: int, cy: float, cx: float,
                hh: float, hw: float) -> np.ndarray:
    yy = np.arange(h)[:, None] + 0.5
    xx = np.arange(w)[None, :] + 0.5
    dy = (yy - cy) / hh
    dx = (xx - cx) / hw
    if cls == 0:                                    # box
        return (np.abs(dy) <= 1) & (np.abs(dx) <= 1)
    if cls == 1:                                    # disc
        return dy * dy + dx * dx <= 1.0
    # triangle: apex up, base down
    return (np.abs(dy) <= 1) & (np.abs(dx) <= (dy + 1) * 0.5)


def generate_scene(seed: int, size: int = 64) -> SynthScene:
    rng = np.random.default_rng(seed)
    img = 0.35 + 0.1 * rng.standard_normal(3)[:, None, None] \
        + _smooth_noise(rng, size, size, 5, 0.12) \
        + _smooth_noise(rng, size, size, 16, 0.05)

    n_objects = int(rng.integers(1, 9))
    annotations = []
    for _ in range(n_objects):
        cls = int(rng.integers(0, NUM_CLASSES))
        scale = float(np.exp(rng.uniform(np.log(0.05), np.log(0.5))) * size)
        hh = 0.5 * scale * float(rng.uniform(0.7, 1.3))
        hw = 0.5 * scale * float(rng.uniform(0.7, 1.3))
        hh, hw = min(hh, size / 2 - 1), min(hw, size / 2 - 1)
        color = rng.uniform(0.0, 1.0, 3)
        placed = False
        for _attempt in range(8):
            cy = float(rng.uniform(hh + 0.5, size - hh - 0.5))
            cx = float(rng.uniform(hw + 0.5, size - hw - 0.5))
            box = (cx - hw, cy - hh, cx + hw, cy + hh)
            if all(box_iou(box, b) < 0.25 for _, b in annotations):
                placed = True
                break
        if not placed:
            continue
        mask = _shape_mask(cls, size, size, cy, cx, hh, hw)
        img = np.where(mask[None], color[:, None, None], img)
        annotations.append((cls, box))

    img = np.clip(img, 0.0, 1.0).astype(np.float64)
    return SynthScene(image=img, annotations=annotations, seed=seed)


def generate_split(base_seed: int, count: int, size: int = 64) -> list[SynthScene]:
    """``count`` scenes with consecutive seeds starting at ``base_seed``."""
    return [generate_scene(base_seed + i, size) for i in range(count)]
