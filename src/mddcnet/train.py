"""Toy supervised pipeline: target assignment, loss, SGD, and the train loop.

The assignment is fixed center-radius routing (no dynamic matching): each
ground truth goes to the pyramid level matching its size, onto cells within
1.5 strides of its center.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor, maximum, minimum, no_grad
from .model import MddcNet, check_input_size, decode_boxes
from .data import SynthScene, generate_split
from .eval import decode_predictions, compute_map

__all__ = ["TrainConfig", "LevelTargets", "assign_targets", "stack_targets",
           "detection_loss", "Sgd", "cosine_lr", "train_loop", "evaluate",
           "TrainDivergence", "SIZE_ROUTING_THRESHOLDS"]

# sqrt(area) routing thresholds in pixels at 640-equivalent scale
SIZE_ROUTING_THRESHOLDS = (32.0, 96.0)
# images per forward of ``evaluate``
EVAL_BATCH = 16
# candidate cutoff of ``evaluate``, deliberately low (vs 0.25 for deployment
# decoding): mAP is ranking-based, and a high cutoff silently discards
# correct low-confidence boxes early in training
EVAL_SCORE_THRESHOLD = 0.05
# least share of its area a box keeps through ``_translate_scene``
MIN_VISIBLE = 0.4


@dataclass
class TrainConfig:
    """The recipe of ``train_loop``: SGD schedule, batch and split sizes,
    evaluation cadence, and the bound of the augmentation every step uses."""
    lr: float = 0.01
    lr_final: float = 1e-4
    momentum: float = 0.937
    clip_norm: float = 10.0
    batch: int = 8
    epochs: int = 30
    seed: int = 0
    input_size: int = 64
    train_scenes: int = 800
    val_scenes: int = 200
    eval_every: int = 3
    # stop once val mAP@50 reaches this (None: always run all epochs)
    early_stop_map: float | None = None
    # bound of the random integer translations (after a random horizontal
    # flip) that augment every training scene; augmentation roughly doubles
    # final toy mAP@50 by closing the train/val box gap
    translate_max: int = 8

    def __post_init__(self):
        for name in ("lr", "momentum", "batch", "train_scenes"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be at least 0, got {self.epochs}")
        check_input_size(self.input_size)


class TrainDivergence(RuntimeError):
    """Raised when the loss goes non-finite; carries the offending batch."""

    def __init__(self, epoch: int, step: int, scene_seeds: list[int]):
        super().__init__(f"non-finite loss at epoch {epoch} step {step}; "
                         f"batch scene seeds: {scene_seeds}")
        self.epoch, self.step, self.scene_seeds = epoch, step, scene_seeds


@dataclass
class LevelTargets:
    obj: np.ndarray          # [H, W] 0/1
    cls: np.ndarray          # [H, W] int class id (-1 where unassigned)
    box: np.ndarray          # [4, H, W] target (x1, y1, x2, y2)
    area: np.ndarray         # [H, W] area of the owning GT (inf if none)


def route_level(box, input_size: int) -> int:
    """Pick the pyramid level whose stride matches the box size."""
    side = np.sqrt(max((box[2] - box[0]) * (box[3] - box[1]), 0.0))
    scale = input_size / 640.0
    lo, hi = (t * scale for t in SIZE_ROUTING_THRESHOLDS)
    if side < lo:
        return 0
    if side < hi:
        return 1
    return 2


def assign_targets(annotations, input_size: int,
                   strides=(8, 16, 32)) -> list[LevelTargets]:
    """Per-level dense targets for one image.

    Candidate cells lie within 1.5 strides of the GT center (both axes) and
    have their center inside the box (only those can regress to IoU 1 under
    the exp-distance decode). The size-routed level is tried first; if its
    grid is too coarse to place a center inside the box, finer levels are
    tried in turn, and as a last resort the nearest stride-8 cell is used.
    Overlapping claims go to the smaller GT.
    """
    levels = []
    for s in strides:
        g = input_size // s
        levels.append(LevelTargets(obj=np.zeros((g, g)),
                                   cls=np.full((g, g), -1, dtype=np.int64),
                                   box=np.zeros((4, g, g)),
                                   area=np.full((g, g), np.inf)))

    def inside_cells(li):
        stride = strides[li]
        centers = (np.arange(input_size // stride) + 0.5) * stride
        ys = np.nonzero((np.abs(centers - bcy) <= 1.5 * stride)
                        & (centers > y1) & (centers < y2))[0]
        xs = np.nonzero((np.abs(centers - bcx) <= 1.5 * stride)
                        & (centers > x1) & (centers < x2))[0]
        return [(y, x) for y in ys for x in xs]

    for cls_id, box in annotations:
        x1, y1, x2, y2 = box
        if x1 >= x2 or y1 >= y2 or x2 < 0 or y2 < 0 \
                or x1 > input_size or y1 > input_size:
            warnings.warn(f"rejecting out-of-image annotation {box}")
            continue
        bcx, bcy = (x1 + x2) / 2.0, (y1 + y2) / 2.0
        area = (x2 - x1) * (y2 - y1)
        li = route_level(box, input_size)
        cells = []
        while li >= 0 and not (cells := inside_cells(li)):
            li -= 1
        if li < 0:
            li = 0
            g = input_size // strides[0]
            cells = [(int(np.clip(bcy // strides[0], 0, g - 1)),
                      int(np.clip(bcx // strides[0], 0, g - 1)))]
        tgt = levels[li]
        for y, x in cells:
            if area < tgt.area[y, x]:
                tgt.area[y, x] = area
                tgt.obj[y, x] = 1.0
                tgt.cls[y, x] = cls_id
                tgt.box[:, y, x] = box
    return levels


def stack_targets(per_image: list[list[LevelTargets]]) -> list[LevelTargets]:
    """Batch per-image targets into [N, ...] arrays per level."""
    out = []
    for li in range(len(per_image[0])):
        out.append(LevelTargets(
            obj=np.stack([t[li].obj for t in per_image]),
            cls=np.stack([t[li].cls for t in per_image]),
            box=np.stack([t[li].box for t in per_image]),
            area=np.stack([t[li].area for t in per_image])))
    return out


def _bce_with_logits(x: Tensor, y) -> Tensor:
    """softplus(x) - x*y, elementwise (stable logistic cross-entropy)."""
    return x.softplus() - x * y


def detection_loss(preds, targets: list[LevelTargets],
                   strides=(8, 16, 32)) -> dict[str, Tensor]:
    """Objectness BCE over all cells + class BCE and IoU loss on assigned
    cells; total = obj + cls + 2*iou. The class count is the channel count
    of the class predictions."""
    dtype = preds[0][0].dtype
    obj_sum = None
    total_cells = 0
    cls_sum = None
    iou_sum = None
    n_assigned = 0

    for (cls_t, obj_t, box_t), tgt, stride in zip(preds, targets, strides):
        n, _, h, w = obj_t.shape
        total_cells += n * h * w
        term = _bce_with_logits(obj_t.reshape(n, h, w),
                                tgt.obj.astype(dtype)).sum()
        obj_sum = term if obj_sum is None else obj_sum + term

        ni, yi, xi = np.nonzero(tgt.obj > 0)
        if ni.size == 0:
            continue
        n_assigned += ni.size

        onehot = np.zeros((ni.size, cls_t.shape[1]), dtype=dtype)
        onehot[np.arange(ni.size), tgt.cls[ni, yi, xi]] = 1.0
        cls_sel = cls_t[ni, :, yi, xi]                     # [K, num_classes]
        term = _bce_with_logits(cls_sel, onehot).sum()
        cls_sum = term if cls_sum is None else cls_sum + term

        # differentiable decode at assigned cells
        raw = box_t[ni, :, yi, xi]                         # [K, 4]
        d = raw.exp() * float(stride)
        ccx = ((xi + 0.5) * stride).astype(dtype)
        ccy = ((yi + 0.5) * stride).astype(dtype)
        px1 = ccx - d[:, 0]
        py1 = ccy - d[:, 1]
        px2 = ccx + d[:, 2]
        py2 = ccy + d[:, 3]
        tb = tgt.box[ni, :, yi, xi].astype(dtype)          # [K, 4]
        iw = (minimum(px2, Tensor(tb[:, 2])) - maximum(px1, Tensor(tb[:, 0]))).clamp(lo=0.0)
        ih = (minimum(py2, Tensor(tb[:, 3])) - maximum(py1, Tensor(tb[:, 1]))).clamp(lo=0.0)
        inter = iw * ih
        area_p = (px2 - px1) * (py2 - py1)
        area_t = (tb[:, 2] - tb[:, 0]) * (tb[:, 3] - tb[:, 1])
        iou = inter / (area_p + area_t - inter + 1e-9)
        term = (1.0 - iou).sum()
        iou_sum = term if iou_sum is None else iou_sum + term

    obj_loss = obj_sum / float(total_cells)
    if n_assigned == 0:
        zero = Tensor(np.asarray(0.0, dtype=dtype))
        return {"total": obj_loss, "obj": obj_loss, "cls": zero, "iou": zero}
    cls_loss = cls_sum / float(n_assigned)
    iou_loss = iou_sum / float(n_assigned)
    return {"total": obj_loss + cls_loss + iou_loss * 2.0,
            "obj": obj_loss, "cls": cls_loss, "iou": iou_loss}


class Sgd:
    """SGD with classical momentum and global gradient-norm clipping.

    ``step`` sets each parameter's ``grad`` to None once it has applied it,
    so the spent gradients are not kept alive under the next forward."""

    def __init__(self, params, momentum: float = 0.937, clip_norm: float = 10.0):
        self.params = list(params)
        self.momentum = momentum
        self.clip_norm = clip_norm
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self, lr: float):
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data)
                 for p in self.params]
        norm = float(np.sqrt(sum(float(np.dot(g.ravel(), g.ravel())) for g in grads)))
        scale = min(1.0, self.clip_norm / (norm + 1e-12))
        for p, v, g in zip(self.params, self.velocity, grads):
            v *= self.momentum
            v += g if scale == 1.0 else g * scale
            # lr·v is rounded to the parameter's dtype before it is subtracted
            p.data -= np.multiply(lr, v, out=np.empty_like(p.data), casting="same_kind")
            p.grad = None
        return norm


def cosine_lr(step: int, total_steps: int, lr0: float, lr_final: float) -> float:
    t = min(step / max(total_steps - 1, 1), 1.0)
    return lr_final + 0.5 * (lr0 - lr_final) * (1.0 + np.cos(np.pi * t))


def evaluate(model: MddcNet, scenes: list[SynthScene]) -> dict[str, float]:
    """Validation mAP of a model over a scene list."""
    was_training = model.training
    model.eval()
    dtype = next(iter(model.parameters())).dtype
    preds, gts = [], []
    strides = model.cfg.strides
    with no_grad():
        for i in range(0, len(scenes), EVAL_BATCH):
            chunk = scenes[i:i + EVAL_BATCH]
            x = Tensor(np.stack([s.image for s in chunk]).astype(dtype))
            preds.extend(decode_predictions(model(x), strides,
                                            score_threshold=EVAL_SCORE_THRESHOLD))
            gts.extend([s.annotations for s in chunk])
    model.train(was_training)
    return compute_map(preds, gts)


def _hflip_scene(img: np.ndarray, anns: list, size: int):
    """Mirror an image and its annotations left-right."""
    img = img[:, :, ::-1]
    anns = [(c, (size - b[2], b[1], size - b[0], b[3])) for c, b in anns]
    return img, anns


def _translate_scene(img: np.ndarray, anns: list, dy: int, dx: int, size: int):
    """Shift an image by whole pixels, filling vacated strips with the image
    mean; boxes follow, clipped to the frame.

    Boxes that end up degenerate or less than MIN_VISIBLE of their
    original area are dropped (a mostly-off-screen object is not a usable
    training target).
    """
    canvas = np.empty_like(img)
    canvas[:] = img.mean(axis=(1, 2), keepdims=True)
    sy0, sy1 = max(0, -dy), min(size, size - dy)
    sx0, sx1 = max(0, -dx), min(size, size - dx)
    canvas[:, sy0 + dy:sy1 + dy, sx0 + dx:sx1 + dx] = img[:, sy0:sy1, sx0:sx1]
    out = []
    for c, b in anns:
        nb = (b[0] + dx, b[1] + dy, b[2] + dx, b[3] + dy)
        cb = (max(nb[0], 0.0), max(nb[1], 0.0),
              min(nb[2], float(size)), min(nb[3], float(size)))
        if cb[2] - cb[0] < 2 or cb[3] - cb[1] < 2:
            continue
        if ((cb[2] - cb[0]) * (cb[3] - cb[1])
                < MIN_VISIBLE * (nb[2] - nb[0]) * (nb[3] - nb[1])):
            continue
        out.append((c, cb))
    return canvas, out


def augment_scene(img: np.ndarray, anns: list, rng: np.random.Generator,
                  size: int, translate_max: int = 8):
    """Training-time augmentation: horizontal flip (p=0.5) then a random
    integer translation in [-translate_max, translate_max]^2.

    Horizontal flips are distribution-preserving for every toy shape (the
    triangle mask is left-right symmetric); vertical flips are deliberately
    absent because the generator draws triangles apex-up only, so flipped
    scenes would lie outside the evaluation distribution. Translations are
    whole-pixel so shapes stay crisp; they teach the regressor sub-cell
    positions that the finite train split undersamples.
    """
    if rng.random() < 0.5:
        img, anns = _hflip_scene(img, anns, size)
    dy = int(rng.integers(-translate_max, translate_max + 1))
    dx = int(rng.integers(-translate_max, translate_max + 1))
    return _translate_scene(np.ascontiguousarray(img), anns, dy, dx, size)


def train_loop(model: MddcNet, cfg: TrainConfig, *, log_path=None,
               verbose: bool = False) -> list[dict]:
    """Seed-deterministic training; returns per-epoch metric records.

    Each epoch visits the train split in a fresh random order; every step
    augments its scenes (``augment_scene``) and assigns targets to the
    augmented views. Metric records are also written to ``log_path`` as
    JSON lines.
    """
    rng = np.random.default_rng(cfg.seed)
    dtype = next(iter(model.parameters())).dtype
    base = 1_000_000 * (cfg.seed + 1)
    train_scenes = generate_split(base, cfg.train_scenes, cfg.input_size)
    val_scenes = generate_split(base + cfg.train_scenes, cfg.val_scenes,
                                cfg.input_size)

    opt = Sgd(model.parameters(), cfg.momentum, cfg.clip_norm)
    steps_per_epoch = max(len(train_scenes) // cfg.batch, 1)
    total_steps = cfg.epochs * steps_per_epoch
    history: list[dict] = []
    log_f = open(log_path, "w") if log_path else None
    t_start = time.time()
    step = 0
    try:
        for epoch in range(cfg.epochs):
            model.train()
            order = rng.permutation(len(train_scenes))
            sums = {"total": 0.0, "obj": 0.0, "cls": 0.0, "iou": 0.0}
            for si in range(steps_per_epoch):
                idx = order[si * cfg.batch:(si + 1) * cfg.batch]
                views = [augment_scene(train_scenes[i].image,
                                       train_scenes[i].annotations, rng,
                                       cfg.input_size, cfg.translate_max)
                         for i in idx]
                x = Tensor(np.stack([v[0] for v in views]).astype(dtype))
                batch_t = stack_targets([assign_targets(v[1], cfg.input_size,
                                                        model.cfg.strides)
                                         for v in views])
                preds = model(x)
                losses = detection_loss(preds, batch_t, model.cfg.strides)
                val = float(losses["total"].data)
                if not np.isfinite(val):
                    raise TrainDivergence(epoch, si,
                                          [train_scenes[i].seed for i in idx])
                model.zero_grad()
                losses["total"].backward()
                opt.step(cosine_lr(step, total_steps, cfg.lr, cfg.lr_final))
                step += 1
                for k in sums:
                    sums[k] += float(losses[k].data)
            rec = {"epoch": epoch,
                   **{f"loss_{k}": sums[k] / steps_per_epoch for k in sums},
                   "wall": round(time.time() - t_start, 3)}
            last = epoch == cfg.epochs - 1
            if val_scenes and (last or (epoch + 1) % cfg.eval_every == 0):
                rec.update(evaluate(model, val_scenes))
            history.append(rec)
            if log_f:
                log_f.write(json.dumps(rec) + "\n")
                log_f.flush()
            if verbose:
                print(json.dumps(rec))
            if cfg.early_stop_map is not None \
                    and rec.get("map50", 0.0) >= cfg.early_stop_map:
                break
    finally:
        if log_f:
            log_f.close()
    return history
