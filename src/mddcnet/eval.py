"""Detection post-processing and scoring: IoU, NMS, and mAP.

All tie-breaks are total orders (score desc, then class id, then box
coordinates), so results are fully deterministic.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from .model import Detection, decode_boxes
from .tensor import Tensor, no_grad

__all__ = ["box_iou", "nms", "average_precision", "compute_map",
           "decode_predictions", "MAP_THRESHOLDS"]

MAP_THRESHOLDS = tuple(np.round(np.arange(0.5, 0.96, 0.05), 2))
# NMS overlap limit, and per-image detection cap of decoded predictions
NMS_IOU_THRESHOLD = 0.45
MAX_DETECTIONS = 100


def box_iou(a, b) -> float:
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


def _det_order_key(d: Detection):
    return (-d.score, d.class_id, d.box)


def nms(detections: list[Detection], score_threshold: float = 0.25) -> list[Detection]:
    """Per-class greedy suppression by descending score."""
    kept: list[Detection] = []
    pool = sorted((d for d in detections if d.score >= score_threshold),
                  key=_det_order_key)
    for cand in pool:
        if all(k.class_id != cand.class_id
               or box_iou(k.box, cand.box) <= NMS_IOU_THRESHOLD for k in kept):
            kept.append(cand)
    return kept


def average_precision(scored: list[tuple[float, bool]], n_gt: int) -> float:
    """101-point interpolated AP from (score, is_true_positive) records."""
    if n_gt == 0:
        return 1.0 if not scored else 0.0
    if not scored:
        return 0.0
    scored = sorted(scored, key=lambda t: -t[0])
    tp = np.cumsum([1.0 if hit else 0.0 for _, hit in scored])
    fp = np.cumsum([0.0 if hit else 1.0 for _, hit in scored])
    recall = tp / n_gt
    precision = tp / np.maximum(tp + fp, 1e-12)
    # precision envelope, then sample at recall = 0, 0.01, ..., 1
    ap = 0.0
    for r in np.linspace(0.0, 1.0, 101):
        mask = recall >= r - 1e-12
        ap += float(precision[mask].max()) if mask.any() else 0.0
    return ap / 101.0


def _match_episode(dets: list[Detection], gts: list, cls: int,
                   thr: float) -> list[tuple[float, bool]]:
    """Greedy per-image matching: each GT claimed once, best IoU wins."""
    gt_boxes = [b for c, b in gts if c == cls]
    used = [False] * len(gt_boxes)
    records = []
    for d in sorted((d for d in dets if d.class_id == cls), key=_det_order_key):
        best_iou, best_j = thr, -1
        for j, gb in enumerate(gt_boxes):
            if used[j]:
                continue
            iou = box_iou(d.box, gb)
            if iou >= best_iou:
                best_iou, best_j = iou, j
        if best_j >= 0:
            used[best_j] = True
            records.append((d.score, True))
        else:
            records.append((d.score, False))
    return records


def compute_map(predictions: list[list[Detection]],
                ground_truth: list[list]) -> dict[str, float]:
    """COCO-style mAP over images, at the IoU thresholds MAP_THRESHOLDS.

    predictions[i] are the detections of image i; ground_truth[i] its
    (class_id, box) annotations. A class absent from every image, with no
    predictions, scores AP 1 (nothing to find, nothing hallucinated).
    Returns {"map50": ..., "map50_95": ...}.
    """
    if len(predictions) != len(ground_truth):
        raise ValueError("predictions and ground_truth must align per image")
    classes = sorted({c for gts in ground_truth for c, _ in gts}
                     | {d.class_id for dets in predictions for d in dets})
    if not classes:
        return {"map50": 1.0, "map50_95": 1.0}
    per_thr = []
    for thr in MAP_THRESHOLDS:
        aps = []
        for cls in classes:
            records: list[tuple[float, bool]] = []
            n_gt = 0
            for dets, gts in zip(predictions, ground_truth):
                n_gt += sum(1 for c, _ in gts if c == cls)
                records.extend(_match_episode(dets, gts, cls, thr))
            aps.append(average_precision(records, n_gt))
        per_thr.append(float(np.mean(aps)))
    return {"map50": per_thr[0], "map50_95": float(np.mean(per_thr))}


def decode_predictions(raw_levels, strides,
                       score_threshold: float = 0.25) -> list[list[Detection]]:
    """Raw per-level head outputs -> per-image NMS-filtered detections.

    raw_levels: [(cls, obj, box), ...] tensors per pyramid level;
    score = sigmoid(obj) * sigmoid(cls).
    """
    with no_grad():
        batch = raw_levels[0][0].shape[0]
        out = []
        for n in range(batch):
            dets: list[Detection] = []
            for (cls_t, obj_t, box_t), stride in zip(raw_levels, strides):
                cls_l = cls_t.data[n]
                obj_l = obj_t.data[n, 0]
                boxes = decode_boxes(box_t.data[n:n + 1], stride)[0]
                obj_s = expit(obj_l)
                cls_s = expit(cls_l)
                score = obj_s[None] * cls_s
                ks, ys, xs = np.nonzero(score >= score_threshold)
                for k, y, x in zip(ks, ys, xs):
                    dets.append(Detection(int(k), float(score[k, y, x]),
                                          tuple(float(v) for v in boxes[:, y, x])))
            kept = nms(dets, score_threshold)
            out.append(kept[:MAX_DETECTIONS])
        return out
