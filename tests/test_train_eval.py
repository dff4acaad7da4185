"""Target assignment, loss, optimizer, NMS/mAP scoring, and the data
generator's determinism."""

import gc
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from mddcnet import ssm
from mddcnet.tensor import Tensor, conv2d
from mddcnet.model import Detection, MddcNet, variant_config, encode_box
from mddcnet.data import generate_scene, generate_split, NUM_CLASSES
from mddcnet.train import (Sgd, TrainConfig, assign_targets, cosine_lr,
                           detection_loss, route_level, stack_targets,
                           train_loop, TrainDivergence)
from mddcnet.eval import (average_precision, box_iou, compute_map,
                          decode_predictions, nms)
from mddcnet.verify import CHECKS

from tape_memory import (backward_closures, backward_transient, base_array, free_vars,
                         grad_nodes, held_bytes_by_op, held_roots, n_toy_loss, op_name)

RNG = np.random.default_rng(8)


@pytest.mark.parametrize("name",
                         [n for n in CHECKS
                          if n.startswith(("eval.", "train."))])
def test_registered_properties(name):
    CHECKS[name](np.random.default_rng(0))


# -- data ---------------------------------------------------------------------

def test_scene_is_pure_function_of_seed():
    a = generate_scene(123)
    b = generate_scene(123)
    assert np.array_equal(a.image, b.image) and a.annotations == b.annotations
    c = generate_scene(124)
    assert not np.array_equal(a.image, c.image)


def test_scene_contract():
    for seed in range(20):
        s = generate_scene(seed)
        assert s.image.shape == (3, 64, 64)
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0
        for cls, (x1, y1, x2, y2) in s.annotations:
            assert 0 <= cls < NUM_CLASSES
            assert 0.0 <= x1 < x2 <= 64.0 and 0.0 <= y1 < y2 <= 64.0


def test_split_seeds_are_consecutive():
    scenes = generate_split(500, 4)
    assert [s.seed for s in scenes] == [500, 501, 502, 503]


# -- assignment ---------------------------------------------------------------

def test_route_level_thresholds_scale_with_input():
    # at 640: <32 -> P3, <96 -> P4, else P5; at 64 the cuts are 3.2 / 9.6
    assert route_level((0, 0, 30, 30), 640) == 0
    assert route_level((0, 0, 60, 60), 640) == 1
    assert route_level((0, 0, 200, 200), 640) == 2
    assert route_level((0, 0, 3, 3), 64) == 0
    assert route_level((0, 0, 20, 20), 64) == 2


def test_assignment_cells_can_reach_iou_one():
    # every assigned cell must have its center strictly inside its box,
    # except the nearest-cell fallback (which has no inside cell anywhere)
    for seed in range(30):
        s = generate_scene(seed)
        for li, (tgt, stride) in enumerate(zip(assign_targets(s.annotations, 64),
                                               (8, 16, 32))):
            ys, xs = np.nonzero(tgt.obj > 0)
            for y, x in zip(ys, xs):
                x1, y1, x2, y2 = tgt.box[:, y, x]
                cy, cx = (y + 0.5) * stride, (x + 0.5) * stride
                inside = y1 < cy < y2 and x1 < cx < x2
                if not inside:
                    assert li == 0   # only the fallback lands outside
                    assert min(x2 - x1, y2 - y1) <= stride


def test_assignment_contested_cell_goes_to_smaller_box():
    # both end up on the stride-8 grid: the small one routes there directly,
    # the big one descends after the coarser grids have no center inside it
    big = (0, (2.0, 2.0, 7.0, 7.0))
    small = (1, (3.0, 3.0, 6.0, 6.0))
    tgt = assign_targets([big, small], 64)[0]
    assert tgt.cls[0, 0] == 1          # contested cell goes to the smaller box


def test_assignment_rejects_degenerate_boxes():
    with pytest.warns(UserWarning):
        levels = assign_targets([(0, (10.0, 10.0, 10.0, 20.0))], 64)
    assert all(t.obj.sum() == 0 for t in levels)


def test_stack_targets_shapes():
    scenes = [generate_scene(i) for i in range(3)]
    batched = stack_targets([assign_targets(s.annotations, 64) for s in scenes])
    assert batched[0].obj.shape == (3, 8, 8)
    assert batched[1].box.shape == (3, 4, 4, 4)
    assert batched[2].cls.shape == (3, 2, 2)


# -- loss ---------------------------------------------------------------------

def _fake_preds(targets, dtype=np.float64, perfect=False, strides=(8, 16, 32)):
    preds = []
    for tgt, stride in zip(targets, strides):
        n, h, w = tgt.obj.shape
        cls_t = np.zeros((n, NUM_CLASSES, h, w))
        obj_t = np.where(tgt.obj > 0, 8.0, -8.0)[:, None] if perfect \
            else np.zeros((n, 1, h, w))
        box_t = np.zeros((n, 4, h, w))
        if perfect:
            ni, yi, xi = np.nonzero(tgt.obj > 0)
            for b, y, x in zip(ni, yi, xi):
                cls_t[b, tgt.cls[b, y, x], y, x] = 12.0
                cls_t[b, :, y, x] -= 6.0
                box_t[b, :, y, x] = encode_box(tgt.box[b, :, y, x],
                                               (y + 0.5) * stride,
                                               (x + 0.5) * stride, stride)
        preds.append((Tensor(cls_t), Tensor(obj_t), Tensor(box_t)))
    return preds


def test_perfect_predictions_have_near_zero_loss():
    scenes = [generate_scene(i) for i in range(2)]
    targets = stack_targets([assign_targets(s.annotations, 64) for s in scenes])
    losses = detection_loss(_fake_preds(targets, perfect=True), targets)
    assert float(losses["iou"].data) < 1e-6
    assert float(losses["obj"].data) < 1e-3
    assert float(losses["cls"].data) < 1e-2   # +/-6 logits leave ~2e-3 BCE


def test_loss_composition_rule():
    scenes = [generate_scene(5)]
    targets = stack_targets([assign_targets(scenes[0].annotations, 64)])
    L = detection_loss(_fake_preds(targets), targets)
    total = float(L["obj"].data) + float(L["cls"].data) + 2 * float(L["iou"].data)
    assert abs(float(L["total"].data) - total) < 1e-12


def test_loss_reads_class_count_from_predictions():
    # zero class logits cost ln 2 per class channel on each assigned cell
    targets = stack_targets([assign_targets(generate_scene(5).annotations, 64)])
    for classes in (3, 4, 5):
        preds = [(Tensor(np.zeros((1, classes) + o.shape[2:])), o, b)
                 for _, o, b in _fake_preds(targets)]
        cls = float(detection_loss(preds, targets)["cls"].data)
        assert abs(cls - classes * np.log(2.0)) < 1e-12


def test_loss_with_no_objects_is_pure_objectness():
    targets = stack_targets([assign_targets([], 64)])
    L = detection_loss(_fake_preds(targets), targets)
    assert float(L["cls"].data) == 0.0 and float(L["iou"].data) == 0.0
    assert float(L["total"].data) == float(L["obj"].data)


# -- optimizer / schedule -----------------------------------------------------

def test_sgd_clips_global_norm():
    p = Tensor(np.zeros(4), requires_grad=True)
    p.grad = np.full(4, 100.0)
    opt = Sgd([p], momentum=0.0, clip_norm=1.0)
    norm = opt.step(lr=1.0)
    assert abs(norm - 200.0) < 1e-9
    assert abs(np.linalg.norm(p.data) - 1.0) < 1e-9


def test_sgd_momentum_accumulates():
    p = Tensor(np.zeros(1), requires_grad=True)
    opt = Sgd([p], momentum=0.5, clip_norm=1e9)
    p.grad = np.ones(1)
    opt.step(0.1)          # v = 1,    p = -0.1
    p.grad = np.ones(1)
    opt.step(0.1)          # v = 1.5,  p = -0.25
    assert abs(p.data[0] + 0.25) < 1e-12


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("clip_norm", [1.0, 1e9], ids=["clipped", "unclipped"])
def test_sgd_step_matches_formula(dtype, clip_norm):
    rng = np.random.default_rng(12)
    params = [Tensor(rng.standard_normal(sh).astype(dtype), requires_grad=True)
              for sh in ((3, 4), (5,), (2, 2, 3))]
    opt = Sgd(params, momentum=0.9, clip_norm=clip_norm)
    v0 = [rng.standard_normal(p.shape).astype(dtype) for p in params]
    for v, v_init in zip(opt.velocity, v0):
        v[...] = v_init
    grads = [rng.standard_normal(p.shape).astype(dtype) for p in params]
    for p, g in zip(params, grads):
        p.grad = g
    p0 = [p.data.copy() for p in params]
    lr = cosine_lr(1, 6, 0.01, 1e-4)               # a numpy float64
    norm = opt.step(lr)
    # the norm as sqrt of the summed squares of every gradient, each array's
    # sum taken in its own dtype (so f32 agrees to f32 rounding only)
    ref_norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    tol = 1e-12 if dtype == np.float64 else 1e-6
    assert abs(norm - ref_norm) <= tol * ref_norm
    scale = min(1.0, clip_norm / (norm + 1e-12))
    assert (scale < 1.0) == (clip_norm == 1.0)
    for p, v, v_init, g, p_init in zip(params, opt.velocity, v0, grads, p0):
        v_ref = v_init * dtype(0.9) + g * scale
        assert p.dtype == v.dtype == dtype
        assert np.array_equal(v, v_ref)
        # lr·v in float64, rounded to the parameter dtype, then subtracted
        assert np.array_equal(p.data, p_init - (lr * v_ref).astype(dtype))


def test_sgd_step_frees_the_gradients_it_applied():
    # the next forward runs before zero_grad(), so a kept gradient would sit
    # under that forward's tape; a parameter without one is left as it was
    params = [Tensor(np.ones(3), requires_grad=True) for _ in range(3)]
    for p in params[:2]:
        p.grad = np.full(3, 0.5)
    Sgd(params, momentum=0.9).step(0.1)
    assert all(p.grad is None for p in params)
    assert np.array_equal(params[2].data, np.ones(3))


def test_cosine_schedule_endpoints():
    assert abs(cosine_lr(0, 100, 0.1, 0.001) - 0.1) < 1e-12
    assert abs(cosine_lr(99, 100, 0.1, 0.001) - 0.001) < 1e-12
    mid = cosine_lr(50, 101, 0.1, 0.001)
    assert 0.04 < mid < 0.06


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(batch=0)


# -- tape ---------------------------------------------------------------------

def _holds_tensor(value, depth=0):
    if isinstance(value, Tensor):
        return True
    if depth < 2 and isinstance(value, (tuple, list)):
        return any(_holds_tensor(v, depth + 1) for v in value)
    if depth < 2 and isinstance(value, dict):
        return any(_holds_tensor(v, depth + 1) for v in value.values())
    return False


def test_tape_closures_capture_no_tensor():
    # closures keep arrays and shapes only, so no op output stays reachable
    # from the tape just because a closure read its shape or parameter
    model = MddcNet(variant_config("n-toy"), np.random.default_rng(0))
    ops = 0
    for fn in backward_closures(n_toy_loss(model)):
        cells = [c.cell_contents for c in fn.__closure__ or ()]
        assert not any(_holds_tensor(v) for v in cells), fn.__qualname__
        ops += 1
    assert ops > 100


def test_backward_closures_never_write_their_incoming_gradient():
    # backward() stores a leaf's gradient without a copy, so the array a
    # closure is handed may also be a parameter's .grad or another parent's
    # gradient: with every incoming gradient of an n-toy step read-only, the
    # step still runs and gives the same gradients bit for bit
    def grads(read_only):
        model = MddcNet(variant_config("n-toy"), np.random.default_rng(0))
        loss = n_toy_loss(model)
        if read_only:
            for node in grad_nodes(loss):
                def back(g, fn=node.backward):
                    if isinstance(g, np.ndarray):     # not a numpy scalar
                        g.flags.writeable = False
                    return fn(g)
                node.backward = back
        loss.backward()
        return [p.grad for p in model.parameters()]

    for got, want in zip(grads(True), grads(False), strict=True):
        assert np.array_equal(got, want)


def test_conv2d_backward_holds_no_im2col_copy():
    # a conv's backward keeps its unpadded input and rebuilds the padded
    # copy and the k²-times larger im2col matrix, so what one conv2d node
    # holds is at most that input plus its weight: a kept padded or im2col
    # copy would break the bound
    model = MddcNet(variant_config("n-toy"), np.random.default_rng(0))
    params = {id(p.data) for p in model.parameters()}
    convs = 0
    for fn in backward_closures(n_toy_loss(model)):
        if fn.__qualname__ != "conv2d.<locals>.back":
            continue
        free = free_vars(fn)
        n, c, h, w = (free[k] for k in ("n", "c", "h", "w"))
        weight = np.prod(free["wshape"])
        held = sum(a.nbytes for a in held_roots(fn, params).values())
        assert held <= (n * c * h * w + weight) * free["w2"].itemsize, free["wshape"]
        convs += 1
    assert convs > 30
    # the input it holds is the input array itself, not a copy
    x = Tensor(RNG.standard_normal((2, 3, 5, 5)), requires_grad=True)
    weight = Tensor(RNG.standard_normal((4, 3, 3, 3)))
    out = conv2d(x, weight, padding=1)
    (held,) = held_roots(out._backward, {id(weight.data)}).values()
    assert held is x.data


def _block_held_bytes(block, x):
    """What a Mamba block node holds for backward: x, dt_down's output and
    the scan's state at the start of each chunk after the first."""
    n, length, c = x.shape
    di, s, r = block.cfg.d_inner, block.cfg.d_state, block.cfg.dt_rank
    chunks = -(-length // min(ssm._chunk_len(n, s, di), length))
    return x.itemsize * (n * length * (c + r) + (chunks - 1) * n * s * di)


def test_activations_hold_one_array_per_input(monkeypatch):
    # each gelu and silu node holds one array of its input's size, and each
    # Mamba block node exactly the arrays of _block_held_bytes, none of the
    # activations it rebuilds: the per-op totals are then exactly the bytes
    # the ops were called on
    called, blocks = Counter(), {}
    orig_gelu, orig_block = Tensor.gelu, ssm.MambaBlock.__call__

    def gelu(x):
        called["Tensor.gelu"] += x.data.nbytes
        return orig_gelu(x)

    def block_call(block, x):
        # x's buffer stays referenced, so its id names this call's input
        xb = base_array(x.data)
        blocks[id(xb)] = (xb, _block_held_bytes(block, x.data))
        called["MambaBlock.__call__"] += blocks[id(xb)][1]
        return orig_block(block, x)

    monkeypatch.setattr(Tensor, "gelu", gelu)
    monkeypatch.setattr(ssm.MambaBlock, "__call__", block_call)
    model = MddcNet(variant_config("n-toy"), np.random.default_rng(0))
    params = {id(p.data) for p in model.parameters()}
    loss = n_toy_loss(model)
    counts = Counter()
    for fn in backward_closures(loss):
        op, held = op_name(fn), held_roots(fn, params)
        counts[op] += 1
        if op == "Tensor.gelu":
            assert len(held) == 1, op
        elif op == "MambaBlock.__call__":
            (expected,) = (blocks[k][1] for k in held if k in blocks)
            assert sum(a.nbytes for a in held.values()) == expected
    assert counts["MambaBlock.__call__"] == len(blocks) >= 2
    by_op = held_bytes_by_op(loss, params)
    for op in ("Tensor.gelu", "MambaBlock.__call__"):
        assert by_op[op] == called[op], op
    x = Tensor(RNG.standard_normal((2, 3)), requires_grad=True)
    (held,) = held_roots(x.silu()._backward, set()).values()
    assert held is x.data


# tracemalloc's peak over one n-toy step at batch 8 (f64), above what was
# allocated before it; 14.86-14.91 MiB measured. Held-byte pins cannot see
# a larger transient inside an op's forward or backward; this bound sees
# one that raises the step's peak, and the block pin below one that stays
# under it.
STEP_PEAK_MIB = 15.3


def test_training_step_peak_memory():
    model = MddcNet(variant_config("n-toy"), np.random.default_rng(0))
    opt = Sgd(model.parameters())

    def step():
        loss = n_toy_loss(model, n_scenes=8)
        model.zero_grad()
        loss.backward()
        opt.step(0.01)

    step()          # the resampling maps are cached by the first step
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        step()
        peak = (tracemalloc.get_traced_memory()[1] - before) / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak <= STEP_PEAK_MIB, f"{peak:.2f} MiB"


# tracemalloc's peak of one Mamba block backward at train-n128's neck-P3
# shape (variant n, input [2, 256, 128], f64) above its start, the returned
# gradients included; 7.63 MiB measured.
BLOCK_BACKWARD_MIB = 7.8


def test_mamba_block_backward_transient():
    cfg, rng = variant_config("n"), np.random.default_rng(0)
    block = ssm.MambaBlock(ssm.MambaBlockConfig(cfg.neck_width, cfg.d_state), rng)
    x = Tensor(rng.standard_normal((2, 256, cfg.neck_width)), requires_grad=True)
    peak = backward_transient(block(x)._backward, rng.standard_normal(x.shape))
    assert peak <= BLOCK_BACKWARD_MIB * 2 ** 20, f"{peak / 2 ** 20:.2f} MiB"


def test_training_frees_its_tape_by_reference_counting():
    # a closure that captured its own output, or any other reference cycle
    # on the tape, would leave garbage only the cycle collector can free.
    # backward() breaks such a cycle as it consumes the node, so a taped
    # forward is also dropped without a backward
    model = MddcNet(variant_config("n-toy"), np.random.default_rng(0))
    cfg = TrainConfig(epochs=1, train_scenes=16, val_scenes=0, eval_every=100)
    gc.collect()
    gc.disable()
    try:
        train_loop(model, cfg)        # two steps of batch 8
        n_toy_loss(model)
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


# NaN parameters make deform_dilated_conv cast NaN sample coordinates to int,
# which warns before the loss check raises
@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
def test_train_divergence_raised_on_nan():
    model = MddcNet(variant_config("n-toy"), np.random.default_rng(0))
    next(iter(model.parameters())).data[:] = np.nan
    cfg = TrainConfig(epochs=1, train_scenes=8, val_scenes=0, eval_every=100)
    with pytest.raises(TrainDivergence):
        train_loop(model, cfg)


# -- eval ---------------------------------------------------------------------

def test_box_iou_known_values():
    assert box_iou((0, 0, 2, 2), (1, 1, 3, 3)) == pytest.approx(1 / 7)
    assert box_iou((0, 0, 1, 1), (2, 2, 3, 3)) == 0.0
    assert box_iou((0, 0, 2, 2), (0, 0, 2, 2)) == 1.0


def test_nms_suppresses_within_class_only():
    dets = [Detection(0, 0.9, (0, 0, 10, 10)),
            Detection(0, 0.8, (1, 1, 11, 11)),     # IoU ~0.68 with first
            Detection(1, 0.7, (0, 0, 10, 10)),     # other class survives
            Detection(0, 0.6, (30, 30, 40, 40))]
    kept = nms(dets, score_threshold=0.25)
    assert [(d.class_id, d.score) for d in kept] == [(0, 0.9), (1, 0.7),
                                                     (0, 0.6)]


def test_nms_score_threshold():
    dets = [Detection(0, 0.2, (0, 0, 10, 10))]
    assert nms(dets, score_threshold=0.25) == []
    assert len(nms(dets, score_threshold=0.1)) == 1


def test_average_precision_extremes():
    assert average_precision([], 0) == 1.0
    assert average_precision([(0.9, False)], 0) == 0.0
    assert average_precision([], 3) == 0.0
    assert average_precision([(0.9, True)], 1) == pytest.approx(1.0)


def test_map_perfect_predictions():
    gts = [[(0, (5.0, 5.0, 20.0, 20.0)), (1, (30.0, 30.0, 50.0, 55.0))]]
    preds = [[Detection(0, 0.9, (5.0, 5.0, 20.0, 20.0)),
              Detection(1, 0.8, (30.0, 30.0, 50.0, 55.0))]]
    m = compute_map(preds, gts)
    assert m["map50"] == pytest.approx(1.0)
    assert m["map50_95"] == pytest.approx(1.0)


def test_map_penalizes_high_scored_false_positive():
    gts = [[(0, (0.0, 0.0, 10.0, 10.0))]]
    preds = [[Detection(0, 0.9, (40.0, 40.0, 50.0, 50.0)),   # confident miss
              Detection(0, 0.8, (0.0, 0.0, 10.0, 10.0))]]
    m = compute_map(preds, gts)
    assert m["map50"] == pytest.approx(0.5, abs=0.01)


def test_map_alignment_check():
    with pytest.raises(ValueError):
        compute_map([[]], [[], []])


@pytest.mark.parametrize("dtype, logit", [(np.float32, -100.0), (np.float64, -800.0)])
def test_decode_predictions_saturates_without_overflow(dtype, logit):
    """Cells with hugely negative objectness score 0, without overflowing exp."""
    cls_t = Tensor(np.full((1, NUM_CLASSES, 2, 2), 4.0, dtype=dtype))
    obj_t = Tensor(np.full((1, 1, 2, 2), logit, dtype=dtype))
    obj_t.data[0, 0, 1, 1] = 4.0
    box_t = Tensor(np.zeros((1, 4, 2, 2), dtype=dtype))
    dets = decode_predictions([(cls_t, obj_t, box_t)], (8,), score_threshold=0.5)[0]
    assert sorted(d.class_id for d in dets) == list(range(NUM_CLASSES))
    for d in dets:
        assert d.score == pytest.approx((1.0 / (1.0 + np.exp(-4.0))) ** 2, rel=1e-6)
        assert d.box == pytest.approx((4.0, 4.0, 20.0, 20.0))   # center 12, side 16
