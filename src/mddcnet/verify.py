"""Named property checks: oracle equivalences, identities, and invariants.

Every check is a no-argument-style callable taking a seeded RNG and either
returning a short detail string or raising ``VerifyFailure``. The registry is
shared by the command-line ``verify`` subcommand and the test suite, so a
failure is always reported under a stable, filterable name.

The default seed is 0, overridable through the ``MDDC_TEST_SEED`` environment
variable.
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, Conv2d, concat, conv2d, no_grad
from .msddc import Msddc, MsddcConfig, bilinear_sample, deform_dilated_conv
from .ssm import (SCAN_CHUNK, MambaBlock, MambaBlockConfig, discretize_zoh,
                  selective_scan, selective_scan_ref)
from .ffn_attn import Csca, FFN_KINDS, make_ffn
from .model import MddcNet, count_params, decode_boxes, encode_box, \
    estimate_flops, variant_config
from .eval import Detection, average_precision, box_iou, compute_map, nms
from .train import assign_targets, detection_loss, stack_targets
from .data import generate_scene

__all__ = ["VerifyFailure", "CheckResult", "CHECKS", "run_checks",
           "default_seed"]

TOL_ORACLE = 1e-10
TOL_MAP = 1e-9


class VerifyFailure(AssertionError):
    pass


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def default_seed() -> int:
    return int(os.environ.get("MDDC_TEST_SEED", "0"))


def _require(cond: bool, message: str):
    if not cond:
        raise VerifyFailure(message)


def _max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


# -- msddc ---------------------------------------------------------------------

def check_msddc_zero_offset_matches_dilated(rng) -> str:
    """Deformable conv with an all-zero offset field equals the plain dilated
    conv, for dilations 1/2/4 over 20 random shapes."""
    worst = 0.0
    for i in range(20):
        n = int(rng.integers(1, 3))
        c = int(rng.integers(1, 5))
        co = int(rng.integers(1, 5))
        h = int(rng.integers(3, 11))
        w = int(rng.integers(3, 11))
        d = (1, 2, 4)[i % 3]
        x = Tensor(rng.standard_normal((n, c, h, w)))
        wt = Tensor(rng.standard_normal((co, c, 3, 3)))
        bias = Tensor(rng.standard_normal(co))
        offsets = Tensor(np.zeros((n, 18, h, w)))
        got = deform_dilated_conv(x, offsets, wt, bias, d)
        ref = conv2d(x, wt, bias, padding=d, dilation=d)
        worst = max(worst, _max_abs(got.data, ref.data))
    _require(worst <= TOL_ORACLE, f"max |deform - dilated| = {worst:.3e}")
    return f"20 shapes, d in (1,2,4), max err {worst:.3e}"


def check_msddc_fresh_module_matches_dilated(rng) -> str:
    """A freshly built block (offset conv zero-initialized) must reduce to the
    fuse of plain dilated convs: each ``branch{d}`` Conv2d called directly."""
    m = Msddc(MsddcConfig(3, 5), rng)
    x = Tensor(rng.standard_normal((2, 3, 9, 9)))
    got = m(x)
    outs = [getattr(m, f"branch{d}")(x) for d in m.cfg.dilations]
    ref = m.fuse(concat(outs, axis=1))
    err = _max_abs(got.data, ref.data)
    _require(err <= TOL_ORACLE, f"fresh module deviates from dilated convs by {err:.3e}")
    return f"max err {err:.3e}"


def check_msddc_param_count_example(rng) -> str:
    """Reference parameter count: 32->32 channels, three branches = 36050."""
    m = Msddc(MsddcConfig(32, 32), rng)
    total = sum(p.size for _, p in m.named_parameters())
    _require(total == 36050, f"expected 36050 parameters, counted {total}")
    return "36050 parameters"


def check_msddc_integer_offset_is_shift(rng) -> str:
    """A constant integer offset (dy=1, dx=0) reads the sampling grid one
    pixel down, i.e. shifts the plain-conv output up by one row."""
    worst = 0.0
    for d in (1, 2, 4):
        x = Tensor(rng.standard_normal((1, 3, 12, 12)))
        wt = Tensor(rng.standard_normal((4, 3, 3, 3)))
        off = np.zeros((1, 18, 12, 12))
        off[:, 0::2] = 1.0                       # every tap: dy = +1
        got = deform_dilated_conv(x, Tensor(off), wt, None, d)
        ref = conv2d(x, wt, None, padding=d, dilation=d)
        worst = max(worst, _max_abs(got.data[:, :, :-1], ref.data[:, :, 1:]))
    _require(worst <= TOL_ORACLE, f"shift mismatch {worst:.3e}")
    return f"max err {worst:.3e}"


def check_msddc_fractional_offset_matches_bilinear_sample(rng) -> str:
    """At random fractional offsets, some pushing taps partly or wholly off
    the image, the deformable conv equals the scalar oracle: bias plus the
    sum over channels and taps of weight times ``bilinear_sample`` at the
    tap's displaced position."""
    n, c, co, h, w = 2, 2, 3, 6, 7
    worst, off_image = 0.0, 0
    for d in (1, 2, 4):
        x = Tensor(rng.standard_normal((n, c, h, w)))
        off = rng.uniform(-2.0, 2.0, (n, 18, h, w))
        wt = rng.standard_normal((co, c, 3, 3))
        bias = rng.standard_normal(co)
        got = deform_dilated_conv(x, Tensor(off), Tensor(wt), Tensor(bias), d).data
        ref = np.empty_like(got)
        with no_grad():
            for b in range(n):
                for y in range(h):
                    for x0 in range(w):
                        py = y + d * (np.arange(9) // 3 - 1) + off[b, 0::2, y, x0]
                        px = x0 + d * (np.arange(9) % 3 - 1) + off[b, 1::2, y, x0]
                        off_image += int(np.sum(
                            (np.floor(py) < 0) | (np.floor(py) >= h - 1)
                            | (np.floor(px) < 0) | (np.floor(px) >= w - 1)))
                        taps = [[bilinear_sample(x, py[k], px[k], b, ci).item()
                                 for k in range(9)] for ci in range(c)]
                        ref[b, :, y, x0] = wt.reshape(co, -1) @ np.ravel(taps) + bias
        worst = max(worst, _max_abs(got, ref))
    _require(off_image > 0, "no tap read outside the image")
    _require(worst <= TOL_ORACLE, f"max |deform - bilinear oracle| = {worst:.3e}")
    return (f"d in (1,2,4), {off_image} taps with an off-image corner, "
            f"max err {worst:.3e}")


def check_msddc_translation_equivariance(rng) -> str:
    """Zero offsets: translating the input translates the output (interior)."""
    x = rng.standard_normal((1, 2, 10, 10))
    xs = np.zeros_like(x)
    xs[:, :, 2:, :] = x[:, :, :-2, :]            # shift down by 2
    wt = Tensor(rng.standard_normal((3, 2, 3, 3)))
    off = Tensor(np.zeros((1, 18, 10, 10)))
    y = deform_dilated_conv(Tensor(x), off, wt, None, 1).data
    ys = deform_dilated_conv(Tensor(xs), off, wt, None, 1).data
    err = _max_abs(ys[:, :, 3:-1, :], y[:, :, 1:-3, :])
    _require(err <= TOL_ORACLE, f"translation equivariance broken: {err:.3e}")
    return f"max err {err:.3e}"


# -- ssm -----------------------------------------------------------------------

def check_ssm_par_matches_seq(rng) -> str:
    """The fused chunked scan equals its taped composition (the oracle), in
    output and in all six gradients, at lengths around the chunk size and
    with a forced small step (Δ = 1e-9, the series fallback)."""
    lengths = (1, 2, SCAN_CHUNK - 1, SCAN_CHUNK, SCAN_CHUNK + 1, 64, 257)
    worst_y = worst_g = 0.0
    for i, l in enumerate(lengths + (2 * SCAN_CHUNK + 3,)):
        n = int(rng.integers(1, 3))
        d = int(rng.integers(1, 8))
        s = int(rng.integers(1, 6))
        delta = np.exp(rng.uniform(-4, 0, (n, l, d)))
        if i == len(lengths):
            delta[:, ::2] = 1e-9
        arrays = (rng.standard_normal((n, l, d)), delta,
                  -np.exp(rng.standard_normal((d, s))),
                  rng.standard_normal((n, l, s)), rng.standard_normal((n, l, s)),
                  rng.standard_normal(d))
        coeff = rng.standard_normal((n, l, d))
        runs = []
        for fn in (selective_scan, selective_scan_ref):
            inputs = [Tensor(x, requires_grad=True) for x in arrays]
            y = fn(*inputs)
            (y * coeff).sum().backward()
            runs.append((y.data, [t.grad for t in inputs]))
        (y, grads), (y_ref, grads_ref) = runs
        worst_y = max(worst_y, _max_abs(y, y_ref))
        worst_g = max(worst_g, max(
            float(np.max(np.abs(g - r) / np.maximum(1.0, np.abs(r))))
            for g, r in zip(grads, grads_ref)))
    _require(worst_y <= TOL_ORACLE, f"max |fused - ref| = {worst_y:.3e}")
    _require(worst_g <= TOL_ORACLE,
             f"gradients: max |fused - ref| / max(1, |ref|) = {worst_g:.3e}")
    return (f"L in {lengths} + small step, max err {worst_y:.3e}, "
            f"gradients {worst_g:.3e}")


def check_ssm_zoh_scalar(rng) -> str:
    """Scalar zero-order hold: A=-1, step ln 2 gives abar=1/2, bbar=B/2."""
    a = Tensor(np.full((1, 1), -1.0))
    b = Tensor(np.full((1, 1, 1), 3.0))
    delta = Tensor(np.full((1, 1, 1), np.log(2.0)))
    abar, bbar = discretize_zoh(a, b, delta)
    err = max(abs(abar.data.item() - 0.5), abs(bbar.data.item() - 1.5))
    _require(err <= 1e-12, f"scalar ZOH off by {err:.3e}")
    return f"abar=0.5, bbar=B/2, err {err:.3e}"


def check_ssm_impulse_response(rng) -> str:
    """With frozen per-token parameters, a unit impulse produces
    y_t = C abar^(t-1) bbar + D delta_t0."""
    l, s = 12, 3
    a = Tensor(-np.exp(rng.standard_normal((1, s))))
    bvec = rng.standard_normal(s)
    cvec = rng.standard_normal(s)
    dskip = float(rng.standard_normal())
    dt = 0.3
    u = np.zeros((1, l, 1)); u[0, 0, 0] = 1.0
    y = selective_scan(Tensor(u),
                       Tensor(np.full((1, l, 1), dt)),
                       a,
                       Tensor(np.tile(bvec, (1, l, 1))),
                       Tensor(np.tile(cvec, (1, l, 1))),
                       Tensor(np.array([dskip]))).data[0, :, 0]
    abar = np.exp(dt * a.data[0])
    bbar = (abar - 1.0) / a.data[0] * bvec
    ref = np.array([(cvec * abar ** t * bbar).sum() for t in range(l)])
    ref[0] += dskip
    err = _max_abs(y, ref)
    _require(err <= TOL_ORACLE, f"impulse response off by {err:.3e}")
    return f"L={l}, max err {err:.3e}"


def check_ssm_frozen_scan_matches_conv(rng) -> str:
    """Frozen (input-independent) parameters turn the scan into a causal
    convolution with the materialized kernel k_j = C abar^j bbar (+ D at j=0)."""
    n, l, d, s = 2, 20, 3, 4
    a = Tensor(-np.exp(rng.standard_normal((d, s))))
    bvec = rng.standard_normal(s)
    cvec = rng.standard_normal(s)
    dskip = rng.standard_normal(d)
    dt = 0.25
    u = rng.standard_normal((n, l, d))
    y = selective_scan(Tensor(u),
                       Tensor(np.full((n, l, d), dt)),
                       a,
                       Tensor(np.tile(bvec, (n, l, 1))),
                       Tensor(np.tile(cvec, (n, l, 1))),
                       Tensor(dskip)).data
    abar = np.exp(dt * a.data)                        # [D, S]
    bbar = (abar - 1.0) / a.data * bvec               # [D, S]
    # kernel[j, d] = sum_s c_s abar^j bbar
    kern = np.stack([(cvec * abar ** j * bbar).sum(axis=1) for j in range(l)])
    kern[0] += dskip
    ref = np.zeros_like(y)
    for t in range(l):
        for j in range(t + 1):
            ref[:, t] += kern[j] * u[:, t - j]
    err = _max_abs(y, ref)
    _require(err <= TOL_ORACLE, f"scan vs materialized kernel: {err:.3e}")
    return f"max err {err:.3e}"


def check_ssm_mamba_identity_at_init(rng) -> str:
    """A fresh sequence-mixer block outputs exactly zero (zero-initialized
    output projection), so a caller residual is a bit-exact identity."""
    blk = MambaBlock(MambaBlockConfig(d_model=6, d_state=4), rng)
    x = Tensor(rng.standard_normal((2, 11, 6)))
    y = blk(x)
    _require(np.all(y.data == 0.0), "fresh block is not exactly zero")
    _require(np.all((x + y).data == x.data), "residual identity broken")
    return "bit-exact"


# -- ffn / attention -----------------------------------------------------------

def check_ffn_identity_at_init(rng) -> str:
    """Every FFN family member starts as an exact no-op (zero output conv):
    ffn(x) == 0 and x + ffn(x) == x bitwise."""
    x = Tensor(rng.standard_normal((2, 5, 6, 6)))
    for kind in FFN_KINDS:
        y = make_ffn(kind, 5, rng, expansion=2)(x)
        _require(np.all(y.data == 0.0), f"{kind} not exactly zero at init")
        _require(np.array_equal((x + y).data, x.data),
                 f"{kind}: residual identity broken")
    return f"{len(FFN_KINDS)} kinds bit-exact"


def check_ffn_scalar_pipeline(rng) -> str:
    """One-pixel, one-channel trace through the expand/local/global pipeline
    cross-checked against an independent closed-form recomputation."""
    ffn = make_ffn("ce_ffn", 1, rng, expansion=4)
    for _, p in ffn.named_parameters():
        p.data = rng.standard_normal(p.data.shape) * 0.5
    xval = 0.7
    got = ffn(Tensor(np.full((1, 1, 1, 1), xval))).data.item()

    from math import erf

    def gelu(v):
        return v * 0.5 * (1.0 + np.vectorize(erf)(np.asarray(v) / np.sqrt(2.0)))

    w_in = ffn.conv_in.weight.data[:, 0, 0, 0]
    y = ffn.dw.weight.data[:, 0, 1, 1] * (w_in * xval + ffn.conv_in.bias.data) \
        + ffn.dw.bias.data
    y = gelu(y)
    local = ffn.local_conv.weight.data[:, :, 0, 0] @ y + ffn.local_conv.bias.data
    f_local = ffn.r.data * (y - gelu(local)) + y
    gconv = ffn.global_conv.weight.data[:, :, 0, 0] @ y + ffn.global_conv.bias.data
    f_global = 1.0 / (1.0 + np.exp(-gconv))
    ref = (ffn.conv_out.weight.data[0, :, 0, 0] @ (f_global + f_local)
           + ffn.conv_out.bias.data).item()
    err = abs(got - ref)
    _require(err <= 1e-9, f"scalar pipeline off by {err:.3e}")
    return f"err {err:.3e}"


def check_attn_csca_identity_at_init(rng) -> str:
    """Fresh attention-synergy modules are bit-exact identities (zero fuse)."""
    x = Tensor(rng.standard_normal((2, 4, 7, 7)))
    for kind in ("csca", "mlca", "concat"):
        att = Csca(4, rng, kind=kind)
        _require(np.all(att(x).data == x.data), f"{kind} not identity at init")
    return "csca/mlca/concat bit-exact"


def check_attn_saturated_gates(rng) -> str:
    """Driving every sigmoid gate to 1 collapses the full module to
    fuse(concat(x, x)) + x."""
    att = Csca(4, rng, kind="csca")
    big = 60.0
    att.sa.conv.weight.data[:] = 0.0
    att.sa.conv.bias.data[:] = big                  # spatial gate -> 1
    att.mlca.mix_weight.data[:] = 0.0
    att.mlca.mix_bias.data[:] = big                 # channel gates -> 1
    for s in att.sc.pool_sizes:
        conv = getattr(att.sc, f"conv{s}")
        conv.weight.data[:] = 0.0
        conv.bias.data[:] = big / len(att.sc.pool_sizes)   # scale gate -> 1
    att.fuse.weight.data = rng.standard_normal(att.fuse.weight.shape) * 0.3
    x = Tensor(rng.standard_normal((1, 4, 6, 6)))
    got = att(x)
    ref = att.fuse(concat([x, x], axis=1)) + x
    err = _max_abs(got.data, ref.data)
    _require(err <= 1e-9, f"saturated gates deviate by {err:.3e}")
    return f"max err {err:.3e}"


def check_attn_mlca_uniform_input(rng) -> str:
    """On a spatially constant input the local and global channel gates agree,
    so the mix reduces to a single sigmoid gate."""
    att = Csca(3, rng, kind="mlca")
    att.fuse.weight.data[:, :, 0, 0] = np.eye(3)
    const = rng.standard_normal((1, 3, 1, 1))
    x = Tensor(np.tile(const, (1, 1, 8, 8)))
    got = att(x).data
    m = att.mlca
    padded = np.concatenate([np.zeros((1, 1, 1, 1)), const,
                             np.zeros((1, 1, 1, 1))], axis=1)
    mixed = (padded[:, :-2] * m.mix_weight.data[0]
             + padded[:, 1:-1] * m.mix_weight.data[1]
             + padded[:, 2:] * m.mix_weight.data[2] + m.mix_bias.data[0])
    gate = 1.0 / (1.0 + np.exp(-mixed))
    ref = const * gate + const                     # fuse(mlca(x)) + x
    err = _max_abs(got, np.tile(ref, (1, 1, 8, 8)))
    _require(err <= 1e-9, f"uniform-input gate off by {err:.3e}")
    return f"max err {err:.3e}"


# -- model ---------------------------------------------------------------------

def check_model_neck_zero_init_fpn(rng) -> str:
    """A fresh neck (zero-initialized mixer and attention branches) equals the
    plain lateral + upsample + add pyramid."""
    from .model import A2Fpn, upsample_nearest_to
    cfg = variant_config("n-toy")
    neck = A2Fpn(cfg.embed_dims[1:], cfg, rng)
    c3 = Tensor(rng.standard_normal((1, cfg.embed_dims[1], 8, 8)))
    c4 = Tensor(rng.standard_normal((1, cfg.embed_dims[2], 4, 4)))
    c5 = Tensor(rng.standard_normal((1, cfg.embed_dims[3], 2, 2)))
    got = neck(c3, c4, c5)
    p5 = neck.lateral5(c5)
    p4 = neck.lateral4(c4) + upsample_nearest_to(p5, *c4.shape[2:])
    p3 = neck.lateral3(c3) + upsample_nearest_to(p4, *c3.shape[2:])
    err = max(_max_abs(got.p3.data, p3.data), _max_abs(got.p4.data, p4.data),
              _max_abs(got.p5.data, p5.data))
    _require(err <= TOL_ORACLE, f"fresh neck deviates from plain FPN by {err:.3e}")
    return f"max err {err:.3e}"


def check_model_box_roundtrip(rng) -> str:
    """encode_box then decode_boxes reproduces the original box."""
    worst = 0.0
    for _ in range(10):
        stride = int(rng.choice([8, 16, 32]))
        y, x = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        ccy, ccx = (y + 0.5) * stride, (x + 0.5) * stride
        box = (ccx - rng.uniform(1, 40), ccy - rng.uniform(1, 40),
               ccx + rng.uniform(1, 40), ccy + rng.uniform(1, 40))
        raw = np.zeros((1, 4, 4, 4))
        raw[0, :, y, x] = encode_box(box, ccy, ccx, stride)
        dec = decode_boxes(raw, stride)[0, :, y, x]
        worst = max(worst, _max_abs(dec, np.array(box)))
    _require(worst <= 1e-9, f"round-trip error {worst:.3e}")
    return f"max err {worst:.3e}"


def check_model_section_sums(rng) -> str:
    """Per-section parameter and FLOP tables sum exactly to their totals."""
    for name in ("n", "t", "b"):
        cfg = variant_config(name)
        fl = estimate_flops(cfg)
        _require(sum(v for k, v in fl.items() if k != "total") == fl["total"],
                 f"{name}: FLOP sections do not sum to total")
    model = MddcNet(variant_config("n-toy"), np.random.default_rng(0))
    pc = count_params(model)
    _require(sum(v for k, v in pc.items() if k != "total") == pc["total"],
             "parameter sections do not sum to total")
    _require(pc["total"] == sum(p.size for _, p in model.named_parameters()),
             "section table disagrees with the parameter registry")
    return "params + flops consistent"


def check_model_forward_deterministic(rng) -> str:
    """Same seed -> identical parameters; same input -> identical output."""
    cfg = variant_config("n-toy")
    m1 = MddcNet(cfg, np.random.default_rng(123))
    m2 = MddcNet(cfg, np.random.default_rng(123))
    s1, s2 = m1.state_dict(), m2.state_dict()
    _require(set(s1) == set(s2) and
             all(np.array_equal(s1[k], s2[k]) for k in s1),
             "same-seed construction differs")
    x = Tensor(rng.standard_normal((1, 3, 64, 64)))
    with no_grad():
        a = m1(x)
        b = m2(x)
    for (ca, oa, ba), (cb, ob, bb) in zip(a, b):
        _require(np.array_equal(ca.data, cb.data)
                 and np.array_equal(oa.data, ob.data)
                 and np.array_equal(ba.data, bb.data),
                 "same-seed forward differs")
    return "construction + forward bitwise equal"


def check_model_dtype_preserved(rng) -> str:
    """An n-toy forward and backward stays in the model's precision: in f32
    and in f64 every output and every parameter gradient has the model's
    dtype (no NumPy promotion to f64 on the way)."""
    x = rng.random((2, 3, 64, 64))
    for dtype in (np.float32, np.float64):
        model = MddcNet(variant_config("n-toy"), np.random.default_rng(0),
                        dtype=dtype)
        outs = [t for level in model(Tensor(x.astype(dtype))) for t in level]
        _require(all(t.dtype == dtype for t in outs),
                 f"{np.dtype(dtype).name} model output dtypes "
                 f"{sorted({t.dtype.name for t in outs})}")
        sum((t * t).sum() for t in outs).backward()
        bad = [name for name, p in model.named_parameters()
               if p.grad is None or p.grad.dtype != dtype]
        _require(not bad, f"{np.dtype(dtype).name} model: {len(bad)} parameter "
                          f"gradients missing or of another dtype, e.g. {bad[:3]}")
    return "f32 and f64: outputs and parameter gradients keep the dtype"


# -- eval ----------------------------------------------------------------------

def _brute_nms(dets, iou_thr, score_thr):
    pool = sorted((d for d in dets if d.score >= score_thr),
                  key=lambda d: (-d.score, d.class_id, d.box))
    kept = []
    for d in pool:
        ok = True
        for k in kept:
            if k.class_id == d.class_id and box_iou(k.box, d.box) > iou_thr:
                ok = False
                break
        if ok:
            kept.append(d)
    return kept


def _random_detections(rng, n):
    dets = []
    for _ in range(n):
        x1, y1 = rng.uniform(0, 50, 2)
        w, h = rng.uniform(4, 30, 2)
        dets.append(Detection(int(rng.integers(0, 3)),
                              float(np.round(rng.uniform(0, 1), 3)),
                              (float(x1), float(y1), float(x1 + w), float(y1 + h))))
    return dets


def check_eval_nms_matches_bruteforce(rng) -> str:
    """Greedy NMS equals an independent quadratic reference, exactly."""
    for trial in range(10):
        dets = _random_detections(rng, int(rng.integers(0, 40)))
        got = nms(dets, 0.45, 0.25)
        ref = _brute_nms(dets, 0.45, 0.25)
        _require(got == ref, f"NMS deviates from brute force on trial {trial}")
    return "10 random pools, exact match"


def check_eval_nms_idempotent(rng) -> str:
    for _ in range(5):
        dets = _random_detections(rng, 30)
        once = nms(dets)
        _require(nms(once) == once, "nms(nms(D)) != nms(D)")
    return "5 pools idempotent"


def _brute_ap(records, n_gt):
    """Independent 101-point AP: explicit precision/recall table + envelope."""
    if n_gt == 0:
        return 1.0 if not records else 0.0
    recs = sorted(records, key=lambda t: -t[0])
    pr = []
    tp = fp = 0
    for _, hit in recs:
        tp += hit
        fp += not hit
        pr.append((tp / n_gt, tp / (tp + fp)))
    total = 0.0
    for r in np.linspace(0, 1, 101):
        best = 0.0
        for rec, prec in pr:
            if rec >= r - 1e-12 and prec > best:
                best = prec
        total += best
    return total / 101.0


def check_eval_map_matches_bruteforce(rng) -> str:
    """compute_map equals an independent per-class matching + AP reference."""
    n_images = 4
    gts, preds = [], []
    for i in range(n_images):
        scene = generate_scene(900 + i, 64)
        gts.append(scene.annotations)
        dets = []
        for cls_id, (x1, y1, x2, y2) in scene.annotations:
            if rng.uniform() < 0.8:                  # jittered true positives
                j = rng.uniform(-2, 2, 4)
                dets.append(Detection(cls_id, float(rng.uniform(0.3, 1.0)),
                                      (x1 + j[0], y1 + j[1], x2 + j[2], y2 + j[3])))
        dets.extend(_random_detections(rng, 5))     # noise
        preds.append(dets)
    got = compute_map(preds, gts)

    classes = sorted({c for g in gts for c, _ in g}
                     | {d.class_id for dd in preds for d in dd})
    per_thr = []
    for thr in np.round(np.arange(0.5, 0.96, 0.05), 2):
        aps = []
        for cls in classes:
            records, n_gt = [], 0
            for dets, gt in zip(preds, gts):
                boxes = [b for c, b in gt if c == cls]
                n_gt += len(boxes)
                used = [False] * len(boxes)
                for d in sorted((d for d in dets if d.class_id == cls),
                                key=lambda d: (-d.score, d.class_id, d.box)):
                    best, bj = thr, -1
                    for j, b in enumerate(boxes):
                        if not used[j] and box_iou(d.box, b) >= best:
                            best, bj = box_iou(d.box, b), j
                    if bj >= 0:
                        used[bj] = True
                    records.append((d.score, bj >= 0))
            aps.append(_brute_ap(records, n_gt))
        per_thr.append(float(np.mean(aps)))
    err = max(abs(got["map50"] - per_thr[0]),
              abs(got["map50_95"] - float(np.mean(per_thr))))
    _require(err <= TOL_MAP, f"mAP deviates from brute force by {err:.3e}")
    return f"max err {err:.3e}"


def check_eval_map_monotonic(rng) -> str:
    """Removing a false positive never decreases AP."""
    for _ in range(20):
        n = int(rng.integers(2, 15))
        records = [(float(rng.uniform()), bool(rng.uniform() < 0.5))
                   for _ in range(n)]
        n_gt = max(sum(1 for _, h in records if h), 1)
        base = average_precision(records, n_gt)
        fps = [i for i, (_, h) in enumerate(records) if not h]
        for i in fps:
            pruned = records[:i] + records[i + 1:]
            _require(average_precision(pruned, n_gt) >= base - 1e-12,
                     "removing a false positive decreased AP")
    return "20 random record sets"


def check_eval_map_empty_cases(rng) -> str:
    """Empty ground truth: AP 1 with no predictions, 0 with any prediction."""
    _require(average_precision([], 0) == 1.0, "empty/empty should be AP 1")
    _require(average_precision([(0.9, False)], 0) == 0.0,
             "hallucination on empty GT should be AP 0")
    perfect = compute_map([[]], [[]])
    _require(perfect["map50"] == 1.0, "empty scene should score 1.0")
    return "conventions hold"


# -- train ---------------------------------------------------------------------

def check_train_assignment_properties(rng) -> str:
    """Every in-image ground truth claims at least one cell on its routed
    level; overlapping claims resolve to the smaller box."""
    for seed in range(5):
        scene = generate_scene(1234 + seed, 64)
        tgts = assign_targets(scene.annotations, 64)
        total = sum(int(t.obj.sum()) for t in tgts)
        _require(total >= len(scene.annotations) > 0,
                 f"scene {seed}: {len(scene.annotations)} GT but {total} cells")
        for t in tgts:
            ys, xs = np.nonzero(t.obj > 0)
            for y, x in zip(ys, xs):
                box = t.box[:, y, x]
                area = (box[2] - box[0]) * (box[3] - box[1])
                _require(abs(area - t.area[y, x]) <= 1e-9,
                         "stored area disagrees with stored box")
    # explicit smaller-wins conflict: two concentric boxes on one level
    big = (0, (20.0, 20.0, 44.0, 44.0))
    small = (1, (24.0, 24.0, 40.0, 40.0))
    tgts = assign_targets([big, small], 64)
    for t in tgts:
        ys, xs = np.nonzero(t.obj > 0)
        for y, x in zip(ys, xs):
            if tuple(t.box[:, y, x]) == big[1]:
                continue
            _require(t.cls[y, x] == 1, "smaller box should win contested cells")
    return "5 scenes + conflict case"


def check_train_loss_properties(rng) -> str:
    """Loss is non-negative and approaches zero at the saturated-perfect
    prediction (correct hard labels, exact boxes)."""
    scene = generate_scene(77, 64)
    tgts = stack_targets([assign_targets(scene.annotations, 64)])
    preds = []
    big = 40.0
    for tgt, stride in zip(tgts, (8, 16, 32)):
        _, h, w = tgt.obj.shape
        obj = np.where(tgt.obj > 0, big, -big)[:, None]
        cls = np.full((1, 3, h, w), -big)
        box = np.zeros((1, 4, h, w))
        for n, y, x in zip(*np.nonzero(tgt.obj > 0)):
            cls[n, tgt.cls[n, y, x], y, x] = big
            ccy, ccx = (y + 0.5) * stride, (x + 0.5) * stride
            bx = tgt.box[n, :, y, x]
            # saturated boxes only representable when the center is inside
            if bx[0] < ccx < bx[2] and bx[1] < ccy < bx[3]:
                box[n, :, y, x] = encode_box(bx, ccy, ccx, stride)
            else:
                cls[n, tgt.cls[n, y, x], y, x] = big    # keep cls; box stays
        preds.append((Tensor(cls), Tensor(obj), Tensor(box)))
    losses = detection_loss(preds, tgts)
    val = float(losses["total"].data)
    _require(val >= 0.0, f"loss negative: {val}")
    _require(float(losses["obj"].data) <= 1e-12, "objectness BCE not saturated")
    _require(float(losses["cls"].data) <= 1e-12, "class BCE not saturated")
    rand_preds = [(Tensor(rng.standard_normal(p[0].shape)),
                   Tensor(rng.standard_normal(p[1].shape)),
                   Tensor(rng.standard_normal(p[2].shape)))
                  for p in preds]
    _require(float(detection_loss(rand_preds, tgts)["total"].data) > 0.0,
             "random prediction should have positive loss")
    return f"saturated loss {val:.3e}"


CHECKS = {
    "msddc.zero_offset_matches_dilated": check_msddc_zero_offset_matches_dilated,
    "msddc.fresh_module_matches_dilated": check_msddc_fresh_module_matches_dilated,
    "msddc.param_count_example": check_msddc_param_count_example,
    "msddc.integer_offset_is_shift": check_msddc_integer_offset_is_shift,
    "msddc.fractional_offset_matches_bilinear_sample":
        check_msddc_fractional_offset_matches_bilinear_sample,
    "msddc.translation_equivariance": check_msddc_translation_equivariance,
    "ssm.par_matches_seq": check_ssm_par_matches_seq,
    "ssm.zoh_scalar": check_ssm_zoh_scalar,
    "ssm.impulse_response": check_ssm_impulse_response,
    "ssm.frozen_scan_matches_conv": check_ssm_frozen_scan_matches_conv,
    "ssm.mamba_identity_at_init": check_ssm_mamba_identity_at_init,
    "ffn.identity_at_init": check_ffn_identity_at_init,
    "ffn.scalar_pipeline": check_ffn_scalar_pipeline,
    "attn.csca_identity_at_init": check_attn_csca_identity_at_init,
    "attn.saturated_gates": check_attn_saturated_gates,
    "attn.mlca_uniform_input": check_attn_mlca_uniform_input,
    "model.neck_zero_init_fpn": check_model_neck_zero_init_fpn,
    "model.box_roundtrip": check_model_box_roundtrip,
    "model.section_sums": check_model_section_sums,
    "model.forward_deterministic": check_model_forward_deterministic,
    "model.dtype_preserved": check_model_dtype_preserved,
    "eval.nms_matches_bruteforce": check_eval_nms_matches_bruteforce,
    "eval.nms_idempotent": check_eval_nms_idempotent,
    "eval.map_matches_bruteforce": check_eval_map_matches_bruteforce,
    "eval.map_monotonic": check_eval_map_monotonic,
    "eval.map_empty_cases": check_eval_map_empty_cases,
    "train.assignment_properties": check_train_assignment_properties,
    "train.loss_properties": check_train_loss_properties,
}


def run_checks(filter_substring: str | None = None,
               seed: int | None = None) -> list[CheckResult]:
    """Run (a filtered subset of) all registered checks with fresh seeded RNGs."""
    seed = default_seed() if seed is None else seed
    results = []
    for name, fn in CHECKS.items():
        if filter_substring and filter_substring not in name:
            continue
        rng = np.random.default_rng(seed + zlib.crc32(name.encode()) % 1000)
        t0 = time.time()
        try:
            detail = fn(rng)
            results.append(CheckResult(name, True, detail, time.time() - t0))
        except VerifyFailure as exc:
            results.append(CheckResult(name, False, str(exc), time.time() - t0))
        except Exception as exc:
            results.append(CheckResult(name, False,
                                       f"{type(exc).__name__}: {exc}",
                                       time.time() - t0))
    return results
