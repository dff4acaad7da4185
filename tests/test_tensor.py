"""Autodiff core: forward semantics against naive references, gradients
against central differences."""

import dataclasses
import importlib
import inspect
import math
import pkgutil
import warnings
import weakref

import numpy as np
from numpy.lib.stride_tricks import as_strided
import pytest
from scipy.special import erf, expit

import mddcnet
from mddcnet.tensor import (Tensor, Module, Parameter, kaiming_uniform,
                            concat, conv2d, maximum, minimum, resample,
                            adaptive_avg_pool2d, _separable, _cell_mean_factor,
                            _nearest_factor, _bilinear_factor,
                            upsample_nearest_to, scan_seq, conv3_seq,
                            batch_norm, bilinear_resize, Conv2d, Linear,
                            BatchNorm2d, no_grad)
from mddcnet.gradcheck import grad_check
from mddcnet.msddc import Msddc, bilinear_sample
from mddcnet.ssm import MambaBlockConfig
from mddcnet.ffn_attn import CeFfn, Mlca, ScaleCalibration, VanillaFfn, make_ffn

RNG = np.random.default_rng(0)


def naive_conv2d(x, w, b, stride, padding, dilation, groups):
    n, cin, h, wd = x.shape
    co, cig, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - dilation * (kh - 1) - 1) // stride + 1
    ow = (wd + 2 * padding - dilation * (kw - 1) - 1) // stride + 1
    out = np.zeros((n, co, oh, ow))
    cpg = cin // groups
    opg = co // groups
    for ni in range(n):
        for oc in range(co):
            g = oc // opg
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ic in range(cpg):
                        for ky in range(kh):
                            for kx in range(kw):
                                iy = oy * stride + ky * dilation
                                ix = ox * stride + kx * dilation
                                acc += xp[ni, g * cpg + ic, iy, ix] \
                                    * w[oc, ic, ky, kx]
                    out[ni, oc, oy, ox] = acc + (b[oc] if b is not None else 0)
    return out


# (stride, padding, dilation, groups) for 4 input and 4 output channels
CONV_GRID = [(1, 0, 1, 1), (1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 2, 1), (1, 1, 1, 2),
             (2, 2, 2, 1)]


@pytest.mark.parametrize("stride,padding,dilation,groups", CONV_GRID)
def test_conv2d_matches_naive(stride, padding, dilation, groups):
    x = RNG.standard_normal((2, 4, 7, 6))
    w = RNG.standard_normal((4, 4 // groups, 3, 3))
    b = RNG.standard_normal(4)
    got = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride,
                 padding=padding, dilation=dilation, groups=groups)
    ref = naive_conv2d(x, w, b, stride, padding, dilation, groups)
    assert np.max(np.abs(got.data - ref)) < 1e-12


def test_conv2d_gradients():
    # the naive-forward grid plus a depthwise conv (groups == channels)
    for stride, padding, dilation, groups in CONV_GRID + [(1, 1, 1, 4)]:
        x = Tensor(RNG.standard_normal((2, 4, 7, 6)), requires_grad=True)
        w = Tensor(RNG.standard_normal((4, 4 // groups, 3, 3)), requires_grad=True)
        b = Tensor(RNG.standard_normal(4), requires_grad=True)
        out_shape = conv2d(x, w, b, stride=stride, padding=padding,
                           dilation=dilation, groups=groups).shape
        coeff = RNG.standard_normal(out_shape)

        def fn():
            return (conv2d(x, w, b, stride=stride, padding=padding,
                           dilation=dilation, groups=groups) * coeff).sum()

        rep = grad_check(fn, [("x", x), ("w", w), ("b", b)])
        assert max(rep.values()) < 1e-6, (stride, padding, dilation, groups, rep)


def conv2d_keeping_cols(x, weight, bias, stride, padding, dilation, groups):
    """The slow reference for conv2d's backward rebuild: the same im2col
    lowering, with ``cols`` kept alive from forward until backward."""
    n, c, h, w = x.shape
    co, cg, kh, kw = weight.shape
    oh = (h + 2 * padding - dilation * (kh - 1) - 1) // stride + 1
    ow = (w + 2 * padding - dilation * (kw - 1) - 1) // stride + 1
    xd = x.data
    if padding:
        xd = np.pad(xd, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    s0, s1, s2, s3 = xd.strides
    view = as_strided(xd, (n, c, kh, kw, oh, ow),
                      (s0, s1, s2 * dilation, s3 * dilation, s2 * stride, s3 * stride))
    cols = np.ascontiguousarray(view).reshape(n, groups, cg * kh * kw, oh * ow)
    w2 = weight.data.reshape(groups, co // groups, cg * kh * kw)
    out = np.matmul(w2[None], cols).reshape(n, co, oh, ow)
    out += bias.data.reshape(1, co, 1, 1)

    def back(g):
        gg = g.reshape(n, groups, co // groups, oh * ow)
        gw = np.matmul(gg, cols.transpose(0, 1, 3, 2)).sum(axis=0).reshape(weight.shape)
        gcols = np.matmul(w2.transpose(0, 2, 1)[None], gg)
        gcols = gcols.reshape(n, c, kh, kw, oh, ow)
        gxp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=g.dtype)
        for i in range(kh):
            hi = i * dilation
            for j in range(kw):
                wj = j * dilation
                gxp[:, :, hi:hi + oh * stride:stride,
                    wj:wj + ow * stride:stride] += gcols[:, :, i, j]
        gx = gxp[:, :, padding:padding + h, padding:padding + w] if padding else gxp
        return gx, gw, g.sum(axis=(0, 2, 3))

    return Tensor._node(out, (x, weight, bias), back)


# (stride, padding, dilation, groups, in channels, out channels, kernel):
# the grid at 3×3, CE-FFN's depthwise conv (groups == C) and spatial
# attention's 7×7 at padding 3, plain and at stride 2
REBUILD_GRID = ([(*case, 4, 4, 3) for case in CONV_GRID]
                + [(1, 1, 1, 4, 4, 4, 3), (2, 1, 1, 4, 4, 4, 3),
                   (1, 3, 1, 1, 2, 1, 7), (2, 3, 1, 1, 2, 1, 7)])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("stride,padding,dilation,groups,c,co,k", REBUILD_GRID)
def test_conv2d_rebuild_equals_kept_cols(stride, padding, dilation, groups,
                                         c, co, k, dtype):
    # rebuilding cols in backward recomputes the kept copy's values in the
    # same order, so output and all three gradients are equal bit for bit
    rng = np.random.default_rng(3)
    arrays = [rng.standard_normal(s).astype(dtype)
              for s in ((2, c, 9, 8), (co, c // groups, k, k), (co,))]
    results = []
    for rebuild in (False, True):
        x, w, b = (Tensor(a.copy(), requires_grad=True) for a in arrays)
        out = (conv2d(x, w, b, stride=stride, padding=padding, dilation=dilation,
                      groups=groups) if rebuild else
               conv2d_keeping_cols(x, w, b, stride, padding, dilation, groups))
        coeff = np.random.default_rng(4).standard_normal(out.shape).astype(dtype)
        got = out.data.copy()
        (out * Tensor(coeff)).sum().backward()
        results.append((got, x.grad, w.grad, b.grad))
    for ref, new in zip(*results):
        assert new.dtype == dtype
        assert np.array_equal(ref, new)


# (stride, padding, dilation, groups, in channels, out channels, kernel):
# dense 3×3, 1×1, depthwise 3×3 and 3×3 at stride 2
BATCH_GRID = [(1, 1, 1, 1, 4, 6, 3), (1, 0, 1, 1, 4, 6, 1), (1, 1, 1, 4, 4, 4, 3),
              (2, 1, 1, 1, 4, 6, 3)]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n", [1, 3, 8])
@pytest.mark.parametrize("stride,padding,dilation,groups,c,co,k", BATCH_GRID)
def test_conv2d_weight_grad_per_image_equals_batched_sum(stride, padding, dilation,
                                                         groups, c, co, k, n, dtype):
    # conv2d adds the weight gradient up image by image; the kept-cols
    # reference forms np.matmul(gg, colsᵀ).sum(axis=0) over the whole batch,
    # which sums the same per-image products in the same order
    rng = np.random.default_rng(n)
    arrays = [rng.standard_normal(s).astype(dtype)
              for s in ((n, c, 7, 6), (co, c // groups, k, k), (co,))]
    grads = []
    for keep_cols in (False, True):
        x, w, b = (Tensor(a.copy(), requires_grad=True) for a in arrays)
        out = (conv2d_keeping_cols(x, w, b, stride, padding, dilation, groups)
               if keep_cols else
               conv2d(x, w, b, stride=stride, padding=padding, dilation=dilation,
                      groups=groups))
        coeff = np.random.default_rng(4).standard_normal(out.shape).astype(dtype)
        (out * Tensor(coeff)).sum().backward()
        grads.append(w.grad)
    assert grads[0].dtype == dtype and np.array_equal(*grads)


@pytest.mark.parametrize("op", ["add", "mul", "sub", "div", "matmul"])
def test_binary_op_gradients(op):
    a = Tensor(RNG.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(RNG.standard_normal((3, 4)) + 3.0, requires_grad=True)
    coeff = RNG.standard_normal((3, 4))
    fns = {
        "add": lambda: ((a + b) * coeff).sum(),
        "mul": lambda: ((a * b) * coeff).sum(),
        "sub": lambda: ((a - b) * coeff).sum(),
        "div": lambda: ((a / b) * coeff).sum(),
        "matmul": lambda: ((a @ b.transpose((1, 0))) * coeff[:, :3]).sum(),
    }
    rep = grad_check(fns[op], [("a", a), ("b", b)])
    assert max(rep.values()) < 1e-6


def test_broadcasting_gradients():
    a = Tensor(RNG.standard_normal((2, 3, 4)), requires_grad=True)
    b = Tensor(RNG.standard_normal((3, 1)), requires_grad=True)
    coeff = RNG.standard_normal((2, 3, 4))
    rep = grad_check(lambda: ((a * b + b) * coeff).sum(), [("a", a), ("b", b)])
    assert max(rep.values()) < 1e-6


def test_ndarray_interop_dispatches_to_tensor():
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    arr = np.full((2, 2), 3.0)
    for out in (arr + t, t + arr, arr - t, arr * t):
        assert isinstance(out, Tensor)
    assert np.all((arr - t).data == 2.0)


@pytest.mark.parametrize("unary", ["exp", "expm1", "sigmoid", "silu", "gelu",
                                   "softplus"])
def test_unary_gradients(unary):
    x = Tensor(RNG.standard_normal((3, 3)), requires_grad=True)
    coeff = RNG.standard_normal((3, 3))
    rep = grad_check(lambda: (getattr(x, unary)() * coeff).sum(), [("x", x)])
    assert max(rep.values()) < 1e-6


def silu_keeping_s(x):
    """The slow reference for silu's backward rebuild: σ(x) kept alive from
    forward until backward."""
    d = x.data
    s = expit(d)
    return Tensor._node(d * s, (x,), lambda g: (g * s * (1.0 + d * (1.0 - s)),))


def gelu_keeping_phi(x):
    """The slow reference for gelu's one held array: Φ(x) and x kept alive
    from forward, the derivative formed in backward."""
    d = x.data
    phi = 0.5 * (1.0 + erf(d / math.sqrt(2.0)))

    def back(g):
        pdf = (1.0 / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * d * d)
        return (g * (phi + d * pdf),)

    return Tensor._node(d * phi, (x,), back)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("op,ref", [("silu", silu_keeping_s), ("gelu", gelu_keeping_phi)])
def test_activation_holding_one_array_equals_kept_arrays(op, ref, dtype):
    # the one held array gives the same expressions in the same order, so
    # output and input gradient are equal bit for bit
    grid = np.concatenate([[0.0, -0.0, 1e-8, -1e-8, 1.0, -1.0, 10.0, -10.0, 40.0, -40.0],
                           np.random.default_rng(6).standard_normal(40) * 3.0])
    coeff = Tensor(np.random.default_rng(7).standard_normal(grid.shape).astype(dtype))
    results = []
    for fn in (ref, lambda t: getattr(t, op)()):
        x = Tensor(grid.astype(dtype), requires_grad=True)
        out = fn(x)
        (out * coeff).sum().backward()
        results.append((out.data, x.grad))
    for kept, new in zip(*results):
        assert new.dtype == dtype
        assert np.array_equal(kept, new)


def test_logistic_is_finite_and_matches_masked_form_at_extremes():
    d = np.array([-800.0, -30.0, -0.0, 0.0, 30.0, 800.0])
    masked = np.empty_like(d)                 # the split-by-sign stable form
    pos = d >= 0
    masked[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    e = np.exp(d[~pos])
    masked[~pos] = e / (1.0 + e)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x = Tensor(d, requires_grad=True)
        sig = x.sigmoid()
        sig.sum().backward()
        sp = Tensor(d, requires_grad=True)
        sp.softplus().sum().backward()
        silu = Tensor(d).silu()
    for got in (sig.data, x.grad, sp.grad, silu.data):
        assert np.all(np.isfinite(got))
    assert np.max(np.abs(sig.data - masked)) <= 1e-15
    assert np.max(np.abs(sp.grad - masked)) <= 1e-15
    assert Tensor(d.astype(np.float32)).sigmoid().dtype == np.float32


@pytest.mark.parametrize("dtype, rel", [(np.float64, 4.5e-16), (np.float32, 3.6e-7)])
def test_softplus_matches_logaddexp(dtype, rel):
    # within 2 ulp of np.logaddexp(0, x), and exactly where either is zero
    grid = np.concatenate([[-800.0, -30.0, -0.0, 0.0, 1e-300, 30.0, 800.0],
                           np.linspace(-40.0, 40.0, 20001),
                           RNG.standard_normal(20000) * 5.0]).astype(dtype)
    ref = np.logaddexp(0.0, grid)
    got = Tensor(grid).softplus().data
    assert got.dtype == dtype
    zero = (ref == 0.0) | (got == 0.0)
    assert np.array_equal(got[zero], ref[zero])
    assert np.max(np.abs(got[~zero] - ref[~zero]) / ref[~zero]) <= rel


def test_softplus_non_finite_matches_logaddexp_without_warning():
    d = np.array([np.nan, np.inf, -np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x = Tensor(d, requires_grad=True)
        y = x.softplus()
        y.sum().backward()
    with np.errstate(invalid="ignore"):      # logaddexp itself warns on NaN
        ref = np.logaddexp(0.0, d)
    np.testing.assert_array_equal(y.data, ref)
    np.testing.assert_array_equal(x.grad, [np.nan, 1.0, 0.0])


def test_upsample_then_avgpool_is_identity():
    x = Tensor(RNG.standard_normal((1, 2, 3, 3)))
    up = upsample_nearest_to(x, 6, 6).data
    y = up.reshape(1, 2, 3, 2, 3, 2).mean(axis=(3, 5))   # 2x2 average pool
    assert np.max(np.abs(y - x.data)) < 1e-12


# -- resampling: oracles and gradients -------------------------------------------

@pytest.mark.parametrize("shape, size", [((2, 2, 10, 8), (3, 5)), ((2, 2, 3, 3), (7, 7))])
def test_bilinear_resize_matches_scalar_bilinear_sample(shape, size):
    # at clipped half-pixel centres the zero-padded sample equals the clamped
    # resize: a corner off the image always carries weight 0
    n, c, h, w = shape
    oh, ow = size
    xd = RNG.standard_normal(shape)
    g = RNG.standard_normal((n, c, oh, ow))
    ys = np.clip((np.arange(oh) + 0.5) * h / oh - 0.5, 0, h - 1)
    xs = np.clip((np.arange(ow) + 0.5) * w / ow - 0.5, 0, w - 1)
    x_ref = Tensor(xd, requires_grad=True)
    ref = np.zeros((n, c, oh, ow))
    loss = None
    for ni in range(n):
        for ci in range(c):
            for i, py in enumerate(ys):
                for j, px in enumerate(xs):
                    v = bilinear_sample(x_ref, py, px, ni, ci)
                    ref[ni, ci, i, j] = v.item()
                    term = v * float(g[ni, ci, i, j])
                    loss = term if loss is None else loss + term
    loss.backward()
    x = Tensor(xd, requires_grad=True)
    out = bilinear_resize(x, oh, ow)
    (out * g).sum().backward()
    assert np.max(np.abs(out.data - ref)) < 1e-14
    assert np.max(np.abs(x.grad - x_ref.grad)) < 1e-14


@pytest.mark.parametrize("shape, grid", [((2, 3, 5, 7), (2, 3)), ((1, 2, 7, 5), (3, 2)),
                                         ((2, 1, 16, 16), (5, 5)), ((1, 2, 3, 3), (1, 1))])
def test_adaptive_pool_matches_per_cell_slice_mean(shape, grid):
    # torch-style cells [i*h//gh, ceil((i+1)*h/gh)) overlap when gh does not divide h
    _, _, h, w = shape
    gh, gw = grid
    xd = RNG.standard_normal(shape)
    ref = np.empty(shape[:2] + grid)
    for i in range(gh):
        for j in range(gw):
            cell = xd[:, :, i * h // gh:-(-(i + 1) * h // gh),
                      j * w // gw:-(-(j + 1) * w // gw)]
            ref[:, :, i, j] = cell.mean(axis=(2, 3))
    assert np.max(np.abs(adaptive_avg_pool2d(Tensor(xd), grid).data - ref)) < 1e-14


@pytest.mark.parametrize("shape, size", [((2, 3, 5, 5), (16, 16)), ((1, 2, 3, 2), (7, 5)),
                                         ((1, 1, 4, 6), (8, 12))])
def test_upsample_nearest_to_matches_gather(shape, size):
    _, _, h, w = shape
    oh, ow = size
    xd = RNG.standard_normal(shape)
    ri, ci = np.arange(oh) * h // oh, np.arange(ow) * w // ow
    assert np.array_equal(upsample_nearest_to(Tensor(xd), oh, ow).data,
                          xd[:, :, ri][:, :, :, ci])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("factor, shape, size", [
    (_cell_mean_factor, (2, 3, 16, 16), (5, 5)),
    (_cell_mean_factor, (1, 2, 7, 5), (3, 2)),
    (_nearest_factor, (2, 3, 5, 5), (16, 16)),
    (_nearest_factor, (1, 2, 3, 2), (7, 5)),
    (_bilinear_factor, (1, 4, 8, 8), (40, 40)),
    (_bilinear_factor, (2, 2, 5, 4), (3, 7)),
])
def test_resample_backward_by_cached_csr_equals_coo_transpose(factor, shape, size, dtype):
    # backward applies the map's cached CSR transpose; the reference
    # transposes the COO map on the call, as resample once did
    n, c, h, w = shape
    r = _separable(factor, h, w, *size, dtype)
    x = Tensor(RNG.standard_normal(shape).astype(dtype), requires_grad=True)
    g = RNG.standard_normal((n, c, *size)).astype(dtype)
    (resample(x, r) * Tensor(g)).sum().backward()
    ref = np.zeros((n * c, h * w), dtype=dtype)
    ref[:, r.cols] = (r.m.T @ g.reshape(n * c, -1).T).T
    assert x.grad.dtype == dtype and np.array_equal(x.grad, ref.reshape(shape))


@pytest.mark.parametrize("op, shape, args", [
    (bilinear_resize, (2, 2, 5, 4), (3, 7)),
    (bilinear_resize, (1, 2, 3, 6), (7, 2)),
    (adaptive_avg_pool2d, (2, 2, 5, 7), ((2, 3),)),
    (adaptive_avg_pool2d, (1, 2, 7, 4), ((3, 4),)),
    (upsample_nearest_to, (2, 2, 3, 2), (7, 5)),
    (upsample_nearest_to, (1, 2, 2, 3), (4, 9)),
])
def test_resampling_gradients(op, shape, args):
    x = Tensor(RNG.standard_normal(shape), requires_grad=True)
    coeff = RNG.standard_normal(op(x, *args).shape)
    rep = grad_check(lambda: (op(x, *args) * coeff).sum(), [("x", x)])
    assert max(rep.values()) < 1e-6


def test_resampling_keeps_float32():
    x = Tensor(RNG.standard_normal((1, 2, 5, 6)).astype(np.float32), requires_grad=True)
    for out in (bilinear_resize(x, 3, 7), adaptive_avg_pool2d(x, (2, 4)),
                upsample_nearest_to(x, 9, 8)):
        x.grad = None
        out.sum().backward()
        assert out.dtype == np.float32 and x.grad.dtype == np.float32


@pytest.mark.parametrize("op, shape, pixel, out_bad, g_bad", [
    # the 2x2 cell (1, 2) holds pixel (3, 4); output (0, 0) averages [0:2, 0:2]
    (lambda x: adaptive_avg_pool2d(x, (3, 3)), (6, 6), (3, 4),
     (slice(1, 2), slice(2, 3)), (slice(0, 2), slice(0, 2))),
    # rows 2-3 and columns 4-5 pick pixel (1, 2); output (0, 0) reads pixel (0, 0)
    (lambda x: upsample_nearest_to(x, 6, 6), (3, 3), (1, 2),
     (slice(2, 4), slice(4, 6)), (slice(0, 1), slice(0, 1))),
    # halving puts output i halfway between pixels 2i and 2i+1
    (lambda x: bilinear_resize(x, 4, 4), (8, 8), (4, 5),
     (slice(2, 3), slice(2, 3)), (slice(0, 2), slice(0, 2))),
    # at scale 1 each output sits on its pixel: the neighbours weigh exactly 0
    (lambda x: bilinear_resize(x, 6, 6), (6, 6), (3, 4),
     (slice(3, 4), slice(4, 5)), (slice(0, 1), slice(0, 1))),
], ids=["pool", "nearest", "bilinear", "bilinear-scale-1"])
def test_resampling_keeps_non_finite_values_local(op, shape, pixel, out_bad, g_bad):
    # an inf pixel turns only the outputs that read it non-finite, and an inf
    # output gradient only the pixels that output reads
    xd = np.ones((1, 1) + shape)
    xd[0, 0][pixel] = np.inf
    x = Tensor(xd, requires_grad=True)
    out = op(x)
    expect = np.zeros(out.shape[2:], dtype=bool)
    expect[out_bad] = True
    assert np.array_equal(~np.isfinite(out.data[0, 0]), expect)
    g = np.ones(out.shape)
    g[0, 0, 0, 0] = np.inf
    (gx,) = out._backward(g)
    expect = np.zeros(shape, dtype=bool)
    expect[g_bad] = True
    assert np.array_equal(~np.isfinite(gx[0, 0]), expect)


def test_gap_of_constant_map():
    x = Tensor(np.full((2, 3, 4, 5), 2.5))
    assert np.all(x.mean(axis=(2, 3), keepdims=True).data == 2.5)


def test_adaptive_pool_full_grid_is_identity():
    x = Tensor(RNG.standard_normal((1, 2, 4, 4)))
    assert np.array_equal(adaptive_avg_pool2d(x, (4, 4)).data, x.data)


def test_maximum_ties_route_to_first():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([1.0, 1.0]), requires_grad=True)
    maximum(a, b).sum().backward()
    assert np.array_equal(a.grad, [1.0, 1.0])
    assert np.array_equal(b.grad, [0.0, 0.0])


def test_minimum_and_clamp_gradients():
    a = Tensor(RNG.standard_normal(6), requires_grad=True)
    b = Tensor(RNG.standard_normal(6), requires_grad=True)
    rep = grad_check(lambda: (minimum(a, b).clamp(lo=-0.5) * 2.0).sum(),
                     [("a", a), ("b", b)])
    assert max(rep.values()) < 1e-6


def test_getitem_and_concat_gradients():
    x = Tensor(RNG.standard_normal((4, 5)), requires_grad=True)
    coeff = RNG.standard_normal((4, 8))

    def fn():
        return (concat([x[:, :3], x[:, :5]], axis=1) * coeff).sum()

    rep = grad_check(fn, [("x", x)])
    assert max(rep.values()) < 1e-6


def test_getitem_basic_key_gradient_equals_add_at():
    x = Tensor(RNG.standard_normal((3, 4, 5)), requires_grad=True)
    for key in (1, slice(None, None, 2), (Ellipsis, 2), (slice(1, 3), None, 0),
                (np.int64(2), slice(None), slice(4, 0, -2)), (0, 1, 2)):
        g = RNG.standard_normal(x.data[key].shape)
        (got,) = x[key]._backward(g)
        ref = np.zeros(x.shape)
        np.add.at(ref, key, g)
        assert np.array_equal(got, ref), key


def test_getitem_repeated_index_accumulates():
    x = Tensor(np.arange(3.0), requires_grad=True)
    x[[0, 0, 1]].sum().backward()
    assert np.array_equal(x.grad, [2.0, 1.0, 0.0])


def test_scan_par_matches_seq_raw():
    # chunks of the recurrence, each started from the state the previous
    # one ended in, reproduce the recurrence over the whole sequence
    abar = RNG.uniform(0.2, 0.99, (37, 2, 3, 2))
    bu = RNG.standard_normal((37, 2, 3, 2))
    for chunk in (1, 5, 16, 37):
        h = np.empty_like(bu)
        state = None
        for t0 in range(0, 37, chunk):
            h[t0:t0 + chunk] = scan_seq(abar[t0:t0 + chunk], bu[t0:t0 + chunk],
                                        state)
            state = h[min(t0 + chunk, 37) - 1]
        assert np.array_equal(h, scan_seq(abar, bu))
    # on reversed views, started from the last token, it is the reverse
    # recurrence q_t += abar_{t+1}·q_{t+1} of the fused scan's backward
    for chunk in (1, 5, 37):
        a, ref = abar[:chunk], bu[:chunk].copy()
        for t in range(chunk - 2, -1, -1):
            ref[t] += a[t + 1] * ref[t + 1]
        q = bu[:chunk].copy()
        rev = scan_seq(a[:0:-1], q[-2::-1], q[-1])
        assert np.array_equal(rev, ref[-2::-1])
        scan_seq(a[:0:-1], q[-2::-1], q[-1], out=q[-2::-1])
        assert np.array_equal(q, ref)


def _conv3_composed(x, w, b):
    """The width-3 sequence conv composed from taped ops: zero padding,
    slices, products and adds: the reference for conv3_seq."""
    zero = Tensor(np.zeros(x.shape[:1] + (1,) + x.shape[2:]))
    xp = concat([zero, x, zero], axis=1)
    return xp[:, :-2] * w[0] + xp[:, 1:-1] * w[1] + xp[:, 2:] * w[2] + b


# per-channel taps over [N, L, D] (Mamba) and scalar taps over [N, C, H, W] (MLCA)
CONV3_CASES = {"per_channel": ((2, 7, 5), (3, 5), (5,)),
               "scalar": ((2, 6, 3, 4), (3,), (1,))}


@pytest.mark.parametrize("xs, ws, bs", CONV3_CASES.values(), ids=CONV3_CASES)
def test_conv3_seq_equals_composed_form(xs, ws, bs):
    rng = np.random.default_rng(4)
    x, w, b = (Tensor(rng.standard_normal(sh)) for sh in (xs, ws, bs))
    assert np.array_equal(conv3_seq(x, w, b).data, _conv3_composed(x, w, b).data)


@pytest.mark.parametrize("xs, ws, bs", CONV3_CASES.values(), ids=CONV3_CASES)
def test_conv3_seq_gradients(xs, ws, bs):
    rng = np.random.default_rng(5)
    x, w, b = (Tensor(rng.standard_normal(sh), requires_grad=True)
               for sh in (xs, ws, bs))
    coeff = rng.standard_normal(xs)
    rep = grad_check(lambda: (conv3_seq(x, w, b) * coeff).sum(),
                     [("x", x), ("w", w), ("b", b)])
    assert max(rep.values()) < 1e-6


@pytest.mark.parametrize("xs, ws, bs", CONV3_CASES.values(), ids=CONV3_CASES)
def test_conv3_seq_keeps_float32(xs, ws, bs):
    rng = np.random.default_rng(6)
    x, w, b = (Tensor(rng.standard_normal(sh).astype(np.float32), requires_grad=True)
               for sh in (xs, ws, bs))
    y = conv3_seq(x, w, b)
    y.sum().backward()
    assert y.dtype == np.float32
    assert [t.grad.dtype for t in (x, w, b)] == [np.float32] * 3


def test_batch_norm_normalizes_and_tracks_stats():
    bn = BatchNorm2d(3)
    x = Tensor(RNG.standard_normal((4, 3, 5, 5)) * 2.0 + 1.0)
    y = bn(x)
    mu = y.data.mean(axis=(0, 2, 3))
    sd = y.data.std(axis=(0, 2, 3))
    assert np.max(np.abs(mu)) < 1e-10 and np.max(np.abs(sd - 1)) < 1e-4
    bn.eval()
    y2 = bn(x)
    assert y2.shape == x.shape


def test_bilinear_resize_identity_and_constant():
    x = Tensor(RNG.standard_normal((1, 2, 5, 5)))
    assert np.max(np.abs(bilinear_resize(x, 5, 5).data - x.data)) < 1e-12
    c = Tensor(np.full((1, 1, 3, 3), 4.0))
    assert np.max(np.abs(bilinear_resize(c, 7, 7).data - 4.0)) < 1e-12


def test_no_grad_blocks_taping():
    x = Tensor(RNG.standard_normal(4), requires_grad=True)
    with no_grad():
        y = (x * 2.0).sum()
    assert not y.requires_grad


def test_second_backward_through_consumed_graph_raises():
    x = Tensor(RNG.standard_normal(4), requires_grad=True)
    h = x.exp()
    loss = (h * h).sum()
    loss.backward()
    with pytest.raises(RuntimeError, match="consumed"):
        loss.backward()
    # a fresh root that reaches the consumed part raises too, rather than
    # stopping at the consumed nodes as if they were leaves
    with pytest.raises(RuntimeError, match="consumed"):
        (h * 2.0).sum().backward()
    assert np.array_equal(x.grad, 2.0 * np.exp(x.data) ** 2)


def test_backward_calls_the_assigned_backward():
    # a wrapper assigned to out._backward is what backward() runs
    x = Tensor(RNG.standard_normal(3), requires_grad=True)
    out = x * 3.0
    orig, seen = out._backward, []

    def wrapper(g):
        seen.append(g.copy())
        return orig(g)

    out._backward = wrapper
    assert out._backward is wrapper
    out.sum().backward()
    assert len(seen) == 1 and np.array_equal(seen[0], np.ones(3))
    assert np.array_equal(x.grad, np.full(3, 3.0))


def test_conv_output_feeding_batch_norm_is_freed_when_dropped():
    x = Tensor(RNG.standard_normal((2, 3, 6, 6)), requires_grad=True)
    conv, bn = Conv2d(3, 4, 3, padding=1, rng=RNG), BatchNorm2d(4)
    y = conv(x)
    ref = weakref.ref(y.data)
    z = bn(y)
    del y
    assert ref() is None
    z.sum().backward()
    assert conv.weight.grad is not None and x.grad.shape == x.shape


def test_arrays_a_closure_read_are_freed_after_backward():
    # gelu's node holds one array, its derivative
    x = Tensor(RNG.standard_normal(5), requires_grad=True)
    y = (x * 2.0).gelu()
    refs = [weakref.ref(c.cell_contents) for c in y._backward.__closure__
            if isinstance(c.cell_contents, np.ndarray)]
    loss = y.sum()
    del y
    assert len(refs) == 1 and all(r() is not None for r in refs)
    loss.backward()
    assert all(r() is None for r in refs)


def test_item_reads_any_size_one_tensor():
    assert Tensor(np.asarray(2.5)).item() == 2.5
    assert Tensor(np.full((1, 1), 3.0)).item() == 3.0
    assert Tensor(np.full((1, 1, 1, 1), -0.5)).item() == -0.5
    with pytest.raises(ValueError):
        Tensor(np.ones((1, 2))).item()


def test_module_registry_roundtrip():
    lin = Linear(3, 2, rng=RNG)
    conv = Conv2d(2, 2, 3, rng=RNG)
    names = dict(lin.named_parameters())
    assert set(names) == {"weight", "bias"}
    state = conv.state_dict()
    conv2 = Conv2d(2, 2, 3, rng=np.random.default_rng(99))
    conv2.load_state_dict(state)
    assert np.array_equal(conv2.weight.data, conv.weight.data)


def test_load_state_dict_rejects_missing_unknown_and_misshapen_entries():
    bn = BatchNorm2d(2)
    state = {k: v.copy() for k, v in bn.state_dict().items()}
    before = {k: v.copy() for k, v in state.items()}
    missing = {k: v for k, v in state.items() if k != "running_var"}
    with pytest.raises(KeyError, match="missing entry in state dict: running_var"):
        bn.load_state_dict(missing)
    with pytest.raises(KeyError, match="unknown entry in state dict: extra"):
        bn.load_state_dict({**state, "extra": np.zeros(1)})
    with pytest.raises(ValueError, match="shape mismatch for running_mean"):
        bn.load_state_dict({**state, "gamma": state["gamma"] + 1.0,
                            "running_mean": np.zeros(1)})
    for k, v in bn.state_dict().items():          # a rejected dict loads nothing
        assert np.array_equal(v, before[k])


def test_module_astype_casts_parameters_and_buffers_in_place():
    bn = BatchNorm2d(3)
    gamma = bn.gamma
    assert bn.astype(np.float32) is bn
    assert bn.gamma is gamma and gamma.dtype == np.float32
    assert {v.dtype.name for v in bn.state_dict().values()} == {"float32"}


def _library_modules():
    for info in pkgutil.iter_modules(mddcnet.__path__):
        if info.name != "__main__":
            importlib.import_module(f"mddcnet.{info.name}")
    todo, found = [Module], []
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("mddcnet."):
                found.append(sub)
    return found


def test_precision_is_no_constructor_argument():
    # Module.astype is the one place precision is set: no module and none of
    # the tensor and parameter factories take a dtype argument
    modules = _library_modules()
    assert len(modules) >= 19
    takes_dtype = [f.__qualname__ for f in (*modules, Tensor, Parameter,
                                            kaiming_uniform, make_ffn)
                   if "dtype" in inspect.signature(f).parameters]
    assert takes_dtype == []


def test_blocks_take_no_construction_knob():
    # every block takes its widths from the variant and fixes the rest as
    # module constants: a parameter or config field that only tests would
    # set is a knob that does nothing in the program
    expected = {
        CeFfn: ["channels", "rng"],
        VanillaFfn: ["channels", "rng"],
        make_ffn: ["kind", "channels", "rng"],
        Mlca: [],
        ScaleCalibration: ["channels", "rng"],
        BatchNorm2d: ["channels"],
        batch_norm: ["x", "gamma", "beta", "running_mean", "running_var", "training"],
        Msddc: ["in_channels", "out_channels", "branch_channels", "dilations", "rng"],
    }
    for f, names in expected.items():
        assert list(inspect.signature(f).parameters) == names, f.__qualname__
    assert [f.name for f in dataclasses.fields(MambaBlockConfig)] == ["d_model",
                                                                     "d_state"]
