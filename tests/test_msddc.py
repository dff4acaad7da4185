"""Deformable dilated convolution: oracles, gradients, and module contract."""

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from mddcnet.tensor import Tensor, conv2d
from mddcnet.model import MddcNet, variant_config
from mddcnet.msddc import (Msddc, bilinear_sample,
                           deform_dilated_conv, _TAP_DX, _TAP_DY, _corners)
from mddcnet.gradcheck import grad_check
from mddcnet.verify import CHECKS

from tape_memory import backward_closures, free_vars, held_roots, n_toy_loss

RNG = np.random.default_rng(1)


@pytest.mark.parametrize("name", [n for n in CHECKS if n.startswith("msddc.")])
def test_registered_properties(name):
    CHECKS[name](np.random.default_rng(0))


@pytest.mark.parametrize("dilation", [1, 2, 4])
def test_zero_offsets_equal_dilated_conv(dilation):
    x = Tensor(RNG.standard_normal((2, 3, 8, 8)))
    w = Tensor(RNG.standard_normal((4, 3, 3, 3)))
    b = Tensor(RNG.standard_normal(4))
    off = Tensor(np.zeros((2, 18, 8, 8)))
    got = deform_dilated_conv(x, off, w, b, dilation)
    ref = conv2d(x, w, b, padding=dilation, dilation=dilation)
    assert np.max(np.abs(got.data - ref.data)) <= 1e-10


def test_fractional_offset_interpolates_linearly():
    # single tap contributes w * bilinear(x); a 0.5-pixel dx offset on a
    # horizontal ramp reads the midpoint value
    x = np.tile(np.arange(8, dtype=np.float64), (8, 1))[None, None]
    w = np.zeros((1, 1, 3, 3)); w[0, 0, 1, 1] = 1.0   # center tap only
    off = np.zeros((1, 18, 8, 8)); off[0, 9] = 0.5    # tap 4 dx (channel 2*4+1)
    out = deform_dilated_conv(Tensor(x), Tensor(off), Tensor(w), None, 1)
    assert np.max(np.abs(out.data[0, 0, :, 2:6] - (np.arange(2, 6) + 0.5))) < 1e-12


def test_out_of_range_neighbors_read_zero():
    x = Tensor(np.ones((1, 1, 4, 4)))
    w = np.zeros((1, 1, 3, 3)); w[0, 0, 1, 1] = 1.0
    off = np.zeros((1, 18, 4, 4)); off[0, 8] = 100.0  # push center tap far away
    out = deform_dilated_conv(Tensor(x), Tensor(off), Tensor(w), None, 1)
    assert np.all(out.data == 0.0)


def test_bilinear_sample_matches_manual():
    x = Tensor(RNG.standard_normal((1, 2, 5, 5)))
    v = bilinear_sample(x, 1.25, 2.5, 0, 1)
    d = x.data[0, 1]
    ref = (0.75 * 0.5 * d[1, 2] + 0.75 * 0.5 * d[1, 3]
           + 0.25 * 0.5 * d[2, 2] + 0.25 * 0.5 * d[2, 3])
    assert abs(float(v.data) - ref) < 1e-12


def test_bilinear_sample_gradients():
    x = Tensor(RNG.standard_normal((1, 1, 4, 4)), requires_grad=True)
    py = Tensor(np.asarray(1.3), requires_grad=True)
    px = Tensor(np.asarray(2.6), requires_grad=True)
    rep = grad_check(lambda: bilinear_sample(x, py, px, 0, 0) * 3.0,
                     [("x", x), ("py", py), ("px", px)])
    assert max(rep.values()) < 1e-6


def test_bilinear_sample_gradients_shape_one_coordinates():
    x = Tensor(RNG.standard_normal((1, 1, 4, 4)), requires_grad=True)
    py = Tensor(np.array([1.3]), requires_grad=True)
    px = Tensor(np.array([2.6]), requires_grad=True)
    rep = grad_check(lambda: bilinear_sample(x, py, px, 0, 0) * 3.0,
                     [("x", x), ("py", py), ("px", px)])
    assert max(rep.values()) < 1e-6
    assert py.grad.shape == (1,) and px.grad.shape == (1,)


@pytest.mark.parametrize("d", [1, 2, 4], ids=lambda d: f"d{d}")
@pytest.mark.parametrize("c, co, h, w", [(2, 3, 4, 4), (5, 2, 4, 5)],
                         ids=["C2-Co3-4x4", "C5-Co2-4x5"])
def test_deform_conv_full_gradients(c, co, h, w, d):
    # two samples, and offsets in [-2, 2] so that corners fall off the image;
    # offsets within 0.01 of an integer sit too near a kink of the bilinear
    # weights for central differences, so they are moved off it. Co > C and
    # Co < C (the model's branches), square and non-square maps
    rng = np.random.default_rng([c, co, h, w, d])
    x = Tensor(rng.standard_normal((2, c, h, w)), requires_grad=True)
    o = rng.uniform(-2.0, 2.0, (2, 18, h, w))
    o[np.abs(o - np.round(o)) < 0.01] += 0.05
    off = Tensor(o, requires_grad=True)
    wt = Tensor(rng.standard_normal((co, c, 3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(co), requires_grad=True)
    coeff = rng.standard_normal((2, co, h, w))

    def fn():
        return (deform_dilated_conv(x, off, wt, b, d) * coeff).sum()

    rep = grad_check(fn, [("x", x), ("off", off), ("w", wt), ("b", b)])
    assert max(rep.values()) < 1e-5, rep

    f32 = [Tensor(t.data.astype(np.float32), requires_grad=True) for t in (x, off, wt, b)]
    out = deform_dilated_conv(*f32, d)
    (out * coeff.astype(np.float32)).sum().backward()
    assert out.dtype == np.float32
    assert [t.grad.dtype for t in f32] == [np.float32] * 4


def deform_keeping_arrays(x, offsets, weight, bias, dilation):
    """The slow reference for deform_dilated_conv's backward rebuild: the same
    projection and sampling, with ``y``, ``P``, the corner factors and the tap
    masks kept alive from forward until backward."""
    n, c, h, w = x.shape
    co = weight.shape[0]
    xd, od, wd = x.data, offsets.data, weight.data
    dt, hw = xd.dtype, h * w
    xf = xd.reshape(n, c, hw)
    w9 = wd.reshape(co, c, 9).transpose(2, 0, 1).reshape(9 * co, c)
    y = np.matmul(xf.transpose(0, 2, 1), w9.T).reshape(n * hw * 9, co)
    py = np.arange(h)[:, None, None] + dilation * _TAP_DY + od[:, 0::2].transpose(0, 2, 3, 1)
    px = np.arange(w)[:, None] + dilation * _TAP_DX + od[:, 1::2].transpose(0, 2, 3, 1)
    fy, fx = np.floor(py), np.floor(px)
    wy, wx = (py - fy).astype(dt, copy=False), (px - fx).astype(dt, copy=False)
    y0, x0 = fy.astype(np.int32), fx.astype(np.int32)
    vy0, vy1 = y0.view(np.uint32) < h, (y0 + 1).view(np.uint32) < h
    vx0, vx1 = x0.view(np.uint32) < w, (x0 + 1).view(np.uint32) < w
    fy0, fy1, fx0, fx1 = (1 - wy) * vy0, wy * vy1, (1 - wx) * vx0, wx * vx1
    col00 = 9 * ((np.arange(n, dtype=np.int32) * hw)[:, None, None, None] + y0 * w + x0)
    col00 += np.arange(9, dtype=np.int32)
    cols = np.clip(_corners(col00, col00 + 9 * w, 0, 9, np.add), 0, 9 * n * hw - 1)
    p = csr_matrix((_corners(fy0, fy1, fx0, fx1, np.multiply), cols,
                    np.arange(0, cols.size + 1, 36, dtype=np.int32)), shape=(n * hw, y.shape[0]))
    out = (p @ y).reshape(n, h, w, co).transpose(0, 3, 1, 2)
    if bias is not None:
        out = out + bias.data.reshape(1, co, 1, 1)

    def back(g):
        gcl = g.transpose(0, 2, 3, 1).reshape(n * hw, co)
        gy = (p.T @ gcl).reshape(n, hw, 9 * co)
        gx = np.matmul(w9.T, gy.transpose(0, 2, 1)).reshape(n, c, h, w)
        gw = np.matmul(xf, gy).sum(axis=0).reshape(c, 9, co).transpose(2, 0, 1)
        a = np.matmul(np.take(y, p.indices, axis=0).reshape(n * hw, 36, co),
                      gcl[:, :, None]).reshape(n, h, w, 9, 4)
        a00, a01, a10, a11 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
        goff = np.empty((n, 18, h, w), dtype=od.dtype)
        goff[:, 0::2] = (vy1 * (fx0 * a10 + fx1 * a11)
                         - vy0 * (fx0 * a00 + fx1 * a01)).transpose(0, 3, 1, 2)
        goff[:, 1::2] = (vx1 * (fy0 * a01 + fy1 * a11)
                         - vx0 * (fy0 * a00 + fy1 * a10)).transpose(0, 3, 1, 2)
        grads = [gx, goff, gw.reshape(co, c, 3, 3)]
        if bias is not None:
            grads.append(g.sum(axis=(0, 2, 3)))
        return tuple(grads)

    parents = [x, offsets, weight] + ([bias] if bias is not None else [])
    return Tensor._node(out, parents, back)


def _offsets(kind, rng, shape):
    if kind == "zero":
        return np.zeros(shape)
    if kind == "fractional":
        return rng.uniform(-2.0, 2.0, shape)
    if kind == "whole-pixel":       # samples sit exactly on grid lines
        return rng.integers(-3, 4, shape).astype(np.float64)
    return rng.choice([-1.0, 1.0], shape) * rng.uniform(6.0, 30.0, shape)  # off-image


@pytest.mark.parametrize("kind", ["zero", "fractional", "whole-pixel", "off-image"])
@pytest.mark.parametrize("has_bias", [True, False], ids=["bias", "no-bias"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("d", [1, 2, 4], ids=lambda d: f"d{d}")
def test_deform_rebuild_equals_kept_arrays(d, dtype, has_bias, kind):
    # the backward rebuild recomputes the kept arrays' values in the same
    # order, so the output and every gradient are equal bit for bit
    rng = np.random.default_rng([d, has_bias, len(kind)])
    arrays = [rng.standard_normal((2, 3, 7, 6)), _offsets(kind, rng, (2, 18, 7, 6)),
              rng.standard_normal((4, 3, 3, 3)), rng.standard_normal(4)]
    coeff = Tensor(rng.standard_normal((2, 4, 7, 6)).astype(dtype))
    results = []
    for conv in (deform_keeping_arrays, deform_dilated_conv):
        x, off, wt, b = (Tensor(a.astype(dtype), requires_grad=True) for a in arrays)
        out = conv(x, off, wt, b if has_bias else None, d)
        got = out.data.copy()
        (out * coeff).sum().backward()
        results.append([got, x.grad, off.grad, wt.grad] + ([b.grad] if has_bias else []))
    for ref, new in zip(*results):
        assert new.dtype == dtype
        assert np.array_equal(ref, new)


def test_deform_backward_holds_only_its_inputs():
    # backward rebuilds y, P, the corner factors and the tap masks, so what one
    # deform_dilated_conv node holds is at most its input, its offsets and its
    # reshaped weight: any kept sampling array would break the bound
    model = MddcNet(variant_config("n-toy"), np.random.default_rng(0))
    params = {id(p.data) for p in model.parameters()}
    calls = 0
    for fn in backward_closures(n_toy_loss(model)):
        if fn.__qualname__ != "deform_dilated_conv.<locals>.back":
            continue
        free = free_vars(fn)
        n, c, h, w, w9 = (free[k] for k in ("n", "c", "h", "w", "w9"))
        held = sum(a.nbytes for a in held_roots(fn, params).values())
        assert held <= (n * (c + 18) * h * w + w9.size) * w9.itemsize, (c, h, w)
        calls += 1
    assert calls >= 6


def test_offset_field_validation():
    x = Tensor(np.zeros((1, 2, 4, 4)))
    w = Tensor(np.zeros((3, 2, 3, 3)))
    for shape in ((1, 17, 4, 4), (1, 18, 4, 5), (2, 18, 4, 4)):
        with pytest.raises(ValueError):
            deform_dilated_conv(x, Tensor(np.zeros(shape)), w, None, 1)
    with pytest.raises(ValueError):
        Msddc(4, 4, 4, (2, 1), RNG)
    with pytest.raises(ValueError):
        Msddc(4, 4, 4, (), RNG)


def test_module_output_shape_and_param_paths():
    m = Msddc(3, 6, 4, (1, 2, 4), RNG)
    y = m(Tensor(RNG.standard_normal((2, 3, 8, 8))))
    assert y.shape == (2, 6, 8, 8)
    names = {n for n, _ in m.named_parameters()}
    assert {"offset_conv.weight", "branch1.weight", "branch2.weight",
            "branch4.weight", "fuse.weight"} <= names
