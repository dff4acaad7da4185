"""Autodiff core: forward semantics against naive references, gradients
against central differences."""

import numpy as np
import pytest

from mddcnet.tensor import (Tensor, concat, conv2d, maximum, minimum,
                            adaptive_avg_pool2d,
                            upsample_nearest, scan_seq,
                            batch_norm, bilinear_resize, Conv2d, Linear,
                            BatchNorm2d, no_grad)
from mddcnet.gradcheck import grad_check

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


@pytest.mark.parametrize("stride,padding,dilation,groups", [
    (1, 0, 1, 1), (1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 2, 1), (1, 1, 1, 2),
    (2, 2, 2, 1),
])
def test_conv2d_matches_naive(stride, padding, dilation, groups):
    x = RNG.standard_normal((2, 4, 7, 6))
    w = RNG.standard_normal((4, 4 // groups, 3, 3))
    b = RNG.standard_normal(4)
    got = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride,
                 padding=padding, dilation=dilation, groups=groups)
    ref = naive_conv2d(x, w, b, stride, padding, dilation, groups)
    assert np.max(np.abs(got.data - ref)) < 1e-12


def test_conv2d_gradients():
    x = Tensor(RNG.standard_normal((1, 2, 5, 5)), requires_grad=True)
    w = Tensor(RNG.standard_normal((3, 2, 3, 3)), requires_grad=True)
    b = Tensor(RNG.standard_normal(3), requires_grad=True)
    coeff = RNG.standard_normal((1, 3, 5, 5))

    def fn():
        return (conv2d(x, w, b, padding=1) * coeff).sum()

    rep = grad_check(fn, [("x", x), ("w", w), ("b", b)])
    assert max(rep.values()) < 1e-6


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
    for out in (arr + t, t + arr, arr - t, arr * t, arr / t):
        assert isinstance(out, Tensor)
    assert np.all((arr - t).data == 2.0)
    assert np.all((arr / t).data == 3.0)


@pytest.mark.parametrize("unary", ["exp", "expm1", "sigmoid", "silu", "gelu",
                                   "softplus"])
def test_unary_gradients(unary):
    x = Tensor(RNG.standard_normal((3, 3)), requires_grad=True)
    coeff = RNG.standard_normal((3, 3))
    rep = grad_check(lambda: (getattr(x, unary)() * coeff).sum(), [("x", x)])
    assert max(rep.values()) < 1e-6


def test_upsample_then_avgpool_is_identity():
    x = Tensor(RNG.standard_normal((1, 2, 3, 3)))
    up = upsample_nearest(x, 2).data
    y = up.reshape(1, 2, 3, 2, 3, 2).mean(axis=(3, 5))   # 2x2 average pool
    assert np.max(np.abs(y - x.data)) < 1e-12


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


def test_scan_par_matches_seq_raw():
    # chunks of the recurrence, each started from the state the previous
    # one ended in, reproduce the recurrence over the whole sequence
    abar = RNG.uniform(0.2, 0.99, (2, 37, 3, 2))
    bu = RNG.standard_normal((2, 37, 3, 2))
    for chunk in (1, 5, 16, 37):
        h = np.empty_like(bu)
        state = None
        for t0 in range(0, 37, chunk):
            h[:, t0:t0 + chunk] = scan_seq(abar[:, t0:t0 + chunk],
                                           bu[:, t0:t0 + chunk], state)
            state = h[:, min(t0 + chunk, 37) - 1]
        assert np.array_equal(h, scan_seq(abar, bu))


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
