"""Deformable dilated convolution: oracles, gradients, and module contract."""

import numpy as np
import pytest

from mddcnet.tensor import Tensor, conv2d
from mddcnet.msddc import (Msddc, MsddcConfig, bilinear_sample,
                           deform_dilated_conv)
from mddcnet.gradcheck import grad_check
from mddcnet.verify import CHECKS

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


def test_offset_field_validation():
    x = Tensor(np.zeros((1, 2, 4, 4)))
    w = Tensor(np.zeros((3, 2, 3, 3)))
    for shape in ((1, 17, 4, 4), (1, 18, 4, 5), (2, 18, 4, 4)):
        with pytest.raises(ValueError):
            deform_dilated_conv(x, Tensor(np.zeros(shape)), w, None, 1)
    with pytest.raises(ValueError):
        MsddcConfig(4, 4, dilations=(2, 1))
    with pytest.raises(ValueError):
        MsddcConfig(4, 4, dilations=())


def test_module_output_shape_and_param_paths():
    m = Msddc(MsddcConfig(3, 6, branch_channels=4), RNG)
    y = m(Tensor(RNG.standard_normal((2, 3, 8, 8))))
    assert y.shape == (2, 6, 8, 8)
    names = {n for n, _ in m.named_parameters()}
    assert {"offset_conv.weight", "branch1.weight", "branch2.weight",
            "branch4.weight", "fuse.weight"} <= names
