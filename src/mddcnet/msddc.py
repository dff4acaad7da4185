"""Multi-scale deformable dilated convolution.

A 3x3 offset conv predicts per-pixel 2D displacements for the 9 kernel
taps; three dilated deformable branches share that offset field and a
1x1 conv fuses their concatenated outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, Module, Conv2d, concat

__all__ = ["MsddcConfig", "Msddc", "bilinear_sample", "deform_dilated_conv"]

# 3x3 taps in row-major kernel order; offset channels are tap-major (dy, dx) pairs
_TAP_DY = np.repeat(np.arange(-1, 2), 3)
_TAP_DX = np.tile(np.arange(-1, 2), 3)


@dataclass
class MsddcConfig:
    in_channels: int
    out_channels: int
    dilations: tuple[int, ...] = (1, 2, 4)
    # None: every branch outputs out_channels (concat = 3*Co into the 1x1 fuse)
    branch_channels: int | None = None

    def __post_init__(self):
        d = tuple(self.dilations)
        if not d or any(x < 1 for x in d) or any(b <= a for a, b in zip(d, d[1:])):
            raise ValueError(f"dilations must be non-empty, >=1, strictly increasing: {d}")
        self.dilations = d


def bilinear_sample(x: Tensor, py, px, n: int, c: int) -> Tensor:
    """Bilinear read of channel ``c`` of sample ``n`` at real coordinates.

    Out-of-range neighbors contribute zero (consistent with zero padding).
    Differentiable w.r.t. ``x`` and, when given as tensors, (py, px).
    """
    py = py if isinstance(py, Tensor) else Tensor(float(py))
    px = px if isinstance(px, Tensor) else Tensor(float(px))
    _, _, h, w = x.shape
    pyv, pxv = py.data.item(), px.data.item()
    y0, x0 = int(np.floor(pyv)), int(np.floor(pxv))
    wy, wx = pyv - y0, pxv - x0
    xd = x.data

    def pix(yi, xi):
        if 0 <= yi < h and 0 <= xi < w:
            return xd[n, c, yi, xi]
        return 0.0

    v00, v01 = pix(y0, x0), pix(y0, x0 + 1)
    v10, v11 = pix(y0 + 1, x0), pix(y0 + 1, x0 + 1)
    val = ((1 - wy) * (1 - wx) * v00 + (1 - wy) * wx * v01 +
           wy * (1 - wx) * v10 + wy * wx * v11)

    def back(g):
        gs = g.item()
        gx = np.zeros_like(xd)
        for yi, xi, wgt in ((y0, x0, (1 - wy) * (1 - wx)), (y0, x0 + 1, (1 - wy) * wx),
                            (y0 + 1, x0, wy * (1 - wx)), (y0 + 1, x0 + 1, wy * wx)):
            if 0 <= yi < h and 0 <= xi < w:
                gx[n, c, yi, xi] += gs * wgt
        gpy = gs * ((v10 - v00) * (1 - wx) + (v11 - v01) * wx)
        gpx = gs * ((v01 - v00) * (1 - wy) + (v11 - v10) * wy)
        return gx, np.full(py.shape, gpy), np.full(px.shape, gpx)

    return Tensor._node(np.asarray(val), (x, py, px), back)


def deform_dilated_conv(x: Tensor, offsets: Tensor, weight: Tensor,
                        bias: Tensor | None, dilation: int) -> Tensor:
    """3x3 deformable convolution at a given dilation, stride 1, padding = d.

    offsets: [N, 18, H, W]; channel 2k is tap k's dy, channel 2k+1 its dx.
    Output pixel (y, x0), tap (i, j): sample the input at
    (y + d*i + dy_ij, x0 + d*j + dx_ij) bilinearly; out-of-image neighbors
    read zero. Offsets are in input pixels and are not scaled by ``dilation``.
    """
    n, c, h, w = x.shape
    if offsets.shape != (n, 18, h, w):
        raise ValueError(f"offset field {offsets.shape} does not match input {x.shape}")
    co = weight.shape[0]
    if weight.shape != (co, c, 3, 3):
        raise ValueError(f"deformable weight must be [Co,{c},3,3], got {weight.shape}")

    xd, od, wd = x.data, offsets.data, weight.data
    hw = h * w
    yy = np.arange(h, dtype=xd.dtype)[None, None, :, None]
    xx = np.arange(w, dtype=xd.dtype)[None, None, None, :]
    py = yy + (dilation * _TAP_DY)[None, :, None, None] + od[:, 0::2]
    px = xx + (dilation * _TAP_DX)[None, :, None, None] + od[:, 1::2]

    y0 = np.floor(py).astype(np.int64)
    x0 = np.floor(px).astype(np.int64)
    wy = (py - y0).astype(xd.dtype)
    wx = (px - x0).astype(xd.dtype)

    xflat = xd.reshape(n, c, hw)
    # gather the 4 bilinear corners for all taps in one indexed read
    ys = np.stack((y0, y0, y0 + 1, y0 + 1))          # [4, N, 9, H, W]
    xs = np.stack((x0, x0 + 1, x0, x0 + 1))
    valid = ((ys >= 0) & (ys < h) & (xs >= 0) & (xs < w))
    idx = np.clip(ys, 0, h - 1) * w + np.clip(xs, 0, w - 1)
    flat = idx.transpose(1, 0, 2, 3, 4).reshape(n, 1, 4 * 9 * hw)
    vals = np.take_along_axis(xflat, np.broadcast_to(flat, (n, c, 4 * 9 * hw)),
                              axis=2)
    vals = (vals.reshape(n, c, 4, 9, h, w).transpose(2, 0, 1, 3, 4, 5)
            * valid[:, :, None].astype(xd.dtype))
    (v00, m00, i00), (v01, m01, i01), (v10, m10, i10), (v11, m11, i11) = (
        (vals[k], valid[k], idx[k].reshape(n, 9 * hw)) for k in range(4))
    w00 = ((1 - wy) * (1 - wx))[:, None]
    w01 = ((1 - wy) * wx)[:, None]
    w10 = (wy * (1 - wx))[:, None]
    w11 = (wy * wx)[:, None]
    sampled = v00 * w00 + v01 * w01 + v10 * w10 + v11 * w11
    srs = sampled.reshape(n, c * 9, hw)

    w2 = wd.reshape(co, c * 9)
    out = np.matmul(w2, srs).reshape(n, co, h, w)
    if bias is not None:
        out += bias.data.reshape(1, co, 1, 1)
    parents = [x, offsets, weight] + ([bias] if bias is not None else [])

    def back(g):
        gflat = g.reshape(n, co, hw)
        gw = np.einsum("nop,nkp->ok", gflat, srs).reshape(weight.shape)
        gs = np.matmul(w2.T, gflat).reshape(n, c, 9, h, w)

        base = (np.arange(n)[:, None, None] * (c * hw)
                + np.arange(c)[None, :, None] * hw)        # [N, C, 1]
        gxf = np.zeros(n * c * hw)
        gsr = gs.reshape(n, c, 9 * hw)
        for mask, idx, wgt in ((m00, i00, w00), (m01, i01, w01),
                               (m10, i10, w10), (m11, i11, w11)):
            coeff = (wgt[:, 0] * mask).reshape(n, 1, 9 * hw)
            flat_idx = (base + idx[:, None, :]).ravel()
            gxf += np.bincount(flat_idx, weights=(gsr * coeff).ravel(),
                               minlength=n * c * hw)
        gxf = gxf.astype(g.dtype)

        gpy = (gs * ((v10 - v00) * (1 - wx)[:, None] + (v11 - v01) * wx[:, None])).sum(axis=1)
        gpx = (gs * ((v01 - v00) * (1 - wy)[:, None] + (v11 - v10) * wy[:, None])).sum(axis=1)
        goff = np.empty_like(od)
        goff[:, 0::2] = gpy
        goff[:, 1::2] = gpx

        grads = [gxf.reshape(n, c, h, w), goff, gw]
        if bias is not None:
            grads.append(g.sum(axis=(0, 2, 3)))
        return tuple(grads)

    return Tensor._node(out, parents, back)


class Msddc(Module):
    """Offset generation, shared-offset dilated deformable branches, 1x1 fusion.

    Each ``branch{d}`` is a dilated Conv2d whose weights the deformable
    branch reads; called directly it is that branch at zero offset.
    """

    def __init__(self, cfg: MsddcConfig, rng: np.random.Generator, dtype=np.float64):
        super().__init__()
        self.cfg = cfg
        cb = cfg.branch_channels or cfg.out_channels
        self.offset_conv = Conv2d(cfg.in_channels, 18, 3, padding=1,
                                  zero_init=True, dtype=dtype)
        for d in cfg.dilations:
            setattr(self, f"branch{d}",
                    Conv2d(cfg.in_channels, cb, 3, padding=d, dilation=d,
                           rng=rng, dtype=dtype))
        self.fuse = Conv2d(cb * len(cfg.dilations), cfg.out_channels, 1,
                           rng=rng, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        off = self.offset_conv(x)
        outs = []
        for d in self.cfg.dilations:
            branch = getattr(self, f"branch{d}")
            outs.append(deform_dilated_conv(x, off, branch.weight, branch.bias, d))
        return self.fuse(concat(outs, axis=1))
