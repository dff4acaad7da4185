"""Multi-scale deformable dilated convolution.

A 3x3 offset conv predicts per-pixel 2D displacements for the 9 kernel
taps; three dilated deformable branches share that offset field and a
1x1 conv fuses their concatenated outputs.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix

from .tensor import Tensor, Module, Conv2d, concat

__all__ = ["Msddc", "bilinear_sample", "check_dilations",
           "deform_dilated_conv"]

# 3x3 taps in row-major kernel order; offset channels are tap-major (dy, dx) pairs
_TAP_DY = np.repeat(np.arange(-1, 2), 3)
_TAP_DX = np.tile(np.arange(-1, 2), 3)


def check_dilations(dilations) -> tuple[int, ...]:
    """The branch dilations as a tuple: non-empty, >= 1, strictly increasing."""
    d = tuple(dilations)
    if not d or any(x < 1 for x in d) or any(b <= a for a, b in zip(d, d[1:])):
        raise ValueError(f"dilations must be non-empty, >=1, strictly increasing: {d}")
    return d


def bilinear_sample(x: Tensor, py, px, n: int, c: int) -> Tensor:
    """Bilinear read of channel ``c`` of sample ``n`` at real coordinates.

    Out-of-range neighbors contribute zero (consistent with zero padding).
    Differentiable w.r.t. ``x`` and, when given as tensors, (py, px).
    """
    py = py if isinstance(py, Tensor) else Tensor(float(py))
    px = px if isinstance(px, Tensor) else Tensor(float(px))
    _, _, h, w = x.shape
    sy, sx = py.shape, px.shape
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
        return gx, np.full(sy, gpy), np.full(sx, gpx)

    return Tensor._node(np.asarray(val), (x, py, px), back)


def _corners(a0, a1, b0, b1, op) -> np.ndarray:
    """op over the bilinear corners 00, 01, 10, 11 as a last axis, flattened."""
    out = np.empty(a0.shape + (4,), np.result_type(a0, b0))
    for k, (a, b) in enumerate(((a0, b0), (a0, b1), (a1, b0), (a1, b1))):
        op(a, b, out=out[..., k])
    return out.ravel()


def deform_dilated_conv(x: Tensor, offsets: Tensor, weight: Tensor,
                        bias: Tensor | None, dilation: int) -> Tensor:
    """3x3 deformable convolution at a given dilation, stride 1, padding = d.

    offsets: [N, 18, H, W]; channel 2k is tap k's dy, channel 2k+1 its dx.
    Output pixel (y, x0), tap (i, j): sample the input at
    (y + d*i + dy_ij, x0 + d*j + dx_ij) bilinearly; out-of-image neighbors
    read zero. Offsets are in input pixels and are not scaled by ``dilation``.
    Backward keeps only the input, the offsets and the reshaped weight, and
    rebuilds the projection, the sampling matrix and the corner factors
    from them bit for bit (op-level checkpointing).
    """
    n, c, h, w = x.shape
    if offsets.shape != (n, 18, h, w):
        raise ValueError(f"offset field {offsets.shape} does not match input {x.shape}")
    co = weight.shape[0]
    if weight.shape != (co, c, 3, 3):
        raise ValueError(f"deformable weight must be [Co,{c},3,3], got {weight.shape}")

    xd, od = x.data, offsets.data
    dt, hw = xd.dtype, h * w
    xf = xd.reshape(n, c, hw)
    w9 = weight.data.reshape(co, c, 9).transpose(2, 0, 1).reshape(9 * co, c)  # row tap*Co + o

    def sample():
        # project first: Y = X·W9ᵀ has rows (n, pixel, tap) holding W_tap·x, so
        # the sampling moves Co values per corner instead of C
        y = np.matmul(xf.transpose(0, 2, 1), w9.T).reshape(n * hw * 9, co)
        # sampling matrix P: one row per output pixel (n, y, x), 36 nonzeros in
        # (tap, corner) order; column (n*H*W + source pixel)*9 + tap. Corners
        # 00, 01, 10, 11 inside the image have exact columns; off-image ones
        # weigh 0, so their columns only need to be in range and are clipped
        py = np.arange(h)[:, None, None] + dilation * _TAP_DY + od[:, 0::2].transpose(0, 2, 3, 1)
        px = np.arange(w)[:, None] + dilation * _TAP_DX + od[:, 1::2].transpose(0, 2, 3, 1)
        fy, fx = np.floor(py), np.floor(px)
        wy, wx = (py - fy).astype(dt, copy=False), (px - fx).astype(dt, copy=False)
        y0, x0 = fy.astype(np.int32), fx.astype(np.int32)
        # in-image masks: 0 <= i < h exactly when i read as unsigned is below h
        vy0, vy1 = y0.view(np.uint32) < h, (y0 + 1).view(np.uint32) < h
        vx0, vx1 = x0.view(np.uint32) < w, (x0 + 1).view(np.uint32) < w
        fy0, fy1, fx0, fx1 = (1 - wy) * vy0, wy * vy1, (1 - wx) * vx0, wx * vx1
        col00 = 9 * ((np.arange(n, dtype=np.int32) * hw)[:, None, None, None] + y0 * w + x0)
        col00 += np.arange(9, dtype=np.int32)
        cols = np.clip(_corners(col00, col00 + 9 * w, 0, 9, np.add), 0, 9 * n * hw - 1)
        indptr = np.arange(0, cols.size + 1, 36, dtype=np.int32)
        p = csr_matrix((_corners(fy0, fy1, fx0, fx1, np.multiply), cols, indptr),
                       shape=(n * hw, y.shape[0]))
        return y, p, (fy0, fy1, fx0, fx1), (vy0, vy1, vx0, vx1)

    y, p = sample()[:2]
    out = (p @ y).reshape(n, h, w, co).transpose(0, 3, 1, 2)
    del y, p
    if bias is not None:
        out = out + bias.data.reshape(1, co, 1, 1)
    parents = [x, offsets, weight] + ([bias] if bias is not None else [])
    has_bias, off_dtype = bias is not None, od.dtype

    def back(g):
        y, p, (fy0, fy1, fx0, fx1), (vy0, vy1, vx0, vx1) = sample()
        gcl = g.transpose(0, 2, 3, 1).reshape(n * hw, co)
        gy = (p.T @ gcl).reshape(n, hw, 9 * co)
        gx = np.matmul(w9.T, gy.transpose(0, 2, 1)).reshape(n, c, h, w)
        gw = np.matmul(xf, gy).sum(axis=0).reshape(c, 9, co).transpose(2, 0, 1)
        # offsets: per nonzero of P, a = gcl[pixel]·Y[column]; the derivatives
        # of the corner weights combine a into d/dpy and d/dpx per (pixel, tap)
        a = np.matmul(np.take(y, p.indices, axis=0).reshape(n * hw, 36, co),
                      gcl[:, :, None]).reshape(n, h, w, 9, 4)
        del y, p, gy
        a00, a01, a10, a11 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
        goff = np.empty((n, 18, h, w), dtype=off_dtype)
        goff[:, 0::2] = (vy1 * (fx0 * a10 + fx1 * a11)
                         - vy0 * (fx0 * a00 + fx1 * a01)).transpose(0, 3, 1, 2)
        goff[:, 1::2] = (vx1 * (fy0 * a01 + fy1 * a11)
                         - vx0 * (fy0 * a00 + fy1 * a10)).transpose(0, 3, 1, 2)

        grads = [gx, goff, gw.reshape(co, c, 3, 3)]
        if has_bias:
            grads.append(g.sum(axis=(0, 2, 3)))
        return tuple(grads)

    return Tensor._node(out, parents, back)


class Msddc(Module):
    """Offset generation, shared-offset dilated deformable branches, 1x1 fusion.

    Each ``branch{d}`` is a dilated Conv2d whose weights the deformable
    branch reads; called directly it is that branch at zero offset.
    """

    def __init__(self, in_channels: int, out_channels: int, branch_channels: int,
                 dilations, rng: np.random.Generator):
        super().__init__()
        self.dilations = check_dilations(dilations)
        cin, cb = in_channels, branch_channels
        self.offset_conv = Conv2d(cin, 18, 3, padding=1, zero_init=True)
        for d in self.dilations:
            setattr(self, f"branch{d}",
                    Conv2d(cin, cb, 3, padding=d, dilation=d, rng=rng))
        self.fuse = Conv2d(cb * len(self.dilations), out_channels, 1, rng=rng)

    def __call__(self, x: Tensor) -> Tensor:
        off = self.offset_conv(x)
        outs = []
        for d in self.dilations:
            branch = getattr(self, f"branch{d}")
            outs.append(deform_dilated_conv(x, off, branch.weight, branch.bias, d))
        return self.fuse(concat(outs, axis=1))
