"""Context-enhanced feed-forward block and attention-synergy branches.

CeFfn: 1x1 expand -> depthwise 3x3 -> GELU, then a local residual-modulation
branch and a global pooled-gating branch, fused and projected back.
Csca: spatial attention (SA), mixed local channel attention (MLCA) and a
scale-calibration gate (SC) combined as fuse(concat(SA, MLCA)) * SC + x.
"""

from __future__ import annotations

import numpy as np

from .tensor import (Tensor, Module, Parameter, Conv2d, concat, conv3_seq,
                     adaptive_avg_pool2d, upsample_nearest_to)

__all__ = ["CeFfn", "VanillaFfn", "make_ffn", "FFN_KINDS", "FFN_EXPANSION",
           "SpatialAttention", "Mlca", "ScaleCalibration", "SC_POOL_SIZES",
           "Csca", "NECK_ATTENTION_KINDS"]

FFN_KINDS = ("vanilla", "ce_ffn")
NECK_ATTENTION_KINDS = ("concat", "csca")
# hidden width of every FFN, as a multiple of its input channels
FFN_EXPANSION = 1
# pooled grid sizes of the scale-calibration gate
SC_POOL_SIZES = (1, 2, 4)


class CeFfn(Module):
    """Feed-forward block with local modulation and global gating.

    Y        = GELU(DWConv3x3(Conv1x1(x)))               (expand C -> E)
    F_local  = r * (Y - GELU(Conv1x1(Y))) + Y            (r: per-channel, init 1e-2)
    F_global = sigmoid(Conv1x1(GAP(Y)))                  ([N,E,1,1])
    out      = Conv1x1(F_global + F_local)               (zero-init projection)

    The residual around the block belongs to the caller.
    """

    def __init__(self, channels: int, rng: np.random.Generator, *,
                 expansion: int = FFN_EXPANSION, dtype=np.float64):
        super().__init__()
        e = expansion * channels
        self.conv_in = Conv2d(channels, e, 1, rng=rng, dtype=dtype)
        self.dw = Conv2d(e, e, 3, padding=1, groups=e, rng=rng, dtype=dtype)
        self.local_conv = Conv2d(e, e, 1, rng=rng, dtype=dtype)
        self.r = Parameter(np.full(e, 1e-2, dtype=dtype))
        self.global_conv = Conv2d(e, e, 1, rng=rng, dtype=dtype)
        self.conv_out = Conv2d(e, channels, 1, zero_init=True, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        e = self.r.shape[0]
        y = self.dw(self.conv_in(x)).gelu()
        f_local = self.r.reshape(1, e, 1, 1) * (y - self.local_conv(y).gelu()) + y
        f_global = self.global_conv(y.mean(axis=(2, 3), keepdims=True)).sigmoid()
        return self.conv_out(f_global + f_local)


class VanillaFfn(Module):
    """Plain two-layer 1x1-conv FFN baseline."""

    def __init__(self, channels: int, rng: np.random.Generator, *,
                 expansion: int = FFN_EXPANSION, dtype=np.float64):
        super().__init__()
        self.conv_in = Conv2d(channels, expansion * channels, 1, rng=rng, dtype=dtype)
        self.conv_out = Conv2d(expansion * channels, channels, 1,
                               zero_init=True, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return self.conv_out(self.conv_in(x).gelu())


def make_ffn(kind: str, channels: int, rng: np.random.Generator, *,
             expansion: int = FFN_EXPANSION, dtype=np.float64) -> Module:
    """The plain FFN baseline or CE-FFN; both output exactly zero at init
    (zero-init output projection), so the caller's residual is an identity."""
    if kind == "vanilla":
        return VanillaFfn(channels, rng, expansion=expansion, dtype=dtype)
    if kind == "ce_ffn":
        return CeFfn(channels, rng, expansion=expansion, dtype=dtype)
    raise ValueError(f"unknown ffn kind {kind!r}; choose from {FFN_KINDS}")


class SpatialAttention(Module):
    """Single-map spatial gate: x * sigmoid(Conv7x7([mean_c(x); max_c(x)]))."""

    def __init__(self, rng: np.random.Generator, dtype=np.float64):
        super().__init__()
        self.conv = Conv2d(2, 1, 7, padding=3, rng=rng, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        m = self.conv(concat([x.mean(axis=1, keepdims=True),
                              x.max(axis=1, keepdims=True)], axis=1)).sigmoid()
        return x * m


class Mlca(Module):
    """Mixed local channel attention.

    A single kernel-3 channel-mixing conv (zero-padded across channels,
    identity init) is shared between a global path (GAP) and a local path
    (average-pool to a k x k grid, gated per cell, nearest-upsampled back).
    Output: x * (beta * w_global + (1 - beta) * w_local).
    """

    def __init__(self, *, grid: int = 5, beta: float = 0.5, dtype=np.float64):
        super().__init__()
        self.grid, self.beta = grid, beta
        self.mix_weight = Parameter(np.array([0.0, 1.0, 0.0], dtype=dtype))
        self.mix_bias = Parameter(np.zeros(1, dtype=dtype))

    def _channel_mix(self, p: Tensor) -> Tensor:
        return conv3_seq(p, self.mix_weight, self.mix_bias).sigmoid()

    def __call__(self, x: Tensor) -> Tensor:
        _, _, h, w = x.shape
        if h < 1 or w < 1:
            raise ValueError("mlca needs a non-empty spatial extent")
        w_g = self._channel_mix(x.mean(axis=(2, 3), keepdims=True))
        pooled = adaptive_avg_pool2d(x, (self.grid, self.grid))
        w_l = upsample_nearest_to(self._channel_mix(pooled), h, w)
        return x * (w_g * self.beta + w_l * (1.0 - self.beta))


class ScaleCalibration(Module):
    """Pyramid-pooled gate in (0,1): sigmoid of summed per-scale 1x1 convs."""

    def __init__(self, channels: int, rng: np.random.Generator, *,
                 pool_sizes: tuple[int, ...] = SC_POOL_SIZES, dtype=np.float64):
        super().__init__()
        self.pool_sizes = tuple(pool_sizes)
        for s in self.pool_sizes:
            setattr(self, f"conv{s}", Conv2d(channels, channels, 1, rng=rng,
                                             dtype=dtype))

    def __call__(self, x: Tensor) -> Tensor:
        _, _, h, w = x.shape
        acc = None
        for s in self.pool_sizes:
            pooled = adaptive_avg_pool2d(x, (s, s))
            term = upsample_nearest_to(getattr(self, f"conv{s}")(pooled), h, w)
            acc = term if acc is None else acc + term
        return acc.sigmoid()


class Csca(Module):
    """Residual attention synergy: fuse(concat(SA(x), MLCA(x))) * SC(x) + x.

    The fuse conv is zero-initialized, so the module is a bit-exact identity
    at init. ``kind="concat"`` is the plain-fusion baseline: concat(x, x)
    through the same fuse conv, with no gates.
    """

    def __init__(self, channels: int, rng: np.random.Generator, *,
                 kind: str = "csca", dtype=np.float64):
        super().__init__()
        if kind not in NECK_ATTENTION_KINDS:
            raise ValueError(f"unknown attention kind {kind!r}; "
                             f"choose from {NECK_ATTENTION_KINDS}")
        self.kind = kind
        if kind == "csca":
            self.mlca = Mlca(dtype=dtype)
            self.sa = SpatialAttention(rng, dtype=dtype)
            self.sc = ScaleCalibration(channels, rng, dtype=dtype)
        self.fuse = Conv2d(2 * channels, channels, 1, zero_init=True, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        if self.kind == "csca":
            y = self.fuse(concat([self.sa(x), self.mlca(x)], axis=1)) * self.sc(x)
        else:
            y = self.fuse(concat([x, x], axis=1))
        return y + x
