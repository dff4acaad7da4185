"""Full detector assembly: stem, four-stage hybrid backbone, attention FPN
neck, anchor-free head — plus parameter and FLOP accounting per section.

Stages 1-2 default to deformable-dilated-conv mixers and stages 3-4 to
selective-scan mixers; every block follows the pre-norm residual template
h = x + mixer(norm(x)); h = h + ffn(norm(h)).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .tensor import (Tensor, Module, Parameter, Conv2d, BatchNorm2d, concat,
                     bilinear_resize, upsample_nearest_to)
from .msddc import Msddc, MsddcConfig
from .ssm import MambaBlockConfig, MambaBlock2d
from .ffn_attn import make_ffn, Csca, FFN_KINDS, NECK_ATTENTION_KINDS

__all__ = ["VariantConfig", "variant_config", "VARIANT_NAMES", "MddcNet",
           "Detection", "PyramidFeatures", "count_params", "estimate_flops",
           "BUDGET_TARGETS", "CLASS_NAMES", "NUM_CLASSES"]

VARIANT_NAMES = ("n", "t", "b", "n-toy")
STAGE_KINDS = ("msddc", "mamba")
CLASS_NAMES = ("box", "disc", "triangle")
NUM_CLASSES = len(CLASS_NAMES)
FFN_EXPANSION = 1

# published budget targets at 640x640: (params, flops)
BUDGET_TARGETS = {"n": (4.8e6, 10.2e9), "t": (6.6e6, 12.9e9), "b": (18.0e6, 39.6e9)}


@dataclass
class VariantConfig:
    name: str
    embed_dims: tuple[int, int, int, int]
    depths: tuple[int, int, int, int]
    stage_kinds: tuple[str, str, str, str] = ("msddc", "msddc", "mamba", "mamba")
    dilations: tuple[int, ...] = (1, 2, 4)
    ffn_kind: str = "ce_ffn"
    neck_attention: str = "csca"
    input_size: int = 640              # position-embedding training size
    # width/budget knobs (calibrated against the published budget table)
    msddc_branch_div: int = 4          # branch width = max(C // div, 4)
    neck_width: int = 128
    head_widths: tuple[int, int, int] = (48, 96, 224)
    head_depth: int = 2
    d_state: int = 16
    # not a field: the P3/P4/P5 outputs of the architecture sit at these strides
    strides = (8, 16, 32)

    def __post_init__(self):
        if len(self.embed_dims) != 4 or len(self.depths) != 4:
            raise ValueError("embed_dims and depths must have 4 entries")
        for k in self.stage_kinds:
            if k not in STAGE_KINDS:
                raise ValueError(f"unknown stage kind {k!r}")
        if self.ffn_kind not in FFN_KINDS:
            raise ValueError(f"unknown ffn kind {self.ffn_kind!r}")
        if self.neck_attention not in NECK_ATTENTION_KINDS:
            raise ValueError(f"unknown neck attention {self.neck_attention!r}")

    def branch_channels(self, c: int) -> int:
        return max(c // self.msddc_branch_div, 4)


# width knobs per variant are calibrated against BUDGET_TARGETS (the paper's
# totals imply a near-fixed neck/head cost plus a slim width-scaled backbone)
_PRESETS = {
    "n": dict(embed_dims=(16, 32, 64, 128), depths=(3, 3, 9, 3)),
    "t": dict(embed_dims=(32, 64, 128, 256), depths=(3, 3, 9, 3),
              d_state=8, msddc_branch_div=16, neck_width=96,
              head_widths=(36, 72, 176)),
    "b": dict(embed_dims=(64, 128, 256, 512), depths=(3, 3, 12, 3),
              d_state=8, msddc_branch_div=16, neck_width=96,
              head_widths=(32, 64, 160)),
    "n-toy": dict(embed_dims=(16, 32, 64, 128), depths=(1, 1, 2, 1),
                  input_size=64, neck_width=32, head_widths=(24, 32, 48),
                  head_depth=1, d_state=4),
}


def variant_config(name: str, **overrides) -> VariantConfig:
    if name not in _PRESETS:
        raise ValueError(f"unknown variant {name!r}; choose from {VARIANT_NAMES}")
    kw = dict(_PRESETS[name])
    kw.update(overrides)
    return VariantConfig(name=name, **kw)


@dataclass
class PyramidFeatures:
    p3: Tensor
    p4: Tensor
    p5: Tensor

    def levels(self):
        return (self.p3, self.p4, self.p5)


@dataclass
class Detection:
    class_id: int
    score: float
    box: tuple[float, float, float, float]   # x1, y1, x2, y2 in input pixels


class Stem(Module):
    """Two stride-2 conv+norm+GELU layers plus a learnable position embedding.

    The embedding is trained at input_size/4 and bilinearly resized when the
    actual input differs.
    """

    def __init__(self, cfg: VariantConfig, rng: np.random.Generator,
                 dtype=np.float64):
        super().__init__()
        c1 = cfg.embed_dims[0]
        mid = max(c1 // 2, 4)
        self.conv1 = Conv2d(3, mid, 3, stride=2, padding=1, rng=rng, dtype=dtype)
        self.norm1 = BatchNorm2d(mid, dtype=dtype)
        self.conv2 = Conv2d(mid, c1, 3, stride=2, padding=1, rng=rng, dtype=dtype)
        self.norm2 = BatchNorm2d(c1, dtype=dtype)
        base = cfg.input_size // 4
        self.pos_embed = Parameter(np.zeros((1, c1, base, base), dtype=dtype))

    def __call__(self, x: Tensor) -> Tensor:
        _, _, h, w = x.shape
        if h % 32 or w % 32:
            raise ValueError(f"input size {h}x{w} must be a multiple of 32")
        y = self.norm2(self.conv2(self.norm1(self.conv1(x)).gelu())).gelu()
        pe = self.pos_embed
        if pe.shape[2:] != y.shape[2:]:
            pe = bilinear_resize(pe, y.shape[2], y.shape[3])
        return y + pe


class Block(Module):
    """Pre-norm residual block: token mixer (MSDDC or Mamba) then FFN."""

    def __init__(self, channels: int, kind: str, cfg: VariantConfig,
                 rng: np.random.Generator, dtype=np.float64):
        super().__init__()
        self.kind = kind
        self.norm1 = BatchNorm2d(channels, dtype=dtype)
        if kind == "msddc":
            self.msddc = Msddc(MsddcConfig(
                channels, channels, dilations=cfg.dilations,
                branch_channels=cfg.branch_channels(channels)), rng, dtype)
        else:
            self.mamba = MambaBlock2d(MambaBlockConfig(
                d_model=channels, d_state=cfg.d_state), rng, dtype)
        self.norm2 = BatchNorm2d(channels, dtype=dtype)
        self.ffn = make_ffn(cfg.ffn_kind, channels, rng,
                            expansion=FFN_EXPANSION, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        mixer = self.msddc if self.kind == "msddc" else self.mamba
        h = x + mixer(self.norm1(x))
        return h + self.ffn(self.norm2(h))


class Downsample(Module):
    """Stride-2 3x3 conv + norm between stages."""

    def __init__(self, cin: int, cout: int, rng: np.random.Generator,
                 dtype=np.float64):
        super().__init__()
        self.conv = Conv2d(cin, cout, 3, stride=2, padding=1, rng=rng, dtype=dtype)
        self.norm = BatchNorm2d(cout, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return self.norm(self.conv(x))


class A2Fpn(Module):
    """Top-down FPN with residual sequence mixers and attention at each level.

    p_l = att(z_l + mamba(z_l)) with z5 = lat5, z4 = lat4 + up(p5), ...
    All injected branches are zero at init, so a fresh neck is exactly the
    plain lateral+upsample+add FPN.
    """

    def __init__(self, in_dims: tuple[int, int, int], cfg: VariantConfig,
                 rng: np.random.Generator, dtype=np.float64):
        super().__init__()
        w = cfg.neck_width
        mcfg = MambaBlockConfig(d_model=w, d_state=cfg.d_state)
        for i, cin in zip((3, 4, 5), in_dims):
            setattr(self, f"lateral{i}", Conv2d(cin, w, 1, rng=rng, dtype=dtype))
            setattr(self, f"mamba{i}", MambaBlock2d(mcfg, rng, dtype))
            setattr(self, f"att{i}", Csca(w, rng, kind=cfg.neck_attention,
                                          dtype=dtype))

    def _level(self, i: int, z: Tensor) -> Tensor:
        z = z + getattr(self, f"mamba{i}")(z)
        return getattr(self, f"att{i}")(z)

    def __call__(self, c3: Tensor, c4: Tensor, c5: Tensor) -> PyramidFeatures:
        p5 = self._level(5, self.lateral5(c5))
        p4 = self._level(4, self.lateral4(c4) + upsample_nearest_to(p5, *c4.shape[2:]))
        p3 = self._level(3, self.lateral3(c3) + upsample_nearest_to(p4, *c3.shape[2:]))
        return PyramidFeatures(p3, p4, p5)


class HeadLevel(Module):
    """Decoupled per-level head: shared entry 1x1, then class and regression
    trunks of ``depth`` 3x3 convs, with 1x1 predictors (cls K / box 4 / obj 1)."""

    def __init__(self, in_width: int, width: int, depth: int, num_classes: int,
                 rng: np.random.Generator, dtype=np.float64):
        super().__init__()
        self.entry = Conv2d(in_width, width, 1, rng=rng, dtype=dtype)
        self.cls_trunk = [Conv2d(width, width, 3, padding=1, rng=rng, dtype=dtype)
                          for _ in range(depth)]
        self.reg_trunk = [Conv2d(width, width, 3, padding=1, rng=rng, dtype=dtype)
                          for _ in range(depth)]
        self.pred_cls = Conv2d(width, num_classes, 1, rng=rng, dtype=dtype)
        self.pred_box = Conv2d(width, 4, 1, rng=rng, dtype=dtype)
        self.pred_obj = Conv2d(width, 1, 1, rng=rng, dtype=dtype)
        # start with low objectness so the untrained model is quiet
        self.pred_obj.bias.data[:] = -4.0
        # start boxes at sub-stride extents, the scale the routing sends here
        self.pred_box.bias.data[:] = -1.5

    def __call__(self, x: Tensor):
        y = self.entry(x).gelu()
        c = y
        for conv in self.cls_trunk:
            c = conv(c).gelu()
        r = y
        for conv in self.reg_trunk:
            r = conv(r).gelu()
        return self.pred_cls(c), self.pred_obj(r), self.pred_box(r)


class Head(Module):
    def __init__(self, cfg: VariantConfig, rng: np.random.Generator,
                 dtype=np.float64):
        super().__init__()
        self.levels = [HeadLevel(cfg.neck_width, w, cfg.head_depth,
                                 NUM_CLASSES, rng, dtype)
                       for w in cfg.head_widths]

    def __call__(self, pyr: PyramidFeatures):
        return [lvl(x) for lvl, x in zip(self.levels, pyr.levels())]


def decode_boxes(raw_box: np.ndarray, stride: int) -> np.ndarray:
    """[N,4,H,W] raw (l,t,r,b) logits -> [N,4,H,W] (x1,y1,x2,y2) pixels.

    Distances are exp(raw) in stride units from each cell center
    ((x+0.5)*stride, (y+0.5)*stride), so zero logits give a 2x2-stride box.
    """
    n, _, h, w = raw_box.shape
    d = np.exp(raw_box) * stride
    cx = (np.arange(w) + 0.5) * stride
    cy = (np.arange(h) + 0.5) * stride
    out = np.empty_like(d)
    out[:, 0] = cx[None, None, :] - d[:, 0]
    out[:, 1] = cy[None, :, None] - d[:, 1]
    out[:, 2] = cx[None, None, :] + d[:, 2]
    out[:, 3] = cy[None, :, None] + d[:, 3]
    return out


def encode_box(box, cy_px: float, cx_px: float, stride: int) -> np.ndarray:
    """Inverse of decode_boxes for one cell center (in pixels)."""
    x1, y1, x2, y2 = box
    d = np.array([cx_px - x1, cy_px - y1, x2 - cx_px, y2 - cy_px])
    if np.any(d <= 0):
        raise ValueError("cell center must lie strictly inside the box")
    return np.log(d / stride)


class MddcNet(Module):
    """Backbone + neck + head. forward() returns per-level raw predictions."""

    def __init__(self, cfg: VariantConfig, rng: np.random.Generator | None = None,
                 dtype=np.float64):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.cfg = cfg
        dims = cfg.embed_dims
        self.stem = Stem(cfg, rng, dtype)
        for i in range(4):
            blocks = [Block(dims[i], cfg.stage_kinds[i], cfg, rng, dtype)
                      for _ in range(cfg.depths[i])]
            setattr(self, f"stage{i + 1}", blocks)
            if i < 3:
                setattr(self, f"down{i + 2}",
                        Downsample(dims[i], dims[i + 1], rng, dtype))
        self.neck = A2Fpn(dims[1:], cfg, rng, dtype)
        self.head = Head(cfg, rng, dtype)

    def backbone(self, x: Tensor):
        """Stage outputs at strides 8, 16, 32."""
        y = self.stem(x)
        outs = []
        for i in range(4):
            for blk in getattr(self, f"stage{i + 1}"):
                y = blk(y)
            if i >= 1:
                outs.append(y)
            if i < 3:
                y = getattr(self, f"down{i + 2}")(y)
        return tuple(outs)

    def __call__(self, x: Tensor):
        c3, c4, c5 = self.backbone(x)
        return self.head(self.neck(c3, c4, c5))


# -- budget accounting --------------------------------------------------------

_SECTIONS = ("stem", "stage1", "stage2", "stage3", "stage4", "neck", "head")


def _section_of(name: str) -> str:
    top = name.split(".", 1)[0]
    if top in ("stage1", "down2"):
        return "stage1"
    if top in ("stage2", "down3"):
        return "stage2"
    if top in ("stage3", "down4"):
        return "stage3"
    if top in ("stem", "stage4", "neck", "head"):
        return top if top != "stem" else "stem"
    raise ValueError(f"parameter {name} outside known sections")


def count_params(model: MddcNet) -> dict[str, int]:
    """Exact per-section and total parameter counts from the registry."""
    out = {s: 0 for s in _SECTIONS}
    for name, p in model.named_parameters():
        out[_section_of(name)] += p.size
    out["total"] = sum(out[s] for s in _SECTIONS)
    return out


def _cf(cout, cin, k, h, w, groups=1):
    """Conv multiply-add count x2."""
    return 2 * cout * h * w * (cin // groups) * k * k


def _mamba_flops(c: int, l: int, cfg: VariantConfig) -> int:
    mcfg = MambaBlockConfig(d_model=c, d_state=cfg.d_state)
    di, s, r = mcfg.d_inner, mcfg.d_state, mcfg.resolved_dt_rank()
    return (2 * l * c * 2 * di          # in_proj
            + 2 * l * di * 3            # sequence conv
            + 2 * l * di * (2 * r + 2 * s) + 8 * l * di * s   # projections + scan + readout
            + 2 * l * di * c)           # out_proj


def _msddc_flops(c: int, h: int, w: int, cfg: VariantConfig) -> int:
    cb = cfg.branch_channels(c)
    nb = len(cfg.dilations)
    total = _cf(18, c, 3, h, w)                     # offset conv
    total += nb * (_cf(cb, c, 3, h, w)              # branch accumulation
                   + 8 * 9 * c * h * w)             # bilinear sampling
    total += _cf(c, nb * cb, 1, h, w)               # fusion
    return total


def _ffn_flops(c: int, h: int, w: int, cfg: VariantConfig) -> int:
    e = FFN_EXPANSION * c
    total = _cf(e, c, 1, h, w) + _cf(c, e, 1, h, w)   # in/out projections
    if cfg.ffn_kind == "vanilla":
        return total
    total += _cf(e, e, 3, h, w, groups=e)             # depthwise
    total += _cf(e, e, 1, h, w)                       # local conv
    if cfg.ffn_kind in ("gated_ca", "ce_ffn"):
        total += 2 * e * e                            # global conv on GAP
    return total


def _att_flops(c: int, h: int, w: int, cfg: VariantConfig) -> int:
    kind = cfg.neck_attention
    if kind == "mlca":
        return _cf(c, c, 1, h, w)
    total = _cf(c, 2 * c, 1, h, w)                    # fuse on 2C concat
    if kind == "csca":
        total += _cf(1, 2, 7, h, w)                   # spatial attention
        total += sum(2 * c * c * min(s, h) * min(s, w) for s in (1, 2, 4))
    return total


def estimate_flops(cfg: VariantConfig, input_size: int = 640) -> dict[str, int]:
    """Analytic multiply-add x2 estimate per section at the given input size."""
    out = {}
    s2, s4 = input_size // 2, input_size // 4
    mid = max(cfg.embed_dims[0] // 2, 4)
    out["stem"] = _cf(mid, 3, 3, s2, s2) + _cf(cfg.embed_dims[0], mid, 3, s4, s4)

    sizes = [input_size // 4, input_size // 8, input_size // 16, input_size // 32]
    for i in range(4):
        c, hw = cfg.embed_dims[i], sizes[i]
        if cfg.stage_kinds[i] == "msddc":
            mixer = _msddc_flops(c, hw, hw, cfg)
        else:
            mixer = _mamba_flops(c, hw * hw, cfg)
        per_block = mixer + _ffn_flops(c, hw, hw, cfg)
        total = cfg.depths[i] * per_block
        if i < 3:
            nxt = sizes[i + 1]
            total += _cf(cfg.embed_dims[i + 1], c, 3, nxt, nxt)
        out[f"stage{i + 1}"] = total

    w = cfg.neck_width
    neck = 0
    for hw, cin in zip(sizes[1:], cfg.embed_dims[1:]):
        neck += _cf(w, cin, 1, hw, hw)
        neck += _mamba_flops(w, hw * hw, cfg)
        neck += _att_flops(w, hw, hw, cfg)
    out["neck"] = neck

    head = 0
    for hw, hwid in zip(sizes[1:], cfg.head_widths):
        head += _cf(hwid, w, 1, hw, hw)
        head += 2 * cfg.head_depth * _cf(hwid, hwid, 3, hw, hw)
        head += _cf(NUM_CLASSES + 5, hwid, 1, hw, hw)
    out["head"] = head

    out["total"] = sum(out[s] for s in _SECTIONS)
    return out
