"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays (float64 for verification, float32 for speed).
Every module is built in float64; ``Module.astype`` is the one place a
model's precision is set, casting its parameters and buffers once.
Every operation records a tape node eagerly; ``Tensor.backward`` replays
the tape in reverse topological order. Tensors produced by an op are
treated as immutable.

The tape is kept apart from the data: a node holds only its parents' nodes
and its backward closure, and every closure captures arrays and shapes,
never a Tensor. So the tape holds just the arrays some closure reads; an op
output no closure reads is freed as soon as the forward code drops it.
``backward()`` consumes its graph, freeing each node's arrays once the node
has run; a second backward through the same graph raises RuntimeError.
An activation holds one array per input: ``gelu`` its derivative and
``silu`` its input.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy import sparse
from scipy.special import erf as _erf, expit as _expit

__all__ = [
    "Tensor",
    "Parameter",
    "Module",
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "no_grad",
    "concat",
    "maximum",
    "minimum",
    "flatten_hw",
    "unflatten_hw",
    "resample",
    "upsample_nearest_to",
    "adaptive_avg_pool2d",
    "bilinear_resize",
    "conv3_seq",
    "scan_seq",
]

# Python floats, so that NumPy-2 promotion keeps float32 arrays float32
_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

_grad_enabled = True


class no_grad:
    """Context manager disabling tape recording (inference fast path)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted gradient back to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _consumed(g):
    raise RuntimeError("backward() through a graph that an earlier backward() "
                       "consumed; run the forward again")


class _GradNode:
    """One tape record: the grad nodes of the op's parents (None for a parent
    that needs no gradient) and the backward closure, which maps the output's
    gradient to one gradient (or None) per parent. A leaf tensor that
    requires a gradient is its own grad node and receives ``.grad``."""

    __slots__ = ("parents", "backward")

    def __init__(self, parents: tuple, backward):
        self.parents = parents
        self.backward = backward

    @property
    def _parents(self) -> tuple:
        return tuple(p for p in self.parents if p is not None)

    @property
    def _backward(self):
        return self.backward


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_grad_node")

    # make ndarray <op> Tensor defer to our reflected operators
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data)
        if self.data.dtype not in (np.float32, np.float64):
            self.data = self.data.astype(np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._grad_node: _GradNode | None = None

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.item())

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"

    # -- tape ----------------------------------------------------------

    @staticmethod
    def _node(data, parents, backward):
        out = Tensor(data)
        if _grad_enabled:
            nodes = tuple((p._grad_node or p) if p.requires_grad else None
                          for p in parents)
            if any(n is not None for n in nodes):
                out.requires_grad = True
                out._grad_node = _GradNode(nodes, backward)
        return out

    @property
    def _parents(self) -> tuple:
        """The grad nodes of the parents that need a gradient."""
        node = self._grad_node
        return () if node is None else node._parents

    @property
    def _backward(self):
        """The backward closure of the op that produced this tensor (None
        for a leaf); assignable, so a wrapper can stand in for it."""
        node = self._grad_node
        return None if node is None else node.backward

    @_backward.setter
    def _backward(self, fn):
        self._grad_node.backward = fn

    def backward(self):
        """Reverse-mode accumulation from a scalar loss.

        Gradients of leaf tensors (parameters, inputs) accumulate into
        ``.grad``; intermediate gradients are kept only while needed. The
        graph is consumed: each node's closure and parent links are dropped
        once it has run, so the arrays it read are freed during the walk,
        and another backward() through any of its nodes raises RuntimeError.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that is detached from the tape")
        if self.size != 1:
            raise RuntimeError("backward() requires a scalar loss")
        root = self._grad_node or self
        topo: list = []
        visited: set[int] = set()
        stack: list[tuple[object, bool]] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(root): np.ones_like(self.data)}
        while topo:
            node = topo.pop()
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if isinstance(node, Tensor):
                # leaf: accumulate into .grad
                if node.grad is None:
                    node.grad = g.copy()
                else:
                    node.grad = node.grad + g
                continue
            parent_grads = node.backward(g)
            parents, node.parents, node.backward = node.parents, (), _consumed
            for p, pg in zip(parents, parent_grads):
                if pg is None or p is None:
                    continue
                if id(p) in grads:
                    grads[id(p)] = grads[id(p)] + pg
                else:
                    grads[id(p)] = pg

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        if isinstance(other, (int, float)):
            return Tensor._node(self.data + other, (self,), lambda g: (g,))
        a, b = self, Tensor._coerce(other)
        sa, sb = a.shape, b.shape
        return Tensor._node(
            a.data + b.data, (a, b),
            lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))

    __radd__ = __add__

    def __neg__(self):
        return Tensor._node(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            return Tensor._node(self.data - other, (self,), lambda g: (g,))
        a, b = self, Tensor._coerce(other)
        sa, sb = a.shape, b.shape
        return Tensor._node(
            a.data - b.data, (a, b),
            lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Tensor._node(self.data * other, (self,), lambda g: (g * other,))
        a, b = self, Tensor._coerce(other)
        ad, bd = a.data, b.data
        return Tensor._node(
            ad * bd, (a, b),
            lambda g: (_unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            inv = 1.0 / other
            return Tensor._node(self.data * inv, (self,), lambda g: (g * inv,))
        a, b = self, Tensor._coerce(other)
        ad, bd = a.data, b.data
        out = ad / bd
        sa = ad.shape
        return Tensor._node(
            out, (a, b),
            lambda g: (_unbroadcast(g / bd, sa),
                       _unbroadcast(-g * out / bd, bd.shape)))

    # -- elementwise functions ------------------------------------------

    def exp(self):
        out = np.exp(self.data)
        return Tensor._node(out, (self,), lambda g: (g * out,))

    def expm1(self):
        """exp(x) - 1, accurate for small |x|."""
        out = np.expm1(self.data)
        return Tensor._node(out, (self,), lambda g: (g * (out + 1.0),))

    def sigmoid(self):
        out = _expit(self.data)
        return Tensor._node(out, (self,), lambda g: (g * out * (1.0 - out),))

    def silu(self):
        """x·σ(x); backward holds only x and recomputes σ(x)."""
        d = self.data

        def back(g):
            s = _expit(d)
            return (g * s * (1.0 + d * (1.0 - s)),)

        return Tensor._node(d * _expit(d), (self,), back)

    def gelu(self):
        """Exact GELU: x * Phi(x) with the Gaussian CDF via erf. A recorded
        node holds only the derivative Phi(x) + x·pdf(x), built in forward."""
        d = self.data
        phi = 0.5 * (1.0 + _erf(d / _SQRT2))
        out = d * phi
        if not (_grad_enabled and self.requires_grad):
            return Tensor(out)
        dphi = phi + d * (_INV_SQRT_2PI * np.exp(-0.5 * d * d))
        return Tensor._node(out, (self,), lambda g: (g * dphi,))

    def softplus(self):
        """log(1 + e^x); see ``_softplus``."""
        d = self.data
        return Tensor._node(_softplus(d), (self,), lambda g: (g * _expit(d),))

    def clamp(self, lo: float):
        d = self.data
        out = np.clip(d, lo, None)
        mask = d >= lo
        return Tensor._node(out, (self,), lambda g: (g * mask,))

    # -- reductions ------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.shape

        def back(g):
            if axis is None:
                return (np.broadcast_to(g, shape).copy(),)
            gg = g
            if not keepdims:
                ax = axis if isinstance(axis, tuple) else (axis,)
                ax = tuple(a % len(shape) for a in ax)
                gg = np.expand_dims(g, ax)
            return (np.broadcast_to(gg, shape).copy(),)

        return Tensor._node(out, (self,), back)

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            n = self.size
        else:
            ax = axis if isinstance(axis, tuple) else (axis,)
            n = int(np.prod([self.shape[a] for a in ax]))
        return self.sum(axis=axis, keepdims=keepdims) / n

    def max(self, axis: int, keepdims=False):
        """Max over one axis; gradient routes to the first argmax."""
        d = self.data
        idx = d.argmax(axis=axis)
        out = np.take_along_axis(d, np.expand_dims(idx, axis), axis=axis)
        if not keepdims:
            out = out.squeeze(axis)

        def back(g):
            gg = g if keepdims else np.expand_dims(g, axis)
            gx = np.zeros_like(d)
            np.put_along_axis(gx, np.expand_dims(idx, axis), gg, axis=axis)
            return (gx,)

        return Tensor._node(out, (self,), back)

    # -- shape ops --------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        return Tensor._node(self.data.reshape(shape), (self,),
                            lambda g: (g.reshape(old),))

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = tuple(np.argsort(axes))
        return Tensor._node(self.data.transpose(axes), (self,),
                            lambda g: (g.transpose(inv),))

    def __getitem__(self, key):
        d = self.data
        out = d[key]
        shape = d.shape
        # a basic key (a view) reads each element at most once: assignment suffices
        basic = not isinstance(out, np.ndarray) or np.may_share_memory(out, d)

        def back(g):
            gx = np.zeros(shape, dtype=g.dtype)
            if basic:
                gx[key] = g
            else:
                np.add.at(gx, key, g)
            return (gx,)

        return Tensor._node(out.copy() if isinstance(out, np.ndarray) else out,
                            (self,), back)

    def __matmul__(self, other):
        """Matmul with a 2-D right operand: [..., K] @ [K, N]."""
        a, b = self, other
        ad, bd = a.data, b.data
        if bd.ndim != 2:
            raise ValueError("matmul: right operand must be 2-D")
        return Tensor._node(ad @ bd, (a, b), lambda g: _matmul_back(ad, bd, g))


def _softplus(d: np.ndarray) -> np.ndarray:
    """log(1 + e^d) as max(d, 0) + log1p(e^-|d|): the formula of
    np.logaddexp(0, d) as whole-array ufuncs, several times faster than
    logaddexp and silent on NaN."""
    out = np.log1p(np.exp(-np.abs(d)))
    out += np.maximum(d, 0.0)
    return out


def _matmul_back(ad: np.ndarray, bd: np.ndarray, g: np.ndarray) -> tuple:
    """Gradients of ad @ bd ([..., K] @ [K, N]) for the output gradient g."""
    return g @ bd.T, ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def concat(tensors, axis: int = 0) -> Tensor:
    """Concatenate along ``axis``; all other extents must agree."""
    tensors = list(tensors)
    shapes = [t.shape for t in tensors]
    ref = list(shapes[0])
    for s in shapes[1:]:
        if len(s) != len(ref) or any(a != b for i, (a, b) in enumerate(zip(s, ref))
                                     if i != axis % len(ref)):
            raise ValueError(f"concat: incompatible shapes {shapes}")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [s[axis] for s in shapes]
    splits = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor._node(out, tensors, back)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; ties route the gradient to ``a``."""
    ad, bd = a.data, b.data
    sa, sb = ad.shape, bd.shape
    mask = ad >= bd
    return Tensor._node(
        np.where(mask, ad, bd), (a, b),
        lambda g: (_unbroadcast(g * mask, sa), _unbroadcast(g * ~mask, sb)))


def minimum(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    sa, sb = ad.shape, bd.shape
    mask = ad <= bd
    return Tensor._node(
        np.where(mask, ad, bd), (a, b),
        lambda g: (_unbroadcast(g * mask, sa), _unbroadcast(g * ~mask, sb)))


# -- image <-> token layout -------------------------------------------------

def flatten_hw(x: Tensor) -> Tensor:
    """[N,C,H,W] -> [N, H*W, C], row-major (row outer, column inner)."""
    n, c, h, w = x.shape
    return x.transpose(0, 2, 3, 1).reshape(n, h * w, c)


def unflatten_hw(x: Tensor, h: int, w: int) -> Tensor:
    """Inverse of flatten_hw."""
    n, l, c = x.shape
    if l != h * w:
        raise ValueError(f"unflatten_hw: {l} tokens cannot form {h}x{w}")
    return x.reshape(n, h, w, c).transpose(0, 3, 1, 2)


# -- convolution -------------------------------------------------------------

def _conv_out_size(h, k, stride, padding, dilation):
    return (h + 2 * padding - dilation * (k - 1) - 1) // stride + 1


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, *,
           stride: int = 1, padding: int = 0, dilation: int = 1,
           groups: int = 1) -> Tensor:
    """Cross-correlation with zero padding (no kernel flip), one im2col
    lowering for every ``groups``. Backward keeps only the unpadded input
    and rebuilds the padded copy and ``cols`` from it bit for bit (op-level
    checkpointing), so a k×k call's k²-sized copy lives only inside its
    forward or its backward."""
    if stride < 1 or dilation < 1:
        raise ValueError("conv2d: stride and dilation must be positive")
    n, c, h, w = x.shape
    co, cg, kh, kw = weight.shape
    if c % groups or co % groups:
        raise ValueError(f"conv2d: channels ({c} in, {co} out) not divisible by groups={groups}")
    if cg != c // groups:
        raise ValueError(f"conv2d: weight expects {cg} channels/group, input supplies {c // groups}")
    oh = _conv_out_size(h, kh, stride, padding, dilation)
    ow = _conv_out_size(w, kw, stride, padding, dilation)
    if oh < 1 or ow < 1:
        raise ValueError(f"conv2d: non-positive output size for input {h}x{w}")

    xd = x.data

    def im2col():
        xp = xd
        if padding:     # zeros and one slice assignment: faster than np.pad
            xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=xd.dtype)
            xp[:, :, padding:padding + h, padding:padding + w] = xd
        s0, s1, s2, s3 = xp.strides
        view = as_strided(xp, (n, c, kh, kw, oh, ow),
                          (s0, s1, s2 * dilation, s3 * dilation, s2 * stride, s3 * stride))
        return np.ascontiguousarray(view).reshape(n, groups, cg * kh * kw, oh * ow)

    w2 = weight.data.reshape(groups, co // groups, cg * kh * kw)
    out = np.matmul(w2[None], im2col()).reshape(n, co, oh, ow)
    if bias is not None:
        out += bias.data.reshape(1, co, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)
    wshape, has_bias = weight.shape, bias is not None

    def back(g):
        gg = g.reshape(n, groups, co // groups, oh * ow)
        # the weight gradient image by image: the same sum over the batch as
        # np.matmul(gg, colsᵀ).sum(axis=0), without its n weight-sized terms
        cols = im2col().transpose(0, 1, 3, 2)
        gw = np.matmul(gg[0], cols[0])
        for i in range(1, n):
            gw += np.matmul(gg[i], cols[i])
        del cols
        gw = gw.reshape(wshape)
        gcols = np.matmul(w2.transpose(0, 2, 1)[None], gg)
        gcols = gcols.reshape(n, c, kh, kw, oh, ow)
        hp, wp = h + 2 * padding, w + 2 * padding
        gxp = np.zeros((n, c, hp, wp), dtype=g.dtype)
        for i in range(kh):
            hi = i * dilation
            for j in range(kw):
                wj = j * dilation
                gxp[:, :, hi:hi + oh * stride:stride,
                    wj:wj + ow * stride:stride] += gcols[:, :, i, j]
        gx = gxp[:, :, padding:padding + h, padding:padding + w] if padding else gxp
        if has_bias:
            return gx, gw, g.sum(axis=(0, 2, 3))
        return gx, gw

    return Tensor._node(out, parents, back)


def conv3_seq(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Zero-padded width-3 cross-correlation along axis 1:
    out[:, i] = x[:, i-1]·w[0] + x[:, i]·w[1] + x[:, i+1]·w[2] + b, with
    x[:, -1] = x[:, L] = 0. Each tap w[k] and the bias b broadcast against
    one slice x[:, i], so w is [3, D] for per-channel taps over [N, L, D]
    and [3] for scalar ones. The terms add up in the order written, so the
    result equals the zero-pad, slice and add composition bit for bit."""
    xd, wd, bshape = x.data, w.data, b.shape
    return Tensor._node(_conv3(xd, wd, b.data), (x, w, b),
                        lambda g: _conv3_back(g, xd, wd, bshape))


def _conv3(xd: np.ndarray, wd: np.ndarray, bd: np.ndarray) -> np.ndarray:
    """``conv3_seq`` on arrays."""
    out = xd * wd[1]
    out[:, 1:] += xd[:, :-1] * wd[0]
    out[:, :-1] += xd[:, 1:] * wd[2]
    out += bd
    return out


def _conv3_back(g: np.ndarray, xd: np.ndarray, wd: np.ndarray, bshape: tuple,
                out: np.ndarray | None = None) -> tuple:
    """Gradients (x, w, b) of ``conv3_seq`` for the output gradient g; the
    input gradient is written to ``out`` when given."""
    gx = np.multiply(g, wd[1], out=out)
    gx[:, :-1] += g[:, 1:] * wd[0]
    gx[:, 1:] += g[:, :-1] * wd[2]
    tap = wd.shape[1:]
    gw = np.stack([_unbroadcast(g[:, 1:] * xd[:, :-1], tap),
                   _unbroadcast(g * xd, tap),
                   _unbroadcast(g[:, :-1] * xd[:, 1:], tap)])
    return gx, gw, _unbroadcast(g, bshape)


# -- normalization ------------------------------------------------------------

# running-statistics update rate and variance floor of every batch norm
BN_MOMENTUM = 0.1
BN_EPS = 1e-5


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
               running_var: np.ndarray, *, training: bool) -> Tensor:
    """BatchNorm over (N,H,W) per channel; updates running stats in train mode."""
    n, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ValueError(f"batch_norm: parameter length mismatch for C={c}")
    xd = x.data
    if training:
        if n * h * w < 2:
            raise ValueError("batch_norm: train mode needs at least 2 samples per channel")
        mu = xd.mean(axis=(0, 2, 3))
        var = xd.var(axis=(0, 2, 3))
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mu
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var * (n * h * w) / max(n * h * w - 1, 1)
    else:
        mu = running_mean
        var = running_var
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (xd - mu.reshape(1, c, 1, 1)) * inv.reshape(1, c, 1, 1)
    gd = gamma.data.reshape(1, c, 1, 1)
    out = gd * xhat + beta.data.reshape(1, c, 1, 1)

    def back(g):
        ggamma = (g * xhat).sum(axis=(0, 2, 3))
        gbeta = g.sum(axis=(0, 2, 3))
        gi = gd * inv.reshape(1, c, 1, 1)
        if training:
            m = n * h * w
            gsum = g.sum(axis=(0, 2, 3), keepdims=True)
            gxhat_sum = (g * xhat).sum(axis=(0, 2, 3)).reshape(1, c, 1, 1)
            gx = gi * (g - gsum / m - xhat * gxhat_sum / m)
        else:
            gx = gi * g
        return gx, ggamma, gbeta

    return Tensor._node(out, (x, gamma, beta), back)


# -- resampling ----------------------------------------------------------------
# Pooling to a grid, nearest upsampling and bilinear resizing are separable
# maps M = Ry ⊗ Rx of sparse 1-D [out, in] factors, applied by the one tape op
# ``resample``; its work scales with M's nonzeros and the pixels M reads.

class SpatialMap(NamedTuple):
    """A sparse linear map from [h, w] images to ``out`` = (oh, ow) images:
    ``m`` [oh·ow, k] weighs the k input pixels ``cols`` (flat indices) that
    the map reads; ``mt`` is mᵀ in CSR, which backward applies."""
    m: sparse.coo_array
    mt: sparse.csr_array
    cols: np.ndarray
    out: tuple[int, int]


def resample(x: Tensor, r: SpatialMap) -> Tensor:
    """Per image and channel, out = M · vec(x) as an [oh, ow] image; the
    input gradient is Mᵀ · vec(g).

    Only nonzero weights multiply, so a NaN or inf pixel reaches just the
    outputs that weigh it, and a non-finite output gradient just the pixels
    that output weighs."""
    n, c, h, w = x.shape
    out = r.m @ x.data.reshape(n * c, h * w).T[r.cols]

    def back(g):
        # only the pixels M reads get a gradient
        gx = np.zeros((n * c, h * w), dtype=g.dtype)
        gx[:, r.cols] = (r.mt @ g.reshape(n * c, -1).T).T
        return (gx.reshape(n, c, h, w),)

    return Tensor._node(np.ascontiguousarray(out.T).reshape(n, c, *r.out), (x,), back)


@functools.lru_cache(maxsize=64)
def _separable(factor, h: int, w: int, oh: int, ow: int, dtype) -> SpatialMap:
    """M = factor(oh, h) ⊗ factor(ow, w) in ``dtype``; cached, since a step
    asks for the same few sizes again and again, so callers share the result
    and must not modify it."""
    ry, rx = factor(oh, h).astype(dtype), factor(ow, w).astype(dtype)
    ry.eliminate_zeros()    # a zero weight reads nothing, not even a NaN
    rx.eliminate_zeros()
    # the input rows and columns that the map reads
    ys = np.flatnonzero(np.bincount(ry.indices, minlength=h))
    xs = np.flatnonzero(np.bincount(rx.indices, minlength=w))
    m = sparse.kron(ry[:, ys], rx[:, xs], format="coo")
    cols = (ys[:, None] * w + xs).ravel()
    return SpatialMap(m, m.T.tocsr(), cols, (oh, ow))


def _nearest_factor(out: int, n: int) -> sparse.csr_array:
    """Row i picks source index i*n//out."""
    rows = np.arange(out)
    return sparse.csr_array((np.ones(out), (rows, rows * n // out)), shape=(out, n))


def _cell_mean_factor(out: int, n: int) -> sparse.csr_array:
    """Row i averages the torch-style cell [i*n//out, ceil((i+1)*n/out));
    neighbouring cells overlap when out does not divide n."""
    i = np.arange(out)
    lo, hi = i * n // out, -(-(i + 1) * n // out)
    size = hi - lo
    rows = np.repeat(i, size)
    cols = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size - lo, size)
    return sparse.csr_array((1.0 / size[rows], (rows, cols)), shape=(out, n))


def _bilinear_factor(out: int, n: int) -> sparse.csr_array:
    """Linear interpolation at half-pixel centres clipped to [0, n-1]."""
    s = np.clip((np.arange(out) + 0.5) * n / out - 0.5, 0, n - 1)
    i0 = np.floor(s).astype(np.int64)
    w = s - i0
    rows = np.arange(out)
    # at the border both weights land on i0; entries sharing a place add up
    return sparse.csr_array((np.r_[1.0 - w, w], (np.r_[rows, rows],
                                                 np.r_[i0, np.minimum(i0 + 1, n - 1)])),
                            shape=(out, n))


def adaptive_avg_pool2d(x: Tensor, grid: tuple[int, int]) -> Tensor:
    """Average-pool to a ``gh x gw`` grid (clamped to the input) with
    torch-style cell boundaries."""
    _, _, h, w = x.shape
    gh, gw = min(grid[0], h), min(grid[1], w)
    if gh < 1 or gw < 1:
        raise ValueError("adaptive_avg_pool2d: empty input")
    return resample(x, _separable(_cell_mean_factor, h, w, gh, gw, x.dtype))


def upsample_nearest_to(x: Tensor, oh: int, ow: int) -> Tensor:
    """Nearest upsampling to an arbitrary target size (source cell = i*h//oh)."""
    _, _, h, w = x.shape
    return resample(x, _separable(_nearest_factor, h, w, oh, ow, x.dtype))


def bilinear_resize(x: Tensor, oh: int, ow: int) -> Tensor:
    """Bilinear resize (half-pixel centers), used for position-embedding rescale."""
    _, _, h, w = x.shape
    return resample(x, _separable(_bilinear_factor, h, w, oh, ow, x.dtype))


# -- linear recurrence (selective-scan core) ----------------------------------

def scan_seq(abar: np.ndarray, bu: np.ndarray, h0: np.ndarray | None = None,
             out: np.ndarray | None = None) -> np.ndarray:
    """h_t = abar_t * h_{t-1} + bu_t along axis 0, starting from the state
    h0 (zero when None) before the first step, written to ``out`` (a new
    array when None; ``bu`` itself is allowed). Any strides work, so on
    reversed views the recurrence runs from the last token to the first;
    with the token axis outermost each step's slice is contiguous.
    Raw-array kernel."""
    h = np.empty_like(bu) if out is None else out
    acc = h0 if h0 is not None else np.zeros(bu.shape[1:], dtype=h.dtype)
    prod = np.empty(bu.shape[1:], dtype=h.dtype)
    for t in range(len(bu)):
        np.multiply(abar[t], acc, out=prod)
        acc = np.add(prod, bu[t], out=h[t])
    return h


# -- parameters and modules ----------------------------------------------------

class Parameter(Tensor):
    """A trainable tensor reachable from a model's registry."""

    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Minimal parameter container with hierarchical naming."""

    def __init__(self):
        self.training = True
        self._buffers: dict[str, np.ndarray] = {}

    def register_buffer(self, name: str, arr: np.ndarray):
        self._buffers[name] = arr

    def _children(self):
        for key, val in self.__dict__.items():
            if isinstance(val, Module):
                yield key, val
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        yield f"{key}.{i}", item

    def named_parameters(self, prefix: str = ""):
        for key, val in self.__dict__.items():
            if isinstance(val, Parameter):
                yield f"{prefix}{key}", val
        for key, child in self._children():
            yield from child.named_parameters(f"{prefix}{key}.")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = ""):
        for key, val in self._buffers.items():
            yield f"{prefix}{key}", val
        for key, child in self._children():
            yield from child.named_buffers(f"{prefix}{key}.")

    def modules(self):
        yield self
        for _, child in self._children():
            yield from child.modules()

    def train(self, mode: bool = True):
        for m in self.modules():
            m.training = mode
        return self

    def eval(self):
        return self.train(False)

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None

    def astype(self, dtype):
        """Cast every parameter and buffer to ``dtype`` (float32 or float64)
        in place and return the module. This is the one place a model's
        precision is set: modules are built in float64 and cast once, as in
        ``MddcNet(cfg, rng).astype(np.float32)``, before training or loading
        a state dict."""
        for p in self.parameters():
            p.data = p.data.astype(dtype, copy=False)
        for m in self.modules():
            for name, buf in m._buffers.items():
                m._buffers[name] = buf.astype(dtype, copy=False)
        return self

    def state_dict(self) -> dict[str, np.ndarray]:
        d = {name: p.data for name, p in self.named_parameters()}
        for name, buf in self.named_buffers():
            d[name] = buf
        return d

    def load_state_dict(self, d: dict[str, np.ndarray]):
        """Copy ``d`` into the parameters and buffers. Every entry must name
        one of them with its shape, and every one of them must be in ``d``;
        otherwise nothing is loaded (KeyError, ValueError)."""
        own = dict(self.named_parameters())
        bufs = dict(self.named_buffers())
        for name, arr in d.items():
            if name not in own and name not in bufs:
                raise KeyError(f"unknown entry in state dict: {name}")
            shape = own[name].shape if name in own else bufs[name].shape
            if shape != np.shape(arr):
                raise ValueError(f"shape mismatch for {name}: {shape} vs {np.shape(arr)}")
        missing = [name for name in (*own, *bufs) if name not in d]
        if missing:
            raise KeyError(f"missing entry in state dict: {missing[0]}")
        for name, arr in d.items():
            if name in own:
                own[name].data = np.asarray(arr, dtype=own[name].dtype)
            else:
                bufs[name][...] = arr


def kaiming_uniform(rng: np.random.Generator, shape, fan_in: int):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Conv2d(Module):
    def __init__(self, in_channels: int, out_channels: int, kernel: int, *,
                 stride: int = 1, padding: int = 0, dilation: int = 1,
                 groups: int = 1, rng: np.random.Generator | None = None,
                 zero_init: bool = False):
        super().__init__()
        self.stride, self.padding, self.dilation, self.groups = stride, padding, dilation, groups
        shape = (out_channels, in_channels // groups, kernel, kernel)
        fan_in = (in_channels // groups) * kernel * kernel
        if zero_init:
            w = np.zeros(shape)
        else:
            if rng is None:
                raise ValueError("Conv2d needs an rng unless zero_init=True")
            w = kaiming_uniform(rng, shape, fan_in)
        self.weight = Parameter(w)
        self.bias = Parameter(np.zeros(out_channels))

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=self.stride,
                      padding=self.padding, dilation=self.dilation, groups=self.groups)


class Linear(Module):
    def __init__(self, in_features: int, out_features: int, *, bias: bool = True,
                 rng: np.random.Generator | None = None, zero_init: bool = False):
        super().__init__()
        if zero_init:
            w = np.zeros((in_features, out_features))
        else:
            if rng is None:
                raise ValueError("Linear needs an rng unless zero_init=True")
            w = kaiming_uniform(rng, (in_features, out_features), in_features)
        self.weight = Parameter(w)
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class BatchNorm2d(Module):
    def __init__(self, channels: int):
        super().__init__()
        self.gamma = Parameter(np.ones(channels))
        self.beta = Parameter(np.zeros(channels))
        self.register_buffer("running_mean", np.zeros(channels))
        self.register_buffer("running_var", np.ones(channels))

    def __call__(self, x: Tensor) -> Tensor:
        return batch_norm(x, self.gamma, self.beta, self._buffers["running_mean"],
                          self._buffers["running_var"], training=self.training)
