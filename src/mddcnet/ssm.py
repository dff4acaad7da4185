"""Selective state-space (Mamba-style) sequence mixer.

Continuous dynamics h' = A h + B u with diagonal negative-real A are
discretized per token by a data-dependent step size (zero-order hold),
then rolled out as the linear recurrence h_t = Ā_t h_{t-1} + B̄_t u_t.
``selective_scan`` is one fused tape node that walks the sequence in chunks
and recomputes each chunk's states in backward; ``selective_scan_ref``, the
same scan composed from taped ops, is its oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .tensor import (Tensor, Module, Parameter, Linear, concat, no_grad,
                     scan_seq, flatten_hw, unflatten_hw, kaiming_uniform)

__all__ = ["MambaBlockConfig", "discretize_zoh", "selective_scan",
           "selective_scan_ref", "scan_scaling", "MambaBlock", "MambaBlock2d"]

_SERIES_EPS = 1e-6
# Tokens per chunk of the fused scan: a chunk's [N, T, D, S] working arrays
# stay in cache, and backward keeps only the state at each chunk start.
SCAN_CHUNK = 16


@dataclass
class MambaBlockConfig:
    d_model: int
    expand: int = 2
    d_state: int = 16
    # rank of the factored step-size projection; None: max(4, d_inner // 16)
    dt_rank: int | None = None

    def __post_init__(self):
        if self.d_inner % 2:
            raise ValueError("d_inner must be even")

    @property
    def d_inner(self) -> int:
        return self.d_model * self.expand

    def resolved_dt_rank(self) -> int:
        return self.dt_rank if self.dt_rank is not None else max(4, self.d_inner // 16)


def discretize_zoh(a: Tensor, b: Tensor, delta: Tensor) -> tuple[Tensor, Tensor]:
    """Zero-order-hold discretization of diagonal dynamics.

    a: [D, S] strictly negative; b: [N, L, S]; delta: [N, L, D] strictly
    positive. Returns (abar, bbar), each [N, L, D, S]:
        abar = exp(Δ·A);  bbar = ((exp(Δ·A) − 1)/A)·B,
    falling back to the series limit Δ·(1 + Δ·A/2)·B when |Δ·A| < 1e-6.
    Composed from taped ops only, so autodiff gives the oracle gradients.
    """
    if np.any(delta.data <= 0):
        raise ValueError("discretize_zoh: step sizes must be strictly positive")
    n, l, d = delta.shape
    delta4 = delta.reshape(n, l, d, 1)
    da = delta4 * a
    # a constant 0/1 blend: the masked-out branch gets a zero gradient
    small = (np.abs(da.data) < _SERIES_EPS).astype(da.dtype)
    bfactor = (da.expm1() / a * (1.0 - small)
               + delta4 * (da * 0.5 + 1.0) * small)
    return da.exp(), bfactor * b.reshape(n, l, 1, b.shape[2])


def selective_scan_ref(u: Tensor, delta: Tensor, a: Tensor, b: Tensor,
                       c: Tensor, d_skip: Tensor) -> Tensor:
    """The selective scan composed from taped ops, one step per token: the
    oracle of ``selective_scan``, whose autodiff gives the reference
    gradients."""
    n, l, d = u.shape
    s = a.shape[1]
    abar, bbar = discretize_zoh(a, b, delta)
    x = bbar * u.reshape(n, l, d, 1)
    h = x[:, 0]
    hs = [h]
    for t in range(1, l):
        h = abar[:, t] * h + x[:, t]
        hs.append(h)
    h = concat([ht.reshape(n, 1, d, s) for ht in hs], axis=1)
    return (h * c.reshape(n, l, 1, s)).sum(axis=3) + u * d_skip


def _zoh_chunk(dd, ad, bd, ud, small):
    """Δ·A, e^{ΔA} − 1, the B̄ factor (e^{ΔA} − 1)/A (Δ-series where
    |Δ·A| < eps when ``small``) and B̄·u of one chunk, each [N, T, D, S]."""
    dd4 = dd[..., None]
    da = dd4 * ad
    em1 = np.expm1(da)
    bf = em1 / ad
    mask = None
    if small:
        mask = np.abs(da) < _SERIES_EPS
        bf = np.where(mask, dd4 * (1.0 + 0.5 * da), bf)
    x = bf * bd[:, :, None, :]
    x *= ud[..., None]
    return da, em1, bf, x, mask


def selective_scan(u: Tensor, delta: Tensor, a: Tensor, b: Tensor, c: Tensor,
                   d_skip: Tensor) -> Tensor:
    """Run the discretized recurrence and read out with per-token C.

    u, delta: [N, L, D]; a: [D, S]; b, c: [N, L, S]; d_skip: [D].
    Returns y[n,l,d] = Σ_s h[n,l,d,s]·c[n,l,s] + d_skip[d]·u[n,l,d]
    where h_t = abar_t ⊙ h_{t-1} + bbar_t·u_t, h_0 = 0 and (abar, bbar)
    = discretize_zoh(a, b, delta).

    One tape node: the sequence is walked in chunks of SCAN_CHUNK tokens and
    only the state at each chunk start is kept; backward recomputes a
    chunk's states from it and runs the reverse recurrence per chunk.
    """
    ud, dd, ad, bd, cd, skd = (t.data for t in (u, delta, a, b, c, d_skip))
    if np.any(dd <= 0):
        raise ValueError("selective_scan: step sizes must be strictly positive")
    n, l, d = ud.shape
    s = ad.shape[1]
    dtype = np.result_type(ud, dd, ad, bd, cd, skd)
    small = bool((dd * np.abs(ad).min(axis=1)).min() < _SERIES_EPS)
    chunks = [slice(t0, t0 + SCAN_CHUNK) for t0 in range(0, l, SCAN_CHUNK)]
    h_start = np.zeros((len(chunks), n, d, s), dtype=dtype)
    y = np.empty((n, l, d), dtype=dtype)
    for i, sl in enumerate(chunks):
        _, em1, _, x, _ = _zoh_chunk(dd[:, sl], ad, bd[:, sl], ud[:, sl], small)
        h = scan_seq(em1 + 1.0, x, h_start[i])
        if i + 1 < len(chunks):
            h_start[i + 1] = h[:, -1]
        y[:, sl] = (h @ cd[:, sl, :, None])[..., 0]
    y += ud * skd

    def back(g):
        ones_s = np.ones(s, dtype=dtype)
        gu = g * skd
        gdelta = np.empty_like(gu)
        gb = np.empty((n, l, s), dtype=dtype)
        gc = np.empty((n, l, s), dtype=dtype)
        ga_abar = np.zeros(d * s, dtype=dtype)   # Σ Δ·Ā·dL/dĀ
        ga_bf = np.zeros(d * s, dtype=dtype)     # Σ A²·∂bf/∂A·dL/dbf
        carry = np.zeros((n, d, s), dtype=dtype)  # Ā_{t+1}·q_{t+1} past the chunk
        for i in reversed(range(len(chunks))):
            sl = chunks[i]
            dc, uc, gi = dd[:, sl], ud[:, sl], g[:, sl]
            bc = bd[:, sl, :, None]
            da, em1, bf, x, mask = _zoh_chunk(dc, ad, bd[:, sl], uc, small)
            abar = em1 + 1.0
            h = scan_seq(abar, x, h_start[i])
            gc[:, sl] = (gi[:, :, None, :] @ h)[:, :, 0, :]
            # q_t = dL/dh_t = g_t·C_t + Ā_{t+1}·q_{t+1}; dL/dx_t = q_t
            q = gi[..., None] * cd[:, sl, None, :]
            q[:, -1] += carry
            for t in range(q.shape[1] - 2, -1, -1):
                q[:, t] += abar[:, t + 1] * q[:, t + 1]
            carry = abar[:, 0] * q[:, 0]
            # x = bf·B·u gives the gradients of u and B
            qbf = q * bf
            gu[:, sl] += (qbf @ bc)[..., 0]
            gb[:, sl] = (uc[:, :, None, :] @ qbf)[:, :, 0, :]
            # ∂Ā/∂Δ = Ā·A and ∂bf/∂Δ = Ā, so both Δ paths go through q·Ā
            w = q * abar
            gdelta[:, sl] = uc * (w @ bc)[..., 0]
            w *= np.concatenate((h_start[i][:, None], h[:, :-1]), axis=1)
            gdelta[:, sl] += ((w * ad).reshape(-1, s) @ ones_s).reshape(dc.shape)
            w *= dc[..., None]
            ga_abar += w.reshape(-1, d * s).sum(axis=0)
            # A²·∂bf/∂A = ΔA·e^{ΔA} − (e^{ΔA} − 1); series: A²·Δ²/2
            dbf = da * abar
            dbf -= em1
            if mask is not None:
                dbf = np.where(mask, 0.5 * da * da, dbf)
            dbf *= q * bc.transpose(0, 1, 3, 2)
            dbf *= uc[..., None]
            ga_bf += dbf.reshape(-1, d * s).sum(axis=0)
        ga = (ga_abar + ga_bf / (ad * ad).ravel()).reshape(d, s)
        gskip = (g * ud).reshape(-1, d).sum(axis=0)
        return gu, gdelta, ga, gb, gc, gskip

    return Tensor._node(y, (u, delta, a, b, c, d_skip), back)


def scan_scaling(block: MambaBlock, lengths, rounds: int,
                 rng: np.random.Generator) -> tuple[dict, dict]:
    """Wall-clock cost of ``selective_scan`` under no_grad at each sequence
    length, with inputs from the scan parameters of ``block`` and batch 1.

    Every round times each length once, so a slow spell of the machine
    falls on neighbouring lengths alike. Returns the median seconds per
    length, and for each L whose double 2L is also timed the median over
    rounds of that round's time(2L)/time(L).
    """
    di = block.cfg.d_inner
    inputs = {}
    with no_grad():
        for length in lengths:
            u = Tensor(rng.standard_normal((1, length, di)))
            inputs[length] = block._scan_inputs(u)
            selective_scan(*inputs[length])                 # warm up
        times = {length: [] for length in lengths}
        for _ in range(max(1, rounds)):
            for length in lengths:
                t0 = time.perf_counter()
                selective_scan(*inputs[length])
                times[length].append(time.perf_counter() - t0)
    ratios = {length: float(np.median(np.divide(times[2 * length], times[length])))
              for length in lengths if 2 * length in times}
    return {length: float(np.median(ts)) for length, ts in times.items()}, ratios


class MambaBlock(Module):
    """Gated selective-scan token mixer for [N, L, C] sequences.

    in_proj widens to (main, gate); a width-3 depthwise sequence conv
    (zero-padded, non-causal) and SiLU precede the scan; the SiLU-gated
    result leaves through a zero-initialized out_proj, so a fresh block
    is an exact no-op under a caller-side residual.

    A is parameterized as −exp(A_log) (always stable); A_log rows start at
    log(1..S). The step size is softplus of a factored linear projection
    (dt_up ∘ dt_down: D_inner→rank→D_inner) whose bias is drawn so the
    initial step lands in [1e-3, 1e-1].
    """

    def __init__(self, cfg: MambaBlockConfig, rng: np.random.Generator,
                 dtype=np.float64):
        super().__init__()
        self.cfg = cfg
        di, s, r = cfg.d_inner, cfg.d_state, cfg.resolved_dt_rank()
        self.in_proj = Linear(cfg.d_model, 2 * di, bias=False, rng=rng, dtype=dtype)
        self.conv_weight = Parameter(kaiming_uniform(rng, (3, di), 3, dtype))
        self.conv_bias = Parameter(np.zeros(di, dtype=dtype))
        self.A_log = Parameter(np.log(np.tile(np.arange(1.0, s + 1.0),
                                              (di, 1))).astype(dtype))
        self.D_skip = Parameter(np.ones(di, dtype=dtype))
        self.proj_B = Linear(di, s, bias=False, rng=rng, dtype=dtype)
        self.proj_C = Linear(di, s, bias=False, rng=rng, dtype=dtype)
        self.dt_down = Linear(di, r, bias=False, rng=rng, dtype=dtype)
        self.dt_up = Linear(r, di, rng=rng, dtype=dtype)
        dt0 = np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), size=di))
        self.dt_up.bias.data = np.log(np.expm1(dt0)).astype(dtype)
        self.out_proj = Linear(di, cfg.d_model, zero_init=True, dtype=dtype)

    def _seq_conv(self, u: Tensor) -> Tensor:
        up = u.pad(((0, 0), (1, 1), (0, 0)))
        w = self.conv_weight
        return (up[:, :-2] * w[0] + up[:, 1:-1] * w[1] + up[:, 2:] * w[2]
                + self.conv_bias)

    def _scan_inputs(self, u: Tensor) -> tuple:
        """Arguments of ``selective_scan`` for the scan input ``u``."""
        a = -self.A_log.exp()
        delta = self.dt_up(self.dt_down(u)).softplus()
        return u, delta, a, self.proj_B(u), self.proj_C(u), self.D_skip

    def __call__(self, x: Tensor) -> Tensor:
        di = self.cfg.d_inner
        proj = self.in_proj(x)
        u, gate = proj[:, :, :di], proj[:, :, di:]
        u = self._seq_conv(u).silu()
        y = selective_scan(*self._scan_inputs(u))
        return self.out_proj(y * gate.silu())


class MambaBlock2d(Module):
    """MambaBlock over an image feature map, tokens in row-major order."""

    def __init__(self, cfg: MambaBlockConfig, rng: np.random.Generator,
                 dtype=np.float64):
        super().__init__()
        self.block = MambaBlock(cfg, rng, dtype)

    def __call__(self, x: Tensor) -> Tensor:
        _, _, h, w = x.shape
        return unflatten_hw(self.block(flatten_hw(x)), h, w)
