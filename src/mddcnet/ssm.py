"""Selective state-space (Mamba-style) sequence mixer.

Continuous dynamics h' = A h + B u with diagonal negative-real A are
discretized per token by a data-dependent step size (zero-order hold),
then rolled out as the linear recurrence h_t = Ā_t h_{t-1} + B̄_t u_t.
``selective_scan`` is one fused tape node that walks the sequence in
token-outer chunks and recomputes each chunk's states in backward;
``selective_scan_ref``, the same scan composed from taped ops, is its oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .tensor import (Tensor, Module, Parameter, Linear, concat, no_grad,
                     conv3_seq, scan_seq, flatten_hw, unflatten_hw, kaiming_uniform)

__all__ = ["MambaBlockConfig", "discretize_zoh", "selective_scan",
           "selective_scan_ref", "scan_scaling", "MambaBlock", "MambaBlock2d"]

_SERIES_EPS = 1e-6
# Elements of one [T, N, S, D] working array of the fused scan, which sets
# its chunk length T = CHUNK_ELEMENTS // (N·S·D): a chunk's ten or so live
# arrays stay in cache, and backward keeps one [N, S, D] state per chunk.
CHUNK_ELEMENTS = 32768


@dataclass
class MambaBlockConfig:
    d_model: int
    d_state: int = 16
    # rank of the factored step-size projection; None: max(4, d_inner // 16)
    dt_rank: int | None = None

    @property
    def d_inner(self) -> int:
        """Inner width: twice d_model, as in Mamba's reference block."""
        return 2 * self.d_model

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


def _chunk_len(n: int, s: int, d: int) -> int:
    """Tokens per chunk of the fused scan for batch N, state S and width D."""
    return max(CHUNK_ELEMENTS // (n * s * d), 1)


def _zoh_chunk(dd, at, inv_a, bd, ud, small, out):
    """Ā = e^{ΔA}, the B̄ factor bf = (e^{ΔA} − 1)/A (the Δ-series where
    |Δ·A| < eps when ``small``), B·u and x = bf·B·u of one chunk of token-
    major inputs ([T, N, ·]), each [T, N, S, D] and written into the four
    arrays ``out``, and the mask of the series entries (None unless
    ``small``). ``at`` and ``inv_a`` are A and 1/A as [S, D]."""
    abar, bf, bu, x = (w[:len(dd)] for w in out)
    # products with an [S, D] operand broadcast over (T, N) run faster as
    # einsums than as np.multiply, which loops over (T, N, S) rows of D
    np.einsum("tnd,sd->tnsd", dd, at, out=abar)          # Δ·A
    mask = None
    if small:
        mask = np.abs(abar) < _SERIES_EPS
        series = dd[:, :, None, :] * (1.0 + 0.5 * abar)
    np.expm1(abar, out=abar)
    np.einsum("tnsd,sd->tnsd", abar, inv_a, out=bf)
    if small:
        np.copyto(bf, series, where=mask)
    abar += 1.0
    np.einsum("tns,tnd->tnsd", bd, ud, out=bu)
    np.multiply(bf, bu, out=x)
    return abar, bf, bu, x, mask


def _swap_leading(*arrays):
    """Contiguous copies of 3-D arrays with their two leading axes swapped:
    [N, L, ·] batch-major to [L, N, ·] token-major, and back."""
    return [np.ascontiguousarray(x.transpose(1, 0, 2)) for x in arrays]


def selective_scan(u: Tensor, delta: Tensor, a: Tensor, b: Tensor, c: Tensor,
                   d_skip: Tensor) -> Tensor:
    """Run the discretized recurrence and read out with per-token C.

    u, delta: [N, L, D]; a: [D, S]; b, c: [N, L, S]; d_skip: [D].
    Returns y[n,l,d] = Σ_s h[n,l,d,s]·c[n,l,s] + d_skip[d]·u[n,l,d]
    where h_t = abar_t ⊙ h_{t-1} + bbar_t·u_t, h_0 = 0 and (abar, bbar)
    = discretize_zoh(a, b, delta).

    One tape node: the sequence is walked in chunks of
    CHUNK_ELEMENTS // (N·S·D) tokens (at least 1, at most L) and only the
    state at each chunk start is kept; backward recomputes a chunk's states
    from it and runs the reverse recurrence per chunk. The inputs are read
    token-major and a chunk's working arrays are [T, N, S, D], token-outer
    and state-major: each step of the recurrence and each token's outer
    product, readout and reduction works on one contiguous [N, S, D] slice,
    and the wide D is the contiguous axis of every broadcast and every sum
    over S.
    """
    ud, dd, ad, bd, cd, skd = (t.data for t in (u, delta, a, b, c, d_skip))
    if np.any(dd <= 0):
        raise ValueError("selective_scan: step sizes must be strictly positive")
    n, l, d = ud.shape
    s = ad.shape[1]
    dtype = np.result_type(ud, dd, ad, bd, cd, skd)
    at = np.ascontiguousarray(ad.T, dtype=dtype)
    inv_a = 1.0 / at
    small = bool((dd * np.abs(ad).min(axis=1)).min() < _SERIES_EPS)
    tc = min(_chunk_len(n, s, d), l)
    chunks = [slice(t0, t0 + tc) for t0 in range(0, l, tc)]
    ut, dt, bt, ct = _swap_leading(ud, dd, bd, cd)
    h_start = np.zeros((len(chunks), n, s, d), dtype=dtype)
    yt = np.empty((l, n, d), dtype=dtype)
    work = np.empty((4, tc, n, s, d), dtype=dtype)
    for i, sl in enumerate(chunks):
        abar, _, _, x, _ = _zoh_chunk(dt[sl], at, inv_a, bt[sl], ut[sl], small,
                                      work)
        h = scan_seq(abar, x, h_start[i], out=x)
        if i + 1 < len(chunks):
            h_start[i + 1] = h[-1]
        yt[sl] = (ct[sl, :, None, :] @ h)[:, :, 0]
    (y,) = _swap_leading(yt)
    y += ud * skd

    def back(g):
        (gt,) = _swap_leading(g)
        gu = gt * skd
        gdelta = np.empty_like(gu)
        gb = np.empty((l, n, s), dtype=dtype)
        gc = np.empty((l, n, s), dtype=dtype)
        ga_sum = np.zeros((s, d), dtype=dtype)     # A·dL/dA off the series
        ga_series = np.zeros((s, d), dtype=dtype)  # dL/dA of the series entries
        carry = np.zeros((n, s, d), dtype=dtype)   # Ā_{t+1}·q_{t+1} past the chunk
        work = np.empty((7, tc, n, s, d), dtype=dtype)
        ones_s = np.ones((1, s), dtype=dtype)
        for i in reversed(range(len(chunks))):
            sl = chunks[i]
            dc, uc, gi, bc = dt[sl], ut[sl], gt[sl], bt[sl]
            abar, bf, bu, x, mask = _zoh_chunk(dc, at, inv_a, bc, uc, small,
                                             work[:4])
            h, q, z = (w[:len(x)] for w in work[4:])
            scan_seq(abar, x, h_start[i], out=h)
            gc[sl] = (h @ gi[..., None])[..., 0]
            # q_t = dL/dh_t = g_t·C_t + Ā_{t+1}·q_{t+1}; dL/dx_t = q_t
            np.einsum("tns,tnd->tnsd", ct[sl], gi, out=q)
            q[-1] += carry
            scan_seq(abar[:0:-1], q[-2::-1], q[-1], out=q[-2::-1])
            np.multiply(abar[0], q[0], out=carry)
            # x = bf·B·u gives the gradients of u and B
            qbf = np.multiply(bf, q, out=bf)
            gu[sl] += (bc[:, :, None, :] @ qbf)[:, :, 0]
            gb[sl] = (qbf @ uc[..., None])[..., 0]
            # ∂Ā/∂Δ = A·Ā and ∂bf/∂Δ = Ā, so dL/dΔ = Σ_s q·Ā·(A·h_{t-1} + B·u)
            # = Σ_s z with z = q·(A·h_t + B·u), as A·bf = Ā − 1
            np.einsum("tnsd,sd->tnsd", h, at, out=z)
            z += bu
            z *= q
            gdelta[sl] = (ones_s @ z)[:, :, 0]
            # dL/dA = Σ q·(Δ·Ā·h_{t-1} + B·u·∂bf/∂A) and A·∂bf/∂A = Δ·Ā − bf,
            # so A·dL/dA = Σ Δ·z − q·x
            if mask is not None:
                # at the series entries (A·∂bf/∂A = A·Δ²/2) that difference
                # would cancel: take them out and add their exact terms
                dc4 = dc[:, :, None, :]
                exact = q * dc4 * (0.5 * dc4 * bu + h - x)
                ga_series += np.where(mask, exact, 0.0).sum(axis=(0, 1))
                z[mask] = 0.0
                x[mask] = 0.0
            ga_sum += np.einsum("tnsd,tnd->sd", z, dc)
            ga_sum -= np.einsum("tnsd,tnsd->sd", q, x)
        ga = np.ascontiguousarray((ga_sum * inv_a + ga_series).T)
        gskip = (g * ud).reshape(-1, d).sum(axis=0)
        gu, gdelta, gb, gc = _swap_leading(gu, gdelta, gb, gc)
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

    def _scan_inputs(self, u: Tensor) -> tuple:
        """Arguments of ``selective_scan`` for the scan input ``u``."""
        a = -self.A_log.exp()
        delta = self.dt_up(self.dt_down(u)).softplus()
        return u, delta, a, self.proj_B(u), self.proj_C(u), self.D_skip

    def __call__(self, x: Tensor) -> Tensor:
        di = self.cfg.d_inner
        proj = self.in_proj(x)
        u, gate = proj[:, :, :di], proj[:, :, di:]
        u = conv3_seq(u, self.conv_weight, self.conv_bias).silu()
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
