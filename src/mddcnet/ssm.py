"""Selective state-space (Mamba-style) sequence mixer.

Continuous dynamics h' = A h + B u with diagonal negative-real A are
discretized per token by a data-dependent step size (zero-order hold),
then rolled out as the linear recurrence h_t = Ā_t h_{t-1} + B̄_t u_t.
``selective_scan`` is one fused tape node that walks the sequence in
token-outer chunks and recomputes each chunk's states in backward. Its
inputs stay batch-major: each is read token-major one chunk at a time, and
the node holds only its inputs and the chunk-start states;
``selective_scan_ref``, the same scan composed from taped ops, is its oracle.
``MambaBlock`` is one tape node too, running the scan's array kernels, and
``mamba_block_ref``, the block composed from taped ops, is its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit as _expit

from .tensor import (Tensor, Module, Parameter, Linear, concat, conv3_seq,
                     scan_seq, flatten_hw, unflatten_hw, kaiming_uniform,
                     _conv3, _conv3_back, _matmul_back, _softplus, _unbroadcast)

__all__ = ["MambaBlockConfig", "discretize_zoh", "selective_scan",
           "selective_scan_ref", "MambaBlock", "mamba_block_ref", "MambaBlock2d"]

_SERIES_EPS = 1e-6
# Elements of one [T, N, S, D] working array of the fused scan, which sets
# its chunk length T = CHUNK_ELEMENTS // (N·S·D): a chunk's ten or so live
# arrays stay in cache, and backward keeps one [N, S, D] state per chunk.
CHUNK_ELEMENTS = 32768


@dataclass
class MambaBlockConfig:
    d_model: int
    d_state: int = 16

    @property
    def d_inner(self) -> int:
        """Inner width: twice d_model, as in Mamba's reference block."""
        return 2 * self.d_model

    @property
    def dt_rank(self) -> int:
        """Rank of the factored step-size projection."""
        return max(4, self.d_inner // 16)


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


def _tokens(x: np.ndarray, sl: slice) -> np.ndarray:
    """Contiguous token-major copy [T, N, ·] of the tokens ``sl`` of a
    batch-major [N, L, ·] array."""
    return np.ascontiguousarray(x[:, sl].transpose(1, 0, 2))


def _readout(ct: np.ndarray, h: np.ndarray, uc: np.ndarray, skd: np.ndarray):
    """The scan output of one chunk, token-major [T, N, D]: Σ_s C·h + D·u,
    for its C ([T, N, S]), states h ([T, N, S, D]) and inputs u ([T, N, D])."""
    yc = (ct[:, :, None, :] @ h)[:, :, 0]
    yc += uc * skd
    return yc


def _scan_setup(dd: np.ndarray, ad: np.ndarray, dtype):
    """A and 1/A as [S, D] in ``dtype``, the fused scan's chunk slices for Δ
    ([N, L, D]), and whether any Δ·A takes the series branch."""
    n, l, d = dd.shape
    at = np.ascontiguousarray(ad.T, dtype=dtype)
    tc = min(_chunk_len(n, at.shape[0], d), l)
    small = bool((dd * np.abs(ad).min(axis=1)).min() < _SERIES_EPS)
    return at, 1.0 / at, [slice(t0, t0 + tc) for t0 in range(0, l, tc)], small


def _scan_forward(ud, dd, ad, bd, cd, skd) -> tuple[np.ndarray, np.ndarray]:
    """``selective_scan`` on arrays: y and the state at the start of each chunk
    after the first ([chunks − 1, N, S, D]), which its backward reads."""
    if np.any(dd <= 0):
        raise ValueError("selective_scan: step sizes must be strictly positive")
    (n, l, d), s = ud.shape, ad.shape[1]
    dtype = np.result_type(ud, dd, ad, bd, cd, skd)
    at, inv_a, chunks, small = _scan_setup(dd, ad, dtype)
    h_start = np.empty((len(chunks) - 1, n, s, d), dtype=dtype)
    y = np.empty((n, l, d), dtype=dtype)
    work = np.empty((4, chunks[0].stop, n, s, d), dtype=dtype)
    for i, sl in enumerate(chunks):
        uc = _tokens(ud, sl)
        abar, _, _, x, _ = _zoh_chunk(_tokens(dd, sl), at, inv_a, _tokens(bd, sl),
                                      uc, small, work)
        h = scan_seq(abar, x, h_start[i - 1] if i else None, out=x)
        if i + 1 < len(chunks):
            h_start[i] = h[-1]
        y[:, sl] = _readout(_tokens(cd, sl), h, uc, skd).transpose(1, 0, 2)
    return y, h_start


def _scan_backward(g, ud, dd, ad, bd, cd, skd, h_start, gu=None, y=None) -> tuple:
    """The gradients (u, Δ, A, B, C, D) of ``selective_scan`` for the output
    gradient g, batch-major like its inputs, from those inputs and
    ``_scan_forward``'s chunk-start states. The input gradient is written
    to ``gu`` when given, which may be g itself: each chunk of g is read
    before the same chunk of ``gu`` is written. When ``y`` ([N, L, D]) is
    given, the scan's output is written to it from the recomputed states,
    with ``_scan_forward``'s expressions, so it equals that y bit for bit."""
    (n, l, d), s = ud.shape, ad.shape[1]
    dtype = h_start.dtype
    at, inv_a, chunks, small = _scan_setup(dd, ad, dtype)
    gskip = (g * ud).reshape(-1, d).sum(axis=0)
    gu = np.empty((n, l, d), dtype=dtype) if gu is None else gu
    gdelta = np.empty((n, l, d), dtype=dtype)
    gb = np.empty((n, l, s), dtype=dtype)
    gc = np.empty((n, l, s), dtype=dtype)
    ga_sum = np.zeros((s, d), dtype=dtype)     # A·dL/dA off the series
    ga_series = np.zeros((s, d), dtype=dtype)  # dL/dA of the series entries
    carry = np.zeros((n, s, d), dtype=dtype)   # Ā_{t+1}·q_{t+1} past the chunk
    work = np.empty((7, chunks[0].stop, n, s, d), dtype=dtype)
    ones_s = np.ones((1, s), dtype=dtype)
    for i in reversed(range(len(chunks))):
        sl = chunks[i]
        dc, uc, gi, bc, cc = (_tokens(x, sl) for x in (dd, ud, g, bd, cd))
        abar, bf, bu, x, mask = _zoh_chunk(dc, at, inv_a, bc, uc, small,
                                         work[:4])
        h, q, z = (w[:len(x)] for w in work[4:])
        scan_seq(abar, x, h_start[i - 1] if i else None, out=h)
        if y is not None:
            y[:, sl] = _readout(cc, h, uc, skd).transpose(1, 0, 2)
        gc[:, sl] = (h @ gi[..., None])[..., 0].transpose(1, 0, 2)
        # q_t = dL/dh_t = g_t·C_t + Ā_{t+1}·q_{t+1}; dL/dx_t = q_t
        np.einsum("tns,tnd->tnsd", cc, gi, out=q)
        q[-1] += carry
        scan_seq(abar[:0:-1], q[-2::-1], q[-1], out=q[-2::-1])
        np.multiply(abar[0], q[0], out=carry)
        # x = bf·B·u gives the gradients of u and B
        qbf = np.multiply(bf, q, out=bf)
        gi *= skd
        gi += (bc[:, :, None, :] @ qbf)[:, :, 0]
        gu[:, sl] = gi.transpose(1, 0, 2)
        gb[:, sl] = (qbf @ uc[..., None])[..., 0].transpose(1, 0, 2)
        # ∂Ā/∂Δ = A·Ā and ∂bf/∂Δ = Ā, so dL/dΔ = Σ_s q·Ā·(A·h_{t-1} + B·u)
        # = Σ_s z with z = q·(A·h_t + B·u), as A·bf = Ā − 1
        np.einsum("tnsd,sd->tnsd", h, at, out=z)
        z += bu
        z *= q
        gdelta[:, sl] = (ones_s @ z)[:, :, 0].transpose(1, 0, 2)
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
    return gu, gdelta, ga, gb, gc, gskip


def selective_scan(u: Tensor, delta: Tensor, a: Tensor, b: Tensor, c: Tensor,
                   d_skip: Tensor) -> Tensor:
    """Run the discretized recurrence and read out with per-token C.

    u, delta: [N, L, D]; a: [D, S]; b, c: [N, L, S]; d_skip: [D].
    Returns y[n,l,d] = Σ_s h[n,l,d,s]·c[n,l,s] + d_skip[d]·u[n,l,d]
    where h_t = abar_t ⊙ h_{t-1} + bbar_t·u_t, h_0 = 0 and (abar, bbar)
    = discretize_zoh(a, b, delta).

    One tape node: the sequence is walked in chunks of
    CHUNK_ELEMENTS // (N·S·D) tokens (at least 1, at most L) and only the
    state at the start of each chunk after the first is kept; backward
    recomputes a chunk's states from it and runs the reverse recurrence per
    chunk. A chunk's inputs are read token-major and its working arrays
    are [T, N, S, D], token-outer and state-major: each step of the
    recurrence and each token's outer product, readout and reduction works
    on one contiguous [N, S, D] slice, and the wide D is the contiguous axis
    of every broadcast and every sum over S. The inputs stay batch-major:
    forward and backward each read u, Δ, B, C (and g) token-major one chunk
    at a time and write y and the gradients back batch-major the same way,
    so the node holds only its six input arrays and the chunk-start states.
    """
    arrays = (u.data, delta.data, a.data, b.data, c.data, d_skip.data)
    y, h_start = _scan_forward(*arrays)
    return Tensor._node(y, (u, delta, a, b, c, d_skip),
                        lambda g: _scan_backward(g, *arrays, h_start))


def _times_silu_grad(g: np.ndarray, d: np.ndarray, s: np.ndarray) -> np.ndarray:
    """g·silu'(d) = g·s·(1 + d·(1 − s)) for s = σ(d), in place in g and in the
    order of ``Tensor.silu``'s backward; s is overwritten."""
    g *= s
    np.subtract(1.0, s, out=s)
    s *= d
    s += 1.0
    g *= s
    return g


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

    def __init__(self, cfg: MambaBlockConfig, rng: np.random.Generator):
        super().__init__()
        self.cfg = cfg
        di, s, r = cfg.d_inner, cfg.d_state, cfg.dt_rank
        self.in_proj = Linear(cfg.d_model, 2 * di, bias=False, rng=rng)
        self.conv_weight = Parameter(kaiming_uniform(rng, (3, di), 3))
        self.conv_bias = Parameter(np.zeros(di))
        self.A_log = Parameter(np.log(np.tile(np.arange(1.0, s + 1.0), (di, 1))))
        self.D_skip = Parameter(np.ones(di))
        self.proj_B = Linear(di, s, bias=False, rng=rng)
        self.proj_C = Linear(di, s, bias=False, rng=rng)
        self.dt_down = Linear(di, r, bias=False, rng=rng)
        self.dt_up = Linear(r, di, rng=rng)
        dt0 = np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), size=di))
        self.dt_up.bias.data = np.log(np.expm1(dt0))
        self.out_proj = Linear(di, cfg.d_model, zero_init=True)

    def __call__(self, x: Tensor) -> Tensor:
        """One tape node that holds x, dt_down's rank-r output t1 and the
        scan's chunk-start states. Backward rebuilds the rest from them:
        in_proj's output (u's half and the gate are views of it), the conv
        output and u = silu(conv), the Δ, B and C the scan reads, the scan
        output y (written by the scan's backward from the states it
        recomputes, so no second scan runs) and y·silu(gate).
        Only g_y, u, Δ, B, C and y are alive beside the scan's own arrays;
        the gate's σ, the step-size pre-activation and the conv output are
        rebuilt once more after it rather than kept through it. Every
        expression is that of ``mamba_block_ref`` in the order its tape runs
        them, so output and gradients equal the composition's bit for bit."""
        params = (self.in_proj.weight, self.conv_weight, self.conv_bias,
                  self.A_log, self.D_skip, self.proj_B.weight, self.proj_C.weight,
                  self.dt_down.weight, self.dt_up.weight, self.dt_up.bias,
                  self.out_proj.weight, self.out_proj.bias)
        (w_in, w_conv, b_conv, a_log, skd, w_b, w_c, w_down, w_up, b_up,
         w_out, b_out) = (p.data for p in params)
        di, xd = self.cfg.d_inner, x.data

        def silu_conv(u0):
            """u = silu(conv(u0)) = conv·σ(conv)."""
            u = _conv3(u0, w_conv, b_conv)
            u *= _expit(u)
            return u

        proj = xd @ w_in
        u, gate = silu_conv(proj[:, :, :di]), proj[:, :, di:]
        t1 = u @ w_down
        y, h_start = _scan_forward(
            u, _softplus(t1 @ w_up + b_up), -np.exp(a_log), u @ w_b, u @ w_c, skd)
        del u
        out = (y * (gate * _expit(gate))) @ w_out + b_out

        def back(g):
            proj = xd @ w_in
            gate = proj[:, :, di:]
            g_y = g @ w_out.T
            g_y *= gate * _expit(gate)
            u = silu_conv(proj[:, :, :di])
            del proj, gate
            y = np.empty_like(u)
            exp_a = np.exp(a_log)
            gu, gdelta, ga, gb, gc, g_skip = _scan_backward(
                g_y, u, _softplus(t1 @ w_up + b_up), -exp_a, u @ w_b, u @ w_c,
                skd, h_start, gu=g_y, y=y)
            # Δ = softplus(t1 @ w_up + b_up)
            e = t1 @ w_up
            e += b_up
            gdelta *= _expit(e, out=e)
            del e
            g_up, g_wup = _matmul_back(t1, w_up, gdelta)
            g_bup = _unbroadcast(gdelta, b_up.shape)
            del gdelta
            # u feeds dt_down, proj_B and proj_C after the scan
            g_part, g_wdown = _matmul_back(u, w_down, g_up)
            gu += g_part
            g_part, g_wb = _matmul_back(u, w_b, gb)
            gu += g_part
            g_part, g_wc = _matmul_back(u, w_c, gc)
            gu += g_part
            del g_part, u
            # out = (y·silu(gate)) @ w_out + b_out
            proj = xd @ w_in
            u0, gate = proj[:, :, :di], proj[:, :, di:]
            s_gate = _expit(gate)
            y_sg = gate * s_gate
            y_sg *= y
            g_yg, g_wout = _matmul_back(y_sg, w_out, g)
            del y_sg
            g_yg *= y
            del y
            g_gate = _times_silu_grad(g_yg, gate, s_gate)
            del s_gate, g_yg, gate
            conv = _conv3(u0, w_conv, b_conv)
            _times_silu_grad(gu, conv, _expit(conv))
            del conv
            g_proj = np.empty_like(proj)
            del proj
            g_proj[:, :, di:] = g_gate
            del g_gate
            _, g_wconv, g_bconv = _conv3_back(gu, u0, w_conv, b_conv.shape,
                                              out=g_proj[:, :, :di])
            del gu
            g_x, g_win = _matmul_back(xd, w_in, g_proj)
            return (g_x, g_win, g_wconv, g_bconv, -ga * exp_a, g_skip, g_wb, g_wc,
                    g_wdown, g_wup, g_bup, g_wout, _unbroadcast(g, b_out.shape))

        return Tensor._node(out, (x, *params), back)


def mamba_block_ref(block: MambaBlock, x: Tensor) -> Tensor:
    """``block``'s forward composed from taped ops: the oracle of the fused
    ``MambaBlock.__call__``, whose autodiff gives the reference gradients."""
    di = block.cfg.d_inner
    proj = block.in_proj(x)
    u, gate = proj[:, :, :di], proj[:, :, di:]
    u = conv3_seq(u, block.conv_weight, block.conv_bias).silu()
    delta = block.dt_up(block.dt_down(u)).softplus()
    y = selective_scan(u, delta, -block.A_log.exp(), block.proj_B(u),
                       block.proj_C(u), block.D_skip)
    return block.out_proj(y * gate.silu())


class MambaBlock2d(Module):
    """MambaBlock over an image feature map, tokens in row-major order."""

    def __init__(self, cfg: MambaBlockConfig, rng: np.random.Generator):
        super().__init__()
        self.block = MambaBlock(cfg, rng)

    def __call__(self, x: Tensor) -> Tensor:
        _, _, h, w = x.shape
        return unflatten_hw(self.block(flatten_hw(x)), h, w)
