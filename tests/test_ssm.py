"""Selective-scan sequence mixer: discretization, scan equivalences,
block contract."""

import numpy as np
import pytest

from mddcnet.tensor import Tensor, flatten_hw, unflatten_hw
from mddcnet.ssm import (MambaBlock, MambaBlock2d, MambaBlockConfig, _chunk_len,
                         _scan_backward, _scan_forward, discretize_zoh,
                         selective_scan, selective_scan_ref)
from mddcnet.gradcheck import grad_check
from mddcnet.verify import CHECKS

from tape_memory import backward_closures

RNG = np.random.default_rng(3)


@pytest.mark.parametrize("name", [n for n in CHECKS if n.startswith("ssm.")])
def test_registered_properties(name):
    CHECKS[name](np.random.default_rng(0))


def test_zoh_matches_scalar_closed_form():
    a = Tensor(np.array([[-0.7]]))
    b = Tensor(np.ones((1, 1, 1)))
    delta = Tensor(np.array([[[0.3]]]))
    abar, bbar = discretize_zoh(a, b, delta)
    assert abs(abar.data.item() - np.exp(-0.21)) < 1e-15
    assert abs(bbar.data.item() - (np.exp(-0.21) - 1.0) / -0.7) < 1e-15


def test_zoh_series_limit_is_smooth():
    # straddle the series threshold: values just above/below must agree to
    # the series truncation error, and gradients must stay finite
    a = Tensor(np.array([[-1.0]]), requires_grad=True)
    for dt in (9.999e-7, 1.0001e-6):
        delta = Tensor(np.array([[[dt]]]), requires_grad=True)
        abar, bbar = discretize_zoh(a, Tensor(np.ones((1, 1, 1))), delta)
        exact = np.expm1(-dt) / -1.0
        # series truncation error is O(dt^3) ~ 1e-19 near the switch point
        assert abs(bbar.data.item() - exact) < 1e-17
        bbar.sum().backward()
        assert np.all(np.isfinite(delta.grad)) and np.all(np.isfinite(a.grad))
        a.grad = None


def test_zoh_rejects_nonpositive_step():
    a = Tensor(np.array([[-1.0]]))
    b = Tensor(np.ones((1, 1, 1)))
    with pytest.raises(ValueError):
        discretize_zoh(a, b, Tensor(np.array([[[0.0]]])))


def _random_scan_arrays(n, l, d, s, rng):
    return [rng.standard_normal((n, l, d)), np.exp(rng.uniform(-4, 0, (n, l, d))),
            -np.exp(rng.standard_normal((d, s))), rng.standard_normal((n, l, s)),
            rng.standard_normal((n, l, s)), rng.standard_normal(d)]


def _run_scan(fn, arrays, coeff):
    inputs = [Tensor(x, requires_grad=True) for x in arrays]
    y = fn(*inputs)
    (y * coeff).sum().backward()
    return y.data, [t.grad for t in inputs]


def _assert_matches_ref(arrays, coeff):
    y, grads = _run_scan(selective_scan, arrays, coeff)
    y_ref, grads_ref = _run_scan(selective_scan_ref, arrays, coeff)
    assert np.max(np.abs(y - y_ref)) <= 1e-10
    for g, r in zip(grads, grads_ref):
        assert np.max(np.abs(g - r) / np.maximum(1.0, np.abs(r))) <= 1e-10


# L = k·T + e, T the fused scan's chunk length at the test shape
LENGTHS = {"1": (0, 1), "2": (0, 2), "7": (0, 7), "64": (0, 64), "257": (0, 257),
           "T-1": (1, -1), "T": (1, 0), "T+1": (1, 1), "2T+3": (2, 3)}


@pytest.mark.parametrize("k, e", LENGTHS.values(), ids=LENGTHS)
def test_par_matches_seq(k, e):
    # the fused chunked scan against its taped composition, output and grads
    length = k * _chunk_len(2, 3, 6) + e
    rng = np.random.default_rng(length)
    arrays = _random_scan_arrays(2, length, 6, 3, rng)
    _assert_matches_ref(arrays, rng.standard_normal((2, length, 6)))


def test_par_matches_seq_batch3_three_chunks():
    # at N = 3 the token-outer chunk layout differs from a state-major one;
    # L = 2T+3 spans three chunks
    n, d, s = 3, 6, 3
    length = 2 * _chunk_len(n, s, d) + 3
    rng = np.random.default_rng(7)
    arrays = _random_scan_arrays(n, length, d, s, rng)
    _assert_matches_ref(arrays, rng.standard_normal((n, length, d)))


def test_series_fallback_across_chunks():
    # A = -1e-9 at Δ = 0.1 puts every Δ·A of those states on the series path,
    # where the two contracted sums of the A gradient cancel to rounding
    # noise: their gradient must come from the series term in all three chunks
    n, d, s = 2, 16, 4
    length = 2 * _chunk_len(n, s, d) + 3
    rng = np.random.default_rng(5)
    arrays = _random_scan_arrays(n, length, d, s, rng)
    arrays[1] = np.full((n, length, d), 0.1)
    arrays[2][:, ::2] = -1e-9
    _assert_matches_ref(arrays, rng.standard_normal((n, length, d)))


# L = k·T + e as in LENGTHS; "series" puts half the states on the series branch
REBUILT_Y = {"one chunk": (1, 0, False), "three chunks": (3, 0, False),
             "partial last chunk": (2, 3, False), "series": (2, 3, True)}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("k, e, series", REBUILT_Y.values(), ids=REBUILT_Y)
def test_scan_backward_rebuilds_forward_y(k, e, series, dtype):
    # the Mamba block keeps no scan output: its backward has the scan's
    # backward write y from the states it recomputes, which must be the
    # forward's y bit for bit
    n, d, s = 2, 16, 4
    length = k * _chunk_len(n, s, d) + e
    rng = np.random.default_rng(length)
    arrays = _random_scan_arrays(n, length, d, s, rng)
    if series:
        arrays[1] = np.full((n, length, d), 0.1)
        arrays[2][:, ::2] = -1e-9
    arrays = [x.astype(dtype) for x in arrays]
    u, _, a, _, _, d_skip = arrays
    y, saved = _scan_forward(*arrays)
    assert saved.small == series
    rebuilt = np.full_like(y, np.nan)
    _scan_backward(rng.standard_normal(y.shape).astype(dtype), u, a, d_skip,
                   saved, y=rebuilt)
    assert np.array_equal(rebuilt, y)


def test_selective_scan_keeps_float32():
    rng = np.random.default_rng(8)
    length = _chunk_len(2, 3, 4) + 5         # two chunks
    arrays = [x.astype(np.float32)
              for x in _random_scan_arrays(2, length, 4, 3, rng)]
    y, grads = _run_scan(selective_scan, arrays,
                         rng.standard_normal((2, length, 4)).astype(np.float32))
    assert y.dtype == np.float32
    assert [g.dtype for g in grads] == [np.float32] * 6


def test_selective_scan_rejects_nonpositive_step():
    rng = np.random.default_rng(9)
    arrays = [Tensor(x) for x in _random_scan_arrays(1, 3, 2, 2, rng)]
    arrays[1].data[0, 1, 0] = 0.0
    with pytest.raises(ValueError):
        selective_scan(*arrays)


def test_scan_matches_naive_recurrence():
    n, l, d, s = 1, 6, 2, 3
    u = RNG.standard_normal((n, l, d))
    delta = RNG.uniform(0.05, 0.5, (n, l, d))
    a = -RNG.uniform(0.3, 2.0, (d, s))
    b = RNG.standard_normal((n, l, s))
    c = RNG.standard_normal((n, l, s))
    d_skip = RNG.standard_normal(d)
    got = selective_scan(Tensor(u), Tensor(delta), Tensor(a), Tensor(b),
                         Tensor(c), Tensor(d_skip)).data
    ref = np.zeros((n, l, d))
    h = np.zeros((d, s))
    for t in range(l):
        abar = np.exp(delta[0, t][:, None] * a)
        bbar = (abar - 1.0) / a * b[0, t]
        h = abar * h + bbar * u[0, t][:, None]
        ref[0, t] = h @ c[0, t] + d_skip * u[0, t]
    assert np.max(np.abs(got - ref)) < 1e-12


def test_selective_scan_gradients():
    n, l, d, s = 1, 4, 2, 2
    u = Tensor(RNG.standard_normal((n, l, d)), requires_grad=True)
    delta = Tensor(RNG.uniform(0.1, 0.4, (n, l, d)), requires_grad=True)
    a = Tensor(-RNG.uniform(0.5, 1.5, (d, s)), requires_grad=True)
    b = Tensor(RNG.standard_normal((n, l, s)), requires_grad=True)
    c = Tensor(RNG.standard_normal((n, l, s)), requires_grad=True)
    dsk = Tensor(RNG.standard_normal(d), requires_grad=True)
    coeff = RNG.standard_normal((n, l, d))

    def fn():
        return (selective_scan(u, delta, a, b, c, dsk) * coeff).sum()

    rep = grad_check(fn, [("u", u), ("delta", delta), ("a", a),
                          ("b", b), ("c", c), ("dsk", dsk)])
    assert max(rep.values()) < 1e-5


def test_config_validation():
    cfg = MambaBlockConfig(d_model=64)
    assert cfg.d_inner == 128 and cfg.dt_rank == 8


def test_forward_block_is_causal_up_to_conv_halo():
    cfg = MambaBlockConfig(d_model=4, d_state=2)
    blk = MambaBlock(cfg, np.random.default_rng(11))
    for p in blk.parameters():
        p.data = np.random.default_rng(13).standard_normal(p.shape) * 0.2
    x = RNG.standard_normal((1, 8, 4))
    x2 = x.copy()
    x2[0, -1] += 1.0
    y1 = blk(Tensor(x)).data
    y2 = blk(Tensor(x2)).data
    # the non-causal width-3 conv leaks one token back; beyond that the
    # forward scan cannot see the perturbation
    assert np.max(np.abs(y1[0, :6] - y2[0, :6])) < 1e-14
    assert np.max(np.abs(y1[0, 7] - y2[0, 7])) > 1e-8


def test_block2d_matches_flattened_block():
    cfg = MambaBlockConfig(d_model=5, d_state=3)
    m2d = MambaBlock2d(cfg, np.random.default_rng(21))
    x = Tensor(RNG.standard_normal((2, 5, 3, 4)))
    ref = unflatten_hw(m2d.block(flatten_hw(x)), 3, 4)
    assert np.array_equal(m2d(x).data, ref.data)


def test_block2d_tape_node_count():
    # pinned: the block is one node, and the token layout round trip
    # (transpose and reshape each way) four more, so a taped op inside the
    # block shows up as an extra node
    m2d = MambaBlock2d(MambaBlockConfig(d_model=8, d_state=4), np.random.default_rng(2))
    x = Tensor(RNG.standard_normal((2, 8, 4, 4)), requires_grad=True)
    assert sum(1 for _ in backward_closures(m2d(x))) == 5


def test_param_paths_on_block():
    blk = MambaBlock(MambaBlockConfig(d_model=4, d_state=2), RNG)
    names = {n for n, _ in blk.named_parameters()}
    assert {"A_log", "D_skip", "proj_B.weight", "proj_C.weight",
            "dt_down.weight", "dt_up.weight", "dt_up.bias",
            "in_proj.weight", "conv_weight", "conv_bias",
            "out_proj.weight", "out_proj.bias"} == names


def test_initial_step_sizes_in_band():
    p = MambaBlock(MambaBlockConfig(d_model=16, d_state=4), RNG)
    dt0 = np.log1p(np.exp(p.dt_up.bias.data))   # softplus at zero input
    assert np.all(dt0 >= 1e-3 - 1e-12) and np.all(dt0 <= 1e-1 + 1e-12)
