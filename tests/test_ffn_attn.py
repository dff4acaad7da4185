"""Feed-forward and attention-synergy blocks: identity-at-init contracts,
gate behavior, ablation family wiring."""

import numpy as np
import pytest

from mddcnet import ffn_attn
from mddcnet.tensor import Tensor
from mddcnet.ffn_attn import (CeFfn, Csca, Mlca, ScaleCalibration,
                              SpatialAttention, VanillaFfn, make_ffn)
from mddcnet.verify import CHECKS

RNG = np.random.default_rng(4)


@pytest.mark.parametrize("name",
                         [n for n in CHECKS
                          if n.startswith(("ffn.", "attn."))])
def test_registered_properties(name):
    CHECKS[name](np.random.default_rng(0))


def test_make_ffn_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_ffn("mlp", 4, RNG)


def test_ce_ffn_branch_shapes_and_nonidentity_after_nudge():
    m = CeFfn(3, np.random.default_rng(8))
    m.conv_out.weight.data += 0.05
    x = Tensor(RNG.standard_normal((1, 3, 5, 5)))
    y = m(x)
    assert y.shape == x.shape
    assert np.max(np.abs(y.data)) > 1e-6


def test_vanilla_ffn_param_count():
    m = VanillaFfn(4, RNG)
    n = sum(p.data.size for p in m.parameters())
    # 4->4 conv (16+4) twice: the hidden width is FFN_EXPANSION = 1 times C
    assert n == 40


def test_spatial_attention_gate_is_bounded():
    sa = SpatialAttention(np.random.default_rng(9))
    sa.conv.weight.data = RNG.standard_normal(sa.conv.weight.shape)
    x = Tensor(np.abs(RNG.standard_normal((2, 3, 6, 6))) + 0.1)
    y = sa(x)
    assert np.all(y.data > 0.0) and np.all(y.data <= x.data + 1e-15)


def test_mlca_identity_mix_on_uniform_map():
    # identity-initialized channel mix => gate = sigmoid(channel mean);
    # a constant map therefore scales by exactly sigmoid(c)
    mlca = Mlca()
    c = 0.7
    x = Tensor(np.full((1, 4, 10, 10), c))
    y = mlca(x)
    assert np.max(np.abs(y.data - c / (1.0 + np.exp(-c)))) < 1e-12


def test_mlca_local_path_differs_from_global_on_structured_input(monkeypatch):
    mlca = Mlca()
    x = np.zeros((1, 1, 10, 10))
    x[..., :4] = 2.0            # left two 2-pixel grid columns hot
    z = mlca(Tensor(x)).data    # mixed: the hot cells' local gate is sigmoid(2)
    monkeypatch.setattr(ffn_attn, "MLCA_BETA", 1.0)
    y = mlca(Tensor(x)).data    # pure global: uniform gate sigmoid(mean) = sigmoid(0.8)
    sig08, sig2 = 1.0 / (1.0 + np.exp(-0.8)), 1.0 / (1.0 + np.exp(-2.0))
    assert np.allclose(y[0, 0, :, :4], 2.0 * sig08)
    assert np.allclose(z[0, 0, :, :4], 2.0 * (0.5 * sig08 + 0.5 * sig2))


def test_mlca_small_maps_clamp_grid():
    mlca = Mlca()
    y = mlca(Tensor(RNG.standard_normal((1, 3, 2, 2))))
    assert y.shape == (1, 3, 2, 2)
    with pytest.raises(ValueError):
        mlca(Tensor(np.zeros((1, 3, 0, 4))))


def test_scale_calibration_output_in_unit_interval():
    sc = ScaleCalibration(3, np.random.default_rng(10))
    y = sc(Tensor(RNG.standard_normal((2, 3, 7, 7))))
    assert y.shape == (2, 3, 7, 7)
    assert np.all(y.data > 0.0) and np.all(y.data < 1.0)


def test_csca_rejects_unknown_kind():
    with pytest.raises(ValueError):
        Csca(4, RNG, kind="cbam")


def test_csca_submodule_presence_per_kind():
    full = Csca(4, RNG, kind="csca")
    assert hasattr(full, "sa") and hasattr(full, "mlca") and hasattr(full, "sc")
    plain = Csca(4, RNG, kind="concat")
    assert not hasattr(plain, "mlca") and not hasattr(plain, "sa")
    # both kinds fuse a 2C concat
    assert full.fuse.weight.shape[1] == 8
    assert plain.fuse.weight.shape[1] == 8
