"""Full network assembly: variants, shapes, init contracts, budget accounting,
box codec."""

import numpy as np
import pytest

from mddcnet.tensor import Tensor, no_grad
from mddcnet.model import (BUDGET_TARGETS, MddcNet, VariantConfig, count_params,
                           decode_boxes, encode_box, estimate_flops,
                           variant_config)
from mddcnet.train import Sgd
from mddcnet.verify import CHECKS

RNG = np.random.default_rng(6)


@pytest.mark.parametrize("name", [n for n in CHECKS if n.startswith("model.")])
def test_registered_properties(name):
    CHECKS[name](np.random.default_rng(0))


def test_variant_config_validation():
    with pytest.raises(ValueError):
        variant_config("s")
    with pytest.raises(ValueError):
        variant_config("n", stage_kinds=("msddc", "mamba", "conv", "mamba"))
    with pytest.raises(ValueError):
        variant_config("n", ffn_kind="mlp")
    with pytest.raises(ValueError):
        variant_config("n", neck_attention="se")
    with pytest.raises(ValueError):
        VariantConfig("x", embed_dims=(8, 16, 32), depths=(1, 1, 1, 1))
    cfg = variant_config("n", ffn_kind="vanilla")
    assert cfg.ffn_kind == "vanilla" and cfg.embed_dims == (16, 32, 64, 128)


def test_forward_output_shapes():
    cfg = variant_config("n-toy")
    model = MddcNet(cfg, np.random.default_rng(0))
    preds = model(Tensor(RNG.random((2, 3, 64, 64))))
    assert len(preds) == 3
    for (cls_t, obj_t, box_t), stride in zip(preds, (8, 16, 32)):
        g = 64 // stride
        assert cls_t.shape == (2, 3, g, g)
        assert obj_t.shape == (2, 1, g, g)
        assert box_t.shape == (2, 4, g, g)


def test_untrained_model_is_quiet():
    model = MddcNet(variant_config("n-toy"), np.random.default_rng(0))
    preds = model(Tensor(RNG.random((1, 3, 64, 64))))
    for _, obj_t, _ in preds:
        # obj bias -4 keeps initial objectness sigmoid under ~10%
        assert np.all(1.0 / (1.0 + np.exp(-obj_t.data)) < 0.25)


@pytest.mark.parametrize("variant", ["n", "t", "b"])
def test_budget_within_band(variant):
    cfg = variant_config(variant)
    params = count_params(MddcNet(cfg, np.random.default_rng(0)))
    flops = estimate_flops(cfg)
    p_tgt, f_tgt = BUDGET_TARGETS[variant]
    assert abs(params["total"] - p_tgt) / p_tgt <= 0.25
    assert abs(flops["total"] - f_tgt) / f_tgt <= 0.25


def test_section_breakdown_sums_to_total():
    cfg = variant_config("n")
    params = count_params(MddcNet(cfg, np.random.default_rng(0)))
    flops = estimate_flops(cfg)
    sections = [k for k in params if k != "total"]
    assert sum(params[k] for k in sections) == params["total"]
    assert sum(flops[k] for k in sections if k in flops) == flops["total"]
    assert all(params[k] >= 0 for k in sections)


def test_box_codec_roundtrip():
    for stride in (8, 16, 32):
        box = (10.0, 20.0, 90.0, 70.0)
        cy, cx = 40.0, 48.0
        grid = np.zeros((1, 4, 8, 8))
        y, x = int(cy // stride), int(cx // stride)
        # encode relative to the true center of cell (y, x)
        raw = encode_box(box, (y + 0.5) * stride, (x + 0.5) * stride, stride)
        grid[0, :, y, x] = raw
        dec = decode_boxes(grid, stride)[0, :, y, x]
        assert np.max(np.abs(dec - np.asarray(box))) < 1e-10


def test_encode_box_rejects_outside_center():
    with pytest.raises(ValueError):
        encode_box((10, 10, 20, 20), 5.0, 15.0, 8)


def test_zero_logits_decode_to_two_stride_box():
    dec = decode_boxes(np.zeros((1, 4, 2, 2)), 16)
    # cell (0,0): center (8,8), distances 16 each way
    assert np.allclose(dec[0, :, 0, 0], [-8.0, -8.0, 24.0, 24.0])


def test_stage_kind_override_changes_modules():
    all_mamba = MddcNet(variant_config(
        "n-toy", stage_kinds=("mamba",) * 4), np.random.default_rng(0))
    all_msddc = MddcNet(variant_config(
        "n-toy", stage_kinds=("msddc",) * 4), np.random.default_rng(0))
    stages_a = {n for n, _ in all_mamba.named_parameters()
                if n.startswith("stage")}
    stages_b = {n for n, _ in all_msddc.named_parameters()
                if n.startswith("stage")}
    assert any("A_log" in n for n in stages_a)
    assert not any("A_log" in n for n in stages_b)   # neck Mamba is separate
    assert any("offset_conv" in n for n in stages_b)


def test_state_dict_roundtrip_bit_exact():
    m1 = MddcNet(variant_config("n-toy"), np.random.default_rng(1))
    m2 = MddcNet(variant_config("n-toy"), np.random.default_rng(2))
    m2.load_state_dict(m1.state_dict())
    x = Tensor(RNG.random((1, 3, 64, 64)))
    p1 = m1(x)
    p2 = m2(x)
    for (a, b, c), (d, e, f) in zip(p1, p2):
        assert np.array_equal(a.data, d.data)
        assert np.array_equal(b.data, e.data)
        assert np.array_equal(c.data, f.data)


def test_load_state_dict_copies_parameters():
    # the loaded model owns its arrays: an optimizer step on it leaves the
    # model it was loaded from unchanged
    m1 = MddcNet(variant_config("n-toy"), np.random.default_rng(1))
    m2 = MddcNet(variant_config("n-toy"), np.random.default_rng(2))
    m2.load_state_dict(m1.state_dict())
    before = {k: v.copy() for k, v in m1.state_dict().items()}
    for p in m2.parameters():
        p.grad = np.ones_like(p.data)
    Sgd(m2.parameters()).step(0.01)
    for k, v in m1.state_dict().items():
        assert np.array_equal(v, before[k]), k
        assert not np.shares_memory(v, m2.state_dict()[k]), k


def test_same_seed_same_init():
    m1 = MddcNet(variant_config("n-toy"), np.random.default_rng(7))
    m2 = MddcNet(variant_config("n-toy"), np.random.default_rng(7))
    for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
        assert n1 == n2 and np.array_equal(p1.data, p2.data)


def test_float32_forward_records_no_float64_node(monkeypatch):
    # every tape node of an f32 n-toy forward is f32, not just the outputs
    dtypes = set()
    node = Tensor._node

    def recording_node(data, parents, backward):
        out = node(data, parents, backward)
        dtypes.add(out.dtype.name)
        return out

    monkeypatch.setattr(Tensor, "_node", staticmethod(recording_node))
    model = MddcNet(variant_config("n-toy"), np.random.default_rng(0)).astype(np.float32)
    model(Tensor(RNG.random((2, 3, 64, 64)).astype(np.float32)))
    assert dtypes == {"float32"}


def test_eval_mode_float32_model_stays_float32():
    # eval-mode batch_norm reads the running statistics, so a buffer left in
    # f64 by the cast would promote every output after it to f64
    model = MddcNet(variant_config("n-toy"), np.random.default_rng(0))
    model.astype(np.float32).eval()
    with no_grad():
        preds = model(Tensor(RNG.random((1, 3, 64, 64)).astype(np.float32)))
    assert {t.dtype.name for level in preds for t in level} == {"float32"}
    assert {v.dtype.name for v in model.state_dict().values()} == {"float32"}


def test_input_sides_must_be_multiples_of_32():
    model = MddcNet(variant_config("n-toy"), np.random.default_rng(0))
    for shape in ((1, 3, 48, 64), (1, 3, 64, 48)):
        with pytest.raises(ValueError, match="multiple of 32"):
            model(Tensor(np.zeros(shape)))
