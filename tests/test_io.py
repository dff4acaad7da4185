"""Binary tensor/checkpoint containers and PPM image round-trips."""

import struct
import zlib

import numpy as np
import pytest

from mddcnet.io import (CheckpointError, load_checkpoint, read_ppm,
                        save_checkpoint, tensor_bytes, tensor_from_bytes,
                        write_ppm)

RNG = np.random.default_rng(10)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_tensor_roundtrip(dtype):
    arr = RNG.standard_normal((3, 4, 5)).astype(dtype)
    blob = tensor_bytes(arr)
    back, end = tensor_from_bytes(blob)
    assert back.dtype == arr.dtype and np.array_equal(back, arr)
    assert end == len(blob)


def test_tensor_roundtrip_scalar_and_empty():
    for arr in (np.asarray(3.5), np.zeros((0, 4))):
        blob = tensor_bytes(arr)
        back, end = tensor_from_bytes(blob)
        assert back.shape == arr.shape and np.array_equal(back, arr)
        assert end == len(blob)


def test_tensor_rejects_unsupported_dtype():
    with pytest.raises(ValueError):
        tensor_bytes(np.zeros(3, dtype=np.int32))


def test_tensor_bad_magic():
    with pytest.raises(CheckpointError):
        tensor_from_bytes(b"NOTMAGIC" + b"\x00" * 16)


def test_tensor_unknown_dtype_tag():
    blob = bytearray(tensor_bytes(np.zeros(2)))
    blob[8 + 4 + 4] = 7          # magic | rank | extent | tag
    with pytest.raises(CheckpointError):
        tensor_from_bytes(bytes(blob))


def test_checkpoint_roundtrip(tmp_path):
    state = {"a.weight": RNG.standard_normal((2, 3)),
             "b.bias": RNG.standard_normal(4).astype(np.float32),
             "scalar": np.asarray(1.25)}
    path = tmp_path / "ck.bin"
    save_checkpoint(path, state)
    back = load_checkpoint(path)
    assert set(back) == set(state)
    for k in state:
        assert back[k].dtype == state[k].dtype
        assert np.array_equal(back[k], state[k])


def test_checkpoint_detects_corruption(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, {"w": np.ones(8)})
    raw = bytearray(path.read_bytes())
    raw[20] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="CRC32"):
        load_checkpoint(path)


def test_checkpoint_detects_truncation(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, {"w": np.ones(8)})
    path.write_bytes(path.read_bytes()[:5])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_preserves_order(tmp_path):
    state = {f"p{i}": np.full(1, float(i)) for i in range(10)}
    save_checkpoint(tmp_path / "ck.bin", state)
    back = load_checkpoint(tmp_path / "ck.bin")
    assert list(back) == list(state)


def test_ppm_roundtrip(tmp_path):
    img = RNG.random((3, 6, 9))
    path = tmp_path / "img.ppm"
    write_ppm(path, img)
    back = read_ppm(path)
    assert back.shape == img.shape
    # quantized to 8 bits: within half a step
    assert np.max(np.abs(back - img)) <= 0.5 / 255.0 + 1e-12


def test_ppm_reads_comments_and_whitespace(tmp_path):
    pix = bytes(range(12))                      # 2x2 RGB
    path = tmp_path / "c.ppm"
    path.write_bytes(b"P6\n# a comment\n2 2\n# another\n255\n" + pix)
    img = read_ppm(path)
    assert img.shape == (3, 2, 2)
    assert img[0, 0, 0] == 0.0 and abs(img[2, 1, 1] - 11 / 255.0) < 1e-12


def test_ppm_rejects_bad_inputs(tmp_path):
    p = tmp_path / "bad.ppm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes(12))
    with pytest.raises(IOError):
        read_ppm(p)
    p.write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
    with pytest.raises(IOError):
        read_ppm(p)
    p.write_bytes(b"P6\n4 4\n255\n" + bytes(3))
    with pytest.raises(IOError):
        read_ppm(p)
    with pytest.raises(ValueError):
        write_ppm(p, np.zeros((1, 4, 4)))


def test_ppm_values_clip(tmp_path):
    img = np.stack([np.full((2, 2), -0.5), np.full((2, 2), 1.5),
                    np.full((2, 2), 0.5)])
    path = tmp_path / "clip.ppm"
    write_ppm(path, img)
    back = read_ppm(path)
    assert np.all(back[0] == 0.0) and np.all(back[1] == 1.0)
