"""Binary tensor/checkpoint containers and PPM image round-trips."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mddcnet.cli import main
from mddcnet.data import generate_scene
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


def _with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def _record(name: bytes, blob: bytes) -> bytes:
    return struct.pack("<I", len(name)) + name + struct.pack("<I", len(blob)) + blob


def _long_extent_blob() -> bytes:
    blob = bytearray(tensor_bytes(np.ones(2)))
    blob[12:16] = struct.pack("<I", 1000)      # magic | rank | extent
    return bytes(blob)


# bodies whose CRC is valid but whose content is not a checkpoint
MALFORMED_BODIES = {
    "name not utf-8": struct.pack("<I", 1) + _record(b"\xff\xfe", tensor_bytes(np.ones(2))),
    "extent past buffer": struct.pack("<I", 1) + _record(b"w", _long_extent_blob()),
    "count past records": struct.pack("<I", 3) + _record(b"w", tensor_bytes(np.ones(2))),
}


@pytest.mark.parametrize("case", MALFORMED_BODIES)
def test_checkpoint_malformed_body_is_checkpoint_error(tmp_path, case):
    path = tmp_path / "ck.bin"
    path.write_bytes(_with_crc(MALFORMED_BODIES[case]))
    with pytest.raises(CheckpointError, match=f"checkpoint {path}: malformed record"):
        load_checkpoint(path)


@pytest.mark.parametrize("case", MALFORMED_BODIES)
def test_infer_malformed_checkpoint_exits_3(capsys, tmp_path, case):
    img, ckpt = tmp_path / "img.ppm", tmp_path / "ck.bin"
    write_ppm(img, generate_scene(1).image)
    ckpt.write_bytes(_with_crc(MALFORMED_BODIES[case]))
    code = main(["infer", str(img), "--checkpoint", str(ckpt), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3 and f"i/o error: checkpoint {ckpt}: malformed record" in err
    assert "Traceback" not in err


VALID_BODY = b"".join([struct.pack("<I", 2),
                       _record(b"w", tensor_bytes(np.ones((2, 3)))),
                       _record(b"b", tensor_bytes(np.zeros(2, dtype=np.float32)))])


@st.composite
def _crc_valid_files(draw):
    """Random bytes, or a valid body with a few bytes overwritten and its end
    cut off; either way with a correct CRC."""
    if draw(st.booleans()):
        return _with_crc(draw(st.binary(max_size=64)))
    body = bytearray(VALID_BODY)
    for _ in range(draw(st.integers(0, 3))):
        body[draw(st.integers(0, len(body) - 1))] = draw(st.integers(0, 255))
    return _with_crc(bytes(body[:draw(st.integers(0, len(body)))]))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(raw=_crc_valid_files())
def test_checkpoint_with_valid_crc_loads_or_raises_checkpoint_error(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "fuzz.bin"
    path.write_bytes(raw)
    try:
        state = load_checkpoint(path)
    except CheckpointError:
        return
    assert all(isinstance(v, np.ndarray) for v in state.values())


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


@pytest.mark.parametrize("header", [
    b"P6\nabc 4\n255\n",      # non-numeric width
    b"P6\n4 -4\n255\n",       # signed height
    b"P6\n4",                 # height and maxval missing
    b"P6\n4 4\n",             # maxval missing
    b"P6\n0 4\n255\n",        # zero width
    b"P6\n4 0\n255\n",        # zero height
])
def test_ppm_malformed_header_is_io_error(tmp_path, header):
    p = tmp_path / "bad.ppm"
    p.write_bytes(header)
    with pytest.raises(IOError):
        read_ppm(p)


def test_ppm_values_clip(tmp_path):
    img = np.stack([np.full((2, 2), -0.5), np.full((2, 2), 1.5),
                    np.full((2, 2), 0.5)])
    path = tmp_path / "clip.ppm"
    write_ppm(path, img)
    back = read_ppm(path)
    assert np.all(back[0] == 0.0) and np.all(back[1] == 1.0)
