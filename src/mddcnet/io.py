"""Binary containers: tensor records, checkpoints, and PPM images.

Tensor record layout (little-endian):
    8-byte magic "MDDCTNSR" | u32 rank | rank x u32 extents |
    u8 dtype tag (0 = f32, 1 = f64) | payload

Checkpoint layout: u32 record count, then length-prefixed (name, tensor)
records, then a trailing CRC32 of all preceding bytes.
"""

from __future__ import annotations

import math
import struct
import zlib
from pathlib import Path

import numpy as np

__all__ = [
    "tensor_bytes", "tensor_from_bytes",
    "save_checkpoint", "load_checkpoint", "CheckpointError",
    "read_ppm", "write_ppm",
]

MAGIC = b"MDDCTNSR"
_DTYPE_TAGS = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_TAG_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class CheckpointError(IOError):
    pass


def tensor_bytes(arr: np.ndarray) -> bytes:
    # ascontiguousarray promotes 0-d to 1-d; keep the original shape
    arr = np.ascontiguousarray(arr).reshape(np.shape(arr))
    tag = _DTYPE_TAGS.get(arr.dtype)
    if tag is None:
        raise ValueError(f"unsupported dtype {arr.dtype}")
    head = MAGIC + struct.pack("<I", arr.ndim)
    head += struct.pack(f"<{arr.ndim}I", *arr.shape)
    head += struct.pack("<B", tag)
    return head + arr.astype(arr.dtype.newbyteorder("<")).tobytes()


def tensor_from_bytes(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Parse one tensor record; returns (array, next offset). A record that
    is cut short or malformed raises CheckpointError."""
    if buf[offset:offset + 8] != MAGIC:
        raise CheckpointError("bad tensor magic")
    offset += 8
    try:
        (rank,) = struct.unpack_from("<I", buf, offset)
        offset += 4
        shape = struct.unpack_from(f"<{rank}I", buf, offset)
        offset += 4 * rank
        (tag,) = struct.unpack_from("<B", buf, offset)
    except struct.error as exc:
        raise CheckpointError(f"tensor header cut short: {exc}") from exc
    offset += 1
    dtype = _TAG_DTYPES.get(tag)
    if dtype is None:
        raise CheckpointError(f"unknown dtype tag {tag}")
    count = math.prod(shape)
    nbytes = count * dtype.itemsize
    if offset + nbytes > len(buf):
        raise CheckpointError(f"tensor of shape {shape} runs past the end of its buffer")
    try:
        arr = np.frombuffer(buf, dtype=dtype, count=count, offset=offset).reshape(shape)
    except ValueError as exc:
        raise CheckpointError(f"tensor of shape {shape}: {exc}") from exc
    return arr.astype(dtype.newbyteorder("=")), offset + nbytes


def save_checkpoint(path, state: dict[str, np.ndarray]):
    parts = [struct.pack("<I", len(state))]
    for name, arr in state.items():
        nb = name.encode("utf-8")
        parts.append(struct.pack("<I", len(nb)))
        parts.append(nb)
        blob = tensor_bytes(arr)
        parts.append(struct.pack("<I", len(blob)))
        parts.append(blob)
    body = b"".join(parts)
    Path(path).write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    buf = Path(path).read_bytes()
    if len(buf) < 8:
        raise CheckpointError(f"checkpoint {path} truncated")
    body, (crc,) = buf[:-4], struct.unpack("<I", buf[-4:])
    if zlib.crc32(body) != crc:
        raise CheckpointError(f"checkpoint {path}: CRC32 mismatch")
    (count,) = struct.unpack_from("<I", body, 0)
    offset = 4
    state: dict[str, np.ndarray] = {}
    try:
        for index in range(count):
            where = f"record {index}"
            (nlen,) = struct.unpack_from("<I", body, offset)
            offset += 4
            name = body[offset:offset + nlen].decode("utf-8")
            where = f"record {index} ({name})"
            offset += nlen
            (blen,) = struct.unpack_from("<I", body, offset)
            offset += 4
            arr, end = tensor_from_bytes(body, offset)
            if end != offset + blen:
                raise CheckpointError("record size mismatch")
            state[name] = arr
            offset += blen
    except (struct.error, UnicodeDecodeError, CheckpointError) as exc:
        raise CheckpointError(f"checkpoint {path}: malformed {where}: {exc}") from exc
    return state


# -- PPM (P6, binary, 8-bit) ---------------------------------------------------

def read_ppm(path) -> np.ndarray:
    """Read a binary P6 PPM into an [3,H,W] float array in [0,1]."""
    buf = Path(path).read_bytes()
    if not buf.startswith(b"P6"):
        raise IOError(f"{path}: not a P6 PPM")
    fields: list[int] = []
    i = 2
    while len(fields) < 3:
        while i < len(buf) and buf[i:i + 1].isspace():
            i += 1
        if buf[i:i + 1] == b"#":
            while i < len(buf) and buf[i] != 0x0A:
                i += 1
            continue
        j = i
        while j < len(buf) and not buf[j:j + 1].isspace():
            j += 1
        if not buf[i:j].isdigit():
            raise IOError(f"{path}: header field {len(fields) + 1} of 3 is "
                          f"{buf[i:j]!r}, not a decimal number")
        fields.append(int(buf[i:j]))
        i = j
    i += 1  # single whitespace after maxval
    w, h, maxval = fields
    if w == 0 or h == 0:
        raise IOError(f"{path}: zero image extent {w}x{h}")
    if maxval != 255:
        raise IOError(f"{path}: unsupported maxval {maxval}")
    if len(buf) - i < w * h * 3:
        raise IOError(f"{path}: truncated pixel data")
    raw = np.frombuffer(buf, dtype=np.uint8, count=w * h * 3, offset=i)
    return raw.reshape(h, w, 3).transpose(2, 0, 1).astype(np.float64) / 255.0


def write_ppm(path, img: np.ndarray):
    """Write an [3,H,W] array with values in [0,1] as binary P6."""
    c, h, w = img.shape
    if c != 3:
        raise ValueError("write_ppm expects [3,H,W]")
    pix = np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)
    header = f"P6\n{w} {h}\n255\n".encode()
    Path(path).write_bytes(header + pix.transpose(1, 2, 0).tobytes())
