"""Self-contained image I/O: PGM/PPM (ASCII and binary) reading, basic 8-bit
PNG reading and writing, bilinear resizing, and padding to the model's grid.

Images are float arrays in [0, 1]. ``read_png``/``read_pnm`` decode (H, W)
grayscale or (H, W, 3) RGB; ``read_image``, the reader the program uses,
returns (H, W) grayscale, the one layout every later stage takes.
"""

from __future__ import annotations

import struct
import zlib
from functools import lru_cache

import numpy as np

PNG_MAGIC = b"\x89PNG\r\n\x1a\n"


def read_image(path) -> np.ndarray:
    """Read a PNG or PGM/PPM file as an (H, W) grayscale image in [0, 1].

    Colour is mixed to gray with the ITU-R 601 luma weights.
    """
    with open(path, "rb") as fh:
        head = fh.read(8)
    if head.startswith(PNG_MAGIC):
        img = read_png(path)
    elif head[:2] in (b"P2", b"P3", b"P5", b"P6"):
        img = read_pnm(path)
    else:
        raise ValueError(f"{path}: unsupported image format")
    if img.ndim == 2:
        return img
    return img[:, :, 0] * 0.299 + img[:, :, 1] * 0.587 + img[:, :, 2] * 0.114


@lru_cache(maxsize=64)  # bounded: training images may come in many sizes
def resample_taps(n_in: int, n_out: int):
    """The two taps of 1-D bilinear interpolation, read-only (n_out,) arrays
    (i0, i1, t): output sample i is (1 - t[i]) * x[i0[i]] + t[i] * x[i1[i]].

    Output sample i reads the source at (i + 0.5) * n_in / n_out - 0.5,
    clamped to the valid range, so i1 = i0 and t = 0 at a clamped end.
    """
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(int)
    i1 = np.minimum(i0 + 1, n_in - 1)
    t = src - i0
    for arr in (i0, i1, t):
        arr.flags.writeable = False
    return i0, i1, t


@lru_cache(maxsize=64)
def resample_matrix(n_in: int, n_out: int) -> np.ndarray:
    """Dense 1-D bilinear interpolation operator (n_out, n_in), read-only:
    ``resample_taps`` as a matrix. The model's x4 detection upsample uses it
    and its transpose for the backward pass."""
    i0, i1, t = resample_taps(n_in, n_out)
    mat = np.zeros((n_out, n_in))
    rows = np.arange(n_out)
    np.add.at(mat, (rows, i0), 1.0 - t)
    np.add.at(mat, (rows, i1), t)
    mat.flags.writeable = False
    return mat


def resize_bilinear(img: np.ndarray, size) -> np.ndarray:
    """Resize an (H, W) image to (height, width) with separable bilinear
    interpolation."""
    img = np.asarray(img, dtype=float)
    height, width = size
    mh = resample_matrix(img.shape[0], height)
    mw = resample_matrix(img.shape[1], width)
    return np.einsum("ih,hw,jw->ij", mh, img, mw, optimize=True)


def pad_to_multiple_of_4(image: np.ndarray):
    """Edge-pad bottom/right so both dimensions divide by 4.

    Returns (padded, original_shape) so callers can crop outputs back.
    """
    height, width = image.shape[:2]
    pad_h = (-height) % 4
    pad_w = (-width) % 4
    if pad_h == 0 and pad_w == 0:
        return image, (height, width)
    pad = ((0, pad_h), (0, pad_w)) + ((0, 0),) * (image.ndim - 2)
    return np.pad(image, pad, mode="edge"), (height, width)


# ---------------------------------------------------------------------------
# PNM (PGM / PPM)
# ---------------------------------------------------------------------------


def _pnm_tokens(data: bytes):
    pos = 0
    while pos < len(data):
        if data[pos : pos + 1].isspace():
            pos += 1
            continue
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        end = pos
        while end < len(data) and not data[end : end + 1].isspace():
            end += 1
        yield data[pos:end], end
        pos = end


def read_pnm(path) -> np.ndarray:
    """Read a P2/P3 (ASCII) or P5/P6 (binary, 8-bit) file.

    Raises ValueError naming the file for a header cut short, a non-integer
    header field or sample, an empty size, a maxval outside 1..255, a sample
    outside 0..maxval and short pixel data.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = _pnm_tokens(data)
    header = []
    for tok, end in tokens:
        header.append(tok)
        if len(header) == 4:
            break
    if len(header) < 4:
        raise ValueError(f"{path}: truncated PNM header")
    magic = header[0].decode("latin-1")
    if magic not in ("P2", "P3", "P5", "P6"):
        raise ValueError(f"{path}: unsupported PNM magic {magic!r}")
    try:
        width, height, maxval = (int(tok) for tok in header[1:])
    except ValueError:
        raise ValueError(f"{path}: non-integer PNM header field") from None
    if width < 1 or height < 1:
        raise ValueError(f"{path}: PNM size {width}x{height} is empty")
    if not 1 <= maxval <= 255:
        raise ValueError(f"{path}: PNM maxval {maxval} outside 1..255")
    channels = 3 if magic in ("P3", "P6") else 1
    count = width * height * channels
    if magic in ("P2", "P3"):
        values = []
        for tok, _ in tokens:
            try:
                values.append(int(tok))
            except ValueError:
                raise ValueError(f"{path}: non-integer PNM sample") from None
            if len(values) == count:
                break
        arr = np.array(values, dtype=float)
    else:
        raw = data[end + 1 : end + 1 + count]
        if len(raw) < count:
            raise ValueError(f"{path}: truncated pixel data")
        arr = np.frombuffer(raw, dtype=np.uint8).astype(float)
    if arr.size != count:
        raise ValueError(f"{path}: expected {count} samples, got {arr.size}")
    if arr.min() < 0 or arr.max() > maxval:
        raise ValueError(f"{path}: PNM sample outside 0..{maxval}")
    arr = (arr / maxval).reshape(height, width, channels)
    return arr[:, :, 0] if channels == 1 else arr


# ---------------------------------------------------------------------------
# PNG (8-bit gray / gray+alpha / RGB / RGBA, no interlace)
# ---------------------------------------------------------------------------


def _chunk(kind: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + kind
        + payload
        + struct.pack(">I", zlib.crc32(kind + payload))
    )


def write_png(path, img: np.ndarray) -> None:
    img = np.asarray(img, dtype=float)
    data = np.rint(np.clip(img, 0.0, 1.0) * 255).astype(np.uint8)
    if data.ndim == 2:
        color_type, channels = 0, 1
        data = data[:, :, None]
    else:
        color_type, channels = 2, 3
        data = data[:, :, :3]
    height, width = data.shape[:2]
    ihdr = struct.pack(">IIBBBBB", width, height, 8, color_type, 0, 0, 0)
    scanlines = b"".join(
        b"\x00" + data[row].reshape(width * channels).tobytes() for row in range(height)
    )
    with open(path, "wb") as fh:
        fh.write(PNG_MAGIC)
        fh.write(_chunk(b"IHDR", ihdr))
        fh.write(_chunk(b"IDAT", zlib.compress(scanlines, 6)))
        fh.write(_chunk(b"IEND", b""))


def _paeth(a, b, c):
    p = a.astype(int) + b.astype(int) - c.astype(int)
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    out = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
    return out.astype(np.uint8)


def read_png(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(PNG_MAGIC):
        raise ValueError(f"{path}: not a PNG file")
    pos = len(PNG_MAGIC)
    ihdr = None
    idat = b""
    try:
        while pos < len(blob):
            length = struct.unpack(">I", blob[pos : pos + 4])[0]
            kind = blob[pos + 4 : pos + 8]
            payload = blob[pos + 8 : pos + 8 + length]
            pos += 12 + length
            if kind == b"IHDR":
                ihdr = struct.unpack(">IIBBBBB", payload)
            elif kind == b"IDAT":
                idat += payload
            elif kind == b"IEND":
                break
    except struct.error:
        raise ValueError(f"{path}: truncated or malformed PNG chunk") from None
    if ihdr is None:
        raise ValueError(f"{path}: missing IHDR")
    width, height, depth, color_type, _, _, interlace = ihdr
    if depth != 8 or interlace != 0:
        raise ValueError(f"{path}: only 8-bit non-interlaced PNG is supported")
    channels = {0: 1, 2: 3, 4: 2, 6: 4}.get(color_type)
    if channels is None:
        raise ValueError(f"{path}: unsupported PNG color type {color_type}")
    try:
        raw = zlib.decompress(idat)
    except zlib.error as exc:
        raise ValueError(f"{path}: corrupt PNG image data ({exc})") from None
    stride = width * channels
    if len(raw) < height * (1 + stride):
        raise ValueError(f"{path}: PNG image data is truncated")
    out = np.zeros((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    pos = 0
    for row in range(height):
        filter_type = raw[pos]
        line = np.frombuffer(raw[pos + 1 : pos + 1 + stride], dtype=np.uint8).copy()
        pos += 1 + stride
        if filter_type == 0:
            recon = line
        elif filter_type == 1:
            recon = line
            for col in range(channels, stride):
                recon[col] = (int(recon[col]) + int(recon[col - channels])) & 0xFF
        elif filter_type == 2:
            recon = (line.astype(int) + prev).astype(np.uint8)
        elif filter_type == 3:
            recon = line
            for col in range(stride):
                left = int(recon[col - channels]) if col >= channels else 0
                recon[col] = (int(recon[col]) + (left + int(prev[col])) // 2) & 0xFF
        elif filter_type == 4:
            recon = line
            for col in range(stride):
                left = recon[col - channels] if col >= channels else np.uint8(0)
                upleft = prev[col - channels] if col >= channels else np.uint8(0)
                recon[col] = (int(recon[col]) + int(_paeth(
                    np.array(left), np.array(prev[col]), np.array(upleft)
                ))) & 0xFF
        else:
            raise ValueError(f"{path}: unknown PNG filter {filter_type}")
        out[row] = recon
        prev = out[row]
    img = out.reshape(height, width, channels).astype(float) / 255.0
    if channels == 1:
        return img[:, :, 0]
    if channels == 2:  # gray + alpha: drop alpha
        return img[:, :, 0]
    if channels == 4:  # RGBA: drop alpha
        return img[:, :, :3]
    return img
