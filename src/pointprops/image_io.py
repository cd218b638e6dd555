"""Self-contained image I/O: PGM/PPM (ASCII and binary) reading, basic 8-bit
PNG reading and writing, bilinear resizing, and padding to the model's grid.

Images are float arrays in [0, 1]. ``read_png``/``read_pnm`` decode (H, W)
grayscale or (H, W, 3) RGB; ``read_image``, the reader the program uses,
returns (H, W) grayscale, the one layout every later stage takes.
"""

from __future__ import annotations

import re
import struct
import zlib
from functools import lru_cache
from itertools import islice

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


_PNM_TOKEN = re.compile(rb"#[^\n]*|\S+")


def _pnm_tokens(data: bytes):
    """(token, end offset) of each whitespace-separated token; a token that
    starts with ``#`` is a comment running to the end of its line."""
    for match in _PNM_TOKEN.finditer(data):
        if not match[0].startswith(b"#"):
            yield match[0], match.end()


def read_pnm(path) -> np.ndarray:
    """Read a P2/P3 (ASCII) or P5/P6 (binary, 8-bit) file.

    Raises ValueError naming the file for a header cut short, a non-integer
    header field or sample, an empty size, a maxval outside 1..255, a sample
    outside 0..maxval and short pixel data.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = _pnm_tokens(data)
    header = list(islice(tokens, 4))
    if len(header) < 4:
        raise ValueError(f"{path}: truncated PNM header")
    magic = header[0][0].decode("latin-1")
    if magic not in ("P2", "P3", "P5", "P6"):
        raise ValueError(f"{path}: unsupported PNM magic {magic!r}")
    try:
        width, height, maxval = (int(tok) for tok, _ in header[1:])
    except ValueError:
        raise ValueError(f"{path}: non-integer PNM header field") from None
    if width < 1 or height < 1:
        raise ValueError(f"{path}: PNM size {width}x{height} is empty")
    if not 1 <= maxval <= 255:
        raise ValueError(f"{path}: PNM maxval {maxval} outside 1..255")
    channels = 3 if magic in ("P3", "P6") else 1
    count = width * height * channels
    if magic in ("P2", "P3"):
        try:
            arr = np.array([int(tok) for tok, _ in islice(tokens, count)], dtype=float)
        except ValueError:
            raise ValueError(f"{path}: non-integer PNM sample") from None
    else:
        start = header[3][1] + 1  # one whitespace byte ends the header
        raw = data[start : start + count]
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


def read_png(path) -> np.ndarray:
    """Read an 8-bit non-interlaced PNG, dropping any alpha channel.

    Raises ValueError naming the file for a truncated chunk, a missing IHDR,
    an unsupported depth, interlace or colour type, an empty size, corrupt or
    short image data and an unknown row filter.
    """
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
    if width < 1 or height < 1:
        raise ValueError(f"{path}: PNG size {width}x{height} is empty")
    try:
        raw = zlib.decompress(idat)
    except zlib.error as exc:
        raise ValueError(f"{path}: corrupt PNG image data ({exc})") from None
    stride = width * channels
    if len(raw) < height * (1 + stride):
        raise ValueError(f"{path}: PNG image data is truncated")
    lines = np.frombuffer(raw, np.uint8, height * (1 + stride)).reshape(height, 1 + stride)
    # row 0 and the first `channels` columns are the zero neighbours that the
    # filters read above and left of the image
    recon = np.zeros((height + 1, channels + stride), dtype=np.uint8)
    for row, (filter_type, line) in enumerate(zip(lines[:, 0].tolist(), lines[:, 1:]), 1):
        cur, up = recon[row, channels:], recon[row - 1, channels:]
        if filter_type == 0:  # None
            cur[:] = line
        elif filter_type == 1:  # Sub: a running sum per channel, mod 256
            sums = np.cumsum(line.reshape(width, channels), axis=0, dtype=np.uint8)
            cur[:] = sums.ravel()
        elif filter_type == 2:  # Up
            np.add(line, up, out=cur)
        elif filter_type in (3, 4):  # Average, Paeth: each byte needs the one before
            out, above = recon[row].tolist(), recon[row - 1].tolist()
            for col, x in enumerate(line.tolist()):
                a, b, c = out[col], above[col + channels], above[col]
                if filter_type == 3:
                    pred = (a + b) >> 1
                else:
                    pa, pb, pc = abs(b - c), abs(a - c), abs(a + b - 2 * c)
                    pred = a if pa <= pb and pa <= pc else b if pb <= pc else c
                out[col + channels] = (x + pred) & 0xFF
            recon[row] = out
        else:
            raise ValueError(f"{path}: unknown PNG filter {filter_type}")
    img = recon[1:, channels:].reshape(height, width, channels).astype(float) / 255.0
    # drop alpha: gray (+ alpha) decodes to (H, W), RGB (+ alpha) to (H, W, 3)
    return img[:, :, 0] if channels <= 2 else img[:, :, :3]
