"""Shared fixtures: synthetic shape scenes used by training-level tests, a
stand-in model output holding a hand-made per-pixel descriptor field, a
PGM/PPM writer, a checkpoint writer and a PNG encoder with chosen row filters for image-file
fixtures, the seeded byte mutator of the reader mutation tests, and a
deliberately broken counting path that the oracle-check battery must catch,
two usable CPUs for the pool paths, and a recorder of the forward's lane
counts."""

import os
import struct
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


def checkerboard_scene(rng, size=64):
    period = int(rng.integers(8, 17))
    phase_r, phase_c = rng.integers(0, period, size=2)
    rows, cols = np.indices((size, size))
    img = (((rows + phase_r) // period + (cols + phase_c) // period) % 2).astype(float)
    lo, hi = sorted(rng.uniform(0.05, 0.95, size=2))
    return lo + (hi - lo) * img


def polygon_scene(rng, size=64):
    img = np.full((size, size), float(rng.uniform(0.3, 0.7)))
    rows, cols = np.indices((size, size))
    for _ in range(int(rng.integers(3, 7))):
        cx, cy = rng.uniform(8, size - 8, size=2)
        radius = rng.uniform(5, 14)
        k = int(rng.integers(3, 7))
        angles = np.sort(rng.uniform(0, 2 * np.pi, size=k))
        verts = np.stack([cx + radius * np.cos(angles), cy + radius * np.sin(angles)],
                         axis=1)
        inside = np.ones((size, size), dtype=bool)
        for i in range(k):
            x0, y0 = verts[i]
            x1, y1 = verts[(i + 1) % k]
            inside &= (x1 - x0) * (rows - y0) - (y1 - y0) * (cols - x0) >= 0
        img[inside] = rng.uniform(0.0, 1.0)
    return img


def blob_scene(rng, size=64):
    img = np.full((size, size), float(rng.uniform(0.2, 0.5)))
    rows, cols = np.indices((size, size))
    for _ in range(int(rng.integers(4, 9))):
        cx, cy = rng.uniform(6, size - 6, size=2)
        sigma = rng.uniform(2.0, 6.0)
        amp = rng.uniform(-0.6, 0.8)
        img += amp * np.exp(-((rows - cy) ** 2 + (cols - cx) ** 2) / (2 * sigma**2))
    return np.clip(img, 0.0, 1.0)


def shape_scenes(seed, count, size=64):
    """Mixed checkerboards, polygons and blobs; deterministic per seed."""
    rng = np.random.default_rng(seed)
    makers = (checkerboard_scene, polygon_scene, blob_scene)
    return [makers[i % 3](rng, size) for i in range(count)]


@dataclass
class FieldOutput:
    """Stand-in for ``model.ModelOutput`` with a hand-made (H, W, d)
    descriptor field, which ``describe`` indexes at the asked pixels."""

    prob_map: np.ndarray
    desc_field: np.ndarray

    def describe(self, rows, cols):
        return self.desc_field[rows, cols]


class ReadRecorder(dict):
    """A dict that records, in ``read``, every key read by indexing."""

    def __init__(self, entries):
        super().__init__(entries)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def write_pnm(path, img):
    """Binary P5 for grayscale input, P6 for RGB, values in [0, 1]."""
    data = np.rint(np.clip(np.asarray(img, dtype=float), 0.0, 1.0) * 255).astype(np.uint8)
    magic = b"P5" if data.ndim == 2 else b"P6"
    height, width = data.shape[:2]
    Path(path).write_bytes(magic + b"\n%d %d\n255\n" % (width, height) + data.tobytes())


def write_zero_checkpoint(path, descriptor_dim):
    """A checkpoint of all-zero parameters shaped for ``descriptor_dim``,
    written even for a value that ``init_params`` refuses."""
    from pointprops import model

    weights = {name: np.zeros(shape)
               for name, shape in model.param_shapes(descriptor_dim).items()}
    model.save_checkpoint(path, model.ModelParams(weights, descriptor_dim))


PNG_CHANNELS = {0: 1, 2: 3, 4: 2, 6: 4}  # PNG colour type -> samples per pixel


def _paeth_predictor(a, b, c):
    """The Paeth predictor as the PNG specification writes it."""
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    return b if pb <= pc else c


def write_filtered_png(path, data, color_type, filters):
    """An 8-bit PNG of uint8 ``data`` (H, W, channels) whose row i is
    filtered with type ``filters[i % len(filters)]``: 0 None, 1 Sub, 2 Up,
    3 Average, 4 Paeth. A type above 4 is written as given, over unfiltered
    bytes. A reference encoder, one byte at a time."""
    height, width, channels = data.shape
    assert PNG_CHANNELS[color_type] == channels
    scan = bytearray()
    prev = [0] * (width * channels)
    for i, row in enumerate(data.reshape(height, width * channels).tolist()):
        kind = filters[i % len(filters)]
        scan.append(kind)
        for k, x in enumerate(row):
            a = row[k - channels] if k >= channels else 0
            c = prev[k - channels] if k >= channels else 0
            b = prev[k]
            preds = (0, a, b, (a + b) // 2, _paeth_predictor(a, b, c))
            scan.append((x - (preds[kind] if kind < 5 else 0)) % 256)
        prev = row

    def chunk(kind, payload):
        crc = zlib.crc32(kind + payload)
        return struct.pack(">I", len(payload)) + kind + payload + struct.pack(">I", crc)

    ihdr = struct.pack(">IIBBBBB", width, height, 8, color_type, 0, 0, 0)
    Path(path).write_bytes(b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
                           + chunk(b"IDAT", zlib.compress(bytes(scan)))
                           + chunk(b"IEND", b""))


def mutate_bytes(data: bytes, rng) -> bytes:
    """One seeded damage to a file's bytes: a flipped byte, a cut or
    duplicated line, or two swapped whitespace-separated tokens."""
    kind = rng.integers(4)
    if kind == 0:
        pos = rng.integers(len(data))
        return data[:pos] + bytes([data[pos] ^ int(rng.integers(1, 256))]) + data[pos + 1 :]
    lines = data.split(b"\n")
    if kind == 1:
        del lines[rng.integers(len(lines))]
        return b"\n".join(lines)
    if kind == 2:
        pos = rng.integers(len(lines))
        return b"\n".join(lines[: pos + 1] + lines[pos:])
    tokens = [(i, j) for i, line in enumerate(lines) for j in range(len(line.split()))]
    (i1, j1), (i2, j2) = (tokens[k] for k in rng.choice(len(tokens), 2, replace=False))
    split = [line.split() for line in lines]
    split[i1][j1], split[i2][j2] = split[i2][j2], split[i1][j1]
    lines[i1], lines[i2] = b" ".join(split[i1]), b" ".join(split[i2])
    return b"\n".join(lines)


@pytest.fixture
def corrupted_counts(monkeypatch):
    """Break ``em.log_count_sample_space``: log_total off by 0.05 and the
    exact total off by one."""
    from pointprops import em

    exact_counts = em.log_count_sample_space

    def corrupted(*args, **kwargs):
        counts = exact_counts(*args, **kwargs)
        total, with_point, without = counts.exact
        return em.SpaceCounts(counts.log_total + 0.05, counts.log_with_point,
                              counts.log_without_point, (total + 1, with_point, without))

    monkeypatch.setattr(em, "log_count_sample_space", corrupted)


@pytest.fixture
def dead_detector(monkeypatch):
    """Make ``model.init_params`` set det1's biases to -1e3: every det1 ReLU
    is dead, the logits are constant, and no scene has a candidate point."""
    from pointprops import model

    init_params = model.init_params

    def dead(*args, **kwargs):
        params = init_params(*args, **kwargs)
        params.weights["det1_b"] = np.full_like(params.weights["det1_b"], -1e3)
        return params

    monkeypatch.setattr(model, "init_params", dead)


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, so the battery and training take the pool path on
    any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def use_cpus(monkeypatch, n):
    """n usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def lane_counts(monkeypatch):
    """The lane count of every ``workers.lanes`` block entered, in order."""
    from pointprops import workers

    counts = []
    lanes = workers.lanes

    def recording(n):
        counts.append(n)
        return lanes(n)

    monkeypatch.setattr(workers, "lanes", recording)
    return counts
