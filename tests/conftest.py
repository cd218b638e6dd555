"""Shared fixtures: synthetic shape scenes used by training-level tests, a
stand-in model output holding a hand-made per-pixel descriptor field, a
PGM/PPM writer for image-file fixtures, the seeded byte mutator of the
reader mutation tests, and a deliberately broken counting path that the
oracle-check battery must catch."""

import sys
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
    """Break ``em.log_count_sample_space``: log_total off by 0.05 and no
    exact big-integer counts."""
    from pointprops import em

    exact_counts = em.log_count_sample_space

    def corrupted(*args, **kwargs):
        counts = exact_counts(*args, **kwargs)
        return em.SpaceCounts(counts.log_total + 0.05, counts.log_with_point,
                              counts.log_without_point, None)

    monkeypatch.setattr(em, "log_count_sample_space", corrupted)
