"""Seeded generator of digit-like 28x28 images, written as gzipped IDX.

Each class is a set of pen strokes (polylines) in a unit box. A seed draws
a small population of "writers" per class (control points jittered), and
every image picks one writer and a random affine pose (rotation, shear,
scale, shift) and a stroke thickness. Pixels are shaded by their distance
to the stroke with a one-pixel anti-aliased edge, so intensities look like
the canonical scans: mostly 0, a solid core, grey borders.

Uniform random pixels would misstate everything that depends on the data
(tie rates, how many candidates a bound could prune), which is why the
benchmark draws strokes instead.

Labels are class-interleaved: every consecutive group of ten examples is a
permutation of 0..9, so every contiguous cross-validation fold of a size
divisible by ten holds every class equally often.

The same seed gives byte-identical files: the RNG streams are derived from
the seed alone and gzip is written with a zero timestamp and no file name.
"""

from __future__ import annotations

import gzip
import struct
from pathlib import Path

import numpy as np

SIDE = 28
PIXELS = SIDE * SIDE
BOX = 20.0  # the unit box maps onto the central 20x20 pixels, as in the scans
WRITERS_PER_CLASS = 48
WRITER_JITTER = 0.1  # unit-box std of each control point, per writer
GZIP_LEVEL = 1  # fastest: only the format matters to the reader

# distance field of each writer's strokes, sampled on a GRID x GRID lattice
# that covers [-0.3, 1.3]^2 in unit-box coordinates (0.45 px per cell);
# pixels pulled back outside it are farther than any stroke reaches
GRID = 72
_GRID_LO, _GRID_HI = -0.3, 1.3


def _arc(cx, cy, rx, ry, a0, a1, n=12):
    # angles in degrees, y grows downwards: 270 is the top of the ellipse
    a = np.radians(np.linspace(a0, a1, n))
    return [(cx + rx * np.cos(t), cy + ry * np.sin(t)) for t in a]


# class -> list of polylines in the unit box (x right, y down)
STROKES = {
    0: [_arc(0.5, 0.5, 0.3, 0.46, 0, 360, 18)],
    1: [[(0.36, 0.18), (0.55, 0.0), (0.55, 1.0)]],
    2: [_arc(0.5, 0.3, 0.32, 0.3, 190, 380, 10) + [(0.15, 1.0), (0.88, 1.0)]],
    3: [_arc(0.48, 0.27, 0.3, 0.25, 200, 450, 10)
        + _arc(0.48, 0.74, 0.33, 0.26, 270, 520, 10)],
    4: [[(0.65, 1.0), (0.65, 0.0), (0.12, 0.68), (0.9, 0.68)]],
    5: [[(0.82, 0.0), (0.25, 0.0), (0.2, 0.45)] + _arc(0.5, 0.7, 0.32, 0.3, 230, 500, 10)],
    6: [[(0.72, 0.0), (0.4, 0.2), (0.2, 0.6)] + _arc(0.5, 0.73, 0.3, 0.27, 180, 540, 14)],
    7: [[(0.12, 0.0), (0.88, 0.0), (0.4, 1.0)]],
    8: [_arc(0.5, 0.25, 0.25, 0.25, 90, 450, 14), _arc(0.5, 0.74, 0.32, 0.26, 270, 630, 14)],
    9: [_arc(0.5, 0.3, 0.3, 0.3, 0, 360, 14), [(0.8, 0.3), (0.7, 1.0)]],
}


def _segment_distance(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(w, m) distance from each of `points` (m, 2) to the nearest of the
    segments a[w, i]-b[w, i] of each writer w."""
    ab = (b - a)[:, None]                                   # (w, 1, s, 2)
    ap = points[None, :, None, :] - a[:, None]              # (w, m, s, 2)
    denom = np.maximum((ab * ab).sum(axis=-1), 1e-12)
    t = np.clip((ap * ab).sum(axis=-1) / denom, 0.0, 1.0)   # (w, m, s)
    gap = ap - t[..., None] * ab
    return np.sqrt((gap * gap).sum(axis=-1).min(axis=-1))


def writer_fields(rng: np.random.Generator) -> np.ndarray:
    """(10, WRITERS_PER_CLASS, GRID*GRID) float32 distance fields, unit-box units."""
    axis = np.linspace(_GRID_LO, _GRID_HI, GRID)
    gy, gx = np.meshgrid(axis, axis, indexing="ij")
    lattice = np.stack([gx.ravel(), gy.ravel()], axis=1).astype(np.float32)
    fields = np.empty((10, WRITERS_PER_CLASS, GRID * GRID), dtype=np.float32)
    for label, polylines in STROKES.items():
        seg_a, seg_b = [], []
        for line in polylines:
            pts = np.asarray(line, dtype=np.float32)[None] + rng.normal(
                0.0, WRITER_JITTER, size=(WRITERS_PER_CLASS, len(line), 2)).astype(np.float32)
            seg_a.append(pts[:, :-1])
            seg_b.append(pts[:, 1:])
        fields[label] = _segment_distance(
            lattice, np.concatenate(seg_a, axis=1), np.concatenate(seg_b, axis=1))
    return fields


def interleaved_labels(n: int, rng: np.random.Generator) -> np.ndarray:
    """n labels, each consecutive group of ten a permutation of 0..9."""
    if n % 10:
        raise ValueError(f"label count {n} is not a multiple of 10")
    return rng.permuted(np.tile(np.arange(10, dtype=np.uint8), (n // 10, 1)), axis=1).ravel()


def render(labels: np.ndarray, fields: np.ndarray, rng: np.random.Generator,
           chunk: int = 5000) -> np.ndarray:
    """(n, 784) uint8 images of the given labels, one random pose each."""
    n = len(labels)
    writer = rng.integers(0, WRITERS_PER_CLASS, size=n)
    theta = np.radians(rng.uniform(-12.0, 12.0, size=n))
    shear = rng.uniform(-0.25, 0.25, size=n)
    sx = rng.uniform(0.8, 1.1, size=n)
    sy = rng.uniform(0.8, 1.1, size=n)
    shift = rng.uniform(-2.0, 2.0, size=(n, 2))
    half_width = rng.uniform(0.7, 1.5, size=n)
    peak = rng.uniform(200.0, 255.0, size=n)

    # pose matrix M maps unit-box offsets (times BOX) to pixel offsets;
    # rendering needs its inverse to pull each pixel back into the unit box
    c, s = np.cos(theta), np.sin(theta)
    m = np.empty((n, 2, 2))
    m[:, 0, 0] = c * sx
    m[:, 0, 1] = (c * shear - s) * sy
    m[:, 1, 0] = s * sx
    m[:, 1, 1] = (s * shear + c) * sy
    cell = (GRID - 1) / (_GRID_HI - _GRID_LO)
    a = (np.linalg.inv(m) * (cell / BOX)).astype(np.float32)
    origin = np.float32((0.5 - _GRID_LO) * cell)

    py, px = np.meshgrid(np.arange(SIDE), np.arange(SIDE), indexing="ij")
    px = px.ravel().astype(np.float32) - (SIDE - 1) / 2
    py = py.ravel().astype(np.float32) - (SIDE - 1) / 2
    scale_px = (BOX * np.sqrt(sx * sy)).astype(np.float32)
    out = np.empty((n, PIXELS), dtype=np.uint8)
    for lo in range(0, n, chunk):
        sl = slice(lo, min(lo + chunk, n))
        rx = px[None] - shift[sl, 0, None].astype(np.float32)             # (b, 784)
        ry = py[None] - shift[sl, 1, None].astype(np.float32)
        ix = np.rint(a[sl, 0, 0, None] * rx + a[sl, 0, 1, None] * ry + origin).astype(np.int32)
        iy = np.rint(a[sl, 1, 0, None] * rx + a[sl, 1, 1, None] * ry + origin).astype(np.int32)
        inside = (ix.view(np.uint32) < GRID) & (iy.view(np.uint32) < GRID)
        flat = np.where(inside, iy * GRID + ix, 0)
        dist = fields[labels[sl, None], writer[sl, None], flat] * scale_px[sl, None]
        shade = np.clip(half_width[sl, None] + 0.5 - dist, 0.0, 1.0) * peak[sl, None]
        out[sl] = np.rint(np.where(inside, shade, 0.0)).astype(np.uint8)
    return out


def make_split(seed: int, n_train: int, n_test: int):
    """(train_images, train_labels, test_images, test_labels) for one seed;
    the test pair is None when n_test is 0.

    Train and test share the writer population (as the canonical sets share
    their writers' styles) but draw poses from separate streams.
    """
    fields = writer_fields(np.random.default_rng([seed, 0]))
    out = []
    for stream, n in ((1, n_train), (2, n_test)):
        if n == 0:
            out += [None, None]
            continue
        rng = np.random.default_rng([seed, stream])
        labels = interleaved_labels(n, rng)
        out += [render(labels, fields, rng), labels]
    return tuple(out)


def idx_bytes(array: np.ndarray) -> bytes:
    """Raw IDX encoding of (n, 784) images or (n,) labels."""
    if array.ndim == 2:
        header = struct.pack(">IIII", 0x00000803, array.shape[0], SIDE, SIDE)
    else:
        header = struct.pack(">II", 0x00000801, array.shape[0])
    return header + np.ascontiguousarray(array, dtype=np.uint8).tobytes()


def write_idx_gz(path: Path, array: np.ndarray) -> int:
    """Write gzipped IDX deterministically; returns the compressed size."""
    data = gzip.compress(idx_bytes(array), compresslevel=GZIP_LEVEL, mtime=0)
    path.write_bytes(data)
    return len(data)
