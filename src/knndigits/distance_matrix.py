"""Dense test-by-train distance matrix construction, streaming and caching.

Row i of a matrix holds the distances from test image i to every training
image, so a full run at canonical scale is a 10,000 x 60,000 table of
uint32 squared distances (~2.4 GB). Three ways to consume it:

  * build_matrix        -- one contiguous array, simplest
  * iter_matrix_blocks  -- ordered blocks of rows, bounded memory
  * build_matrix_cached -- persistent cache file, reload is bit-identical

One kernel serves both metrics. Let W_s(x) be the crop at window index s
of the zero-padded train image x, and S_s(t) the crop of the zero-padded
test image t at the mirrored index NUM_WINDOWS - 1 - s. Then

    t.W_s(x) = S_s(t).x,  so  |W_s(x) - t|^2 = |W_s(x)|^2 - 2 S_s(t).x + |t|^2.

Each block of test rows becomes one float64 GEMM of the rows
[-2 S_s(t) | e_s], with e_s the s-th of S unit vectors, against the single
train matrix [x | |W_0 x|^2 ... |W_(S-1) x|^2]; the minimum is taken over
s and |t|^2 is added once after it. The plain metric is the case with
only the center window; the sliding metric uses all nine.

Every GEMM term and partial sum is an integer of magnitude at most
2 * 784 * 255^2 + 784 * 255^2 < 2^53, so each float64 operation is exact
regardless of summation order, FMA, or thread scheduling; results are
therefore bit-identical for any BLAS thread count and equal to a naive
integer loop.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset_ops import (
    CENTER_WINDOW, NUM_WINDOWS, extract_windows, extract_windows_batch, pad_image,
    pad_images,
)
from .errors import BadMagic, MetricMismatch, TruncatedFile
from .idx_io import IMAGE_PIXELS, Dataset
from .metrics import MetricId

CACHE_MAGIC = b"KNNDMAT1"
_CACHE_HEADER = struct.Struct("<8sBII")  # magic, metric_id, n_test, n_train

# float64 cells per GEMM operand of one block: ~64 MB, ~32 MB of uint32 output
_BLOCK_CELLS = 8_000_000
# rows per int64 or float64 slab when summing squares, ~100 MB at 784 pixels
_SQUARES_ROWS = 16384

# cells evaluated by kernels since import; cache hits must not move this
_kernel_evals = 0


def kernel_eval_count() -> int:
    return _kernel_evals


@dataclass(frozen=True)
class DistanceMatrix:
    """Immutable result matrix; values[i, j] = d(test i, train j)."""

    metric: MetricId
    values: np.ndarray  # (n_test, n_train) uint32, row-major

    @property
    def n_test(self) -> int:
        return self.values.shape[0]

    @property
    def n_train(self) -> int:
        return self.values.shape[1]


def _sum_of_squares(images: np.ndarray) -> np.ndarray:
    """Row-wise sum of squared pixel values, in bounded memory."""
    out = np.empty(images.shape[0], dtype=np.float64)
    for lo in range(0, images.shape[0], _SQUARES_ROWS):
        chunk = images[lo:lo + _SQUARES_ROWS].astype(np.int64)
        out[lo:lo + _SQUARES_ROWS] = (chunk * chunk).sum(axis=1)
    return out


class _ShiftKernel:
    """Minimum squared distance over the given window indices.

    Holds the train matrix [x | |W_s x|^2 for s in windows] in float64;
    each call turns a test block into [-2 S_s(t) | e_s] rows (module
    docstring) and reduces one GEMM over the windows.
    """

    def __init__(self, train_images: np.ndarray, windows):
        self.num_windows = len(windows)
        self.mirrored = [NUM_WINDOWS - 1 - s for s in windows]
        # |W_s x|^2 = S_s(1).x^2: the same identity on an all-ones test image
        masks = extract_windows(pad_image(np.ones(IMAGE_PIXELS, np.uint8)))
        masks = masks[self.mirrored].astype(np.float64)
        self.train = np.empty((train_images.shape[0], IMAGE_PIXELS + self.num_windows))
        self.train[:, :IMAGE_PIXELS] = train_images
        for lo in range(0, train_images.shape[0], _SQUARES_ROWS):
            x = self.train[lo:lo + _SQUARES_ROWS, :IMAGE_PIXELS]
            self.train[lo:lo + _SQUARES_ROWS, IMAGE_PIXELS:] = (x * x) @ masks.T

    def __call__(self, test_block: np.ndarray) -> np.ndarray:
        b, s = test_block.shape[0], self.num_windows
        crops = extract_windows_batch(pad_images(test_block))[:, self.mirrored]
        lhs = np.empty((b, s, self.train.shape[1]))
        np.multiply(crops, -2.0, out=lhs[:, :, :IMAGE_PIXELS])
        lhs[:, :, IMAGE_PIXELS:] = np.eye(s)
        d = lhs.reshape(b * s, -1) @ self.train.T
        if s > 1:  # over one window the minimum is the identity; skip its copy
            d = d.reshape(b, s, -1).min(axis=1)
        d += _sum_of_squares(test_block)[:, None]
        return d.astype(np.uint32)


def _make_kernel(train: Dataset, metric: MetricId) -> _ShiftKernel:
    windows = range(NUM_WINDOWS) if metric is MetricId.SLIDING_L2 else [CENTER_WINDOW]
    return _ShiftKernel(train.images, windows)


def iter_matrix_blocks(train: Dataset, test: Dataset, metric: MetricId,
                       block_rows=None, progress=None):
    """Yield (row_start, block_values) in ascending row order.

    By default a block holds as many rows as keep its GEMM operands under
    _BLOCK_CELLS, so memory stays flat however many test rows stream
    through. The optional `progress` callback gets (rows_done, rows_total)
    after each block; passing None costs nothing.
    """
    global _kernel_evals
    kernel = _make_kernel(train, metric)
    total = len(test)
    if block_rows is None:
        row_cells = kernel.num_windows * max(len(train), kernel.train.shape[1])
        block_rows = max(1, _BLOCK_CELLS // row_cells)
    for lo in range(0, total, block_rows):
        block = kernel(test.images[lo:lo + block_rows])
        _kernel_evals += block.size
        if progress is not None:
            progress(lo + block.shape[0], total)
        yield lo, block


def build_matrix(train: Dataset, test: Dataset, metric: MetricId,
                 progress=None) -> DistanceMatrix:
    """Compute the full matrix in one contiguous uint32 allocation."""
    values = np.empty((len(test), len(train)), dtype=np.uint32)
    for lo, block in iter_matrix_blocks(train, test, metric, progress=progress):
        values[lo:lo + block.shape[0]] = block
    values.flags.writeable = False
    return DistanceMatrix(metric, values)


def save_cache(matrix: DistanceMatrix, path) -> None:
    """Persist a matrix; two saves of the same matrix are byte-identical.

    Layout (little-endian, in contrast to the big-endian IDX inputs):
    8-byte magic "KNNDMAT1", u8 metric id, u32 n_test, u32 n_train, then
    n_test * n_train u32 squared distances, row-major.

    The bytes go to a fresh temporary file next to `path`, which is synced
    and then renamed over it, so a crash at any point leaves `path` either
    absent, as it was, or complete.
    """
    path = Path(path)
    header = _CACHE_HEADER.pack(
        CACHE_MAGIC, int(matrix.metric), matrix.n_test, matrix.n_train
    )
    payload = np.ascontiguousarray(matrix.values, dtype="<u4")
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as f:
            f.write(header)
            f.write(payload)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_cache(path, expect_metric: MetricId | None = None) -> DistanceMatrix:
    """Reload a cached matrix, bit-identical to the one saved."""
    data = Path(path).read_bytes()
    if len(data) < _CACHE_HEADER.size:
        raise TruncatedFile(f"cache file is only {len(data)} bytes")
    magic, metric_byte, n_test, n_train = _CACHE_HEADER.unpack_from(data)
    if magic != CACHE_MAGIC:
        raise BadMagic(f"expected cache magic {CACHE_MAGIC!r}, got {magic!r}")
    try:
        metric = MetricId(metric_byte)
    except ValueError:
        raise BadMagic(f"unknown metric id byte {metric_byte} in cache header")
    if expect_metric is not None and metric is not expect_metric:
        raise MetricMismatch(
            f"cache was built with metric {metric.cli_name}, "
            f"caller requested {expect_metric.cli_name}"
        )
    expected = _CACHE_HEADER.size + n_test * n_train * 4
    if len(data) != expected:
        raise TruncatedFile(f"cache file is {len(data)} bytes, header declares {expected}")
    values = np.frombuffer(data, dtype="<u4", offset=_CACHE_HEADER.size)
    return DistanceMatrix(metric, values.reshape(n_test, n_train))


def build_matrix_cached(train: Dataset, test: Dataset, metric: MetricId,
                        cache_path, progress=None) -> DistanceMatrix:
    """Load the matrix from cache_path if valid, else build and save it.

    A cache built under a different metric raises MetricMismatch rather
    than silently rebuilding; a cache whose shape does not match the
    datasets is treated as absent and overwritten.
    """
    cache_path = Path(cache_path)
    if cache_path.exists():
        cached = load_cache(cache_path, expect_metric=metric)
        if cached.n_test == len(test) and cached.n_train == len(train):
            return cached
    matrix = build_matrix(train, test, metric, progress=progress)
    cache_path.parent.mkdir(parents=True, exist_ok=True)
    save_cache(matrix, cache_path)
    return matrix
