"""Matrix engine: oracle equivalence, determinism, streaming, caching."""

import errno
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import knndigits
import oracles
from knndigits import distance_matrix
from knndigits.distance_matrix import (
    CACHE_MAGIC, DistanceMatrix, build_matrix, build_matrix_cached,
    iter_matrix_blocks, kernel_eval_count, load_cache, save_cache,
)
from knndigits.errors import BadMagic, MetricMismatch, TruncatedFile
from knndigits.idx_io import Dataset, Split
from knndigits.metrics import MetricId, squared_l2

METRICS = [MetricId.PLAIN_L2, MetricId.SLIDING_L2]


def random_dataset(rng, n, split=Split.TRAIN):
    return Dataset(
        rng.integers(0, 256, size=(n, 784)).astype(np.uint8),
        rng.integers(0, 10, size=n).astype(np.uint8),
        split,
    )


def test_one_by_one_identical():
    img = np.arange(784, dtype=np.int64).astype(np.uint8).reshape(1, 784)
    ds = Dataset(img, np.array([5], np.uint8), Split.TRAIN)
    for metric in METRICS:
        assert build_matrix(ds, ds, metric).values.tolist() == [[0]]


def test_two_train_one_test_row():
    a = np.zeros(784, np.uint8)
    b = np.zeros(784, np.uint8)
    b[:3] = [3, 4, 0]
    assert squared_l2(a, b) == 25
    train = Dataset(np.stack([a, b]), np.array([0, 1], np.uint8), Split.TRAIN)
    test = Dataset(a.reshape(1, 784), np.array([0], np.uint8), Split.TEST)
    matrix = build_matrix(train, test, MetricId.PLAIN_L2)
    assert matrix.values.tolist() == [[0, 25]]


def images_dataset(images, split=Split.TRAIN):
    images = np.asarray(images, dtype=np.uint8).reshape(-1, 784)
    return Dataset(images, np.zeros(len(images), np.uint8), split)


def oracle_inputs(case):
    """(train, test, block_rows) for one input of the oracle comparison."""
    rng = np.random.default_rng(42)
    if case == "random":
        return random_dataset(rng, 13), random_dataset(rng, 7, Split.TEST), None
    if case == "ties":
        # interior ink only, so every one-pixel shift keeps all of it;
        # duplicated columns and the blank image tie across columns and windows
        base = rng.integers(0, 256, (3, 28, 28)).astype(np.uint8)
        base[:, [0, -1], :] = 0
        base[:, :, [0, -1]] = 0
        base = base.reshape(3, 784)
        blank = np.zeros(784, np.uint8)
        shifted = [oracles.translate(base[0], dr, dc)
                   for dr in (-1, 0, 1) for dc in (-1, 0, 1)]
        train = [base[0], base[1], base[0], blank, base[2], base[1], blank]
        return (images_dataset(train),
                images_dataset(shifted + [base[1], blank], Split.TEST), None)
    if case == "ring":
        # train ink only on the outer rows and columns, which every shifted
        # window partly crops away; shifted test copies put the minimum there
        ring = rng.integers(0, 256, (6, 28, 28)).astype(np.uint8)
        ring[:, 1:-1, 1:-1] = 0
        ring = ring.reshape(6, 784)
        shifted = [oracles.translate(ring[0], dr, dc)
                   for dr in (-1, 0, 1) for dc in (-1, 0, 1)]
        return images_dataset(ring[:5]), images_dataset(shifted + [ring[5]], Split.TEST), None
    if case == "extremes":
        full, blank = np.full(784, 255, np.uint8), np.zeros(784, np.uint8)
        noise = rng.integers(0, 256, (2, 784))
        return (images_dataset([blank, full, noise[0], full, blank]),
                images_dataset([full, blank, noise[1]], Split.TEST), None)
    assert case == "odd-blocks"
    return random_dataset(rng, 6), random_dataset(rng, 9, Split.TEST), 2


ORACLE_CASES = ["random", "ties", "ring", "extremes", "odd-blocks"]


@pytest.mark.parametrize("metric,case", [
    pytest.param(metric, case, id=f"{int(metric)}" + ("" if case == "random" else f"-{case}"))
    for metric in METRICS for case in ORACLE_CASES
])
def test_matches_naive_triple_loop(metric, case):
    train, test, block_rows = oracle_inputs(case)
    expected = oracles.naive_matrix(train.images, test.images, metric)
    if block_rows is None:
        got = build_matrix(train, test, metric).values
    else:
        got = np.concatenate([b for _, b in iter_matrix_blocks(
            train, test, metric, block_rows=block_rows)])
    assert got.dtype == np.uint32
    assert (got == expected).all()


# builds one metric's matrix from saved images under the caller's environment
_CHILD_BUILD = """
import sys
import numpy as np
from knndigits.distance_matrix import build_matrix
from knndigits.idx_io import Dataset, Split
from knndigits.metrics import MetricId
data = np.load(sys.argv[1])
train, test = (Dataset(data[name], np.zeros(len(data[name]), np.uint8), Split.TRAIN)
               for name in ("train", "test"))
np.save(sys.argv[2], build_matrix(train, test, MetricId(int(sys.argv[3]))).values)
"""


@pytest.mark.parametrize("metric", METRICS)
def test_blas_thread_count_is_invisible(metric, tmp_path):
    # large enough that a threaded BLAS splits the GEMM across threads
    rng = np.random.default_rng(7)
    train = random_dataset(rng, 2_000)
    test = random_dataset(rng, 64, Split.TEST)
    base = build_matrix(train, test, metric).values

    np.savez(tmp_path / "images.npz", train=train.images, test=test.images)
    src = str(Path(knndigits.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", _CHILD_BUILD, str(tmp_path / "images.npz"),
                    str(tmp_path / "single.npy"), str(int(metric))],
                   env=env, check=True, timeout=120)
    single = np.load(tmp_path / "single.npy")
    assert single.dtype == base.dtype and single.tobytes() == base.tobytes()

    blocks = [b for _, b in iter_matrix_blocks(train, test, metric, block_rows=3)]
    assert (np.concatenate(blocks) == base).all()


def test_sliding_dominated_by_plain_elementwise():
    rng = np.random.default_rng(3)
    train = random_dataset(rng, 20)
    test = random_dataset(rng, 10, Split.TEST)
    plain = build_matrix(train, test, MetricId.PLAIN_L2).values
    sliding = build_matrix(train, test, MetricId.SLIDING_L2).values
    assert (sliding <= plain).all()


def test_streaming_blocks_reassemble_exactly():
    rng = np.random.default_rng(11)
    train = random_dataset(rng, 9)
    test = random_dataset(rng, 25, Split.TEST)
    full = build_matrix(train, test, MetricId.SLIDING_L2).values
    rows = []
    for lo, block in iter_matrix_blocks(train, test, MetricId.SLIDING_L2, block_rows=4):
        assert lo == sum(r.shape[0] for r in rows)
        rows.append(block)
    assert (np.concatenate(rows) == full).all()


def test_progress_reports_monotone_rows():
    rng = np.random.default_rng(5)
    train = random_dataset(rng, 4)
    test = random_dataset(rng, 10, Split.TEST)
    seen = []
    build_matrix(train, test, MetricId.PLAIN_L2,
                 progress=lambda done, total: seen.append((done, total)))
    assert seen[-1] == (10, 10)
    assert [d for d, _ in seen] == sorted(d for d, _ in seen)


def test_cache_round_trip_bit_identical(tmp_path):
    values = np.array([[1, 2, 3], [4, 5, 6]], np.uint32)
    matrix = DistanceMatrix(MetricId.SLIDING_L2, values)
    path = tmp_path / "m.dmat"
    save_cache(matrix, path)
    loaded = load_cache(path)
    assert loaded.metric is MetricId.SLIDING_L2
    assert (loaded.values == values).all()

    again = tmp_path / "m2.dmat"
    save_cache(matrix, again)
    assert path.read_bytes() == again.read_bytes()


def test_cache_layout_is_exactly_specified(tmp_path):
    matrix = DistanceMatrix(MetricId.PLAIN_L2, np.array([[7]], np.uint32))
    path = tmp_path / "m.dmat"
    save_cache(matrix, path)
    raw = path.read_bytes()
    assert raw[:8] == CACHE_MAGIC
    assert raw[8] == 0  # metric id byte
    assert raw[9:13] == (1).to_bytes(4, "little")   # n_test
    assert raw[13:17] == (1).to_bytes(4, "little")  # n_train
    assert raw[17:] == (7).to_bytes(4, "little")


def test_cache_bad_magic(tmp_path):
    path = tmp_path / "x.dmat"
    path.write_bytes(b"XXXXXXXX" + bytes(9))
    with pytest.raises(BadMagic):
        load_cache(path)


def test_cache_truncated(tmp_path):
    matrix = DistanceMatrix(MetricId.PLAIN_L2, np.zeros((2, 2), np.uint32))
    path = tmp_path / "t.dmat"
    save_cache(matrix, path)
    path.write_bytes(path.read_bytes()[:-2])
    with pytest.raises(TruncatedFile):
        load_cache(path)


def test_cache_metric_mismatch(tmp_path):
    matrix = DistanceMatrix(MetricId.PLAIN_L2, np.zeros((1, 1), np.uint32))
    path = tmp_path / "p.dmat"
    save_cache(matrix, path)
    with pytest.raises(MetricMismatch):
        load_cache(path, expect_metric=MetricId.SLIDING_L2)
    assert load_cache(path, expect_metric=MetricId.PLAIN_L2).metric is MetricId.PLAIN_L2


def test_cached_build_skips_kernels_on_hit(tmp_path):
    rng = np.random.default_rng(2)
    train = random_dataset(rng, 6)
    test = random_dataset(rng, 4, Split.TEST)
    path = tmp_path / "c.dmat"

    first = build_matrix_cached(train, test, MetricId.PLAIN_L2, path)
    evals_after_build = kernel_eval_count()
    second = build_matrix_cached(train, test, MetricId.PLAIN_L2, path)
    assert kernel_eval_count() == evals_after_build  # pure cache hit
    assert (first.values == second.values).all()

    with pytest.raises(MetricMismatch):
        build_matrix_cached(train, test, MetricId.SLIDING_L2, path)


def test_cache_rebuild_is_byte_identical(tmp_path):
    rng = np.random.default_rng(9)
    train = random_dataset(rng, 5)
    test = random_dataset(rng, 3, Split.TEST)
    path = tmp_path / "c.dmat"
    build_matrix_cached(train, test, MetricId.SLIDING_L2, path)
    blob = path.read_bytes()
    path.unlink()
    build_matrix_cached(train, test, MetricId.SLIDING_L2, path)
    assert path.read_bytes() == blob


def test_cache_wrong_shape_is_rebuilt(tmp_path):
    rng = np.random.default_rng(10)
    train = random_dataset(rng, 5)
    test = random_dataset(rng, 3, Split.TEST)
    path = tmp_path / "c.dmat"
    stale = DistanceMatrix(MetricId.PLAIN_L2, np.zeros((2, 2), np.uint32))
    save_cache(stale, path)
    rebuilt = build_matrix_cached(train, test, MetricId.PLAIN_L2, path)
    assert rebuilt.values.shape == (3, 5)
    assert load_cache(path).values.shape == (3, 5)


class _FailAfter:
    """A writable file that stops with ENOSPC once `limit` bytes are in."""

    def __init__(self, f, limit):
        self.f, self.room = f, limit

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        data = memoryview(data).cast("B")
        if len(data) > self.room:
            self.f.write(data[:self.room])
            raise OSError(errno.ENOSPC, "no space left on device")
        self.room -= len(data)
        return self.f.write(data)

    def __getattr__(self, name):
        return getattr(self.f, name)


@pytest.mark.parametrize("previous", ["absent", "stale"])
def test_failed_cache_write_leaves_no_partial_file(tmp_path, monkeypatch, previous):
    rng = np.random.default_rng(12)
    train = random_dataset(rng, 7)
    test = random_dataset(rng, 5, Split.TEST)
    path = tmp_path / "c.dmat"
    if previous == "stale":
        save_cache(DistanceMatrix(MetricId.SLIDING_L2, np.ones((2, 2), np.uint32)), path)
    before = path.read_bytes() if path.exists() else None

    # the 17-byte header and half of the 5 x 7 payload reach the disk
    real_open = open
    monkeypatch.setattr(distance_matrix, "open", raising=False,
                        value=lambda *a, **kw: _FailAfter(real_open(*a, **kw), 17 + 70))
    with pytest.raises(OSError):
        build_matrix_cached(train, test, MetricId.SLIDING_L2, path)
    monkeypatch.undo()

    assert (path.read_bytes() if path.exists() else None) == before
    assert [p.name for p in tmp_path.iterdir()] == ([] if before is None else [path.name])
    rebuilt = build_matrix_cached(train, test, MetricId.SLIDING_L2, path)
    assert (rebuilt.values == build_matrix(train, test, MetricId.SLIDING_L2).values).all()
    assert (load_cache(path).values == rebuilt.values).all()
