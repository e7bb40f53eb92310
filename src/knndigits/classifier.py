"""k-nearest-neighbor selection and majority voting over matrix rows.

Ties are the only subtle part, and every tie has a documented, total
resolution so accuracy figures are exactly reproducible:

  * neighbor selection orders by (distance, train_index) -- composing
    both into one integer key makes the order total and unique;
  * label voting picks the modal label; between equally frequent labels
    the one whose nearest member comes first in the neighbor order wins.

Selection uses a bounded partial sort (argpartition + sort of k keys),
which is oracle-equivalent to taking the first k entries of a full stable
sort of (distance, index) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distance_matrix import DistanceMatrix, iter_matrix_blocks
from .errors import BadK, LengthMismatch
from .idx_io import NUM_CLASSES, Dataset
from .metrics import MetricId


@dataclass(frozen=True)
class NeighborList:
    """The k nearest training examples of one test row, nearest first."""

    indices: np.ndarray    # (k,) int64 train indices
    distances: np.ndarray  # (k,) uint32 squared distances

    @property
    def entries(self):
        return list(zip(self.indices.tolist(), self.distances.tolist()))

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class Prediction:
    test_index: int
    label: int
    neighbors: NeighborList


def _top_k_block(values: np.ndarray, k: int):
    """k smallest (distance, index) pairs per row of a block.

    Keys compose distance and index into one int64 (distance * n + index),
    which is unique per cell, so partial selection plus a sort of the k
    survivors reproduces the lexicographic order exactly.
    """
    b, n = values.shape
    keys = values.astype(np.int64) * n + np.arange(n, dtype=np.int64)[None, :]
    if k < n:
        part = np.argpartition(keys, k - 1, axis=1)[:, :k]
        keys = np.take_along_axis(keys, part, axis=1)
    keys.sort(axis=1)
    return (keys % n).astype(np.int64), (keys // n).astype(np.uint32)


def _vote_block(neighbor_labels: np.ndarray) -> np.ndarray:
    """Vectorized modal vote with the nearest-first tie-break.

    neighbor_labels is (b, k) with rows sorted nearest-first. The
    minimized key packs (count, first-occurrence position); distinct
    labels never share a key unless both are absent from the row.
    """
    b, k = neighbor_labels.shape
    rows = np.arange(b)[:, None]
    counts = np.zeros((b, NUM_CLASSES), dtype=np.int64)
    np.add.at(counts, (rows, neighbor_labels), 1)
    first_pos = np.full((b, NUM_CLASSES), k, dtype=np.int64)
    np.minimum.at(
        first_pos, (rows, neighbor_labels),
        np.broadcast_to(np.arange(k, dtype=np.int64), (b, k)),
    )
    key = (k - counts) * (k + 1) + first_pos
    return np.argmin(key, axis=1).astype(np.uint8)


def k_nearest(row: np.ndarray, k: int) -> NeighborList:
    """The k nearest entries of one distance row, as a NeighborList."""
    row = np.asarray(row, dtype=np.uint32)
    if not 1 <= k <= row.shape[0]:
        raise BadK(f"k={k} not in 1..{row.shape[0]}")
    idx, dist = _top_k_block(row[None, :], k)
    return NeighborList(idx[0], dist[0])


def vote(neighbors: NeighborList, train_labels: np.ndarray) -> int:
    """Majority label among the neighbors (scalar reference path)."""
    counts: dict[int, int] = {}
    first: dict[int, int] = {}
    for pos, (idx, _dist) in enumerate(neighbors.entries):
        label = int(train_labels[idx])
        counts[label] = counts.get(label, 0) + 1
        first.setdefault(label, pos)
    return min(counts, key=lambda label: (-counts[label], first[label]))


# keep the int64 key array of a classification block under ~256 MB
_ROW_BLOCK_CELLS = 32_000_000


def _check_row_args(n_train: int, train_labels, k: int):
    if not 1 <= k <= n_train:
        raise BadK(f"k={k} not in 1..{n_train}")
    if len(train_labels) != n_train:
        raise LengthMismatch(
            f"{len(train_labels)} labels for {n_train} training columns"
        )


def predict_labels(values: np.ndarray, train_labels: np.ndarray, k: int) -> np.ndarray:
    """Predicted label per row of a (n_test, n_train) distance array."""
    _check_row_args(values.shape[1], train_labels, k)
    rows = max(1, _ROW_BLOCK_CELLS // max(1, values.shape[1]))
    out = np.empty(values.shape[0], dtype=np.uint8)
    for lo in range(0, values.shape[0], rows):
        idx, _ = _top_k_block(values[lo:lo + rows], k)
        out[lo:lo + rows] = _vote_block(train_labels[idx])
    return out


def classify_all(matrix: DistanceMatrix, train_labels: np.ndarray, k: int) -> list[Prediction]:
    """One Prediction per test row, with its neighbor list attached."""
    _check_row_args(matrix.n_train, train_labels, k)
    rows = max(1, _ROW_BLOCK_CELLS // max(1, matrix.n_train))
    predictions = []
    for lo in range(0, matrix.n_test, rows):
        idx, dist = _top_k_block(matrix.values[lo:lo + rows], k)
        labels = _vote_block(train_labels[idx])
        predictions.extend(
            Prediction(lo + i, int(labels[i]), NeighborList(idx[i], dist[i]))
            for i in range(idx.shape[0])
        )
    return predictions


def classify_streaming(train: Dataset, test: Dataset, metric: MetricId,
                       k: int, progress=None) -> np.ndarray:
    """Predicted labels without ever holding the full distance matrix.

    Consumes matrix blocks as they are produced and keeps only the label
    vector; predictions are identical to classify_all on a full build.
    """
    if not 1 <= k <= len(train):
        raise BadK(f"k={k} not in 1..{len(train)}")
    out = np.empty(len(test), dtype=np.uint8)
    for lo, block in iter_matrix_blocks(train, test, metric, progress=progress):
        out[lo:lo + block.shape[0]] = predict_labels(block, train.labels, k)
    return out
