"""k-fold cross-validation over the training set for choosing k.

Folds are contiguous in-file-order slices (no shuffling), so the whole
procedure is a deterministic function of the input files. Each fold's
validation-by-remainder distance matrix is computed once and every k is
evaluated against it: the k nearest neighbors for any k are a prefix of
the sorted neighbor list for the largest k, so reusing it is exactly
equivalent to recomputing per k (and is tested to be).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .classifier import _top_k_block, _vote_block
from .dataset_ops import fold_split
from .distance_matrix import iter_matrix_blocks
from .errors import BadK
from .idx_io import Dataset
from .metrics import MetricId

DEFAULT_NUM_FOLDS = 10
DEFAULT_K_VALUES = tuple(range(1, 11))


@dataclass(frozen=True)
class CrossValTable:
    """Per-fold, per-k validation accuracies plus column means."""

    accuracies: np.ndarray  # (num_folds, num_k) proportions
    k_values: tuple
    fold_count: int

    @property
    def mean_by_k(self) -> np.ndarray:
        return self.accuracies.mean(axis=0)


def cross_validate(train: Dataset, k_values=DEFAULT_K_VALUES,
                   metric: MetricId = MetricId.PLAIN_L2,
                   num_folds: int = DEFAULT_NUM_FOLDS,
                   progress=None) -> CrossValTable:
    """Validation accuracy for every (fold, k) pair.

    Streams each fold's matrix in row blocks and keeps only the top-k_max
    neighbor labels, so the full fold matrix (6,000 x 54,000 at canonical
    scale) never has to fit in memory at once.
    """
    k_values = tuple(int(k) for k in k_values)
    if not k_values or min(k_values) < 1:
        raise BadK(f"k values must all be >= 1, got {k_values}")
    k_max = max(k_values)
    grid = np.zeros((num_folds, len(k_values)), dtype=np.float64)

    for fold in range(num_folds):
        fold_train, fold_val = fold_split(train, num_folds, fold)
        if k_max > len(fold_train):
            raise BadK(f"k={k_max} exceeds fold training size {len(fold_train)}")
        neighbor_labels = np.empty((len(fold_val), k_max), dtype=np.uint8)
        for lo, block in iter_matrix_blocks(fold_train, fold_val, metric,
                                            progress=progress):
            idx, _ = _top_k_block(block, k_max)
            neighbor_labels[lo:lo + block.shape[0]] = fold_train.labels[idx]
        for j, k in enumerate(k_values):
            predicted = _vote_block(neighbor_labels[:, :k])
            grid[fold, j] = int((predicted == fold_val.labels).sum()) / len(fold_val)

    return CrossValTable(grid, k_values, num_folds)


def select_k(table: CrossValTable) -> int:
    """The k with the best mean accuracy; ties go to the smaller k."""
    means = table.mean_by_k
    best = means.max()
    return min(k for k, m in zip(table.k_values, means) if m == best)


def write_crossval_csv(table: CrossValTable, path) -> None:
    """Write the grid as CSV: fold rows, k columns, trailing mean row.

    Proportions carry 6 decimals, enough to round-trip counts out of a
    6,000-example fold exactly.
    """
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["fold"] + [f"k={k}" for k in table.k_values])
        for fold in range(table.fold_count):
            writer.writerow(
                [fold] + [f"{cell:.6f}" for cell in table.accuracies[fold]]
            )
        writer.writerow(["mean"] + [f"{m:.6f}" for m in table.mean_by_k])
