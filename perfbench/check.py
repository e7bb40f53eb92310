"""Correctness checks for benchmark operations.

Two kinds of check, both independent of the package's own code:

* `report_digest` hashes what an operation reports (confusion matrices,
  correct counts, z-test fields, the cross-validation CSV) after checking
  the report is internally consistent. Timings are left out, so two runs
  of one input must give one digest.
* `exact_distances` / `reference_label` are a plain int64 re-implementation
  of both metrics, top-k with the (distance, train index) order, and the
  modal vote with the nearest-first tie-break, used on sampled rows.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

import numpy as np

from digits import SIDE


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _check_eval_report(report: dict, n: int, k: int) -> dict:
    confusion = np.asarray(report["confusion"], dtype=np.int64)
    if confusion.shape != (10, 10) or confusion.min() < 0:
        raise ValueError(f"confusion matrix has shape {confusion.shape}")
    if int(confusion.sum()) != n or report["n"] != n or report["k"] != k:
        raise ValueError(f"report covers n={report['n']} k={report['k']}, expected n={n} k={k}")
    if int(np.trace(confusion)) != report["correct"]:
        raise ValueError("correct count differs from the confusion diagonal")
    if not math.isclose(report["accuracy"], report["correct"] / n, rel_tol=1e-12):
        raise ValueError("accuracy differs from correct / n")
    return {key: value for key, value in report.items() if key != "wall_time_s"}


def report_digest(command: str, stdout: str, csv_text: str | None, n: int, k: int) -> str:
    """Digest of one command's result; raises ValueError if it is inconsistent."""
    if command == "evaluate":
        payload = json.loads(stdout)
        return _digest(_check_eval_report(payload["report"], n, k))
    if command == "compare":
        payload = json.loads(stdout)
        base = _check_eval_report(payload["baseline"], n, k)
        slide = _check_eval_report(payload["sliding"], n, k)
        test = payload["test"]
        if not math.isclose(test["d"], slide["accuracy"] - base["accuracy"], abs_tol=1e-12):
            raise ValueError("z-test difference d disagrees with the two accuracies")
        return _digest({"baseline": base, "sliding": slide, "test": test})
    if command == "crossval":
        rows = list(csv.reader(io.StringIO(csv_text)))
        grid = np.array([[float(v) for v in row[1:]] for row in rows[1:-1]])
        if rows[-1][0] != "mean" or grid.ndim != 2 or not ((grid >= 0) & (grid <= 1)).all():
            raise ValueError("cross-validation CSV is malformed")
        selected = [line for line in stdout.splitlines() if line.startswith("selected k")]
        if len(selected) != 1:
            raise ValueError("crossval printed no selected k")
        return _digest({"csv": csv_text, "selected": selected[0]})
    raise ValueError(f"no digest for command {command}")


def _windows(train: np.ndarray) -> list[np.ndarray]:
    """The nine 28x28 crops of every train image zero-padded to 30x30."""
    n = train.shape[0]
    padded = np.zeros((n, SIDE + 2, SIDE + 2), dtype=np.int64)
    padded[:, 1:-1, 1:-1] = train.reshape(n, SIDE, SIDE)
    return [padded[:, dr:dr + SIDE, dc:dc + SIDE].reshape(n, SIDE * SIDE)
            for dr in range(3) for dc in range(3)]


def exact_distances(test_image: np.ndarray, train: np.ndarray, metric: str,
                    chunk: int = 4096) -> np.ndarray:
    """Exact int64 squared distances from one test image to every train image."""
    t = test_image.astype(np.int64)
    out = np.empty(train.shape[0], dtype=np.int64)
    for lo in range(0, train.shape[0], chunk):
        block = train[lo:lo + chunk]
        crops = [block.astype(np.int64)] if metric == "plain" else _windows(block)
        out[lo:lo + chunk] = np.min([((c - t) ** 2).sum(axis=1) for c in crops], axis=0)
    return out


def reference_label(distances: np.ndarray, train_labels: np.ndarray, k: int) -> int:
    """Modal label of the k nearest by (distance, index); ties go to the
    label whose nearest member ranks first."""
    nearest = np.lexsort((np.arange(len(distances)), distances))[:k]
    labels = [int(train_labels[i]) for i in nearest]
    return min(set(labels), key=lambda c: (-labels.count(c), labels.index(c)))
