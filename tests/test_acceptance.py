"""Acceptance gate: every exit criterion as one test, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s` to see
them). Criteria that need the canonical digit files skip when the files
are absent; fetch them with scripts/fetch_mnist.sh and point KNN_MNIST_DIR
at the directory (default ./data). The full-scale criterion is also
marked `slow` and opts in via `-m slow`.
"""

import csv
from contextlib import contextmanager

import numpy as np
import pytest

import oracles
from conftest import requires_canonical
from knndigits.classifier import classify_all, classify_streaming, k_nearest
from knndigits.crossval import CrossValTable, cross_validate, select_k, write_crossval_csv
from knndigits.dataset_ops import fold_split
from knndigits.distance_matrix import (
    build_matrix, load_cache, save_cache, DistanceMatrix,
)
from knndigits.idx_io import Dataset, Split, load_dataset, parse_idx_images, parse_idx_labels
from knndigits.metrics import MetricId, sliding_squared_l2, squared_l2
from knndigits.stats import (
    accuracy, binomial_std, confidence_interval, confusion_matrix, evaluate,
    two_proportion_test,
)


@contextmanager
def criterion(cid, name):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {cid} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {cid} ({name}): PASS")


def load_canonical(paths):
    train = load_dataset(paths["train_images"], paths["train_labels"], Split.TRAIN)
    test = load_dataset(paths["test_images"], paths["test_labels"], Split.TEST)
    return train, test


@pytest.mark.slow
@requires_canonical
def test_c1_full_scale_golden_numbers(canonical_paths):
    """Golden full-run accuracies, their difference, and the rejection."""
    with criterion("C1", "full-scale golden numbers"):
        train, test = load_canonical(canonical_paths)

        plain_preds = classify_streaming(train, test, MetricId.PLAIN_L2, k=3)
        plain_acc = accuracy(plain_preds, test.labels)
        print(f"plain k=3 accuracy: {plain_acc:.4f}")
        assert abs(plain_acc - 0.9717) <= 0.0015

        sliding_preds = classify_streaming(train, test, MetricId.SLIDING_L2, k=3)
        sliding_acc = accuracy(sliding_preds, test.labels)
        print(f"sliding k=3 accuracy: {sliding_acc:.4f}")
        assert abs(sliding_acc - 0.9773) <= 0.0015

        d = sliding_acc - plain_acc
        assert abs(d - 0.0056) <= 0.003
        result = two_proportion_test(plain_acc, len(test), sliding_acc, len(test))
        assert result.rejected


def test_c2_formula_scale_golden_numbers():
    """Golden standard deviations and the z-test at the golden rates."""
    with criterion("C2", "formula-scale golden numbers"):
        assert abs(binomial_std(0.9717, 10_000) - 0.001658) <= 1e-6
        assert abs(binomial_std(0.9773, 10_000) - 0.001489) <= 1e-6
        result = two_proportion_test(0.9717, 10_000, 0.9773, 10_000, 1.96)
        assert abs(result.sigma_d - 0.002229) <= 1e-5
        assert result.rejected


def test_c3_oracle_equivalence():
    """Engine vs naive triple loop, selection vs full sort, harness vs
    manual composition; all bit-exact."""
    with criterion("C3", "oracle equivalence"):
        rng = np.random.default_rng(2024)
        sizes = [(1, 1), (1, 50), (50, 1)]
        sizes += [tuple(rng.integers(1, 51, 2)) for _ in range(100)]

        for n_train, n_test in sizes:
            train = Dataset(
                rng.integers(0, 256, (n_train, 784)).astype(np.uint8),
                rng.integers(0, 10, n_train).astype(np.uint8), Split.TRAIN,
            )
            test = Dataset(
                rng.integers(0, 256, (n_test, 784)).astype(np.uint8),
                rng.integers(0, 10, n_test).astype(np.uint8), Split.TEST,
            )
            for metric in (MetricId.PLAIN_L2, MetricId.SLIDING_L2):
                expected = oracles.naive_matrix(train.images, test.images, metric)
                got = build_matrix(train, test, metric).values
                assert (got == expected).all()

            # selection vs full-stable-sort prefix on the rows just built
            row = expected[0]
            k = int(rng.integers(1, len(row) + 1))
            assert k_nearest(row, k).entries == oracles.sorted_k_nearest(row, k)

        # harness vs recompute-per-k composition
        for seed in (1, 2, 3):
            comp_rng = np.random.default_rng(seed)
            ds = Dataset(
                comp_rng.integers(0, 256, (24, 784)).astype(np.uint8),
                comp_rng.integers(0, 10, 24).astype(np.uint8), Split.TRAIN,
            )
            k_values = (1, 2, 3)
            for metric in (MetricId.PLAIN_L2, MetricId.SLIDING_L2):
                table = cross_validate(ds, k_values, metric, num_folds=2)
                for fold in range(2):
                    fold_train, fold_val = fold_split(ds, 2, fold)
                    for j, k in enumerate(k_values):
                        matrix = build_matrix(fold_train, fold_val, metric)
                        preds = [p.label for p in
                                 classify_all(matrix, fold_train.labels, k)]
                        assert table.accuracies[fold, j] == accuracy(preds, fold_val.labels)


def test_c4_metric_properties():
    """Dominance, identity, symmetry, and exact shift absorption."""
    with criterion("C4", "metric properties"):
        rng = np.random.default_rng(99)
        a = rng.integers(0, 256, (10_000, 784)).astype(np.uint8)
        b = rng.integers(0, 256, (10_000, 784)).astype(np.uint8)
        for i in range(10_000):
            plain = squared_l2(a[i], b[i])
            assert sliding_squared_l2(a[i], b[i]) <= plain
            assert squared_l2(b[i], a[i]) == plain
        sample = rng.integers(0, 10_000, 200)
        for i in sample:
            assert squared_l2(a[i], a[i]) == 0
            assert sliding_squared_l2(a[i], a[i]) == 0

        shifts = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if (dr, dc) != (0, 0)]
        images = rng.integers(0, 256, (1_000, 28, 28)).astype(np.uint8)
        images[:, 0, :] = images[:, -1, :] = 0
        images[:, :, 0] = images[:, :, -1] = 0
        images[:, 14, 14] = np.maximum(images[:, 14, 14], 1)  # never constant
        flat = images.reshape(1_000, 784)
        for img in flat:
            for shift in shifts:
                moved = oracles.translate(img, *shift)
                assert sliding_squared_l2(img, moved) == 0
                assert squared_l2(img, moved) > 0


@requires_canonical
def test_c5_desk_scale_accuracy_trend(canonical_paths):
    """6,000 x 1,000 prefix: sliding keeps up with plain, counts exact."""
    with criterion("C5", "desk-scale accuracy trend"):
        train, test = load_canonical(canonical_paths)
        train = train.take(6_000)
        test = test.take(1_000)

        reports = {}
        for metric in (MetricId.PLAIN_L2, MetricId.SLIDING_L2):
            preds = classify_streaming(train, test, metric, k=3)
            reports[metric] = evaluate(preds, test.labels, metric, k=3)
            print(f"{metric.cli_name} k=3 accuracy (6k x 1k): "
                  f"{reports[metric].accuracy:.4f}")

        plain, sliding = reports[MetricId.PLAIN_L2], reports[MetricId.SLIDING_L2]
        assert sliding.accuracy >= plain.accuracy - 0.002
        for report in (plain, sliding):
            assert report.confusion.sum() == 1_000
            assert np.trace(report.confusion) == report.correct
            assert report.correct / report.n == report.accuracy


def test_c6_statistics_invariants():
    """Exact identities among the statistics, plus the one-sigma
    interval spot check at z=1."""
    with criterion("C6", "statistics invariants"):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 400))
            preds = rng.integers(0, 10, n)
            truths = rng.integers(0, 10, n)
            counts = confusion_matrix(preds, truths)
            assert np.trace(counts) / counts.sum() == accuracy(preds, truths)

        for p in (0.0, 0.1, 0.5, 0.9717, 1.0):
            for n in (1, 100, 10_000):
                for z in (1.0, 1.96, 2.58):
                    low, high = confidence_interval(p, n, z)
                    assert high - low == pytest.approx(
                        2 * z * binomial_std(p, n), rel=1e-12, abs=1e-15
                    )

        for _ in range(200):
            p1, p2 = rng.random(2)
            n1, n2 = (int(v) for v in rng.integers(1, 10_000, 2))
            fwd = two_proportion_test(p1, n1, p2, n2)
            rev = two_proportion_test(p2, n2, p1, n1)
            assert fwd.z_stat == rev.z_stat
            assert fwd.rejected == rev.rejected

        low, high = confidence_interval(0.9717, 10_000, z=1.0)
        assert low == pytest.approx(0.97004, abs=1e-4)
        assert high == pytest.approx(0.97335, abs=1e-4)


def test_c7_format_round_trips(tmp_path):
    """Bit-exact cache round trip and 6-decimal CSV round trip."""
    with criterion("C7", "format round trips"):
        rng = np.random.default_rng(5)

        from conftest import make_idx_images, make_idx_labels
        images = rng.integers(0, 256, (17, 784)).astype(np.uint8)
        labels = rng.integers(0, 10, 17).astype(np.uint8)
        assert (parse_idx_images(make_idx_images(images)) == images).all()
        assert (parse_idx_labels(make_idx_labels(labels)) == labels).all()

        matrix = DistanceMatrix(
            MetricId.SLIDING_L2,
            rng.integers(0, 50_971_601, (6, 9)).astype(np.uint32),
        )
        path = tmp_path / "cache.dmat"
        save_cache(matrix, path)
        loaded = load_cache(path)
        assert loaded.metric is matrix.metric
        assert (loaded.values == matrix.values).all()
        twin = tmp_path / "twin.dmat"
        save_cache(loaded, twin)
        assert path.read_bytes() == twin.read_bytes()

        grid = rng.integers(0, 6_001, (10, 10)) / 6_000.0
        table = CrossValTable(grid, tuple(range(1, 11)), 10)
        csv_path = tmp_path / "cv.csv"
        write_crossval_csv(table, csv_path)
        with open(csv_path, newline="") as f:
            rows = list(csv.reader(f))
        parsed = np.array([[float(c) for c in row[1:]] for row in rows[1:11]])
        assert np.abs(parsed - grid).max() < 5e-7


@requires_canonical
def test_c7_canonical_counts(canonical_paths):
    """The canonical files parse to 60,000/10,000 paired examples."""
    with criterion("C7b", "canonical dataset counts"):
        train, test = load_canonical(canonical_paths)
        assert len(train) == 60_000
        assert len(test) == 10_000
        assert int(test.labels[0]) == 7  # well-known first test digit
        hist = np.bincount(train.labels, minlength=10)
        assert hist.sum() == 60_000
        assert (hist > 0).all()


@pytest.mark.slow
@requires_canonical
def test_full_scale_crossval_selects_three(canonical_paths):
    """Golden cross-validation means: k=3 wins, means line up."""
    golden = [0.9653, 0.9684, 0.9717, 0.9664, 0.9706,
                 0.9628, 0.9711, 0.9684, 0.9639, 0.9659]
    train, _ = load_canonical(canonical_paths)
    table = cross_validate(train, tuple(range(1, 11)), MetricId.PLAIN_L2, num_folds=10)
    print("crossval means:", np.round(table.mean_by_k, 4).tolist())
    assert select_k(table) == 3
    assert np.abs(table.mean_by_k - np.array(golden)).max() <= 0.003
