"""Neighbor selection and voting, against full-sort and dict oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from knndigits.classifier import (
    NeighborList, _top_k_block, _vote_block, classify_all,
    classify_streaming, k_nearest, predict_labels, vote,
)
from knndigits.distance_matrix import DistanceMatrix, build_matrix
from knndigits.errors import BadK, LengthMismatch
from knndigits.idx_io import Dataset, Split
from knndigits.metrics import MetricId

# small distance alphabet so ties are common
rows = st.lists(st.integers(0, 5), min_size=1, max_size=40)


def test_k_nearest_basic():
    nl = k_nearest(np.array([9, 1, 4], np.uint32), 2)
    assert nl.entries == [(1, 1), (2, 4)]


def test_k_nearest_ties_break_by_index():
    nl = k_nearest(np.array([5, 5, 5], np.uint32), 2)
    assert nl.entries == [(0, 5), (1, 5)]


def test_k_nearest_full_row():
    nl = k_nearest(np.array([3, 1, 2], np.uint32), 3)
    assert nl.entries == [(1, 1), (2, 2), (0, 3)]


def test_k_nearest_rejects_bad_k():
    row = np.array([1, 2], np.uint32)
    for k in (0, -1, 3):
        with pytest.raises(BadK):
            k_nearest(row, k)


@given(rows, st.data())
def test_k_nearest_equals_stable_sort_prefix(row, data):
    k = data.draw(st.integers(1, len(row)))
    nl = k_nearest(np.array(row, np.uint32), k)
    assert nl.entries == oracles.sorted_k_nearest(row, k)


def neighbor_list(labels_positions):
    """NeighborList with distances equal to position (already sorted)."""
    idx = np.arange(len(labels_positions), dtype=np.int64)
    return NeighborList(idx, idx.astype(np.uint32))


def test_vote_strict_majority():
    labels = np.array([3, 3, 7], np.uint8)
    assert vote(neighbor_list(labels), labels) == 3


def test_vote_tie_broken_by_nearer_neighbor():
    train_labels = np.array([4, 9], np.uint8)
    nl = NeighborList(np.array([0, 1]), np.array([10, 20], np.uint32))
    assert vote(nl, train_labels) == 4


def test_vote_equal_distance_tie_broken_by_train_index():
    # indices 2 and 7 at equal distance: index order puts 2 first, so its
    # label wins the 1-1 vote
    train_labels = np.zeros(8, np.uint8)
    train_labels[7] = 4
    train_labels[2] = 9
    row = np.full(8, 100, np.uint32)
    row[2] = row[7] = 5
    nl = k_nearest(row, 2)
    assert nl.entries == [(2, 5), (7, 5)]
    assert vote(nl, train_labels) == 9


@given(st.lists(st.integers(0, 9), min_size=1, max_size=12))
def test_vote_block_agrees_with_scalar_and_oracle(labels):
    arr = np.array(labels, np.uint8)
    block = _vote_block(arr[None, :])
    assert block[0] == oracles.dict_vote(labels)
    assert vote(neighbor_list(arr), arr) == oracles.dict_vote(labels)


def test_classify_single_cell():
    matrix = DistanceMatrix(MetricId.PLAIN_L2, np.array([[0]], np.uint32))
    preds = classify_all(matrix, np.array([7], np.uint8), 1)
    assert len(preds) == 1
    assert preds[0].label == 7
    assert preds[0].test_index == 0
    assert preds[0].neighbors.entries == [(0, 0)]


def test_classify_row_picks_nearest_label():
    matrix = DistanceMatrix(MetricId.PLAIN_L2, np.array([[0, 25]], np.uint32))
    preds = classify_all(matrix, np.array([3, 8], np.uint8), 1)
    assert preds[0].label == 3


def test_classify_rejects_bad_args():
    matrix = DistanceMatrix(MetricId.PLAIN_L2, np.zeros((2, 3), np.uint32))
    labels = np.zeros(3, np.uint8)
    with pytest.raises(BadK):
        classify_all(matrix, labels, 0)
    with pytest.raises(BadK):
        classify_all(matrix, labels, 4)
    with pytest.raises(LengthMismatch):
        classify_all(matrix, np.zeros(5, np.uint8), 1)


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_classify_paths_agree(seed, k):
    """classify_all, predict_labels, and the streaming path all agree."""
    rng = np.random.default_rng(seed)
    train = Dataset(
        rng.integers(0, 256, (8, 784)).astype(np.uint8),
        rng.integers(0, 10, 8).astype(np.uint8), Split.TRAIN,
    )
    test = Dataset(
        rng.integers(0, 256, (5, 784)).astype(np.uint8),
        rng.integers(0, 10, 5).astype(np.uint8), Split.TEST,
    )
    for metric in (MetricId.PLAIN_L2, MetricId.SLIDING_L2):
        matrix = build_matrix(train, test, metric)
        from_all = [p.label for p in classify_all(matrix, train.labels, k)]
        from_fast = predict_labels(matrix.values, train.labels, k).tolist()
        from_stream = classify_streaming(train, test, metric, k).tolist()
        assert from_all == from_fast == from_stream


def test_classify_repeated_calls_identical():
    rng = np.random.default_rng(0)
    values = rng.integers(0, 50, (6, 9)).astype(np.uint32)
    matrix = DistanceMatrix(MetricId.PLAIN_L2, values)
    labels = rng.integers(0, 10, 9).astype(np.uint8)
    first = [p.label for p in classify_all(matrix, labels, 3)]
    second = [p.label for p in classify_all(matrix, labels, 3)]
    assert first == second


@given(rows, st.data())
def test_top_k_block_many_rows(row, data):
    """Block selection equals the per-row oracle on a stacked matrix."""
    k = data.draw(st.integers(1, len(row)))
    values = np.array([row, row[::-1]], np.uint32)
    idx, dist = _top_k_block(values, k)
    for r in range(2):
        expected = oracles.sorted_k_nearest(values[r], k)
        assert list(zip(idx[r].tolist(), dist[r].tolist())) == expected


def test_sliding_metric_rescues_translated_probes():
    """The point of the sliding metric, end to end: dense random
    prototypes are unrecognizable to plain L2 after a one-pixel shift
    (chance-level accuracy) but the windowed metric matches exactly."""
    rng = np.random.default_rng(42)
    protos = rng.integers(0, 256, (10, 28, 28)).astype(np.uint8)
    protos[:, 0, :] = protos[:, -1, :] = 0
    protos[:, :, 0] = protos[:, :, -1] = 0
    flat = protos.reshape(10, 784)

    train_labels = np.tile(np.arange(10, dtype=np.uint8), 3)
    noise = rng.integers(-2, 3, (30, 784))
    train_images = np.clip(flat[train_labels].astype(int) + noise, 0, 255).astype(np.uint8)

    shifts = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if (dr, dc) != (0, 0)]
    test_images = np.stack(
        [oracles.translate(flat[c], *s) for c in range(10) for s in shifts]
    ).astype(np.uint8)
    test_labels = np.array([c for c in range(10) for _ in shifts], np.uint8)

    train = Dataset(train_images, train_labels, Split.TRAIN)
    test = Dataset(test_images, test_labels, Split.TEST)
    plain = classify_streaming(train, test, MetricId.PLAIN_L2, 1)
    sliding = classify_streaming(train, test, MetricId.SLIDING_L2, 1)
    assert (sliding == test_labels).all()
    assert (plain == test_labels).mean() < 0.5
