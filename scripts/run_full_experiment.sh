#!/usr/bin/env bash
# Reproduce the full experiment end to end:
#   1. 10-fold cross-validation over the training set (selects k)
#   2. evaluate the plain metric at k=3
#   3. evaluate the sliding-window metric at k=3
#   4. compare both with the two-proportion z-test
#
# Environment:
#   KNN_MNIST_DIR  directory with the canonical files   (default: data)
#   OUT_DIR        where reports land                   (default: results)
#   OPENBLAS_NUM_THREADS  engine threads (default: every core)
#   MAX_TRAIN/MAX_TEST  optional prefix subsets for a quick smoke run
#
# A warm cache directory under $OUT_DIR/cache lets the compare step reuse
# the matrices the evaluate steps computed.
set -euo pipefail

DATA_DIR="${KNN_MNIST_DIR:-data}"
OUT_DIR="${OUT_DIR:-results}"
K="${K:-3}"

pick() {  # prefer the raw file, fall back to .gz
    if [[ -f "$DATA_DIR/$1" ]]; then echo "$DATA_DIR/$1"; else echo "$DATA_DIR/$1.gz"; fi
}

TRAIN_IMAGES="$(pick train-images-idx3-ubyte)"
TRAIN_LABELS="$(pick train-labels-idx1-ubyte)"
TEST_IMAGES="$(pick t10k-images-idx3-ubyte)"
TEST_LABELS="$(pick t10k-labels-idx1-ubyte)"

DATA_FLAGS=(
    --train-images "$TRAIN_IMAGES" --train-labels "$TRAIN_LABELS"
    --test-images "$TEST_IMAGES" --test-labels "$TEST_LABELS"
)
SUBSET_FLAGS=()
[[ -n "${MAX_TRAIN:-}" ]] && SUBSET_FLAGS+=(--max-train "$MAX_TRAIN")
[[ -n "${MAX_TEST:-}" ]] && SUBSET_FLAGS+=(--max-test "$MAX_TEST")

mkdir -p "$OUT_DIR"
KNN="python3 -m knndigits.cli"

CV_FLAGS=()
[[ -n "${MAX_TRAIN:-}" ]] && CV_FLAGS+=(--max-train "$MAX_TRAIN")

echo "== cross-validation (plain metric, 10 folds, k = 1..10) =="
$KNN crossval \
    --train-images "$TRAIN_IMAGES" --train-labels "$TRAIN_LABELS" \
    "${CV_FLAGS[@]}" \
    --out "$OUT_DIR/crossval.csv"

echo "== evaluate plain metric at k=$K =="
$KNN evaluate "${DATA_FLAGS[@]}" "${SUBSET_FLAGS[@]}" \
    --metric plain --k "$K" \
    --cache-dir "$OUT_DIR/cache" --out "$OUT_DIR/evaluate_plain.json"

echo "== evaluate sliding metric at k=$K =="
$KNN evaluate "${DATA_FLAGS[@]}" "${SUBSET_FLAGS[@]}" \
    --metric sliding --k "$K" \
    --cache-dir "$OUT_DIR/cache" --out "$OUT_DIR/evaluate_sliding.json"

echo "== compare metrics (two-proportion z-test) =="
$KNN compare "${DATA_FLAGS[@]}" "${SUBSET_FLAGS[@]}" \
    --k "$K" \
    --cache-dir "$OUT_DIR/cache" --out "$OUT_DIR/compare.json"

echo "done; reports in $OUT_DIR/"
