"""Command-line entry point for the evaluation pipeline.

Four subcommands cover the full experiment:

    evaluate   load data, build (or reuse) the distance matrix, classify
               at one k, emit an evaluation report (json or csv)
    crossval   10-fold cross-validation over the training set, write the
               accuracy grid as CSV and print the selected k
    compare    evaluate both metrics and run the two-proportion z-test
    inspect    text-art view of one test digit, its nearest neighbors,
               and its mean distance to each class

Exit codes: 0 success, 1 usage error, 2 data error (malformed input or
cache files), 3 I/O error. When no --cache-dir is configured, evaluation
streams matrix blocks and never holds the full matrix; with a cache dir,
the full matrix is built once, saved, and reused by later runs (including
the second leg of `compare`). Predictions are identical either way.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import classifier, crossval, stats
from .dataset_ops import render_ascii
from .distance_matrix import build_matrix, build_matrix_cached
from .errors import (
    BadK, BadLabel, BadMagic, BadProportion, BadShape, CountMismatch,
    EmptyInput, FoldOutOfRange, IndexOutOfRange, IndivisibleFold, KnnError,
    LengthMismatch, MetricMismatch, MissingClass, TruncatedFile,
)
from .idx_io import Dataset, Split, load_dataset
from .metrics import MetricId, mean_distance_by_class

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_IO = 3

_USAGE_ERRORS = (
    BadK, IndivisibleFold, FoldOutOfRange, BadProportion,
    LengthMismatch, EmptyInput, IndexOutOfRange,
)
_DATA_ERRORS = (
    BadMagic, TruncatedFile, BadShape, BadLabel, CountMismatch,
    MetricMismatch, MissingClass,
)


class ConfigError(KnnError):
    """Flag combination that cannot be satisfied (usage error)."""


@dataclass
class RunConfig:
    """Everything one command invocation depends on; embedded verbatim in
    JSON reports for provenance."""

    command: str
    train_images: str | None = None
    train_labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    metric: str = "plain"
    k: int = 3
    folds: int = 10
    k_min: int = 1
    k_max: int = 10
    cache_dir: str | None = None
    z: float = stats.DEFAULT_Z
    format: str = "json"
    max_train: int | None = None
    max_test: int | None = None
    out: str | None = None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} must be >= 1")
    return value


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; this CLI reserves 2 for
    # data errors, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="knndigits", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_test=True):
        p.add_argument("--train-images", required=True)
        p.add_argument("--train-labels", required=True)
        if need_test:
            p.add_argument("--test-images", required=True)
            p.add_argument("--test-labels", required=True)
        p.add_argument("--metric", choices=["plain", "sliding"], default="plain")
        p.add_argument("--cache-dir", default=os.environ.get("KNN_CACHE_DIR"))
        p.add_argument("--z", type=float, default=stats.DEFAULT_Z)
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--max-train", type=_positive_int, default=None)
        p.add_argument("--max-test", type=_positive_int, default=None)
        p.add_argument("--out", default=None)

    p_eval = sub.add_parser("evaluate", help="classify the test set at one k")
    add_common(p_eval)
    p_eval.add_argument("--k", type=_positive_int, default=3)

    p_cv = sub.add_parser("crossval", help="k-fold cross-validation over the training set")
    add_common(p_cv, need_test=False)
    p_cv.add_argument("--folds", type=_positive_int, default=crossval.DEFAULT_NUM_FOLDS)
    p_cv.add_argument("--k-min", type=_positive_int, default=1)
    p_cv.add_argument("--k-max", type=_positive_int, default=10)

    p_cmp = sub.add_parser("compare", help="evaluate both metrics and z-test the difference")
    add_common(p_cmp)
    p_cmp.add_argument("--k", type=_positive_int, default=3)

    p_ins = sub.add_parser("inspect", help="show one test digit and its neighbors")
    add_common(p_ins)
    p_ins.add_argument("--k", type=_positive_int, default=3)
    p_ins.add_argument("index", type=int)
    return parser


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for field in vars(cfg):
        if hasattr(args, field):
            setattr(cfg, field, getattr(args, field))
    return cfg


def _load_split(cfg: RunConfig, which: str) -> Dataset:
    if which == "train":
        ds = load_dataset(cfg.train_images, cfg.train_labels, Split.TRAIN)
        limit = cfg.max_train
    else:
        ds = load_dataset(cfg.test_images, cfg.test_labels, Split.TEST)
        limit = cfg.max_test
    if limit is not None:
        if limit > len(ds):
            raise ConfigError(
                f"--max-{which}={limit} exceeds dataset size {len(ds)}"
            )
        ds = ds.take(limit)
    return ds


def _cache_path(cfg: RunConfig, train: Dataset, test: Dataset, metric: MetricId) -> Path:
    # content digest keeps a stale cache from ever matching different data
    digest = hashlib.sha256()
    digest.update(train.images)
    digest.update(test.images)
    name = f"{metric.cli_name}_{len(test)}x{len(train)}_{digest.hexdigest()[:12]}.dmat"
    return Path(cfg.cache_dir) / name


def _predictions(cfg: RunConfig, train: Dataset, test: Dataset,
                 metric: MetricId) -> np.ndarray:
    if cfg.cache_dir:
        matrix = build_matrix_cached(
            train, test, metric, _cache_path(cfg, train, test, metric)
        )
        return classifier.predict_labels(matrix.values, train.labels, cfg.k)
    return classifier.classify_streaming(train, test, metric, cfg.k)


def _run_evaluation(cfg: RunConfig, train: Dataset, test: Dataset,
                    metric: MetricId) -> stats.EvalReport:
    start = time.perf_counter()
    predicted = _predictions(cfg, train, test, metric)
    report = stats.evaluate(predicted, test.labels, metric, cfg.k, cfg.z,
                            wall_time=time.perf_counter() - start)
    return report


def _report_dict(report: stats.EvalReport) -> dict:
    return {
        "metric": report.metric.cli_name,
        "k": report.k,
        "n": report.n,
        "correct": report.correct,
        "accuracy": report.accuracy,
        "std": report.std,
        "ci_low": report.ci_low,
        "ci_high": report.ci_high,
        "z": report.z,
        "confusion": report.confusion.tolist(),
        "wall_time_s": report.wall_time,
    }


def _test_dict(result: stats.HypothesisResult) -> dict:
    return {
        "d": result.d,
        "sigma_d": result.sigma_d,
        # an infinite statistic (degenerate variance, nonzero difference)
        # is not representable in strict JSON; encode it as null
        "z_stat": result.z_stat if math.isfinite(result.z_stat) else None,
        "z_critical": result.z_critical,
        "rejected": result.rejected,
        "degenerate": result.degenerate,
    }


_REPORT_COLUMNS = ["metric", "k", "n", "correct", "accuracy", "std",
                   "ci_low", "ci_high", "z", "wall_time_s"]


def _report_csv_row(report: stats.EvalReport) -> list[str]:
    return [
        report.metric.cli_name, str(report.k), str(report.n), str(report.correct),
        f"{report.accuracy:.6f}", f"{report.std:.6f}",
        f"{report.ci_low:.6f}", f"{report.ci_high:.6f}",
        f"{report.z:g}", f"{report.wall_time:.3f}",
    ]


def _confusion_csv_lines(confusion) -> list[str]:
    lines = ["actual," + ",".join(str(c) for c in range(10))]
    for a, row in enumerate(confusion):
        lines.append(f"{a}," + ",".join(str(int(v)) for v in row))
    return lines


def _evaluate_csv(report: stats.EvalReport) -> str:
    lines = [",".join(_REPORT_COLUMNS), ",".join(_report_csv_row(report)), ""]
    lines.extend(_confusion_csv_lines(report.confusion))
    return "\n".join(lines) + "\n"


def _compare_csv(baseline: stats.EvalReport, sliding: stats.EvalReport,
                 result: stats.HypothesisResult) -> str:
    lines = [
        "side," + ",".join(_REPORT_COLUMNS),
        "baseline," + ",".join(_report_csv_row(baseline)),
        "sliding," + ",".join(_report_csv_row(sliding)),
        "",
        "d,sigma_d,z_stat,z_critical,rejected,degenerate",
        f"{result.d:.6f},{result.sigma_d:.6f},{result.z_stat:.6f},"
        f"{result.z_critical:g},{result.rejected},{result.degenerate}",
    ]
    return "\n".join(lines) + "\n"


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out:
        Path(cfg.out).write_text(text)
        print(f"wrote {cfg.out}")
    else:
        sys.stdout.write(text)


def cmd_evaluate(cfg: RunConfig) -> int:
    train = _load_split(cfg, "train")
    test = _load_split(cfg, "test")
    metric = MetricId.from_cli_name(cfg.metric)
    report = _run_evaluation(cfg, train, test, metric)
    if cfg.format == "json":
        payload = {"command": "evaluate", "config": asdict(cfg),
                   "report": _report_dict(report)}
        _emit(cfg, json.dumps(payload, indent=2) + "\n")
    else:
        _emit(cfg, _evaluate_csv(report))
    return EXIT_OK


def cmd_crossval(cfg: RunConfig) -> int:
    train = _load_split(cfg, "train")
    if cfg.k_min > cfg.k_max:
        raise ConfigError(f"--k-min={cfg.k_min} exceeds --k-max={cfg.k_max}")
    k_values = tuple(range(cfg.k_min, cfg.k_max + 1))
    metric = MetricId.from_cli_name(cfg.metric)
    table = crossval.cross_validate(train, k_values, metric, cfg.folds)
    out_path = cfg.out or "crossval.csv"
    crossval.write_crossval_csv(table, out_path)
    chosen = crossval.select_k(table)
    print(f"wrote {out_path}")
    print(f"selected k = {chosen}")
    return EXIT_OK


def cmd_compare(cfg: RunConfig) -> int:
    train = _load_split(cfg, "train")
    test = _load_split(cfg, "test")
    baseline = _run_evaluation(cfg, train, test, MetricId.PLAIN_L2)
    sliding = _run_evaluation(cfg, train, test, MetricId.SLIDING_L2)
    result = stats.two_proportion_test(
        baseline.accuracy, baseline.n, sliding.accuracy, sliding.n, cfg.z
    )
    if cfg.format == "json":
        payload = {
            "command": "compare", "config": asdict(cfg),
            "baseline": _report_dict(baseline),
            "sliding": _report_dict(sliding),
            "test": _test_dict(result),
        }
        _emit(cfg, json.dumps(payload, indent=2) + "\n")
    else:
        _emit(cfg, _compare_csv(baseline, sliding, result))
    return EXIT_OK


def cmd_inspect(cfg: RunConfig, index: int) -> int:
    train = _load_split(cfg, "train")
    test = _load_split(cfg, "test")
    if not 0 <= index < len(test):
        raise IndexOutOfRange(f"index {index} not in 0..{len(test) - 1}")
    metric = MetricId.from_cli_name(cfg.metric)
    probe = Dataset(test.images[index:index + 1], test.labels[index:index + 1], Split.TEST)

    row = build_matrix(train, probe, metric).values[0]
    neighbors = classifier.k_nearest(row, cfg.k)
    predicted = classifier.vote(neighbors, train.labels)
    means = mean_distance_by_class(test.images[index], train)

    print(render_ascii(test.images[index]))
    print(f"index: {index}")
    print(f"label: {int(test.labels[index])}")
    print(f"predicted: {predicted}  (metric={metric.cli_name}, k={cfg.k})")
    print("nearest neighbors:")
    print("  rank  train_index  label  distance^2")
    for rank, (train_idx, dist) in enumerate(neighbors.entries, start=1):
        print(f"  {rank:4d}  {train_idx:11d}  {int(train.labels[train_idx]):5d}  {dist:10d}")
    print("mean rooted distance by class:")
    for c, value in enumerate(means):
        print(f"  {c}: {value:.2f}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    cfg = _config_from_args(args)
    try:
        if args.command == "evaluate":
            return cmd_evaluate(cfg)
        if args.command == "crossval":
            return cmd_crossval(cfg)
        if args.command == "compare":
            return cmd_compare(cfg)
        return cmd_inspect(cfg, args.index)
    except (ConfigError, *_USAGE_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
