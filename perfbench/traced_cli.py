"""Run one knndigits CLI command with spans recorded around each layer.

    python traced_cli.py SPANS_JSON CAPTURE_DIR -- <knndigits cli arguments>

The package is not modified: before the CLI starts, the public functions of
each module are replaced, in every knndigits module that holds a reference
to them, by wrappers that record a span (name, start, end, parent) in
memory. The spans are written to SPANS_JSON when the command ends.

`iter_matrix_blocks` is a generator whose body runs between the consumer's
code, so it gets no span of its own: every `next()` on it is one
`distance_matrix.next_block` span (the time its consumer waited for a
block), tagged with the call it belongs to and the metric.

CAPTURE_DIR receives what the benchmark checks against its own exact
reference: the label vector of every `stats.evaluate` call, and sampled
rows (environment variable PERFBENCH_CAPTURE_ROWS, comma-separated row
indices) of every distance matrix streamed by `iter_matrix_blocks`.
A function that a later version of the package no longer has is skipped.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

# (module, function) pairs timed as plain call spans
CALL_SPANS = [
    ("idx_io", "load_dataset"),
    ("dataset_ops", "fold_split"),
    ("distance_matrix", "build_matrix"),
    ("distance_matrix", "build_matrix_cached"),
    ("distance_matrix", "save_cache"),
    ("distance_matrix", "load_cache"),
    ("classifier", "predict_labels"),
    ("classifier", "classify_streaming"),
    ("crossval", "cross_validate"),
    ("crossval", "write_crossval_csv"),
    ("stats", "evaluate"),
    ("stats", "two_proportion_test"),
]


class Tracer:
    """Spans of one command, kept in memory until `dump`."""

    def __init__(self, capture_dir: Path, capture_rows: list[int]):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.capture_dir = capture_dir
        self.capture_rows = capture_rows
        self.matrix_calls = 0
        self.evaluate_calls = 0

    def open(self, name: str, **attrs) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent, **attrs})
        return len(self.spans) - 1

    def close(self, sid: int, **attrs) -> None:
        self.spans[sid]["end"] = time.perf_counter()
        self.spans[sid].update(attrs)

    def call(self, qualname: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(qualname)
            self.stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.close(sid)
            self._annotate(qualname, sid, signature.bind(*args, **kwargs).arguments, result)
            return result
        signature = inspect.signature(fn)
        return wrapper

    def _annotate(self, qualname, sid, bound, result):
        # arguments are looked up by name, so a renamed one drops an
        # attribute rather than the command
        span = self.spans[sid]
        if qualname == "idx_io.load_dataset":
            span["bytes"] = int(result.images.nbytes + result.labels.nbytes)
        elif qualname.endswith("_cache") and "path" in bound:
            span["bytes"] = os.path.getsize(bound["path"])
        elif qualname == "classifier.predict_labels":
            span["rows"] = int(len(result))
        elif qualname == "stats.evaluate" and {"predictions", "metric"} <= bound.keys():
            metric = bound["metric"].cli_name
            np.save(self.capture_dir / f"pred_{self.evaluate_calls}_{metric}.npy",
                    np.asarray(bound["predictions"]))
            self.evaluate_calls += 1

    def blocks(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            called = time.perf_counter()
            bound = signature.bind(*args, **kwargs).arguments
            call = self.matrix_calls
            self.matrix_calls += 1
            gen = fn(*args, **kwargs)
            return self._stream(gen, call, called, bound["metric"].cli_name,
                                len(bound["train"]))
        signature = inspect.signature(fn)
        return wrapper

    def _stream(self, gen, call, called, metric, n_train):
        wanted = {}
        index = 0
        try:
            while True:
                sid = self.open("distance_matrix.next_block", call=call, metric=metric)
                try:
                    lo, block = next(gen)
                except StopIteration:
                    self.close(sid, cells=0)
                    return
                self.close(sid, cells=int(block.size), index=index)
                if index == 0:
                    self.spans[sid]["since_call"] = self.spans[sid]["end"] - called
                index += 1
                for r in self.capture_rows:
                    if lo <= r < lo + block.shape[0]:
                        wanted[r] = np.array(block[r - lo])
                yield lo, block
        finally:
            gen.close()
            if wanted:
                rows = sorted(wanted)
                np.savez(self.capture_dir / f"rows_{call}_{metric}.npz",
                         rows=np.array(rows), values=np.stack([wanted[r] for r in rows]),
                         n_train=n_train)

    def install(self, package) -> None:
        """Swap each traced function for its wrapper wherever it is bound."""
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        wrappers = [self.call(f"{mod}.{fn}", getattr(sys.modules[f"knndigits.{mod}"], fn))
                    for mod, fn in CALL_SPANS
                    if hasattr(sys.modules.get(f"knndigits.{mod}"), fn)]
        dm = sys.modules["knndigits.distance_matrix"]
        if hasattr(dm, "iter_matrix_blocks"):
            wrappers.append(self.blocks(dm.iter_matrix_blocks))
        for wrapper in wrappers:
            original = wrapper.__wrapped__
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def dump(self, path: Path, **extra) -> None:
        path.write_text(json.dumps({"spans": self.spans, **extra}))


def main(argv: list[str]) -> int:
    spans_path, capture_dir, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON CAPTURE_DIR -- <cli args>")
    rows = os.environ.get("PERFBENCH_CAPTURE_ROWS", "")
    tracer = Tracer(Path(capture_dir), [int(r) for r in rows.split(",") if r])

    import knndigits
    import knndigits.cli
    tracer.install(knndigits)
    count = getattr(sys.modules["knndigits.distance_matrix"], "kernel_eval_count", None)
    cells_before = count() if count else None
    root = tracer.open("cli.main")
    tracer.stack.append(root)
    try:
        code = knndigits.cli.main(cli_args)
    finally:
        tracer.stack.pop()
        tracer.close(root)
        cells = count() - cells_before if count else None
        tracer.dump(Path(spans_path), kernel_cells=cells)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
