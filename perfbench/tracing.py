"""Span tracing around the package's public layer boundaries.

Spans are recorded from outside the package: :func:`install` replaces each
traced function at the name its callers look up (a module attribute or a
class attribute) with a wrapper that records (name, start, end, parent,
run id) in memory, and :func:`uninstall` puts the originals back.  Several
modules import functions by name, so the same function is wrapped at every
such name, e.g. ``cells.sigmoid`` as well as ``numerics.sigmoid``.

An untraced run installs nothing.  The traced run derives per-layer busy
time, self time (a span's duration minus its child spans) and work counts
from the recorded spans.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

from myograsp import cells, cli, datapipe, metrics, network, numerics, splits, synthgen, training

# Each per-layer metric: (name, unit, better, the end-to-end metric and
# workload it is expected to move).  BENCHMARK.json lists the same names.
LAYER_METRICS = [
    ("numerics.sigmoid_s", "s", "lower",
     "windows_per_s on both train workloads; infer_windows_per_s on every workload"),
    ("numerics.sigmoid_calls", "count", "lower", "(work count, moves nothing by itself)"),
    ("numerics.sigmoid_elems", "count", "higher", "(work count, moves nothing by itself)"),
    ("cells.fwd.d8_s", "s", "lower",
     "windows_per_s and infer_windows_per_s on every workload"),
    ("cells.fwd.dH_s", "s", "lower",
     "windows_per_s and infer_windows_per_s on every workload; dominant on train-gru-paper"),
    ("cells.bwd.d8_s", "s", "lower", "windows_per_s on both train workloads"),
    ("cells.bwd.dH_s", "s", "lower",
     "windows_per_s on both train workloads; dominant on train-gru-paper"),
    ("cells.fwd_calls", "count", "higher", "(work count, moves nothing by itself)"),
    ("cells.bwd_calls", "count", "higher", "(work count, moves nothing by itself)"),
    ("cells.fwd_flop", "computed_flop", "higher",
     "(GEMM flop computed from shapes; achieved rate = flop / busy time)"),
    ("cells.bwd_flop", "computed_flop", "higher",
     "(GEMM flop computed from shapes; achieved rate = flop / busy time)"),
    ("network.forward_self_s", "s", "lower", "windows_per_s on train-sru-ada only (DANN heads)"),
    ("network.backward_self_s", "s", "lower", "windows_per_s on train-sru-ada only (DANN heads)"),
    ("training.adam_step_s", "s", "lower", "nothing (<1% of a step)"),
    ("training.loss_s", "s", "lower", "nothing (<1% of a step)"),
    ("training.predict_s", "s", "lower",
     "infer_windows_per_s and predict_peak_mb on every workload"),
    ("training.train_self_s", "s", "lower", "windows_per_s on both train workloads"),
    ("training.steps", "count", "higher", "(work count)"),
    ("datapipe.materialize_s", "s", "lower",
     "windows_per_s by <1% on the train workloads; more on cli-pipeline infer_windows_per_s"),
    ("datapipe.materialize_windows", "count", "higher", "(work count)"),
    ("datapipe.channel_stats_s", "s", "lower", "setup_s on every workload"),
    ("datapipe.align_s", "s", "lower",
     "windows_per_s on cli-pipeline; setup_s on the train workloads"),
    ("datapipe.lowpass_s", "s", "lower",
     "windows_per_s on cli-pipeline; setup_s on the train workloads"),
    ("datapipe.make_windows_s", "s", "lower",
     "windows_per_s on cli-pipeline; setup_s on the train workloads"),
    ("datapipe.write_stream_csv_s", "s", "lower", "windows_per_s on cli-pipeline only"),
    ("datapipe.read_stream_csv_s", "s", "lower", "windows_per_s on cli-pipeline only"),
    ("datapipe.csv_bytes", "B", "lower", "windows_per_s on cli-pipeline only"),
    ("datapipe.save_archive_s", "s", "lower", "windows_per_s on cli-pipeline"),
    ("datapipe.load_archive_s", "s", "lower",
     "windows_per_s, infer_windows_per_s and setup_s on cli-pipeline"),
    ("datapipe.archive_bytes", "B", "lower",
     "windows_per_s and infer_windows_per_s on cli-pipeline"),
    ("splits.make_split_s", "s", "lower",
     "setup_s and cli-pipeline infer_windows_per_s, predicted too small to move either"),
    ("metrics.score_s", "s", "lower", "nothing (reported so the layer is measured)"),
    ("synthgen.generate_session_s", "s", "lower",
     "windows_per_s on cli-pipeline; setup_s elsewhere"),
    ("synthgen.linear_baseline_s", "s", "lower",
     "windows_per_s on cli-pipeline; setup_s elsewhere"),
    ("synthgen.rows", "count", "higher", "(work count)"),
    ("cli.generate_s", "s", "lower", "windows_per_s on cli-pipeline"),
    ("cli.preprocess_s", "s", "lower", "windows_per_s on cli-pipeline"),
    ("cli.evaluate_s", "s", "lower", "windows_per_s and infer_windows_per_s on cli-pipeline"),
    ("cli.self_s", "s", "lower",
     "both cli-pipeline rates (config resolution, orchestration, latent CSVs of generate)"),
    ("tracing.spans", "count", "lower", "(spans recorded in the traced segment)"),
    ("tracing.overhead_frac", "1", "lower",
     "(untraced minus traced main rate, over the untraced main rate)"),
]
for _cell in ("vanilla", "gru", "sru"):
    for _way in ("fwd", "bwd"):
        for _d in (8, 256):
            LAYER_METRICS.append((f"cells.{_cell}.{_way}.d{_d}_s", "s", "lower",
                                  "paper-scale kernel table (B=64, T=128, H=256), not gated"))


class Tracer:
    """In-memory span recorder; spans nest by call order (one thread)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []          # [name, start, end, parent index or -1, run id]
        self.counts = defaultdict(float)
        self._stack = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def totals(self):
        """(inclusive seconds, self seconds, span count), each keyed by span name."""
        incl = defaultdict(float)
        child = defaultdict(float)
        calls = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            incl[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
        return incl, self_s, calls


def _cell_width(params) -> str:
    """``dH`` for a layer whose input width equals its hidden size, else ``d8``."""
    hidden, width = next(iter(params.named()))[1].shape
    return "dH" if width == hidden else "d8"


def gemm_flop(params, batch: int, steps: int, backward: bool) -> int:
    """Matrix-product flop of one cell pass, computed from parameter shapes.

    Counts 2*m*n*k per product and ignores elementwise work.  The backward
    pass computes, per forward product, one product for the input gradient
    and one for the weight gradient.
    """
    n = batch * steps
    if isinstance(params, cells.VanillaParams):
        h, d = params.W_h.shape
        fwd = 2 * n * (d * h + h * h + params.W_y.shape[0] * h)
    elif isinstance(params, cells.GruParams):
        h, d = params.W_z.shape
        fwd = 2 * n * 3 * (d * h + h * h)
    else:
        h, d = params.W.shape
        fwd = 2 * n * (3 + (params.W_p is not None)) * d * h
    return 2 * fwd if backward else fwd


def _count_cell_forward(counts, args, kwargs, out):
    params, x = args[0], args[1]
    counts["cells.fwd_flop"] += gemm_flop(params, x.shape[0], x.shape[1], False)


def _count_cell_backward(counts, args, kwargs, out):
    params, upstream = args[1], args[2]
    counts["cells.bwd_flop"] += gemm_flop(params, upstream.shape[0], upstream.shape[1], True)


def _targets():
    """(owner, attribute, span name or name function, counter) for every traced name."""

    def fixed(name):
        return lambda args: name

    def add(key, value_fn):
        def count(counts, args, kwargs, out):
            counts[key] += value_fn(args, out)
        return count

    def file_bytes(args, out):
        return os.path.getsize(args[0])

    score = fixed("metrics.score")
    t = [
        (numerics, "sigmoid", fixed("numerics.sigmoid"),
         add("numerics.sigmoid_elems", lambda a, o: o.size)),
        (cells, "sigmoid", fixed("numerics.sigmoid"),
         add("numerics.sigmoid_elems", lambda a, o: o.size)),
        (cells, "cell_forward", lambda a: "cells.fwd." + _cell_width(a[0]),
         _count_cell_forward),
        (cells, "cell_backward", lambda a: "cells.bwd." + _cell_width(a[1]),
         _count_cell_backward),
        (network.Network, "forward", fixed("network.forward"), None),
        (network.Network, "backward", fixed("network.backward"), None),
        (training, "train", fixed("training.train"), None),
        (training, "adam_step", fixed("training.adam_step"), None),
        (training, "mse_loss", fixed("training.loss"), None),
        (training, "cross_entropy_batch", fixed("training.loss"), None),
        (training, "predict", fixed("training.predict"), None),
        (cli, "predict", fixed("training.predict"), None),
        (datapipe.WindowSet, "materialize", fixed("datapipe.materialize"),
         add("datapipe.materialize_windows", lambda a, o: len(o[0]))),
        (datapipe, "channel_stats", fixed("datapipe.channel_stats"), None),
        (datapipe, "align", fixed("datapipe.align"), None),
        (datapipe, "lowpass", fixed("datapipe.lowpass"), None),
        (datapipe, "make_windows", fixed("datapipe.make_windows"), None),
        (datapipe, "write_stream_csv", fixed("datapipe.write_stream_csv"),
         add("datapipe.csv_bytes", file_bytes)),
        (datapipe, "read_stream_csv", fixed("datapipe.read_stream_csv"),
         add("datapipe.csv_bytes", file_bytes)),
        (datapipe, "save_archive", fixed("datapipe.save_archive"),
         add("datapipe.archive_bytes", file_bytes)),
        (datapipe, "load_archive", fixed("datapipe.load_archive"),
         add("datapipe.archive_bytes", file_bytes)),
        (splits, "make_split", fixed("splits.make_split"), None),
        (synthgen, "generate_session", fixed("synthgen.generate_session"),
         add("synthgen.rows", lambda a, o: len(o[0].timestamps_ms))),
        (synthgen, "linear_baseline_nrmse", fixed("synthgen.linear_baseline"), None),
        (cli, "main", fixed("cli.main"), None),
        (cli, "cmd_generate", fixed("cli.generate"), None),
        (cli, "cmd_preprocess", fixed("cli.preprocess"), None),
        (cli, "cmd_evaluate", fixed("cli.evaluate"), None),
    ]
    for owner in (metrics, training, cli, synthgen):
        for fn in ("rmse", "nrmse", "angle_ranges"):
            if hasattr(owner, fn):
                t.append((owner, fn, score, None))
    return t


def _wrap(tracer: Tracer, fn, name_fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name_fn(args))
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if count is not None:
            count(tracer.counts, args, kwargs, out)
        return out
    return traced


def install(tracer: Tracer):
    """Wrap every traced name; returns the originals for :func:`uninstall`."""
    saved = []
    for owner, attr, name_fn, count in _targets():
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(tracer, original, name_fn, count))
    return saved


def uninstall(saved) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric values from the recorded spans (0 for unexercised layers)."""
    incl, self_s, calls = tracer.totals()
    out = {
        "numerics.sigmoid_s": incl["numerics.sigmoid"],
        "numerics.sigmoid_calls": calls["numerics.sigmoid"],
        "cells.fwd.d8_s": incl["cells.fwd.d8"],
        "cells.fwd.dH_s": incl["cells.fwd.dH"],
        "cells.bwd.d8_s": incl["cells.bwd.d8"],
        "cells.bwd.dH_s": incl["cells.bwd.dH"],
        "cells.fwd_calls": calls["cells.fwd.d8"] + calls["cells.fwd.dH"],
        "cells.bwd_calls": calls["cells.bwd.d8"] + calls["cells.bwd.dH"],
        "network.forward_self_s": self_s["network.forward"],
        "network.backward_self_s": self_s["network.backward"],
        "training.adam_step_s": incl["training.adam_step"],
        "training.loss_s": incl["training.loss"],
        "training.predict_s": incl["training.predict"],
        "training.train_self_s": self_s["training.train"],
        "training.steps": calls["training.adam_step"],
        "metrics.score_s": incl["metrics.score"],
        "synthgen.generate_session_s": incl["synthgen.generate_session"],
        "synthgen.linear_baseline_s": incl["synthgen.linear_baseline"],
        "cli.generate_s": incl["cli.generate"],
        "cli.preprocess_s": incl["cli.preprocess"],
        "cli.evaluate_s": incl["cli.evaluate"],
        "cli.self_s": sum(self_s[k] for k in ("cli.main", "cli.generate",
                                              "cli.preprocess", "cli.evaluate")),
        "splits.make_split_s": incl["splits.make_split"],
        "tracing.spans": len(tracer.spans),
    }
    for key in ("materialize", "channel_stats", "align", "lowpass", "make_windows",
                "write_stream_csv", "read_stream_csv", "save_archive", "load_archive"):
        out[f"datapipe.{key}_s"] = incl[f"datapipe.{key}"]
    for key in ("numerics.sigmoid_elems", "cells.fwd_flop", "cells.bwd_flop",
                "datapipe.materialize_windows", "datapipe.csv_bytes",
                "datapipe.archive_bytes", "synthgen.rows"):
        out[key] = tracer.counts[key]
    return out


def self_time_table(tracer: Tracer) -> list:
    """[(span name, calls, inclusive s, self s)] sorted by self time."""
    incl, self_s, calls = tracer.totals()
    return sorted(((n, calls[n], incl[n], self_s[n]) for n in incl),
                  key=lambda row: -row[3])
