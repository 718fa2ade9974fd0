"""The benchmark's workloads: set-up, the timed closed loop and output checks.

Load comes from one caller in one process, closed loop: each call into the
package returns before the next one starts.  Inputs are generated from the
workload seed; the package only ever sees the generated data, the seed as a
config value, and file paths.

Every operation (a ``training.train`` call counts its steps, a validation
pass, a CLI command) and every output check is counted in a
:class:`Ledger`; an exception, a non-zero exit code, a non-finite value or
a failed check counts as a failure and is never skipped.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np

from myograsp import cells, cli, datapipe, metrics, network, splits, synthgen, training
from myograsp.network import Network, NetworkConfig
from myograsp.numerics import derive_rng
from myograsp.training import TargetStats, TrainConfig

import tracing

FOLD = 0
STRIDE = 16   # window stride of every workload's dataset


@dataclass(frozen=True)
class TrainSpec:
    """A training workload: dataset shape, network and loop sizes."""
    cell: str
    hidden: int
    protocol: str
    ada: bool
    subjects: int
    sessions: int
    session_seconds: float
    batch: int = 64
    steps_per_call: int = 1       # one training.train call = one epoch of this many steps
    val_windows: int = 256
    setup_repeats: int = 3
    kernel_shape: tuple = (64, 128, 256)   # (B, T, H) of the kernel table


@dataclass(frozen=True)
class CliSpec:
    """The CLI workload: dataset shape for generate/preprocess, SRU checkpoint size."""
    subjects: int = 3
    sessions: int = 5
    session_seconds: float = 60.0
    hidden: int = 64
    setup_repeats: int = 3
    kernel_shape: tuple = (64, 128, 256)


WORKLOADS = {
    "train-gru-paper": TrainSpec(cell="gru", hidden=256, protocol="intra-session", ada=False,
                                 subjects=2, sessions=3, session_seconds=60.0,
                                 steps_per_call=1, setup_repeats=5),
    "train-sru-ada": TrainSpec(cell="sru", hidden=64, protocol="inter-subject", ada=True,
                               subjects=3, sessions=5, session_seconds=60.0,
                               steps_per_call=8, val_windows=1024),
    "cli-pipeline": CliSpec(),
}


def toy(spec):
    """The same workload at sizes that run in seconds (for the self-test)."""
    if isinstance(spec, CliSpec):
        return replace(spec, sessions=2, session_seconds=30.0, hidden=4, setup_repeats=2,
                       kernel_shape=(2, 8, 6))
    return replace(spec, hidden=6, sessions=min(spec.sessions, 2), session_seconds=30.0,
                   batch=8, steps_per_call=2, val_windows=8, setup_repeats=2,
                   kernel_shape=(2, 8, 6))


class Ledger:
    """Counts attempted and failed operations and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def op(self, what: str, fn, *args, weight: int = 1, **kwargs):
        """Run one timed operation; returns (result or None on failure, seconds)."""
        self.attempted += weight
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            self.failed += weight
            self.errors.append(f"{what}: {traceback.format_exc()}")
            print(f"[perfbench] operation failed: {what}\n{traceback.format_exc()}",
                  file=sys.stderr)
            return None, time.perf_counter() - t0
        return out, time.perf_counter() - t0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check failed: {what}")
            print(f"[perfbench] check failed: {what}", file=sys.stderr)
        return bool(ok)


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_alloc_mb(fn, *args, **kwargs):
    """(fn's result, peak MB allocated while it ran), measured with tracemalloc.

    Unlike the process's peak RSS this does not depend on how the allocator
    happened to reuse or return memory, so it repeats exactly for the same
    shapes.
    """
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / 2**20


# ---------------------------------------------------------------------------
# training workloads
# ---------------------------------------------------------------------------

@dataclass
class TrainState:
    net: Network
    train_src: datapipe.WindowSource
    probe_src: datapipe.WindowSource
    val_x: np.ndarray
    val_y: np.ndarray
    target_stats: TargetStats
    floor: float


def train_setup(spec: TrainSpec, seed: int):
    """Synthesise, preprocess, split, fit statistics and initialise the network.

    Returns (state, seconds spent in generate_session + preprocess_session,
    emg rows generated).
    """
    cfg = synthgen.SynthConfig(n_subjects=spec.subjects, sessions_per_subject=spec.sessions,
                               session_seconds=spec.session_seconds, seed=seed)
    sets, sessions = [], []
    data_s, rows, floor = 0.0, 0, None
    for subject in range(spec.subjects):
        for session in range(spec.sessions):
            t0 = time.perf_counter()
            emg, ang, _ = synthgen.generate_session(cfg, subject, session)
            ws, rec = datapipe.preprocess_session(emg, ang, stride=STRIDE)
            data_s += time.perf_counter() - t0
            rows += len(emg.timestamps_ms)
            if floor is None:
                floor = synthgen.linear_baseline_nrmse(emg, ang)
            sets.append(ws)
            sessions.append({"subject": subject, "session": session,
                             "t_start": float(rec.timestamps_ms[0]),
                             "t_end": float(rec.timestamps_ms[-1])})
    ws = datapipe.concat_windows(sets)
    plan = splits.make_split(spec.protocol, ws, sessions, FOLD, seed)
    train_idx = plan.indices(splits.TRAIN)
    val_idx = plan.indices(splits.VALIDATION)

    pick = np.random.default_rng(seed)
    subset = np.sort(pick.choice(train_idx, spec.steps_per_call * spec.batch, replace=False))
    val = np.sort(pick.choice(val_idx, spec.val_windows, replace=False))

    stats = datapipe.channel_stats(ws, train_idx)
    _, train_targets = ws.materialize(train_idx)
    target_stats = TargetStats.fit(train_targets)
    domains = plan.domain_labels[subset] if spec.ada else None
    train_src = datapipe.WindowSource(ws, subset, stats, domains)
    # training.train validates once per epoch; a two-window source keeps that
    # pass under 1% of the call, and validation is timed on its own below
    probe_src = datapipe.WindowSource(ws, val[:2], stats)
    val_x, val_y = ws.materialize(val)

    net_cfg = NetworkConfig(cell_type=spec.cell, hidden_size=spec.hidden,
                            predictor_hidden=spec.hidden, output_angles=ws.n_angles,
                            use_discriminator=spec.ada,
                            num_domains=plan.num_domains if spec.ada else 0)
    net = Network.init(net_cfg, derive_rng(seed, "init"))
    state = TrainState(net, train_src, probe_src, stats.apply(val_x), val_y,
                       target_stats, floor)
    return state, data_s, rows


def train_loop(spec: TrainSpec, state: TrainState, seconds: float, seed: int,
               ledger: Ledger) -> dict:
    """Alternate training.train calls and validation passes for ``seconds``.

    The network keeps training across calls; ``val_nrmse`` is taken after
    the first call, i.e. after a fixed number of steps from initialisation.
    The first validation pass runs under tracemalloc for its peak memory
    and is left out of the rate samples.
    """
    cfg = TrainConfig(max_epochs=1, patience=1, batch_size=spec.batch, seed=seed)
    n_train, n_val = len(state.train_src), len(state.val_x)
    out = {"train_rates": [], "val_rates": [], "val_nrmse": float("nan"), "peak_mb": 0.0}
    measured = 0.0
    first = True
    while measured < seconds or not out["val_rates"]:
        result, dt = ledger.op("training.train", training.train, state.net, state.train_src,
                               state.probe_src, cfg, state.target_stats,
                               weight=spec.steps_per_call)
        measured += dt
        if result is None:
            break
        out["train_rates"].append(n_train / dt)
        loss = result[1].epochs[0].train_loss
        ledger.check(np.isfinite(loss), f"training loss is finite ({loss})")

        if first:
            (preds, dt), out["peak_mb"] = peak_alloc_mb(
                ledger.op, "training.predict", training.predict, state.net, state.val_x)
        else:
            preds, dt = ledger.op("training.predict", training.predict, state.net, state.val_x)
        measured += dt
        if preds is None:
            break
        if first:
            out["val_nrmse"] = metrics.nrmse(
                state.target_stats.denormalize(preds), state.val_y,
                metrics.angle_ranges(state.val_y, clamp_zero=True))
            ledger.check(np.isfinite(out["val_nrmse"]), f"val_nrmse is finite ({out['val_nrmse']})")
            first = False
        else:
            out["val_rates"].append(n_val / dt)
            ledger.check(bool(np.all(np.isfinite(preds))), "validation outputs are finite")
    return out


def run_train(spec: TrainSpec, seed: int, seconds: float, traced: bool, workdir: str):
    ledger = Ledger()
    setup_times, data_rates = [], []
    for _ in range(spec.setup_repeats):
        t0 = time.perf_counter()
        state, data_s, rows = train_setup(spec, seed)
        setup_times.append(time.perf_counter() - t0)
        data_rates.append(rows / data_s)

    loop = train_loop(spec, state, seconds / 2 if traced else seconds, seed, ledger)
    e2e = {
        "setup_s": median(setup_times),
        "windows_per_s": median(loop["train_rates"]),
        "infer_windows_per_s": median(loop["val_rates"]),
        "predict_peak_mb": loop["peak_mb"],
        "nrmse": loop["val_nrmse"],
    }
    extra = {"data_rows_per_s": median(data_rates), "peak_rss_mb": peak_rss_mb(),
             "linear_baseline_nrmse": state.floor,
             "samples": {"setup_s": setup_times, "windows_per_s": loop["train_rates"],
                         "infer_windows_per_s": loop["val_rates"]}}
    if not traced:
        return e2e, extra, None, ledger

    def segment():
        fresh, _, _ = train_setup(spec, seed)
        return train_loop(spec, fresh, seconds / 2, seed, ledger)

    traced_loop, tracer = _traced(segment)
    ledger.check(traced_loop["val_nrmse"] == loop["val_nrmse"],
                 f"val_nrmse identical untraced/traced ({loop['val_nrmse']!r} vs "
                 f"{traced_loop['val_nrmse']!r})")
    layer = _layer_record(tracer, e2e["windows_per_s"], median(traced_loop["train_rates"]),
                          spec.kernel_shape, seed, ledger)
    return e2e, extra, layer, ledger


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------

def _command(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def make_checkpoint(spec: CliSpec, seed: int, archive: str, path: str):
    """Untrained SRU checkpoint carrying the archive's train-split statistics."""
    ws, meta = datapipe.load_archive(archive)
    plan = splits.make_split("inter-subject", ws, meta["sessions"], FOLD, seed)
    train_idx = plan.indices(splits.TRAIN)
    stats = datapipe.channel_stats(ws, train_idx)
    _, train_targets = ws.materialize(train_idx)
    target_stats = TargetStats.fit(train_targets)
    net = Network.init(NetworkConfig(cell_type="sru", hidden_size=spec.hidden,
                                     predictor_hidden=spec.hidden,
                                     output_angles=int(meta["n_angles"])),
                       derive_rng(seed, "init"))
    network.save_checkpoint(path, net, meta={
        "model": "sru", "protocol": "inter-subject", "fold": FOLD, "seed": seed,
        "ada": False, "mode": meta["mode"],
        "norm_mean": stats.mean.tolist(), "norm_std": stats.std.tolist(),
        "target_mean": target_stats.mean.tolist(),
        "target_std": target_stats.std.tolist()})
    return net, stats, target_stats, ws, plan.indices(splits.TEST)


def _last_nrmse(results: str) -> str | None:
    with open(results, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["metric"] == "nrmse"]
    return rows[-1]["value"] if rows else None


def cli_loop(spec: CliSpec, seed: int, seconds: float, workdir: str, ledger: Ledger) -> dict:
    """generate -> preprocess -> evaluate through cli.main until ``seconds`` are measured.

    After the first preprocess the checkpoint is created (timed as set-up)
    and the benchmark's own training.predict + metrics.nrmse on the same test
    split, untimed and under tracemalloc, gives the value every evaluate must
    append and the inference peak memory.
    """
    os.makedirs(workdir, exist_ok=True)
    data_dir = os.path.join(workdir, "data")
    archive = os.path.join(workdir, "samples.npz")
    ckpt = os.path.join(workdir, "sru.ckpt")
    results = os.path.join(workdir, "results.csv")
    gen_argv = ["generate", "--out", data_dir, "--subjects", str(spec.subjects),
                "--sessions", str(spec.sessions), "--seconds", str(spec.session_seconds),
                "--seed", str(seed)]
    pre_argv = ["preprocess", "--manifest", os.path.join(data_dir, "manifest.json"),
                "--out", archive, "--stride", str(STRIDE)]
    eval_argv = ["evaluate", "--checkpoint", ckpt, "--archive", archive, "--results", results]

    out = {"gen_rates": [], "pre_rates": [], "eval_rates": [], "pipeline_rates": [],
           "setup_times": [], "nrmse": float("nan"), "peak_mb": 0.0, "floor": None}
    rows = n_test = 0
    archive_digest = expected = None
    measured = 0.0
    while measured < seconds or expected is None:
        code, gen_s = ledger.op("myograsp generate", _command, gen_argv)
        measured += gen_s
        if not ledger.check(code == 0, f"generate exits 0 (got {code})"):
            break
        code, pre_s = ledger.op("myograsp preprocess", _command, pre_argv)
        measured += pre_s
        if not ledger.check(code == 0, f"preprocess exits 0 (got {code})"):
            break
        digest = _sha256(archive)
        if archive_digest is None:
            archive_digest = digest
            manifest = datapipe.read_manifest(os.path.join(data_dir, "manifest.json"))
            out["floor"] = manifest["linear_baseline_nrmse"]
            for entry in manifest["recordings"]:
                with open(os.path.join(data_dir, entry["emg"])) as fh:
                    rows += sum(1 for _ in fh) - 1
        else:
            ledger.check(digest == archive_digest, "archive is byte-identical across reruns")

        if expected is None:
            for _ in range(spec.setup_repeats):
                t0 = time.perf_counter()
                net, stats, target_stats, ws, test_idx = make_checkpoint(spec, seed, archive, ckpt)
                out["setup_times"].append(time.perf_counter() - t0)
            n_test = len(test_idx)
            xs, ys = ws.materialize(test_idx)
            xs = stats.apply(xs)
            (preds, _), out["peak_mb"] = peak_alloc_mb(
                ledger.op, "training.predict", training.predict, net, xs)
            if preds is None:
                break
            own = metrics.nrmse(target_stats.denormalize(preds), ys, metrics.angle_ranges(ys))
            ledger.check(np.isfinite(own), f"test nrmse is finite ({own})")
            expected = f"{own:.10g}"
            out["nrmse"] = own

        code, eval_s = ledger.op("myograsp evaluate", _command, eval_argv)
        measured += eval_s
        if not ledger.check(code == 0, f"evaluate exits 0 (got {code})"):
            break
        got = _last_nrmse(results)
        ledger.check(got == expected,
                     f"evaluate nrmse {got} equals predict + metrics.nrmse {expected}")
        out["gen_rates"].append(rows / gen_s)
        out["pre_rates"].append(rows / pre_s)
        out["eval_rates"].append(n_test / eval_s)
        out["pipeline_rates"].append(n_test / (gen_s + pre_s + eval_s))
    return out


def run_cli(spec: CliSpec, seed: int, seconds: float, traced: bool, workdir: str):
    ledger = Ledger()
    loop = cli_loop(spec, seed, seconds / 2 if traced else seconds,
                    os.path.join(workdir, "untraced"), ledger)
    e2e = {
        "setup_s": median(loop["setup_times"]),
        "windows_per_s": median(loop["pipeline_rates"]),
        "infer_windows_per_s": median(loop["eval_rates"]),
        "predict_peak_mb": loop["peak_mb"],
        "nrmse": loop["nrmse"],
    }
    extra = {"generate_rows_per_s": median(loop["gen_rates"]),
             "preprocess_rows_per_s": median(loop["pre_rates"]),
             "evaluate_windows_per_s": median(loop["eval_rates"]),
             "peak_rss_mb": peak_rss_mb(),
             "linear_baseline_nrmse": loop["floor"],
             "samples": {"setup_s": loop["setup_times"], "windows_per_s": loop["pipeline_rates"],
                         "infer_windows_per_s": loop["eval_rates"]}}
    if not traced:
        return e2e, extra, None, ledger

    traced_loop, tracer = _traced(lambda: cli_loop(
        replace(spec, setup_repeats=1), seed, seconds / 2,
        os.path.join(workdir, "traced"), ledger))
    ledger.check(traced_loop["nrmse"] == loop["nrmse"],
                 f"test nrmse identical untraced/traced ({loop['nrmse']!r} vs "
                 f"{traced_loop['nrmse']!r})")
    layer = _layer_record(tracer, e2e["windows_per_s"], median(traced_loop["pipeline_rates"]),
                          spec.kernel_shape, seed, ledger)
    return e2e, extra, layer, ledger


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def _traced(segment):
    tracer = tracing.Tracer(run_id=f"{os.getpid()}-{time.time_ns()}")
    saved = tracing.install(tracer)
    try:
        result = segment()
    finally:
        tracing.uninstall(saved)
    return result, tracer


def _layer_record(tracer, untraced_rate: float, traced_rate: float, kernel_shape,
                  seed: int, ledger: Ledger) -> dict:
    layer = tracing.layer_metrics(tracer)
    layer["tracing.overhead_frac"] = ((untraced_rate - traced_rate) / untraced_rate
                                      if untraced_rate else 0.0)
    layer.update(kernel_table(*kernel_shape, seed=seed, ledger=ledger))
    return {"metrics": layer, "self_times": tracing.self_time_table(tracer),
            "main_rate": {"untraced": untraced_rate, "traced": traced_rate}}


def kernel_table(batch: int, steps: int, hidden: int, seed: int, ledger: Ledger,
                 reps: int = 3) -> dict:
    """Median forward and backward seconds of each cell at D_in = 8 and D_in = H.

    Runs with no wrappers installed.  The ``d256`` names denote D_in = H.
    """
    rng = np.random.default_rng(seed)
    kinds = {
        "vanilla": (lambda d: cells.init_vanilla(d, hidden, hidden, rng),
                    cells.vanilla_forward, cells.vanilla_backward),
        "gru": (lambda d: cells.init_gru(d, hidden, rng), cells.gru_forward, cells.gru_backward),
        "sru": (lambda d: cells.init_sru(d, hidden, rng), cells.sru_forward, cells.sru_backward),
    }
    out = {}
    for name, (init, forward, backward) in kinds.items():
        for label, d in (("d8", 8), ("d256", hidden)):
            params = init(d)
            x = rng.standard_normal((batch, steps, d))
            fwd, bwd = [], []
            for _ in range(reps):
                t0 = time.perf_counter()
                y, trace = forward(params, x)
                t1 = time.perf_counter()
                _, dx, _ = backward(trace, params, np.ones_like(y))
                bwd.append(time.perf_counter() - t1)
                fwd.append(t1 - t0)
            ledger.check(bool(np.all(np.isfinite(y)) and np.all(np.isfinite(dx))),
                         f"{name} {label} kernel outputs are finite")
            out[f"cells.{name}.fwd.{label}_s"] = median(fwd)
            out[f"cells.{name}.bwd.{label}_s"] = median(bwd)
    return out


def run(name: str, seed: int, seconds: float, traced: bool, workdir: str, spec=None):
    """Run one workload; returns (end-to-end metrics, extra record fields,
    traced-run record or None, ledger).  ``spec`` overrides the workload's sizes."""
    spec = spec or WORKLOADS[name]
    runner = run_cli if isinstance(spec, CliSpec) else run_train
    try:
        return runner(spec, seed, seconds, traced, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
