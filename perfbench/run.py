"""wavfusion training benchmark.

    python3 perfbench/run.py --workload paper-b8 --seed 1 --seconds 55 --trace 0

Run from any directory of a source checkout: the program is imported from
the checkout's ``src/`` and nowhere else, and the run fails (exit 2, no
result line) when it is absent. Inputs come from ``data.generate_synthetic``
with the given seed, written under ``.bench_work/`` and removed afterwards.

Untimed set-up is ``data.load_dataset``, ``train.build_model`` and
``optim.Adam`` (repeated; ``setup_s`` is the median). Then one closed-loop
client runs training steps for ``--seconds``, each exactly the inner loop of
``train.train`` (``batch_objective``, ``backward``, ``Adam.step``,
``zero_grad``) in the batch order ``train.train`` uses. Between steps it
scores chunks of held-out utterances with ``train.evaluate``, for about 15%
of the time. Single process, BLAS threads and the garbage collector at their
defaults.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` is a separate
run that wraps the program's public calls in spans (see ``tracing.py``) and
reports per-layer metrics; its spans go to ``.bench_work/traces/``.

Correctness checks run beside the timed work (see ``checks.py``); a step or
evaluation chunk that raises or fails one counts as failed. Human-readable
lines come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks
import tracing
from tracing import END, NAME, START
from workloads import CLASSES, COMMON, DIMS, PER_CLASS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

SETUP_REPS = 9
EVAL_SHARE = 0.15         # of the untraced run's time spent in timed evaluation
TRAIN_SHARE = 0.8         # of the traced run's --seconds for training steps
MIN_STEPS = 101           # so that at least 10 steps lie above the p90
CHECK_EVERY = 10          # margin-oracle check on every 10th step
FINGERPRINT_STEPS = 8
COUNTED_STEPS = 8         # fixed-length traced pass that feeds the exact counters
EVAL_CHUNK = 40
ALLOC_STEPS = 3           # steps of the tracemalloc pass
MIN_OVERHEAD_STEPS = 3    # per side of the traced/untraced comparison

END_TO_END = {
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "train_samples_per_s": "samples/s",
    "eval_utt_per_s": "utt/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
MAX_DEEP = 3
PER_LAYER = {
    "tensor.backward_ms": "ms",
    "tensor.tensors_per_step": "count",
    "runtime.gc_ms_per_step": "ms",
    "runtime.gc_gen2_per_step": "count",
    "losses.margin_loss_ms": "ms",
    "losses.build_triplets_ms": "ms",
    "losses.triplets_per_step": "count",
    "losses.active_hinge_frac": "fraction",
    "losses.cross_entropy_ms": "ms",
    "model.audio_stack_ms": "ms",
    **{f"model.deep.{i}_ms": "ms" for i in range(MAX_DEEP)},
    "optim.adam_step_ms": "ms",
    "model.text_branch_ms": "ms",
    "model.visual_branch_ms": "ms",
    "layers.lvc_ms": "ms",
    "model.shared_encode_ms": "ms",
    "train.batch_objective_self_ms": "ms",
    "train.evaluate_ms_per_utt": "ms",
    "data.load_dataset_ms": "ms",
    "model.build_ms": "ms",
    "runtime.alloc_peak_mb": "MB",
    "trace.overhead_frac": "fraction",
}

clock = time.perf_counter


def import_program():
    """The wavfusion modules of this checkout, or ImportError."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import wavfusion
    if not Path(wavfusion.__file__).resolve().is_relative_to(src):
        raise ImportError(f"wavfusion resolved to {wavfusion.__file__}, outside {src}")
    from wavfusion import config, data, losses, optim, oracles, rng, tensor, train
    from wavfusion.layers import LvcBlock
    from wavfusion.model import GatedCrossModalLayer, WavFusionModel
    return SimpleNamespace(config=config, data=data, losses=losses, optim=optim,
                           oracles=oracles, rng=rng, tensor=tensor, train=train,
                           Tensor=tensor.Tensor, Adam=optim.Adam, LvcBlock=LvcBlock,
                           GatedCrossModalLayer=GatedCrossModalLayer,
                           WavFusionModel=WavFusionModel)


class Bench:
    """One workload's data, model and optimizer, and the operations timed on them."""

    def __init__(self, wf, workload, seed: int, data_dir: Path):
        self.wf = wf
        wf.data.generate_synthetic(
            wf.data.SynthSpec(classes=CLASSES, per_class=PER_CLASS, dims=dict(DIMS),
                              seq_len=dict(workload.seq_len), seed=seed), data_dir)
        self.cfg = wf.config.ExperimentConfig(**workload.model, **COMMON, seed=seed,
                                              data_dir=str(data_dir)).validate()
        self.mask = self.cfg.mask()
        self.attempted = 0
        self.failed = 0
        self.margin_checks = 0
        self.step_index = 0
        self.losses: list = []
        self.samples = 0

    def setup(self) -> float:
        """Load the dataset, build the model and its optimizer; wall seconds."""
        cfg, wf = self.cfg, self.wf
        started = clock()
        dataset = wf.data.load_dataset(cfg.data_dir)
        model = wf.train.build_model(cfg, dataset)
        opt = wf.optim.Adam(model.named_parameters(), cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
        elapsed = clock() - started
        self.dataset, self.model, self.opt = dataset, model, opt
        train_set, _, self.held_out = self.wf.data.split(
            dataset.samples, wf.data.RatioSplit(cfg.train_frac, cfg.val_frac, cfg.test_frac,
                                                cfg.seed))
        self._batches = self._batch_order(train_set)
        self._eval_at = 0
        self.eval_passes = 0
        return elapsed

    def _batch_order(self, train_set):
        epoch = 0
        while True:
            epoch += 1
            order = self.wf.rng.Prng(self.cfg.seed, stream=10_000 + epoch).permutation(len(train_set))
            for start in range(0, len(order), self.cfg.batch_size):
                yield [train_set[i] for i in order[start:start + self.cfg.batch_size]]

    def _record(self, error) -> bool:
        self.attempted += 1
        if error:
            self.failed += 1
            print(f"perfbench: {error}", file=sys.stderr)
        return not error

    def step(self, around=None):
        """One training step inside ``around``; wall seconds, or None if it failed."""
        cfg, wf, model, opt = self.cfg, self.wf, self.model, self.opt
        chunk = next(self._batches)
        index = self.step_index
        self.step_index += 1
        try:
            checked, error = None, None
            if index % CHECK_EVERY == 0:
                entries, embeddings = checks.margin_embeddings(wf, model, chunk, self.mask)
                checked, error = checks.margin_against_oracle(wf, entries, embeddings, cfg.alpha)
                self.margin_checks += 1
            with around or contextlib.nullcontext():
                started = clock()
                loss, _, margin, _ = wf.train.batch_objective(model, chunk, self.mask, cfg.alpha,
                                                              cfg.balance, cfg.strict_cosine)
                value = float(loss.data)
                loss.backward()
                opt.step()
                opt.zero_grad()
                elapsed = clock() - started
        except Exception:
            opt.zero_grad()
            self._record(f"step {index} raised:\n{traceback.format_exc()}")
            return None
        self.losses.append(value)
        error = error or checks.finite_loss(value)
        if not error and checked is not None:
            error = checks.step_margin(float(margin.data), checked)
        if not self._record(error):
            return None
        self.samples += len(chunk)
        return elapsed

    def evaluate(self, chunk, check: bool, around=None):
        """``train.evaluate`` on ``chunk`` inside ``around``; wall seconds or None."""
        try:
            with around or contextlib.nullcontext():
                started = clock()
                _, _, predictions, _ = self.wf.train.evaluate(self.model, chunk, self.mask)
                elapsed = clock() - started
            error = None
            if check:
                error = checks.eval_matches_objective(self.wf, self.model, chunk, self.mask,
                                                      self.cfg.alpha, predictions)
        except Exception:
            self._record(f"evaluate raised:\n{traceback.format_exc()}")
            return None
        return elapsed if self._record(error) else None

    def next_eval(self, around=None):
        """``evaluate`` on the next chunk of held-out utterances, cycling
        through them; the first pass is checked. Returns (utterances, wall
        seconds or None on failure)."""
        start = self._eval_at
        chunk = self.held_out[start:start + EVAL_CHUNK]
        check = self.eval_passes == 0
        if start + EVAL_CHUNK >= len(self.held_out):
            self._eval_at, self.eval_passes = 0, self.eval_passes + 1
        else:
            self._eval_at = start + EVAL_CHUNK
        return len(chunk), self.evaluate(chunk, check, around)


class AllocProbe:
    """Peak traced allocation (bytes) of each region entered, via tracemalloc."""

    def __init__(self):
        self.peaks: list = []

    def __enter__(self):
        tracemalloc.reset_peak()
        self._base = tracemalloc.get_traced_memory()[0]
        return self

    def __exit__(self, *exc):
        self.peaks.append(tracemalloc.get_traced_memory()[1] - self._base)
        return False


# -- the two runs -------------------------------------------------------------------


def quantile(values, q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def run_untraced(bench: Bench, seconds: float):
    setup = [bench.setup() for _ in range(SETUP_REPS)]
    gc.collect()
    started = clock()
    steps, evals = [], []
    eval_busy = 0.0
    # Evaluation chunks are interleaved with training steps by time share, so
    # both metrics sample the same stretch of machine time.
    while clock() - started < seconds or bench.step_index < MIN_STEPS:
        if eval_busy < EVAL_SHARE * (clock() - started):
            attempt = clock()
            n, elapsed = bench.next_eval()
            if elapsed is not None:
                evals.append((n, elapsed))
            eval_busy += clock() - attempt if elapsed is None else elapsed
        else:
            elapsed = bench.step()
            if elapsed is not None:
                steps.append(elapsed)
    rates = [n / s for n, s in evals]
    p90 = quantile(steps, 90)
    metrics = {
        "step_ms_p50": 1e3 * statistics.median(steps),
        "step_ms_p90": 1e3 * p90,
        "train_samples_per_s": bench.samples / sum(steps),
        "eval_utt_per_s": sum(n for n, _ in evals) / sum(s for _, s in evals),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "step_ms_p50": f"median of {len(steps)} steps",
        "step_ms_p90": f"{sum(s > p90 for s in steps)} of {len(steps)} steps above it; "
                       f"max {1e3 * max(steps):.1f} ms",
        "train_samples_per_s": f"{bench.samples} samples in {sum(steps):.2f} s of steps",
        "eval_utt_per_s": f"{len(rates)} chunks of <= {EVAL_CHUNK} utterances; chunk rate "
                          f"median {statistics.median(rates):.1f}, p10 {quantile(rates, 10):.1f}",
        "setup_s": f"median of {len(setup)}; max {max(setup):.4f} s",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return metrics, notes, {"step_s": steps, "eval_chunk_s": evals, "setup_s": setup}


def run_traced(bench: Bench, seconds: float, trace_path: Path):
    tracer = tracing.Tracer(bench.wf)
    tracer.step = "setup"
    with tracer:
        for _ in range(SETUP_REPS):
            bench.setup()
    tracer.watch(bench.model)
    gc.collect()
    started = clock()

    # Fixed-length pass first, so that its counts repeat exactly for a seed.
    counted, tensors, triplets, active = [], [], [], []
    for _ in range(COUNTED_STEPS):
        tracer.step = bench.step_index
        before = tracer.tensors
        tracer.margin_calls.clear()
        if bench.step(tracer) is not None:
            counted.append(tracer.step)
            tensors.append(tracer.tensors - before)
            triplets.append(sum(len(t) for _, t, _ in tracer.margin_calls))
            active.append(sum(tracing.active_hinges(v, t, a) for v, t, a in tracer.margin_calls))
    tracer.margin_calls.clear()

    # Then traced and untraced steps mix, for the tracing overhead. A seeded
    # coin, not strict alternation, picks which: full collections come about
    # every other step on some workloads and would all land on one side.
    coin = random.Random(bench.cfg.seed)
    traced_times, plain_times, traced_steps = [], [], list(counted)
    while (clock() - started < TRAIN_SHARE * seconds
           or min(len(traced_times), len(plain_times)) < MIN_OVERHEAD_STEPS):
        traced = coin.random() < 0.5
        tracer.step = bench.step_index
        elapsed = bench.step(tracer if traced else None)
        tracer.margin_calls.clear()
        if elapsed is not None:
            (traced_times if traced else plain_times).append(elapsed)
            if traced:
                traced_steps.append(tracer.step)

    tracemalloc.start()
    try:
        probe = AllocProbe()
        for _ in range(ALLOC_STEPS):
            bench.step(probe)
    finally:
        tracemalloc.stop()

    tracer.step = "eval"
    evals = []
    while bench.eval_passes == 0 or clock() - started < seconds:
        n, elapsed = bench.next_eval(tracer)
        if elapsed is not None:
            evals.append((n, elapsed))
    tracer.write(trace_path)

    spans = tracer.spans
    own = tracing.self_times(spans)

    def step_ms(name, use_own=False):
        return 1e3 * statistics.median(tracing.per_step(spans, name, traced_steps,
                                                        own if use_own else None))

    def span_ms(name):
        return 1e3 * statistics.median(s[END] - s[START] for s in spans if s[NAME] == name)

    eval_spans = [s for s in spans if s[NAME] == "train.evaluate"]
    traced_set, counted_set = set(traced_steps), set(counted)
    gc_in = [e for e in tracer.gc_events if e[3] in traced_set]
    metrics = {
        "tensor.backward_ms": step_ms("tensor.backward"),
        "tensor.tensors_per_step": statistics.median(tensors),
        "runtime.gc_ms_per_step": 1e3 * sum(e[1] - e[0] for e in gc_in) / len(traced_steps),
        "runtime.gc_gen2_per_step": sum(1 for e in tracer.gc_events
                                        if e[2] == 2 and e[3] in counted_set) / len(counted),
        "losses.margin_loss_ms": step_ms("losses.margin_loss"),
        "losses.build_triplets_ms": step_ms("losses.build_triplets"),
        "losses.triplets_per_step": statistics.median(triplets),
        "losses.active_hinge_frac": sum(active) / max(sum(triplets), 1),
        "losses.cross_entropy_ms": step_ms("losses.cross_entropy"),
        "model.audio_stack_ms": step_ms("model.audio_stack"),
        **{f"model.deep.{i}_ms": step_ms(f"model.deep.{i}") for i in range(MAX_DEEP)},
        "optim.adam_step_ms": step_ms("optim.adam_step"),
        "model.text_branch_ms": step_ms("model.text_branch"),
        "model.visual_branch_ms": step_ms("model.visual_branch"),
        "layers.lvc_ms": step_ms("layers.lvc"),
        "model.shared_encode_ms": step_ms("model.shared_encode"),
        "train.batch_objective_self_ms": step_ms("train.batch_objective", use_own=True),
        "train.evaluate_ms_per_utt": 1e3 * statistics.median(
            (s[END] - s[START]) / n for s, (n, _) in zip(eval_spans, evals)),
        "data.load_dataset_ms": span_ms("data.load_dataset"),
        "model.build_ms": span_ms("model.build"),
        "runtime.alloc_peak_mb": statistics.median(probe.peaks) / 2**20,
        "trace.overhead_frac": statistics.median(traced_times) / statistics.median(plain_times) - 1.0,
    }
    notes = {
        "tensor.tensors_per_step": f"median over the first {len(counted)} steps (exact)",
        "runtime.gc_ms_per_step": f"mean over {len(traced_steps)} traced steps",
        "runtime.gc_gen2_per_step": f"mean over the first {len(counted)} steps (exact)",
        "losses.triplets_per_step": f"median over the first {len(counted)} steps (exact)",
        "losses.active_hinge_frac": f"{sum(active)} of {sum(triplets)} triplets (exact)",
        "train.evaluate_ms_per_utt": f"median of {len(eval_spans)} chunks",
        "runtime.alloc_peak_mb": f"median of {len(probe.peaks)} steps under tracemalloc",
        "trace.overhead_frac": f"traced p50 of {len(traced_times)} steps against untraced p50 "
                               f"of {len(plain_times)}",
    }
    notes.update({k: f"per-step median over {len(traced_steps)} traced steps"
                  for k, u in PER_LAYER.items() if u == "ms" and k not in notes})
    notes.update({"data.load_dataset_ms": f"median of {SETUP_REPS} set-ups",
                  "model.build_ms": f"median of {SETUP_REPS} set-ups",
                  "train.batch_objective_self_ms": f"per-step median self time over "
                                                   f"{len(traced_steps)} traced steps"})
    return metrics, notes, {"traced_step_s": traced_times, "untraced_step_s": plain_times}


# -- environment ---------------------------------------------------------------------


def blas_threads():
    """Thread count OpenBLAS reports, asked through its own C entry point."""
    libs = sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return "unknown"


def git_commit():
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas_name,
            "blas_threads": blas_threads(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "gc_threshold": list(gc.get_threshold()), "commit": git_commit()}


# -- entry point ---------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        wf = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-s{args.seed}"
    scratch = WORK / f"{tag}-p{os.getpid()}"
    (WORK / "traces").mkdir(parents=True, exist_ok=True)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(wf, workload, args.seed, scratch / "data")
        if args.trace:
            metrics, notes, raw = run_traced(bench, args.seconds, WORK / "traces" / f"{tag}.jsonl")
            units = PER_LAYER
        else:
            metrics, notes, raw = run_untraced(bench, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    losses = bench.losses[:FINGERPRINT_STEPS]
    correct = bench.failed == 0 and bench.margin_checks > 0
    env = environment()
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:14.6g} {unit:10s} {notes.get(name, '')}")
    print(f"  failed_frac {bench.failed / max(bench.attempted, 1):g} "
          f"({bench.failed} of {bench.attempted} operations; "
          f"{bench.margin_checks} margin-oracle checks)")
    print(f"  loss_fingerprint {checks.fingerprint(losses)[:16]} "
          f"first {len(losses)} step losses {[repr(x) for x in losses]}")
    print("env " + json.dumps(env))
    result = {"correct": correct, "attempted": bench.attempted, "failed": bench.failed,
              "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                          for name, unit in units.items()}}
    record = dict(result, notes=notes, env=env, first_losses=losses,
                  loss_fingerprint=checks.fingerprint(losses), raw=raw)
    (WORK / "results" / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
