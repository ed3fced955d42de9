"""Training and evaluation loops.

Per batch: one packed forward pass runs every sample (a single graph per
batch), the per-modality shared embeddings of the whole batch form the
triplet pool for the margin loss, and the batch objective is task loss plus
the balance factor times the margin loss. Evaluation packs its samples the
same way, ``EVAL_CHUNK`` at a time. Deterministic mode is the default: batch
order, initialization and arithmetic depend only on the config and seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .checkpoint import load_model, save_model
from .config import ExperimentConfig, save_config
from .data import Dataset, load_dataset, split, write_atomic
from .errors import ConfigError, DataError
from .losses import Embeddings, build_triplets, cross_entropy, margin_loss, metrics, total_loss
from .model import WavFusionModel, check_samples
from .optim import Adam
from .rng import Prng
from .tensor import Tensor

# utterances per forward pass in ``evaluate``: a pass holds every activation
# of its utterances at once, so this bounds evaluation's transient memory
EVAL_CHUNK = 64


def build_model(cfg: ExperimentConfig, dataset: Dataset) -> WavFusionModel:
    mask = cfg.mask()
    dims = {}
    for m in mask:
        if m not in dataset.feature_dims:
            raise DataError(f"dataset provides no {m!r} features but config requests them")
        dims[m] = dataset.feature_dims[m]
    return WavFusionModel(
        dataset.num_classes, dims, d=cfg.d, heads=cfg.heads, n_shallow=cfg.n_shallow,
        n_deep=cfg.n_deep, lvc_centers=cfg.lvc_centers, lvc_enabled=cfg.lvc_enabled,
        seed=cfg.seed, dtype=np.dtype(cfg.precision).type)


def batch_objective(model: WavFusionModel, samples, mask, alpha: float, balance: float,
                    strict_cosine: bool = False):
    """Forward a batch; returns (total, task, margin, predictions)."""
    trace = model.forward_batch(samples, mask)
    labels = [sample.label for sample in samples]
    task = cross_entropy(trace.logits, labels)
    if balance != 0.0:
        shared = model.shared_encode(trace)
        # one row per entry, sample-major, then in mask order
        entries = [(m, label) for label in labels for m in mask]
        rows = T.concat([shared[m] for m in mask], axis=1).reshape((len(entries), model.d))
        margin = margin_loss(Embeddings(rows), build_triplets(entries), alpha, strict_cosine)
    else:
        margin = Tensor(np.zeros((), dtype=model.dtype))
    total = total_loss(task, margin, balance)
    return total, task, margin, trace.predictions()


def evaluate(model: WavFusionModel, samples, mask):
    """Argmax predictions and (ACC, WF1) over ``samples``, in packed forward
    passes of at most ``EVAL_CHUNK`` utterances. A pass with a non-finite
    logit raises ``RuntimeError`` (see ``_non_finite``)."""
    samples = list(samples)
    predictions = []
    with T.no_grad():
        # an empty list still makes one (failing) pass
        for start in range(0, len(samples) or 1, EVAL_CHUNK):
            chunk = samples[start:start + EVAL_CHUNK]
            trace = model.forward_batch(chunk, mask)
            if not np.isfinite(trace.logits.data).all():
                raise _non_finite(f"logits in the evaluation of utterances {start}.."
                                  f"{start + len(chunk) - 1}", model, trace)
            predictions += trace.predictions()
            del trace       # free this pass's activations before the next pass
    labels = [sample.label for sample in samples]
    acc, wf1 = metrics(predictions, labels, model.num_classes)
    return acc, wf1, predictions, labels


def _dataset_loss(model, samples, mask, cfg, epoch: int) -> float:
    total = 0.0
    with T.no_grad():
        for bi, start in enumerate(range(0, len(samples), cfg.batch_size)):
            chunk = samples[start:start + cfg.batch_size]
            loss, _, _, _ = batch_objective(model, chunk, mask, cfg.alpha, cfg.balance,
                                            cfg.strict_cosine)
            total += len(chunk) * _finite_loss(loss, f"validation loss in epoch {epoch} batch {bi}",
                                               model, chunk, mask)
    return total / len(samples)


def _finite_loss(loss: Tensor, what: str, model: WavFusionModel, samples, mask) -> float:
    """The value of a batch's loss. A non-finite one raises ``_non_finite``
    over the batch's forward pass, re-run without a graph."""
    value = float(loss.data)
    if np.isfinite(value):
        return value
    with T.no_grad():
        trace = model.forward_batch(samples, mask)
        model.shared_encode(trace)
    raise _non_finite(what, model, trace)


def _non_finite(what: str, model: WavFusionModel, trace) -> RuntimeError:
    """The error for a non-finite ``what``, naming where it starts: the first
    non-finite value of ``trace`` and the first parameter with one."""
    where = next((name for name, v in trace.all_values() if not np.isfinite(v).all()), "none")
    param = next((name for name, p in model.named_parameters()
                  if not np.isfinite(p.data).all()), "none")
    return RuntimeError(f"non-finite {what}; first non-finite value {where}, "
                        f"first non-finite parameter {param}")


@dataclass
class RunReport:
    seed: int
    config_text: str
    epoch_train_loss: list = field(default_factory=list)
    epoch_val_loss: list = field(default_factory=list)
    first_epoch_step_losses: list = field(default_factory=list)
    test_acc: float = float("nan")
    test_wf1: float = float("nan")
    wall_clock_s: float = 0.0         # printed by `wavfusion train`; not in to_text, so
                                      # identical runs write identical report.txt bytes

    def to_text(self) -> str:
        lines = ["# run report",
                 f"seed = {self.seed}",
                 f"epochs_run = {len(self.epoch_train_loss)}",
                 f"test_acc = {self.test_acc!r}",
                 f"test_wf1 = {self.test_wf1!r}",
                 "",
                 "[epochs]  epoch\ttrain_loss\tval_loss"]
        for i, (tr, va) in enumerate(zip(self.epoch_train_loss, self.epoch_val_loss), start=1):
            lines.append(f"{i}\t{tr!r}\t{va!r}")
        lines.append("")
        lines.append("[first_epoch_steps]")
        lines.extend(repr(x) for x in self.first_epoch_step_losses)
        lines.append("")
        lines.append("[config]")
        lines.append(self.config_text.rstrip())
        return "\n".join(lines) + "\n"


@dataclass
class TrainResult:
    report: RunReport
    model: WavFusionModel
    run_dir: Path
    splits: tuple  # (train, val, test) sample lists


def train(cfg: ExperimentConfig, dataset: Dataset | None = None,
          write_artifacts: bool = True) -> TrainResult:
    """Train per config; returns the best-validation model and its report."""
    cfg.validate()
    if dataset is None:
        dataset = load_dataset(cfg.data_dir, cfg.num_classes or None)
    mask = cfg.mask()
    check_samples(dataset.samples, mask)    # a pass finds it only once it holds the sample
    train_set, val_set, test_set = split(dataset.samples, cfg.split_policy())
    if not train_set:
        raise DataError("empty training split")

    model = build_model(cfg, dataset)
    params = model.named_parameters()
    opt = Adam(params, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)

    report = RunReport(seed=cfg.seed, config_text=cfg.to_text())
    best_val = float("inf")
    best_state = {name: p.data.copy() for name, p in params}
    started = time.monotonic()

    for epoch in range(1, cfg.epochs + 1):
        order = Prng(cfg.seed, stream=10_000 + epoch).permutation(len(train_set))
        epoch_losses = []
        for bi, start in enumerate(range(0, len(order), cfg.batch_size)):
            chunk = [train_set[i] for i in order[start:start + cfg.batch_size]]
            loss, _, _, _ = batch_objective(model, chunk, mask, cfg.alpha, cfg.balance,
                                            cfg.strict_cosine)
            value = _finite_loss(loss, f"loss in epoch {epoch} batch {bi}", model, chunk, mask)
            loss.backward()
            opt.step()
            opt.zero_grad()
            epoch_losses.append(value)
            if epoch == 1:
                report.first_epoch_step_losses.append(value)
        report.epoch_train_loss.append(float(np.mean(epoch_losses)))
        val_loss = (_dataset_loss(model, val_set, mask, cfg, epoch) if val_set
                    else float(np.mean(epoch_losses)))
        report.epoch_val_loss.append(val_loss)
        if val_loss <= best_val:
            best_val = val_loss
            best_state = {name: p.data.copy() for name, p in params}

    for name, p in params:
        p.data = best_state[name]
    if test_set:
        report.test_acc, report.test_wf1, preds, labels = evaluate(model, test_set, mask)
    report.wall_clock_s = time.monotonic() - started

    run_dir = cfg.resolved_out_dir()
    if write_artifacts:
        run_dir.mkdir(parents=True, exist_ok=True)
        save_config(run_dir / "config.cfg", cfg)
        save_model(run_dir / "model.wvfn", model)
        write_atomic(run_dir / "report.txt", report.to_text())
        if test_set:
            dump_predictions(run_dir / "predictions.tsv", test_set, preds)
    return TrainResult(report, model, run_dir, (train_set, val_set, test_set))


def dump_predictions(path, samples, predictions) -> None:
    lines = [f"{s.uid}\t{s.label}\t{p}" for s, p in zip(samples, predictions)]
    write_atomic(path, "\n".join(lines) + "\n")


def evaluate_checkpoint(checkpoint_path, cfg: ExperimentConfig, mask=None,
                        which: str = "test"):
    """Load a checkpoint against ``cfg`` and score one split of ``cfg.data_dir``
    with the modality ``mask`` (``wavfusion eval --eval-modalities``; default
    the config's), whose errors name that flag.

    Returns (acc, wf1, samples, predictions).
    """
    cfg.validate()
    dataset = load_dataset(cfg.data_dir, cfg.num_classes or None)
    model = build_model(cfg, dataset)
    load_model(checkpoint_path, model)
    train_set, val_set, test_set = split(dataset.samples, cfg.split_policy())
    chosen = {"train": train_set, "val": val_set, "test": test_set,
              "all": dataset.samples}.get(which)
    if chosen is None:
        raise ConfigError(f"unknown split {which!r}; pick train, val, test or all")
    if not chosen:
        raise DataError(f"split {which!r} is empty")
    try:    # cfg is valid and built the model, so only the mask can break its rules
        acc, wf1, predictions, _ = evaluate(model, chosen, tuple(mask) if mask else cfg.mask())
    except ConfigError as exc:
        raise ConfigError(f"--eval-modalities: {exc}") from None
    return acc, wf1, chosen, predictions
