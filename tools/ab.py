"""Step-by-step A/B of two source trees in one process.

    python3 tools/ab.py --parent HEAD~1 --workload margin-b16 --steps 200

The parent is ``src/`` of a git revision, unpacked with ``git archive``; the
change is this checkout's ``src/``. Both are imported as separately named
packages, build the workload's model and optimizer (``perfbench/workloads.py``,
read as plain data) and run the same training steps alternately, the side
that goes first alternating too. Two trees whose models name or order
their parameters differently, or write different checkpoint headers, are
refused: checkpoints and Adam's flat state follow the parameter order.
Before each step the parent's parameters are set to the change's, so the
differences printed are one step's.

Prints each side's median and quartiles of step time (forward, backward and
Adam, as ``perfbench`` times a step), the steps the change won, and the
largest difference in the loss and in any parameter gradient. After the
steps, both sides take the same parameters and run one no-grad forward pass
over the first 64 held-out utterances; the largest difference in their
logits is printed too, and whether their ``save_model`` bytes are equal.
``--exact`` exits 1 unless all three differences are 0 and the bytes equal.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def load_module(name: str, path: Path, package_dir: Path | None = None):
    """Import the file ``path`` (the package at ``package_dir``) as ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=None if package_dir is None else [str(package_dir)])
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def import_tree(src: Path, alias: str):
    """The program under ``src`` as the package ``alias``, none of its
    modules left from an earlier import under that alias."""
    for name in [n for n in sys.modules if n == alias or n.startswith(alias + ".")]:
        del sys.modules[name]
    pkg = load_module(alias, src / "wavfusion" / "__init__.py", src / "wavfusion")
    for name in ("checkpoint", "optim", "rng", "train"):
        importlib.import_module(f"{alias}.{name}")
    return pkg


def extract_src(ref: str, into: Path) -> Path:
    """``src/`` of the git revision ``ref``, unpacked under ``into``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into / "src"


class Side:
    """One tree's model and optimizer on the workload."""

    def __init__(self, pkg, workload, common: dict, seed: int, dataset):
        self.pkg = pkg
        self.cfg = pkg.config.ExperimentConfig(**workload.model, **common, seed=seed).validate()
        self.model = pkg.train.build_model(self.cfg, dataset)
        self.params = dict(self.model.named_parameters())
        self.opt = pkg.optim.Adam(self.model.named_parameters(), self.cfg.lr, self.cfg.beta1,
                                  self.cfg.beta2, self.cfg.eps)
        self.times: list = []

    def step(self, chunk, mask):
        """One timed training step; returns the loss and the gradients."""
        cfg = self.cfg
        started = time.perf_counter()
        loss, _, _, _ = self.pkg.train.batch_objective(self.model, chunk, mask, cfg.alpha,
                                                       cfg.balance, cfg.strict_cosine)
        loss.backward()
        paused = time.perf_counter()
        grads = {name: p.grad for name, p in self.params.items()}
        resumed = time.perf_counter()
        self.opt.step()
        self.opt.zero_grad()
        self.times.append(paused - started + time.perf_counter() - resumed)
        return float(loss.data), grads

    def checkpoint(self, path: Path) -> bytes:
        """The bytes ``save_model`` writes for this side's model."""
        self.pkg.checkpoint.save_model(path, self.model)
        return path.read_bytes()

    def logits(self, samples):
        """The logits of one no-grad packed forward pass over ``samples``."""
        with self.pkg.tensor.no_grad():
            return self.model.forward_batch(samples, self.cfg.mask()).logits.data


def batches(rng, train_set, size: int, seed: int):
    """Training batches in the order ``train.train`` draws them, epoch after epoch."""
    epoch = 0
    while True:
        epoch += 1
        order = rng.Prng(seed, stream=10_000 + epoch).permutation(len(train_set))
        for start in range(0, len(order), size):
            yield [train_set[i] for i in order[start:start + size]]


def compare(parent_src: Path, change_src: Path, workload_name: str, steps: int, seed: int) -> dict:
    """Run ``steps`` alternating steps per side; returns the summary figures."""
    bench = load_module("ab_workloads", WORKLOADS)
    workload = bench.WORKLOADS[workload_name]
    parent, change = import_tree(parent_src, "ab_parent"), import_tree(change_src, "ab_change")
    with tempfile.TemporaryDirectory() as tmp:
        change.data.generate_synthetic(change.data.SynthSpec(
            classes=bench.CLASSES, per_class=bench.PER_CLASS, dims=dict(bench.DIMS),
            seq_len=dict(workload.seq_len), seed=seed), tmp)
        dataset = change.data.load_dataset(tmp)
    a, b = sides = [Side(pkg, workload, bench.COMMON, seed, dataset) for pkg in (parent, change)]
    if list(a.params) != list(b.params):
        raise SystemExit("ab: the two trees name or order their parameters differently")
    if parent.checkpoint.architecture(a.model) != change.checkpoint.architecture(b.model):
        raise SystemExit("ab: the two trees write different checkpoint headers")
    train_set, val_set, test_set = change.data.split(dataset.samples, b.cfg.split_policy())
    loss_diff, grad_diff, worst = 0.0, 0.0, ""
    for i, chunk in zip(range(steps), batches(change.rng, train_set, b.cfg.batch_size, seed)):
        for name, p in a.params.items():
            p.data[...] = b.params[name].data
        results = {side: side.step(chunk, b.cfg.mask())
                   for side in (sides if i % 2 == 0 else sides[::-1])}
        (loss_a, grads_a), (loss_b, grads_b) = results[a], results[b]
        loss_diff = max(loss_diff, abs(loss_a - loss_b))
        for name, g in grads_b.items():
            ref = grads_a[name]
            if g is None and ref is None:
                continue
            diff = (float("inf") if g is None or ref is None
                    else float(np.max(np.abs(g.astype(np.float64) - ref))))
            if diff > grad_diff:
                grad_diff, worst = diff, name
    for name, p in a.params.items():
        p.data[...] = b.params[name].data
    held_out = (val_set + test_set)[:64]
    logit_diff = float(np.max(np.abs(b.logits(held_out).astype(np.float64)
                                     - a.logits(held_out))))
    with tempfile.TemporaryDirectory() as tmp:
        same_checkpoint = a.checkpoint(Path(tmp) / "a.wvfn") == b.checkpoint(Path(tmp) / "b.wvfn")
    return {"parent": a.times, "change": b.times,
            "wins": sum(ta > tb for ta, tb in zip(a.times, b.times)),
            "ratio": statistics.median(b.times) / statistics.median(a.times),
            "loss_diff": loss_diff, "grad_diff": grad_diff, "worst": worst,
            "logit_diff": logit_diff, "same_checkpoint": same_checkpoint}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent tree")
    parser.add_argument("--workload", required=True,
                        choices=sorted(load_module("ab_workloads", WORKLOADS).WORKLOADS),
                        help="a name in perfbench/workloads.py")
    parser.add_argument("--steps", type=int, default=100, help="training steps per side")
    parser.add_argument("--seed", type=int, default=1, help="seed of the data and the model")
    parser.add_argument("--exact", action="store_true",
                        help="exit 1 unless the loss, every gradient, the no-grad "
                             "logits and the checkpoint bytes are identical")
    args = parser.parse_args(argv)
    if args.steps < 2:
        parser.error("--steps must be at least 2")
    with tempfile.TemporaryDirectory() as tmp:
        try:
            parent_src = extract_src(args.parent, Path(tmp))
        except subprocess.CalledProcessError as e:
            parser.error(f"--parent {args.parent!r}: git archive failed: "
                         f"{e.stderr.decode(errors='replace').strip()}")
        r = compare(parent_src, ROOT / "src", args.workload, args.steps, args.seed)
    print(f"ab {args.workload} seed={args.seed} steps={args.steps} parent={args.parent}")
    for side in ("parent", "change"):
        q1, q2, q3 = statistics.quantiles(r[side], n=4)
        print(f"  {side}  median {1e3 * q2:.3f} ms [{1e3 * q1:.3f}, {1e3 * q3:.3f}]")
    print(f"  change/parent median {r['ratio']:.3f}; change faster in {r['wins']} of "
          f"{args.steps} steps")
    print(f"  max |loss diff| {r['loss_diff']:.3e}; max |gradient diff| {r['grad_diff']:.3e}"
          + (f" ({r['worst']})" if r["worst"] else ""))
    print(f"  max |no-grad logit diff| {r['logit_diff']:.3e}")
    print(f"  checkpoint bytes {'equal' if r['same_checkpoint'] else 'differ'}")
    return 1 if args.exact and (r["loss_diff"] or r["grad_diff"] or r["logit_diff"]
                                or not r["same_checkpoint"]) else 0


if __name__ == "__main__":
    sys.exit(main())
