"""The benchmark (``perfbench/run.py``) keeps its own copies of the batch
order and the training step, frozen with the benchmark; these tests pin
them to ``train.batch_order`` and ``train.train_step``, so that the
benchmark keeps timing the step that training runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

from wavfusion.optim import Adam
from wavfusion.train import batch_order, build_model, train_step

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def run():
    """``perfbench/run.py`` as a module; its sibling modules import from its
    directory, which leaves ``sys.path`` again once they are loaded."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def bench(run, name, tmp_path):
    """The workload ``name``'s benchmark after one set-up, and its training split."""
    wf = run.import_program()
    b = run.Bench(wf, run.WORKLOADS[name], 1, tmp_path / "data")
    b.setup()
    return b, wf.data.split(b.dataset.samples, b.cfg.split_policy())[0]


@pytest.mark.parametrize("name,size", [("paper-b8", 8), ("margin-b16", 16)])
def test_batch_order_is_the_program_s(run, tmp_path, name, size):
    b, train_set = bench(run, name, tmp_path)
    assert b.cfg.batch_size == size
    expected = [[s.uid for s in batch] for epoch in (1, 2)
                for batch in batch_order(train_set, size, b.cfg.seed, epoch)]
    assert [[s.uid for s in next(b._batches)] for _ in expected] == expected


def test_step_losses_are_the_program_s(run, tmp_path):
    # the losses that the benchmark's loss_fingerprint reads
    b, train_set = bench(run, "margin-b16", tmp_path)
    steps = run.FINGERPRINT_STEPS
    for _ in range(steps):
        assert b.step() is not None
    cfg = b.cfg
    model = build_model(cfg, b.dataset)
    opt = Adam(model.named_parameters(), cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
    losses = [train_step(model, opt, batch, cfg.mask(), cfg, f"step {i}")
              for i, batch in enumerate(batch_order(train_set, cfg.batch_size, cfg.seed, 1)[:steps])]
    assert b.losses[:steps] == losses
