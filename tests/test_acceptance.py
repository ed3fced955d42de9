"""Acceptance suite: every exit criterion at its stated tolerance, one
printed pass/fail line per criterion (written to the real stdout so the
lines show even under pytest capture).

The trend criteria train real models on a fixed synthetic dataset whose
class signal is split across modalities: audio separates {0,1} from {2,3}
strongly, text carries the complementary pairing weakly, and visual carries
a weak copy of the full class identity. Every run is deterministic, so the
asserted margins reproduce bit-for-bit on a given platform.
"""

import dataclasses
import sys
import time

import numpy as np
import numpy.testing as npt
import pytest

from wavfusion.ablate import run_suite
from wavfusion.checkpoint import read_records, save_model
from wavfusion.config import ExperimentConfig
from wavfusion.data import (SynthSpec, generate_synthetic, load_dataset, read_feature,
                            write_feature)
from wavfusion.errors import FormatError
from wavfusion.gradcheck import run_gradcheck, tiny_config
from wavfusion.layers import Linear
from wavfusion.losses import build_triplets, margin_loss, metrics
from wavfusion.model import WavFusionModel, gated_fuse
from wavfusion.oracles import margin_loss_reference
from wavfusion.rng import Prng
from wavfusion.tensor import Tensor
from wavfusion.train import evaluate, train

SEEDS = (0, 1, 2)


def report(criterion, description, check):
    """Run ``check`` and print the one-line verdict for ``criterion``."""
    try:
        check()
    except Exception:
        print(f"\nACCEPTANCE {criterion} FAIL: {description}", file=sys.__stdout__)
        raise
    print(f"\nACCEPTANCE {criterion} PASS: {description}", file=sys.__stdout__)


def trend_spec(seed=100):
    return SynthSpec(
        classes=4, per_class=40,
        dims={"a": 12, "t": 10, "v": 8},
        seq_len={"a": (6, 10), "t": (4, 8), "v": (3, 6)},
        mu=2.0, rho=0.25, sigma=2.0, seed=seed,
        mean_groups={"a": [[0, 1], [2, 3]], "t": [[0, 2], [1, 3]]},
        mu_scale={"t": 0.35, "v": 0.3},
    )


def trend_config(data_dir, **overrides):
    base = dict(d=16, heads=2, n_shallow=2, n_deep=1, lvc_centers=4, alpha=0.5, balance=1.0,
                lr=3e-3, batch_size=8, epochs=18, modalities="avt", train_frac=0.35,
                val_frac=0.125, test_frac=0.525, data_dir=str(data_dir))
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def trend_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept") / "trend"
    generate_synthetic(trend_spec(), root)
    return root, load_dataset(root)


@pytest.fixture(scope="module")
def balance_sweep(trend_data, tmp_path_factory):
    """Criterion 5's table, trained once; its balance = 1 row holds criterion 4's AVT runs."""
    root, dataset = trend_data
    out = tmp_path_factory.mktemp("accept") / "lambda"
    return run_suite("lambda", trend_config(root), SEEDS, dataset=dataset, out_dir=out), out


class TestAcceptance:
    def test_01_gradient_fidelity(self):
        cfg = tiny_config()  # d=8, 2 shallow + 1 deep, trimodal, alpha=0.5, balance=1
        started = time.monotonic()
        result = run_gradcheck(cfg, tolerance=1e-3, eps=1e-4)
        elapsed = time.monotonic() - started

        def check():
            assert cfg.precision == "float64"
            assert result.passed, result.to_text()
            assert result.worst_error < 1e-3
            assert elapsed < 120.0

        report(1, f"gradcheck worst rel err {result.worst_error:.2e} < 1e-3 "
                  f"in {elapsed:.0f}s", check)

    def test_02_margin_oracle_equivalence(self):
        started = time.monotonic()
        mods = ("a", "t", "v")
        worst = 0.0
        for trial in range(100):
            rng = Prng(9_000 + trial)
            entries = []
            for i in range(6 + trial % 7):
                r = rng.child(i)
                entries.append((mods[r.randint(0, 3)], r.randint(0, 3), list(r.normal(5))))
            tagged = [(m, c) for m, c, _ in entries]
            vecs = [Tensor(np.asarray(v)[None, :]) for _, _, v in entries]
            production = float(margin_loss(vecs, build_triplets(tagged), 0.5).data)
            reference = margin_loss_reference(entries, 0.5)
            worst = max(worst, abs(production - reference))
        elapsed = time.monotonic() - started

        def check():
            assert worst < 1e-10
            assert elapsed < 10.0

        report(2, f"100 margin batches, max |production - bruteforce| = {worst:.2e}",
               check)

    def test_03_overfit_smoke(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("accept") / "separable"
        generate_synthetic(SynthSpec(
            classes=4, per_class=50,
            dims={"a": 12, "t": 10, "v": 8},
            seq_len={"a": (6, 10), "t": (4, 8), "v": (3, 6)},
            mu=4.0, rho=0.2, sigma=0.4, seed=200), root)
        dataset = load_dataset(root)
        started = time.monotonic()
        train_accs = []
        for seed in SEEDS:
            cfg = trend_config(root, seed=seed, epochs=6, train_frac=0.8,
                               val_frac=0.1, test_frac=0.1)
            result = train(cfg, dataset=dataset, write_artifacts=False)
            rep = result.report
            assert all(np.isfinite(x) for x in rep.epoch_train_loss)
            assert all(np.isfinite(x) for x in rep.first_epoch_step_losses)
            assert rep.epoch_train_loss[-1] < rep.first_epoch_step_losses[0]
            acc, _, _, _ = evaluate(result.model, result.splits[0], cfg.mask())
            train_accs.append(acc)
        elapsed = time.monotonic() - started

        def check():
            assert all(acc >= 0.95 for acc in train_accs)
            assert elapsed < 600.0

        report(3, f"overfit train ACC per seed {[f'{a:.2f}' for a in train_accs]} "
                  f">= 0.95 in {elapsed:.0f}s", check)

    def test_04_multimodal_benefit(self, trend_data, balance_sweep):
        root, dataset = trend_data
        # the AVT runs are the sweep's balance = 1 row: same config, seeds and data
        table, _ = balance_sweep
        avt = next(row for row in table.rows if row.label == ("1",))
        mean_acc = {"avt": float(np.mean([acc for _, acc, _ in avt.per_seed]))}
        for mode in ("a", "at", "av"):
            accs = [train(trend_config(root, modalities=mode, seed=s), dataset=dataset,
                          write_artifacts=False).report.test_acc for s in SEEDS]
            mean_acc[mode] = float(np.mean(accs))

        def check():
            assert mean_acc["avt"] >= mean_acc["at"] + 0.02
            assert mean_acc["at"] >= mean_acc["a"] + 0.02
            assert mean_acc["avt"] >= mean_acc["av"] + 0.02

        report(4, "mean test ACC " + " ".join(f"{m.upper()}={mean_acc[m]:.3f}"
                                              for m in ("a", "at", "av", "avt")), check)

    def test_05_balance_factor_trend(self, balance_sweep):
        table, out = balance_sweep
        by_balance = {row.label[0]: row.mean_acc() for row in table.rows}

        def check():
            assert [row.label[0] for row in table.rows] == ["0", "0.01", "0.1", "1", "10"]
            assert (out / "lambda.tsv").exists()
            assert by_balance["1"] >= by_balance["0"] + 0.01
            assert by_balance["1"] > by_balance["10"]

        report(5, "balance sweep mean ACC " + " ".join(
            f"{k}={v:.3f}" for k, v in by_balance.items()), check)
        print(table.to_text(), end="", file=sys.__stdout__)

    def test_06_gate_invariants(self):
        rng = Prng(77)
        gate = Linear(16, 8, Prng(78))
        worst_violation = 0.0
        for trial in range(1000):
            r = rng.child(trial)
            first = Tensor(r.child(0).normal(24).reshape(3, 8) * 3.0)
            second = Tensor(r.child(1).normal(24).reshape(3, 8) * 3.0)
            fused, gate_vals = gated_fuse(first, second, gate)
            assert (gate_vals.data > 0.0).all() and (gate_vals.data < 1.0).all()
            lo = np.minimum(first.data, second.data)
            hi = np.maximum(first.data, second.data)
            assert (fused.data >= lo - 1e-12).all() and (fused.data <= hi + 1e-12).all()
            same, _ = gated_fuse(first, Tensor(first.data.copy()), gate)
            worst_violation = max(worst_violation, np.abs(same.data - first.data).max())

        def check():
            assert worst_violation < 1e-12

        report(6, f"1000 gates in (0,1), fused within envelope, equal-input "
                  f"deviation {worst_violation:.1e} < 1e-12", check)

    def test_07_metric_correctness(self):
        acc, wf1 = metrics([0, 1, 1, 1], [0, 0, 1, 1], 2)
        perfect = metrics([0, 1, 2], [0, 1, 2], 3)

        def check():
            assert abs(wf1 - 0.7333333333333334) < 1e-9
            assert acc == 0.75
            assert perfect == (1.0, 1.0)

        report(7, f"worked WF1 = {wf1:.10f}, all-correct = {perfect}", check)

    def test_08_format_roundtrips(self, tmp_path):
        feat = (Prng(5).normal(15).reshape(3, 5)).astype(np.float32)
        f1, f2 = tmp_path / "a.wftf", tmp_path / "b.wftf"
        write_feature(f1, feat)
        write_feature(f2, read_feature(f1))
        model = WavFusionModel(num_classes=3, feature_dims={"a": 6, "t": 5, "v": 4},
                               d=8, heads=2, n_shallow=1, n_deep=1, lvc_centers=2, seed=3)
        c1, c2 = tmp_path / "a.wvfn", tmp_path / "b.wvfn"
        save_model(c1, model)
        other = WavFusionModel(num_classes=3, feature_dims={"a": 6, "t": 5, "v": 4},
                               d=8, heads=2, n_shallow=1, n_deep=1, lvc_centers=2, seed=9)
        from wavfusion.checkpoint import load_model
        load_model(c1, other)
        save_model(c2, other)

        truncated = tmp_path / "trunc.wftf"
        truncated.write_bytes(f1.read_bytes()[:-1])
        corrupt_ckpt = tmp_path / "trunc.wvfn"
        corrupt_ckpt.write_bytes(c1.read_bytes()[:-2])

        def check():
            assert f1.read_bytes() == f2.read_bytes()
            assert c1.read_bytes() == c2.read_bytes()
            with pytest.raises(FormatError, match="offset"):
                read_feature(truncated)
            with pytest.raises(FormatError, match="offset"):
                read_records(corrupt_ckpt)

        report(8, "feature and checkpoint write-read-write byte-identical; "
                  "corruption rejected with offsets", check)

    def test_09_determinism(self, trend_data):
        root, dataset = trend_data
        cfg = trend_config(root, epochs=2, seed=1)
        one = train(cfg, dataset=dataset, write_artifacts=False).report
        two = train(dataclasses.replace(cfg), dataset=dataset,
                    write_artifacts=False).report

        def check():
            assert one.first_epoch_step_losses == two.first_epoch_step_losses
            npt.assert_array_equal(np.asarray(one.epoch_train_loss),
                                   np.asarray(two.epoch_train_loss))

        report(9, f"two runs, identical first-epoch trace of "
                  f"{len(one.first_epoch_step_losses)} step losses", check)
