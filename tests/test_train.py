import dataclasses
import gc
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from wavfusion.ablate import run_suite
from wavfusion.config import ExperimentConfig, load_config, parse_config_text, save_config
from wavfusion.data import SynthSpec, generate_synthetic, load_dataset, split
from wavfusion.errors import CheckpointError, ConfigError, DataError
from wavfusion.gradcheck import run_gradcheck, synthetic_batch, tiny_config
from wavfusion.losses import build_triplets, margin_loss, metrics
from wavfusion.model import WavFusionModel
from wavfusion.optim import Adam
from wavfusion.oracles import margin_loss_reference
from wavfusion.rng import Prng
from wavfusion import tensor as T
from wavfusion.tensor import Tensor, no_grad
from wavfusion import train as train_module
from wavfusion.train import (EVAL_CHUNK, batch_objective, batch_order, build_model, evaluate,
                             evaluate_checkpoint, train, train_step)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data") / "synth"
    generate_synthetic(SynthSpec(classes=3, per_class=8, mu=3.0, rho=0.3,
                                 sigma=0.6, seed=7), root)
    return root


def fast_config(data_dir, **overrides):
    base = dict(d=8, heads=2, n_shallow=1, n_deep=1, lvc_centers=2, epochs=2,
                batch_size=6, seed=0, data_dir=str(data_dir),
                train_frac=0.7, val_frac=0.15, test_frac=0.15)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestTrainingLoop:
    def test_zero_learning_rate_keeps_parameters(self, small_dataset, tmp_path):
        cfg = fast_config(small_dataset, lr=0.0, epochs=1, out_dir=str(tmp_path / "run"))
        dataset = load_dataset(str(small_dataset))
        from wavfusion.train import build_model
        reference = build_model(cfg, dataset)
        result = train(cfg, dataset=dataset, write_artifacts=False)
        for (name, p), (_, q) in zip(result.model.named_parameters(),
                                     reference.named_parameters()):
            npt.assert_array_equal(p.data, q.data, err_msg=name)

    def test_determinism_bit_identical_loss_trace(self, small_dataset):
        cfg = fast_config(small_dataset)
        one = train(cfg, write_artifacts=False).report
        two = train(dataclasses.replace(cfg), write_artifacts=False).report
        assert one.first_epoch_step_losses == two.first_epoch_step_losses
        assert one.epoch_train_loss == two.epoch_train_loss
        assert one.epoch_val_loss == two.epoch_val_loss
        assert (one.test_acc, one.test_wf1) == (two.test_acc, two.test_wf1)

    def test_nan_features_abort_with_batch_id(self, small_dataset):
        dataset = load_dataset(str(small_dataset))
        dataset.samples[0].features["a"][0, 0] = np.nan
        cfg = fast_config(small_dataset, epochs=1)
        with pytest.raises(RuntimeError, match=r"epoch 1 batch \d+"):
            train(cfg, dataset=dataset, write_artifacts=False)

    def test_non_finite_loss_names_where_it_starts(self, small_dataset, monkeypatch):
        dataset = load_dataset(str(small_dataset))
        dataset.samples[0].features["a"][0, 0] = np.nan
        cfg = fast_config(small_dataset, epochs=1)
        with pytest.raises(RuntimeError, match="value branch.a, first non-finite parameter none"):
            train(cfg, dataset=dataset, write_artifacts=False)

        def broken_model(cfg, dataset):
            model = build_model(cfg, dataset)
            model.deep[0].gate.weight.data[0, 0] = np.nan
            return model
        monkeypatch.setattr(train_module, "build_model", broken_model)
        with pytest.raises(RuntimeError, match=r"epoch 1 batch 0; first non-finite value "
                                               r"deep.0.gate, first non-finite parameter "
                                               r"deep.0.gate.weight"):
            train(cfg, write_artifacts=False)

    def test_non_finite_gradient_stops_before_the_step(self, small_dataset, monkeypatch):
        # the forward pass and the loss stay finite; in the second step the
        # adjoint of each feed-forward block returns NaN for its outer weight
        opts, after = [], []

        class Recorded(Adam):
            def __init__(self, *args):
                super().__init__(*args)
                opts.append(self)

            def step(self):
                super().step()
                after.append((self.flat_p.copy(), self.flat_m.copy(), self.flat_v.copy()))
        monkeypatch.setattr(train_module, "Adam", Recorded)
        feed_forward = T.feed_forward

        def poisoned(*args):
            out = feed_forward(*args)
            vjp = out._vjp
            if vjp is not None and len(after) == 1:
                def nan_outer_weight(g):
                    grads = vjp(g)
                    return grads[:3] + (np.full_like(grads[3], np.nan),) + grads[4:]
                out._vjp = nan_outer_weight
            return out
        monkeypatch.setattr(T, "feed_forward", poisoned)
        with pytest.raises(RuntimeError, match=r"^non-finite gradient in epoch 1 batch 1; first "
                                               r"non-finite gradient shallow.0.ff.outer.weight$"):
            train(fast_config(small_dataset, epochs=1), write_artifacts=False)
        (opt,) = opts
        assert opt.t == len(after) == 1
        for state, first_step in zip((opt.flat_p, opt.flat_m, opt.flat_v), after[0]):
            npt.assert_array_equal(state, first_step)    # nothing written since

    def test_sample_lacking_a_modality_is_reported_before_training(self, small_dataset,
                                                                    monkeypatch):
        dataset = load_dataset(str(small_dataset))
        del dataset.samples[4].features["t"]

        def no_batch(*args, **kwargs):
            raise AssertionError("batch_objective called")
        monkeypatch.setattr(train_module, "batch_objective", no_batch)
        with pytest.raises(DataError, match="^sample utt00004 lacks modality 't'$"):
            train(fast_config(small_dataset, epochs=1), dataset=dataset, write_artifacts=False)

    def test_non_finite_validation_loss_stops_the_run(self, small_dataset):
        # rather than keep the initial parameters as the best and report them
        dataset = load_dataset(str(small_dataset))
        cfg = fast_config(small_dataset, epochs=3, train_frac=0.6, val_frac=0.2, test_frac=0.2)
        val_set = split(dataset.samples, cfg.split_policy())[1]
        val_set[0].features["a"][:] = np.nan
        with pytest.raises(RuntimeError, match=r"^non-finite validation loss in epoch 1 batch 0; "
                                               r"first non-finite value branch.a, "
                                               r"first non-finite parameter none$"):
            train(cfg, dataset=dataset, write_artifacts=False)

    def test_run_artifacts_and_report(self, small_dataset, tmp_path):
        out = tmp_path / "run"
        cfg = fast_config(small_dataset, out_dir=str(out))
        result = train(cfg)
        assert (out / "model.wvfn").exists()
        assert (out / "config.cfg").exists()
        assert (out / "report.txt").exists()
        assert (out / "predictions.tsv").exists()
        report = result.report
        assert 0.0 <= report.test_acc <= 1.0 and 0.0 <= report.test_wf1 <= 1.0
        assert report.wall_clock_s > 0
        assert "seed = 0" in report.config_text
        text = (out / "report.txt").read_text()
        assert "test_acc" in text and "[first_epoch_steps]" in text

    def test_identical_runs_write_identical_artifacts(self, small_dataset, tmp_path):
        cfg = fast_config(small_dataset, out_dir=str(tmp_path / "run"))
        names = ("report.txt", "config.cfg", "model.wvfn", "predictions.tsv")
        runs = []
        for _ in range(2):
            train(cfg)
            runs.append([(tmp_path / "run" / name).read_bytes() for name in names])
        assert runs[0] == runs[1]

    def test_report_metrics_reproducible_from_checkpoint(self, small_dataset, tmp_path):
        out = tmp_path / "run"
        cfg = fast_config(small_dataset, out_dir=str(out))
        result = train(cfg)
        loaded_cfg = load_config(out / "config.cfg")
        acc, wf1, samples, predictions = evaluate_checkpoint(out / "model.wvfn", loaded_cfg)
        assert acc == result.report.test_acc
        assert wf1 == result.report.test_wf1
        dumped = [(uid, int(label), int(pred)) for uid, label, pred in
                  (line.split("\t") for line in (out / "predictions.tsv").read_text().splitlines())]
        assert [(s.uid, s.label) for s in samples] == [(u, y) for u, y, _ in dumped]
        assert predictions == [p for _, _, p in dumped]
        # metrics recomputed from the dump equal the reported ones
        re_acc, re_wf1 = metrics([p for _, _, p in dumped], [y for _, y, _ in dumped], 3)
        assert (re_acc, re_wf1) == (acc, wf1)

    def test_audio_mask_eval_on_trimodal_checkpoint(self, small_dataset, tmp_path):
        out = tmp_path / "run"
        cfg = fast_config(small_dataset, out_dir=str(out))
        train(cfg)
        acc, wf1, samples, _ = evaluate_checkpoint(out / "model.wvfn", load_config(out / "config.cfg"),
                                                   mask=("a",), which="test")
        assert 0.0 <= acc <= 1.0 and len(samples) > 0

    def test_overfit_then_train_set_evaluation_is_perfect(self, tmp_path):
        root = tmp_path / "sep"
        generate_synthetic(SynthSpec(classes=2, per_class=6, mu=5.0, rho=0.0,
                                     sigma=0.2, seed=9), root)
        cfg = fast_config(root, epochs=40, batch_size=4, balance=0.0,
                          train_frac=0.8, val_frac=0.1, test_frac=0.1)
        result = train(cfg, write_artifacts=False)
        train_set = result.splits[0]
        acc, _, _, _ = evaluate(result.model, train_set, cfg.mask())
        assert acc == 1.0

    def test_checkpoint_dim_mismatch_is_checkpoint_error(self, small_dataset, tmp_path):
        out = tmp_path / "run"
        cfg = fast_config(small_dataset, out_dir=str(out))
        train(cfg)
        wrong = dataclasses.replace(cfg, d=16)
        with pytest.raises(CheckpointError):
            evaluate_checkpoint(out / "model.wvfn", wrong)

    def test_float32_training_mode(self, small_dataset):
        cfg = fast_config(small_dataset, precision="float32", epochs=1)
        result = train(cfg, write_artifacts=False)
        assert result.model.dtype == np.float32
        for name, p in result.model.named_parameters():
            assert p.data.dtype == np.float32, name
        assert np.isfinite(result.report.epoch_train_loss[0])


class TestOptimizer:
    def test_zero_gradient_step_is_identity(self):
        p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        opt = Adam([("p", p)], lr=0.1)
        before = p.data.copy()
        opt.step()
        npt.assert_array_equal(p.data, before)

    def test_step_moves_against_gradient(self):
        p = Tensor(np.array([1.0, 1.0]), requires_grad=True)
        opt = Adam([("p", p)], lr=0.1)
        p.grad = np.array([1.0, -1.0])
        opt.step()
        assert p.data[0] < 1.0 and p.data[1] > 1.0


class TestGradcheckHarness:
    def test_unimodal_no_deep_layers_passes(self):
        cfg = tiny_config(modalities="a", n_shallow=1, n_deep=0, batch_size=2)
        report = run_gradcheck(cfg, tolerance=1e-3, eps=1e-4)
        assert report.passed, report.to_text()

    def test_corrupted_adjoint_fails_and_names_layer(self):
        cfg = tiny_config(modalities="a", n_shallow=1, n_deep=0, batch_size=2)
        report = run_gradcheck(cfg, corrupt="classifier.bias")
        assert not report.passed
        assert report.worst_name == "classifier.bias"

    def test_float32_rejected(self):
        cfg = tiny_config(precision="float32")
        with pytest.raises(ConfigError, match="float64"):
            run_gradcheck(cfg)


class TestMarginOracleEquivalence:
    def test_random_batches_agree(self):
        mods = ("a", "t", "v")
        worst = 0.0
        for trial in range(20):
            rng = Prng(500 + trial)
            n = 6 + trial % 5
            entries = []
            for i in range(n):
                r = rng.child(i)
                entries.append((mods[r.randint(0, 3)], r.randint(0, 3),
                                list(r.normal(4))))
            tagged = [(m, c) for m, c, _ in entries]
            vecs = [Tensor(np.asarray(v)[None, :]) for _, _, v in entries]
            production = float(margin_loss(vecs, build_triplets(tagged), 0.5).data)
            reference = margin_loss_reference(entries, 0.5)
            worst = max(worst, abs(production - reference))
        assert worst < 1e-10

    def test_identical_embeddings_both_report_alpha(self):
        entries = [("a", 0, [1.0, 2.0]), ("t", 0, [1.0, 2.0]), ("a", 1, [1.0, 2.0])]
        tagged = [(m, c) for m, c, _ in entries]
        vecs = [Tensor(np.asarray(v)[None, :]) for _, _, v in entries]
        production = float(margin_loss(vecs, build_triplets(tagged), 0.5).data)
        reference = margin_loss_reference(entries, 0.5)
        assert abs(production - 0.5) < 1e-12 and abs(reference - 0.5) < 1e-12

    def test_empty_set_both_report_zero(self):
        entries = [("a", 0, [1.0]), ("a", 1, [2.0])]
        tagged = [(m, c) for m, c, _ in entries]
        vecs = [Tensor(np.asarray(v)[None, :]) for _, _, v in entries]
        assert float(margin_loss(vecs, build_triplets(tagged), 0.5).data) == 0.0
        assert margin_loss_reference(entries, 0.5) == 0.0


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    root = tmp_path_factory.mktemp("ablate") / "synth"
    generate_synthetic(SynthSpec(classes=2, per_class=6, mu=3.0, rho=0.2,
                                 sigma=0.5, seed=11), root)
    return ExperimentConfig(d=8, heads=2, n_shallow=1, n_deep=1, lvc_centers=2,
                            epochs=1, batch_size=6, data_dir=str(root),
                            train_frac=0.6, val_frac=0.2, test_frac=0.2)


def header_line(table):
    return table.to_text().splitlines()[0]


SEED0_COLUMNS = "ACC(%)\tWF1(%)\tseed0 ACC(%)\tseed0 WF1(%)"


class TestAblationSuites:
    def test_modality_suite_rows(self, quick):
        table = run_suite("modality", quick, seeds=[0])
        assert [row.label[0] for row in table.rows] == ["A", "T", "V", "A+T", "A+V", "A+V+T"]
        assert header_line(table) == "Modality\t" + SEED0_COLUMNS
        assert len(table.to_text().strip().splitlines()) == 7

    def test_lambda_suite_rows(self, quick):
        table = run_suite("lambda", quick, seeds=[0])
        assert [row.label[0] for row in table.rows] == ["0", "0.01", "0.1", "1", "10"]
        assert header_line(table) == "lambda\t" + SEED0_COLUMNS

    def test_lvc_suite_rows(self, quick):
        table = run_suite("lvc", quick, seeds=[0])
        assert [row.label[0] for row in table.rows] == ["w/o LVC block", "w/ LVC block"]
        assert header_line(table) == "Models\t" + SEED0_COLUMNS

    def test_layers_suite_rows_sum_to_twelve(self, quick):
        table = run_suite("layers", quick, seeds=[0])
        assert header_line(table) == ("method\tShallow transformer\tDeep transformer\t"
                                      + SEED0_COLUMNS)
        labels = [row.label for row in table.rows]
        assert labels[0] == ("concat", "12", "0")
        assert [lab[:1] for lab in labels[1:]] == [("Attention",)] * 4
        assert all(int(s) + int(d) == 12 for _, s, d in labels)

    def test_per_seed_columns(self, quick):
        table = run_suite("lvc", quick, seeds=[0, 1])
        assert all(len(row.per_seed) == 2 for row in table.rows)
        header = table.to_text().splitlines()[0]
        assert "seed0 ACC(%)" in header and "seed1 WF1(%)" in header

    def test_unknown_suite(self, quick):
        with pytest.raises(ConfigError):
            run_suite("nope", quick, seeds=[0])

    def test_repeated_seed_rejected(self, quick):
        # a repeated seed trains the same run twice and counts it twice in the mean
        with pytest.raises(ConfigError, match=r"\[0\] repeat in \[0, 1, 0\]"):
            run_suite("lvc", quick, seeds=[0, 1, 0])


class TestConfig:
    def test_text_roundtrip(self, tmp_path):
        cfg = ExperimentConfig(d=16, balance=0.25, modalities="at", lvc_enabled=False)
        path = tmp_path / "c.cfg"
        save_config(path, cfg)
        assert load_config(path) == cfg

    def test_overrides_and_comments(self):
        cfg = parse_config_text("# comment\n d = 32 \nbalance=2.5\nlvc_enabled = false\n",
                                ExperimentConfig())
        assert cfg.d == 32 and cfg.balance == 2.5 and cfg.lvc_enabled is False

    def test_text_roundtrip_keeps_hashes_and_comment_lines(self):
        cfg = ExperimentConfig(data_dir="/data/take#2", out_dir="runs/#best # 1")
        assert parse_config_text(cfg.to_text()) == cfg
        text = "  # d = 4\n# heads = 1\ndata_dir = a#b\n"
        assert parse_config_text(text) == ExperimentConfig(data_dir="a#b")

    @pytest.mark.parametrize("key,value", [("data_dir", "/data/a\nd = 4"), ("out_dir", " runs "),
                                           ("data_dir", "data\t"), ("out_dir", "a\rb")])
    def test_string_that_cannot_be_written_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must not hold a line break"):
            ExperimentConfig(**{key: value}).validate()

    def test_unknown_key_rejected(self):
        # including keys that a config file written by an older version may still set
        for key, value in (("nope", "1"), ("freeze_shallow", "false"), ("stop_train_acc", "0.0"),
                           ("fusion_mode", "concat"), ("conv_kernel", "3")):
            with pytest.raises(ConfigError, match=f"^config line 2: unknown key '{key}'$"):
                parse_config_text(f"d = 16\n{key} = {value}\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("d = soon\n")

    @pytest.mark.parametrize("field,value", [
        ("alpha", 0.0), ("alpha", 2.5), ("balance", -1.0), ("batch_size", 0),
        ("modalities", "x"), ("modalities", "tv"), ("precision", "float16"), ("heads", 3),
    ])
    def test_validation(self, field, value):
        cfg = ExperimentConfig(**{field: value})
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize("field,value", [
        ("lr", -1e-3), ("lr", float("inf")), ("beta1", -0.1), ("beta1", 1.0), ("beta2", 1.0),
        ("beta2", float("nan")), ("eps", 0.0), ("eps", -1e-8), ("eps", float("inf")),
    ])
    def test_adam_settings_validated(self, field, value):
        # lr < 0 trains as gradient ascent, beta2 = 1 makes the bias
        # correction 0, eps = 0 divides 0 by 0 for a zero gradient and
        # eps = inf makes every update 0
        with pytest.raises(ConfigError, match=f"^{field} "):
            ExperimentConfig(**{field: value}).validate()
        ExperimentConfig(lr=0.0, beta1=0.0, beta2=0.0, eps=1e-300).validate()

    @pytest.mark.parametrize("field,value", [("balance", float("nan")), ("balance", float("inf"))])
    def test_objective_and_stop_settings_validated(self, field, value):
        # a non-finite balance makes every loss non-finite
        with pytest.raises(ConfigError, match=f"^{field} "):
            ExperimentConfig(**{field: value}).validate()
        ExperimentConfig(balance=0.0).validate()

    def test_env_var_out_dir(self, monkeypatch):
        monkeypatch.setenv("WAVFUSION_OUT_DIR", "/tmp/elsewhere")
        assert str(ExperimentConfig().resolved_out_dir()) == "/tmp/elsewhere"
        assert str(ExperimentConfig(out_dir="here").resolved_out_dir()) == "here"


def tiny_model_and_batch():
    dims = {"a": 4, "t": 3, "v": 3}
    model = WavFusionModel(num_classes=2, feature_dims=dims, d=8, heads=2,
                           n_shallow=1, n_deep=1, lvc_centers=2, seed=1)
    return model, synthetic_batch(3, dims, 2, 4)


class TestBatchObjective:
    def test_margin_skipped_at_zero_balance(self):
        model, samples = tiny_model_and_batch()
        total, task, margin, preds = batch_objective(model, samples, ("a", "t", "v"),
                                                     alpha=0.5, balance=0.0)
        assert float(margin.data) == 0.0
        assert float(total.data) == float(task.data)
        assert len(preds) == 4

    def test_margin_contributes_at_positive_balance(self):
        model, samples = tiny_model_and_batch()
        total, task, margin, _ = batch_objective(model, samples, ("a", "t", "v"),
                                                 alpha=0.5, balance=2.0)
        npt.assert_allclose(float(total.data),
                            float(task.data) + 2.0 * float(margin.data), atol=1e-12)
        assert float(margin.data) > 0.0

    def test_strict_cosine_rejects_zero_shared_embedding(self, monkeypatch):
        model, samples = tiny_model_and_batch()
        encode = model.shared_encode
        calls = []

        def zero_first_audio(trace):
            shared = encode(trace)
            if not calls:
                shared["a"] = shared["a"].scale(0.0)
            calls.append(trace)
            return shared

        monkeypatch.setattr(model, "shared_encode", zero_first_audio)
        with pytest.raises(DataError, match="index 0"):
            batch_objective(model, samples, ("a", "t", "v"), alpha=0.5, balance=1.0,
                            strict_cosine=True)
        calls.clear()
        total, _, margin, _ = batch_objective(model, samples, ("a", "t", "v"), alpha=0.5,
                                              balance=1.0, strict_cosine=False)
        assert np.isfinite(float(total.data)) and float(margin.data) > 0.0

    def test_training_step_graph_is_freed_without_cyclic_gc(self):
        model, samples = tiny_model_and_batch()
        opt = Adam(model.named_parameters(), 1e-3)
        gc.collect()
        gc.disable()
        try:
            train_step(model, opt, samples, ("a", "t", "v"), ExperimentConfig(), "the step")
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestTrainStep:
    """``train_step`` clears the gradients, forwards, checks the loss, runs
    backward, checks the gradients and steps Adam, in that order; the batches
    come from ``batch_order``."""

    MASK = ("a", "t", "v")

    def test_gradients_stay_readable_until_the_next_step_clears_them(self):
        # at lr 0 the parameters stay put, so an uncleared second step would
        # read twice the first step's gradients
        model, samples = tiny_model_and_batch()
        opt = Adam(model.named_parameters(), 0.0)
        cfg = ExperimentConfig()
        train_step(model, opt, samples, self.MASK, cfg, "step 1")
        first = {name: p.grad.copy() for name, p in model.named_parameters()}
        train_step(model, opt, samples, self.MASK, cfg, "step 2")
        for name, p in model.named_parameters():
            npt.assert_array_equal(p.grad, first[name], err_msg=name)

    def test_non_finite_gradient_raises_before_adam_writes(self, monkeypatch):
        model, samples = tiny_model_and_batch()
        opt = Adam(model.named_parameters(), 1e-3)
        cfg = ExperimentConfig()
        train_step(model, opt, samples, self.MASK, cfg, "step 1")
        before = (opt.flat_p.copy(), opt.flat_m.copy(), opt.flat_v.copy())
        feed_forward = T.feed_forward

        def poisoned(*args):     # the adjoint returns NaN for the outer weight
            out = feed_forward(*args)
            vjp = out._vjp

            def nan_outer_weight(g):
                grads = vjp(g)
                return grads[:3] + (np.full_like(grads[3], np.nan),) + grads[4:]
            out._vjp = nan_outer_weight
            return out
        monkeypatch.setattr(T, "feed_forward", poisoned)
        with pytest.raises(RuntimeError, match=r"^non-finite gradient in step 2; first "
                                               r"non-finite gradient shallow.0.ff.outer.weight$"):
            train_step(model, opt, samples, self.MASK, cfg, "step 2")
        assert opt.t == 1
        for state, old in zip((opt.flat_p, opt.flat_m, opt.flat_v), before):
            npt.assert_array_equal(state, old)

    def test_non_finite_loss_names_where(self):
        model, samples = tiny_model_and_batch()
        samples[1].features["a"][0, 0] = np.nan
        opt = Adam(model.named_parameters(), 1e-3)
        with pytest.raises(RuntimeError, match=r"^non-finite loss in the third step; first "
                                               r"non-finite value branch.a"):
            train_step(model, opt, samples, self.MASK, ExperimentConfig(), "the third step")
        assert opt.t == 0

    def test_train_returns_a_model_without_gradients(self, small_dataset):
        result = train(fast_config(small_dataset, epochs=1), write_artifacts=False)
        assert [name for name, p in result.model.named_parameters() if p.grad is not None] == []

    @pytest.mark.parametrize("size,lengths", [(1, [1] * 21), (5, [5, 5, 5, 5, 1]),
                                              (8, [8, 8, 5])])
    def test_batch_order_covers_each_sample_once_per_epoch(self, size, lengths):
        samples = list(range(21))
        for epoch in (1, 2):
            batches = batch_order(samples, size, seed=4, epoch=epoch)
            assert [len(b) for b in batches] == lengths
            assert sorted(x for b in batches for x in b) == samples
        assert batch_order(samples, 5, 4, 1) != batch_order(samples, 5, 4, 2)
        assert batch_order(samples, 5, 4, 1) != batch_order(samples, 5, 5, 1)


class TestEvaluate:
    """``evaluate`` packs at most ``EVAL_CHUNK`` utterances per forward pass."""

    MASK = ("a", "t", "v")

    @staticmethod
    def model_and_samples(count):
        dims = {"a": 12, "t": 10, "v": 8}
        model = WavFusionModel(num_classes=4, feature_dims=dims, d=16, heads=2, n_shallow=2,
                               n_deep=1, lvc_centers=4, seed=2)
        return model, synthetic_batch(4, dims, 4, count, t_max=20)

    def test_chunks_match_one_pass(self):
        model, samples = self.model_and_samples(2 * EVAL_CHUNK + 22)
        with no_grad():
            whole = model.forward_batch(samples, self.MASK).logits.data
            chunked = np.concatenate([
                model.forward_batch(samples[i:i + EVAL_CHUNK], self.MASK).logits.data
                for i in range(0, len(samples), EVAL_CHUNK)])
        assert float(np.max(np.abs(chunked - whole))) <= 1e-12 * max(float(np.max(np.abs(whole))), 1.0)
        _, _, predictions, labels = evaluate(model, samples, self.MASK)
        assert predictions == [int(c) for c in np.argmax(whole, axis=-1)]
        assert labels == [s.label for s in samples]

    def test_transient_memory_is_bounded(self):
        # one pass over 320 utterances peaked at about 5x one over 64
        model, samples = self.model_and_samples(320)
        peaks = []
        for count in (EVAL_CHUNK, 320):
            tracemalloc.start()
            try:
                evaluate(model, samples[:count], self.MASK)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]

    def test_non_finite_logits_stop_evaluation(self):
        # one NaN feature value reaches every utterance of its pass through
        # the pooling matrix; a NaN parameter, every utterance
        model, samples = self.model_and_samples(EVAL_CHUNK + 5)
        samples[EVAL_CHUNK + 2].features["a"][0, 0] = np.nan
        with pytest.raises(RuntimeError, match=rf"^non-finite logits in the evaluation of "
                                               rf"utterances {EVAL_CHUNK}..{EVAL_CHUNK + 4}; "
                                               rf"first non-finite value branch.a, "
                                               rf"first non-finite parameter none$"):
            evaluate(model, samples, self.MASK)
        samples[EVAL_CHUNK + 2].features["a"][0, 0] = 0.0
        model.classifier.weight.data[0, 0] = np.nan
        with pytest.raises(RuntimeError, match=rf"utterances 0..{EVAL_CHUNK - 1}; first non-finite "
                                               rf"value logits, first non-finite parameter "
                                               rf"classifier.weight$"):
            evaluate(model, samples, self.MASK)

    def test_empty_sample_list_rejected(self):
        model, _ = self.model_and_samples(1)
        with pytest.raises(DataError, match="empty"):
            evaluate(model, [], self.MASK)
