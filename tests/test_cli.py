import shutil
import warnings

import numpy as np
import pytest

import wavfusion.cli as cli
import wavfusion.gradcheck as gradcheck
import wavfusion.train as train_module
from wavfusion.ablate import run_suite
from wavfusion.checkpoint import load_model, read_records, write_records
from wavfusion.cli import _config_from_args, build_parser, main
from wavfusion.config import load_config, parse_config_text
from wavfusion.data import SynthSpec, generate_synthetic, load_dataset, split


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "synth"
    generate_synthetic(SynthSpec(classes=2, per_class=8, mu=3.0, rho=0.2,
                                 sigma=0.5, seed=21), root)
    return root


FAST = ["--d", "8", "--heads", "2", "--n-shallow", "1", "--n-deep", "1",
        "--lvc-centers", "2", "--epochs", "1", "--batch-size", "6"]


class TestGenData:
    def test_writes_dataset(self, tmp_path, capsys):
        rc = main(["gen-data", "--out", str(tmp_path / "d"), "--classes", "2",
                   "--per-class", "3", "--seed", "5"])
        assert rc == 0
        assert "6 samples" in capsys.readouterr().out
        assert (tmp_path / "d" / "manifest.tsv").exists()

    def test_mean_groups_and_mu_scale_flags(self, tmp_path):
        rc = main(["gen-data", "--out", str(tmp_path / "g"), "--classes", "4",
                   "--per-class", "2", "--mean-groups", "a=0,1|2,3",
                   "--mu-scale", "v=0.5"])
        assert rc == 0

    def test_bad_group_spec_is_validation_error(self, tmp_path):
        rc = main(["gen-data", "--out", str(tmp_path / "b"), "--classes", "4",
                   "--per-class", "2", "--mean-groups", "a=0,1"])
        assert rc == 2

    @pytest.mark.parametrize("flag,value", [("--mean-groups", "a=0,x|2,3"),
                                            ("--mu-scale", "v=abc")])
    def test_malformed_flag_names_it(self, tmp_path, capsys, flag, value):
        rc = main(["gen-data", "--out", str(tmp_path / "m"), "--classes", "4",
                   "--per-class", "2", flag, value])
        assert rc == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--mean-groups", "q=0|1"), ("--mu-scale", "q=3")])
    def test_unknown_modality_key_is_validation_error(self, tmp_path, capsys, flag, value):
        rc = main(["gen-data", "--out", str(tmp_path / "q"), "--classes", "2",
                   "--per-class", "2", flag, value])
        assert rc == 2
        assert "unknown modalities ['q']" in capsys.readouterr().err
        assert not (tmp_path / "q").exists()


    @pytest.mark.parametrize("flag,value,name", [("--mu", "nan", "mu"), ("--sigma", "inf", "sigma"),
                                                 ("--mu-scale", "v=nan", "mu_scale['v']")])
    def test_non_finite_scale_is_validation_error(self, tmp_path, capsys, flag, value, name):
        out = tmp_path / "s"
        rc = main(["gen-data", "--out", str(out), "--classes", "2", "--per-class", "2",
                   flag, value])
        assert rc == 2
        assert f"error: {name} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--mu", "1e308"), ("--mu-scale", "v=1e39")])
    def test_overflowing_scale_writes_nothing(self, tmp_path, capsys, flag, value):
        # finite scales whose features overflow float32 are rejected before
        # any file or directory is made, and numpy warns of nothing
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["gen-data", "--out", str(out), "--classes", "2", "--per-class", "2",
                       flag, value])
        assert rc == 2
        err = capsys.readouterr().err
        assert "overflow float32" in err
        assert all(name in err for name in ("--mu,", "--sigma", "--mu-scale"))
        assert not out.exists()

    def test_removed_flag_is_usage_error(self, tmp_path, capsys):
        # the latent width is a constant, data.LATENT_DIM
        out = tmp_path / "l"
        with pytest.raises(SystemExit) as exit_:
            main(["gen-data", "--out", str(out), "--latent-dim", "4"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --latent-dim 4" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,modality", [("--dim-v", "-1", "v"), ("--dim-a", "0", "a")])
    def test_width_below_one_is_validation_error(self, tmp_path, capsys, flag, value, modality):
        out = tmp_path / "w"
        rc = main(["gen-data", "--out", str(out), "--classes", "2", "--per-class", "2",
                   flag, value])
        assert rc == 2
        assert f"modality {modality!r}" in capsys.readouterr().err
        assert not out.exists()


class TestMissingInput:
    """A missing input file is a validation error (exit 2) naming its flag."""

    def test_missing_config(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        assert main(["train", "--config", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "--config" in err and str(missing) in err

    def test_missing_batch_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.tsv"
        assert main(["oracle-margin", "--batch-file", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "--batch-file" in err and str(missing) in err

    def test_missing_manifest(self, tmp_path, capsys):
        (tmp_path / "data").mkdir()
        assert main(["train", "--data-dir", str(tmp_path / "data")] + FAST) == 2
        err = capsys.readouterr().err
        assert "--data-dir" in err and "manifest.tsv" in err

    def test_missing_checkpoint_names_the_flag(self, dataset_dir, tmp_path, capsys):
        missing = tmp_path / "nope.wvfn"
        assert main(["eval", "--data-dir", str(dataset_dir), "--checkpoint", str(missing)]
                    + FAST) == 2
        assert "--checkpoint" in capsys.readouterr().err


class TestTrainEval:
    def test_train_then_eval(self, dataset_dir, tmp_path, capsys):
        # with no deep layer the trimodal model is the concat baseline: its
        # config and checkpoint round-trip as well
        for n_deep, fusion_mode in (("1", "per_layer"), ("0", "concat")):
            out = tmp_path / f"run{n_deep}"
            rc = main(["train", "--data-dir", str(dataset_dir), "--out-dir", str(out)] + FAST
                      + ["--n-deep", n_deep])
            assert rc == 0
            stdout = capsys.readouterr().out
            assert "test ACC" in stdout and "wall clock: " in stdout
            assert read_records(out / "model.wvfn")[0]["fusion_mode"] == fusion_mode

            dump = tmp_path / f"preds{n_deep}.tsv"
            rc = main(["eval", "--config", str(out / "config.cfg"),
                       "--checkpoint", str(out / "model.wvfn"), "--dump", str(dump)])
            assert rc == 0
            assert "ACC" in capsys.readouterr().out
            assert dump.exists()

    def test_checkpoint_of_other_architecture_is_validation_error(self, dataset_dir, tmp_path,
                                                                  capsys):
        out = tmp_path / "run"
        assert main(["train", "--data-dir", str(dataset_dir), "--out-dir", str(out)] + FAST) == 0
        rc = main(["eval", "--config", str(out / "config.cfg"),
                   "--checkpoint", str(out / "model.wvfn"), "--heads", "4"])
        assert rc == 2
        assert "heads" in capsys.readouterr().err

    def test_split_fractions_must_sum_to_one(self, dataset_dir, tmp_path, capsys):
        # train_frac is not a remainder: 0.5 beside the default 0.1 and 0.1
        # would have trained on 80% of the data
        rc = main(["train", "--data-dir", str(dataset_dir), "--out-dir", str(tmp_path / "run"),
                   "--train-frac", "0.5"] + FAST)
        assert rc == 2
        err = capsys.readouterr().err
        assert all(part in err for part in ("train_frac=0.5", "val_frac=0.1", "test_frac=0.1"))
        assert not (tmp_path / "run").exists()

    def test_flag_overrides_config_file(self, dataset_dir, tmp_path):
        out = tmp_path / "run"
        rc = main(["train", "--data-dir", str(dataset_dir), "--out-dir", str(out),
                   "--seed", "3"] + FAST)
        assert rc == 0
        assert load_config(out / "config.cfg").seed == 3
        out2 = tmp_path / "run2"
        rc = main(["train", "--config", str(out / "config.cfg"),
                   "--out-dir", str(out2), "--seed", "4"])
        assert rc == 0
        assert load_config(out2 / "config.cfg").seed == 4

    def test_env_var_default_out_dir(self, dataset_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("WAVFUSION_OUT_DIR", str(tmp_path / "envout"))
        rc = main(["train", "--data-dir", str(dataset_dir)] + FAST)
        assert rc == 0
        assert (tmp_path / "envout" / "model.wvfn").exists()

    def test_missing_data_dir_is_validation_error(self, capsys):
        rc = main(["train"] + FAST)
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_config_value_is_validation_error(self, dataset_dir):
        rc = main(["train", "--data-dir", str(dataset_dir)] + FAST + ["--heads", "5"])
        assert rc == 2

    def test_missing_checkpoint_is_validation_error(self, dataset_dir):
        rc = main(["eval", "--data-dir", str(dataset_dir),
                   "--checkpoint", "/nonexistent.wvfn"] + FAST)
        assert rc == 2

    def test_non_utf8_checkpoint_is_validation_error(self, dataset_dir, tmp_path, capsys):
        checkpoint = tmp_path / "bad.wvfn"
        checkpoint.write_bytes(b"WVFN\x02\x00\x00\x00\x04\x00\x00\x00\xff\xfe=\n")
        rc = main(["eval", "--data-dir", str(dataset_dir), "--checkpoint", str(checkpoint)] + FAST)
        assert rc == 2
        assert "offset 12" in capsys.readouterr().err

    def test_non_utf8_config_file_names_line_and_offset(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"d = 8\nmodalities = a\xff\n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert f"{cfg}:2: invalid UTF-8 at byte offset 20" in capsys.readouterr().err

    def test_non_utf8_manifest_names_line_and_offset(self, dataset_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        manifest = data / "manifest.tsv"
        blob = manifest.read_bytes()
        manifest.write_bytes(b"\xfe" + blob)
        assert main(["train", "--data-dir", str(data)] + FAST) == 2
        assert f"{manifest}:1: invalid UTF-8 at byte offset 0" in capsys.readouterr().err

    def test_directory_as_feature_file_is_validation_error(self, dataset_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        feature = data / "features" / "utt00000.a.wftf"
        feature.unlink()
        feature.mkdir()
        assert main(["train", "--data-dir", str(data)] + FAST) == 2
        err = capsys.readouterr().err
        assert "sample utt00000" in err and "features/utt00000.a.wftf" in err

    def test_bool_flag_parses_like_the_config_file(self):
        args = build_parser().parse_args(["train", "--lvc-enabled", "yes", "--d", "32"])
        expect = parse_config_text("lvc_enabled = yes\nd = 32\n")
        assert _config_from_args(args) == expect
        args = build_parser().parse_args(["train", "--lvc-enabled", "no"])
        assert _config_from_args(args).lvc_enabled is False

    @pytest.mark.parametrize("flag,value", [("--lvc-enabled", "maybe"), ("--d", "soon"),
                                            ("--alpha", "x")])
    def test_unparsable_config_flag_names_it(self, dataset_dir, capsys, flag, value):
        assert main(["train", "--data-dir", str(dataset_dir), flag, value]) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--freeze-shallow", "true"),
                                            ("--stop-train-acc", "1.0"),
                                            ("--fusion-mode", "concat"),
                                            ("--conv-kernel", "3")])
    def test_removed_config_flag_is_usage_error(self, dataset_dir, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exit_:
            main(["train", "--data-dir", str(dataset_dir), "--out-dir", str(tmp_path / "run"),
                  flag, value] + FAST)
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestAblateCli:
    def test_lvc_suite(self, dataset_dir, tmp_path, capsys):
        rc = main(["ablate", "--suite", "lvc", "--data-dir", str(dataset_dir),
                   "--out-dir", str(tmp_path / "ab"), "--seeds", "0"] + FAST)
        assert rc == 0
        out = capsys.readouterr().out
        assert "w/o LVC block" in out and "w/ LVC block" in out
        assert (tmp_path / "ab" / "lvc.tsv").exists()

    def test_dataset_is_loaded_once(self, dataset_dir, tmp_path, capsys, monkeypatch):
        loads = []

        def counted(*args, **kwargs):
            loads.append(args)
            return load_dataset(*args, **kwargs)

        monkeypatch.setattr(cli, "load_dataset", counted)
        monkeypatch.setattr(train_module, "load_dataset", counted)
        argv = ["ablate", "--suite", "lambda", "--data-dir", str(dataset_dir),
                "--out-dir", str(tmp_path / "ab"), "--seeds", "0,1"] + FAST
        assert main(argv) == 0
        assert len(loads) == 1
        # the table is the one each run loading the data itself gives
        cfg = _config_from_args(build_parser().parse_args(argv))
        assert capsys.readouterr().out == run_suite("lambda", cfg, [0, 1]).to_text()
        assert len(loads) == 1 + 10

    def test_malformed_seed_list_names_the_flag(self, dataset_dir, capsys):
        rc = main(["ablate", "--suite", "lvc", "--data-dir", str(dataset_dir),
                   "--seeds", "0,x"] + FAST)
        assert rc == 2
        assert "--seeds" in capsys.readouterr().err

    def test_repeated_seed_is_validation_error(self, dataset_dir, tmp_path, capsys):
        rc = main(["ablate", "--suite", "lvc", "--data-dir", str(dataset_dir),
                   "--out-dir", str(tmp_path / "ab"), "--seeds", "0,0"] + FAST)
        assert rc == 2
        assert "ablation seeds must differ; [0] repeat" in capsys.readouterr().err
        assert not (tmp_path / "ab").exists()


@pytest.fixture(scope="module")
def runs(dataset_dir, tmp_path_factory):
    """Trained run directories: the trimodal model with one deep layer, an
    audio+text one, and the concat baseline."""
    root = tmp_path_factory.mktemp("runs")
    extra = {"avt": [], "at": ["--modalities", "at"], "concat": ["--n-deep", "0"]}
    for name, flags in extra.items():
        args = ["train", "--data-dir", str(dataset_dir), "--out-dir", str(root / name)]
        assert main(args + FAST + flags) == 0
    return root


def eval_args(run, *flags):
    return ["eval", "--config", str(run / "config.cfg"), "--checkpoint", str(run / "model.wvfn"),
            *flags]


class TestEvalCli:
    def test_modality_subset_matches_in_process_evaluate(self, runs, capsys):
        capsys.readouterr()
        assert main(eval_args(runs / "avt", "--eval-modalities", "at")) == 0
        cfg = load_config(runs / "avt" / "config.cfg")
        dataset = load_dataset(cfg.data_dir)
        model = train_module.build_model(cfg, dataset)
        load_model(runs / "avt" / "model.wvfn", model)
        test_set = split(dataset.samples, cfg.split_policy())[2]
        acc, wf1, _, _ = train_module.evaluate(model, test_set, ("a", "t"))
        assert f"test ACC = {acc:.4f}  WF1 = {wf1:.4f}" in capsys.readouterr().out

    @pytest.mark.parametrize("run,mask,message", [
        ("avt", "x", "modalities must be a non-empty subset"),
        ("at", "av", "model has no branch for ['v']"),
        ("concat", "at", "concat fusion needs all three modalities")])
    def test_mask_errors_name_the_flag(self, runs, capsys, run, mask, message):
        capsys.readouterr()
        assert main(eval_args(runs / run, "--eval-modalities", mask)) == 2
        assert f"error: --eval-modalities: {message}" in capsys.readouterr().err

    def test_nan_checkpoint_payload_is_a_runtime_error(self, runs, tmp_path, capsys):
        header, records = read_records(runs / "avt" / "model.wvfn")
        records = [(name, np.full_like(arr, np.nan) if name == "classifier.bias" else arr)
                   for name, arr in records]
        write_records(tmp_path / "nan.wvfn", records, header)
        capsys.readouterr()
        rc = main(["eval", "--config", str(runs / "avt" / "config.cfg"),
                   "--checkpoint", str(tmp_path / "nan.wvfn"), "--split", "all"])
        assert rc == 1
        assert ("non-finite logits in the evaluation of utterances 0..15; first non-finite value "
                "logits, first non-finite parameter classifier.bias") in capsys.readouterr().err

    def test_nan_feature_value_is_a_runtime_error(self, runs, dataset_dir, tmp_path, capsys):
        # the pooling matrix takes one NaN to every utterance of its pass
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        feature = data / "features" / "utt00003.a.wftf"
        blob = bytearray(feature.read_bytes())
        blob[16:20] = np.array([np.nan], "<f4").tobytes()
        feature.write_bytes(bytes(blob))
        capsys.readouterr()
        rc = main(eval_args(runs / "avt", "--data-dir", str(data), "--split", "all"))
        assert rc == 1
        assert ("first non-finite value branch.a, first non-finite parameter none"
                in capsys.readouterr().err)


@pytest.fixture
def audio_only(tmp_path):
    """A one-layer audio-only gradcheck config file, laid over the tiny defaults."""
    path = tmp_path / "gradcheck.cfg"
    path.write_text("modalities = a\nn_shallow = 1\nn_deep = 0\nbatch_size = 2\n")
    return str(path)


class TestGradcheckCli:
    def test_pass(self, audio_only, capsys):
        rc = main(["gradcheck", "--config", audio_only])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_corrupt_fails_naming_layer(self, audio_only, capsys):
        rc = main(["gradcheck", "--config", audio_only, "--corrupt", "classifier.bias"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "classifier.bias" in captured.err

    @pytest.mark.parametrize("flag,value", [("--eps", "0"), ("--eps", "nan"), ("--eps", "-1e-4"),
                                            ("--tolerance", "0"), ("--tolerance", "inf")])
    def test_bad_step_or_tolerance_names_the_flag(self, flag, value, audio_only, capsys,
                                                  monkeypatch):
        # rejected before the model is built, so before any gradient pass
        monkeypatch.setattr(gradcheck, "build_model", None)
        rc = main(["gradcheck", "--config", audio_only, f"{flag}={value}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err


class TestOracleMarginCli:
    def test_reports_both_paths(self, tmp_path, capsys):
        batch = tmp_path / "batch.tsv"
        lines = ["a\t0\t1.0,2.0,3.0", "t\t0\t1.0,2.0,3.0", "a\t1\t3.0,-1.0,0.5"]
        batch.write_text("\n".join(lines) + "\n")
        rc = main(["oracle-margin", "--batch-file", str(batch), "--alpha", "0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "production" in out and "bruteforce" in out
        diff = float(out.splitlines()[2].split("=")[1])
        assert diff < 1e-10

    def test_empty_file_is_validation_error(self, tmp_path):
        batch = tmp_path / "empty.tsv"
        batch.write_text("")
        assert main(["oracle-margin", "--batch-file", str(batch)]) == 2

    @pytest.mark.parametrize("cell", ["1.0,abc", "1.0"])
    def test_malformed_vector_cell_names_the_line(self, tmp_path, capsys, cell):
        batch = tmp_path / "batch.tsv"
        batch.write_text(f"a\t0\t1.0,2.0\nt\t1\t{cell}\n")
        assert main(["oracle-margin", "--batch-file", str(batch)]) == 2
        assert f"{batch}:2:" in capsys.readouterr().err
