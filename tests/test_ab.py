"""The A/B step tool (``tools/ab.py``) against itself: one tree imported
twice computes the same numbers and checkpoint bytes in about the same
time, a copy whose checkpoint header or parameter order differs is refused,
a copy that writes other checkpoint bytes or takes another Adam step is
reported, a side's step is ``train.train_step``, and an unknown workload or
revision is a usage error."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import numpy.testing as npt
import pytest

import wavfusion.config
import wavfusion.optim
import wavfusion.train
from wavfusion import data

ROOT = Path(__file__).resolve().parent.parent


def load_ab():
    spec = importlib.util.spec_from_file_location("ab_tool", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_tree_is_exact_and_as_fast():
    ab = load_ab()
    result = ab.compare(ROOT / "src", ROOT / "src", "margin-b16", steps=8, seed=3)
    assert len(result["parent"]) == len(result["change"]) == 8
    assert result["loss_diff"] == result["grad_diff"] == result["param_diff"] == 0.0
    assert result["logit_diff"] == 0.0 and result["same_checkpoint"] is True
    assert 0.5 < result["ratio"] < 2.0


def edited_tree(tmp_path, module: str, old: str, new: str) -> Path:
    """A copy of ``src/`` with ``old`` replaced by ``new`` in one module."""
    edited = tmp_path / "src"
    shutil.copytree(ROOT / "src", edited, ignore=shutil.ignore_patterns("__pycache__"))
    path = edited / "wavfusion" / module
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    return edited


def test_refuses_trees_with_different_checkpoint_headers(tmp_path):
    # same parameter names, but a header that an older reader would reject
    edited = edited_tree(tmp_path, "checkpoint.py", '"fusion_mode": model.fusion_mode}',
                         '"fusion_mode": "concat"}')
    with pytest.raises(SystemExit, match="different checkpoint headers"):
        load_ab().compare(edited, ROOT / "src", "margin-b16", steps=2, seed=3)


def test_refuses_trees_that_order_parameters_differently(tmp_path):
    # the same names, values and results, but each Linear lists bias before weight
    edited = edited_tree(
        tmp_path, "layers.py",
        "        self.weight = _param(xavier_uniform(rng, d_in, d_out, (d_in, d_out)))\n"
        "        self.bias = _param(np.zeros(d_out))\n",
        "        self.bias = _param(np.zeros(d_out))\n"
        "        self.weight = _param(xavier_uniform(rng, d_in, d_out, (d_in, d_out)))\n")
    with pytest.raises(SystemExit, match="name or order their parameters differently"):
        load_ab().compare(edited, ROOT / "src", "margin-b16", steps=2, seed=3)


def test_reports_trees_that_write_different_checkpoint_bytes(tmp_path, monkeypatch, capsys):
    # the same steps, but records written in reverse order
    edited = edited_tree(tmp_path, "checkpoint.py",
                         "for name, p in model.named_parameters()]",
                         "for name, p in model.named_parameters()][::-1]")
    ab = load_ab()
    result = ab.compare(edited, ROOT / "src", "margin-b16", steps=2, seed=3)
    assert result["loss_diff"] == result["grad_diff"] == result["logit_diff"] == 0.0
    assert result["same_checkpoint"] is False
    monkeypatch.setattr(ab, "extract_src", lambda *args: edited)
    assert ab.main(["--parent", "HEAD", "--workload", "margin-b16", "--steps", "2",
                    "--exact"]) == 1
    assert "checkpoint bytes differ" in capsys.readouterr().out


def test_reports_trees_whose_adam_steps_differ(tmp_path, monkeypatch, capsys):
    # lr / c1 folded into one multiply: the same loss, gradients, logits and
    # checkpoint bytes at each sync, but parameters that differ in the last
    # bits after each side's own step
    edited = edited_tree(tmp_path, "optim.py",
                         "            np.divide(m, c1, out=g)\n"
                         "            np.multiply(lr, g, out=g)\n",
                         "            np.multiply(m, lr / c1, out=g)\n")
    ab = load_ab()
    result = ab.compare(edited, ROOT / "src", "margin-b16", steps=8, seed=3)
    assert result["loss_diff"] == result["grad_diff"] == result["logit_diff"] == 0.0
    assert result["same_checkpoint"] is True
    assert 0.0 < result["param_diff"] < 1e-12
    monkeypatch.setattr(ab, "extract_src", lambda *args: edited)
    assert ab.main(["--parent", "HEAD", "--workload", "margin-b16", "--steps", "8",
                    "--seed", "3", "--exact"]) == 1
    out = capsys.readouterr().out
    assert f"max |post-Adam parameter diff| {result['param_diff']:.3e} " in out
    assert f"({result['param_worst']})" in out


def test_side_step_is_train_step(tmp_path):
    # each side composes its tree's primitives so that an older parent runs;
    # on one tree that composition must be train_step, loss, gradients and
    # parameters alike
    ab = load_ab()
    bench = ab.load_module("ab_workloads", ab.WORKLOADS)
    workload = bench.WORKLOADS["margin-b16"]
    data.generate_synthetic(data.SynthSpec(classes=bench.CLASSES, per_class=bench.PER_CLASS,
                                           dims=dict(bench.DIMS), seq_len=dict(workload.seq_len),
                                           seed=3), tmp_path)
    dataset = data.load_dataset(tmp_path)
    side, ref = (ab.Side(wavfusion, workload, bench.COMMON, 3, dataset) for _ in range(2))
    cfg, mask = ref.cfg, ref.cfg.mask()
    train_set = data.split(dataset.samples, cfg.split_policy())[0]
    for i, batch in enumerate(wavfusion.train.batch_order(train_set, cfg.batch_size, 3, 1)[:4]):
        loss, grads = side.step(batch, mask)
        assert wavfusion.train.train_step(ref.model, ref.opt, batch, mask, cfg, f"step {i}") == loss
        for name, p in ref.params.items():
            npt.assert_array_equal(p.grad, grads[name], err_msg=name)
            npt.assert_array_equal(p.data, side.params[name].data, err_msg=name)


def test_extracts_a_revision(tmp_path):
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                      capture_output=True).returncode != 0:
        pytest.skip("not a git checkout")
    src = load_ab().extract_src("HEAD", tmp_path)
    assert (src / "wavfusion" / "tensor.py").is_file()


def test_unknown_workload_is_a_usage_error_before_any_unpacking(monkeypatch, capsys):
    ab = load_ab()
    monkeypatch.setattr(ab, "extract_src", lambda *args: pytest.fail("unpacked a tree"))
    with pytest.raises(SystemExit) as exit_info:
        ab.main(["--parent", "HEAD", "--workload", "nope"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "'nope'" in err and "margin-b16" in err and "paper-b8" in err


def test_unknown_revision_is_a_usage_error(capsys):
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                      capture_output=True).returncode != 0:
        pytest.skip("not a git checkout")
    with pytest.raises(SystemExit) as exit_info:
        load_ab().main(["--parent", "no-such-ref", "--workload", "margin-b16"])
    assert exit_info.value.code == 2
    assert "'no-such-ref'" in capsys.readouterr().err
