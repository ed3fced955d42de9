"""The A/B step tool (``tools/ab.py``) against itself: one tree imported
twice computes the same numbers and checkpoint bytes in about the same
time, a copy whose checkpoint header or parameter order differs is refused,
a copy that writes other checkpoint bytes is reported, and an unknown
workload or revision is a usage error."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

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
    assert result["loss_diff"] == 0.0 and result["grad_diff"] == 0.0
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
